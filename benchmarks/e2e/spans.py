"""Host-clock spans around each layer's public boundary, taken from outside.

For the traced pass only, :class:`SpanRecorder` wraps the callables listed
in :data:`BOUNDARIES` — class attributes in place, module functions by
rebinding every ``sys.modules`` global that *is* the original object, so
``from x import y`` callers are covered — records one span per call on a
stack, and restores every original afterwards.  Nothing in ``src/`` knows
it is being timed; end-to-end metrics come only from untraced passes.

A span's *self time* is its duration minus the part its child spans cover.
The host runs one thread, so spans nest properly and the self times of one
op partition the op's root span.

Generator-based simulator processes (``page_source``, ``DagScheduler.run``,
``ExchangeFabric.put``, the coordinator's ``_run_query``) are stepped by the
event kernel and cannot be timed by call duration: their host time lands in
the self time of ``Simulator.run`` (``sim.self_ms``), their simulated time
in ``engine.sim_stage_s.*``.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["BOUNDARIES", "Boundary", "Span", "SpanRecorder", "self_times"]

#: ``probe(args, result, entered) -> {counter: amount}`` — counts taken at the
#: same boundary as the time, so ratios are measured where the work happens.
#: ``entered`` is whatever the boundary's ``enter(args)`` returned before the
#: call (``None`` without one).
Probe = Callable[[tuple, object, object], Dict[str, float]]


@dataclass(frozen=True)
class Boundary:
    """One public callable to time: ``module:qualname`` in ``layer``.

    ``bucket`` names the self-time bucket the span feeds (a string, or a
    function of the call's positional arguments for per-codec buckets).
    """

    layer: str
    target: str
    bucket: "str | Callable[[tuple], str]"
    probe: Optional[Probe] = None
    enter: Optional[Callable[[tuple], object]] = None


def _codec_bucket(direction: str) -> Callable[[tuple], str]:
    return lambda args: f"compress.{direction}_ms.{args[0].name}"


def _codec_bytes(args: tuple, result: object, entered: object) -> Dict[str, float]:
    return {"compress.bytes_in": len(args[1]), "compress.bytes_out": len(result)}


def _rpc_call(args: tuple, result: object, entered: object) -> Dict[str, float]:
    method, payload = args[1], args[2]
    counts = {"rpc.calls": 1, "rpc.payload_bytes": len(payload)}
    if method.startswith("s3."):
        counts["hive.fetch_calls"] = 1
    return counts


def _get_bytes(args: tuple, result: object, entered: object) -> Dict[str, float]:
    return {"objectstore.get_calls": 1, "objectstore.get_bytes": len(result)}


BOUNDARIES: Tuple[Boundary, ...] = (
    # -- front end --------------------------------------------------------
    Boundary("sql", "repro.sql.parser:parse", "sql.parse_ms",
             lambda a, r, e: {"sql.calls": 1}),
    Boundary("sql", "repro.sql.analyzer:analyze", "sql.analyze_ms"),
    Boundary("rewrite", "repro.rewrite.engine:rewrite_statement", "rewrite.ms",
             lambda a, r, e: {"rewrite.rules_fired": len(r.firings)}),
    Boundary("plan", "repro.plan.planner:plan_query", "plan.plan_ms"),
    Boundary("plan", "repro.plan.optimizer:GlobalOptimizer.optimize",
             "plan.optimize_ms"),
    # -- the paper's connector ------------------------------------------------
    Boundary("core", "repro.core.optimizer:OcsPlanOptimizer.optimize",
             "core.optimize_ms"),
    Boundary("core", "repro.core.translator:build_pushdown_plan",
             "core.translate_ms"),
    Boundary("substrait", "repro.substrait.serde:serialize_plan",
             "substrait.serde_ms"),
    Boundary("substrait", "repro.substrait.serde:deserialize_plan",
             "substrait.serde_ms"),
    Boundary("substrait", "repro.substrait.validator:validate_plan",
             "substrait.validate_ms"),
    Boundary("substrait", "repro.substrait.fingerprint:fingerprint_plan",
             "substrait.fingerprint_ms"),
    # Returns a Process at once: counted, never timed.
    Boundary("rpc", "repro.rpc.channel:RpcClient.call", "rpc.call_ms", _rpc_call),
    # -- storage side -------------------------------------------------------------
    Boundary("ocs", "repro.ocs.embedded_engine:EmbeddedEngine.execute",
             "ocs.execute_ms"),
    Boundary("formats", "repro.formats.reader:ParcelReader.__init__",
             "formats.read_ms"),
    Boundary("formats", "repro.formats.reader:meta_from_tail", "formats.read_ms"),
    Boundary("formats", "repro.formats.reader:ParcelReader.read_row_group",
             "formats.read_ms"),
    Boundary("formats", "repro.formats.encoding:decode_chunk", "formats.read_ms",
             lambda a, r, e: {"formats.read_calls": 1}),
    Boundary("formats", "repro.formats.writer:write_table", "formats.write_ms"),
    Boundary("compress", "repro.compress.codec:Codec.compress",
             _codec_bucket("compress"), _codec_bytes),
    Boundary("compress", "repro.compress.codec:Codec.decompress",
             _codec_bucket("decompress"), _codec_bytes),
    Boundary("arrowsim", "repro.arrowsim.ipc:serialize_batches",
             "arrowsim.serialize_ms",
             lambda a, r, e: {"arrowsim.ipc_bytes": len(r)}),
    Boundary("arrowsim", "repro.arrowsim.ipc:deserialize_batches",
             "arrowsim.deserialize_ms"),
    Boundary("objectstore", "repro.objectstore.store:ObjectStore.get_object",
             "objectstore.ms", _get_bytes),
    Boundary("objectstore", "repro.objectstore.store:ObjectStore.get_object_range",
             "objectstore.ms", _get_bytes),
    Boundary("objectstore", "repro.objectstore.store:ObjectStore.put_object",
             "objectstore.ms",
             lambda a, r, e: {"objectstore.put_bytes": len(a[3])}),
    Boundary("metastore", "repro.metastore.collector:collect_table_statistics",
             "metastore.stats_ms"),
    Boundary("workloads", "repro.workloads.datasets:build_dataset",
             "workloads.generate_ms"),
    # -- compute side -----------------------------------------------------------------
    Boundary("exec", "repro.exec.operators:run_operators", "exec.run_operators_ms"),
    Boundary("exec", "repro.exec.aggregates:grouped_aggregate", "exec.aggregate_ms"),
    Boundary("exec", "repro.exec.aggregates:global_aggregate", "exec.aggregate_ms"),
    Boundary("exec", "repro.exec.operators:HashJoinOperator.finish_build",
             "exec.hashjoin_ms"),
    Boundary("exec", "repro.exec.operators:HashJoinOperator.process",
             "exec.hashjoin_ms"),
    Boundary("exchange", "repro.exchange.partition:hash_partition",
             "exchange.partition_ms"),
    Boundary("exchange", "repro.exchange.shuffle:encode_page",
             "exchange.page_codec_ms"),
    Boundary("exchange", "repro.exchange.shuffle:decode_page",
             "exchange.page_codec_ms"),
    Boundary("exchange", "repro.exchange.filters:build_dynamic_filter",
             "exchange.dynamic_filter_build_ms"),
    Boundary("cache", "repro.cache.budget:ByteBudgetCache.get", "cache.lookup_ms"),
    Boundary("cache", "repro.cache.budget:ByteBudgetCache.put", "cache.lookup_ms"),
    Boundary("trace", "repro.trace.tracer:Tracer.start", "trace.start_end_ms",
             lambda a, r, e: {"trace.spans": 1 if a[0].enabled else 0}),
    Boundary("trace", "repro.trace.tracer:Tracer.end", "trace.start_end_ms"),
    Boundary("trace", "repro.trace.tracer:Tracer.trace", "trace.assemble_ms"),
    # -- drivers ----------------------------------------------------------------------
    Boundary("sim", "repro.sim.kernel:Simulator.run", "sim.self_ms",
             lambda a, r, e: {"sim.events": a[0].events_dispatched - e},
             enter=lambda a: a[0].events_dispatched),
    Boundary("engine", "repro.bench.env:Environment.run", "engine.self_ms"),
    Boundary("engine", "repro.engine.coordinator:Coordinator.execute",
             "engine.self_ms"),
    Boundary("service", "repro.service.service:QueryService.__init__",
             "engine.self_ms"),
    Boundary("service", "repro.service.service:QueryService.submit",
             "engine.self_ms"),
    Boundary("service", "repro.service.service:QueryService.drain",
             "engine.self_ms"),
    Boundary("service", "repro.service.slo:build_report", "engine.self_ms"),
)

#: Spans of this target mark work done at the storage tier: ``repro.exec``
#: kernels called beneath it are OCS-engine time, not compute-side ``exec``.
OCS_TARGET = "repro.ocs.embedded_engine:EmbeddedEngine.execute"


@dataclass
class Span:
    """One timed call.  ``parent`` indexes :attr:`SpanRecorder.spans` (-1 = root)."""

    name: str
    layer: str
    bucket: str
    start: float
    end: float
    parent: int
    op_id: int
    counters: Optional[Dict[str, float]] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Installs the boundary wrappers, collects spans, restores originals."""

    def __init__(self, boundaries: Tuple[Boundary, ...] = BOUNDARIES) -> None:
        self.boundaries = boundaries
        self.spans: List[Span] = []
        #: Set by the harness around each op so its spans share an identifier;
        #: negative between ops, when calls pass through unrecorded.
        self.op_id = -1
        self._stack: List[int] = []
        #: (owner, attribute, original or _ABSENT, wrapper) per patched class.
        self._class_patches: List[tuple] = []
        #: (original, wrapper) per patched module function.
        self._function_patches: List[Tuple[object, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        name, layer = boundary.target, boundary.layer
        bucket, probe, enter = boundary.bucket, boundary.probe, boundary.enter

        def wrapper(*args, **kwargs):
            if self.op_id < 0:  # between ops: oracle and harness work
                return fn(*args, **kwargs)
            span = Span(
                name, layer,
                bucket if isinstance(bucket, str) else bucket(args),
                0.0, 0.0, stack[-1] if stack else -1, self.op_id,
            )
            stack.append(len(spans))
            spans.append(span)
            entered = enter(args) if enter is not None else None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if probe is not None:
                span.counters = probe(args, result, entered)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def install(self) -> None:
        """Wrap every boundary; a missing target is an error, not a skip."""
        for boundary in self.boundaries:
            owner, attribute = _locate(boundary.target)
            if isinstance(owner, type):
                # An inherited method is wrapped on the subclass only, so
                # sibling classes keep the untimed original.
                original = owner.__dict__.get(attribute, _ABSENT)
                wrapper = self._wrap(boundary, getattr(owner, attribute))
                setattr(owner, attribute, wrapper)
                self._class_patches.append((owner, attribute, original, wrapper))
            else:
                original = getattr(owner, attribute)
                wrapper = self._wrap(boundary, original)
                _rebind_globals(original, wrapper)
                self._function_patches.append((original, wrapper))

    def uninstall(self) -> None:
        """Restore every original, including late ``from x import y`` copies."""
        for owner, attribute, original, _ in reversed(self._class_patches):
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        for original, wrapper in self._function_patches:
            _rebind_globals(wrapper, original)
        self._class_patches.clear()
        self._function_patches.clear()

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def resolved(self) -> List[Tuple[str, object]]:
        """What each boundary's ``module:qualname`` resolves to right now.

        For class attributes this is the entry in the owner's ``__dict__``
        (absent for inherited methods), so an identity comparison before
        and after a traced pass proves the wrappers are gone.
        """
        out = []
        for boundary in self.boundaries:
            owner, attribute = _locate(boundary.target)
            out.append((boundary.target, vars(owner).get(attribute, _ABSENT)))
        return out

    # -- output --------------------------------------------------------------------

    def write(self, path: str) -> None:
        """Dump ``(name, layer, start, end, parent, op_id)`` rows as JSON."""
        rows = [
            [s.name, s.layer, s.start, s.end, s.parent, s.op_id] for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"columns": ["name", "layer", "start", "end", "parent", "op_id"],
                 "spans": rows},
                handle,
            )


_ABSENT = object()


def _locate(target: str) -> Tuple[object, str]:
    """``module:Class.method`` -> (class, name); ``module:function`` -> (module, name)."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attribute


def _rebind_globals(old: object, new: object) -> None:
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        namespace = vars(module)
        for key in [k for k, v in namespace.items() if v is old]:
            namespace[key] = new


def self_times(spans: List[Span]) -> List[float]:
    """Per-span self seconds: duration minus what child spans cover."""
    own = [span.seconds for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.seconds
    return own
