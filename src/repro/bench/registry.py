"""The suite registry: everything ``repro.bench`` can run, declared once.

A suite is ``name -> scales -> run(scale, **flags) -> doc -> render(doc)``
plus the gates it declares on that doc.  ``run`` returns one JSON-able
document; stdout is ``render(doc)`` and nothing else; the snapshot
section is that same doc.  The CLI (one parser), ``bench snapshot``
(collect + compare) and the CI bench matrix are loops over
:data:`SUITES` — adding a suite, a scale or a gate is one entry here
(plus its row in :mod:`repro.bench.scales`), not a new CLI branch,
snapshot block and CI job.

A new suite goes in its own module: the module's name is the suite's,
its docstring is the ``--help`` text (first line: the summary), and it
exposes ``run`` and ``render``.  It builds its datasets from the
``repro.workloads`` ``*_spec`` helpers and reads its sizes from
``SCALES[name][scale]``.

Imported by :mod:`repro.bench.cli` and :mod:`repro.bench.snapshot` only:
``repro.bench`` itself stays ``env`` + ``report``, because the query
path (``repro.client``, ``repro.service``) imports it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from types import ModuleType
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.bench import (
    cache,
    dag,
    figure5,
    figure6,
    join,
    kernels,
    lossy,
    rewrite,
    service,
    table2,
    table3,
)
from repro.bench.scales import SCALES

__all__ = ["Doc", "Flag", "Gate", "SEED", "SUITES", "Suite", "select", "suite"]

Doc = Dict[str, Any]
#: One suite-declared CLI flag: ``add_argument``'s name and keywords.
#: The keyword ``run`` receives is argparse's dest (``--trace-out`` ->
#: ``trace_out``).
Flag = Tuple[str, Mapping[str, Any]]

SEED: Flag = ("--seed", {"type": int, "default": 0})


@dataclass(frozen=True)
class Gate:
    """What ``bench snapshot --check`` holds a suite's doc to.

    Every entry is a glob over the doc's dotted paths (``*`` spans
    levels: ``configs.*.seconds``).  Nothing is inferred from key names:
    a number is gated because it is listed here.
    """

    #: Simulated seconds / bytes: at most 10 % above the baseline.
    lower: Tuple[str, ...] = ()
    #: Booleans the suite publishes that must be (and stay) true.
    invariants: Tuple[str, ...] = ()
    #: Result and stored-byte digests: equal to the baseline's.
    digests: Tuple[str, ...] = ()
    #: ``(path, minimum)``: machine-dependent same-machine ratios, held
    #: to an absolute floor instead of the baseline.
    floors: Tuple[Tuple[str, float], ...] = ()


def select(doc: object, patterns: Sequence[str], prefix: str = "") -> Dict[str, Any]:
    """``dotted path -> leaf`` for every leaf of ``doc`` a glob matches."""
    if isinstance(doc, dict):
        items: Iterable[Tuple[Any, Any]] = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {prefix: doc} if any(fnmatchcase(prefix, p) for p in patterns) else {}
    out: Dict[str, Any] = {}
    for key, value in items:
        out.update(select(value, patterns, f"{prefix}.{key}" if prefix else str(key)))
    return out


@dataclass(frozen=True)
class Suite:
    name: str
    default_scale: str
    run: Callable[..., Doc]
    render: Callable[[Doc], str]
    #: ``<suite> --help`` text; its first line is the one-line summary.
    doc: str
    flags: Tuple[Flag, ...] = ()
    #: Declared gates; a gated suite is a section of ``bench snapshot``.
    gate: Optional[Gate] = None

    @property
    def scales(self) -> Tuple[str, ...]:
        return tuple(SCALES[self.name])


def suite(
    module: ModuleType,
    default_scale: str,
    flags: Tuple[Flag, ...] = (),
    gate: Optional[Gate] = None,
) -> Suite:
    """A suite module declares itself: its name, docstring, ``run``, ``render``."""
    name = module.__name__.rpartition(".")[2]
    return Suite(
        name, default_scale, module.run, module.render, module.__doc__ or "", flags, gate
    )


SUITES: Dict[str, Suite] = {entry.name: entry for entry in (
    suite(
        figure5,
        "small",
        flags=(
            ("--dataset", {"choices": [*figure5.FIGURE5_SPECS, "all"], "default": "all"}),
        ),
    ),
    suite(figure6, "small"),
    suite(table2, "small"),
    suite(
        table3,
        "small",
        flags=(
            (
                "--trace",
                {
                    "action": "store_true",
                    "help": "record a span tree and assert the stage totals "
                    "are re-derivable from it",
                },
            ),
            (
                "--trace-out",
                {
                    "metavar": "PATH",
                    "help": "with --trace, also export the spans as Chrome "
                    "tracing JSON (chrome://tracing / Perfetto)",
                },
            ),
        ),
        gate=Gate(lower=("total_s", "stage_seconds.*")),
    ),
    suite(lossy, "small"),
    suite(
        service,
        "default",
        flags=(
            SEED,
            ("--queries", {"type": int, "help": "default: the scale's"}),
            ("--policy", {"choices": ["fifo", "fair"], "help": "default: the scale's"}),
        ),
        gate=Gate(lower=("makespan_s",), digests=("digest",)),
    ),
    suite(
        join,
        "sf0.1",
        flags=(SEED, ("--query", {"choices": list(join.QUERIES), "default": "q3"})),
        gate=Gate(
            lower=(
                "configs.*.seconds",
                "configs.*.moved_bytes",
                "configs.*.shuffle_bytes",
            ),
            invariants=("identical",),
        ),
    ),
    suite(
        kernels,
        "default",
        gate=Gate(
            lower=(
                "sim.*.sim_s",
                "sim.*.bytes_moved",
                "formats.files.*.stored_bytes",
            ),
            digests=(
                "micro_digest",
                "sim.*.digest",
                "formats.files.*.sha256_digest",
            ),
            # Raw wall seconds are not gated at all; the tree/fused ratio
            # is a same-machine number, so CI host speed cancels out, and
            # rerun jitter exceeds 10 % — hence a floor, not the baseline.
            floors=(("wall_speedup", kernels.MIN_WALL_SPEEDUP),),
        ),
    ),
    suite(
        dag,
        "smoke",
        flags=(SEED,),
        gate=Gate(
            lower=("p50_off_s", "p99_off_s", "p50_on_s", "p99_on_s"),
            invariants=("identical", "replay_identical", "p99_improves"),
            digests=("digest",),
        ),
    ),
    suite(
        cache,
        "smoke",
        flags=(SEED,),
        gate=Gate(
            lower=("levels.*.moved_bytes", "levels.*.p50_s", "levels.*.p99_s"),
            invariants=(
                "digests_identical",
                "bytes_strictly_decreasing",
                "p99_improves",
            ),
            digests=("digest",),
        ),
    ),
    suite(
        rewrite,
        "smoke",
        flags=(SEED,),
        gate=Gate(
            lower=("semi.*.static_moved_bytes", "semi.*.dynamic_moved_bytes"),
            invariants=(
                "parity_identical",
                "semi_digests_identical",
                "semi_moves_fewer_bytes",
            ),
            digests=("digest", "semi.*.digest"),
        ),
    ),
)}
