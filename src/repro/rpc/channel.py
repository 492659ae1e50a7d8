"""Request/response channels: client node <-> service node over one link.

A call is a DES process: the client pays per-message CPU, the request
frame crosses the link, the server pays per-message CPU and runs the
handler (itself a generator process that may read disks and burn CPU),
and the response frame crosses back.  Handler exceptions become
:class:`RpcStatusError` at the caller, like gRPC status codes.

Callers may set a per-call **deadline**: a :class:`Timeout` event raced
against the round trip.  When the timer wins, the caller gets
``RpcStatusError(StatusCode.DEADLINE_EXCEEDED)`` and the client-side
process is interrupted (the server may keep working into the void,
exactly like a real gRPC server after the client hangs up).  Injected
link faults (:class:`~repro.errors.LinkDropError`) surface as
``UNAVAILABLE`` — the retryable status class.

**Tracing.**  Both ends accept a :class:`~repro.trace.Tracer`.  The
client opens one span per *attempt* (``rpc:<method>``), tagged with the
status code on failure; the server opens a child span under the caller's
:class:`~repro.trace.SpanContext`, which propagates as an extra dispatch
argument — the simulated analogue of gRPC metadata headers, already
budgeted inside :data:`FRAME_OVERHEAD_BYTES` so propagation moves no
extra simulated bytes.  Handlers that want the context declare a second
parameter ``(payload, trace)``; single-argument handlers keep working.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Generator, Optional, Tuple

from repro.errors import LinkDropError, RpcError, RpcStatusError, StatusCode
from repro.sim import santrack
from repro.sim.costmodel import CostParams
from repro.sim.kernel import AnyOf, Process, Simulator
from repro.sim.network import Link
from repro.sim.node import SimNode
from repro.trace import Span, SpanContext, Tracer

__all__ = ["RpcService", "RpcClient", "FRAME_OVERHEAD_BYTES"]

#: Fixed per-message framing bytes (headers + trace context, an
#: HTTP/2-ish envelope).
FRAME_OVERHEAD_BYTES = 64

#: A handler receives the request payload (and optionally the caller's
#: span context) and returns response bytes.
Handler = Callable[..., Generator]


def _wants_trace(handler: Handler) -> bool:
    """True when ``handler`` accepts a second (trace-context) argument."""
    try:
        params = inspect.signature(handler).parameters.values()
    except (TypeError, ValueError):
        return False
    positional = [
        p
        for p in params
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    if len(positional) >= 2:
        return True
    return any(p.kind is p.VAR_POSITIONAL for p in params)


class RpcService:
    """A named service bound to a node; methods registered by name."""

    def __init__(
        self,
        sim: Simulator,
        node: SimNode,
        name: str,
        costs: CostParams,
        tracer: Tracer,
    ) -> None:
        self.sim = sim
        self.node = node
        self.name = name
        self.costs = costs
        self.tracer = tracer
        self._handlers: Dict[str, Tuple[Handler, bool]] = {}
        self.calls_served = 0

    def register(self, method: str, handler: Handler) -> None:
        if method in self._handlers:
            raise RpcError(f"method {method!r} already registered on {self.name}")
        # Arity is inspected once here, not per call: legacy single-arg
        # handlers stay valid, two-arg handlers receive the span context.
        self._handlers[method] = (handler, _wants_trace(handler))

    def dispatch(self, method: str, payload: bytes, trace: Optional[SpanContext] = None):
        """Server-side processing generator: overhead + handler.

        ``trace`` is the caller's span context as carried by the frame;
        the server-side span is parented under it so one query's spans
        form a single tree across node boundaries.
        """
        entry = self._handlers.get(method)
        if entry is None:
            raise RpcStatusError(
                StatusCode.UNIMPLEMENTED, f"{self.name} has no method {method!r}"
            )
        handler, wants_trace = entry
        span = self.tracer.start(
            f"{self.name}.server:{method}",
            parent=trace,
            attributes={"node": self.node.name},
        )
        try:
            yield self.node.execute(self.costs.rpc_cycles_per_message, name=f"rpc:{method}")
            work = handler(payload, span.context) if wants_trace else handler(payload)
            response = yield self.sim.process(work, name=f"{self.name}:{method}")
            if not isinstance(response, (bytes, bytearray)):
                raise RpcStatusError(
                    StatusCode.INTERNAL,
                    f"handler for {method!r} returned {type(response).__name__}",
                )
        except RpcStatusError as exc:
            span.record_error(exc.code)
            raise
        except Exception:
            span.record_error(StatusCode.INTERNAL)
            raise
        finally:
            self.tracer.end(span)
        self.calls_served += 1
        return bytes(response)


class RpcClient:
    """Client stub: calls one service across one link."""

    def __init__(
        self,
        sim: Simulator,
        node: SimNode,
        link: Link,
        service: RpcService,
        costs: CostParams,
        tracer: Tracer,
    ) -> None:
        self.sim = sim
        self.node = node
        self.link = link
        self.service = service
        self.costs = costs
        self.tracer = tracer
        self.deadlines_exceeded = 0

    def call(
        self,
        method: str,
        payload: bytes,
        deadline_s: Optional[float] = None,
        parent: "Span | SpanContext | None" = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Process:
        """Invoke ``method``; the returned process resolves to response bytes.

        With ``deadline_s`` set, the round trip races a timer; losing the
        race raises ``RpcStatusError(StatusCode.DEADLINE_EXCEEDED)`` at
        the caller.  One span covers this single attempt, including any
        backoffless deadline race; retries are separate ``call``s and so
        get separate spans.
        """
        # The span closes in _traced()'s finally, not here: the attempt
        # body is a generator and must carry its span across resumptions.
        span = self.tracer.start(  # simlint: ignore[span-pair]
            f"rpc:{method}", parent=parent, attributes=attributes
        )
        span.set("peer", self.service.node.name)
        if deadline_s is None:
            body = self._call(method, payload, span)
        else:
            body = self._call_with_deadline(method, payload, deadline_s, span)
        return self.sim.process(self._traced(body, span), name=f"rpc-call:{method}")

    def _traced(self, body, span: Span):
        """Wrap an attempt generator so its span always closes, with status."""
        try:
            response = yield from body
        except RpcStatusError as exc:
            span.record_error(exc.code)
            raise
        except BaseException:
            span.record_error(StatusCode.INTERNAL)
            raise
        finally:
            self.tracer.end(span)
        return response

    def _call_with_deadline(self, method: str, payload: bytes, deadline_s: float, span: Span):
        span.set("deadline_s", deadline_s)
        if deadline_s <= 0:
            self.deadlines_exceeded += 1
            raise RpcStatusError(
                StatusCode.DEADLINE_EXCEEDED,
                f"{method!r} deadline {deadline_s!r}s already expired",
            )
        work = self.sim.process(self._call(method, payload, span), name=f"rpc-body:{method}")
        timer = self.sim.timeout(deadline_s)
        winner, _ = yield AnyOf(self.sim, [timer, work])
        if winner is timer and work.is_alive:
            # Abandon the client side; any in-flight server work continues
            # unobserved, as after a real client hang-up.
            work.interrupt("deadline")
            self.deadlines_exceeded += 1
            raise RpcStatusError(
                StatusCode.DEADLINE_EXCEEDED, f"{method!r} exceeded {deadline_s:g}s deadline"
            )
        sanitizer = santrack.active()
        if sanitizer is not None:
            # The timer may have won the AnyOf race with the response
            # completing at the same instant; the wake then carries no
            # happens-before edge from ``work``, so donate its clock
            # before the caller consumes the response.
            sanitizer.observe_completion(work)
        return work.value

    def _call(self, method: str, payload: bytes, span: Span):
        try:
            yield self.node.execute(
                self.costs.rpc_cycles_per_message, name=f"rpc:{method}"
            )
            yield self.link.transfer(
                self.node.name,
                self.service.node.name,
                len(payload) + FRAME_OVERHEAD_BYTES,
                label=f"rpc:{method}:request",
            )
            try:
                response = yield self.sim.process(
                    self.service.dispatch(method, payload, trace=span.context),
                    name=f"dispatch:{method}",
                )
            except (RpcStatusError, LinkDropError):
                raise
            except Exception as exc:  # noqa: BLE001 - map to status like gRPC
                raise RpcStatusError(StatusCode.INTERNAL, str(exc)) from exc
            yield self.link.transfer(
                self.service.node.name,
                self.node.name,
                len(response) + FRAME_OVERHEAD_BYTES,
                label=f"rpc:{method}:response",
            )
        except LinkDropError as exc:
            raise RpcStatusError(StatusCode.UNAVAILABLE, str(exc)) from exc
        span.set("request_bytes", len(payload))
        span.set("response_bytes", len(response))
        return response
