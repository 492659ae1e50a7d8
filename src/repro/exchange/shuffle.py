"""The shuffle: Arrow-IPC exchange pages moved over the simulated network.

One :class:`ExchangeFabric` lives on the compute node and hosts the
``exchange`` RPC service.  A *put* is the network hop: the sender
serializes a partition's batches into an Arrow-IPC framed page, claims a
backpressure slot, and sends the page over the exchange link through
:func:`~repro.rpc.retry.retrying_call` — so injected link faults exercise
real retries, and a page lost beyond the retry budget surfaces as
:class:`~repro.errors.ExchangeFaultError`.  A *get* (``drain``) is a
local buffer read on the receiving side: pages are returned sorted by
``(sender, seq)`` and de-duplicated, so downstream row order — and hence
any order-sensitive float aggregation — is identical across replays no
matter how page arrivals interleaved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.arrowsim.ipc import deserialize_batches, serialize_batches
from repro.arrowsim.record_batch import RecordBatch
from repro.errors import (
    ExchangeError,
    ExchangeFaultError,
    ExchangePartitionError,
    RpcStatusError,
)
from repro.rpc.channel import RpcClient, RpcService
from repro.rpc.retry import RetryPolicy, retrying_call
from repro.sim import santrack
from repro.sim.costmodel import CostParams
from repro.sim.kernel import ProcessGenerator, Simulator
from repro.sim.node import SimNode
from repro.sim.resources import Resource
from repro.trace import Span, SpanContext, Tracer
from repro.wire import Reader, put_varint

__all__ = ["ExchangePage", "ExchangeFabric", "encode_page", "decode_page"]

_PAGE_MAGIC = b"EXPG"
_PUT_ACK = b"ok"


@dataclass(frozen=True)
class ExchangePage:
    """One framed shuffle page: addressing header + Arrow-IPC body."""

    exchange_id: int
    partition: int
    sender: int
    seq: int
    body: bytes


def encode_page(page: ExchangePage) -> bytes:
    out = bytearray(_PAGE_MAGIC)
    for value in (page.exchange_id, page.partition, page.sender, page.seq, len(page.body)):
        put_varint(out, value)
    out += page.body
    return bytes(out)


def decode_page(buf: bytes) -> ExchangePage:
    r = Reader(buf, ExchangeError)
    r.expect(_PAGE_MAGIC, "exchange page")
    page = ExchangePage(r.varint(), r.varint(), r.varint(), r.varint(), r.take(r.varint()))
    r.done()
    return page


@dataclass(frozen=True)
class DrainResult:
    """Everything a consumer task pulls out of one exchange partition."""

    batches: Tuple[RecordBatch, ...]
    pages: int
    nbytes: int
    rows: int


class ExchangeFabric:
    """Receiving side of the shuffle, hosted on the compute node.

    Buffers are keyed ``(exchange_id, partition)``; within a buffer,
    pages are keyed ``(sender, seq)`` so a retried put whose first
    attempt's *response* frame was dropped (the page actually landed)
    de-duplicates instead of double-counting rows.
    """

    SERVICE = "exchange"
    METHOD = "exchange.put"

    def __init__(
        self,
        sim: Simulator,
        node: SimNode,
        costs: CostParams,
        tracer: Tracer,
    ) -> None:
        self.sim = sim
        self.node = node
        self.costs = costs
        self.tracer = tracer
        self.service = RpcService(sim, node, self.SERVICE, costs, tracer=tracer)
        self.service.register(self.METHOD, self._handle_put)
        self._partitions: Dict[int, int] = {}
        self._inflight: Dict[int, Resource] = {}
        self._buffers: Dict[Tuple[int, int], Dict[Tuple[int, int], bytes]] = {}
        #: Partitions already drained.  A put landing afterwards is a
        #: zombie: a deadline-abandoned server handler finishing after
        #: the consumer consumed the buffer.  Accepting it would leave
        #: residue a re-drain double-counts and inflate page metrics.
        self._closed: Set[Tuple[int, int]] = set()
        self._next_exchange_id = 0
        self.pages_received = 0
        self.bytes_received = 0
        self.duplicate_pages = 0

    def create(self, num_partitions: int) -> int:
        """Register a new exchange; returns its id."""
        if num_partitions < 1:
            raise ExchangePartitionError(
                f"exchange needs >= 1 partition, got {num_partitions}"
            )
        exchange_id = self._next_exchange_id
        self._next_exchange_id += 1
        self._partitions[exchange_id] = num_partitions
        self._inflight[exchange_id] = Resource(
            self.sim, capacity=self.costs.exchange_max_inflight_pages
        )
        for partition in range(num_partitions):
            self._buffers[(exchange_id, partition)] = {}
        return exchange_id

    def num_partitions(self, exchange_id: int) -> int:
        try:
            return self._partitions[exchange_id]
        except KeyError:
            raise ExchangeError(f"unknown exchange {exchange_id}") from None

    # -- sender side ------------------------------------------------------

    def put(
        self,
        client: RpcClient,
        exchange_id: int,
        partition: int,
        sender: int,
        seq: int,
        batches: List[RecordBatch],
        policy: RetryPolicy,
        parent: Optional[Span] = None,
    ) -> ProcessGenerator:
        """DES generator (``yield from``): ship one page, with backpressure.

        The caller's node pays Arrow serialization CPU, then the page
        races the retry policy across the exchange link; each retry is
        counted (``exchange_retries``) on ``parent``, the exchange span.
        Returns the framed page size in bytes (what actually crossed the
        wire, minus RPC framing overhead).  Raises
        :class:`ExchangeFaultError` when the retry budget is exhausted.
        """
        body = serialize_batches(batches)
        page = encode_page(
            ExchangePage(
                exchange_id=exchange_id,
                partition=partition,
                sender=sender,
                seq=seq,
                body=body,
            )
        )
        yield client.node.execute(
            len(page) * self.costs.arrow_serialize_cycles_per_byte,
            name="exchange-serialize",
        )
        inflight = self._inflight.get(exchange_id)
        if inflight is None:
            raise ExchangeError(f"unknown exchange {exchange_id}")

        def count_retry(attempt: int, exc: RpcStatusError, delay: float) -> None:
            if parent is not None:
                parent.add("exchange_retries", 1)

        with inflight.request(owner=f"put:{sender}:{seq}") as slot:
            yield slot
            try:
                yield from retrying_call(
                    client,
                    self.METHOD,
                    page,
                    policy,
                    on_retry=count_retry,
                    parent=parent,
                )
            except RpcStatusError as exc:
                raise ExchangeFaultError(
                    f"exchange {exchange_id} partition {partition} page "
                    f"(sender {sender}, seq {seq}) lost after "
                    f"{getattr(exc, 'attempts', '?')} attempts: {exc}"
                ) from exc
        return len(page)

    # -- receiving side ---------------------------------------------------

    def _handle_put(
        self, payload: bytes, trace: Optional[SpanContext] = None
    ) -> ProcessGenerator:
        page = decode_page(payload)
        buffer = self._buffers.get((page.exchange_id, page.partition))
        if buffer is None:
            raise ExchangePartitionError(
                f"exchange {page.exchange_id} has no partition {page.partition}"
            )
        yield self.node.execute(
            self.costs.exchange_page_ingest_cycles, name="exchange-ingest"
        )
        key = (page.sender, page.seq)
        if (page.exchange_id, page.partition) in self._closed:
            # Zombie put: the consumer already drained this partition.
            # Ack and count as a duplicate instead of inserting residue.
            self.duplicate_pages += 1
        elif key in buffer:
            # Retried put whose original landed: ack again, count once.
            self.duplicate_pages += 1
        else:
            sanitizer = santrack.active()
            if sanitizer is not None:
                # Inserts of distinct (sender, seq) keys commute (drain
                # sorts), so this is an update; it still conflicts with
                # a same-instant drain (write), the zombie-put hazard.
                sanitizer.record_update(
                    ("exchange", id(self), page.exchange_id, page.partition),
                    "exchange.put",
                )
            buffer[key] = page.body
            self.pages_received += 1
            self.bytes_received += len(page.body)
        return _PUT_ACK

    def drain(self, exchange_id: int, partition: int) -> DrainResult:
        """Consume a partition's buffered pages in ``(sender, seq)`` order.

        A plain function, not a process: the get side is a local buffer
        read on the node that already holds the pages.  The caller
        charges Arrow deserialization CPU for ``nbytes`` on whichever
        node runs the consumer task.
        """
        buffer = self._buffers.get((exchange_id, partition))
        if buffer is None:
            raise ExchangePartitionError(
                f"exchange {exchange_id} has no partition {partition}"
            )
        sanitizer = santrack.active()
        if sanitizer is not None:
            sanitizer.record_write(
                ("exchange", id(self), exchange_id, partition), "exchange.drain"
            )
        self._closed.add((exchange_id, partition))
        batches: List[RecordBatch] = []
        nbytes = 0
        for key in sorted(buffer):
            body = buffer[key]
            nbytes += len(body)
            batches.extend(deserialize_batches(body))
        pages = len(buffer)
        buffer.clear()
        return DrainResult(
            batches=tuple(batches),
            pages=pages,
            nbytes=nbytes,
            rows=sum(b.num_rows for b in batches),
        )
