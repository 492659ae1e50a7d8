"""Exception hierarchy and shared status codes for the repro package.

Every public exception derives from :class:`ReproError` and carries a
machine-readable ``code`` (a stable SCREAMING_SNAKE slug) so callers can
switch on failure class without parsing messages.  Subsystem-specific
errors subclass the intermediate bases defined here rather than
redefining their own roots.

:class:`StatusCode` is the one shared enum for RPC/OCS status codes —
the gRPC-style vocabulary (``UNAVAILABLE``, ``DEADLINE_EXCEEDED``, ...)
previously scattered as string literals across ``repro.rpc`` and
``repro.ocs``.  It subclasses ``str`` so existing comparisons against
plain strings keep working.
"""

from __future__ import annotations

import enum
from typing import ClassVar


class StatusCode(enum.StrEnum):
    """gRPC-class status codes shared by the RPC channel and OCS services.

    ``OK`` never travels inside an exception; it exists so traces and
    monitors can tag successful calls with the same vocabulary.
    """

    OK = "OK"
    #: Transient condition (connection reset, engine refusing work);
    #: the retryable class.
    UNAVAILABLE = "UNAVAILABLE"
    #: A per-call deadline expired before the round trip finished.
    DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
    #: The request itself is wrong; re-sending it cannot succeed.
    INVALID_ARGUMENT = "INVALID_ARGUMENT"
    #: Server-side failure that is not the caller's fault.
    INTERNAL = "INTERNAL"
    #: The service has no such method.
    UNIMPLEMENTED = "UNIMPLEMENTED"

    @classmethod
    def parse(cls, code: "StatusCode | str") -> "StatusCode | str":
        """Normalize to an enum member; unknown codes pass through as-is."""
        try:
            return cls(code)
        except ValueError:
            return code


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""

    #: Stable machine-readable failure class (never localized).
    code: ClassVar[str] = "REPRO_ERROR"


class ConfigError(ReproError, ValueError):
    """A user-supplied configuration value is invalid.

    Raised at *construction* time by ``validate()`` hooks on the public
    spec dataclasses (:class:`~repro.config.TestbedSpec`,
    :class:`~repro.config.FaultSpec`, :class:`~repro.bench.env.RunConfig`,
    :class:`~repro.rpc.retry.RetryPolicy`, ...) so a bad knob fails where
    it was written, not deep inside the simulation.  Subclasses
    ``ValueError`` for backward compatibility with callers that caught
    the old bare raises.
    """

    code = "INVALID_CONFIG"


# --------------------------------------------------------------------------
# Storage / format errors
# --------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for object-store and file-format failures."""

    code = "STORAGE"


class NoSuchBucketError(StorageError):
    """A bucket name did not resolve to an existing bucket."""

    code = "NO_SUCH_BUCKET"


class NoSuchObjectError(StorageError):
    """An object key did not resolve to an existing object."""

    code = "NO_SUCH_OBJECT"


class BucketAlreadyExistsError(StorageError):
    """Attempt to create a bucket whose name is already taken."""

    code = "BUCKET_ALREADY_EXISTS"


class InvalidRangeError(StorageError):
    """A byte-range request fell outside the object's extent."""

    code = "INVALID_RANGE"


class FormatError(StorageError):
    """A Parcel container (or one of its chunks) failed to parse."""

    code = "FORMAT"


class CodecError(StorageError):
    """Compression or decompression failed, or an unknown codec was named."""

    code = "CODEC"


# --------------------------------------------------------------------------
# SQL / planning errors
# --------------------------------------------------------------------------


class SqlError(ReproError):
    """Base class for SQL front-end failures."""

    code = "SQL"


class LexError(SqlError):
    """The lexer hit an unrecognizable character sequence."""

    code = "SQL_LEX"

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class ParseError(SqlError):
    """The parser could not derive a statement from the token stream."""

    code = "SQL_PARSE"

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class AnalysisError(SqlError):
    """Semantic analysis failed (unknown column, type mismatch, ...)."""

    code = "SQL_ANALYSIS"


class PlanError(ReproError):
    """Logical plan construction or optimization failed."""

    code = "PLAN"


# --------------------------------------------------------------------------
# Execution errors
# --------------------------------------------------------------------------


class ExecutionError(ReproError):
    """Base class for runtime failures inside operators or the engine."""

    code = "EXECUTION"


class SchemaMismatchError(ExecutionError):
    """Pages or batches disagreed about schema mid-pipeline."""

    code = "SCHEMA_MISMATCH"


class ExpressionError(ExecutionError):
    """Vectorized expression evaluation failed."""

    code = "EXPRESSION"


# --------------------------------------------------------------------------
# Engine / distributed errors
# --------------------------------------------------------------------------


class EngineError(ReproError):
    """Base class for coordinator/worker orchestration failures."""

    code = "ENGINE"


class NoSuchCatalogError(EngineError):
    """A session referenced a catalog that was never registered."""

    code = "NO_SUCH_CATALOG"


class NoSuchTableError(EngineError):
    """A query referenced a table the catalog does not contain."""

    code = "NO_SUCH_TABLE"


class SchedulingError(EngineError):
    """Split scheduling could not place work on any worker."""

    code = "SCHEDULING"


# --------------------------------------------------------------------------
# Exchange / join errors
# --------------------------------------------------------------------------


class ExchangeError(EngineError):
    """Base class for distributed-exchange (shuffle) failures."""

    code = "EXCHANGE"


class ExchangeFaultError(ExchangeError):
    """A shuffle page was lost after every retry attempt.

    Raised when the exchange's retrying put exhausts its
    :class:`~repro.rpc.retry.RetryPolicy` against injected link faults —
    the exchange's analogue of a pushdown RPC's terminal ``UNAVAILABLE``.
    """

    code = "EXCHANGE_FAULT"


class ExchangePartitionError(ExchangeError):
    """A shuffle page addressed a partition the exchange never created."""

    code = "EXCHANGE_PARTITION"


class JoinError(EngineError):
    """Base class for join planning/execution failures."""

    code = "JOIN"


class JoinKeyMismatchError(JoinError):
    """Join key columns have unequal types on the two sides."""

    code = "JOIN_KEY_MISMATCH"


# --------------------------------------------------------------------------
# Substrait / RPC / OCS errors
# --------------------------------------------------------------------------


class SubstraitError(ReproError):
    """Base class for Substrait IR construction/validation/serde failures."""

    code = "SUBSTRAIT"


class ValidationError(SubstraitError):
    """A Substrait plan failed structural or type validation."""

    code = "SUBSTRAIT_VALIDATION"


class SerdeError(SubstraitError):
    """Binary (de)serialization of a Substrait plan failed."""

    code = "SUBSTRAIT_SERDE"


class RpcError(ReproError):
    """Base class for RPC channel failures."""

    code = "RPC"


class RpcStatusError(RpcError):
    """The server returned a non-OK status code.

    ``code`` is a :class:`StatusCode` member whenever the supplied code
    is part of the shared vocabulary (it always is for codes raised by
    this package); unknown strings pass through untouched so tests can
    invent custom codes.
    """

    def __init__(self, code: "StatusCode | str", message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = StatusCode.parse(code)
        self.detail = message


class OcsError(ReproError):
    """Base class for OCS frontend / storage-node failures."""

    code = "OCS"


class OcsPlanRejectedError(OcsError):
    """The OCS embedded engine refused a pushdown plan."""

    code = "OCS_PLAN_REJECTED"


# --------------------------------------------------------------------------
# Query-service / admission errors
# --------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for multi-tenant query-service failures."""

    code = "SERVICE"


class AdmissionError(ServiceError):
    """Base class for admission-control rejections.

    Every admission failure is *typed*: callers (and the SLO reporter)
    switch on ``code`` to distinguish a full run queue from a queue-wait
    timeout without parsing messages.
    """

    code = "ADMISSION"


class QueueFullError(AdmissionError):
    """The service's bounded run queue is at capacity; try again later."""

    code = "ADMISSION_QUEUE_FULL"


class QueueTimeoutError(AdmissionError):
    """The query waited in the run queue longer than the configured bound."""

    code = "ADMISSION_QUEUE_TIMEOUT"


# --------------------------------------------------------------------------
# Cache errors
# --------------------------------------------------------------------------


class CacheError(ReproError):
    """Base class for result/page cache failures."""

    code = "CACHE"


class CacheQuotaError(CacheError):
    """A cache fill was refused: the entry is larger than the tier's budget.

    Fills are best-effort, so this surfaces in accounting (the tier's
    ``quota_refusals``) and tests rather than failing queries.
    """

    code = "CACHE_QUOTA"


class CacheStaleError(CacheError):
    """A cache entry's recorded object versions no longer match storage.

    Lookups treat staleness as a miss and drop the entry; this error
    exists for callers that *assert* freshness (tests, invariants)
    rather than for the soft-invalidation path.
    """

    code = "CACHE_STALE"


# --------------------------------------------------------------------------
# Simulation errors
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulator misuse or failure."""

    code = "SIMULATION"


class SimDeadlockError(SimulationError):
    """The event loop ran dry while processes were still blocked."""

    code = "SIM_DEADLOCK"


class LinkDropError(SimulationError):
    """A network frame was lost in flight (injected link fault).

    Surfaces to RPC callers as ``RpcStatusError(StatusCode.UNAVAILABLE)``
    — the retryable class of failure, like a gRPC connection reset.
    """

    code = "LINK_DROP"


# --------------------------------------------------------------------------
# Tracing errors
# --------------------------------------------------------------------------


class TraceError(ReproError):
    """A span tree failed structural validation (cycle, orphan, unclosed)."""

    code = "TRACE"


# --------------------------------------------------------------------------
# Static analysis errors
# --------------------------------------------------------------------------


class VerificationError(ReproError):
    """A plan failed the ``repro.analysis`` schema/legality verifier.

    Raised by the plan verifier when bottom-up schema propagation finds a
    dtype disagreement, a pushdown-legality rule is violated, or the
    pushed + residual decomposition is not equivalent to the
    pre-optimization plan.
    """

    code = "VERIFICATION"


class DeterminismError(ReproError):
    """The determinism digest harness observed divergent replays."""

    code = "DETERMINISM"


class SanitizerError(ReproError):
    """SimTSan found a same-instant data race on shared simulated state.

    Two accesses to one shared surface (a metrics counter, an exchange
    buffer, a cache tier, ...) happened at the same simulated
    timestamp with causally unordered vector clocks and at least one
    side mutating — the observable outcome depends on the kernel's
    tie-break policy.  Carries the :class:`RaceReport` as ``report``.
    """

    code = "RACE"

    def __init__(self, message: str, report: object = None) -> None:
        super().__init__(message)
        self.report = report


# --------------------------------------------------------------------------
# Metastore errors
# --------------------------------------------------------------------------


class MetastoreError(ReproError):
    """Base class for catalog-service failures."""

    code = "METASTORE"


class NoSuchSchemaError(MetastoreError):
    """A metastore lookup referenced an unknown schema."""

    code = "NO_SUCH_SCHEMA"


class TableAlreadyExistsError(MetastoreError):
    """Attempt to register a table name that is already present."""

    code = "TABLE_ALREADY_EXISTS"
