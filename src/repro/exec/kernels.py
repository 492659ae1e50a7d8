"""Fused vectorized kernels: Filter/Project chains compiled to one pass.

This is the one compute-side path: every operator pipeline the engine
runs goes through :func:`fuse_operators` first.  The unfused
:class:`FilterOperator` / :class:`ProjectOperator` remain what the OCS
embedded engine runs (and what a chain falls back to): every filter
evaluates its whole predicate over every input row and then copies
*every* column of the page through ``batch.filter``, and every project
re-evaluates shared subexpressions from scratch.  The compiler turns a
maximal run of filter/project operators into a single
:class:`FusedFilterProjectOperator` that makes one pass per page with
three optimizations:

* **Short-circuit selection** — the conjuncts of each predicate (and the
  predicates of successive filters, including join Bloom probes, which
  are ordinary boolean expressions here) are applied one at a time; each
  conjunct only ever sees the rows that survived the previous ones.
  This is semantics-preserving under SQL 3VL: ``AND`` is definitely TRUE
  exactly when every conjunct is definitely TRUE, so sequential
  definitely-TRUE masks select the same rows as one combined mask.
* **Late materialization** — input columns are gathered (copied to the
  current selection) only when an expression first references them;
  columns that are never referenced before the final projection are
  never copied at all, and columns referenced only after a selective
  predicate are gathered at the surviving-row count.
* **Common-subexpression elimination** — identical subtrees appearing
  more than once across the fused predicates and projections (expression
  nodes are frozen dataclasses, hashable and structurally comparable)
  are evaluated once into a synthetic ``$cse<i>`` column and referenced
  thereafter, so e.g. a quantity computed in the WHERE clause and
  re-projected in SELECT is computed a single time.

Numeric results are bit-identical to the unfused operators by construction:
the fused operator evaluates the *same* :mod:`repro.exec.expressions`
nodes (the single source of truth for the numeric-semantics contract —
see ``docs/KERNELS.md``) on row subsets, and every node is row-wise.
The compiler is conservative: any expression shape it cannot rewrite
makes it fall back to the original unfused operators.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrowsim.array import ColumnArray
from repro.arrowsim.record_batch import RecordBatch
from repro.arrowsim.schema import Field, Schema
from repro.errors import ExecutionError
from repro.exec.expressions import AndExpr, ColumnExpr, Expr
from repro.exec.operators import FilterOperator, Operator, ProjectOperator

__all__ = [
    "FusedFilterProjectOperator",
    "FusionStats",
    "fuse_operators",
]


# --------------------------------------------------------------------------
# Expression rewriting
# --------------------------------------------------------------------------


def _with_children(expr: Expr, children: Tuple[Expr, ...]) -> Expr:
    """Rebuild ``expr`` with new children (same order as ``children()``)."""
    remaining = list(children)
    updates: Dict[str, object] = {}
    for field in dataclasses.fields(expr):  # type: ignore[arg-type]
        value = getattr(expr, field.name)
        if isinstance(value, Expr):
            updates[field.name] = remaining.pop(0)
        elif (
            isinstance(value, tuple)
            and value
            and all(isinstance(v, Expr) for v in value)
        ):
            updates[field.name] = tuple(remaining[: len(value)])
            del remaining[: len(value)]
    if remaining:
        raise ExecutionError(
            f"cannot rebuild expression node {type(expr).__name__}"
        )
    return dataclasses.replace(expr, **updates)  # type: ignore[type-var]


def _rewrite_columns(expr: Expr, env: Dict[str, Expr]) -> Expr:
    """Substitute every column reference through a projection namespace."""
    if isinstance(expr, ColumnExpr):
        try:
            return env[expr.name]
        except KeyError:
            raise ExecutionError(
                f"fused chain references unknown column {expr.name!r}"
            ) from None
    children = expr.children()
    if not children:
        return expr
    rebuilt = tuple(_rewrite_columns(c, env) for c in children)
    if all(a is b for a, b in zip(rebuilt, children)):
        return expr
    return _with_children(expr, rebuilt)


def _substitute(expr: Expr, table: Dict[Expr, Expr]) -> Expr:
    """Replace whole subtrees by table lookup, largest (outermost) first."""
    hit = table.get(expr)
    if hit is not None:
        return hit
    children = expr.children()
    if not children:
        return expr
    rebuilt = tuple(_substitute(c, table) for c in children)
    if all(a is b for a, b in zip(rebuilt, children)):
        return expr
    return _with_children(expr, rebuilt)


def _split_conjuncts(pred: Expr) -> List[Expr]:
    """Flatten nested ANDs into an ordered conjunct list (3VL-equivalent
    for filtering: AND is definitely TRUE iff every conjunct is)."""
    if isinstance(pred, AndExpr):
        out: List[Expr] = []
        for operand in pred.operands:
            out.extend(_split_conjuncts(operand))
        return out
    return [pred]


def _count_subtrees(exprs: Sequence[Expr], counts: Dict[Expr, int]) -> None:
    for expr in exprs:
        for node in expr.walk():
            if node.node_count() < 2:
                continue  # leaves are free; caching them only adds traffic
            counts[node] = counts.get(node, 0) + 1


def _count_refs(exprs: Sequence[Expr], name: str) -> int:
    return sum(
        1
        for expr in exprs
        for node in expr.walk()
        if isinstance(node, ColumnExpr) and node.name == name
    )


def _inline_single_use(
    cse_defs: List[Tuple[str, Expr]],
    predicates: List[Expr],
    projections: Optional[List[Tuple[str, Expr]]],
) -> Tuple[List[Tuple[str, Expr]], List[Expr], Optional[List[Tuple[str, Expr]]]]:
    """Inline CSE definitions referenced at most once; drop dead ones."""
    # Defs only reference earlier defs, so walking from the innermost
    # (last) def backwards resolves chains in one pass.
    defs = list(cse_defs)
    for index in range(len(defs) - 1, -1, -1):
        name, body = defs[index]
        users: List[Expr] = [d[1] for d in defs if d[0] != name]
        users += predicates + [e for _, e in (projections or [])]
        if _count_refs(users, name) > 1:
            continue
        table = {ColumnExpr(name, body.dtype): body}
        defs = [
            (n, b if n == name else _substitute(b, table)) for n, b in defs
        ]
        del defs[index]
        predicates = [_substitute(p, table) for p in predicates]
        if projections is not None:
            projections = [(n, _substitute(e, table)) for n, e in projections]
    return defs, predicates, projections


# --------------------------------------------------------------------------
# Compilation
# --------------------------------------------------------------------------


@dataclass
class FusionStats:
    """Cumulative compiler statistics (pass one to :func:`fuse_operators`)."""

    chains_fused: int = 0
    operators_fused: int = 0
    predicates: int = 0
    cse_definitions: int = 0
    cse_references_saved: int = 0
    fallbacks: int = 0


def _compile_run(
    ops: Sequence[Operator], stats: Optional[FusionStats]
) -> "FusedFilterProjectOperator":
    env: Optional[Dict[str, Expr]] = None
    predicates: List[Expr] = []
    projections: Optional[List[Tuple[str, Expr]]] = None
    output_schema: Optional[Schema] = None
    for op in ops:
        if isinstance(op, FilterOperator):
            pred = op.predicate if env is None else _rewrite_columns(op.predicate, env)
            predicates.extend(_split_conjuncts(pred))
        elif isinstance(op, ProjectOperator):
            rewritten = [
                (name, expr if env is None else _rewrite_columns(expr, env))
                for name, expr in op.projections
            ]
            env = dict(rewritten)
            projections = rewritten
            output_schema = op.output_schema()
        else:  # pragma: no cover - guarded by fuse_operators
            raise ExecutionError(f"cannot fuse operator {op.name!r}")

    tops = predicates + [expr for _, expr in (projections or [])]
    counts: Dict[Expr, int] = {}
    _count_subtrees(tops, counts)
    first_seen = {expr: i for i, expr in enumerate(counts)}
    shared = sorted(
        (expr for expr, n in counts.items() if n >= 2),
        key=lambda e: (e.node_count(), first_seen[e]),
    )
    table: Dict[Expr, Expr] = {}
    cse_defs: List[Tuple[str, Expr]] = []
    for expr in shared:
        name = f"$cse{len(cse_defs)}"
        cse_defs.append((name, _substitute(expr, table)))
        table[expr] = ColumnExpr(name, expr.dtype)
    if table:
        predicates = [_substitute(p, table) for p in predicates]
        if projections is not None:
            projections = [(n, _substitute(e, table)) for n, e in projections]
        # Occurrence counting over the *original* trees over-shares: a
        # subtree occurring only inside a larger shared subtree ends up as
        # a definition with a single reference — pure overhead (an extra
        # materialized column to narrow).  Inline those back, innermost
        # defs last so a chain collapses fully.
        cse_defs, predicates, projections = _inline_single_use(
            cse_defs, predicates, projections
        )

    fused = FusedFilterProjectOperator(
        predicates=predicates,
        projections=projections,
        cse_defs=cse_defs,
        output_schema=output_schema,
    )
    if stats is not None:
        stats.chains_fused += 1
        stats.operators_fused += len(ops)
        stats.predicates += len(predicates)
        stats.cse_definitions += len(cse_defs)
        users = [b for _, b in cse_defs] + predicates
        users += [e for _, e in (projections or [])]
        stats.cse_references_saved += sum(
            _count_refs(users, name) - 1 for name, _ in cse_defs
        )
    return fused


def fuse_operators(
    operators: Sequence[Operator], stats: Optional[FusionStats] = None
) -> List[Operator]:
    """Compile maximal Filter/Project runs into fused single-pass kernels.

    Non-fusible operators (aggregation, join, sort, limit, ...) pass
    through unchanged and delimit the fused runs.  Compilation failures
    fall back to the original operators for that run.
    """
    out: List[Operator] = []
    run: List[Operator] = []

    def flush() -> None:
        if not run:
            return
        try:
            out.append(_compile_run(run, stats))
        except (ExecutionError, TypeError):
            # Conservative fallback: run the chain unfused.
            if stats is not None:
                stats.fallbacks += 1
            out.extend(run)
        run.clear()

    for op in operators:
        if isinstance(op, (FilterOperator, ProjectOperator)):
            run.append(op)
        else:
            flush()
            out.append(op)
    flush()
    return out


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _ExprMeta:
    """Compile-time metadata for one evaluated expression."""

    expr: Expr
    #: Referenced column names, deterministic order (empty = pure literal).
    refs: Tuple[str, ...]
    node_count: int


def _meta(expr: Expr) -> _ExprMeta:
    return _ExprMeta(
        expr=expr,
        refs=tuple(sorted(expr.column_refs())),
        node_count=expr.node_count(),
    )


class _PageRun:
    """Per-page evaluation state: current selection + materialized columns."""

    def __init__(self, op: "FusedFilterProjectOperator", batch: RecordBatch) -> None:
        self.op = op
        self.batch = batch
        #: Row indices into ``batch`` still selected; None = all rows.
        self.sel: Optional[np.ndarray] = None
        self.num_rows = batch.num_rows
        #: Columns (input gathers and $cse results) aligned to ``sel``.
        self.columns: Dict[str, ColumnArray] = {}

    def materialize(self, name: str) -> ColumnArray:
        col = self.columns.get(name)
        if col is not None:
            return col
        definition = self.op.cse_meta.get(name)
        if definition is not None:
            col = self.evaluate(definition)
            # A fresh $cse result feeds the reference that asked for it in
            # place, as the subtree does in the unfused operators: that
            # reference is not also charged as a leaf read, so a page whose
            # later references never run costs no more than unfused.
            self.op.eval_cell_ops -= self.num_rows
        else:
            col = self.batch.column(name)
            if self.sel is not None:
                col = col.take(self.sel)
            self.op.columns_gathered += 1
        self.columns[name] = col
        return col

    def evaluate(self, meta: _ExprMeta) -> ColumnArray:
        names = meta.refs
        if not names:
            # Pure-literal expression: gather an anchor column so the
            # sub-batch carries the current selection's row count.
            names = (self.batch.schema.names()[0],)
        columns = [self.materialize(name) for name in names]
        sub = RecordBatch(
            Schema([Field(n, c.dtype) for n, c in zip(names, columns)]),
            columns,
        )
        self.op.eval_cell_ops += self.num_rows * meta.node_count
        return meta.expr.evaluate(sub)

    def narrow(self, mask: np.ndarray, live: frozenset) -> None:
        """Apply a selection mask; drop dead columns instead of copying.

        ``live`` holds the names still referenced by later predicates or
        the final projections.  A live but unmaterialized $cse keeps its
        own references alive transitively (resolved here at runtime,
        since materialization state is per page).
        """
        if mask.all():
            return
        needed: set = set()
        stack = list(live)
        while stack:
            name = stack.pop()
            if name in needed:
                continue
            needed.add(name)
            definition = self.op.cse_meta.get(name)
            if definition is not None and name not in self.columns:
                stack.extend(definition.refs)
        for name in list(self.columns):
            if name in needed:
                self.columns[name] = self.columns[name].filter(mask)
            else:
                del self.columns[name]
        indices = np.flatnonzero(mask)
        self.sel = indices if self.sel is None else self.sel[mask]
        self.op.rows_skipped += self.num_rows - len(indices)
        self.num_rows = len(indices)


class FusedFilterProjectOperator(Operator):
    """Single-pass fused filter+project kernel (see module docstring)."""

    name = "fused"

    def __init__(
        self,
        predicates: Sequence[Expr],
        projections: Optional[Sequence[Tuple[str, Expr]]],
        cse_defs: Sequence[Tuple[str, Expr]],
        output_schema: Optional[Schema],
    ) -> None:
        super().__init__()
        self.predicates = list(predicates)
        self.projections = list(projections) if projections is not None else None
        self.cse_defs = dict(cse_defs)
        self._output_schema = output_schema
        if (self.projections is None) != (output_schema is None):
            raise ExecutionError("fused projections and output schema must pair up")
        #: rows x expression-nodes actually evaluated (drives simulated cost).
        self.eval_cell_ops = 0
        #: rows eliminated before at least one later predicate/projection.
        self.rows_skipped = 0
        #: input-column gathers performed (late-materialization visibility).
        self.columns_gathered = 0
        # Compile-time metadata: refs + node counts per evaluated
        # expression, and per-predicate liveness (names any later stage
        # still references) so narrowing can drop dead columns.
        self.cse_meta: Dict[str, _ExprMeta] = {
            name: _meta(expr) for name, expr in cse_defs
        }
        self.predicate_meta: List[_ExprMeta] = [_meta(p) for p in self.predicates]
        self.projection_meta: Optional[List[_ExprMeta]] = (
            [_meta(e) for _, e in self.projections]
            if self.projections is not None
            else None
        )
        # (The passthrough-filter output is re-gathered from the input
        # page via ``take``, so materialized columns only ever feed later
        # predicates / projections — dead ones can always be dropped.)
        self.live_after: List[frozenset] = []
        for index in range(len(self.predicates)):
            later = self.predicate_meta[index + 1 :]
            if self.projection_meta is not None:
                later = later + self.projection_meta
            self.live_after.append(frozenset(n for m in later for n in m.refs))

    @property
    def expression_node_count(self) -> int:
        """Total fused expression size (parallel to ProjectOperator's)."""
        exprs = self.predicates + [e for _, e in (self.projections or [])]
        exprs += list(self.cse_defs.values())
        return sum(e.node_count() for e in exprs)

    def output_schema(self) -> Optional[Schema]:
        return self._output_schema

    def _process(self, batch: RecordBatch) -> RecordBatch:
        run = _PageRun(self, batch)
        for meta, live in zip(self.predicate_meta, self.live_after):
            result = run.evaluate(meta)
            mask = result.values.astype(bool) & result.is_valid()
            run.narrow(mask, live)
        if self.projection_meta is not None:
            assert self._output_schema is not None
            columns = [run.evaluate(meta) for meta in self.projection_meta]
            return RecordBatch(self._output_schema, columns)
        if run.sel is None:
            return batch
        return batch.take(run.sel)
