"""Binary (de)serialization of Substrait plans — the protobuf stand-in.

Tag-length-value, varint-heavy encoding; the byte length of
:func:`serialize_plan`'s output is what the RPC layer charges to the
simulated network when a pushdown plan is shipped to the OCS frontend.
"""

from __future__ import annotations

from typing import List

from repro.arrowsim.dtypes import DataType, read_dtype
from repro.errors import SerdeError, SubstraitError
from repro.formats.statistics import decode_stat_value, encode_stat_value
from repro.substrait.expressions import (
    SCAST,
    SBloomProbe,
    SExpression,
    SFieldRef,
    SFunctionCall,
    SInList,
    SLiteral,
)
from repro.substrait.functions import FunctionRegistry
from repro.substrait.plan import SubstraitPlan
from repro.substrait.relations import (
    AggregateMeasure,
    AggregateRel,
    FetchRel,
    FilterRel,
    NamedStruct,
    ProjectRel,
    ReadRel,
    Relation,
    SortField,
    SortRel,
)
from repro.wire import Reader, put_str, put_varint

__all__ = [
    "serialize_plan",
    "deserialize_plan",
    "encode_expression",
    "decode_expression",
]

_MAGIC = b"SBP1"

_REL_READ, _REL_FILTER, _REL_PROJECT, _REL_AGG, _REL_SORT, _REL_FETCH = range(1, 7)
_EXPR_FIELD, _EXPR_LIT, _EXPR_FUNC, _EXPR_CAST, _EXPR_IN, _EXPR_BLOOM = range(1, 7)


# -- expressions ------------------------------------------------------------


def _encode_expr(out: bytearray, expr: SExpression) -> None:
    if isinstance(expr, SFieldRef):
        out.append(_EXPR_FIELD)
        put_varint(out, expr.ordinal)
        out.append(expr.dtype.code)
    elif isinstance(expr, SLiteral):
        out.append(_EXPR_LIT)
        out.append(expr.dtype.code)
        out += encode_stat_value(expr.dtype, expr.value)
    elif isinstance(expr, SFunctionCall):
        out.append(_EXPR_FUNC)
        put_varint(out, expr.anchor)
        out.append(len(expr.args))
        for arg in expr.args:
            _encode_expr(out, arg)
        out.append(expr.dtype.code)
    elif isinstance(expr, SCAST):
        out.append(_EXPR_CAST)
        _encode_expr(out, expr.operand)
        out.append(expr.dtype.code)
    elif isinstance(expr, SInList):
        out.append(_EXPR_IN)
        _encode_expr(out, expr.operand)
        out.append(expr.option_dtype.code)
        put_varint(out, len(expr.options))
        for option in expr.options:
            out += encode_stat_value(expr.option_dtype, option)
        out.append(int(expr.negated))
    elif isinstance(expr, SBloomProbe):
        out.append(_EXPR_BLOOM)
        _encode_expr(out, expr.operand)
        put_varint(out, expr.num_bits)
        put_varint(out, expr.hashes)
        put_varint(out, len(expr.bits))
        out += expr.bits
    else:
        raise SerdeError(f"cannot serialize expression {type(expr).__name__}")


def read_expression(r: Reader) -> SExpression:
    """One expression at the cursor; failures are the cursor's error class."""
    with r.nested():
        tag = r.u8()
        if tag == _EXPR_FIELD:
            return SFieldRef(r.varint(), read_dtype(r))
        if tag == _EXPR_LIT:
            dtype = read_dtype(r)
            return SLiteral(decode_stat_value(dtype, r), dtype)
        if tag == _EXPR_FUNC:
            anchor = r.varint()
            # A loop, not a comprehension: one interpreter frame per level.
            args: List[SExpression] = []
            for _ in range(r.u8()):
                args.append(read_expression(r))
            return SFunctionCall(anchor, tuple(args), read_dtype(r))
        if tag == _EXPR_CAST:
            return SCAST(read_expression(r), read_dtype(r))
        if tag == _EXPR_IN:
            operand = read_expression(r)
            option_dtype = read_dtype(r)
            options = [decode_stat_value(option_dtype, r) for _ in range(r.count(1))]
            return SInList(operand, tuple(options), option_dtype, bool(r.u8()))
        if tag == _EXPR_BLOOM:
            operand = read_expression(r)
            num_bits, hashes = r.varint(), r.varint()
            return SBloomProbe(operand, bytes(r.take(r.varint())), num_bits, hashes)
        r.fail(f"unknown expression tag {tag}")


def encode_expression(expr: SExpression) -> bytes:
    """Standalone expression encoding (used by the S3 gateway's filters)."""
    out = bytearray()
    _encode_expr(out, expr)
    return bytes(out)


def decode_expression(buf: bytes) -> SExpression:
    """Inverse of :func:`encode_expression`."""
    r = Reader(buf, SerdeError)
    expr = read_expression(r)
    r.done()
    return expr


# -- relations ------------------------------------------------------------------


def _encode_named_struct(out: bytearray, struct_: NamedStruct) -> None:
    put_varint(out, len(struct_))
    for name, dtype, nullable in zip(struct_.names, struct_.types, struct_.nullability):
        put_str(out, name)
        out.append(dtype.code)
        out.append(int(nullable))


def _decode_named_struct(r: Reader) -> NamedStruct:
    names: List[str] = []
    types: List[DataType] = []
    nullability: List[bool] = []
    for _ in range(r.count(3)):
        names.append(r.text())
        types.append(read_dtype(r))
        nullability.append(bool(r.u8()))
    return NamedStruct(tuple(names), tuple(types), tuple(nullability))


def _encode_rel(out: bytearray, rel: Relation) -> None:
    if isinstance(rel, ReadRel):
        out.append(_REL_READ)
        put_str(out, rel.table)
        _encode_named_struct(out, rel.base_schema)
        put_varint(out, len(rel.projection))
        for ordinal in rel.projection:
            put_varint(out, ordinal)
        if rel.best_effort_filter is not None:
            out.append(1)
            _encode_expr(out, rel.best_effort_filter)
        else:
            out.append(0)
    elif isinstance(rel, FilterRel):
        out.append(_REL_FILTER)
        _encode_rel(out, rel.input)
        _encode_expr(out, rel.condition)
    elif isinstance(rel, ProjectRel):
        out.append(_REL_PROJECT)
        _encode_rel(out, rel.input)
        put_varint(out, len(rel.expressions_))
        for expr in rel.expressions_:
            _encode_expr(out, expr)
    elif isinstance(rel, AggregateRel):
        out.append(_REL_AGG)
        _encode_rel(out, rel.input)
        put_varint(out, len(rel.grouping))
        for ordinal in rel.grouping:
            put_varint(out, ordinal)
        put_varint(out, len(rel.measures))
        for measure in rel.measures:
            put_varint(out, measure.anchor)
            put_str(out, measure.function)
            out.append(len(measure.args))
            for arg in measure.args:
                _encode_expr(out, arg)
            out.append(measure.output_dtype.code)
            out.append(int(measure.distinct))
            put_str(out, measure.phase)
    elif isinstance(rel, SortRel):
        out.append(_REL_SORT)
        _encode_rel(out, rel.input)
        put_varint(out, len(rel.sort_fields))
        for sf in rel.sort_fields:
            put_varint(out, sf.ordinal)
            out.append(int(sf.descending))
    elif isinstance(rel, FetchRel):
        out.append(_REL_FETCH)
        _encode_rel(out, rel.input)
        put_varint(out, rel.offset)
        put_varint(out, rel.count)
    else:
        raise SerdeError(f"cannot serialize relation {type(rel).__name__}")


def _decode_rel(r: Reader) -> Relation:
    with r.nested():
        tag = r.u8()
        if tag == _REL_READ:
            table = r.text()
            base_schema = _decode_named_struct(r)
            projection = tuple([r.varint() for _ in range(r.count(1))])
            best_effort = read_expression(r) if r.u8() else None
            return ReadRel(table, base_schema, projection, best_effort)
        if tag not in (_REL_FILTER, _REL_PROJECT, _REL_AGG, _REL_SORT, _REL_FETCH):
            r.fail(f"unknown relation tag {tag}")
        source = _decode_rel(r)
        if tag == _REL_FILTER:
            return FilterRel(source, read_expression(r))
        if tag == _REL_PROJECT:
            return ProjectRel(source, tuple([read_expression(r) for _ in range(r.count(3))]))
        if tag == _REL_AGG:
            grouping = tuple([r.varint() for _ in range(r.count(1))])
            measures = []
            for _ in range(r.count(6)):
                anchor, function = r.varint(), r.text()
                args = tuple([read_expression(r) for _ in range(r.u8())])
                measures.append(
                    AggregateMeasure(
                        anchor, function, args, read_dtype(r), bool(r.u8()), r.text()
                    )
                )
            return AggregateRel(source, grouping, tuple(measures))
        if tag == _REL_SORT:
            fields = [SortField(r.varint(), bool(r.u8())) for _ in range(r.count(2))]
            return SortRel(source, tuple(fields))
        return FetchRel(source, r.varint(), r.varint())


# -- plan ---------------------------------------------------------------------------


def put_declarations(out: bytearray, registry: FunctionRegistry) -> None:
    """``varint n (varint anchor, str signature)*`` — the extension block."""
    declarations = registry.declarations()
    put_varint(out, len(declarations))
    for anchor, sig in declarations:
        put_varint(out, anchor)
        put_str(out, sig)


def read_declarations(r: Reader) -> FunctionRegistry:
    """Inverse of :func:`put_declarations` at the cursor."""
    declarations = [(r.varint(), r.text()) for _ in range(r.count(2))]
    try:
        return FunctionRegistry.from_declarations(declarations)
    except SubstraitError as exc:
        r.fail(f"bad extension block: {exc}")


def serialize_plan(plan: SubstraitPlan) -> bytes:
    """Encode a plan to transportable bytes."""
    out = bytearray(_MAGIC)
    out += bytes(plan.version)
    put_declarations(out, plan.registry)
    put_varint(out, len(plan.root_names))
    for name in plan.root_names:
        put_str(out, name)
    _encode_rel(out, plan.root)
    return bytes(out)


def deserialize_plan(buf: bytes) -> SubstraitPlan:
    """Inverse of :func:`serialize_plan`."""
    r = Reader(buf, SerdeError)
    r.expect(_MAGIC, "Substrait plan")
    version = (r.u8(), r.u8())
    registry = read_declarations(r)
    root_names = [r.text() for _ in range(r.count(1))]
    root = _decode_rel(r)
    r.done()
    return SubstraitPlan(root=root, registry=registry, root_names=root_names, version=version)
