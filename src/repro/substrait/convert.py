"""Conversions between evaluable expressions and Substrait expressions.

``expression_to_substrait`` is the name->ordinal direction the paper's
PageSourceProvider performs when generating IR ("expressions are
transformed with proper type casting, and Presto's function signatures
map to Substrait's standardized namespace"); the inverse direction is
what the OCS embedded engine (and the S3 gateway, for its narrow filter
language) runs on receipt.
"""

from __future__ import annotations

from typing import Sequence

from repro.arrowsim.dtypes import BOOL, DataType
from repro.errors import SubstraitError
from repro.exec.expressions import (
    SCALAR_FUNCTION_NAMES,
    AndExpr,
    ArithExpr,
    CastExpr,
    ColumnExpr,
    CompareExpr,
    Expr,
    InExpr,
    IsNullExpr,
    LiteralExpr,
    NegExpr,
    NotExpr,
    OrExpr,
    ScalarFuncExpr,
    arithmetic_result_type,
    scalar_function_dtype,
)
from repro.exchange.filters import BloomFilter, BloomProbeExpr
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

__all__ = ["expression_to_substrait", "substrait_to_expression"]

_ARITH_TO_NAME = {
    "+": "add",
    "-": "subtract",
    "*": "multiply",
    "/": "divide",
    "%": "modulus",
}
_NAME_TO_ARITH = {v: k for k, v in _ARITH_TO_NAME.items()}
_CMP_TO_NAME = {
    "=": "equal",
    "<>": "not_equal",
    "<": "lt",
    "<=": "lte",
    ">": "gt",
    ">=": "gte",
}
_NAME_TO_CMP = {v: k for k, v in _CMP_TO_NAME.items()}


def expression_to_substrait(
    expr: Expr,
    input_names: Sequence[str],
    registry: FunctionRegistry,
) -> SExpression:
    """Rewrite a name-based expression over ``input_names`` into IR."""
    ordinals = {name: i for i, name in enumerate(input_names)}

    def convert(node: Expr) -> SExpression:
        if isinstance(node, ColumnExpr):
            if node.name not in ordinals:
                raise SubstraitError(
                    f"column {node.name!r} not in input {list(input_names)}"
                )
            return SFieldRef(ordinals[node.name], node.dtype)
        if isinstance(node, LiteralExpr):
            return SLiteral(node.value, node.dtype)
        if isinstance(node, ArithExpr):
            left, right = convert(node.left), convert(node.right)
            name = _ARITH_TO_NAME[node.op]
            anchor = registry.anchor_for(name, [node.left.dtype, node.right.dtype])
            return SFunctionCall(anchor, (left, right), node.dtype)
        if isinstance(node, NegExpr):
            anchor = registry.anchor_for("negate", [node.operand.dtype])
            return SFunctionCall(anchor, (convert(node.operand),), node.dtype)
        if isinstance(node, CompareExpr):
            name = _CMP_TO_NAME[node.op]
            anchor = registry.anchor_for(name, [node.left.dtype, node.right.dtype])
            return SFunctionCall(anchor, (convert(node.left), convert(node.right)), BOOL)
        if isinstance(node, AndExpr):
            anchor = registry.anchor_for("and", [BOOL] * len(node.operands))
            return SFunctionCall(anchor, tuple(convert(o) for o in node.operands), BOOL)
        if isinstance(node, OrExpr):
            anchor = registry.anchor_for("or", [BOOL] * len(node.operands))
            return SFunctionCall(anchor, tuple(convert(o) for o in node.operands), BOOL)
        if isinstance(node, NotExpr):
            anchor = registry.anchor_for("not", [BOOL])
            return SFunctionCall(anchor, (convert(node.operand),), BOOL)
        if isinstance(node, InExpr):
            return SInList(
                convert(node.operand), node.values, node.operand.dtype, node.negated
            )
        if isinstance(node, IsNullExpr):
            name = "is_not_null" if node.negated else "is_null"
            anchor = registry.anchor_for(name, [node.operand.dtype])
            return SFunctionCall(anchor, (convert(node.operand),), BOOL)
        if isinstance(node, CastExpr):
            return SCAST(convert(node.operand), node.dtype)
        if isinstance(node, ScalarFuncExpr):
            anchor = registry.anchor_for(node.name, [node.operand.dtype])
            return SFunctionCall(anchor, (convert(node.operand),), node.dtype)
        if isinstance(node, BloomProbeExpr):
            return SBloomProbe(
                convert(node.operand),
                node.bloom.bits,
                node.bloom.num_bits,
                node.bloom.hashes,
            )
        raise SubstraitError(f"cannot translate expression {type(node).__name__}")

    return convert(expr)


def substrait_to_expression(
    sexpr: SExpression,
    input_names: Sequence[str],
    input_types: Sequence[DataType],
    registry: FunctionRegistry,
) -> Expr:
    """Lower IR back to an evaluable expression over named columns."""
    def convert(node: SExpression) -> Expr:
        if isinstance(node, SFieldRef):
            return ColumnExpr(input_names[node.ordinal], input_types[node.ordinal])
        if isinstance(node, SLiteral):
            return LiteralExpr(node.value, node.dtype)
        if isinstance(node, SCAST):
            return CastExpr(convert(node.operand), node.dtype)
        if isinstance(node, SInList):
            return InExpr(convert(node.operand), node.options, negated=node.negated)
        if isinstance(node, SBloomProbe):
            return BloomProbeExpr(
                convert(node.operand),
                BloomFilter(bits=node.bits, num_bits=node.num_bits, hashes=node.hashes),
            )
        if isinstance(node, SFunctionCall):
            name = registry.name_of(node.anchor)
            args = [convert(a) for a in node.args]
            if name in _NAME_TO_ARITH:
                op = _NAME_TO_ARITH[name]
                dtype = arithmetic_result_type(op, args[0].dtype, args[1].dtype)
                return ArithExpr(op, args[0], args[1], dtype)
            if name in _NAME_TO_CMP:
                return CompareExpr(_NAME_TO_CMP[name], args[0], args[1])
            if name == "and":
                return AndExpr(tuple(args))
            if name == "or":
                return OrExpr(tuple(args))
            if name == "not":
                return NotExpr(args[0])
            if name == "negate":
                return NegExpr(args[0], args[0].dtype)
            if name == "is_null":
                return IsNullExpr(args[0])
            if name == "is_not_null":
                return IsNullExpr(args[0], negated=True)
            if name in SCALAR_FUNCTION_NAMES:
                return ScalarFuncExpr(
                    name, args[0], scalar_function_dtype(name, args[0].dtype)
                )
            raise SubstraitError(f"no lowering for function {name!r}")
        raise SubstraitError(f"cannot lower expression {type(node).__name__}")

    return convert(sexpr)
