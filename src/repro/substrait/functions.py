"""Function namespace and the plan-level extension registry.

Real Substrait plans carry *extension declarations* mapping small integer
anchors to fully-qualified function signatures (e.g.
``functions_comparison.yaml:gte:fp64_fp64``); expressions then reference
functions by anchor.  This module reproduces that contract: a
:class:`FunctionRegistry` assigns anchors on first use and serializes as
part of the plan, and the OCS side resolves anchors back to semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.arrowsim.dtypes import DataType
from repro.errors import SubstraitError

__all__ = [
    "SCALAR_FUNCTIONS",
    "AGGREGATE_FUNCTIONS",
    "signature",
    "FunctionRegistry",
]

#: Scalar function name -> namespace URI (mirrors Substrait's YAML files).
SCALAR_FUNCTIONS: Dict[str, str] = {
    "add": "functions_arithmetic",
    "subtract": "functions_arithmetic",
    "multiply": "functions_arithmetic",
    "divide": "functions_arithmetic",
    "modulus": "functions_arithmetic",
    "negate": "functions_arithmetic",
    "equal": "functions_comparison",
    "not_equal": "functions_comparison",
    "lt": "functions_comparison",
    "lte": "functions_comparison",
    "gt": "functions_comparison",
    "gte": "functions_comparison",
    "and": "functions_boolean",
    "or": "functions_boolean",
    "not": "functions_boolean",
    "is_null": "functions_comparison",
    "is_not_null": "functions_comparison",
    "abs": "functions_arithmetic",
    "sqrt": "functions_arithmetic",
    "floor": "functions_rounding",
    "ceil": "functions_rounding",
    "round": "functions_rounding",
    "ln": "functions_logarithmic",
    "exp": "functions_logarithmic",
}

AGGREGATE_FUNCTIONS: Dict[str, str] = {
    "count": "functions_aggregate_generic",
    "sum": "functions_arithmetic",
    "avg": "functions_arithmetic",
    "min": "functions_arithmetic",
    "max": "functions_arithmetic",
    "variance": "functions_aggregate_approx",
    "stddev": "functions_aggregate_approx",
}

_TYPE_ABBREV = {
    "bool": "bool",
    "int32": "i32",
    "int64": "i64",
    "float32": "fp32",
    "float64": "fp64",
    "date32": "date",
    "string": "str",
}


def signature(name: str, arg_types: Sequence[DataType]) -> str:
    """Fully-qualified signature, e.g. ``functions_comparison:gte:fp64_fp64``."""
    if name in SCALAR_FUNCTIONS:
        namespace = SCALAR_FUNCTIONS[name]
    elif name in AGGREGATE_FUNCTIONS:
        namespace = AGGREGATE_FUNCTIONS[name]
    else:
        raise SubstraitError(f"unknown function {name!r}")
    try:
        types = "_".join(_TYPE_ABBREV[t.name] for t in arg_types)
    except KeyError as exc:
        raise SubstraitError(f"no Substrait type abbreviation for {exc}") from None
    return f"{namespace}:{name}:{types}" if types else f"{namespace}:{name}:"


@dataclass
class FunctionRegistry:
    """Anchor <-> signature mapping carried by a plan."""

    _by_signature: Dict[str, int] = field(default_factory=dict)
    _by_anchor: Dict[int, str] = field(default_factory=dict)

    def anchor_for(self, name: str, arg_types: Sequence[DataType]) -> int:
        """Anchor for the signature, assigning the next id on first use."""
        sig = signature(name, arg_types)
        anchor = self._by_signature.get(sig)
        if anchor is None:
            anchor = len(self._by_signature) + 1
            self._by_signature[sig] = anchor
            self._by_anchor[anchor] = sig
        return anchor

    def name_of(self, anchor: int) -> str:
        """Bare function name for an anchor (namespace and types stripped)."""
        # A malformed signature from the wire names no function ("").
        return self.signature_of(anchor).partition(":")[2].partition(":")[0]

    def signature_of(self, anchor: int) -> str:
        try:
            return self._by_anchor[anchor]
        except KeyError:
            raise SubstraitError(f"unknown function anchor {anchor}") from None

    def declarations(self) -> List[tuple[int, str]]:
        """(anchor, signature) pairs in anchor order for serialization."""
        return sorted(self._by_anchor.items())

    @classmethod
    def from_declarations(cls, declarations: Sequence[tuple[int, str]]) -> "FunctionRegistry":
        registry = cls()
        for anchor, sig in declarations:
            if anchor in registry._by_anchor:
                raise SubstraitError(f"duplicate function anchor {anchor}")
            registry._by_anchor[anchor] = sig
            registry._by_signature[sig] = anchor
        return registry

    def __len__(self) -> int:
        return len(self._by_anchor)
