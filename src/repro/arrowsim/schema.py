"""Schemas: ordered, named, typed fields."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

from repro.arrowsim.dtypes import DataType, read_dtype
from repro.errors import SchemaMismatchError
from repro.wire import Reader

__all__ = ["Field", "Schema", "encode_schema", "decode_schema"]


@dataclass(frozen=True)
class Field:
    """One column: name, logical type, nullability."""

    name: str
    dtype: DataType
    nullable: bool = True

    def __repr__(self) -> str:
        null = "" if self.nullable else " NOT NULL"
        return f"{self.name}: {self.dtype}{null}"


class Schema:
    """An ordered collection of fields with by-name lookup."""

    def __init__(self, fields: Sequence[Field]) -> None:
        self.fields: List[Field] = list(fields)
        self._index: Dict[str, int] = {}
        for i, f in enumerate(self.fields):
            if f.name in self._index:
                raise SchemaMismatchError(f"duplicate field name {f.name!r}")
            self._index[f.name] = i

    # -- lookup ------------------------------------------------------------

    def field(self, name: str) -> Field:
        try:
            return self.fields[self._index[name]]
        except KeyError:
            raise SchemaMismatchError(
                f"no field {name!r}; have {self.names()}"
            ) from None

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaMismatchError(
                f"no field {name!r}; have {self.names()}"
            ) from None

    def names(self) -> List[str]:
        return [f.name for f in self.fields]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __getitem__(self, i: int) -> Field:
        return self.fields[i]

    # -- derivation --------------------------------------------------------------

    def select(self, names: Sequence[str]) -> "Schema":
        """Projection: a new schema with the given fields, in given order."""
        return Schema([self.field(n) for n in names])

    # -- equality / repr ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.fields == other.fields

    def __hash__(self) -> int:
        return hash(tuple(self.fields))

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in self.fields)
        return f"Schema({inner})"


# -- binary serde (shared by Arrow IPC batches and Parcel footers) ----------------


def encode_schema(schema: Schema) -> bytes:
    """``u16 nfields (u16 name_len, name, u8 type_code, u8 nullable)*``."""
    out = bytearray(len(schema).to_bytes(2, "little"))
    for f in schema:
        name = f.name.encode("utf-8")
        out += len(name).to_bytes(2, "little") + name
        out += bytes((f.dtype.code, int(f.nullable)))
    return bytes(out)


def decode_schema(reader: Reader) -> Schema:
    """Inverse of :func:`encode_schema` at the cursor."""
    fields = []
    for _ in range(reader.count(4, reader.u16())):
        fields.append(Field(reader.text(reader.u16()), read_dtype(reader), bool(reader.u8())))
    try:
        return Schema(fields)
    except SchemaMismatchError as exc:
        reader.fail(f"bad schema block: {exc}")
