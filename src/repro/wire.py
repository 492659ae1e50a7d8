"""The one cursor every framed-message decoder reads through.

Whatever a decoder reads was written on the far side of a network (plan
bytes over RPC, Arrow bytes back, Parcel footers through ranged GETs), so
every read is checked against the bytes that are there and every failure
is the *caller's* error class — a truncated footer is a ``FormatError``, a
truncated plan a ``SerdeError`` — never ``IndexError``, ``struct.error``
or ``UnicodeDecodeError``.  :meth:`Reader.count` and :meth:`Reader.nested`
are two of the three ceilings DESIGN.md §8 names (the third, expansion
size, lives in ``repro.compress``).  Integers are little-endian, varints
unsigned LEB128.  Block kernels (chunk bodies, LZ77/Huffman loops, numpy
buffer reads) use the cursor to find their bytes but read them in bulk.
"""

from __future__ import annotations

import struct
from typing import NoReturn, Optional, Type

from repro.errors import CodecError, ReproError

__all__ = [
    "MAX_DEPTH",
    "Reader",
    "encode_varint",
    "decode_varint",
    "put_varint",
    "put_str",
]

#: Deepest nesting :meth:`Reader.nested` admits: far above what the SQL
#: parser's own ceiling lets this system generate (a plan nests relations
#: plus one expression tree; 68 levels measured at the parser's limit), far
#: below the interpreter's recursion limit.
MAX_DEPTH = 200

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


def put_varint(out: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned LEB128 varint."""
    if value < 0:
        raise CodecError(f"varint cannot encode negative value {value}")
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def put_str(out: bytearray, text: str) -> None:
    """Append ``varint length, UTF-8 bytes`` — what :meth:`Reader.text` reads."""
    data = text.encode("utf-8")
    put_varint(out, len(data))
    out += data


def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint."""
    out = bytearray()
    put_varint(out, value)
    return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns (value, next_offset).

    The codec kernels' form of :meth:`Reader.varint`: no cursor object in
    an inner loop, always a ``CodecError``.
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


class Reader:
    """A forward-only, bounds-checked cursor over any bytes-like object
    (``bytes``, ``bytearray``, ``memoryview``; slices come back as the same).

    ``error`` is the :class:`~repro.errors.ReproError` subclass every
    failure is raised as.  ``buf`` and ``pos`` are public so a block kernel
    can read its bytes in bulk (``np.frombuffer(r.buf, offset=r.pos)``) and
    then move the cursor past them.
    """

    __slots__ = ("buf", "pos", "end", "error", "depth")

    def __init__(self, buf: bytes, error: Type[ReproError], pos: int = 0) -> None:
        self.buf = buf
        self.pos = pos
        self.end = len(buf)
        self.error = error
        self.depth = 0

    def fail(self, message: str) -> NoReturn:
        raise self.error(message)

    @property
    def remaining(self) -> int:
        return self.end - self.pos

    def done(self) -> None:
        """The frame must end here."""
        if self.pos != self.end:
            self.fail(f"{self.end - self.pos} trailing bytes at offset {self.pos}")

    # -- primitives ------------------------------------------------------------

    def _advance(self, n: int) -> int:
        """Move past the next ``n`` bytes; returns where they start."""
        pos = self.pos
        if n < 0 or pos + n > self.end:
            self.fail(f"truncated: need {n} bytes at offset {pos}, have {self.end - pos}")
        self.pos = pos + n
        return pos

    def take(self, n: int) -> bytes:
        """The next ``n`` bytes, as a slice of the underlying buffer."""
        pos = self._advance(n)
        return self.buf[pos : pos + n]

    def expect(self, magic: bytes, what: str) -> None:
        """The next bytes must be exactly ``magic``."""
        if self.take(len(magic)) != magic:
            self.fail(f"bad {what} magic")

    def u8(self) -> int:
        return self.buf[self._advance(1)]

    def u16(self) -> int:
        return int(_U16.unpack_from(self.buf, self._advance(2))[0])

    def u32(self) -> int:
        return int(_U32.unpack_from(self.buf, self._advance(4))[0])

    def u64(self) -> int:
        return int(_U64.unpack_from(self.buf, self._advance(8))[0])

    def i64(self) -> int:
        return int(_I64.unpack_from(self.buf, self._advance(8))[0])

    def f64(self) -> float:
        return float(_F64.unpack_from(self.buf, self._advance(8))[0])

    def varint(self) -> int:
        """Unsigned LEB128, at most ten bytes."""
        buf = self.buf
        pos = self.pos
        end = self.end
        result = 0
        shift = 0
        while pos < end:
            byte = buf[pos]
            pos += 1
            if byte < 0x80:
                self.pos = pos
                return result | byte << shift
            result |= (byte & 0x7F) << shift
            shift += 7
            if shift > 63:
                self.fail(f"varint longer than 10 bytes at offset {self.pos}")
        self.fail(f"truncated varint at offset {self.pos}")

    def text(self, n: Optional[int] = None) -> str:
        """``n`` bytes of UTF-8; without ``n``, a varint length comes first."""
        data = self.take(self.varint() if n is None else n)
        try:
            return str(data, "utf-8")
        except UnicodeDecodeError as exc:
            self.fail(f"string at offset {self.pos - len(data)} is not UTF-8: {exc}")

    # -- ceilings --------------------------------------------------------------

    def count(self, min_item_bytes: int, declared: Optional[int] = None) -> int:
        """An element count the remaining bytes can actually hold.

        Reads a varint unless the caller read the count at another width
        (``declared``).  Elements occupy at least ``min_item_bytes`` each, so
        a larger count is forged: refused before anything is allocated.
        """
        n = self.varint() if declared is None else declared
        if n * min_item_bytes > self.end - self.pos:
            self.fail(
                f"frame declares {n} elements of >= {min_item_bytes} bytes "
                f"at offset {self.pos} but only {self.end - self.pos} bytes remain"
            )
        return n

    def nested(self) -> "Reader":
        """``with r.nested():`` around one level of a recursive decoder."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"nested deeper than {MAX_DEPTH} levels at offset {self.pos}")
        return self

    def __enter__(self) -> "Reader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.depth -= 1
