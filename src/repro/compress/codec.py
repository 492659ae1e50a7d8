"""Codec interface, checksummed frame format, and the registry.

Frame layout (what ``compress`` returns and ``decompress`` expects)::

    magic      2 bytes   b"PC"  (Parcel Codec)
    codec id   1 byte    registry-assigned
    orig size  varint    uncompressed length
    adler32    4 bytes   little-endian checksum of the uncompressed data
    payload    rest      codec-specific body

The frame lets readers validate integrity and pre-allocate output, and
makes a chunk self-describing (the reader can verify the chunk was written
with the codec the footer claims).
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Dict

from repro.errors import CodecError

__all__ = [
    "Codec",
    "CodecRegistry",
    "NoneCodec",
    "encode_varint",
    "decode_varint",
]

_MAGIC = b"PC"


def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint."""
    if value < 0:
        raise CodecError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns (value, next_offset)."""
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


class Codec(ABC):
    """A lossless block codec with a checksummed frame."""

    #: Registry name, e.g. ``"snappy"``.
    name: str = ""
    #: One-byte frame identifier, assigned per codec class.
    codec_id: int = 0

    def compress(self, data: bytes) -> bytes:
        """Frame + compress ``data``; always decompressible by this codec."""
        data = bytes(data)
        body = self._compress_body(data)
        header = (
            _MAGIC
            + bytes([self.codec_id])
            + encode_varint(len(data))
            + (zlib.adler32(data) & 0xFFFFFFFF).to_bytes(4, "little")
        )
        return header + body

    def decompress(self, frame: bytes) -> bytes | memoryview:
        """Validate the frame and return the original bytes.

        The body reaches the codec as a view of ``frame``, not a copy; the
        identity codec hands that view back, so an uncompressed chunk is
        checksummed in place (any bytes-like ``frame`` works).
        """
        frame = memoryview(frame)
        if len(frame) < 7 or frame[:2] != _MAGIC:
            raise CodecError("bad codec frame magic")
        if frame[2] != self.codec_id:
            raise CodecError(
                f"frame written by codec id {frame[2]}, not {self.name!r} ({self.codec_id})"
            )
        orig_size, pos = decode_varint(frame, 3)
        if pos + 4 > len(frame):
            raise CodecError("truncated codec frame header")
        checksum = int.from_bytes(frame[pos : pos + 4], "little")
        data = self._decompress_body(frame[pos + 4 :], orig_size)
        if len(data) != orig_size:
            raise CodecError(
                f"decompressed {len(data)} bytes, frame promised {orig_size}"
            )
        if (zlib.adler32(data) & 0xFFFFFFFF) != checksum:
            raise CodecError("checksum mismatch after decompression")
        return data

    # -- codec-specific body ------------------------------------------------

    @abstractmethod
    def _compress_body(self, data: bytes) -> bytes:
        """Compress raw bytes to the codec-specific payload."""

    @abstractmethod
    def _decompress_body(self, body: memoryview, orig_size: int) -> bytes | memoryview:
        """Inverse of :meth:`_compress_body`; ``body`` is a view into the frame."""


class NoneCodec(Codec):
    """Identity codec (the paper's "No Compression" configuration)."""

    name = "none"
    codec_id = 0

    def _compress_body(self, data: bytes) -> bytes:
        return data

    def _decompress_body(self, body: memoryview, orig_size: int) -> memoryview:
        return body


class CodecRegistry:
    """Name -> codec lookup used by the Parcel writer/reader."""

    def __init__(self) -> None:
        self._by_name: Dict[str, Codec] = {}
        self._by_id: Dict[int, Codec] = {}

    def register(self, codec: Codec) -> None:
        if not codec.name:
            raise CodecError("codec must have a name")
        if codec.name in self._by_name:
            raise CodecError(f"codec {codec.name!r} already registered")
        if codec.codec_id in self._by_id:
            raise CodecError(f"codec id {codec.codec_id} already registered")
        self._by_name[codec.name] = codec
        self._by_id[codec.codec_id] = codec

    def get(self, name: str) -> Codec:
        codec = self._by_name.get(name)
        if codec is None:
            raise CodecError(
                f"unknown codec {name!r}; registered: {sorted(self._by_name)}"
            )
        return codec

    def by_id(self, codec_id: int) -> Codec:
        codec = self._by_id.get(codec_id)
        if codec is None:
            raise CodecError(f"unknown codec id {codec_id}")
        return codec

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name
