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
from repro.wire import Reader, decode_varint, encode_varint

__all__ = [
    "Codec",
    "CodecRegistry",
    "NoneCodec",
    "encode_varint",
    "decode_varint",
]

_MAGIC = b"PC"


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
        r = Reader(memoryview(frame), CodecError)
        r.expect(_MAGIC, "codec frame")
        codec_id = r.u8()
        if codec_id != self.codec_id:
            raise CodecError(
                f"frame written by codec id {codec_id}, not {self.name!r} ({self.codec_id})"
            )
        orig_size = r.varint()
        checksum = r.u32()
        data = self._decompress_body(r.take(r.remaining), orig_size)
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
