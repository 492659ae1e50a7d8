"""GZip codec: DEFLATE via the stdlib ``zlib``.

DEFLATE *is* gzip's algorithm; the stdlib binding is the reference
implementation, so unlike the Snappy/Zstd classes there is nothing to
re-implement — only to frame consistently with the other codecs.
"""

from __future__ import annotations

import zlib

from repro.compress.codec import Codec
from repro.errors import CodecError

__all__ = ["GzipCodec"]


class GzipCodec(Codec):
    """DEFLATE at the default gzip level: slow, good ratio."""

    name = "gzip"
    codec_id = 2

    LEVEL = 6

    def _compress_body(self, data: bytes) -> bytes:
        return zlib.compress(data, self.LEVEL)

    def _decompress_body(self, body: memoryview, orig_size: int) -> bytes:
        try:
            return zlib.decompress(body)
        except zlib.error as exc:
            raise CodecError(f"DEFLATE stream corrupt: {exc}") from exc
