"""Snappy-class codec: greedy single-candidate LZ77, 64 KiB window.

Mirrors real Snappy's design point — favor speed over ratio: one hash
probe per position, skip acceleration through incompressible data, no
entropy stage.
"""

from __future__ import annotations

from repro.compress.codec import Codec
from repro.compress.lz77 import compress_tokens, decompress_tokens

__all__ = ["SnappyClassCodec"]


class SnappyClassCodec(Codec):
    """Fast LZ77: modest ratio, cheapest (de)compression of the LZ family."""

    name = "snappy"
    codec_id = 1

    WINDOW = 64 * 1024

    def _compress_body(self, data: bytes) -> bytes:
        return compress_tokens(
            data,
            window=self.WINDOW,
            min_match=4,
            max_chain=1,
            skip_accel=True,
        )

    def _decompress_body(self, body: memoryview, orig_size: int) -> bytes:
        return decompress_tokens(bytes(body), orig_size)
