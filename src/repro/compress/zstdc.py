"""Zstd-class codec: chained-match LZ77 (1 MiB window) + canonical Huffman.

Mirrors Zstandard's design point — best ratio of the three at moderate
cost: the match finder walks an 8-deep hash chain for longer matches, and
the token stream goes through an entropy stage.

Body layout::

    varint  token-stream length in bytes
    rest    Huffman-encoded token stream (see repro.compress.huffman)
"""

from __future__ import annotations

from repro.compress import huffman
from repro.compress.codec import Codec, decode_varint, encode_varint
from repro.compress.lz77 import compress_tokens, decompress_tokens

__all__ = ["ZstdClassCodec"]


class ZstdClassCodec(Codec):
    """Higher-effort LZ77 with an entropy stage: best ratio of the family."""

    name = "zstd"
    codec_id = 3

    WINDOW = 1024 * 1024
    MAX_CHAIN = 8

    def _compress_body(self, data: bytes) -> bytes:
        tokens = compress_tokens(
            data,
            window=self.WINDOW,
            min_match=4,
            max_chain=self.MAX_CHAIN,
            skip_accel=True,
        )
        return encode_varint(len(tokens)) + huffman.encode(tokens)

    def _decompress_body(self, body: memoryview, orig_size: int) -> bytes:
        token_len, pos = decode_varint(body, 0)
        tokens = huffman.decode(bytes(body[pos:]), token_len)
        return decompress_tokens(tokens, orig_size)
