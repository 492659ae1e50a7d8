"""Unit + property tests for the compression package."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref

from repro.compress import (
    CodecRegistry,
    GzipCodec,
    NoneCodec,
    SnappyClassCodec,
    ZstdClassCodec,
    default_registry,
    get_codec,
)
from repro.compress import huffman
from repro.compress.codec import decode_varint, encode_varint
from repro.compress.lz77 import MAX_MATCH, compress_tokens, decompress_tokens
from repro.errors import CodecError

ALL_CODECS = [NoneCodec(), SnappyClassCodec(), GzipCodec(), ZstdClassCodec()]


def compressible_blob(nbytes: int = 50_000, seed: int = 7) -> bytes:
    """Float-ish scientific data: smooth series with repeated structure."""
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(0, 0.01, nbytes // 8))
    return np.round(base, 3).tobytes()


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**40 + 5])
    def test_roundtrip(self, value):
        encoded = encode_varint(value)
        decoded, pos = decode_varint(encoded)
        assert decoded == value
        assert pos == len(encoded)

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            encode_varint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            decode_varint(b"\x80\x80")

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_roundtrip_property(self, value):
        decoded, _ = decode_varint(encode_varint(value))
        assert decoded == value


class TestLz77:
    def test_empty(self):
        assert decompress_tokens(compress_tokens(b"", window=64), 0) == b""

    def test_tiny(self):
        data = b"abc"
        assert decompress_tokens(compress_tokens(data, window=64), 3) == data

    def test_repetitive_compresses(self):
        data = b"abcdefgh" * 4096
        tokens = compress_tokens(data, window=65536)
        assert len(tokens) < len(data) // 10
        assert decompress_tokens(tokens, len(data)) == data

    def test_overlapping_match_rle(self):
        data = b"a" * 10_000
        tokens = compress_tokens(data, window=65536)
        assert len(tokens) < 100
        assert decompress_tokens(tokens, len(data)) == data

    def test_random_data_roundtrips(self):
        data = np.random.default_rng(1).bytes(20_000)
        tokens = compress_tokens(data, window=65536)
        assert decompress_tokens(tokens, len(data)) == data

    def test_chained_search_never_worse(self):
        data = compressible_blob(30_000)
        greedy = compress_tokens(data, window=1 << 20, max_chain=1)
        chained = compress_tokens(data, window=1 << 20, max_chain=8)
        assert decompress_tokens(chained, len(data)) == data
        assert len(chained) <= len(greedy) * 1.02

    def test_bad_offset_rejected(self):
        # match len=4 offset=9 with empty history
        bad = encode_varint((4 << 1) | 1) + encode_varint(9)
        with pytest.raises(CodecError):
            decompress_tokens(bad, 4)

    def test_truncated_literal_rejected(self):
        bad = encode_varint(10 << 1) + b"abc"
        with pytest.raises(CodecError):
            decompress_tokens(bad, 10)

    @given(st.binary(min_size=0, max_size=4096))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        tokens = compress_tokens(data, window=65536)
        assert decompress_tokens(tokens, len(data)) == data


class TestHuffman:
    def test_empty(self):
        assert huffman.decode(huffman.encode(b""), 0) == b""

    def test_single_symbol(self):
        data = b"z" * 1000
        encoded = huffman.encode(data)
        assert len(encoded) < 300
        assert huffman.decode(encoded, 1000) == data

    def test_two_symbols(self):
        data = b"ab" * 500
        assert huffman.decode(huffman.encode(data), 1000) == data

    def test_skewed_beats_uniform(self):
        skewed = bytes([0] * 900 + list(range(100)))
        uniform = bytes(list(range(256)) * 4)[: len(skewed)]
        assert len(huffman.encode(skewed)) < len(huffman.encode(uniform))

    def test_code_lengths_kraft_inequality(self):
        freqs = list(np.random.default_rng(3).integers(0, 1000, 256))
        lengths = huffman.code_lengths([int(f) for f in freqs])
        kraft = sum(2.0 ** -l for l in lengths if l > 0)
        assert kraft <= 1.0 + 1e-9

    def test_length_cap_respected_on_pathological_freqs(self):
        # Fibonacci frequencies force deep trees in unbounded Huffman.
        freqs = [0] * 256
        a, b = 1, 1
        for i in range(40):
            freqs[i] = a
            a, b = b, a + b
        lengths = huffman.code_lengths(freqs)
        assert max(lengths) <= huffman.MAX_CODE_BITS
        assert all(lengths[i] > 0 for i in range(40))

    @given(st.binary(min_size=0, max_size=2048))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        assert huffman.decode(huffman.encode(data), len(data)) == data


class TestCodecs:
    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_roundtrip_compressible(self, codec):
        data = compressible_blob()
        assert codec.decompress(codec.compress(data)) == data

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_roundtrip_random(self, codec):
        data = np.random.default_rng(5).bytes(10_000)
        assert codec.decompress(codec.compress(data)) == data

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_roundtrip_empty(self, codec):
        assert codec.decompress(codec.compress(b"")) == b""

    def test_ratio_ordering_on_structured_data(self):
        # Paper Figure 6 premise: zstd >= gzip-ish > snappy > none on
        # scientific data. We require the coarse ordering: both LZ codecs
        # compress, and zstd compresses at least as well as snappy.
        data = compressible_blob(200_000)
        sizes = {c.name: len(c.compress(data)) for c in ALL_CODECS}
        assert sizes["snappy"] < sizes["none"]
        assert sizes["gzip"] < sizes["snappy"]
        assert sizes["zstd"] < sizes["snappy"]

    def test_checksum_detects_corruption(self):
        codec = SnappyClassCodec()
        frame = bytearray(codec.compress(b"hello world" * 100))
        frame[-1] ^= 0xFF
        with pytest.raises(CodecError):
            codec.decompress(bytes(frame))

    def test_wrong_codec_rejected(self):
        frame = SnappyClassCodec().compress(b"data")
        with pytest.raises(CodecError):
            GzipCodec().decompress(frame)

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError):
            NoneCodec().decompress(b"XX\x00\x00\x00\x00\x00\x00")

    @given(st.binary(min_size=0, max_size=4096))
    @settings(max_examples=30, deadline=None)
    def test_zstd_roundtrip_property(self, data):
        codec = ZstdClassCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestRegistry:
    def test_default_registry_has_all_four(self):
        assert default_registry().names() == ["gzip", "none", "snappy", "zstd"]

    def test_get_codec(self):
        assert get_codec("zstd").name == "zstd"

    def test_unknown_codec(self):
        with pytest.raises(CodecError):
            get_codec("lz4")

    def test_duplicate_registration_rejected(self):
        registry = CodecRegistry()
        registry.register(NoneCodec())
        with pytest.raises(CodecError):
            registry.register(NoneCodec())

    def test_lookup_by_id(self):
        assert default_registry().by_id(3).name == "zstd"


# -- the numpy kernels against the per-byte scalar referee ---------------------------


def _colliding_words(count: int = 8) -> list:
    """Pairs of different 4-byte words with the same 15-bit chain hash."""
    words = np.arange(1 << 16, dtype=np.uint32) * np.uint32(2654435761)
    hashes = (words * ref._HASH_MULT) >> np.uint32(32 - ref._HASH_BITS)
    order = np.argsort(hashes, kind="stable")
    same = np.flatnonzero(hashes[order[1:]] == hashes[order[:-1]])[:count]
    return [
        (words[order[k]].tobytes(), words[order[k + 1]].tobytes()) for k in same
    ]


COLLIDING = _colliding_words()
#: Match lengths at the encoder's edges: min_match, the stride-1 seeding
#: limit (16, 31), the first strided one and the prefix cap of the word
#: compare (32), a run of words (64) and the chain-ending 512.
COPY_LENGTHS = [4, 15, 16, 17, 19, 31, 32, 33, 63, 64, 65, 100, 511, 512, 513, 700, 2000]


@st.composite
def lz_inputs(draw):
    """Blocks that reach every path of the encoder's exactness argument."""
    exact = draw(st.sampled_from([None, 0, 15, 16, 17, 19]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = bytearray()
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["noise", "copy", "copy", "run", "collide", "ab"]))
        if kind == "noise":  # >= 64 incompressible bytes trigger skip acceleration
            out += rng.bytes(draw(st.sampled_from([1, 5, 63, 64, 65, 130, 300, 1200])))
        elif kind == "copy" and out:
            length = draw(st.sampled_from(COPY_LENGTHS))
            start = len(out) - draw(st.integers(1, min(len(out), 3000)))
            for k in range(length):  # byte by byte: overlapping copies repeat
                out.append(out[start + k])
        elif kind == "run":
            out += bytes([draw(st.integers(0, 255))]) * draw(st.sampled_from([4, 40, 600]))
        elif kind == "collide":
            a, b = COLLIDING[draw(st.integers(0, len(COLLIDING) - 1))]
            for _ in range(draw(st.integers(1, 20))):
                out += a if rng.random() < 0.5 else b
        else:
            out += bytes(rng.choice([97, 98], size=draw(st.integers(1, 200))).astype(np.uint8))
    if exact is not None:
        out = (out + rng.bytes(exact))[:exact]
    return bytes(out)


ENCODER_PARAMS = st.fixed_dictionaries({
    "window": st.sampled_from([16, 100, 1000, 65536, 1 << 20]),
    "max_chain": st.sampled_from([1, 8]),
    "skip_accel": st.sampled_from([True, True, False]),
})


def _assert_same_tokens(data, params):
    tokens = compress_tokens(data, **params)
    assert tokens == ref.compress_tokens(data, **params)
    return tokens


def _assert_decoders_agree(tokens, data):
    assert decompress_tokens(tokens, len(data)) == data
    assert ref.decompress_tokens(tokens, len(data)) == data
    encoded = huffman.encode(tokens)
    assert huffman.decode(encoded, len(tokens)) == tokens
    assert ref.huffman_decode(encoded, len(tokens)) == tokens


class TestAgainstScalarReference:
    """Same token stream as the per-byte encoder; same bytes back."""

    @given(lz_inputs(), ENCODER_PARAMS)
    @settings(max_examples=150, deadline=None)
    def test_same_tokens_and_bytes(self, data, params):
        _assert_decoders_agree(_assert_same_tokens(data, params), data)

    @pytest.mark.slow
    @given(lz_inputs(), ENCODER_PARAMS)
    @settings(max_examples=2000, deadline=None)
    def test_same_tokens_and_bytes_long_run(self, data, params):
        _assert_decoders_agree(_assert_same_tokens(data, params), data)

    @pytest.mark.parametrize("max_chain", [1, 8])
    def test_workload_shaped_blocks(self, max_chain):
        for data in (compressible_blob(40_000), np.random.default_rng(2).bytes(20_000),
                     b"abcdefgh" * 4096, bytes(70_000)):
            params = {"window": 65536, "max_chain": max_chain}
            _assert_decoders_agree(_assert_same_tokens(data, params), data)

    @pytest.mark.parametrize("max_chain", [1, 8])
    def test_positions_skipped_over_are_not_candidates(self, max_chain):
        # Positions 0..63 miss one by one; the 64th miss steps over 64, and
        # from there every other position is stepped over.  A later copy of
        # bytes starting at one of those must not match there.
        noise = np.random.default_rng(4).bytes(200)
        for start in (63, 64, 65, 66):
            data = noise + noise[start : start + 40] + b"tail" * 8
            params = {"window": 65536, "max_chain": max_chain}
            _assert_decoders_agree(_assert_same_tokens(data, params), data)

    @given(lz_inputs())
    @settings(max_examples=40, deadline=None)
    def test_every_truncation_fails(self, data):
        tokens = compress_tokens(data, window=65536, max_chain=8)
        for cut in range(len(tokens)):
            with pytest.raises(CodecError):
                decompress_tokens(tokens[:cut], len(data))
        encoded = huffman.encode(tokens)
        for cut in range(len(encoded)):
            with pytest.raises(CodecError):
                huffman.decode(encoded[:cut], len(tokens))

    @given(lz_inputs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_damaged_streams_fail_alike(self, data, draw):
        """Where the referee decodes a damaged stream to the declared size, the
        kernels return the same bytes; where it fails, they fail with its
        error; where it comes up short, they refuse the size."""
        tokens = bytearray(compress_tokens(data, window=65536))
        encoded = bytearray(huffman.encode(bytes(tokens)))
        for buf in (tokens, encoded):
            if buf:
                at = draw.draw(st.integers(0, len(buf) - 1))
                buf[at] ^= draw.draw(st.integers(1, 255))
        try:
            expected = ref.decompress_tokens(bytes(tokens), len(data))
        except CodecError as exc:  # the same check fails first
            with pytest.raises(CodecError, match=f"^{re.escape(str(exc))}$"):
                decompress_tokens(bytes(tokens), len(data))
        else:
            if len(expected) == len(data):
                assert decompress_tokens(bytes(tokens), len(data)) == expected
            else:
                with pytest.raises(CodecError, match="expands to"):
                    decompress_tokens(bytes(tokens), len(data))
        try:
            expected = ref.huffman_decode(bytes(encoded), len(tokens))
        except CodecError as exc:
            with pytest.raises(CodecError, match=f"^{re.escape(str(exc))}$"):
                huffman.decode(bytes(encoded), len(tokens))
        else:
            assert huffman.decode(bytes(encoded), len(tokens)) == expected

    def test_match_longer_than_max_match_rejected(self):
        body = b"\x02a" + encode_varint(((MAX_MATCH + 1) << 1) | 1) + b"\x01"
        with pytest.raises(CodecError, match="exceeds"):
            decompress_tokens(body, MAX_MATCH + 2)

    def test_declared_size_beyond_the_tokens_rejected(self):
        with pytest.raises(CodecError, match="expands to 5 bytes"):
            decompress_tokens(b"\x0ahello", 6)


@pytest.mark.parametrize("name", ["snappy", "zstd"])
def test_compression_memory_is_bounded(name):
    """The kernels work in slabs: peak traced memory stays <= 48 B per input byte."""
    data = compressible_blob(256 * 1024)
    codec = get_codec(name)
    tracemalloc.start()
    try:
        codec.compress(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * len(data)
