"""The whole-chunk Parcel/IPC kernels against their contracts.

* golden digests — stored bytes and IPC bytes are pinned per generator,
  codec and row-group size (recorded at commit 36a6943, before the
  kernels were rewritten);
* a differential property test against the scalar reference in
  ``scalar_reference.py`` — same bytes out, same values back;
* the two DICT losslessness bugs the rewrite fixed;
* hostile input: decoders and codecs fail typed and before allocating;
* one analysis per chunk — a single ``np.unique`` / ``set``.
"""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from repro.arrowsim import (
    BOOL,
    ColumnArray,
    DATE32,
    FLOAT32,
    FLOAT64,
    INT32,
    INT64,
    RecordBatch,
    STRING,
    deserialize_batches,
    serialize_batches,
)
from repro.arrowsim import ipc
from repro.arrowsim.buffers import pack_validity
from repro.compress.codec import encode_varint
from repro.compress.registry import get_codec
from repro.errors import CodecError, ReproError
from repro.formats import ColumnStats, ParcelReader, write_table
from repro.formats import encoding, statistics
from repro.formats.encoding import DICT, PLAIN, RLE, decode_chunk, encode_chunk
from repro.workloads import (
    generate_customer,
    generate_deepwater_file,
    generate_laghos_file,
    generate_lineitem,
    generate_orders,
)

# -- golden digests ------------------------------------------------------------

GOLDEN_ROWS = 3000
GOLDEN_SEED = 7
GENERATORS = {
    "laghos": lambda: generate_laghos_file(GOLDEN_ROWS, 1, seed=GOLDEN_SEED),
    "deepwater": lambda: generate_deepwater_file(GOLDEN_ROWS, 2, seed=GOLDEN_SEED),
    "lineitem": lambda: generate_lineitem(
        GOLDEN_ROWS, seed=GOLDEN_SEED, start_row=GOLDEN_ROWS
    ),
    "orders": lambda: generate_orders(
        GOLDEN_ROWS, seed=GOLDEN_SEED, start_key=GOLDEN_ROWS
    ),
    "customer": lambda: generate_customer(
        GOLDEN_ROWS, seed=GOLDEN_SEED, start_key=GOLDEN_ROWS
    ),
}
CODECS = ("none", "snappy", "gzip", "zstd")
ROW_GROUP_SIZES = (700, 65536)

#: sha256 of ``write_table([batch], codec, row_group_rows)`` keyed
#: ``generator/codec/row_group_rows`` and of ``serialize_batches([batch,
#: batch.slice(0, 17)])`` keyed ``generator/ipc``.  Regenerate only for a
#: deliberate format change.
GOLDEN = {
    "customer/gzip/65536":
        "e271e405634564b963175f8d1bfe622e47023f30802ecafc840c313ba8c51f47",
    "customer/gzip/700":
        "7570034f1fff7103e74045348e879d0c0c4db65bdf5f2abce522cca072da449d",
    "customer/ipc":
        "f74c3c641699c9688fb1e843056c5a30e2b05b6dc3f442ef6fd435246fc59bed",
    "customer/none/65536":
        "06d66d6b7ed48d658dfa1a65756e026558c7b18b1b3fce5a78361cb86db3e3df",
    "customer/none/700":
        "bb6f175a1fa57a55d7a3cb0d3497f006a3470ba0b0565f4370445725953aa421",
    "customer/snappy/65536":
        "a4cb433ad8b6f997d6f61c57aba746364fa521ddedd1d4a6ffc4d4f2f9d39c80",
    "customer/snappy/700":
        "fb50213600ab57b65c71cfce94b4d1174c2f4f32a1c628c0617126021c11aeab",
    "customer/zstd/65536":
        "dd466359fa7582e83d0c1158eb0a42358de9855dffe2a310ad687bbfb422016f",
    "customer/zstd/700":
        "ab8f272920aa901d6efcfe7b88be3fd7f8fd47f479dcf398c16ee6e4768df0f9",
    "deepwater/gzip/65536":
        "13cbf6de085183945409835eecbd7d07b3c43e4dc5dc32d005e5aa806ff99fe7",
    "deepwater/gzip/700":
        "9cb8d8c790d81bc4e1c8b3da1447a29652593ceb921b590b144ca09e4a7f4972",
    "deepwater/ipc":
        "10491065660d5b3d938303f66193b2ce6e59876be7588a4c9e55e8b262221896",
    "deepwater/none/65536":
        "6415ba9e9523a1c408356b7ba8e7582b2898385c7e4ac29a63f2ac53d3eb6b44",
    "deepwater/none/700":
        "c8fdd050e1c2611c9d16830300648712cfb63ad9c5167fbb510365d702a4b217",
    "deepwater/snappy/65536":
        "fbb6283811321147c3fa6d400928068d3abd1cfcfb87b7baaf388f5c91285c93",
    "deepwater/snappy/700":
        "e27057bfc27442c7f213451ebc40f2837562d03dc6c25dccb2aa5f45204d21ad",
    "deepwater/zstd/65536":
        "23fc80bfd61ee9bab00131806688ce83882576b7b852fe10b5d714739a3e7d88",
    "deepwater/zstd/700":
        "666261c27ba6abcd2b07bc1fa05bf007addc1a3cf369d342e779bc4c42f16992",
    "laghos/gzip/65536":
        "adc176c45cb7969e30fde6577d43843d2becdd30120ef23476bad48d990e8d65",
    "laghos/gzip/700":
        "7176c43d3c5266d55ad6e7ef03bb600b0dcfb69075fd366458c1e339e5124c16",
    "laghos/ipc":
        "0bd4757115e3106d0a9917e83e0b018dc11e186723d45974f3dfa0f844c313cf",
    "laghos/none/65536":
        "cbab8243ee4e3816d3a5624353a0ebbc89c525988a316297ec31b51018514896",
    "laghos/none/700":
        "a1505b30114982893fefba61ac4620cba0f2414ada91ffbd3d99926c342894d2",
    "laghos/snappy/65536":
        "24ae60af0e7998f3ccb48ef8ce47d2c6bd36d7998e6d572e716a2dbf551947be",
    "laghos/snappy/700":
        "ac076e9957654d177f8fd95f84f391b59f1252a7f418a20b684c6cc6dd29d749",
    "laghos/zstd/65536":
        "046ebac31252b638333c3d6b16a1da95bed46dd128dd3512a8fb25b38c0fa89d",
    "laghos/zstd/700":
        "7de707dead4abbd6ced2e978460078d30a5e8c7222b22d2e3396a507c1bbbbe6",
    "lineitem/gzip/65536":
        "026e3369855416d0933f8e83a665205695b9b0758c64aa6ef9d2407e8c21a65c",
    "lineitem/gzip/700":
        "364d06fa0e32503fa3785a5bd503f23b3a2ca770a2c9be9dceb9e74741927944",
    "lineitem/ipc":
        "9621e982181f6cab4effdce27001928645e52511e9fc36284a5d17faec5f4cc9",
    "lineitem/none/65536":
        "9b6e4f00e43fc135d3b1c656f560c5f0983f8ddb08aac69ea37830878e6e51a5",
    "lineitem/none/700":
        "84642f8eb732af1ca56d9a2e3b6285cbf3b5694852c4f9ebf37b1ce5c23f66d0",
    "lineitem/snappy/65536":
        "3efd221580cb65eaab8d2fc7892c89690da2a96bd7a7cad294d2fcb2d6af3837",
    "lineitem/snappy/700":
        "d31c5ffb8029ac89b049cc6395093994e064123743de01285ff3e4b7ff277ce0",
    "lineitem/zstd/65536":
        "2f4bc9941f57a075858395d728b263e7d276f1342c3e47f07dfcc1a279d2c292",
    "lineitem/zstd/700":
        "f38c8254c112a2b2df91f1e51c304d789ee55ac289061a3ae1708dfd1e645b89",
    "orders/gzip/65536":
        "c6ff7c7580c5fadb5d3fa3a73adac033312f6d6ef74de049c34de1d3633381a0",
    "orders/gzip/700":
        "791d0c46ab77c4dd8667ad5eb71bf45a05a0bb49a5dccfd524db27329c17209d",
    "orders/ipc":
        "d4ecfe1a73aadb72d5180809c74880fae9f7d2b1d91cc2e7a63eef9ff3e4e11d",
    "orders/none/65536":
        "f9a15fdca38c5890628e7f9ae40ccadbf75787d5ed4312c493d215d2b22204d4",
    "orders/none/700":
        "fc09c302795c0554fdd5cf88ab643f3388a33c697b202520b03bb7d75feff0c7",
    "orders/snappy/65536":
        "3e2939e391c11c309a5b4538f3384a30d5f84fd1808d351cd88cf4bbf8ef9318",
    "orders/snappy/700":
        "a2b7b844f8df48c7013571c7d894b2b01254ebdfb734584c300f716329c52209",
    "orders/zstd/65536":
        "66c015d3e686f57c6a205d114373c9c8d271dfbf3f0c3611960539d24ab6681c",
    "orders/zstd/700":
        "07769ee763052b1b1d122de5394c54b301a7307003713f222557d17643def0a1",
}


@pytest.fixture(scope="module")
def golden_batches():
    return {name: make() for name, make in GENERATORS.items()}


@pytest.mark.parametrize("name", sorted(GENERATORS))
class TestGoldenDigests:
    def test_parcel_bytes(self, golden_batches, name):
        batch = golden_batches[name]
        for codec in CODECS:
            for rows in ROW_GROUP_SIZES:
                data = write_table([batch], codec=codec, row_group_rows=rows)
                assert hashlib.sha256(data).hexdigest() == GOLDEN[f"{name}/{codec}/{rows}"], (
                    f"stored bytes of {name} changed under {codec}, {rows}-row groups"
                )

    def test_ipc_bytes(self, golden_batches, name):
        batch = golden_batches[name]
        data = serialize_batches([batch, batch.slice(0, 17)])
        assert hashlib.sha256(data).hexdigest() == GOLDEN[f"{name}/ipc"]

    def test_reads_back(self, golden_batches, name):
        batch = golden_batches[name]
        data = write_table([batch], codec="none", row_group_rows=700)
        assert ParcelReader(data).read_table().equals(batch)
        assert deserialize_batches(serialize_batches([batch]))[0].equals(batch)


# -- differential: production kernels vs the scalar reference -------------------------

#: Run lengths straddling the 1-, 2- and 3-byte varint boundaries.
RUN_LENGTHS = st.sampled_from([1, 1, 1, 2, 3, 5, 16, 127, 128, 129, 300, 16383, 16384, 16500])

INT64_EDGES = [0, 1, -1, 7, 2**63 - 1, -(2**63), 2**31, -(2**31) - 1]
INT32_EDGES = [0, 1, -1, 7, 2**31 - 1, -(2**31)]
FLOAT_EDGES = [0.0, -0.0, 1.5, -2.25, float("nan"), float("inf"), float("-inf"), 5e-324, 1e308]
STRING_EDGES = [
    "", "a", "b", "a\x00", "\x00", "é", "日本語", "😀", "x😀y", "tag0", "tag1",
    "a much longer string that repeats " * 4, np.str_("np"), np.str_("é"),
]


def _edges(dtype):
    if dtype is INT64:
        return INT64_EDGES
    if dtype in (INT32, DATE32):
        return INT32_EDGES
    if dtype is BOOL:
        return [False, True]
    if dtype is FLOAT32:
        return FLOAT_EDGES[:7]
    if dtype is FLOAT64:
        return FLOAT_EDGES
    # A non-str element (the encoders store ``str(v)``) rides along too.
    return STRING_EDGES + [12]


def _anything(dtype):
    if dtype is INT64:
        return st.integers(-(2**63), 2**63 - 1)
    if dtype in (INT32, DATE32):
        return st.integers(-(2**31), 2**31 - 1)
    if dtype is BOOL:
        return st.booleans()
    if dtype.is_floating:
        return st.floats(width=8 * dtype.byte_width)
    return st.text(max_size=12)


@st.composite
def columns(draw):
    """A column over a small pool of values, in runs or scattered.

    Few distinct values keep DICT and RLE in play (runs favour RLE,
    scattered rows DICT, a pool as large as the chunk PLAIN); edge values
    are drawn into the pool on purpose, not left to chance.
    """
    # The 8-byte types (the only fixed widths DICT can win on) and strings
    # (three code paths of their own) are drawn more often.
    dtype = draw(
        st.sampled_from(
            [INT64, INT64, INT32, DATE32, BOOL, FLOAT32, FLOAT64, FLOAT64, STRING, STRING, STRING]
        )
    )
    pool = draw(st.lists(st.sampled_from(_edges(dtype)), max_size=5))
    pool += draw(st.lists(_anything(dtype), min_size=0 if pool else 1, max_size=4))
    if draw(st.booleans()):
        runs = draw(
            st.lists(st.tuples(st.sampled_from(pool), RUN_LENGTHS), min_size=0, max_size=24)
        )
        items = [value for value, length in runs for _ in range(length)]
    else:
        # Too many rows for one draw each: draw the seed of the scatter.
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        n = draw(st.sampled_from([1, 15, 16, 17, 40, 100, 200]))
        items = [pool[i] for i in rng.integers(0, len(pool), n)]
    n = len(items)
    values = np.empty(n, dtype=object if dtype is STRING else dtype.numpy_dtype)
    for i, item in enumerate(items):
        values[i] = item
    nulls = draw(st.sampled_from(["none", "none", "some", "all"]))
    validity = None
    if nulls == "all":
        validity = np.zeros(n, dtype=bool)
    elif nulls == "some":
        validity = np.random.default_rng(draw(st.integers(0, 2**16))).random(n) < 0.7
    return ColumnArray(dtype, values, validity)


def _same_bits(left: ColumnArray, right: ColumnArray) -> bool:
    """Equality down to NaN payloads, zero signs and element types."""
    if left.dtype is not right.dtype or len(left) != len(right):
        return False
    if (left.validity is None) != (right.validity is None):
        return False
    if left.validity is not None and not np.array_equal(left.validity, right.validity):
        return False
    if left.dtype is STRING:
        a, b = left.values.tolist(), right.values.tolist()
        return a == b and all(type(v) is str for v in a + b)
    return left.values.tobytes() == right.values.tobytes()


def _stored(column: ColumnArray) -> ColumnArray:
    """What a decoder must hand back: the column with every slot as ``str``."""
    if column.dtype is not STRING:
        return column
    values = np.empty(len(column), dtype=object)
    values[:] = [str(v) for v in column.values]
    return ColumnArray(STRING, values, column.validity)


class TestAgainstScalarReference:
    @settings(max_examples=200, deadline=None)
    @given(columns())
    def test_chunk_bytes_stats_and_roundtrip(self, column):
        body = encode_chunk(column)
        assert body == ref.encode_chunk(column)
        produced, stats = encoding.encode_chunk_with_stats(column)
        assert produced == body
        assert stats == ColumnStats.compute(column) == ref.compute_stats(column)

        decoded = decode_chunk(column.dtype, body, len(column))
        assert _same_bits(decoded, ref.decode_chunk(column.dtype, body, len(column)))
        # Lossless for every slot, NULL slots included.
        assert _same_bits(decoded, _stored(column))
        assert decoded.values.flags.writeable
        # Chunks reach the decoder as views under the ``none`` codec.
        assert _same_bits(decoded, decode_chunk(column.dtype, memoryview(body), len(column)))

    @settings(max_examples=100, deadline=None)
    @given(columns())
    def test_every_encoding_decodes(self, column):
        """Not just the winner: each encoding the reference can write."""
        dtype, values = column.dtype, column.values
        encoders = {PLAIN: ref.encode_values_plain, DICT: ref.encode_dict}
        if dtype is not STRING:
            encoders[RLE] = ref.encode_rle
        for tag, encode in encoders.items():
            body = b"\x00" + bytes([tag]) + encode(dtype, values)
            decoded = decode_chunk(dtype, body, len(column))
            assert _same_bits(decoded, ref.decode_chunk(dtype, body, len(column)))

    @settings(max_examples=100, deadline=None)
    @given(columns())
    def test_ipc_column_and_nbytes(self, column):
        wire = ipc._encode_column(column)
        assert wire == ref.encode_ipc_column(column)
        decoded, pos = ipc._decode_column(wire, 0, column.dtype, len(column))
        expected, ref_pos = ref.decode_ipc_column(wire, 0, column.dtype, len(column))
        assert pos == ref_pos == len(wire)
        assert _same_bits(decoded, expected)

        # The simulator charges links and caches from nbytes.
        n = len(column)
        if column.dtype is STRING:
            expected_nbytes = ref.string_nbytes(column.values) + 4 * (n + 1) + (n + 7) // 8
        else:
            expected_nbytes = column.values.nbytes + (
                (n + 7) // 8 if column.validity is not None else 0
            )
        assert column.nbytes == expected_nbytes


# -- DICT is lossless (both failed at 36a6943) ---------------------------------------


class TestDictLossless:
    def test_trailing_nul_survives(self):
        column = ColumnArray(STRING, np.array(["a\x00", "a"] * 16, dtype=object))
        body = encode_chunk(column)
        assert body[1] == DICT
        decoded = decode_chunk(STRING, body, 32)
        assert decoded.values.tolist() == ["a\x00", "a"] * 16
        assert ColumnStats.compute(column).ndv == 2

    def test_zero_signs_survive(self):
        column = ColumnArray(FLOAT64, np.array([-0.0, 0.0] * 16))
        body = encode_chunk(column)
        assert body[1] != DICT
        decoded = decode_chunk(FLOAT64, body, 32)
        assert np.signbit(decoded.values).tolist() == [True, False] * 16

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_one_zero_sign_still_dictionary_encodes(self, zero):
        column = ColumnArray(FLOAT64, np.array([zero, 1.5, 2.5, zero] * 8))
        body = encode_chunk(column)
        assert body[1] == DICT
        decoded = decode_chunk(FLOAT64, body, 32)
        assert decoded.values.tobytes() == column.values.tobytes()


# -- hostile input ----------------------------------------------------------------------


def _chunk(encoding_tag: int, payload: bytes, validity: bytes = b"") -> bytes:
    return (b"\x01" + validity if validity else b"\x00") + bytes([encoding_tag]) + payload


def _i32(*values: int) -> bytes:
    return np.array(values, dtype="<i4").tobytes()


HOSTILE_CHUNKS = {
    "empty body": (INT64, b"", 4),
    "header only": (INT64, b"\x00", 4),
    "validity truncated": (INT64, b"\x01\xff", 64),
    "validity then nothing": (INT64, b"\x01\xff", 8),
    "unknown encoding": (INT64, _chunk(9, b""), 0),
    "rle on strings": (STRING, _chunk(RLE, encode_varint(0)), 0),
    "rle 2**40 runs": (INT64, _chunk(RLE, encode_varint(2**40)), 2**40),
    "rle more runs than values": (INT64, _chunk(RLE, encode_varint(3) + b"\x01" * 27), 2),
    "rle runs past the body": (INT64, _chunk(RLE, encode_varint(3) + b"\x01" * 20), 3),
    "rle sums short": (INT64, _chunk(RLE, encode_varint(2) + (b"\x02" + b"\x00" * 8) * 2), 5),
    "rle sums long": (INT64, _chunk(RLE, encode_varint(2) + (b"\x7f" + b"\x00" * 8) * 2), 5),
    "rle continuation bit at stride": (
        INT64, _chunk(RLE, encode_varint(2) + (b"\x82" + b"\x00" * 8) * 2), 4,
    ),
    "rle multi-byte length overflows": (
        INT64,
        _chunk(RLE, encode_varint(2) + encode_varint(2**62) + b"\x00" * 8
               + encode_varint(2**62) + b"\x00" * 8),
        2**40,
    ),
    "rle multi-byte truncated": (
        INT64, _chunk(RLE, encode_varint(2) + encode_varint(300) + b"\x00" * 8 + b"\x01\x00"), 301,
    ),
    "rle run count varint truncated": (INT64, _chunk(RLE, b"\xff"), 4),
    "plain fixed short": (INT64, _chunk(PLAIN, b"\x00" * 31), 4),
    "plain fixed long": (INT64, _chunk(PLAIN, b"\x00" * 33), 4),
    "plain fixed huge count": (INT64, _chunk(PLAIN, b"\x00" * 8), 2**60),
    "plain string offsets short": (STRING, _chunk(PLAIN, _i32(0, 1)), 4),
    "plain string offsets decrease": (STRING, _chunk(PLAIN, _i32(0, 2, 1, 3) + b"abc"), 3),
    "plain string offsets negative": (STRING, _chunk(PLAIN, _i32(0, -1, 3) + b"abc"), 2),
    "plain string first offset nonzero": (STRING, _chunk(PLAIN, _i32(1, 2, 3) + b"abc"), 2),
    "plain string data short": (STRING, _chunk(PLAIN, _i32(0, 2, 9) + b"abc"), 2),
    "plain string data long": (STRING, _chunk(PLAIN, _i32(0, 1, 2) + b"abc"), 2),
    "plain string not utf8": (STRING, _chunk(PLAIN, _i32(0, 1, 2) + b"\xff\xfe"), 2),
    "plain string splits a character": (
        STRING, _chunk(PLAIN, _i32(0, 1, 2) + "é".encode()), 2,
    ),
    "dict size huge": (INT64, _chunk(DICT, struct.pack("<I", 2**32 - 1) + b"\x00" * 16), 2),
    "dict size truncated": (INT64, _chunk(DICT, b"\x01\x00"), 2),
    "dict indices short": (
        INT64, _chunk(DICT, struct.pack("<I", 1) + b"\x00" * 8 + b"\x00" * 7), 2,
    ),
    "dict index out of range": (
        INT64, _chunk(DICT, struct.pack("<I", 1) + b"\x00" * 8 + struct.pack("<II", 0, 1)), 2,
    ),
    "dict empty with indices": (INT64, _chunk(DICT, struct.pack("<I", 0) + b"\x00" * 8), 2),
    "dict string dictionary huge": (
        STRING, _chunk(DICT, struct.pack("<I", 2**31) + _i32(0, 1) + b"a"), 1,
    ),
}


def _codec_frame(codec_id: int, declared_size: int, body: bytes) -> bytes:
    return b"PC" + bytes([codec_id]) + encode_varint(declared_size) + b"\x00" * 4 + body


_ZSTD_FRAME = get_codec("zstd").compress(b"hostile " * 8)

#: Codec frames that made a decoder allocate what the frame declared (64 GiB,
#: before any check) or leave through ``IndexError`` (all failed at 0419518).
HOSTILE_FRAMES = {
    # One literal "a", then a match of length 2**36 at offset 1.
    "snappy match of 2**36": (
        "snappy",
        _codec_frame(1, 16, b"\x02a" + encode_varint((2**36 << 1) | 1) + b"\x01"),
    ),
    # A valid Huffman header under a token count rewritten to 2**36.
    "zstd 2**36 huffman symbols": (
        "zstd", _ZSTD_FRAME[:8] + encode_varint(2**36) + _ZSTD_FRAME[9:],
    ),
    # 256 one-bit codes: the prefix table has two slots.
    "zstd over-subscribed code lengths": (
        "zstd", _codec_frame(3, 4, encode_varint(4) + b"\x11" * 128 + b"\x00"),
    ),
    # One literal "a", then a match of 2**27 - 1 bytes: exactly the declared
    # size, so the per-token room check passes (256 MiB allocated at 9bf76aa).
    "snappy declares 2**27": (
        "snappy",
        _codec_frame(1, 2**27, b"\x02a" + encode_varint(((2**27 - 1) << 1) | 1) + b"\x01"),
    ),
    # A valid zstd frame whose declared size is rewritten to 2**27.
    "zstd declares 2**27": (
        "zstd", _ZSTD_FRAME[:3] + encode_varint(2**27) + _ZSTD_FRAME[4:],
    ),
}


def _valid_bodies():
    """One valid body per (encoding, kind): every strict prefix must fail."""
    ints = ColumnArray(INT64, np.repeat(np.arange(4, dtype=np.int64), 8))
    tags = ColumnArray(STRING, np.array(["x", "yy", "é"] * 11, dtype=object))
    nullable = ColumnArray(INT32, np.arange(20, dtype=np.int32), np.arange(20) % 3 > 0)
    long_run = ColumnArray(INT64, np.repeat(np.array([5, 6], dtype=np.int64), [300, 20]))
    for column in (ints, tags, nullable, long_run):
        yield column.dtype, encode_chunk(column), len(column)
    yield INT64, _chunk(PLAIN, ints.values.tobytes()), len(ints)
    yield INT64, _chunk(DICT, ref.encode_dict(INT64, ints.values)), len(ints)
    yield STRING, _chunk(PLAIN, ref.encode_values_plain(STRING, tags.values)), len(tags)


class TestHostileInput:
    @pytest.mark.parametrize("case", sorted(HOSTILE_CHUNKS))
    def test_chunk_decoder_fails_typed(self, case):
        dtype, body, num_values = HOSTILE_CHUNKS[case]
        with pytest.raises(ReproError) as caught:
            decode_chunk(dtype, body, num_values)
        assert caught.value.code in ("FORMAT", "CODEC")

    @pytest.mark.parametrize("case", sorted(HOSTILE_FRAMES))
    def test_codec_frame_fails_typed_without_allocating(self, case):
        codec, frame = HOSTILE_FRAMES[case]
        tracemalloc.start()
        try:
            with pytest.raises(CodecError):
                get_codec(codec).decompress(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_every_truncation_of_a_chunk_fails_typed(self):
        for dtype, body, num_values in _valid_bodies():
            decode_chunk(dtype, body, num_values)
            for cut in range(len(body)):
                with pytest.raises(ReproError):
                    decode_chunk(dtype, body[:cut], num_values)
            with pytest.raises(ReproError):
                decode_chunk(dtype, body + b"\x00", num_values)

    def test_every_truncation_of_an_ipc_stream_fails_typed(self):
        batch = RecordBatch.from_arrays(
            {
                "k": np.arange(5, dtype=np.int64),
                "s": np.array(["a", "bb", "", "é", "dd"], dtype=object),
            }
        )
        nullable = ColumnArray(FLOAT64, np.arange(5.0), np.array([1, 0, 1, 1, 0], dtype=bool))
        wire = serialize_batches([batch, batch.slice(0, 2)])
        wire_nullable = ipc._encode_column(nullable)
        assert deserialize_batches(wire)[0].equals(batch)
        for cut in range(len(wire)):
            with pytest.raises(ReproError):
                deserialize_batches(wire[:cut])
        for cut in range(len(wire_nullable)):
            with pytest.raises(ReproError):
                ipc._decode_column(wire_nullable[:cut], 0, FLOAT64, 5)

    @pytest.mark.parametrize(
        "dtype,wire,num_rows",
        [
            (INT64, b"\x00" + b"\x00" * 8, 2**60),
            (INT64, b"\x01\xff", 2**60),
            (STRING, b"\x00" + struct.pack("<Q", 3) + _i32(0, 2, 1, 3) + b"abc", 3),
            (STRING, b"\x00" + struct.pack("<Q", 2) + _i32(0, 1, 3) + b"abc", 2),
            (STRING, b"\x00" + struct.pack("<Q", 3) + _i32(0, 1, 9) + b"abc", 2),
            (STRING, b"\x00" + struct.pack("<Q", 2**62) + _i32(0, 1, 3) + b"abc", 2),
            (STRING, b"\x00" + struct.pack("<Q", 2) + _i32(0, 1, 2) + b"\xff\xfe", 2),
            (STRING, b"\x00" + struct.pack("<Q", 0) + _i32(0), 2**60),
        ],
        ids=[
            "fixed huge count", "validity huge count", "offsets decrease",
            "data_len disagrees", "offsets past data", "data_len huge",
            "not utf8", "string huge count",
        ],
    )
    def test_ipc_column_decoder_fails_typed(self, dtype, wire, num_rows):
        with pytest.raises(ReproError) as caught:
            ipc._decode_column(wire, 0, dtype, num_rows)
        assert caught.value.code == "FORMAT"


# -- selection decoders --------------------------------------------------------------


@st.composite
def _selections(draw, n: int) -> np.ndarray:
    """Ascending row positions: none, one, every row, or a random subset."""
    kind = draw(st.sampled_from(["empty", "single", "all", "random"]))
    if kind == "empty" or n == 0:
        return np.empty(0, dtype=np.int64)
    if kind == "single":
        return np.array([draw(st.integers(0, n - 1))], dtype=np.int64)
    if kind == "all":
        return np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.05, 0.3, 0.9])))


def _forced_bodies(column: ColumnArray):
    """(encoding, body) for every encoding the column can be written in."""
    dtype, values = column.dtype, column.values
    encoders = {PLAIN: ref.encode_values_plain, DICT: ref.encode_dict}
    if dtype is not STRING:
        encoders[RLE] = ref.encode_rle
    validity = pack_validity(column.validity)
    for tag, encode in encoders.items():
        yield tag, validity + bytes([tag]) + encode(dtype, values)


class TestSelection:
    """``decode_chunk(..., selection=s)`` is the full decode taken at ``s``."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_full_decode_taken_at_selection(self, data):
        column = data.draw(columns())
        n = len(column)
        selection = data.draw(_selections(n))
        bodies = [(None, encode_chunk(column)), *_forced_bodies(column)]
        for _, body in bodies:
            full = decode_chunk(column.dtype, body, n)
            picked = decode_chunk(column.dtype, body, n, selection=selection)
            assert _same_bits(picked, full.take(selection))

    @pytest.mark.parametrize(
        "dtype,encoding",
        [
            (dtype, encoding)
            for dtype in (INT64, FLOAT64, DATE32, BOOL, STRING)
            for encoding in (PLAIN, DICT, RLE)
            if not (dtype is STRING and encoding == RLE)  # RLE is fixed-width only
        ],
        ids=lambda v: {PLAIN: "plain", DICT: "dict", RLE: "rle"}.get(v, str(v)),
    )
    def test_every_encoding_and_type_with_nulls(self, dtype, encoding):
        pool = _edges(dtype)[:4]
        runs = np.repeat(np.arange(len(pool)), [37, 1, 90, 12][: len(pool)])
        values = np.empty(len(runs), dtype=object if dtype is STRING else dtype.numpy_dtype)
        for i, index in enumerate(runs):
            values[i] = pool[index]
        n = len(values)
        column = ColumnArray(dtype, values, np.arange(n) % 5 != 2)
        (body,) = [b for tag, b in _forced_bodies(column) if tag == encoding]
        assert body[0] == 1 and body[1 + (n + 7) // 8] == encoding
        full = decode_chunk(dtype, body, n)
        rng = np.random.default_rng(3)
        for selection in (
            np.empty(0, dtype=np.int64),
            np.array([n - 1]),
            np.arange(n),
            np.flatnonzero(rng.random(n) < 0.2),
        ):
            picked = decode_chunk(dtype, body, n, selection=selection)
            assert _same_bits(picked, full.take(selection))

    @pytest.mark.parametrize("case", sorted(HOSTILE_CHUNKS))
    def test_hostile_chunk_fails_typed_without_allocating(self, case):
        dtype, body, num_values = HOSTILE_CHUNKS[case]
        selection = np.array([0] if num_values else [], dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(ReproError) as caught:
                decode_chunk(dtype, body, num_values, selection=selection)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert caught.value.code in ("FORMAT", "CODEC")
        assert peak < 1 << 20

    def test_every_truncation_fails_typed(self):
        for dtype, body, num_values in _valid_bodies():
            selection = np.arange(0, num_values, 3)
            decode_chunk(dtype, body, num_values, selection=selection)
            for cut in range(len(body)):
                with pytest.raises(ReproError):
                    decode_chunk(dtype, body[:cut], num_values, selection=selection)

    def test_selection_outside_the_chunk_fails_typed(self):
        body = encode_chunk(ColumnArray(INT64, np.arange(8, dtype=np.int64)))
        for selection in ([8], [-1], [0, 9]):
            with pytest.raises(ReproError):
                decode_chunk(INT64, body, 8, selection=np.array(selection))


# -- one analysis per chunk ----------------------------------------------------------------


class _Counter:
    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.wrapped(*args, **kwargs)


class TestOneAnalysisPerChunk:
    @pytest.mark.parametrize("nullable", [False, True])
    @pytest.mark.parametrize(
        "values",
        [
            np.arange(4096, dtype=np.int64) % 7,                     # DICT
            np.repeat(np.arange(16, dtype=np.int64), 256),           # RLE
            np.random.default_rng(0).normal(size=4096),              # PLAIN
        ],
        ids=["dict", "rle", "plain"],
    )
    def test_numeric_chunk_sorts_once(self, monkeypatch, values, nullable):
        validity = np.arange(len(values)) % 5 > 0 if nullable else None
        column = ColumnArray.from_numpy(values, validity)
        counters = {name: _Counter(getattr(np, name)) for name in ("unique", "sort", "argsort")}
        for name, counter in counters.items():
            monkeypatch.setattr(np, name, counter)
        body, stats = encoding.encode_chunk_with_stats(column)
        monkeypatch.undo()
        assert sum(counter.calls for counter in counters.values()) == 1
        assert body == ref.encode_chunk(column) and stats == ref.compute_stats(column)

    @pytest.mark.parametrize("nullable", [False, True])
    @pytest.mark.parametrize(
        "values",
        [
            np.array([f"tag{i % 5}" for i in range(512)], dtype=object),   # DICT
            np.array([f"row{i}" for i in range(512)], dtype=object),       # PLAIN
        ],
        ids=["dict", "plain"],
    )
    def test_string_chunk_builds_one_set(self, monkeypatch, values, nullable):
        validity = np.arange(len(values)) % 5 > 0 if nullable else None
        column = ColumnArray(STRING, values, validity)
        make_set, sort = _Counter(set), _Counter(sorted)
        unique = _Counter(np.unique)
        monkeypatch.setattr(np, "unique", unique)
        for module in (statistics, encoding):
            # Module globals shadow the builtins for code in that module.
            monkeypatch.setattr(module, "set", make_set, raising=False)
            monkeypatch.setattr(module, "sorted", sort, raising=False)
        body, stats = encoding.encode_chunk_with_stats(column)
        monkeypatch.undo()
        assert (make_set.calls, unique.calls) == (1, 0)
        assert sort.calls <= 1
        assert body == ref.encode_chunk(column) and stats == ref.compute_stats(column)
