"""``repro.wire`` and every decoder that reads through it.

* ``Reader`` units — each primitive at the last valid offset and one past
  it, the declared-count and nesting ceilings, every bytes-like input;
* golden frames — sha256 of one frame per encoder, recorded at commit
  0419518 before any decoder was ported: the cursor changed how bytes are
  *read*, never which bytes are written;
* one hostile corpus over every ported decoder — every truncation, 300
  seeded single-byte substitutions and the forged-count / forged-depth
  frames: a decoder returns a whole object or raises its own error family,
  nothing else (``-m slow`` walks every byte value at every offset);
* no module outside the block kernels unpacks bytes by hand.
"""

import ast
import hashlib
import pathlib
import random
import tracemalloc

import numpy as np
import pytest

import repro
from repro import wire
from repro.arrowsim import (
    BOOL,
    DATE32,
    FLOAT32,
    FLOAT64,
    INT32,
    INT64,
    STRING,
    ColumnArray,
    Field,
    RecordBatch,
    Schema,
    deserialize_batches,
    serialize_batches,
)
from repro.compress.registry import get_codec
from repro.compress.szlike import compress_lossy, decompress_lossy
from repro.engine import gateway
from repro.errors import (
    CodecError,
    ExchangeError,
    FormatError,
    OcsError,
    ReproError,
    RpcError,
    SerdeError,
)
from repro.exchange.shuffle import ExchangePage, decode_page, encode_page
from repro.exec.expressions import AndExpr, ColumnExpr, CompareExpr, LiteralExpr
from repro.formats import ParcelReader, write_table
from repro.formats.metadata import decode_footer
from repro.formats.reader import meta_from_tail
from repro.ocs.embedded_engine import OcsCostReport
from repro.ocs.frontend import (
    PushdownRequest,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.substrait import (
    AggregateMeasure,
    AggregateRel,
    FetchRel,
    FilterRel,
    FunctionRegistry,
    NamedStruct,
    ProjectRel,
    ReadRel,
    SortField,
    SortRel,
    SubstraitPlan,
    deserialize_plan,
    serialize_plan,
)
from repro.substrait.expressions import (
    SCAST,
    SBloomProbe,
    SFieldRef,
    SFunctionCall,
    SInList,
    SLiteral,
)
from repro.substrait.serde import decode_expression, encode_expression
from repro.wire import MAX_DEPTH, Reader, encode_varint, put_str, put_varint

# -- Reader units -------------------------------------------------------------------


class WireError(ReproError):
    code = "TEST_WIRE"


PRIMITIVES = {
    "u8": (lambda r: r.u8(), b"\xfe", 0xFE),
    "u16": (lambda r: r.u16(), b"\x01\x02", 0x0201),
    "u32": (lambda r: r.u32(), b"\x01\x02\x03\x04", 0x04030201),
    "u64": (lambda r: r.u64(), b"\xff" * 8, 2**64 - 1),
    "i64": (lambda r: r.i64(), b"\xff" * 8, -1),
    "f64": (lambda r: r.f64(), np.float64(-2.5).tobytes(), -2.5),
    "varint": (lambda r: r.varint(), encode_varint(2**40 + 5), 2**40 + 5),
    "take": (lambda r: r.take(3), b"abc", b"abc"),
    "text(n)": (lambda r: r.text(3), "é!".encode(), "é!"),
    "text()": (lambda r: r.text(), b"\x03" + "é!".encode(), "é!"),
}


class TestReader:
    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview], ids=lambda w: w.__name__)
    def test_primitive_at_the_last_valid_offset_and_one_past(self, name, wrap):
        read, encoded, value = PRIMITIVES[name]
        # The value sits flush against the end of the buffer...
        r = Reader(wrap(b"\x00\x00" + encoded), WireError, pos=2)
        assert read(r) == value
        assert r.pos == r.end and r.remaining == 0
        r.done()
        # ...and one byte short of it, every failure is the caller's class.
        short = Reader(wrap(b"\x00\x00" + encoded[:-1]), WireError, pos=2)
        with pytest.raises(WireError):
            read(short)
        assert short.pos == 2 or name == "text()"  # a failed read consumes nothing

    def test_put_helpers_mirror_the_reader(self):
        out = bytearray()
        for value in (0, 1, 127, 128, 300, 2**63 - 1):
            put_varint(out, value)
        put_str(out, "naïve")
        r = Reader(out, WireError)
        assert [r.varint() for _ in range(6)] == [0, 1, 127, 128, 300, 2**63 - 1]
        assert r.text() == "naïve"
        r.done()
        with pytest.raises(CodecError):
            put_varint(out, -1)

    def test_varint_longer_than_ten_bytes_is_refused(self):
        assert Reader(b"\xff" * 9 + b"\x01", WireError).varint() == 2**63 + (2**63 - 1)
        for forged in (b"\xff" * 10 + b"\x01", b"\x80" * 64):
            with pytest.raises(WireError, match="varint"):
                Reader(forged, WireError).varint()

    def test_bad_utf8_and_negative_lengths(self):
        with pytest.raises(WireError, match="UTF-8"):
            Reader(b"\xff\xfe", WireError).text(2)
        with pytest.raises(WireError):
            Reader(b"abc", WireError).take(-1)

    def test_magic_and_trailing_bytes(self):
        r = Reader(b"MGab", WireError)
        r.expect(b"MG", "test")
        for wrong in (b"MGab", b"Mx", b"M"):
            with pytest.raises(WireError):
                Reader(wrong, WireError, pos=1).expect(b"MG", "test")
        r.u8()
        with pytest.raises(WireError, match="1 trailing"):
            r.done()

    def test_count_refuses_what_the_frame_cannot_hold(self):
        frame = encode_varint(4) + b"\x00" * 12
        assert Reader(frame, WireError).count(3) == 4
        with pytest.raises(WireError, match="declares 4 elements"):
            Reader(frame, WireError).count(4)
        # A count read at another width goes through the same test.
        assert Reader(b"\x00" * 8, WireError).count(2, declared=4) == 4
        with pytest.raises(WireError):
            Reader(b"\x00" * 8, WireError).count(2, declared=5)
        # 2**62 declared elements: refused by arithmetic, nothing allocated.
        with pytest.raises(WireError):
            Reader(encode_varint(2**62) + b"\x00" * 16, WireError).count(1)

    def test_nested_at_and_over_the_ceiling(self):
        def descend(r, levels):
            with r.nested():
                if levels > 1:
                    descend(r, levels - 1)

        r = Reader(b"", WireError)
        descend(r, MAX_DEPTH)
        assert r.depth == 0
        with pytest.raises(WireError, match="nested deeper"):
            descend(r, MAX_DEPTH + 1)

    def test_compress_reexports_the_same_varint_objects(self):
        from repro.compress import codec

        assert codec.encode_varint is wire.encode_varint
        assert codec.decode_varint is wire.decode_varint


# -- golden frames ------------------------------------------------------------------


def all_types_batch(rows: int = 48) -> RecordBatch:
    """Every logical type, with NULLs, NaN and non-ASCII text."""
    i = np.arange(rows)
    schema = Schema(
        [
            Field("flag", BOOL),
            Field("i32", INT32, nullable=False),
            Field("i64", INT64),
            Field("f32", FLOAT32),
            Field("f64", FLOAT64),
            Field("day", DATE32),
            Field("tag", STRING),
            Field("nul", FLOAT64),
        ]
    )
    tags = [("é" if k % 9 == 0 else "t") + str(k % 5) for k in i]
    columns = [
        ColumnArray(BOOL, i % 3 == 0),
        ColumnArray(INT32, (i * 7 - 100).astype(np.int32)),
        ColumnArray(INT64, (i // 6).astype(np.int64) * 2**40, i % 5 > 0),
        ColumnArray(FLOAT32, (i * 0.5).astype(np.float32)),
        ColumnArray(FLOAT64, np.where(i % 7 == 0, np.nan, i * 0.25 - 3.0)),
        ColumnArray(DATE32, (9000 + i % 4).astype(np.int32)),
        ColumnArray(STRING, np.array(tags, dtype=object), i % 4 > 0),
        ColumnArray(FLOAT64, np.zeros(rows), np.zeros(rows, dtype=bool)),
    ]
    return RecordBatch(schema, columns)


def parcel_file() -> bytes:
    return write_table([all_types_batch()], codec="snappy", row_group_rows=16)


def expression(registry=None):
    """Every expression node and every literal type."""
    registry = registry if registry is not None else FunctionRegistry()
    gt = registry.anchor_for("gt", [FLOAT64, FLOAT64])
    both = registry.anchor_for("and", [BOOL, BOOL])
    return SFunctionCall(
        both,
        (
            SFunctionCall(
                gt, (SCAST(SFieldRef(1, INT32), FLOAT64), SLiteral(-2.5, FLOAT64)), BOOL
            ),
            SInList(SFieldRef(6, STRING), ("t1", "é0", None), STRING, negated=True),
            SInList(SFieldRef(2, INT64), (3, -(2**40)), INT64),
            SBloomProbe(SFieldRef(2, INT64), bytes(range(16)), 128, 3),
            SLiteral(True, BOOL),
            SFunctionCall(gt, (SLiteral(None, FLOAT64), SLiteral(9131, DATE32)), BOOL),
        ),
        BOOL,
    )


def plan() -> SubstraitPlan:
    """All six relations over the all-types schema."""
    registry = FunctionRegistry()
    condition = expression(registry)
    total = registry.anchor_for("sum", [FLOAT64])
    count = registry.anchor_for("count", [])
    base = NamedStruct.from_schema(all_types_batch(1).schema)
    read = ReadRel("hpc.all_types", base, (0, 1, 2, 4, 6), best_effort_filter=condition)
    project = ProjectRel(
        FilterRel(read, condition),
        (SFieldRef(4, STRING), SCAST(SFieldRef(1, INT32), FLOAT64), SFieldRef(3, FLOAT64)),
    )
    aggregate = AggregateRel(
        project,
        grouping=(0,),
        measures=(
            AggregateMeasure(total, "sum", (SFieldRef(1, FLOAT64),), FLOAT64),
            AggregateMeasure(count, "count", (), INT64, distinct=True, phase="partial"),
        ),
    )
    root = FetchRel(SortRel(aggregate, (SortField(1, True), SortField(0))), 2, 10)
    return SubstraitPlan(root=root, registry=registry, root_names=["tag", "total", "n"])


def golden_frames() -> dict:
    data = parcel_file()
    footer_len = int.from_bytes(data[-8:-4], "little")
    day = ColumnExpr("day", DATE32)
    predicate = AndExpr(
        (
            CompareExpr(">=", day, LiteralExpr(9001, DATE32)),
            CompareExpr("<", ColumnExpr("f64", FLOAT64), LiteralExpr(4.5, FLOAT64)),
        )
    )
    columns = ["day", "f64", "tag"]
    report = OcsCostReport(
        stored_bytes_read=12345, uncompressed_bytes=2**33, rows_scanned=48,
        rows_returned=5, row_groups_pruned=1, row_groups_read=2,
        dynamic_rows_pruned=7, compute_cycles=1.5e9, page_cache_hits=1,
    )
    return {
        "footer": data[len(data) - 8 - footer_len : len(data) - 8],
        "plan": serialize_plan(plan()),
        "expression": encode_expression(expression()),
        "ocs_request": encode_request(
            PushdownRequest(serialize_plan(plan()), "data", ("hpc/all/0", "hpc/all/é"), 3)
        ),
        "ocs_response": encode_response(serialize_batches([all_types_batch(5)]), report),
        "tail_request": gateway.encode_tail_request("data", "hpc/all/0", 2**16),
        "ranges_request": gateway.encode_ranges_request(
            "data", "hpc/all/é", [(4, 300), (2**20, 17)]
        ),
        "select_request": gateway.encode_select_request(
            "data", "hpc/all/0", columns[1:], columns, predicate
        ),
        "select_reply": gateway.encode_select_reply(
            gateway.SelectReply(b"9001,1.5,t1\n" * 3, 48, 3, 999, 2048)
        ),
        "exchange_page": encode_page(
            ExchangePage(7, 2, 300, 5, serialize_batches([all_types_batch(5)]))
        ),
    }


#: name -> (length, sha256) at commit 0419518.  Regenerate only for a
#: deliberate wire-format change.
GOLDEN = {
    "footer": (773, "eac992f8a3243e4618114e815a155b1ea1ccf8a427102bfbd2d43e35cf511f62"),
    "plan": (540, "4f2cffa6f2fa39ac1b926ce38f7aa3a4dd08c63e7b63922977038454db09ef2b"),
    "expression": (125, "2afc7d1211752764518149ebcdc532fab05a01760f5f86c367719358842979b6"),
    "ocs_request": (574, "2e648048fed80ee46f9fe13fa08f56b9c12803910880322b2d0cef5d8ef77356"),
    "ocs_response": (342, "945c05de53a51e03150d021b5e62b4e8d7ed5d7edf8ead28c39b4651a1e2e895"),
    "tail_request": (18, "659f6a87858f589ba2384998f0f7ce6e8664d73748e9543546d0b64a68f19b8d"),
    "ranges_request": (24, "f71e8f8075a8240591a7468406f7e9d2e652e023befa503c5b96f7b12aa56518"),
    "select_request": (184, "65712ad8adf15562920dc11099ead94e89867b9aab38754a0aa1031d69509fc3"),
    "select_reply": (43, "507e9308a7cc7650d93bd0d3f1e1bfd36d33e9d3ba73da8851ce97e666167749"),
    "exchange_page": (329, "6d38199e0e9ade01820459733566b1108101fed0548a4dc95b18009bbdbd6e1d"),
}


@pytest.fixture(scope="module")
def frames():
    return golden_frames()


class TestGoldenFrames:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_frame_is_byte_identical(self, frames, name):
        frame = frames[name]
        assert (len(frame), hashlib.sha256(frame).hexdigest()) == GOLDEN[name]

    def test_frames_decode_back_to_what_was_encoded(self, frames):
        assert deserialize_plan(frames["plan"]).root == plan().root
        assert decode_expression(frames["expression"]) == expression()
        request = decode_request(frames["ocs_request"])
        assert (request.bucket, request.keys, request.node_index) == (
            "data", ("hpc/all/0", "hpc/all/é"), 3,
        )
        arrow, report = decode_response(frames["ocs_response"])
        assert deserialize_batches(arrow)[0].num_rows == 5
        assert (report.uncompressed_bytes, report.compute_cycles) == (2**33, 1.5e9)
        assert gateway.decode_tail_request(frames["tail_request"]) == (
            "data", "hpc/all/0", 2**16,
        )
        assert gateway.decode_ranges_request(frames["ranges_request"]) == (
            "data", "hpc/all/é", [(4, 300), (2**20, 17)],
        )
        bucket, key, columns, table_columns, sexpr, registry = (
            gateway.decode_select_request(frames["select_request"])
        )
        assert (bucket, key, columns) == ("data", "hpc/all/0", ["f64", "tag"])
        assert table_columns == ["day", "f64", "tag"] and len(registry) == 3
        assert sexpr.node_count() == 7
        assert gateway.decode_select_reply(frames["select_reply"]).rows_returned == 3
        page = decode_page(frames["exchange_page"])
        assert (page.exchange_id, page.partition, page.sender, page.seq) == (7, 2, 300, 5)
        meta = decode_footer(frames["footer"])
        assert meta.num_rows == 48 and len(meta.row_groups) == 3
        assert meta.column_stats("tag").max_value == "é4"


# -- the hostile corpus ---------------------------------------------------------------


def _codec_frame(name: str) -> bytes:
    return get_codec(name).compress(serialize_batches([all_types_batch(40)])[:420])


def _lossy_frame() -> bytes:
    values = np.linspace(-3.0, 7.0, 40)
    values[[5, 17]] = [np.nan, np.inf]
    return compress_lossy(values, error_bound=0.01)


#: decoder -> (callable, a valid input for it, the only error family it may raise)
DECODERS = {
    "decode_footer": (decode_footer, lambda f: f["footer"], FormatError),
    "meta_from_tail": (
        meta_from_tail, lambda f: parcel_file()[-(len(f["footer"]) + 8):], FormatError,
    ),
    # Reading the row groups too: chunk frames are the codecs' boundary.
    "ParcelReader": (
        lambda buf: ParcelReader(buf).read_table(), lambda f: parcel_file(),
        (FormatError, CodecError),
    ),
    "deserialize_batches": (
        deserialize_batches,
        lambda f: serialize_batches([all_types_batch(), all_types_batch(5)]),
        FormatError,
    ),
    "deserialize_plan": (deserialize_plan, lambda f: f["plan"], SerdeError),
    "decode_expression": (decode_expression, lambda f: f["expression"], SerdeError),
    "ocs.decode_request": (decode_request, lambda f: f["ocs_request"], OcsError),
    "ocs.decode_response": (decode_response, lambda f: f["ocs_response"], OcsError),
    "gateway.decode_tail_request": (
        gateway.decode_tail_request, lambda f: f["tail_request"], RpcError,
    ),
    "gateway.decode_ranges_request": (
        gateway.decode_ranges_request, lambda f: f["ranges_request"], RpcError,
    ),
    "gateway.decode_select_request": (
        gateway.decode_select_request, lambda f: f["select_request"], RpcError,
    ),
    "gateway.decode_select_reply": (
        gateway.decode_select_reply, lambda f: f["select_reply"], RpcError,
    ),
    "decode_page": (decode_page, lambda f: f["exchange_page"], ExchangeError),
    **{
        f"{name}.decompress": (
            get_codec(name).decompress, lambda f, name=name: _codec_frame(name), CodecError,
        )
        for name in ("none", "snappy", "gzip", "zstd")
    },
    "szlike.decompress_lossy": (decompress_lossy, lambda f: _lossy_frame(), CodecError),
}


def _decode_or_fail_in_family(name, decode, family, data):
    """A whole object or the decoder's own error — never anything else."""
    try:
        decode(data)
    except family:
        pass
    except Exception as exc:  # noqa: BLE001 - the assertion message is the point
        pytest.fail(f"{name} raised {type(exc).__name__}: {exc!r} on {bytes(data)!r}")


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_every_truncation_and_300_substitutions_fail_in_family(frames, name):
    decode, build, family = DECODERS[name]
    frame = build(frames)
    decode(frame)
    for cut in range(len(frame)):
        with pytest.raises(family):
            decode(frame[:cut])
    rng = random.Random(0)
    for _ in range(300):
        mutated = bytearray(frame)
        mutated[rng.randrange(len(frame))] = rng.randrange(256)
        _decode_or_fail_in_family(name, decode, family, bytes(mutated))


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(DECODERS))
def test_every_byte_value_at_every_offset_fails_in_family(frames, name):
    decode, build, family = DECODERS[name]
    frame = build(frames)
    # A Parcel file's chunk bodies are the codec frames walked on their own
    # below; the file-level walk covers the magics and the whole footer.
    offsets = range(len(frame))
    if name == "ParcelReader":
        tail = len(frames["footer"]) + 8
        offsets = [*range(4), *range(len(frame) - tail, len(frame))]
    mutated = bytearray(frame)
    for offset in offsets:
        for value in range(256):
            if value != frame[offset]:
                mutated[offset] = value
                _decode_or_fail_in_family(name, decode, family, bytes(mutated))
        mutated[offset] = frame[offset]


def _nested_casts(levels: int) -> bytes:
    return bytes([4]) * levels + bytes([1, 0, INT64.code]) + bytes([FLOAT64.code]) * levels


def _forged_plan(root: bytes) -> bytes:
    return b"SBP1\x00\x01" + encode_varint(0) + encode_varint(0) + root


_HUGE = encode_varint(2**40)

#: Frames whose *declared* size or depth is the attack: (decoder, bytes).
FORGED = {
    "footer row-group count": ("decode_footer", b"\x00\x00" + _HUGE),
    "footer schema width": ("decode_footer", b"\xff\xff" + b"\x00" * 64),
    "ipc batch count": ("deserialize_batches", b"ARS1\xff\xff\xff\xff" + b"ARB1" + b"\x00" * 10),
    "ipc row count": (
        "deserialize_batches",
        b"ARS1\x01\x00\x00\x00ARB1\x01\x00\x01\x00k" + bytes([INT64.code, 0])
        + (2**60).to_bytes(8, "little") + b"\x00" * 32,
    ),
    "plan declarations": ("deserialize_plan", b"SBP1\x00\x01" + _HUGE + b"\x01\x00" * 8),
    "plan root names": ("deserialize_plan", b"SBP1\x00\x01\x00" + _HUGE + b"\x00" * 16),
    "plan projection": (
        "deserialize_plan", _forged_plan(b"\x01\x01t\x00" + _HUGE + b"\x00" * 16),
    ),
    "plan 1000 nested filters": ("deserialize_plan", _forged_plan(b"\x02" * 1000)),
    "plan 1000 nested casts": (
        "deserialize_plan", _forged_plan(b"\x03\x01\x01t\x00\x00\x00\x01" + _nested_casts(1000)),
    ),
    "expression 1000 nested casts": ("decode_expression", _nested_casts(1000)),
    "expression 100000 nested casts": ("decode_expression", _nested_casts(100_000)),
    "expression in-list count": (
        "decode_expression", b"\x05\x01\x00\x03\x03" + _HUGE + b"\x00" * 16,
    ),
    "expression bloom bits": (
        "decode_expression", b"\x06\x01\x00\x03\x08\x01" + _HUGE + b"\x00" * 16,
    ),
    "ocs plan length": ("ocs.decode_request", b"OCRQ" + _HUGE + b"tiny"),
    "ocs key count": ("ocs.decode_request", b"OCRQ\x00\x00" + _HUGE + b"\x00" * 16),
    "ocs arrow length": ("ocs.decode_response", b"OCRS" + _HUGE + b"\x00" * 16),
    "ranges count": ("gateway.decode_ranges_request", b"\x01b\x01k" + _HUGE + b"\x00" * 16),
    "select column count": (
        "gateway.decode_select_request", b"\x01b\x01k" + _HUGE + b"\x00" * 16,
    ),
    "select nested casts": (
        "gateway.decode_select_request",
        b"\x01b\x01k\x00\x00\x01\x00" + encode_varint(2003) + _nested_casts(1000),
    ),
    "select reply length": ("gateway.decode_select_reply", _HUGE + b"\x00" * 16),
    "page body length": ("decode_page", b"EXPG\x00\x00\x00\x00" + _HUGE + b"\x00" * 16),
}


@pytest.mark.parametrize("case", sorted(FORGED))
def test_forged_count_or_depth_is_refused_before_it_costs_anything(case):
    name, data = FORGED[case]
    decode, _, family = DECODERS[name]
    tracemalloc.start()
    try:
        with pytest.raises(family):
            decode(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_deepest_accepted_expression_survives_the_next_stages():
    # One level under the ceiling decodes, and what it decodes to can be
    # re-encoded, counted and validated without leaving the stack.
    deepest = decode_expression(_nested_casts(MAX_DEPTH - 1))
    assert encode_expression(deepest) == _nested_casts(MAX_DEPTH - 1)
    assert deepest.node_count() == MAX_DEPTH
    with pytest.raises(SerdeError, match="nested deeper"):
        decode_expression(_nested_casts(MAX_DEPTH))


# -- no hand-unpacked bytes outside the block kernels ------------------------------------


def test_no_private_cursor_helpers_and_no_struct_unpack_outside_the_kernels():
    root = pathlib.Path(repro.__file__).parent
    kernels = {"wire.py", "arrowsim/buffers.py", "formats/encoding.py"}
    banned = {"_read_str", "_write_str", "_take", "_unpack", "_read_varint", "_decode_schema"}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name not in banned, f"{relative}: def {node.name}"
            unpacks = isinstance(node, ast.Attribute) and node.attr in ("unpack", "unpack_from")
            if unpacks and relative not in kernels and not relative.startswith("compress/"):
                pytest.fail(f"{relative}:{node.lineno}: struct.{node.attr}")
