"""Shared LZ77 core: match finding, token emission, token expansion.

Token stream grammar (all integers are LEB128 varints)::

    token   := literal | match
    literal := varint(run << 1)        run raw bytes follow
    match   := varint((len << 1) | 1)  varint(offset)

Offsets are back-distances (1 = previous byte); ``len`` may exceed
``offset``, which encodes a repeating pattern (classic LZ77 overlap), and
never exceeds :data:`MAX_MATCH`.

The compressor is a greedy hash-chain matcher in the Snappy family, and
its output is defined by a per-position scan (kept verbatim in
``tests/scalar_reference.py``, the referee of every byte this module
writes): at each visited position hash the next 4 bytes, walk the chain of
earlier *inserted* positions with that hash (newest first, at most
``max_chain`` of them, none further back than ``window``; stop at a
candidate of 512 bytes), keep the first longest match, insert the
position.  A match of ``len`` bytes inserts its interior at stride
``max(1, len // 16)`` and the scan resumes after it; after 64 misses in a
row the stride grows by one every 64 misses, and skipped positions are not
inserted either.

The scan runs as whole-block numpy kernels instead:

1. *Answers.*  A stable sort by hash links every position to its previous
   same-hash position, so a slab of :data:`SLAB` positions finds all its
   chain candidates at once.  Their common-prefix lengths come from XORed
   8-byte words up to :data:`_PREFIX_CAP` bytes, and the pick is the
   scan's rule.  That is each position's answer *as if every earlier
   position had been inserted*; one that reaches the cap is left to the
   scalar chain rule.
2. *Path.*  The greedy parse through those answers is a path in which
   every position points at the next position visited; pointer doubling
   lists it in ``log2`` numpy steps.  It is cut where the walk must decide
   by itself: a capped answer, a match of 32 bytes or more (its interior is
   not all inserted), a gap of 64 misses.
3. *Walk.*  A Python loop takes the path a run at a time and steps by
   itself only at the cuts and wherever the path does not apply.  The
   answers assume every earlier position was inserted; a position's answer
   is the scan's unless a candidate it used was not, i.e. unless its hash
   has a non-inserted position newer than its oldest candidate.  Such
   positions are rare (they lie in long-match interiors and skipped
   stretches); the walk finds them with one vectorised check per run and
   re-walks them by the scalar chain rule.  Skip-mode visits are taken in
   bulk the same way, up to the first one that matches or lost a
   candidate.
4. *Emission.*  Varints and literal runs are scattered into the output in
   one pass.

Expansion reads a varint at every offset of the token stream, lists the
tokens by the same pointer doubling, checks each in stream order (the
first failing one is re-read in Python for its exact error), and refuses
a declared size the tokens cannot produce before any output-sized buffer
exists.  Each output byte is then resolved to the literal byte it copies,
again by pointer doubling: no Python step per byte, overlapping matches
included.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compress.codec import decode_varint
from repro.errors import CodecError

__all__ = ["MAX_MATCH", "compress_tokens", "decompress_tokens"]

#: Longest match the encoder emits and the decoder accepts.
MAX_MATCH = 65535
#: Positions whose candidates the encoder scores in one vectorised pass;
#: bounds the kernel's working memory independently of the input size.
SLAB = 4096

_HASH_BITS = 15
_HASH_MULT = np.uint32(0x9E3779B1)
#: Common-prefix bytes scored by XORed words.  A visited position with a
#: candidate this long is re-walked by the scalar chain rule; it usually
#: starts a match of 32+ bytes, which is a cut of the path anyway.
_PREFIX_CAP = 32
#: A candidate at least this long ends the chain walk.
_GOOD_ENOUGH = 512
#: One (at, length, offset) match row.
_ROW = struct.Struct("<qqq")
#: Skip-mode visits taken in one vectorised step.
_SKIP_RUN = 256
#: Stands for a varint over 10 bytes long or too large for 64 bits; no
#: valid token holds one.
_HUGE = np.uint64(2**64 - 1)


def _position_hashes(data: bytes) -> np.ndarray:
    """4-byte Fibonacci hash at every position 0..n-4, vectorized."""
    words = np.ndarray((len(data) - 3,), dtype="<u4", buffer=data, strides=(1,))
    return ((words * _HASH_MULT) >> np.uint32(32 - _HASH_BITS)).astype(np.uint16)


def _match_length(data: bytes, a: int, b: int, max_len: int) -> int:
    """Length of the common prefix of data[a:] and data[b:], capped."""
    length = 0
    if max_len >= 8:
        # Most candidates differ within a word.
        x = int.from_bytes(data[a : a + 8], "little") ^ int.from_bytes(data[b : b + 8], "little")
        if x:
            return ((x & -x).bit_length() - 1) >> 3
        length = 8
    while (
        length + 64 <= max_len
        and data[a + length : a + length + 64] == data[b + length : b + length + 64]
    ):
        length += 64
    while length + 8 <= max_len:
        x = int.from_bytes(data[a + length : a + length + 8], "little") ^ int.from_bytes(
            data[b + length : b + length + 8], "little"
        )
        if x:
            return length + (((x & -x).bit_length() - 1) >> 3)
        length += 8
    while length < max_len and data[a + length] == data[b + length]:
        length += 1
    return length


def _first_difference(x: np.ndarray) -> np.ndarray:
    """Index of the lowest non-zero byte of each non-zero little-endian word."""
    return np.bitwise_count(~x & (x - np.uint64(1))) >> 3


def _common_prefix(words: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Common-prefix lengths of data[a:] and data[b:], up to _PREFIX_CAP,
    one 8-byte word at a time (pairs still equal move on to the next)."""
    x = words.take(a) ^ words.take(b)
    lengths = _first_difference(x)
    live = np.flatnonzero(x == 0)
    lengths[live] = _PREFIX_CAP
    for word in range(8, _PREFIX_CAP, 8):
        if not len(live):
            break
        x = words.take(a[live] + word) ^ words.take(b[live] + word)
        hit = x != 0
        lengths[live[hit]] = word + _first_difference(x[hit])
        live = live[~hit]
    return lengths


class _Matcher:
    """The hash chains of one block and every position's vectorised answer."""

    def __init__(self, data: bytes, window: int, max_chain: int) -> None:
        n = len(data)
        self.data = data
        self.n = n
        self.window = window
        self.max_chain = max_chain
        self.hashes = _position_hashes(data)
        # A stable sort of 16-bit keys is a radix sort; neighbours in it with
        # the same hash are each other's chain links.
        order = np.argsort(self.hashes, kind="stable")
        same = self.hashes[order[1:]] == self.hashes[order[:-1]]
        #: ``prev[p]``: the newest earlier position with p's hash, else -1
        #: (as is ``prev[-1]``, so a chain can be followed past its end).
        #: One buffer, read by the scalar walk as ``chain`` and by numpy as
        #: ``prev``.
        links = bytearray(4 * (len(order) + 1))
        self.chain = memoryview(links).cast("i")
        self.prev = np.frombuffer(links, dtype=np.int32)
        self.prev[:] = -1
        self.prev[order[1:][same]] = order[:-1][same]
        del order, same
        # Every position's answer as if every earlier position were inserted:
        # the best match (lengths below the cap are exact), whether a
        # candidate reached the cap (only the scalar walk knows that answer)
        # and the oldest candidate the pick looked at.
        count = n - 3
        self.length = np.empty(count, dtype=np.uint8)
        self.offset = np.empty(count, dtype=np.int32)
        self.capped = np.zeros(count, dtype=bool)
        self.oldest = np.empty(count, dtype=np.int32)
        # The 8 bytes starting at every offset, as one little-endian word.
        padded = data + bytes(_PREFIX_CAP + 8)
        words = np.ndarray((n + _PREFIX_CAP,), dtype="<u8", buffer=padded, strides=(1,)).copy()
        for start in range(0, count, SLAB):
            self._score(words, start, min(start + SLAB, count))

    def _score(self, words: np.ndarray, start: int, stop: int) -> None:
        """Fill in the answers for positions ``start..stop-1``."""
        pos = np.arange(start, stop)
        lower = np.maximum(pos - self.window, 0)
        # Bytes left from each position, where fewer than the cap.
        room = np.minimum(self.n - pos, _PREFIX_CAP + 1).astype(np.uint8)
        # The newest candidate first.  Chains run newest to oldest, so a
        # position whose newest candidate is missing or out of the window
        # has none; one whose newest candidate reaches the cap is the scalar
        # walk's to settle, so its older candidates need no scoring.
        newest = self.prev[start:stop].astype(np.intp)
        length = np.zeros(stop - start, dtype=np.uint8)
        j = np.flatnonzero(newest >= lower)
        found = _common_prefix(words, newest[j], pos[j])
        length[j] = np.minimum(found, room[j])
        capped = np.zeros(stop - start, dtype=bool)
        capped[j] = (found == _PREFIX_CAP) & (room[j] > _PREFIX_CAP)
        offset = pos - newest
        oldest = np.where(newest >= lower, newest, np.iinfo(np.int32).max)
        rows = j[~capped[j]]
        if self.max_chain > 1 and len(rows):
            # cand[k, r]: the (k+1)-th newest candidate of position rows[r].
            cand = np.empty((self.max_chain, len(rows)), dtype=np.intp)
            cand[0] = newest[rows]
            for k in range(1, self.max_chain):
                cand[k] = self.prev.take(cand[k - 1])
            valid = cand >= lower[rows]
            lengths = np.zeros(cand.shape, dtype=np.uint8)
            lengths[0] = length[rows]
            pairs = np.flatnonzero(valid[1:])
            r = pairs % len(rows)
            found = _common_prefix(words, cand[1:].take(pairs), rows.take(r) + start)
            lengths[1:].ravel()[pairs] = np.minimum(found, room.take(rows.take(r)))
            capped[rows.take(r[(found == _PREFIX_CAP) & (room.take(rows.take(r)) > _PREFIX_CAP)])] = True
            # The scan's pick: the first strict maximum (no candidate reaches
            # 512 below the cap, so the chain runs to its end or the
            # window's), as the largest of (length, newness) packed into
            # one integer.
            bits = (self.max_chain - 1).bit_length()
            newness = np.arange(self.max_chain - 1, -1, -1, dtype=np.int32)[:, None]
            key = (lengths.astype(np.int32) << bits | newness).max(axis=0)
            best = self.max_chain - 1 - (key & ((1 << bits) - 1))
            columns = np.arange(len(rows))
            length[rows] = key >> bits
            offset[rows] = rows + start - cand[best, columns]
            oldest[rows] = cand[valid.sum(axis=0) - 1, columns]
        self.capped[start:stop] = capped
        self.length[start:stop] = length
        self.offset[start:stop] = offset
        self.oldest[start:stop] = oldest

    def rewalk(self, i: int, excluded: bytearray) -> tuple[int, int]:
        """The scalar chain rule at ``i``, skipping positions not inserted."""
        data = self.data
        prev = self.chain
        max_len = min(MAX_MATCH, self.n - i)
        best_len = 0
        best_off = 0
        chain = self.max_chain
        candidate = prev[i]
        while candidate >= 0 and chain > 0 and i - candidate <= self.window:
            if excluded[candidate]:
                candidate = prev[candidate]
                continue
            length = _match_length(data, candidate, i, max_len)
            if length > best_len:
                best_len = length
                best_off = i - candidate
                if length >= _GOOD_ENOUGH:
                    break
            candidate = prev[candidate]
            chain -= 1
        return best_len, best_off


def _put_varints(out: np.ndarray, at: np.ndarray, values: np.ndarray, sizes: np.ndarray) -> None:
    """Write ``values`` as LEB128 varints of ``sizes`` bytes starting at ``at``."""
    for k in range(int(sizes.max(initial=0))):
        more = sizes > k
        byte = (values[more] >> (7 * k)) & 0x7F
        byte[sizes[more] > k + 1] |= 0x80
        out[at[more] + k] = byte


def _varint_sizes(values: np.ndarray) -> np.ndarray:
    """Bytes of each value's LEB128 varint (values below 2**63)."""
    sizes = np.ones(len(values), dtype=np.int64)
    for k in range(1, 9):
        sizes += values >= 1 << (7 * k)
    return sizes


def _emit_tokens(data: bytes, matches: np.ndarray) -> bytes:
    """The token stream for ``matches`` rows (at, length, offset), in order,
    with literal runs between them."""
    n = len(data)
    at, length, offset = matches.T
    # Literal run t ends where match t starts (the last one at the end).
    lit_start = np.concatenate(([0], at + length))
    lit_len = np.concatenate((at, [n])) - lit_start
    lit_tag = lit_len << 1
    lit_tag_size = _varint_sizes(lit_tag) * (lit_len > 0)
    match_tag = length << 1 | 1
    match_tag_size = _varint_sizes(match_tag)
    offset_size = _varint_sizes(offset)
    # Token t: [literal tag][literal bytes][match tag][offset] (the last one
    # has no match; an empty literal has no tag).
    pieces = np.zeros((len(lit_len), 4), dtype=np.int64)
    pieces[:, 0] = lit_tag_size
    pieces[:, 1] = lit_len
    pieces[:-1, 2] = match_tag_size
    pieces[:-1, 3] = offset_size
    flat = pieces.ravel()
    starts = (np.cumsum(flat) - flat).reshape(-1, 4)
    out = np.empty(int(flat.sum()), dtype=np.uint8)
    _put_varints(out, starts[:, 0], lit_tag, lit_tag_size)
    _put_varints(out, starts[:-1, 2], match_tag, match_tag_size)
    _put_varints(out, starts[:-1, 3], offset, offset_size)
    # Literal bytes keep their order: input positions outside every match
    # land, in turn, on the output positions of the literal pieces.
    in_literal = np.repeat(
        np.tile([True, False], len(lit_len)),
        np.column_stack((lit_len, np.append(length, 0))).ravel(),
    )
    out_literal = np.repeat(np.tile([False, True, False, False], len(lit_len)), flat)
    out[out_literal] = np.frombuffer(data, dtype=np.uint8)[in_literal]
    return out.tobytes()


def _greedy_path(start: int, succ: np.ndarray) -> np.ndarray:
    """``start, succ[start], succ[succ[start]], ...`` up to the sentinel
    ``len(succ) - 1`` (where ``succ`` maps to itself), by pointer doubling:
    with ``jump`` = succ applied 2**k times, the first 2**k path nodes plus
    their images under ``jump`` are the first 2**(k+1), still in order."""
    sentinel = len(succ) - 1
    path = np.array([start], dtype=succ.dtype)
    jump = succ
    while True:
        path = np.concatenate((path, jump.take(path)))
        if path[-1] == sentinel:
            return path[: np.searchsorted(path, sentinel)]
        jump = jump.take(jump)


def compress_tokens(
    data: bytes,
    *,
    window: int,
    min_match: int = 4,
    max_chain: int = 1,
    skip_accel: bool = True,
) -> bytes:
    """Tokenize ``data``; ``max_chain`` > 1 searches harder for longer matches."""
    if len(data) < 16:
        return _emit_tokens(data, np.zeros((0, 3), dtype=np.int64))
    return _emit_tokens(data, _greedy_matches(data, window, min_match, max_chain, skip_accel))


def _greedy_matches(
    data: bytes, window: int, min_match: int, max_chain: int, skip_accel: bool
) -> np.ndarray:
    """The scan's matches as (at, length, offset) rows, in order."""
    n = len(data)
    m = _Matcher(data, window, max_chain)
    count = n - 3  # positions with a hash: 0 .. n-4
    capped = m.capped
    length = m.length
    oldest = m.oldest
    hashes = m.hashes

    # The greedy path through the vectorised answers, cut where the walk
    # must decide by itself: a capped answer, a long match (it excludes
    # positions), a gap of 64 misses (skipping starts), the path's end.
    matched = length >= min_match
    stop = matched | capped
    stops = stop.tobytes()
    # nearest[p]: the first stop at or after p (``count`` if none).
    nearest = np.full(count + 1, count, dtype=np.int32)
    nearest[:count][stop] = np.flatnonzero(stop)
    del stop
    np.minimum.accumulate(nearest[::-1], out=nearest[::-1])
    ends = np.arange(count, dtype=np.int32)
    ends += np.where(matched, length, np.uint8(1))
    np.minimum(ends, count, out=ends)
    succ = nearest
    succ[:count] = nearest[ends]
    del nearest, ends
    # Position 0 has no candidates: the path starts at the first stop.
    path = _greedy_path(int(succ[0]), succ).astype(np.intp)
    del succ
    path_end = path + np.where(matched[path], length[path], np.uint8(1))
    next_node = np.append(path[1:], count)
    del matched
    cut = capped[path] | (length[path] >= 32)
    if skip_accel:
        cut |= next_node - path_end >= 64
    if len(path):
        cut[-1] = True
    cut_at = np.where(cut, np.arange(len(path)), len(path))
    cut_at = np.minimum.accumulate(cut_at[::-1])[::-1]
    rows = np.column_stack((path, length[path], m.offset[path])).astype(np.int64)
    # Positions the path visits: its nodes and the misses between them.
    interior = np.minimum(path_end, count) - path - 1
    gaps = next_node - np.minimum(path_end, count)
    visited = np.repeat(
        np.tile([True, False, True], len(path)),
        np.column_stack((np.ones(len(path), dtype=np.int32), interior, gaps)).ravel(),
    )
    visited = np.concatenate((np.ones(count - len(visited), dtype=bool), visited))
    del cut, interior, gaps, next_node

    # Positions the scan would not have inserted (skipped or off-stride),
    # and per hash the newest of them: a position whose hash has one newer
    # than its oldest candidate has a chain the vectorised answer did not see.
    excluded = bytearray(count)
    excluded_np = np.frombuffer(excluded, dtype=np.uint8)
    newest_by_hash = None
    newest = -1
    flushed = 0

    def exclude(start: int, stop: int, stride: int = 0) -> None:
        nonlocal newest
        stop = min(stop, count)
        if start < stop:
            excluded[start:stop] = b"\x01" * (stop - start)
            if stride:
                excluded[start:stop:stride] = bytes(len(range(start, stop, stride)))
            newest = stop - 1

    def first_touched(start: int, stop: int, on_path: bool) -> int:
        """The first position in start..stop-1 whose chain lost a candidate."""
        nonlocal flushed, newest_by_hash
        if newest < 0 or start >= stop or oldest[start:stop].min() > newest:
            return -1
        if newest_by_hash is None:
            newest_by_hash = np.full(1 << _HASH_BITS, -1, dtype=np.int32)
        if flushed <= newest:
            # Per hash, the last (newest) of the positions excluded since.
            lost = np.flatnonzero(excluded_np[flushed : newest + 1]) + flushed
            if len(lost):
                lost = lost[np.argsort(hashes[lost], kind="stable")]
                last = np.append(hashes[lost[1:]] != hashes[lost[:-1]], True)
                newest_by_hash[hashes[lost[last]]] = lost[last]
            flushed = newest + 1
        hit = newest_by_hash[hashes[start:stop]] >= oldest[start:stop]
        if on_path:
            hit &= visited[start:stop]
        k = int(hit.argmax())
        return start + k if hit[k] else -1

    def skip(j: int, misses: int) -> tuple[int, int, int, int]:
        """Skip-mode visits from ``j``, taken in bulk: every one is a miss
        up to the first that matches (or the bulk's last).  Returns that
        visit, the misses before it and its answer."""
        nonlocal newest
        steps = 1 + ((misses + 1 + np.arange(_SKIP_RUN)) >> 6)
        visits = j + np.cumsum(steps) - steps
        visits = visits[visits < count]
        # Every position between two visits is stepped over.
        last = int(visits[-1])
        excluded[j + 1 : last] = b"\x01" * max(0, last - j - 1)
        excluded_np[visits] = 0
        cand = m.prev.take(visits)
        floor = oldest.take(visits)
        touched = np.zeros(len(visits), dtype=bool)
        for _ in range(m.max_chain):
            touched |= (cand >= floor) & (excluded_np.take(cand) == 1)
            cand = m.prev.take(cand)
        rewalk = capped.take(visits) | touched
        matches = ~rewalk & (length.take(visits) >= min_match)
        t = len(visits) - 1
        best = None
        for k in np.flatnonzero(rewalk | matches).tolist():
            q = int(visits[k])
            best = m.rewalk(q, excluded) if rewalk[k] else (int(length[q]), int(m.offset[q]))
            if best[0] >= min_match or k == t:
                t = k
                break
            best = None
        stop = int(visits[t])
        if best is None:
            best = (int(length[stop]), int(m.offset[stop]))
        # Only the steps before that visit happened.
        excluded[stop + 1 : last] = bytes(max(0, last - stop - 1))
        if t:
            newest = stop - 1
        return stop, misses + t, best[0], best[1]

    # Matches found, as (at, length, offset) rows: runs of the path taken
    # whole, and single matches the walk settled one at a time.
    found: list = []
    single = bytearray()
    j = 0
    misses = 0
    while j < count:
        if misses >= 64 and skip_accel:
            j, misses, best_len, best_off = skip(j, misses)
        else:
            # Positions j.. are visited one by one until the 64th miss.
            end = min(j + 64 - misses, count) if skip_accel else count
            hit = stops.find(1, j, end)
            touched = first_touched(j, hit + 1 if hit >= 0 else end, False)
            if touched >= 0:
                misses += touched - j
                j = touched
                best_len, best_off = m.rewalk(j, excluded)
            elif hit < 0:
                misses += end - j
                j = end
                if misses < 64 or not skip_accel:
                    continue
                # The 64th miss in a row: the stride becomes 2.
                exclude(j, j + 1)
                j += 1
                continue
            else:
                misses += hit - j
                j = hit
                t = int(np.searchsorted(path, j))
                if not capped[j] and t < len(path) and path[t] == j:
                    # On the path: take it whole up to the next cut.
                    u = int(cut_at[t])
                    last = int(path[u]) if capped[path[u]] else int(path_end[u])
                    touched = first_touched(j, min(last, count), True)
                    if single:
                        found.append(np.frombuffer(single, dtype=np.int64).reshape(-1, 3))
                        single = bytearray()
                    if touched >= 0:
                        v = int(np.searchsorted(path, touched))
                        found.append(rows[t:v])
                        if v > t:
                            misses = touched - int(path_end[v - 1])
                        j = touched
                        best_len, best_off = m.rewalk(j, excluded)
                    elif capped[path[u]]:
                        found.append(rows[t:u])
                        misses = last - int(path_end[u - 1])
                        j = last
                        best_len, best_off = m.rewalk(j, excluded)
                    else:
                        found.append(rows[t : u + 1])
                        best_len = int(length[path[u]])
                        if best_len >= 32:
                            exclude(int(path[u]) + 1, last, best_len // 16)
                        j = last
                        misses = 0
                        continue
                elif capped[j]:
                    best_len, best_off = m.rewalk(j, excluded)
                else:
                    best_len = int(length[j])
                    best_off = int(m.offset[j])

        if best_len >= min_match:
            single += _ROW.pack(j, best_len, best_off)
            if best_len >= 32:
                # Interior positions off the seeding stride are not inserted.
                exclude(j + 1, j + best_len, best_len // 16)
            j += best_len
            misses = 0
        else:
            misses += 1
            step = 1 + (misses >> 6 if skip_accel else 0)
            if step > 1:
                exclude(j + 1, j + step)
            j += step

    found.append(np.frombuffer(single, dtype=np.int64).reshape(-1, 3))
    return np.concatenate(found)


def _varints_everywhere(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LEB128 varint starting at every offset: its size in bytes and its
    value, or ``_HUGE`` where that is over 10 bytes or does not fit 64 bits.

    A size past the end of ``buf`` means the varint is truncated.
    """
    n = len(buf)
    offsets = np.arange(n, dtype=np.int64)
    last = np.where(buf < 0x80, offsets, n)
    np.minimum.accumulate(last[::-1], out=last[::-1])
    size = last - offsets + 1
    low = (buf & np.uint8(0x7F)).astype(np.uint64)
    value = low.copy()
    longer = np.flatnonzero(size > 1)
    for k in range(1, 10):
        longer = longer[longer + k < n]
        if not len(longer):
            break
        value[longer] |= low[longer + k] << np.uint64(7 * k)
        if k == 9:
            # The tenth byte has 7 bits; only one fits above the 63 before it.
            value[longer[low[longer + k] > 1]] = _HUGE
        longer = longer[size[longer] > k + 1]
    value[size > 10] = _HUGE
    return size, value


def _token_error(body: bytes, pos: int, produced: int, orig_size: int) -> CodecError:
    """The checks of the token at ``pos``, in stream order, with exact values."""
    tag, pos = decode_varint(body, pos)
    length = tag >> 1
    if length > orig_size - produced:
        return CodecError("token stream expands past declared size")
    if tag & 1:
        if length > MAX_MATCH:
            return CodecError(f"match of {length} bytes exceeds {MAX_MATCH}")
        offset, pos = decode_varint(body, pos)
        if offset <= 0 or offset > produced:
            return CodecError(f"match offset {offset} out of range at {produced}")
    elif pos + length > len(body):
        return CodecError("truncated literal run")
    raise AssertionError(f"token at {pos} passes every check")  # pragma: no cover


def decompress_tokens(body: bytes, orig_size: int) -> bytes:
    """Expand a token stream back to the original bytes."""
    n = len(body)
    # A match token takes at least two bytes, so no stream expands beyond
    # this; nothing output-sized exists until the tokens are known to
    # expand to exactly ``orig_size`` bytes.
    if orig_size > MAX_MATCH * n:
        raise CodecError(
            f"frame declares {orig_size} bytes; {n} token bytes expand to at most {MAX_MATCH * n}"
        )
    if not n:
        return b""

    # Every offset read as if a token started there; the real tokens are
    # the path from offset 0 through each token's successor.
    buf = np.frombuffer(body, dtype=np.uint8)
    size, value = _varints_everywhere(buf)
    after = np.arange(n) + size  # first byte past the tag
    is_match = (value & np.uint64(1)).astype(bool)
    length = np.minimum(value >> np.uint64(1), np.uint64(n + MAX_MATCH)).astype(np.int64)
    offset_at = np.minimum(after, n - 1)
    succ = np.where(is_match, after + size[offset_at], after + length)
    # A token that fails on its own bytes (runs past the body, holds a
    # varint that is too long, a match that is too long) ends the path.
    bad = (succ > n) | (value == _HUGE)
    bad |= is_match & ((value[offset_at] == _HUGE) | (length > MAX_MATCH))
    succ[bad] = n
    tokens = _greedy_path(0, np.append(succ, n))
    del succ

    # The checks that depend on what came before, in stream order.
    token_len = np.where(bad[tokens], 0, length[tokens])
    produced = np.cumsum(token_len) - token_len
    is_match = is_match[tokens]
    offset = np.where(is_match, value[offset_at[tokens]], np.uint64(1))
    failed = bad[tokens] | (token_len > orig_size - produced)
    failed |= is_match & ((offset == 0) | (offset > produced.astype(np.uint64)))
    if failed.any():
        first = int(failed.argmax())
        raise _token_error(body, int(tokens[first]), int(produced[first]), orig_size)
    total = int(token_len.sum())
    if total != orig_size:
        raise CodecError(f"token stream expands to {total} bytes, frame declares {orig_size}")

    # One index space: the body's bytes, then the output's.  Output byte k
    # of a literal points at its body byte; of a match starting at s, at
    # output byte s - offset + (k - s) % offset, inside an earlier token
    # (an overlapping match repeats its first offset bytes).  Body bytes
    # point at themselves, so doubling the pointers until all point into
    # the body leaves each at the byte it copies.
    index = np.int32 if n + total < 1 << 31 else np.int64
    offset = offset.astype(index)
    base = np.where(is_match, n + produced - offset, after[tokens]).astype(index)
    period = np.where(is_match, offset, np.maximum(token_len, 1)).astype(index)
    within = np.arange(total, dtype=index) - np.repeat(produced.astype(index), token_len)
    within %= np.repeat(period, token_len)
    source = np.concatenate((np.arange(n, dtype=index), np.repeat(base, token_len) + within))
    del within
    while total and source[n:].max() >= n:
        source = source.take(source)
    return buf.take(source[n:]).tobytes()
