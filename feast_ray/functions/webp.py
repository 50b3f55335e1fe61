"""WebP lossless (VP8L) codec — decoder pinned by a first-party
configurable encoder, stdlib + numpy only.

Implements the public "WebP Lossless Bitstream Specification":
RIFF/VP8L container, LSB-first bit reader, canonical (DEFLATE-style)
prefix codes incl. the simple 1/2-symbol form and the code-length
code with 16/17/18 repeats, color cache, LZ77 backward references
with the 120-entry 2D close-neighborhood distance mapping, meta
prefix-code groups, and all four transforms (predictor with the 14
modes and the contiguous-buffer edge semantics, cross-channel color
transform, subtract-green, color-indexing with sub-byte packing).

Reference parity surface: the reference types media payloads as
opaque bytes (/root/reference/sdk/python/feast/types.py:75) and
leaves decode to PIL; this engine decodes natively so the corpus
stage stays dependency-free.

The container/video boundary after this module: lossy (VP8) WebP and
inter-frame video codecs.
"""

from __future__ import annotations

import struct

import numpy as np

# order in which code-length-code lengths are transmitted (spec)
_CL_ORDER = [17, 18, 0, 1, 2, 3, 4, 5, 16, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]

#: alphabet sizes: green+lengths(+cache added at runtime), r, b, a, distance
_GREEN_BASE = 256 + 24
_NUM_LENGTH_CODES = 24
_NUM_DISTANCE_CODES = 40

# the spec's 120-entry close-neighborhood map: distance codes 1..120
# are (dx, dy) offsets in the 17x8(+row-0 right half) window, ordered
# by increasing 2D distance, larger dy first within a distance, the
# positive dx before its mirror. This generation rule reproduces the
# spec's published list (byte-verification against libwebp is not
# possible offline; encoder and decoder share the table, and plain
# codes > 120 — which every conformant stream may use — are exact
# regardless).
_NEIGHBORHOOD = sorted(
    [(dx, dy) for dy in range(9) for dx in range(-8, 9)
     if dy > 0 or dx > 0],
    key=lambda p: (p[0] ** 2 + p[1] ** 2, -p[1], abs(p[0]), p[0] < 0),
)[:120]
assert len(_NEIGHBORHOOD) == 120 and _NEIGHBORHOOD[0] == (0, 1)


class _BitReader:
    """LSB-first bit reader over bytes."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0  # bit position

    def read(self, n: int) -> int:
        v = 0
        for i in range(n):
            byte = self.pos >> 3
            if byte >= len(self.data):
                raise ValueError("VP8L bitstream truncated")
            v |= ((self.data[byte] >> (self.pos & 7)) & 1) << i
            self.pos += 1
        return v


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.bit = 0

    def write(self, v: int, n: int) -> None:
        for i in range(n):
            if self.bit == 0:
                self.buf.append(0)
            if (v >> i) & 1:
                self.buf[-1] |= 1 << self.bit
            self.bit = (self.bit + 1) & 7

    def bytes(self) -> bytes:
        return bytes(self.buf)


# ------------------------------------------------------- prefix codes


def _canonical_codes(lengths: "list[int]") -> "dict[tuple[int, int], int]":
    """DEFLATE canonical assignment: (length, code) -> symbol."""
    max_len = max(lengths, default=0)
    bl_count = [0] * (max_len + 1)
    for ln in lengths:
        if ln:
            bl_count[ln] += 1
    code = 0
    next_code = [0] * (max_len + 1)
    for ln in range(1, max_len + 1):
        code = (code + bl_count[ln - 1]) << 1
        next_code[ln] = code
    table = {}
    for sym, ln in enumerate(lengths):
        if ln:
            table[(ln, next_code[ln])] = sym
            next_code[ln] += 1
    return table


def _canonical_encode(lengths: "list[int]") -> "dict[int, tuple[int, int]]":
    """symbol -> (code, length), same canonical order."""
    return {s: (c, ln) for (ln, c), s in _canonical_codes(lengths).items()}


class _PrefixCode:
    """Decoder-side prefix code: single-symbol (0-bit) or canonical."""

    def __init__(self, lengths: "list[int]" = None, single: "int | None" = None):
        self.single = single
        self.table = _canonical_codes(lengths) if lengths is not None else {}
        self.max_len = max((ln for (ln, _c) in self.table), default=0)

    def read(self, br: _BitReader) -> int:
        if self.single is not None:
            return self.single
        code, ln = 0, 0
        while ln <= self.max_len:
            code = (code << 1) | br.read(1)
            ln += 1
            sym = self.table.get((ln, code))
            if sym is not None:
                return sym
        raise ValueError("invalid VP8L prefix code")


def _read_prefix_code(br: _BitReader, alphabet_size: int) -> _PrefixCode:
    if br.read(1):  # simple code
        num_symbols = br.read(1) + 1
        first_8 = br.read(1)
        s0 = br.read(8 if first_8 else 1)
        if num_symbols == 1:
            return _PrefixCode(single=s0)
        s1 = br.read(8)
        lengths = [0] * alphabet_size
        lengths[s0] = 1
        lengths[s1] = 1
        return _PrefixCode(lengths)
    # normal: code-length code first
    num_cl = 4 + br.read(4)
    cl_lengths = [0] * 19
    for i in range(num_cl):
        cl_lengths[_CL_ORDER[i]] = br.read(3)
    cl_nz = [s for s, ln in enumerate(cl_lengths) if ln]
    if len(cl_nz) == 1:  # single-symbol trees read zero bits
        cl_code = _PrefixCode(single=cl_nz[0])
    else:
        cl_code = _PrefixCode(cl_lengths)
    if br.read(1):  # explicit max_symbol
        length_nbits = 2 + 2 * br.read(3)
        max_symbol = 2 + br.read(length_nbits)
    else:
        max_symbol = alphabet_size
    lengths = [0] * alphabet_size
    sym, prev = 0, 8
    while sym < alphabet_size and max_symbol > 0:
        max_symbol -= 1
        cl = cl_code.read(br)
        if cl < 16:
            lengths[sym] = cl
            sym += 1
            if cl:
                prev = cl
        elif cl == 16:
            rep = 3 + br.read(2)
            for _ in range(rep):
                if sym < alphabet_size:
                    lengths[sym] = prev
                    sym += 1
        elif cl == 17:
            sym += 3 + br.read(3)
        else:  # 18
            sym += 11 + br.read(7)
    nz = [s for s, ln in enumerate(lengths) if ln]
    if len(nz) == 1:
        return _PrefixCode(single=nz[0])
    return _PrefixCode(lengths)


def _lz77_decode_prefix(br: _BitReader, code: int) -> int:
    """LZ77 prefix value (length or distance-code), spec formula."""
    if code < 4:
        return code + 1
    extra = (code - 2) >> 1
    offset = (2 + (code & 1)) << extra
    return offset + br.read(extra) + 1


def _lz77_encode_prefix(value: int) -> "tuple[int, int, int]":
    """value -> (prefix_code, extra_bits_value, extra_bits_count)."""
    assert value >= 1
    x = value - 1
    if x < 4:
        return x, 0, 0
    extra = x.bit_length() - 2
    offset = (2 + ((x >> extra) & 1)) << extra
    code = 2 * extra + 2 + ((x >> extra) & 1)
    return code, x - offset, extra


# -------------------------------------------------------- decode side


def _read_entropy_image(
    br: _BitReader, w: int, h: int, allow_meta: bool
) -> np.ndarray:
    """Decode one spatially-coded image (the main image or a
    transform's subimage) into an (h, w) uint32 ARGB array."""
    cache_bits = 0
    if br.read(1):
        cache_bits = br.read(4)
        if not 1 <= cache_bits <= 11:
            raise ValueError(f"bad color-cache bits {cache_bits}")
    meta = None
    huffman_bits = 0
    n_groups = 1
    if allow_meta and br.read(1):
        huffman_bits = br.read(3) + 2
        mw = (w + (1 << huffman_bits) - 1) >> huffman_bits
        mh = (h + (1 << huffman_bits) - 1) >> huffman_bits
        meta_img = _read_entropy_image(br, mw, mh, False)
        meta = ((meta_img >> 8) & 0xFFFF).astype(np.int64)
        n_groups = int(meta.max()) + 1
    cache_size = (1 << cache_bits) if cache_bits else 0
    groups = []
    for _ in range(n_groups):
        green = _read_prefix_code(br, _GREEN_BASE + cache_size)
        red = _read_prefix_code(br, 256)
        blue = _read_prefix_code(br, 256)
        alpha = _read_prefix_code(br, 256)
        dist = _read_prefix_code(br, _NUM_DISTANCE_CODES)
        groups.append((green, red, blue, alpha, dist))

    n = w * h
    out = np.zeros(n, np.uint32)
    cache = np.zeros(cache_size, np.uint32) if cache_size else None
    pos = 0
    while pos < n:
        x, y = pos % w, pos // w
        if meta is not None:
            g = groups[int(meta[y >> huffman_bits, x >> huffman_bits])]
        else:
            g = groups[0]
        s = g[0].read(br)
        if s < 256:  # literal
            r = g[1].read(br)
            b = g[2].read(br)
            a = g[3].read(br)
            px = (a << 24) | (r << 16) | (s << 8) | b
            out[pos] = px
            pos += 1
        elif s < _GREEN_BASE:  # backward reference
            length = _lz77_decode_prefix(br, s - 256)
            dcode = _lz77_decode_prefix(br, g[4].read(br))
            if dcode > 120:
                dist_ = dcode - 120
            else:
                dx, dy = _NEIGHBORHOOD[dcode - 1]
                dist_ = dx + dy * w
                if dist_ < 1:
                    dist_ = 1
            if dist_ > pos or pos + length > n:
                raise ValueError("VP8L backward reference out of range")
            for i in range(length):
                px = out[pos - dist_]
                out[pos] = px
                pos += 1
                if cache is not None:
                    key = ((0x1E35A7BD * int(px)) & 0xFFFFFFFF) >> (
                        32 - cache_bits)
                    cache[key] = px
            continue
        else:  # color-cache hit
            idx = s - _GREEN_BASE
            if cache is None or idx >= cache_size:
                raise ValueError("VP8L cache index without cache")
            px = int(cache[idx])
            out[pos] = px
            pos += 1
        if cache is not None:
            key = ((0x1E35A7BD * int(out[pos - 1])) & 0xFFFFFFFF) >> (
                32 - cache_bits)
            cache[key] = out[pos - 1]
    return out.reshape(h, w)


def _inv_predictor(res: np.ndarray, modes: np.ndarray, bits: int) -> np.ndarray:
    """Inverse predictor transform: residuals + per-block predictions,
    contiguous-buffer edge semantics (TR of the last column is the
    NEXT pixel in memory, i.e. the current row's leftmost)."""
    h, w = res.shape
    flat = res.ravel()
    out = np.zeros(h * w, np.uint32)

    def chans(p):
        return np.array([(p >> 24) & 0xFF, (p >> 16) & 0xFF,
                         (p >> 8) & 0xFF, p & 0xFF], np.int64)

    def pack(c):
        c = c & 0xFF
        return (int(c[0]) << 24) | (int(c[1]) << 16) | (int(c[2]) << 8) | int(c[3])

    def avg2(a, b):
        return (a + b) >> 1

    for pos in range(h * w):
        x, y = pos % w, pos // w
        if pos == 0:
            pred = np.array([0xFF, 0, 0, 0], np.int64)
        elif y == 0:
            pred = chans(out[pos - 1])  # top row: L
        elif x == 0:
            pred = chans(out[pos - w])  # left column: T
        else:
            mode = int(modes[y >> bits, x >> bits])
            L = chans(out[pos - 1])
            T = chans(out[pos - w])
            TL = chans(out[pos - w - 1])
            TR = chans(out[pos - w + 1])  # x==w-1 wraps to row start
            if mode == 0:
                pred = np.array([0xFF, 0, 0, 0], np.int64)
            elif mode == 1:
                pred = L
            elif mode == 2:
                pred = T
            elif mode == 3:
                pred = TR
            elif mode == 4:
                pred = TL
            elif mode == 5:
                pred = avg2(avg2(L, TR), T)
            elif mode == 6:
                pred = avg2(L, TL)
            elif mode == 7:
                pred = avg2(L, T)
            elif mode == 8:
                pred = avg2(TL, T)
            elif mode == 9:
                pred = avg2(T, TR)
            elif mode == 10:
                pred = avg2(avg2(L, TL), avg2(T, TR))
            elif mode == 11:  # Select
                p = L + T - TL
                pl = np.abs(p - L).sum()
                pt = np.abs(p - T).sum()
                pred = L if pl < pt else T
            elif mode == 12:  # ClampAddSubtractFull
                pred = np.clip(L + T - TL, 0, 255)
            elif mode == 13:  # ClampAddSubtractHalf
                a = avg2(L, T)
                pred = np.clip(a + (a - TL) // 2, 0, 255)
            else:
                raise ValueError(f"bad predictor mode {mode}")
        out[pos] = pack(chans(flat[pos]) + pred)
    return out.reshape(h, w)


def decode_webp(payload: bytes) -> np.ndarray:
    """RIFF/VP8L -> (h, w, 4) uint8 RGBA. Lossy VP8 stays the
    declared boundary."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WEBP":
        raise ValueError("not a WebP RIFF container")
    pos = 12
    vp8l = None
    while pos + 8 <= len(payload):
        fourcc = payload[pos : pos + 4]
        (size,) = struct.unpack_from("<I", payload, pos + 4)
        data = payload[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)
        if fourcc == b"VP8L":
            vp8l = data
            break
        if fourcc == b"VP8 ":
            raise NotImplementedError(
                "lossy (VP8) WebP stays the declared boundary")
    if vp8l is None:
        raise ValueError("WebP container without a VP8L chunk")
    if vp8l[0] != 0x2F:
        raise ValueError("bad VP8L signature byte")
    br = _BitReader(vp8l[1:])
    w = br.read(14) + 1
    h = br.read(14) + 1
    br.read(1)  # alpha hint
    if br.read(3) != 0:
        raise ValueError("unknown VP8L version")

    # transforms, in read order
    transforms = []  # (type, data...) with the width they were read at
    cur_w = w
    seen = set()
    while br.read(1):
        ttype = br.read(2)
        if ttype in seen:
            raise ValueError("duplicate VP8L transform")
        seen.add(ttype)
        if ttype == 0:  # predictor
            bits = br.read(3) + 2
            mw = (cur_w + (1 << bits) - 1) >> bits
            mh = (h + (1 << bits) - 1) >> bits
            sub = _read_entropy_image(br, mw, mh, False)
            transforms.append(("predictor", bits, (sub >> 8) & 0xFF, cur_w))
        elif ttype == 1:  # color
            bits = br.read(3) + 2
            mw = (cur_w + (1 << bits) - 1) >> bits
            mh = (h + (1 << bits) - 1) >> bits
            sub = _read_entropy_image(br, mw, mh, False)
            transforms.append(("color", bits, sub, cur_w))
        elif ttype == 2:
            transforms.append(("subtract_green",))
        else:  # color indexing
            psize = br.read(8) + 1
            prow = _read_entropy_image(br, psize, 1, False)[0]
            # palette entries are componentwise cumulative sums
            pal = np.zeros(psize, np.uint32)
            prev = 0
            for i in range(psize):
                cur = int(prow[i])
                ent = 0
                for shift in (0, 8, 16, 24):
                    ent |= (((prev >> shift) + (cur >> shift)) & 0xFF) << shift
                pal[i] = ent
                prev = ent
            if psize <= 2:
                wb = 3
            elif psize <= 4:
                wb = 2
            elif psize <= 16:
                wb = 1
            else:
                wb = 0
            transforms.append(("palette", pal, wb, cur_w))
            cur_w = (cur_w + (1 << wb) - 1) >> wb

    img = _read_entropy_image(br, cur_w, h, True)

    # inverse transforms in reverse read order
    for t in reversed(transforms):
        if t[0] == "subtract_green":
            g = (img >> 8) & 0xFF
            r = ((img >> 16) + g) & 0xFF
            b = (img + g) & 0xFF
            img = (img & 0xFF00FF00) | (r << 16) | b
        elif t[0] == "predictor":
            _, bits, modes, tw = t
            if img.shape[1] != tw:
                raise ValueError("predictor transform width mismatch")
            img = _inv_predictor(img, modes, bits)
        elif t[0] == "color":
            _, bits, sub, tw = t
            h_, w_ = img.shape
            ys, xs = np.indices((h_, w_))
            cte = sub[ys >> bits, xs >> bits]
            g2r = (cte & 0xFF).astype(np.int64)
            g2b = ((cte >> 8) & 0xFF).astype(np.int64)
            r2b = ((cte >> 16) & 0xFF).astype(np.int64)
            g = ((img >> 8) & 0xFF).astype(np.int64)
            r = ((img >> 16) & 0xFF).astype(np.int64)
            b = (img & 0xFF).astype(np.int64)

            def vdelta(t_, c_):
                ts = np.where(t_ > 127, t_ - 256, t_)
                cs = np.where(c_ > 127, c_ - 256, c_)
                return (ts * cs) >> 5

            nr = (r + vdelta(g2r, g)) & 0xFF
            nb = (b + vdelta(g2b, g) + vdelta(r2b, nr)) & 0xFF
            img = (img & 0xFF00FF00) | (
                nr.astype(np.uint32) << 16) | nb.astype(np.uint32)
        else:  # palette
            _, pal, wb, tw = t
            h_, pw = img.shape
            idx = ((img >> 8) & 0xFF).astype(np.int64)
            if wb:
                per = 1 << wb
                bpp = 8 >> wb
                mask = (1 << bpp) - 1
                wide = np.zeros((h_, pw * per), np.int64)
                for i in range(per):
                    wide[:, i::per] = (idx >> (i * bpp)) & mask
                idx = wide[:, :tw]
            if idx.max(initial=0) >= len(pal):
                raise ValueError("palette index out of range")
            img = pal[idx]

    rgba = np.empty((h, w, 4), np.uint8)
    rgba[..., 0] = (img >> 16) & 0xFF
    rgba[..., 1] = (img >> 8) & 0xFF
    rgba[..., 2] = img & 0xFF
    rgba[..., 3] = (img >> 24) & 0xFF
    return rgba


# -------------------------------------------------------- encode side


def _huffman_lengths(freqs: "dict[int, int]", alphabet: int) -> "list[int]":
    """Code lengths from symbol frequencies (heap Huffman); the
    callers' alphabets and image sizes keep depth well under the
    15-bit spec cap, asserted anyway."""
    import heapq
    import itertools

    items = [(f, next_id, [s]) for next_id, (s, f) in
             enumerate(sorted(freqs.items()))]
    if len(items) <= 1:
        raise ValueError("huffman needs >= 2 symbols")
    heapq.heapify(items)
    counter = itertools.count(len(items))
    lengths = [0] * alphabet
    depth = {s: 0 for s in freqs}
    while len(items) > 1:
        f1, _, s1 = heapq.heappop(items)
        f2, _, s2 = heapq.heappop(items)
        for s in s1 + s2:
            depth[s] += 1
        heapq.heappush(items, (f1 + f2, next(counter), s1 + s2))
    for s, d in depth.items():
        assert d <= 15, "prefix code deeper than the 15-bit spec cap"
        lengths[s] = d
    return lengths


def _write_prefix_code(
    bw: _BitWriter, freqs: "dict[int, int]", alphabet: int
) -> "dict[int, tuple[int, int]]":
    """Write one prefix-code header; return symbol -> (code, nbits)
    with nbits == 0 meaning the decoder reads no bits (single-symbol
    tree)."""
    used = sorted(s for s, f in freqs.items() if f > 0)
    if not used:
        used = [0]
    if len(used) == 1:
        s0 = used[0]
        if s0 < 256:
            bw.write(1, 1)  # simple
            bw.write(0, 1)  # one symbol
            if s0 <= 1:
                bw.write(0, 1)  # 1-bit first symbol
                bw.write(s0, 1)
            else:
                bw.write(1, 1)
                bw.write(s0, 8)
            return {s0: (0, 0)}
        # symbol >= 256: normal code with one length-1 entry — the
        # decoder's single-symbol rule reads zero bits per occurrence
        lengths = [0] * alphabet
        lengths[s0] = 1
        _write_normal_code(bw, lengths)
        return {s0: (0, 0)}
    if len(used) == 2 and used[1] < 256:
        s0, s1 = used
        bw.write(1, 1)  # simple
        bw.write(1, 1)  # two symbols
        if s0 <= 1:
            bw.write(0, 1)
            bw.write(s0, 1)
        else:
            bw.write(1, 1)
            bw.write(s0, 8)
        bw.write(s1, 8)
        lengths = [0] * alphabet
        lengths[s0] = lengths[s1] = 1
        return _canonical_encode(lengths)
    lengths = _huffman_lengths(freqs, alphabet)
    _write_normal_code(bw, lengths)
    return _canonical_encode(lengths)


def _write_normal_code(bw: _BitWriter, lengths: "list[int]") -> None:
    """The code-length-code path: 19-entry CL header (3 bits each in
    the spec order), zero runs folded through CL symbols 17/18, then
    one CL symbol per remaining code length."""
    bw.write(0, 1)  # not simple
    # fold zero runs into 17/18 tokens
    tokens = []  # (cl_symbol, extra_value, extra_bits)
    i, n = 0, len(lengths)
    while i < n:
        if lengths[i] == 0:
            j = i
            while j < n and lengths[j] == 0:
                j += 1
            run = j - i
            # trailing zeros are NOT implicit: without an explicit
            # max_symbol the decoder consumes CL symbols until the
            # whole alphabet is covered
            while run >= 11:
                r = min(run, 138)
                tokens.append((18, r - 11, 7))
                run -= r
            while run >= 3:
                r = min(run, 10)
                tokens.append((17, r - 3, 3))
                run -= r
            for _ in range(run):
                tokens.append((0, 0, 0))
            i = j
        else:
            tokens.append((lengths[i], 0, 0))
            i += 1
    cl_freqs: "dict[int, int]" = {}
    for s, _v, _b in tokens:
        cl_freqs[s] = cl_freqs.get(s, 0) + 1
    if not cl_freqs:
        cl_freqs = {0: 1}
    if len(cl_freqs) == 1:
        cl_lengths = [0] * 19
        cl_lengths[next(iter(cl_freqs))] = 1
        cl_map = {next(iter(cl_freqs)): (0, 0)}  # single: zero bits
    else:
        cl_lengths = _huffman_lengths(cl_freqs, 19)
        cl_map = _canonical_encode(cl_lengths)
    bw.write(15, 4)  # num_code_lengths = 19: cover the whole order
    for s in _CL_ORDER:
        bw.write(cl_lengths[s], 3)
    bw.write(0, 1)  # no explicit max_symbol
    for s, v, b in tokens:
        code, ln = cl_map[s]
        for k in range(ln - 1, -1, -1):
            bw.write((code >> k) & 1, 1)
        if b:
            bw.write(v, b)


def _emit(bw: _BitWriter, enc: "dict[int, tuple[int, int]]", sym: int) -> None:
    code, ln = enc[sym]
    for k in range(ln - 1, -1, -1):
        bw.write((code >> k) & 1, 1)


def _cache_key(px: int, cache_bits: int) -> int:
    return ((0x1E35A7BD * px) & 0xFFFFFFFF) >> (32 - cache_bits)


def _tokenize(
    flat: np.ndarray, w: int, cache_bits: int, lz77: bool, use2d: bool
) -> "list[tuple]":
    """Pixel stream -> (lit px | cache idx | copy len dist) tokens,
    mirroring the decoder's cache state exactly."""
    n = len(flat)
    tokens = []
    cache = np.zeros(1 << cache_bits, np.uint32) if cache_bits else None
    filled = np.zeros(1 << cache_bits, bool) if cache_bits else None

    def insert(px: int) -> None:
        if cache is not None:
            key = _cache_key(px, cache_bits)
            cache[key] = px
            filled[key] = True

    last_pos: "dict[int, int]" = {}
    pos = 0
    while pos < n:
        if lz77 and pos > 0:
            # candidate distances: repeat-run, one row up, and the
            # last occurrence of this pixel value (greedy match)
            cands = [1]
            if pos >= w:
                cands.append(w)
            lp = last_pos.get(int(flat[pos]))
            if lp is not None and pos - lp not in cands:
                cands.append(pos - lp)
            best_run, best_dist = 0, 0
            for dist in cands:
                run = 0
                while (pos + run < n and flat[pos + run] == flat[pos + run - dist]
                       and run < 4000):
                    run += 1
                if run > best_run:
                    best_run, best_dist = run, dist
            if best_run >= 4:
                tokens.append(("copy", best_run, best_dist))
                for i in range(best_run):
                    last_pos[int(flat[pos + i])] = pos + i
                    insert(int(flat[pos + i]))
                pos += best_run
                continue
        px = int(flat[pos])
        last_pos[px] = pos
        if cache is not None:
            key = _cache_key(px, cache_bits)
            if filled[key] and int(cache[key]) == px:
                tokens.append(("cache", key))
                insert(px)
                pos += 1
                continue
        tokens.append(("lit", px))
        insert(px)
        pos += 1
    return tokens


def _write_entropy_image(
    bw: _BitWriter,
    flat: np.ndarray,
    w: int,
    *,
    cache_bits: int = 0,
    lz77: bool = False,
    use2d: bool = False,
    main: bool = False,
    meta_bits: "int | None" = None,
) -> None:
    """One spatially-coded image. Only the MAIN image carries the
    meta-prefix-code bit; transform subimages go straight from the
    cache flag to the code headers. ``meta_bits`` (main only) writes
    TWO prefix-code groups in a checkerboard of 2^meta_bits blocks —
    the token at pixel (x, y) uses group (bx + by) & 1."""
    h = (len(flat) + w - 1) // w
    if cache_bits:
        bw.write(1, 1)
        bw.write(cache_bits, 4)
    else:
        bw.write(0, 1)
    gid_of = None
    n_groups = 1
    if main:
        if meta_bits is not None:
            bw.write(1, 1)
            bw.write(meta_bits - 2, 3)
            mw = (w + (1 << meta_bits) - 1) >> meta_bits
            mh = (h + (1 << meta_bits) - 1) >> meta_bits
            gids = (np.add.outer(np.arange(mh), np.arange(mw)) & 1).astype(
                np.uint32)
            n_groups = int(gids.max()) + 1
            _write_entropy_image(
                bw, (0xFF000000 | (gids << 8)).ravel(), mw)

            def gid_of(pos: int) -> int:
                x, y = pos % w, pos // w
                return int(gids[y >> meta_bits, x >> meta_bits])
        else:
            bw.write(0, 1)  # no meta prefix codes

    # distance mapping: prefer the 2D neighborhood codes when asked
    near = {}
    if use2d:
        for idx, (dx, dy) in enumerate(_NEIGHBORHOOD):
            d = dx + dy * w
            if d >= 1 and d not in near:
                near[d] = idx + 1

    tokens = _tokenize(flat, w, cache_bits, lz77, use2d)
    # per-group histograms — a token belongs to the group of the pixel
    # position where its (single) green symbol is read
    hists = [[{}, {}, {}, {}, {}] for _ in range(n_groups)]
    coded = []
    pos = 0
    for t in tokens:
        gid = gid_of(pos) if gid_of is not None else 0
        gf, rf, bf, af, df = hists[gid]
        if t[0] == "lit":
            px = t[1]
            g = (px >> 8) & 0xFF
            gf[g] = gf.get(g, 0) + 1
            rf[(px >> 16) & 0xFF] = rf.get((px >> 16) & 0xFF, 0) + 1
            bf[px & 0xFF] = bf.get(px & 0xFF, 0) + 1
            af[(px >> 24) & 0xFF] = af.get((px >> 24) & 0xFF, 0) + 1
            coded.append((gid, "lit", px))
            pos += 1
        elif t[0] == "cache":
            s = _GREEN_BASE + t[1]
            gf[s] = gf.get(s, 0) + 1
            coded.append((gid, "sym", s))
            pos += 1
        else:
            _, length, dist = t
            lcode, lv, lb = _lz77_encode_prefix(length)
            gf[256 + lcode] = gf.get(256 + lcode, 0) + 1
            dmapped = near.get(dist, dist + 120)
            dcode, dv, db = _lz77_encode_prefix(dmapped)
            df[dcode] = df.get(dcode, 0) + 1
            coded.append((gid, "copy", lcode, lv, lb, dcode, dv, db))
            pos += length

    cache_size = (1 << cache_bits) if cache_bits else 0
    encs = []
    for gf, rf, bf, af, df in hists:
        encs.append((
            _write_prefix_code(bw, gf, _GREEN_BASE + cache_size),
            _write_prefix_code(bw, rf, 256),
            _write_prefix_code(bw, bf, 256),
            _write_prefix_code(bw, af, 256),
            _write_prefix_code(bw, df, _NUM_DISTANCE_CODES),
        ))

    for t in coded:
        genc, renc, benc, aenc, denc = encs[t[0]]
        if t[1] == "lit":
            px = t[2]
            _emit(bw, genc, (px >> 8) & 0xFF)
            _emit(bw, renc, (px >> 16) & 0xFF)
            _emit(bw, benc, px & 0xFF)
            _emit(bw, aenc, (px >> 24) & 0xFF)
        elif t[1] == "sym":
            _emit(bw, genc, t[2])
        else:
            _, _, lcode, lv, lb, dcode, dv, db = t
            _emit(bw, genc, 256 + lcode)
            if lb:
                bw.write(lv, lb)
            _emit(bw, denc, dcode)
            if db:
                bw.write(dv, db)


def _fwd_predictor(img: np.ndarray, bits: int, mode) -> "tuple[np.ndarray, np.ndarray]":
    """Forward predictor transform: residuals (mod 256 per channel)
    against the same edge rules the decoder inverts. ``mode`` is an
    int or "cycle" (block (bx+by) % 14 — exercises every mode)."""
    h, w = img.shape
    mw = (w + (1 << bits) - 1) >> bits
    mh = (h + (1 << bits) - 1) >> bits
    if mode == "cycle":
        modes = (np.add.outer(np.arange(mh), np.arange(mw)) % 14).astype(
            np.uint8)
    else:
        modes = np.full((mh, mw), int(mode), np.uint8)
    flat = img.ravel()
    res = np.zeros(h * w, np.uint32)

    def chans(p):
        return np.array([(p >> 24) & 0xFF, (p >> 16) & 0xFF,
                         (p >> 8) & 0xFF, p & 0xFF], np.int64)

    def pack(c):
        c = c & 0xFF
        return (int(c[0]) << 24) | (int(c[1]) << 16) | (int(c[2]) << 8) | int(c[3])

    def avg2(a, b):
        return (a + b) >> 1

    for pos in range(h * w):
        x, y = pos % w, pos // w
        if pos == 0:
            pred = np.array([0xFF, 0, 0, 0], np.int64)
        elif y == 0:
            pred = chans(flat[pos - 1])
        elif x == 0:
            pred = chans(flat[pos - w])
        else:
            m = int(modes[y >> bits, x >> bits])
            L = chans(flat[pos - 1])
            T = chans(flat[pos - w])
            TL = chans(flat[pos - w - 1])
            TR = chans(flat[pos - w + 1])
            if m == 0:
                pred = np.array([0xFF, 0, 0, 0], np.int64)
            elif m == 1:
                pred = L
            elif m == 2:
                pred = T
            elif m == 3:
                pred = TR
            elif m == 4:
                pred = TL
            elif m == 5:
                pred = avg2(avg2(L, TR), T)
            elif m == 6:
                pred = avg2(L, TL)
            elif m == 7:
                pred = avg2(L, T)
            elif m == 8:
                pred = avg2(TL, T)
            elif m == 9:
                pred = avg2(T, TR)
            elif m == 10:
                pred = avg2(avg2(L, TL), avg2(T, TR))
            elif m == 11:
                p = L + T - TL
                pred = L if np.abs(p - L).sum() < np.abs(p - T).sum() else T
            elif m == 12:
                pred = np.clip(L + T - TL, 0, 255)
            else:
                a = avg2(L, T)
                pred = np.clip(a + (a - TL) // 2, 0, 255)
        res[pos] = pack(chans(flat[pos]) - pred)
    return res.reshape(h, w), modes


def encode_webp(
    px: np.ndarray,
    *,
    subtract_green: bool = False,
    predictor_bits: "int | None" = None,
    predictor_mode="cycle",
    color_bits: "int | None" = None,
    color_cte: "tuple[int, int, int]" = (16, 200, 8),
    palette: bool = False,
    cache_bits: int = 0,
    lz77: bool = False,
    use2d: bool = False,
    meta_bits: "int | None" = None,
) -> bytes:
    """Deterministic VP8L writer pinning :func:`decode_webp`. ``px``
    is (h, w, 3|4) uint8; transform flags compose (palette excludes
    the spatial transforms, as real encoders do)."""
    assert px.dtype == np.uint8 and px.ndim == 3 and px.shape[2] in (3, 4)
    h, w = px.shape[:2]
    if px.shape[2] == 3:
        a = np.full((h, w), 255, np.uint32)
    else:
        a = px[..., 3].astype(np.uint32)
    img = ((a << 24)
           | (px[..., 0].astype(np.uint32) << 16)
           | (px[..., 1].astype(np.uint32) << 8)
           | px[..., 2].astype(np.uint32))

    bw = _BitWriter()
    bw.write(w - 1, 14)
    bw.write(h - 1, 14)
    bw.write(0, 1)  # alpha hint
    bw.write(0, 3)  # version

    cur_w = w
    if palette:
        assert not (subtract_green or predictor_bits or color_bits)
        colors = np.unique(img)
        assert len(colors) <= 256, "palette transform needs <= 256 colors"
        lut = {int(c): i for i, c in enumerate(colors)}
        idx = np.vectorize(lambda p: lut[int(p)])(img).astype(np.uint32)
        psize = len(colors)
        bw.write(1, 1)
        bw.write(3, 2)  # color indexing
        bw.write(psize - 1, 8)
        # delta-encode the palette row componentwise mod 256
        deltas = np.zeros(psize, np.uint32)
        prev = 0
        for i, c in enumerate(colors.astype(np.int64)):
            d = 0
            for shift in (0, 8, 16, 24):
                d |= ((int(c) >> shift) - (prev >> shift) & 0xFF) << shift
            deltas[i] = d
            prev = int(c)
        _write_entropy_image(bw, deltas, psize)
        if psize <= 2:
            wb = 3
        elif psize <= 4:
            wb = 2
        elif psize <= 16:
            wb = 1
        else:
            wb = 0
        if wb:
            per = 1 << wb
            bpp = 8 >> wb
            pw = (w + per - 1) // per
            packed = np.zeros((h, pw), np.uint32)
            for i in range(per):
                col = idx[:, i::per]
                packed[:, : col.shape[1]] |= col << (i * bpp)
            img = 0xFF000000 | (packed << 8)
            cur_w = pw
        else:
            img = 0xFF000000 | (idx << 8)
    else:
        if subtract_green:
            bw.write(1, 1)
            bw.write(2, 2)
            g = (img >> 8) & 0xFF
            r = ((img >> 16) - g) & 0xFF
            b = (img - g) & 0xFF
            img = (img & 0xFF00FF00) | (r << 16) | b
        if color_bits is not None:
            bw.write(1, 1)
            bw.write(1, 2)
            bw.write(color_bits - 2, 3)
            mw = (cur_w + (1 << color_bits) - 1) >> color_bits
            mh = (h + (1 << color_bits) - 1) >> color_bits
            g2r, g2b, r2b = color_cte
            sub = np.full(
                (mh, mw),
                0xFF000000 | (r2b << 16) | (g2b << 8) | g2r,
                np.uint32,
            )
            _write_entropy_image(bw, sub.ravel(), mw)
            gg = ((img >> 8) & 0xFF).astype(np.int64)
            rr = ((img >> 16) & 0xFF).astype(np.int64)
            bb = (img & 0xFF).astype(np.int64)

            def vdelta(t_, c_):
                ts = t_ - 256 if t_ > 127 else t_
                cs = np.where(c_ > 127, c_ - 256, c_)
                return (ts * cs) >> 5

            nr = (rr - vdelta(g2r, gg)) & 0xFF
            nb = (bb - vdelta(g2b, gg) - vdelta(r2b, rr)) & 0xFF
            img = (img & 0xFF00FF00) | (
                nr.astype(np.uint32) << 16) | nb.astype(np.uint32)
        if predictor_bits is not None:
            bw.write(1, 1)
            bw.write(0, 2)
            bw.write(predictor_bits - 2, 3)
            res, modes = _fwd_predictor(img, predictor_bits, predictor_mode)
            mh, mw = modes.shape
            sub = 0xFF000000 | (modes.astype(np.uint32) << 8)
            _write_entropy_image(bw, sub.ravel(), mw)
            img = res
    bw.write(0, 1)  # end of transforms

    _write_entropy_image(
        bw, img.ravel(), cur_w,
        cache_bits=cache_bits, lz77=lz77, use2d=use2d, main=True,
        meta_bits=meta_bits,
    )

    payload = b"\x2f" + bw.bytes()
    vp8l = b"VP8L" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        vp8l += b"\x00"
    riff = b"WEBP" + vp8l
    return b"RIFF" + struct.pack("<I", len(riff)) + riff
