"""Vectorized per-document text statistics + quality-rule decisions.

The Gopher/C4-style heuristic rules of the north rule. Two engines
compute the same stats:

- a **byte-classification fast path** (numpy over the Arrow string
  array's raw byte buffer — one class-code lookup per byte, per-doc
  counts by ``np.add.reduceat`` at the doc offsets) used whenever the
  column has no nulls; counts are exact for ANY valid UTF-8 input
  (codepoint starts are the non-continuation bytes; RE2's
  ``\\s``/``\\w`` classes are ASCII-only, verified: ``\\s`` = {TAB LF
  FF CR SP}), except the stopword count, where RE2's Unicode
  case-folding can diverge — non-ASCII docs get their stop_count
  patched from the RE2 reference path;
- the original ``pyarrow.compute`` RE2 path, kept as the reference and
  the fallback (nulls / unusual column types).

Both produce bit-identical columns — the float math uses the same IEEE
divisions in the same order — so the driver's DuckDB oracle (which
shares RE2) keeps matching by value hash.

This is the quality-filter analog of the reference's on-demand feature
transformations (on_demand_feature_view.py:116-210): derived columns
computed from raw features at read time, fixed declared schema.

Rules (priority order decides ``drop_reason``):
  too_short      n_words < 20
  too_long       n_words > 5000
  word_len       mean_word_len outside [2.5, 8]
  no_stopwords   stop_count < 2
  too_many_digits digit_frac > 0.2
  too_many_symbols symbol_frac > 0.1
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .langid import _PROFILES

STOPWORD_PATTERN = r"\b(the|a|and|of|to|in|is|it)\b"
_STOPWORDS = (b"the", b"a", b"and", b"of", b"to", b"in", b"is", b"it")

MIN_WORDS = 20
MAX_WORDS = 5000
MIN_MEAN_WORD_LEN = 2.5
MAX_MEAN_WORD_LEN = 8.0
MIN_STOPWORDS = 2
MAX_DIGIT_FRAC = 0.2
MAX_SYMBOL_FRAC = 0.1

# one class code per byte value, one bit per class: RE2's ASCII classes
# plus the bytes the byte path must count or route to the reference.
# _UPPER is bit 5 because that is ASCII's case bit: buf | (cls & 32)
# lowers A-Z and leaves every other byte alone.
_WS, _DIGIT, _ALNUM, _WORD, _CONT, _UPPER, _IMPURE = range(7)
_CLASS = np.zeros(256, np.uint8)
_CLASS[[9, 10, 12, 13, 32]] |= 1 << _WS  # RE2 \s — NO \v (0x0b), verified
_CLASS[48:58] |= 1 << _DIGIT
for _lo, _hi in ((48, 58), (65, 91), (97, 123)):
    _CLASS[_lo:_hi] |= 1 << _ALNUM | 1 << _WORD
_CLASS[65:91] |= 1 << _UPPER
_CLASS[95] |= 1 << _WORD  # \w = [0-9A-Za-z_]
_CLASS[0x80:0xC0] |= 1 << _CONT  # UTF-8 continuation bytes
# bytes the \S+ tokenizer can't reproduce: non-ASCII, and VT, which
# utf8_trim_whitespace would strip at doc edges
_CLASS[0x80:] |= 1 << _IMPURE
_CLASS[0x0B] |= 1 << _IMPURE


def _has(cls: np.ndarray, bit: int) -> np.ndarray:
    """Per-byte bool mask of one class bit."""
    return ((cls >> bit) & 1).view(np.bool_)


def _string_view(arr: pa.Array):
    """(byte buffer, per-doc offsets rebased to 0) for a null-free
    string/large_string array, honoring array slices. None when the
    byte fast path can't apply."""
    if arr.null_count:
        return None
    if arr.type == pa.string():
        odt = np.int32
    elif arr.type == pa.large_string():
        odt = np.int64
    else:
        return None
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], odt)[arr.offset : arr.offset + len(arr) + 1]
    offs = offs.astype(np.int64)
    buf = np.frombuffer(bufs[2], np.uint8)
    base = offs[0]
    if base or offs[-1] != len(buf):
        buf = buf[base : offs[-1]]
        offs = offs - base
    return buf, offs


def _segsum(x: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Per-doc int64 sums of a per-byte array (``len(x) == offs[-1]``):
    one ``np.add.reduceat`` over the starts of the non-empty docs, so
    no full-buffer int64 temporary; empty docs sum to 0."""
    out = np.zeros(len(offs) - 1, np.int64)
    full = np.flatnonzero(offs[1:] > offs[:-1])
    if len(full):
        out[full] = np.add.reduceat(x, offs[full], dtype=np.int64)
    return out


def _run_bounds(mask: np.ndarray, offs: np.ndarray):
    """(first, last) byte masks of every maximal run of ``mask`` bytes.
    Doc boundaries split runs (RE2 matches are per string)."""
    first = mask.copy()
    first[1:] &= ~mask[:-1]
    last = mask.copy()
    last[:-1] &= ~mask[1:]
    full = offs[1:] > offs[:-1]
    ds = offs[:-1][full]
    first[ds] = mask[ds]
    de = offs[1:][full] - 1
    last[de] = mask[de]
    return first, last


def _runs_binary(mask: np.ndarray, data: np.ndarray, offs: np.ndarray):
    """(runs per doc, run array) of every maximal run of ``mask`` bytes:
    the runs are contiguous slices of the compacted ``data[mask]``, so
    they wrap as one ``large_binary`` array without copying a string."""
    first, last = _run_bounds(mask, offs)
    start = np.flatnonzero(first)
    run_offs = np.zeros(len(start) + 1, np.int64)
    np.cumsum(np.flatnonzero(last) + 1 - start, out=run_offs[1:])
    runs = pa.Array.from_buffers(
        pa.large_binary(),
        len(start),
        [None, pa.py_buffer(run_offs), pa.py_buffer(data[mask])],
    )
    return _segsum(first, offs), runs


def _byte_counts(buf: np.ndarray, offs: np.ndarray, cls: np.ndarray):
    """(n_chars, n_nonws, n_digit, n_sym, n_words) per doc.
    Exact for valid UTF-8: every codepoint's start byte is counted
    once; non-ASCII codepoints are neither \\s, [0-9A-Za-z] nor [0-9],
    so they count as symbols — exactly RE2's view."""
    n_chars = np.diff(offs) - _segsum(cls >> _CONT & 1, offs)
    ws = _has(cls, _WS)
    n_ws = _segsum(ws, offs)
    n_digit = _segsum(cls >> _DIGIT & 1, offs)
    n_alnum = _segsum(cls >> _ALNUM & 1, offs)
    # a \S+ match starts at every non-ws byte after ws or a doc start
    # (a continuation byte always follows a non-ws byte)
    n_words = _segsum(_run_bounds(~ws, offs)[0], offs)
    return n_chars, n_chars - n_ws, n_digit, n_chars - n_ws - n_alnum, n_words


def is_pure_word(w: bytes) -> bool:
    """True when every byte is an RE2 \\w char — i.e. ``\\b(w)\\b``
    matches exactly where a maximal \\w+ run equals ``w``."""
    return all(_CLASS[b] >> _WORD & 1 for b in w)


# every dictionary the byte path counts words of: the stopwords and the
# langid profiles' pure-\w words ("für" has a non-ASCII byte, so it can
# only occur in docs the callers route to RE2)
_PROFILE_WORDS = [w.encode() for p in _PROFILES.values() for w in p.split("|")]
DICT_WORDS = pa.array(
    sorted({*_STOPWORDS, *filter(is_pure_word, _PROFILE_WORDS)}), pa.large_binary()
)


def dict_mask(words) -> np.ndarray:
    """Membership mask of ``words`` over DICT_WORDS."""
    return pc.is_in(DICT_WORDS, pa.array(list(words), pa.large_binary())).to_numpy(
        zero_copy_only=False
    )


def dict_word_hits(buf: np.ndarray, offs: np.ndarray, cls: np.ndarray):
    """(doc id, DICT_WORDS index) of every maximal lowercase \\w+ run
    that is a dictionary word.

    A ``\\b(word)\\b`` match of a pure-\\w word is EXACTLY a maximal
    \\w+ run equal to it (the boundaries force non-word chars on both
    sides), so dictionary-word counting — stopwords, language
    function-word profiles — reduces to one exact Arrow hash probe of
    the runs against DICT_WORDS. Doc boundaries split runs (RE2 matches
    are per-string). ASCII-exact; callers patch non-ASCII docs via
    RE2."""
    per_doc, runs = _runs_binary(_has(cls, _WORD), buf | (cls & 1 << _UPPER), offs)
    code = pc.index_in(runs, value_set=DICT_WORDS).fill_null(-1).to_numpy()
    hit = code >= 0
    return np.repeat(np.arange(len(per_doc)), per_doc)[hit], code[hit]


def count_dict_words(hits, member: np.ndarray, n: int) -> np.ndarray:
    """Per-doc count of the ``hits`` whose word is in ``member`` (a
    dict_mask)."""
    doc, code = hits
    return np.bincount(doc[member[code]], minlength=n).astype(np.int64)


# count_substring_regex(lower(text), \b(...)\b) becomes a dictionary
# count over \w+ runs (all stopwords are pure-\w). Exact for ASCII
# text; non-ASCII docs are patched via RE2 (which case-folds Unicode;
# the byte path can't).
_STOP_MASK = dict_mask(_STOPWORDS)


def _stats_columns(n_chars, n_words, n_nonws, n_digit, n_sym, stop_count):
    """Derived float columns — IEEE ops identical between both paths."""
    nw = n_words.astype(np.float64)
    nc = n_chars.astype(np.float64)
    safe_nw = np.where(n_words == 0, 1.0, nw)
    safe_nc = np.where(n_chars == 0, 1.0, nc)
    return [
        ("n_chars", pa.array(n_chars, pa.int64())),
        ("n_words", pa.array(n_words, pa.int64())),
        ("mean_word_len", pa.array(n_nonws.astype(np.float64) / safe_nw)),
        ("digit_frac", pa.array(n_digit.astype(np.float64) / safe_nc)),
        ("symbol_frac", pa.array(n_sym.astype(np.float64) / safe_nc)),
        ("stop_count", pa.array(stop_count, pa.int64())),
    ]


class ByteText:
    """Shared per-batch byte-path context: the string view, its byte
    class codes, and lazily cached byte counts and dictionary-word
    hits. Fused pipelines (the QualityScorer) build ONE of these per
    batch so textstats, repetition, stopword counting, langid and
    perplexity read the byte buffer through one classification instead
    of once per stage. ``view`` is None when the fast path can't apply
    (nulls / non-string column) — consumers fall back to RE2."""

    def __init__(self, text):
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        self.text = text
        self.view = _string_view(text)
        self.cls = None if self.view is None else np.take(_CLASS, self.view[0])
        self._counts = None
        self._runs = None

    @property
    def counts(self):
        """(n_chars, n_nonws, n_digit, n_sym, n_words) per doc."""
        if self._counts is None:
            self._counts = _byte_counts(*self.view, self.cls)
        return self._counts

    @property
    def runs(self):
        """(doc id, DICT_WORDS index) of every dictionary-word run."""
        if self._runs is None:
            self._runs = dict_word_hits(*self.view, self.cls)
        return self._runs


def compute_textstats(
    tbl: pa.Table, text_col: str = "text", ctx: "ByteText | None" = None
) -> pa.Table:
    """Append n_chars, n_words, mean_word_len, digit_frac, symbol_frac,
    stop_count columns. Byte fast path when the column is null-free;
    RE2 reference path otherwise. Outputs bit-identical either way."""
    if ctx is None:
        ctx = ByteText(tbl[text_col])
    text = ctx.text
    view = ctx.view
    if view is None:
        return _compute_textstats_re2(tbl, text_col)
    buf, offs = view
    n = len(text)
    n_chars, n_nonws, n_digit, n_sym, n_words = ctx.counts
    stop = count_dict_words(ctx.runs, _STOP_MASK, n)
    # RE2 (?i) does Unicode case-folding that ASCII lowering can't
    # reproduce (e.g. Kelvin sign → k): patch non-ASCII docs from the
    # reference kernel. byte_len == n_chars ⇔ pure ASCII.
    impure = np.flatnonzero(np.diff(offs) != n_chars)
    if len(impure):
        sub = text.take(pa.array(impure, pa.int64()))
        ref = pc.count_substring_regex(pc.utf8_lower(sub), STOPWORD_PATTERN)
        stop[impure] = ref.to_numpy(zero_copy_only=False).astype(np.int64)
    for name, col in _stats_columns(n_chars, n_words, n_nonws, n_digit, n_sym, stop):
        tbl = tbl.append_column(name, col)
    return tbl


def _compute_textstats_re2(tbl: pa.Table, text_col: str = "text") -> pa.Table:
    """Reference path: pyarrow.compute RE2 kernels, zero Python per
    row. Kept verbatim — the fast path is parity-tested against it."""
    text = tbl[text_col]
    n_chars = pc.utf8_length(text)
    n_words = pc.count_substring_regex(text, r"\S+")
    n_nonws = pc.count_substring_regex(text, r"\S")
    n_digit = pc.count_substring_regex(text, "[0-9]")
    n_sym = pc.count_substring_regex(text, r"[^0-9A-Za-z\s]")
    stop_count = pc.count_substring_regex(pc.utf8_lower(text), STOPWORD_PATTERN)

    nw = pc.cast(n_words, pa.float64())
    nc = pc.cast(n_chars, pa.float64())
    safe_nw = pc.if_else(pc.equal(n_words, 0), pa.scalar(1.0), nw)
    safe_nc = pc.if_else(pc.equal(n_chars, 0), pa.scalar(1.0), nc)
    mean_word_len = pc.divide(pc.cast(n_nonws, pa.float64()), safe_nw)
    digit_frac = pc.divide(pc.cast(n_digit, pa.float64()), safe_nc)
    symbol_frac = pc.divide(pc.cast(n_sym, pa.float64()), safe_nc)

    for name, col in [
        ("n_chars", pc.cast(n_chars, pa.int64())),
        ("n_words", pc.cast(n_words, pa.int64())),
        ("mean_word_len", mean_word_len),
        ("digit_frac", digit_frac),
        ("symbol_frac", symbol_frac),
        ("stop_count", pc.cast(stop_count, pa.int64())),
    ]:
        tbl = tbl.append_column(name, col)
    return tbl


def apply_quality_rules(tbl: pa.Table) -> pa.Table:
    """Append keep (bool) + drop_reason (string, null when kept) from
    the stat columns. Rule priority fixed; mirrored in oracle SQL."""
    n_words = tbl["n_words"]
    mwl = tbl["mean_word_len"]
    rules = [
        ("too_short", pc.less(n_words, MIN_WORDS)),
        ("too_long", pc.greater(n_words, MAX_WORDS)),
        (
            "word_len",
            pc.or_(pc.less(mwl, MIN_MEAN_WORD_LEN), pc.greater(mwl, MAX_MEAN_WORD_LEN)),
        ),
        ("no_stopwords", pc.less(tbl["stop_count"], MIN_STOPWORDS)),
        ("too_many_digits", pc.greater(tbl["digit_frac"], MAX_DIGIT_FRAC)),
        ("too_many_symbols", pc.greater(tbl["symbol_frac"], MAX_SYMBOL_FRAC)),
    ]
    reason = pa.nulls(len(tbl), pa.string())
    # apply in reverse so earlier rules take priority
    for name, mask in reversed(rules):
        reason = pc.if_else(mask, pa.scalar(name), reason)
    keep = pc.is_null(reason)
    tbl = tbl.append_column("keep", keep)
    tbl = tbl.append_column("drop_reason", reason)
    return tbl


MAX_DUP_2GRAM_FRAC = 0.4  # Gopher-style repetition cutoff (model rule)


def _rep_from_codes(codes, doc, lens, n):
    """Counting core shared by both repetition paths: given integer
    word codes, their doc ids, and per-doc token counts, compute
    dup_2gram_frac, the fraction of a doc's word 2-grams that repeat
    an earlier one. Grouping runs on a SINGLE composite int64 key
    sorted by value (np.sort, no permutation gathers) when the key
    fits 62 bits; exact lexsort fallback otherwise. Docs with < 2
    tokens contribute nothing."""
    dup2 = np.zeros(n)
    if len(codes) == 0:
        return dup2
    K = int(codes.max()) + 1

    # distinct (doc, w, w_next) runs
    valid = doc[:-1] == doc[1:]
    if valid.any():
        g_doc = doc[:-1][valid]
        g1 = codes[:-1][valid]
        g2 = codes[1:][valid]
        if n * K * K < 1 << 62:
            k2 = np.sort((g_doc * K + g1) * K + g2)
            gd = k2 // (K * K)
            new_g = np.empty(len(k2), dtype=bool)
            new_g[0] = True
            new_g[1:] = k2[1:] != k2[:-1]
        else:
            order = np.lexsort((g2, g1, g_doc))
            gd, a, b = g_doc[order], g1[order], g2[order]
            new_g = np.empty(len(gd), dtype=bool)
            new_g[0] = True
            new_g[1:] = (gd[1:] != gd[:-1]) | (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        # distinct grams per doc = sum of new_g over the doc's run
        gstarts = np.flatnonzero(
            np.concatenate([[True], gd[1:] != gd[:-1]])
        )
        distinct = np.add.reduceat(new_g.astype(np.int64), gstarts)
        gdoc = gd[gstarts]
        total = lens[gdoc] - 1
        dup2[gdoc] = 1.0 - distinct / total
    return dup2


def repetition_stats(texts: list[str]) -> np.ndarray:
    """Per-doc duplicate word-2gram fraction (Gopher-style) —
    reference path over Python strings (Arrow split + pandas
    factorize). Kept as the fallback and the parity target for the
    byte fast path below."""
    import pandas as pd

    n = len(texts)
    if n == 0:
        return np.zeros(0)
    # str.split() semantics: split on whitespace runs, no empty tokens
    la = pc.split_pattern(
        pc.utf8_trim_whitespace(
            pc.replace_substring_regex(pa.array(texts, pa.string()), r"\s+", " ")
        ),
        " ",
    )
    if isinstance(la, pa.ChunkedArray):
        la = la.combine_chunks()
    flat = la.flatten().to_pandas().to_numpy(dtype=object)
    offs = la.offsets.to_numpy().astype(np.int64)
    lens = np.diff(offs)
    # an empty/whitespace-only doc yields one "" token; docs with < 2
    # tokens contribute nothing (same skip as the per-doc loop)
    if len(flat) == 0:
        return np.zeros(n)
    codes, _ = pd.factorize(flat)
    codes = codes.astype(np.int64)
    doc = np.repeat(np.arange(n, dtype=np.int64), lens)
    return _rep_from_codes(codes, doc, lens, n)


def _repetition_fast(
    text: pa.Array, view, cls: "np.ndarray | None" = None
) -> np.ndarray:
    """Byte-path repetition stats: the \\S+ tokens are slices of the
    compacted non-ws bytes, wrapped as one ``large_binary`` array whose
    Arrow ``dictionary_encode`` gives exact dense token codes (bytes
    compared, no hash collisions), then the shared counting core.
    Tokens are byte-identical to the reference path for pure-ASCII docs
    without VT (0x0b, which utf8_trim_whitespace would strip at doc
    edges); other docs are patched from the reference."""
    buf, offs = view
    n = len(text)
    if cls is None:
        cls = np.take(_CLASS, buf)
    nonws = ~_has(cls, _WS)
    lens, toks = _runs_binary(nonws, buf, offs)
    if len(toks) == 0:
        return np.zeros(n)
    codes = pc.dictionary_encode(toks).indices.to_numpy().astype(np.int64)
    doc = np.repeat(np.arange(n, dtype=np.int64), lens)
    dup2 = _rep_from_codes(codes, doc, lens, n)

    # patch docs the byte tokenizer can't reproduce exactly
    idx = np.flatnonzero(_segsum(cls >> _IMPURE & 1, offs))
    if len(idx):
        sub = text.take(pa.array(idx, pa.int64())).to_pylist()
        dup2[idx] = repetition_stats(sub)
    return dup2


def add_repetition_stats(
    tbl: pa.Table, text_col: str = "text", ctx: "ByteText | None" = None
) -> pa.Table:
    if ctx is None:
        ctx = ByteText(tbl[text_col])
    text, view = ctx.text, ctx.view
    if view is None:
        dup2 = repetition_stats(text.to_pylist())
    else:
        dup2 = _repetition_fast(text, view, ctx.cls)
    return tbl.append_column("dup_2gram_frac", pa.array(dup2))
