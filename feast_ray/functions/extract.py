"""HTML → text extraction, byte-stable.

The north rule's per-row invariant (BASELINE.json): extracted text per
url must be byte-identical to the reference extractor. This module IS
the pinned extractor implementation: a fixed, versioned parse of the
synthetic page layout produced by ``feast_ray.sources.webpages`` —
``<article>`` body paragraphs, entity-unescaped, joined with single
spaces; nav/footer boilerplate dropped. The pandas oracle in tests
re-implements it independently.

Stays on Arrow batches end to end (no pandas round trip — pandas
mangles binary/large-string columns; the reference hit exactly this,
dask.py:55-58).

EXTRACTOR_VERSION is recorded in lineage metadata so a version bump
invalidates downstream checkpoints (the reference pins extractor
behavior the same way its registry pins materialization intervals).
"""

from __future__ import annotations

import html as _html
import re

import numpy as np
import pyarrow as pa

EXTRACTOR_VERSION = "1.0.0"

_ARTICLE_RE = re.compile(r"<article>(.*?)</article>", re.S)
_PARA_RE = re.compile(r"<p>(.*?)</p>", re.S)


def extract_text(html_bytes: "bytes | None") -> str:
    """Extract body text from one page. Deterministic, versioned. A
    null page extracts to ``""``, as an empty one."""
    if html_bytes is None:
        return ""
    page = html_bytes.decode("utf-8", errors="replace")
    m = _ARTICLE_RE.search(page)
    if m is None:
        return ""
    paras = _PARA_RE.findall(m.group(1))
    return " ".join(_html.unescape(p) for p in paras)


def _hits(buf: np.ndarray, offs: np.ndarray, pat: bytes, at: "np.ndarray | None" = None):
    """(byte position, doc) of every occurrence of ``pat`` that lies
    inside one doc of the byte buffer ``buf`` (doc ``i`` is
    ``buf[offs[i]:offs[i + 1]]``), in buffer order; occurrences may
    overlap. One scan finds the candidate bytes equal to ``pat[0]``
    (``at`` passes them in when the caller already has them), and each
    further pattern byte narrows them; a match running past its doc's
    last byte is no match, as the Arrow kernels search per string."""
    if at is None:
        at = np.flatnonzero(buf == pat[0])
    at = at[at <= len(buf) - len(pat)]
    for j in range(1, len(pat)):
        at = at[buf[at + j] == pat[j]]
    doc = np.searchsorted(offs, at, "right") - 1
    inside = at + len(pat) <= offs[doc + 1]
    return at[inside], doc[inside]


def byte_find(buf, offs, pat: bytes, at=None) -> np.ndarray:
    """Per doc, the byte offset of the first ``pat`` in it, or -1:
    ``pc.find_substring`` over the doc offsets."""
    pos, doc = _hits(buf, offs, pat, at)
    first = np.ones(len(doc), bool)
    first[1:] = doc[1:] != doc[:-1]
    out = np.full(len(offs) - 1, -1, np.int64)
    out[doc[first]] = pos[first] - offs[doc[first]]
    return out


def byte_count(buf, offs, pat: bytes, at=None) -> np.ndarray:
    """Per doc count of ``pat``: ``pc.count_substring`` over the doc
    offsets. That kernel counts non-overlapping matches, which is
    every match only when no proper prefix of ``pat`` is also its
    suffix, so other patterns are refused."""
    if any(pat[:k] == pat[-k:] for k in range(1, len(pat))):
        raise ValueError(f"{pat!r} can overlap itself")
    return np.bincount(_hits(buf, offs, pat, at)[1], minlength=len(offs) - 1)


def _invalid_utf8(s: pa.Array) -> list:
    """The rows of the unvalidated ``large_string`` view ``s`` that are
    not valid UTF-8: one validation of the whole array, and a bisection
    of each part that fails."""
    try:
        s.validate(full=True)
        return []
    except pa.ArrowInvalid:
        if len(s) == 1:
            return [0]
        mid = len(s) // 2
        return _invalid_utf8(s[:mid]) + [mid + i for i in _invalid_utf8(s[mid:])]


# html.escape's exact output entities; &amp; must be undone LAST so
# escaped literals like "&amp;lt;" round-trip to "&lt;", not "<"
_UNESCAPE = [("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&#x27;", "'"), ("&amp;", "&")]


def extract_batch(tbl: pa.Table, html_col: str = "html", out_col: str = "extracted_text") -> pa.Table:
    """map_batches kernel (pyarrow in/out): html binary → extracted text.

    Vectorized fast path (numpy scans over the byte buffer and Arrow's
    ``replace_substring``, no regex and no Python loop): one scan for
    ``<`` bytes locates the first ``<article>`` and the first
    ``</article>`` of every page (:func:`byte_find`); pages whose body
    between them is the crawl template ``\\n<p>…</p>\\n`` have their
    paragraphs, without those fixed ends, gathered by one byte
    compaction into a ``large_string`` array; ``replace_substring``
    joins the paragraphs and an entity unescape chain that is the
    exact inverse of ``html.escape`` decodes them, and scans for
    ``<``, ``\\n`` and ``&`` bytes check that the template held and
    that every entity was one of html.escape's five. A page with no
    ``<article>`` or no ``</article>``, or a null page, extracts to
    ``""``. Pages with ``</article>`` before ``<article>``, bodies off
    the template, entities beyond html.escape's five, or html that
    isn't valid UTF-8 fall back, each on its own, to the row-at-a-time
    :func:`extract_text`, so the output is byte-identical to the
    reference path for EVERY input."""
    import pyarrow.compute as pc

    from feast_ray.functions.textstats import _string_view

    if len(tbl) == 0:
        return tbl.append_column(out_col, pa.array([], pa.string()))
    h = pc.cast(tbl[html_col], pa.large_binary()).combine_chunks()
    if h.null_count:
        h = pc.fill_null(h, b"")  # a null page extracts to "", as an empty one
    s = h.view(pa.large_string())
    buf, offs = _string_view(s)
    bad = np.zeros(len(h), bool)
    bad[_invalid_utf8(s)] = True
    lt = np.flatnonzero(buf == ord("<"))
    a = byte_find(buf, offs, b"<article>", lt)
    e = byte_find(buf, offs, b"</article>", lt)
    # paragraph bytes [start, stop): the body [a + 9, e) less its
    # template ends "\n<p>" and "</p>\n"
    start = offs[:-1] + a + len("<article>\n<p>")
    stop = offs[:-1] + e - len("</p>\n")
    found = (a >= 0) & (e >= 0)
    cand = np.flatnonzero(found & (stop >= start) & ~bad)
    head = buf[start[cand, None] + np.arange(-4, 0)]
    tail = buf[stop[cand, None] + np.arange(5)]
    fast = np.zeros(len(h), bool)
    fast[cand] = ((head == np.frombuffer(b"\n<p>", np.uint8)).all(1)
                  & (tail == np.frombuffer(b"</p>\n", np.uint8)).all(1))
    # one compaction: a keep mask of alternating gap / paragraph runs
    # over the byte buffer; rows off the fast path gather no bytes
    bounds = np.column_stack([start[fast], stop[fast]]).ravel()
    runs = np.diff(bounds, prepend=0, append=len(buf))
    kept = buf[np.repeat(np.arange(len(runs)) % 2 == 1, runs)]
    r_offs = np.zeros(len(h) + 1, np.int64)
    np.cumsum(np.where(fast, stop - start, 0), out=r_offs[1:])
    r = pa.Array.from_buffers(
        pa.large_string(), len(h), [None, pa.py_buffer(r_offs), pa.py_buffer(kept)]
    )
    r = pc.replace_substring(r, "</p>\n<p>", " ")
    # any residual tag/newline means non-template paragraph separators
    rbuf, roffs = _string_view(r)
    lt = np.flatnonzero(rbuf == ord("<"))
    ok = fast & (byte_count(rbuf, roffs, b"<p>", lt) + byte_count(rbuf, roffs, b"</p>", lt)
                 + byte_count(rbuf, roffs, b"\n") == 0)
    # the unescape chain inverts EXACTLY html.escape's five entities.
    # html.unescape also decodes OTHER entities — including
    # semicolon-less ones like "&lt" — so the fast path may only run
    # when EVERY "&" in the body starts one of the five known
    # entities; anything else (foreign entities, bare ampersands)
    # takes the html.unescape fallback. (Bare "&" would be unchanged
    # by both paths, but proving that per-form is fragile — fallback
    # is correct and only costs speed on non-template-escaped rows.)
    # The four entities before "&amp;" decode to no "&" and cannot
    # make or break an "&amp;", so after them the test is: every "&"
    # left starts "&amp;". A body with no "&" needs no unescape.
    if (rbuf == ord("&")).any():
        for ent, ch in _UNESCAPE[:-1]:
            r = pc.replace_substring(r, ent, ch)
        rbuf, roffs = _string_view(r)
        amp = np.flatnonzero(rbuf == ord("&"))
        ok &= byte_count(rbuf, roffs, b"&", amp) == byte_count(rbuf, roffs, b"&amp;", amp)
        r = pc.replace_substring(r, "&amp;", "&")
    # rows off the fast path hold "" here: either their page has no
    # article, or the fallback below overwrites them
    out = r.cast(pa.string())
    fb = (found & ~ok) | bad
    if fb.any():
        idx = np.flatnonzero(fb)
        texts = [extract_text(p) for p in h.take(pa.array(idx)).to_pylist()]
        out = pc.replace_with_mask(out, pa.array(fb), pa.array(texts, pa.string()))
    return tbl.append_column(out_col, out)
