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

import pyarrow as pa

EXTRACTOR_VERSION = "1.0.0"

_ARTICLE_RE = re.compile(r"<article>(.*?)</article>", re.S)
_PARA_RE = re.compile(r"<p>(.*?)</p>", re.S)


def extract_text(html_bytes: bytes) -> str:
    """Extract body text from one page. Deterministic, versioned."""
    page = html_bytes.decode("utf-8", errors="replace")
    m = _ARTICLE_RE.search(page)
    if m is None:
        return ""
    paras = _PARA_RE.findall(m.group(1))
    return " ".join(_html.unescape(p) for p in paras)


def _extract_rows(tbl: pa.Table, html_col: str, out_col: str) -> pa.Table:
    """Row-at-a-time reference path (also the oracle for the fast path)."""
    texts = [extract_text(h) for h in tbl[html_col].to_pylist()]
    return tbl.append_column(out_col, pa.array(texts, pa.string()))


# html.escape's exact output entities; &amp; must be undone LAST so
# escaped literals like "&amp;lt;" round-trip to "&lt;", not "<"
_UNESCAPE = [("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&#x27;", "'"), ("&amp;", "&")]


def extract_batch(tbl: pa.Table, html_col: str = "html", out_col: str = "extracted_text") -> pa.Table:
    """map_batches kernel (pyarrow in/out): html binary → extracted text.

    Vectorized fast path (Arrow substring kernels and numpy over the
    byte buffer, no regex and no Python loop): ``find_substring``
    locates the first ``<article>`` and the first ``</article>``; pages
    whose body between them is the crawl template
    ``\\n<p>…</p>\\n`` have their paragraphs, without those fixed
    ends, gathered by one byte compaction into a ``large_string``
    array; ``replace_substring`` joins the paragraphs and an entity
    unescape chain that is the exact inverse of ``html.escape`` decodes
    them. A page with no ``<article>`` or no ``</article>`` extracts to
    ``""``. Pages with ``</article>`` before ``<article>``, bodies off
    the template, entities beyond html.escape's five, or html that
    isn't valid UTF-8 fall back to the row-at-a-time
    :func:`extract_text`, so the output is byte-identical to the
    reference path for EVERY input."""
    import numpy as np
    import pyarrow.compute as pc

    from feast_ray.functions.textstats import _string_view

    if len(tbl) == 0:
        return tbl.append_column(out_col, pa.array([], pa.string()))
    try:
        s = pc.cast(tbl[html_col], pa.large_string())
    except pa.ArrowInvalid:
        return _extract_rows(tbl, html_col, out_col)
    s = s.combine_chunks()
    if s.null_count:
        s = pc.fill_null(s, "")  # a null page extracts to "", as an empty one
    buf, offs = _string_view(s)
    a = pc.find_substring(s, "<article>").to_numpy()
    e = pc.find_substring(s, "</article>").to_numpy()
    # paragraph bytes [start, stop): the body [a + 9, e) less its
    # template ends "\n<p>" and "</p>\n"
    start = offs[:-1] + a + len("<article>\n<p>")
    stop = offs[:-1] + e - len("</p>\n")
    found = (a >= 0) & (e >= 0)
    cand = np.flatnonzero(found & (stop >= start))
    head = buf[start[cand, None] + np.arange(-4, 0)]
    tail = buf[stop[cand, None] + np.arange(5)]
    fast = np.zeros(len(s), bool)
    fast[cand] = ((head == np.frombuffer(b"\n<p>", np.uint8)).all(1)
                  & (tail == np.frombuffer(b"</p>\n", np.uint8)).all(1))
    # one compaction: a keep mask of alternating gap / paragraph runs
    # over the byte buffer; rows off the fast path gather no bytes
    bounds = np.column_stack([start[fast], stop[fast]]).ravel()
    runs = np.diff(bounds, prepend=0, append=len(buf))
    kept = buf[np.repeat(np.arange(len(runs)) % 2 == 1, runs)]
    r_offs = np.zeros(len(s) + 1, np.int64)
    np.cumsum(np.where(fast, stop - start, 0), out=r_offs[1:])
    r = pa.Array.from_buffers(
        pa.large_string(), len(s), [None, pa.py_buffer(r_offs), pa.py_buffer(kept)]
    )
    r = pc.replace_substring(r, "</p>\n<p>", " ")
    # any residual tag/newline means non-template paragraph separators
    clean = pc.invert(
        pc.or_(pc.match_substring(r, "<p>"),
               pc.or_(pc.match_substring(r, "</p>"), pc.match_substring(r, "\n")))
    )
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
    # left starts "&amp;".
    for ent, ch in _UNESCAPE[:-1]:
        r = pc.replace_substring(r, ent, ch)
    clean = pc.and_(clean, pc.equal(pc.count_substring(r, "&"),
                                    pc.count_substring(r, "&amp;")))
    r = pc.replace_substring(r, "&amp;", "&")
    ok = fast & clean.to_numpy(zero_copy_only=False)
    # rows off the fast path hold "" here: either their page has no
    # article, or the fallback below overwrites them
    out = r.cast(pa.string())
    fb = found & ~ok
    if fb.any():
        idx = np.flatnonzero(fb)
        vals = out.to_pylist()
        htmls = tbl[html_col].take(pa.array(idx)).to_pylist()
        for i, h in zip(idx, htmls):
            vals[i] = extract_text(h)
        out = pa.array(vals, pa.string())
    return tbl.append_column(out_col, out)
