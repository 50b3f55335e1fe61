"""Content-defined chunking (gear-hash CDC) + chunk-level dedup.

The storage-style dedup primitive (FastCDC, Xia et al. 2016; used by
backup/dedup systems and by web-corpus pipelines to measure and strip
shared boilerplate at sub-document granularity): chunk boundaries are
chosen where a rolling gear hash of the content hits a mask, so an
INSERTION near the start of a document only perturbs the chunks it
touches — unlike fixed-size chunking, where every downstream chunk
shifts (tested: ``test_cdc.py`` insertion-resistance).

Text-domain variant: the gear register rolls over UNICODE CODEPOINTS
(not bytes) so every boundary is character-safe — which also makes
the chunk content SQL-addressable (``substring(text, start+1, len)``
is char-based in DuckDB, and ``md5(VARCHAR)`` hashes its UTF-8 bytes,
matching ``hashlib.md5(chunk.encode())``). The q107 oracle dumps only
the BOUNDARIES from a sequential recompute (chunking is a pure
per-document function, so distributed == sequential under any
partitioning); every chunk HASH and the whole dedup aggregation are
INDEPENDENTLY re-derived in SQL.

Determinism: the gear table is splitmix64(0..255) (no magic
constants); the register is the standard ``h = (h << 1) + gear[c]``
mod 2^64 from the start of each document — bits shift out after 64
steps, so the hash is an exact 64-codepoint window, computed here
VECTORIZED over the whole batch (64 shifted adds over the padded
concatenation, not a per-character Python loop).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from feast_ray.functions.neardup import _splitmix64

GEAR = _splitmix64(np.arange(256, dtype=np.uint64))

WINDOW = 64  # implicit gear window (register width / shift 1)


def _gear_hash_concat(cps: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Rolling gear register per document, vectorized across the
    batch: documents are padded with WINDOW zero-contribution slots so
    no register state crosses a document boundary; h[i] =
    Σ_{k<64} gear[c_{i−k}] << k with out-of-doc terms zero — exactly
    the sequential ``h = (h<<1) + gear[c]`` from each doc's start."""
    n_docs = len(lens)
    padded = int(lens.sum()) + WINDOW * n_docs
    g = np.zeros(padded, dtype=np.uint64)
    # scatter doc codepoints after a WINDOW-slot pad per doc
    starts = WINDOW + np.concatenate(([0], np.cumsum(lens + WINDOW)[:-1]))
    pos = np.repeat(starts, lens) + _ranges(lens)
    g[pos] = GEAR[(cps & np.uint64(255)).astype(np.int64)]
    h = np.zeros(padded, dtype=np.uint64)
    for k in range(WINDOW):
        h[k:] += g[: padded - k] << np.uint64(k)
    return h[pos]  # per-codepoint register values, doc-concatenated


def _ranges(lens: np.ndarray) -> np.ndarray:
    """[0..l0-1, 0..l1-1, ...] without a Python loop."""
    total = int(lens.sum())
    out = np.arange(total, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    return out - np.repeat(starts, lens)


def cdc_chunk_spans(
    texts: list[str],
    *,
    mask_bits: int = 8,
    min_size: int = 32,
    max_size: int = 1024,
) -> list[list[tuple[int, int]]]:
    """Per text → list of (start, length) chunk spans in CHARACTERS.

    Boundary rule (stated precisely so the oracle can trust the dump):
    cut AFTER codepoint i when the TOP ``mask_bits`` bits of the gear
    register are zero (gear pushes history upward, so the top bits see
    the full 64-codepoint window — the FastCDC high-mask convention)
    and the running chunk has ≥ min_size codepoints; a cut is FORCED
    every max_size codepoints without a mask hit; the remainder is the
    final chunk (empty documents yield one empty chunk). Pure
    per-document function.
    """
    lens = np.array([len(t) for t in texts], dtype=np.int64)
    if lens.sum() == 0:
        return [[(0, 0)] for _ in lens]
    cps = np.frombuffer("".join(texts).encode("utf-32-le"), np.uint32)
    h = _gear_hash_concat(cps, lens)
    hits = (h >> np.uint64(64 - mask_bits)) == 0
    out: list[list[tuple[int, int]]] = []
    off = 0
    for ln in lens.tolist():
        cand = np.nonzero(hits[off:off + ln])[0] + 1  # cut AFTER i
        spans: list[tuple[int, int]] = []
        last = 0
        for c in cand.tolist():
            while c - last > max_size:
                spans.append((last, max_size))
                last += max_size
            if c - last >= min_size:
                spans.append((last, c - last))
                last = c
        while ln - last > max_size:
            spans.append((last, max_size))
            last += max_size
        if ln > last or ln == 0:
            spans.append((last, ln - last))
        out.append(spans)
        off += ln
    return out


def cdc_chunks(
    tbl: pa.Table,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    mask_bits: int = 8,
    min_size: int = 32,
    max_size: int = 1024,
    carry: tuple[str, ...] = (),
) -> pa.Table:
    """map_batches kernel: documents → chunk rows
    (doc_id, chunk_idx, start, length, chunk_hash[, carry...])."""
    texts = [t if t is not None else "" for t in tbl[text_col].to_pylist()]
    spans = cdc_chunk_spans(texts, mask_bits=mask_bits,
                            min_size=min_size, max_size=max_size)
    ids = tbl[id_col].to_pylist()
    carry_vals = {c: tbl[c].to_pylist() for c in carry}
    o_id, o_idx, o_st, o_ln, o_h = [], [], [], [], []
    o_carry: dict[str, list] = {c: [] for c in carry}
    for row, (text, sp) in enumerate(zip(texts, spans)):
        for ci, (st, ln) in enumerate(sp):
            o_id.append(ids[row])
            o_idx.append(ci)
            o_st.append(st)
            o_ln.append(ln)
            o_h.append(hashlib.md5(text[st:st + ln].encode("utf-8")).hexdigest())
            for c in carry:
                o_carry[c].append(carry_vals[c][row])
    cols = {
        id_col: pa.array(o_id, pa.int64()),
        "chunk_idx": pa.array(o_idx, pa.int64()),
        "start": pa.array(o_st, pa.int64()),
        "length": pa.array(o_ln, pa.int64()),
        "chunk_hash": pa.array(o_h, pa.string()),
    }
    for c in carry:
        cols[c] = pa.array(o_carry[c])
    return pa.table(cols)
