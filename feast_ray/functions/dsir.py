"""DSIR-style data selection via hashed n-gram importance weights
(Xie et al. 2023, "Data Selection for Language Models via Importance
Resampling").

The method: hash every word unigram/bigram of a document into D
buckets, model target and raw corpora as bucket multinomials, and
score each document by the log-likelihood ratio
``sum_g log(p_target[b(g)] / q_raw[b(g)])`` — documents that look like
the target domain score high, and top-k / sampled selection by that
weight picks a target-like subcorpus. The reference has no analog
(SURVEY.md §2 extension surface); this is a first-class LLM-pipeline
addition composing existing doctrines:

* tokenization mirrors `ngrams.py` (collapse whitespace → split) so
  the SQL oracle's ``regexp_extract_all(text, '\\S+')`` restates it;
* the gram hash is the codepoint Horner polynomial (FNV-64 prime,
  mod 2^64) + splitmix64 finalizer — EXACTLY `_HORNER_SQL` +
  `_splitmix64_sql` from the oracle helpers, so DuckDB re-derives
  bucket ids for every gram;
* log-ratios are QUANTIZED to int64 (``round(1e6 * ln(p/q))``) so
  per-doc weights are exact integer sums — order-free, bit-equal
  between numpy and SQL (q73's dtype lesson applied up front).

Scale shape: the fit is two streaming passes emitting (bucket,
partial-count) rows bounded by D per block (grouped_agg merges);
weighting is one pass with per-doc segment sums (np.add.reduceat);
selection is the existing per-block top-k + tiny merge. Nothing
materializes the corpus.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from feast_ray.functions.neardup import _splitmix64

_FNV = np.uint64(1099511628211)


def codepoint_hashes64(strs: np.ndarray) -> np.ndarray:
    """Vectorized Horner hash over UNICODE CODEPOINTS (init 0,
    ``h = h * FNV_PRIME + cp (mod 2^64)``), splitmix64-finalized —
    the exact engine twin of the oracle's `_HORNER_SQL` +
    `_splitmix64_sql` (which walk ``unicode(substr(s, i, 1))``).
    Grouped by string length so each group is a vectorized column
    sweep."""
    n = len(strs)
    out = np.zeros(n, np.uint64)
    if n == 0:
        return out
    lens = np.fromiter((len(s) for s in strs), np.int64, count=n)
    with np.errstate(over="ignore"):
        for L in np.unique(lens):
            if L == 0:
                continue
            sel = np.flatnonzero(lens == L)
            # utf-32-le gives one uint32 per codepoint
            buf = np.frombuffer(
                "".join(strs[i] for i in sel).encode("utf-32-le"), np.uint32
            ).reshape(len(sel), L).astype(np.uint64)
            h = np.zeros(len(sel), np.uint64)
            for j in range(L):
                h = h * _FNV + buf[:, j]
            out[sel] = h
    return _splitmix64(out)


def _doc_gram_buckets(
    tbl: pa.Table, text_col: str, buckets: int
) -> "tuple[np.ndarray, np.ndarray]":
    """(bucket ids of every unigram+bigram instance, per-doc offsets
    into that array). Tokenization mirrors ngrams._block_gram_counts;
    whitespace-only docs contribute no grams (the '' phantom token is
    filtered, matching regexp_extract_all('\\S+'))."""
    txt = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(tbl[text_col], r"\s+", " ")
    )
    la = pc.split_pattern(txt, " ").combine_chunks()
    flat = la.flatten().to_pandas().to_numpy(dtype=object)
    offs = la.offsets.to_numpy()
    lens = np.diff(offs)
    ends = np.repeat(offs[1:], lens)
    idx = np.arange(len(flat))
    uni = idx[flat != ""]
    bi = idx[idx + 1 < ends]
    grams = np.concatenate([flat[uni], flat[bi] + " " + flat[bi + 1]])
    owner_tok = np.concatenate([uni, bi])
    # owner doc of each token position
    doc_of_tok = np.repeat(np.arange(len(lens)), lens)
    owner = doc_of_tok[owner_tok] if len(owner_tok) else owner_tok
    order = np.argsort(owner, kind="stable")
    grams = grams[order]
    owner = owner[order]
    b = (codepoint_hashes64(grams) % np.uint64(buckets)).astype(np.int64)
    doc_offs = np.searchsorted(owner, np.arange(len(tbl) + 1))
    return b, doc_offs


def dsir_fit(
    target: ray.data.Dataset,
    raw: ray.data.Dataset,
    *,
    text_col: str = "text",
    buckets: int = 4096,
) -> np.ndarray:
    """Learn the quantized log-ratio table: int64 λ[b] =
    round(1e6 · ln(p_target[b] / q_raw[b])) with add-one smoothing
    over the D buckets. Two streaming count passes (per-block bincount
    partials → grouped_agg sum); the D-vector merge is driver-side
    (D ≪ corpus)."""
    from feast_ray.stages.aggregate import AggSpec, grouped_agg

    def _counts(ds: ray.data.Dataset) -> np.ndarray:
        def _part(tbl: pa.Table) -> pa.Table:
            if len(tbl) == 0:
                return pa.table({"bucket": pa.array([], pa.int64()),
                                 "n": pa.array([], pa.int64())})
            b, _ = _doc_gram_buckets(tbl, text_col, buckets)
            cnt = np.bincount(b, minlength=buckets)
            nz = np.flatnonzero(cnt)
            return pa.table({"bucket": pa.array(nz, pa.int64()),
                             "n": pa.array(cnt[nz], pa.int64())})

        merged = grouped_agg(
            ds.map_batches(_part, batch_format="pyarrow"),
            ["bucket"], [AggSpec("n", "sum", "n")],
        ).to_pandas()
        out = np.zeros(buckets, np.int64)
        out[merged["bucket"].to_numpy()] = merged["n"].to_numpy()
        return out

    ct = _counts(target).astype(np.float64)
    cr = _counts(raw).astype(np.float64)
    p = (ct + 1.0) / (ct.sum() + buckets)
    q = (cr + 1.0) / (cr.sum() + buckets)
    return np.round(1e6 * np.log(p / q)).astype(np.int64)


def dsir_weights(
    ds: ray.data.Dataset,
    lam: np.ndarray,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Per-document importance weight: exact int64 sum of λ over the
    doc's gram instances (segment sums — one pass, no Python rows).
    Output columns: (id_col, dsir_weight)."""
    import ray as _ray

    buckets = len(lam)
    lref = _ray.put(lam)

    def _w(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "dsir_weight": pa.array([], pa.int64())})
        lam_ = _ray.get(lref)
        b, doc_offs = _doc_gram_buckets(tbl, text_col, buckets)
        vals = lam_[b]
        cs = np.concatenate([[0], np.cumsum(vals)])
        w = cs[doc_offs[1:]] - cs[doc_offs[:-1]]
        return pa.table({
            id_col: tbl[id_col],
            "dsir_weight": pa.array(w.astype(np.int64)),
        })

    return ds.map_batches(_w, batch_format="pyarrow")


def dsir_select(
    ds: ray.data.Dataset,
    lam: np.ndarray,
    k: int,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Top-k most target-like documents by DSIR weight (weight desc,
    id asc tie-break) — per-block top-k + tiny merge, never a global
    sort."""
    from feast_ray.stages.relational import topk

    w = dsir_weights(ds, lam, id_col=id_col, text_col=text_col)
    return topk(w, ["dsir_weight", id_col], k, descending=[True, False])
