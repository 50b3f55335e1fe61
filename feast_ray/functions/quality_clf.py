"""Trainable fastText-shape quality classifier (Joulin et al. 2016,
"Bag of Tricks for Efficient Text Classification"; the CCNet /
Llama-data "quality classifier" stage).

The north-star pipeline scores web pages with a *learned* linear
classifier over hashed n-gram features, typically distilled from
heuristic keep/drop labels or a curated seed corpus (reference analog:
the fastText langid/quality models the reference's materialization
feeds through ODFVs — `sdk/python/feast/transformation/pandas_transformation.py`
shape; the model itself has no reference implementation, it is an
extension-surface op per SURVEY.md §2).

Design — every piece reuses an existing doctrine:

* **Features**: hashed unigram+bigram counts into D buckets, the exact
  `dsir._doc_gram_buckets` tokenization + codepoint-Horner/splitmix64
  hash, so the SQL oracle re-derives bucket ids gram by gram.
* **Training** (logistic regression, full-batch GD): per-doc
  probabilities are computed independently per document (order-free);
  each doc's gradient contribution is QUANTIZED to int64
  (``round(2^24 · (p_d − y_d))`` per gram instance) before the
  cross-block sum, so the summed gradient — and therefore the whole
  training trajectory — is **bit-identical under any partitioning**
  (q73's dtype lesson + q92's integer-sum doctrine applied to SGD).
  The driver holds only the D-vector of weights; per-iteration
  partials are (bucket, g) sparse rows merged by `grouped_agg`.
* **Scoring** (the SQL-oracled part): weights quantize to int64
  (``λ[b] = round(2^20 · w[b])``), a document's score is the exact
  integer ``β + Σ_g λ[bucket(g)]`` via segment sums, keep = score > 0.
  DuckDB restates this verbatim from the dumped λ table (q92's shape).

Scale shape: training features for the (hash-sampled) train set are
extracted ONCE into a doc-atomic list-column dataset and materialized
— the train set is the bounded side (fastText practice: sample the
corpus, train in minutes), while scoring streams the full corpus with
one broadcast λ lookup per block. No stage materializes the corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from feast_ray.functions.dsir import _doc_gram_buckets

_GRAD_SCALE = float(1 << 24)
_W_SCALE = float(1 << 20)


def feature_rows(
    tbl: pa.Table, id_col: str, text_col: str, buckets: int, bucket_fn,
    label_fn,
) -> pa.Table:
    """Doc-atomic hashed-feature rows of one batch: (id int64, y int8,
    fb list<int32> bucket ids, ascending per doc, fc list<int32> their
    counts), from ``bucket_fn(tbl, text_col, buckets) -> (bucket per
    gram, per-doc gram offsets)`` and ``label_fn(tbl) -> int8 labels``,
    both called on non-empty batches only. ``clf_features`` and
    ``langid_features`` differ only in these two."""
    n = len(tbl)
    if n == 0:
        return pa.table({
            id_col: pa.array([], pa.int64()),
            "y": pa.array([], pa.int8()),
            "fb": pa.array([], pa.list_(pa.int32())),
            "fc": pa.array([], pa.list_(pa.int32())),
        })
    b, doc_offs = bucket_fn(tbl, text_col, buckets)
    doc_of = np.repeat(np.arange(n), np.diff(doc_offs))
    # aggregate counts per (doc, bucket); buckets ascending per doc
    key = doc_of.astype(np.int64) * buckets + b
    key.sort()
    uniq, cnt = np.unique(key, return_counts=True)
    ud = (uniq // buckets).astype(np.int64)
    ub = (uniq % buckets).astype(np.int32)
    offs = pa.array(np.searchsorted(ud, np.arange(n + 1)).astype(np.int32))
    return pa.table({
        id_col: tbl[id_col].cast(pa.int64()),
        "y": pa.array(label_fn(tbl)),
        "fb": pa.ListArray.from_arrays(offs, pa.array(ub)),
        "fc": pa.ListArray.from_arrays(offs, pa.array(cnt.astype(np.int32))),
    })


def clf_features(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    label_col: str = "label",
    text_col: str = "text",
    buckets: int = 4096,
) -> ray.data.Dataset:
    """One row per document: (id, y, buckets list<int32>, cnts
    list<int32>). Doc-atomic rows survive any later re-batching —
    a doc's features can never be split across batch boundaries."""

    def _labels(tbl: pa.Table) -> np.ndarray:
        return tbl[label_col].to_numpy(zero_copy_only=False).astype(np.int8)

    return ds.map_batches(
        lambda t: feature_rows(t, id_col, text_col, buckets,
                               _doc_gram_buckets, _labels),
        batch_format="pyarrow")


def _batch_scores(tbl: pa.Table, w: np.ndarray, bias: float) -> np.ndarray:
    """Float64 margin per doc from list-column features: per doc, the
    dot product is summed in bucket-ascending order (fixed by
    clf_features) via per-segment reduceat — NOT whole-batch cumsum
    differences, whose prefix rounding would leak across docs and make
    partition invariance hold only up to quantization luck."""
    fb = tbl["fb"].combine_chunks()
    fc = tbl["fc"].combine_chunks()
    flat_b = fb.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    flat_c = fc.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    offs = fb.offsets.to_numpy().astype(np.int64)
    vals = w[flat_b] * flat_c
    out = np.zeros(len(offs) - 1, np.float64)
    nonempty = np.flatnonzero(offs[1:] > offs[:-1])
    if len(nonempty):
        out[nonempty] = np.add.reduceat(vals, offs[:-1][nonempty])
    return bias + out


def clf_fit(
    feats: ray.data.Dataset,
    *,
    buckets: int = 4096,
    iters: int = 30,
    lr: float = 2.0,
    l2: float = 0.0,
    momentum: float = 0.9,
) -> "tuple[np.ndarray, float]":
    """Full-batch logistic regression over a (materialized) feature
    dataset. Returns (weights float64[buckets], bias). The gradient is
    an exact int64 sum of per-gram-instance quantized residuals —
    training is bit-deterministic regardless of block layout. Momentum
    is applied driver-side (a pure function of the exact gradient
    sequence), so it preserves partition invariance while cutting the
    iteration count several-fold versus plain GD."""
    from feast_ray.stages.aggregate import AggSpec, grouped_agg

    feats = feats.materialize()
    n_docs = feats.count()
    if n_docs == 0:
        return np.zeros(buckets, np.float64), 0.0
    w = np.zeros(buckets, np.float64)
    bias = 0.0
    vel = np.zeros(buckets + 1, np.float64)

    for _ in range(iters):
        wref = ray.put(w)
        b_now = bias

        def _grad(tbl: pa.Table, _w=wref, _b=b_now) -> pa.Table:
            if len(tbl) == 0:
                return pa.table({"bucket": pa.array([], pa.int64()),
                                 "g": pa.array([], pa.int64())})
            ww = ray.get(_w)
            m = _batch_scores(tbl, ww, _b)
            p = 1.0 / (1.0 + np.exp(-m))
            y = tbl["y"].to_numpy(zero_copy_only=False).astype(np.float64)
            qr = np.round(_GRAD_SCALE * (p - y)).astype(np.int64)
            fb = tbl["fb"].combine_chunks()
            flat_b = fb.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
            flat_c = (
                tbl["fc"].combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).astype(np.int64)
            )
            offs = fb.offsets.to_numpy().astype(np.int64)
            qr_inst = np.repeat(qr, np.diff(offs)) * flat_c
            acc = np.zeros(len(ww) + 1, np.int64)  # slot D = bias
            np.add.at(acc, flat_b, qr_inst)
            acc[len(ww)] = int(qr.sum())
            nz = np.flatnonzero(acc)
            return pa.table({"bucket": pa.array(nz, pa.int64()),
                             "g": pa.array(acc[nz], pa.int64())})

        part = grouped_agg(
            feats.map_batches(_grad, batch_format="pyarrow"),
            ["bucket"], [AggSpec("g", "sum", "g")],
        ).to_pandas()
        if len(part) == 0 or "bucket" not in part.columns:
            break  # every residual quantized to 0 — exact convergence
        g = np.zeros(buckets + 1, np.int64)
        g[part["bucket"].to_numpy()] = part["g"].to_numpy()
        gf = g.astype(np.float64) / _GRAD_SCALE / float(n_docs)
        gf[:buckets] += l2 * w
        vel = momentum * vel - lr * gf
        w = w + vel[:buckets]
        bias = bias + vel[buckets]
    return w, bias


def clf_quantize(w: np.ndarray, bias: float) -> "tuple[np.ndarray, int]":
    """int64 fixed-point weights for the exact scoring path:
    λ[b] = round(2^20·w[b]), β = round(2^20·bias)."""
    return (
        np.round(_W_SCALE * w).astype(np.int64),
        int(np.round(_W_SCALE * bias)),
    )


def clf_score(
    ds: ray.data.Dataset,
    lam: np.ndarray,
    beta: int,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Stream-score a corpus: exact int64 per-doc score
    β + Σ_g λ[bucket(g)] (segment sums over gram instances — the
    dsir_weights shape), keep = score > 0. One broadcast λ per run."""
    buckets = len(lam)
    lref = ray.put(lam)

    def _s(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "clf_score": pa.array([], pa.int64()),
                "clf_keep": pa.array([], pa.bool_()),
            })
        lam_ = ray.get(lref)
        b, doc_offs = _doc_gram_buckets(tbl, text_col, buckets)
        cs = np.concatenate([[0], np.cumsum(lam_[b])])
        s = (cs[doc_offs[1:]] - cs[doc_offs[:-1]]).astype(np.int64) + beta
        return pa.table({
            id_col: tbl[id_col].cast(pa.int64()),
            "clf_score": pa.array(s),
            "clf_keep": pa.array(s > 0),
        })

    return ds.map_batches(_s, batch_format="pyarrow")
