"""Trainable fastText-shape multiclass language-ID classifier
(Joulin et al. 2016; the literal "fastText langid" of the north rule
— `lid.176` is exactly this: hashed character-n-gram features into a
linear softmax).

Extends the q93 binary quality classifier (quality_clf.py) to
multiclass softmax over hashed CHARACTER-BIGRAM features:

* **Features**: every adjacent codepoint pair of the raw text (spaces
  included — no tokenization step to disagree on). The bucket id is
  the 2-term Horner polynomial ``(cp_i · FNV + cp_{i+1}) mod 2^64``
  through the splitmix64 finalizer — the exact 2-character
  specialization of the catalog's `_HORNER_SQL` doctrine, so DuckDB
  re-derives every gram bucket with ``unicode(substr(text, i, 1))``
  walks. Extraction is one vectorized pass: the batch's texts are
  encoded to utf-32 once, bigrams are shifted slices, cross-document
  pairs masked out.
* **Training**: full-batch softmax regression; per-document residual
  vectors ``p − Y`` are quantized to int64 before the cross-block
  gradient sum, so training (driver-side momentum included) is
  bit-identical under any partitioning — q93's determinism doctrine
  lifted to K classes (gradient partials are (bucket, g_0..g_{K−1})
  rows merged by grouped_agg).
* **Scoring**: int64 fixed-point per-class scores
  ``β_k + Σ λ[bucket(g), k]`` (exact segment sums); the prediction is
  argmax with ties to the smallest class index — a total order DuckDB
  restates with one ``row_number() over (order by score desc, cls)``.

Scale shape: identical to quality_clf — the (sampled) training
features materialize once as doc-atomic list rows; scoring streams
the corpus with one broadcast Λ lookup; gradient traffic per
iteration is ≤ D·(K+1) ints per block.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from feast_ray.functions.dsir import _FNV
from feast_ray.functions.neardup import _splitmix64
from feast_ray.functions.quality_clf import feature_rows

_GRAD_SCALE = float(1 << 24)
_W_SCALE = float(1 << 20)


def char_bigram_buckets(
    tbl: pa.Table, text_col: str, buckets: int
) -> "tuple[np.ndarray, np.ndarray]":
    """(bucket id of every char bigram instance, per-doc offsets).
    One utf-32 encode per batch; bigrams are shifted slices with
    cross-doc pairs masked."""
    texts = tbl[text_col].to_pylist()
    n = len(texts)
    lens = np.fromiter(
        (len(t) if t is not None else 0 for t in texts), np.int64, count=n
    )
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, np.int64), np.zeros(n + 1, np.int64)
    cps = np.frombuffer(
        "".join(t or "" for t in texts).encode("utf-32-le"), np.uint32
    ).astype(np.uint64)
    ends = np.cumsum(lens)
    starts = ends - lens
    # bigram at global position i pairs (i, i+1); valid iff both fall
    # inside the same doc: i+1 < end_of_doc(i)
    doc_of = np.repeat(np.arange(n), lens)
    valid = np.zeros(total, bool)
    valid[: total - 1] = doc_of[: total - 1] == doc_of[1:]
    idx = np.flatnonzero(valid)
    with np.errstate(over="ignore"):
        h0 = cps[idx] * _FNV + cps[idx + 1]
    b = (_splitmix64(h0) % np.uint64(buckets)).astype(np.int64)
    owner = doc_of[idx]
    doc_offs = np.searchsorted(owner, np.arange(n + 1))
    return b, doc_offs


def langid_features(
    ds: ray.data.Dataset,
    classes: "list[str]",
    *,
    id_col: str = "doc_id",
    label_col: str = "lang",
    text_col: str = "text",
    buckets: int = 4096,
) -> ray.data.Dataset:
    """Doc-atomic feature rows: (id, y int8 class index, fb
    list<int32> bucket ids, fc list<int32> counts)."""
    cls_idx = {c: i for i, c in enumerate(classes)}

    def _labels(tbl: pa.Table) -> np.ndarray:
        return np.fromiter(
            (cls_idx[v] for v in tbl[label_col].to_pylist()),
            np.int8, count=len(tbl),
        )

    return ds.map_batches(
        lambda t: feature_rows(t, id_col, text_col, buckets,
                               char_bigram_buckets, _labels),
        batch_format="pyarrow")


def _doc_scores(tbl: pa.Table, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """(n_doc, K) float scores from list-column features: per doc, a
    fixed bucket-ascending accumulation order (set by langid_features)
    keeps the float sums deterministic under any batching."""
    fb = tbl["fb"].combine_chunks()
    flat_b = fb.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    flat_c = (
        tbl["fc"].combine_chunks().flatten()
        .to_numpy(zero_copy_only=False).astype(np.float64)
    )
    offs = fb.offsets.to_numpy().astype(np.int64)
    vals = w[flat_b] * flat_c[:, None]  # (n_inst, K)
    # per-segment reduceat (NOT whole-batch cumsum differences): each
    # doc's float sum must not depend on preceding docs' rounding, or
    # partition invariance would hold only up to quantization luck
    n_doc = len(offs) - 1
    out = np.zeros((n_doc, w.shape[1]), np.float64)
    nonempty = np.flatnonzero(offs[1:] > offs[:-1])
    if len(nonempty):
        out[nonempty] = np.add.reduceat(vals, offs[:-1][nonempty], axis=0)
    return bias[None, :] + out


def langid_fit(
    feats: ray.data.Dataset,
    n_classes: int,
    *,
    buckets: int = 4096,
    iters: int = 30,
    lr: float = 2.0,
    momentum: float = 0.9,
) -> "tuple[np.ndarray, np.ndarray]":
    """Full-batch softmax regression. Returns (W float64[buckets, K],
    bias float64[K]). Per-doc residuals quantize to int64 before the
    cross-block sum — the training trajectory is bit-identical under
    any partitioning (q93's doctrine, K classes)."""
    from feast_ray.stages.aggregate import AggSpec, grouped_agg

    feats = feats.materialize()
    n_docs = feats.count()
    K = n_classes
    w = np.zeros((buckets, K), np.float64)
    bias = np.zeros(K, np.float64)
    if n_docs == 0:
        return w, bias
    vel = np.zeros((buckets + 1, K), np.float64)
    gcols = [f"g{k}" for k in range(K)]

    for _ in range(iters):
        wref = ray.put((w, bias))

        def _grad(tbl: pa.Table, _w=wref) -> pa.Table:
            if len(tbl) == 0:
                return pa.table({"bucket": pa.array([], pa.int64()),
                                 **{c: pa.array([], pa.int64())
                                    for c in gcols}})
            ww, bb = ray.get(_w)
            s = _doc_scores(tbl, ww, bb)
            s = s - s.max(axis=1, keepdims=True)
            p = np.exp(s)
            p /= p.sum(axis=1, keepdims=True)
            y = tbl["y"].to_numpy(zero_copy_only=False).astype(np.int64)
            p[np.arange(len(y)), y] -= 1.0
            qr = np.round(_GRAD_SCALE * p).astype(np.int64)  # (n_doc, K)
            fb = tbl["fb"].combine_chunks()
            flat_b = fb.flatten().to_numpy(
                zero_copy_only=False).astype(np.int64)
            flat_c = (
                tbl["fc"].combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).astype(np.int64)
            )
            offs = fb.offsets.to_numpy().astype(np.int64)
            doc_of = np.repeat(
                np.arange(len(tbl)), np.diff(offs)
            )
            acc = np.zeros((len(ww) + 1, len(gcols)), np.int64)
            np.add.at(acc, flat_b, qr[doc_of] * flat_c[:, None])
            acc[len(ww)] = qr.sum(axis=0)
            nz = np.flatnonzero(acc.any(axis=1))
            return pa.table({
                "bucket": pa.array(nz, pa.int64()),
                **{c: pa.array(acc[nz, k], pa.int64())
                   for k, c in enumerate(gcols)},
            })

        part = grouped_agg(
            feats.map_batches(_grad, batch_format="pyarrow"),
            ["bucket"], [AggSpec(c, "sum", c) for c in gcols],
        ).to_pandas()
        if len(part) == 0 or "bucket" not in part.columns:
            break  # exact convergence
        g = np.zeros((buckets + 1, K), np.int64)
        rows = part["bucket"].to_numpy()
        for k, c in enumerate(gcols):
            g[rows, k] = part[c].to_numpy()
        gf = g.astype(np.float64) / _GRAD_SCALE / float(n_docs)
        vel = momentum * vel - lr * gf
        w = w + vel[:buckets]
        bias = bias + vel[buckets]
    return w, bias


def langid_quantize(
    w: np.ndarray, bias: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """int64 fixed-point (Λ[buckets, K], β[K])."""
    return (
        np.round(_W_SCALE * w).astype(np.int64),
        np.round(_W_SCALE * bias).astype(np.int64),
    )


def langid_predict(
    ds: ray.data.Dataset,
    lam: np.ndarray,
    beta: np.ndarray,
    classes: "list[str]",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    passthrough: "list[str] | None" = None,
) -> ray.data.Dataset:
    """Stream-predict: exact int64 per-class scores, argmax with ties
    to the smallest class index. Output: (id, *passthrough,
    pred_lang)."""
    buckets = lam.shape[0]
    lref = ray.put((lam, beta))
    cls_arr = np.asarray(classes, dtype=object)
    keep = list(passthrough or [])

    def _p(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                **{c: pa.array([], pa.string()) for c in keep},
                "pred_lang": pa.array([], pa.string()),
            })
        lam_, beta_ = ray.get(lref)
        b, doc_offs = char_bigram_buckets(tbl, text_col, buckets)
        vals = lam_[b]  # (n_inst, K) int64 — exact, any order
        cs = np.vstack([
            np.zeros((1, lam_.shape[1]), np.int64),
            np.cumsum(vals, axis=0),
        ])
        s = beta_[None, :] + cs[doc_offs[1:]] - cs[doc_offs[:-1]]
        pred = np.argmax(s, axis=1)  # first max = smallest class index
        return pa.table({
            id_col: tbl[id_col].cast(pa.int64()),
            **{c: tbl[c] for c in keep},
            "pred_lang": pa.array(cls_arr[pred], pa.string()),
        })

    return ds.map_batches(_p, batch_format="pyarrow")
