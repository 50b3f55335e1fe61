"""Exact distributed k-th order statistic (selection without sorting).

The calibration primitive a quality pipeline needs at 100 TB: "keep
the top p% by score" requires the exact p-quantile of a corpus-sized
score column — but a global ``sort`` is an all-to-all shuffle of
EVERYTHING, and sketch quantiles (q41) are approximate. This is the
classic iterative histogram-refinement selection: each round is one
streaming ``map_batches`` pass producing a 65 536-bucket partial
histogram per block plus a tiny driver-side cumulative scan, shrinking
the candidate value range 2^16-fold per round — ≤ 4 rounds for the
full int64 domain, and the final range is collected only when it holds
at most ``COLLECT_LIMIT`` rows. Exact, deterministic (pure integer
arithmetic), and never materializes more than one small range.

Ties: callers that need a total order encode it INTO the key (the
q109 pattern: ``key = (max−score) << 32 | doc_id`` makes keys unique,
so the k-th key IS the exact cut line — no residual tie handling).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

N_BUCKETS = 1 << 16
#: rows of the surviving value range that the final round collects
COLLECT_LIMIT = 1_000_000


def _range_pass(
    ds: ray.data.Dataset, col: str, lo: int, hi: int, bw: int
) -> np.ndarray:
    """One distributed pass: per-block bucket counts of values in
    [lo, hi], reduced driver-side (the partial rows are tiny —
    ≤ 65 536 per block, usually far fewer)."""

    def _hist(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
        v = v[(v >= lo) & (v <= hi)]
        if len(v) == 0:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        b = (v - lo) // bw
        counts = np.bincount(b)
        nz = np.nonzero(counts)[0]
        return pa.table({"bucket": pa.array(nz.astype(np.int64)),
                         "n": pa.array(counts[nz].astype(np.int64))})

    parts = ds.map_batches(_hist, batch_format="pyarrow").to_pandas()
    hist = np.zeros(N_BUCKETS, dtype=np.int64)
    if len(parts):
        np.add.at(hist, parts["bucket"].to_numpy(), parts["n"].to_numpy())
    return hist


def exact_kth(
    ds: ray.data.Dataset,
    col: str,
    k: int,
) -> int:
    """The k-th smallest (1-based) value of an int64 column, exact.

    O(rounds) streaming passes, each a map_batches histogram; the
    input Dataset is re-executed per pass, so pass a materialized
    Dataset when the upstream is expensive.
    """
    if k < 1:
        raise ValueError("k is 1-based")
    stats = ds.map_batches(
        lambda t: pa.table({
            "lo": pa.array([int(np.min(t[col].to_numpy(zero_copy_only=False)))]
                           if len(t) else [], pa.int64()),
            "hi": pa.array([int(np.max(t[col].to_numpy(zero_copy_only=False)))]
                           if len(t) else [], pa.int64()),
        }),
        batch_format="pyarrow",
    ).to_pandas()
    if not len(stats):
        raise ValueError("empty input")
    lo, hi = int(stats["lo"].min()), int(stats["hi"].max())
    target = k
    while True:
        width = hi - lo + 1
        bw = max(1, -(-width // N_BUCKETS))  # ceil
        hist = _range_pass(ds, col, lo, hi, bw)
        total = int(hist.sum())
        if target > total:
            raise ValueError(f"k={k} exceeds row count in range ({total})")
        cum = np.cumsum(hist)
        if bw == 1:  # buckets ARE values: answer directly
            return lo + int(np.searchsorted(cum, target))
        if total <= COLLECT_LIMIT:
            # final: collect the surviving range once and index into it
            def _collect(t: pa.Table, _lo=lo, _hi=hi) -> pa.Table:
                v = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
                return pa.table({col: pa.array(v[(v >= _lo) & (v <= _hi)])})

            vals = np.sort(
                ds.map_batches(_collect, batch_format="pyarrow")
                .to_pandas()[col].to_numpy())
            return int(vals[target - 1])
        b = int(np.searchsorted(cum, target))
        target -= int(cum[b - 1]) if b else 0
        lo, hi = lo + b * bw, min(hi, lo + (b + 1) * bw - 1)
