"""Mergeable sketches: HyperLogLog distinct counts and sample-based
quantiles as two-phase distributed aggregates.

The guide's sketch pattern (and the scale rationale): emit ONE small
mergeable summary per (key, block) inside ``map_batches``, shuffle only
the summaries, merge per key. Exact ``count_distinct`` must move every
distinct value through the shuffle; these move kilobytes per key.

- HLL: 2^P registers (P=12 → ~1.6% relative error), hash =
  Horner+splitmix64 (process-stable, SQL-reconstructable — q40's
  oracle). Registers merge by elementwise max.
- Quantiles: fixed-size uniform sample per block (deterministic
  position-based thinning, no RNG), merged then thinned again —
  a simple mergeable quantile summary in the KLL spirit.

Both run partial → ``bucketed_group_reduce`` merge (only the
summaries move through the exchange).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

HLL_P = 12
HLL_M = 1 << HLL_P
_ALPHA = 0.7213 / (1 + 1.079 / HLL_M)


def _hash64(series: pd.Series) -> np.ndarray:
    """64-bit value digests: polynomial (Horner/FNV-prime) hash over
    the str() bytes + splitmix64 finalizer — process-stable AND
    reconstructable in SQL HUGEINT arithmetic, which is what lets the
    HLL estimate itself be oracle-checked (q40). Round 1 used pandas
    siphash, which SQL cannot reproduce."""
    from feast_ray.functions.neardup import word_hashes64

    return word_hashes64(series.astype(str).tolist())


def hll_sketch(values: pd.Series) -> np.ndarray:
    """uint8[HLL_M] register array for one batch of values."""
    h = _hash64(values)
    idx = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    bits = h << np.uint64(HLL_P)  # remaining 64-P bits, left-aligned
    # rank = (leading zeros of `bits` in a 64-bit window) + 1, capped;
    # vectorized via the float exponent: floor(log2(x)) = 63 - lz
    nonzero = bits != 0
    fl = np.zeros(len(h), dtype=np.float64)
    fl[nonzero] = np.floor(np.log2(bits[nonzero].astype(np.float64)))
    lead = np.where(nonzero, 63 - fl.astype(np.int64), 64 - HLL_P)
    rank = (lead + 1).clip(1, 64 - HLL_P + 1).astype(np.uint8)
    regs = np.zeros(HLL_M, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    m = float(HLL_M)
    est = _ALPHA * m * m / np.power(2.0, -regs.astype(np.float64)).sum()
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # small-range correction
    return float(est)


def approx_count_distinct(
    ds: ray.data.Dataset,
    keys: list[str],
    col: str,
    alias: str = "approx_distinct",
) -> ray.data.Dataset:
    """Per-key approximate distinct count of ``col`` (±~1.6%)."""
    from feast_ray.stages.dedup import bucketed_group_reduce

    def _partial(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        rows = []
        for kv, grp in df.groupby(keys, sort=False, dropna=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            rows.append((*kv, hll_sketch(grp[col]).tobytes()))
        out = pd.DataFrame(rows, columns=[*keys, "__hll"])
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    partials = ds.map_batches(_partial, batch_format="pyarrow")

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, grp in df.groupby(keys, sort=False, dropna=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            regs = np.zeros(HLL_M, dtype=np.uint8)
            for blob in grp["__hll"]:
                regs = np.maximum(regs, np.frombuffer(blob, dtype=np.uint8))
            rows.append((*kv, int(round(hll_estimate(regs)))))
        out = pd.DataFrame(rows, columns=[*keys, alias])
        return out.astype({**df.dtypes[keys].to_dict(), alias: "int64"})

    return bucketed_group_reduce(partials, keys, _merge)


QUANTILE_SAMPLE = 2048


def _thin(values: np.ndarray, cap: int = QUANTILE_SAMPLE) -> np.ndarray:
    """Deterministic uniform thinning: sort + evenly spaced positions
    (no RNG — resumable runs must reproduce)."""
    v = np.sort(values)
    if len(v) <= cap:
        return v
    pos = np.linspace(0, len(v) - 1, cap).round().astype(np.int64)
    return v[pos]


def approx_quantiles(
    ds: ray.data.Dataset,
    keys: list[str],
    col: str,
    qs: list[float],
) -> ray.data.Dataset:
    """Per-key approximate quantiles of ``col`` from merged per-block
    uniform samples. Output columns: keys + q_<fraction…>."""
    from feast_ray.stages.dedup import bucketed_group_reduce

    def _partial(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        rows = []
        for kv, grp in df.groupby(keys, sort=False, dropna=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            sample = _thin(grp[col].to_numpy(dtype=np.float64))
            rows.append((*kv, sample.tobytes(), len(grp)))
        out = pd.DataFrame(rows, columns=[*keys, "__sample", "__n"])
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    partials = ds.map_batches(_partial, batch_format="pyarrow")
    qcols = [f"q_{str(q).replace('.', '_')}" for q in qs]

    def _weighted_quantiles(vals: np.ndarray, w: np.ndarray) -> list:
        """Type-7 quantiles when every weight is 1 (the unthinned case
        — bit-identical to np.quantile); weighted interpolation over
        the cumulative-weight positions otherwise (each block sample
        value represents n_block/len(sample) source rows — round 1
        merged capped samples UNWEIGHTED, letting a 10-row block count
        as much as a thinned 1M-row block)."""
        if len(vals) == 0:
            return [np.nan] * len(qs)
        order = np.argsort(vals, kind="stable")
        v, ww = vals[order], w[order]
        if np.all(ww == 1.0):
            return list(np.quantile(v, qs))
        cw = np.cumsum(ww)
        total = cw[-1]
        # positions of sorted values in [0, 1] — weighted analog of i/(n-1)
        pos = (cw - ww) / (total - ww[-1]) if total > ww[-1] else np.zeros(len(v))
        return [float(np.interp(q, pos, v)) for q in qs]

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, grp in df.groupby(keys, sort=False, dropna=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            samples = [np.frombuffer(b, dtype=np.float64) for b in grp["__sample"]]
            ns = grp["__n"].to_numpy(dtype=np.float64)
            merged = np.concatenate(samples) if samples else np.array([])
            weights = (
                np.concatenate(
                    [np.full(len(s), n / max(len(s), 1)) for s, n in zip(samples, ns)]
                )
                if samples
                else np.array([])
            )
            rows.append((*kv, *_weighted_quantiles(merged, weights)))
        out = pd.DataFrame(rows, columns=[*keys, *qcols])
        return out.astype({**df.dtypes[keys].to_dict(),
                           **dict.fromkeys(qcols, "float64")})

    return bucketed_group_reduce(partials, keys, _merge)


def misra_gries_block(values: "pd.Series", capacity: int) -> pd.Series:
    """Misra–Gries summary of one block: at most ``capacity`` items
    with lower-bound counters (undercount ≤ block_n / capacity).
    Vectorized: exact value_counts, keep top-``capacity`` counters,
    subtract the (capacity+1)-th count (the MG decrement batched)."""
    vc = values.value_counts()
    if len(vc) <= capacity:
        return vc
    cut = vc.iloc[capacity]
    out = (vc.iloc[:capacity] - cut)
    return out[out > 0]


def heavy_hitters(
    ds: ray.data.Dataset,
    col: str,
    k: int = 10,
    *,
    capacity: int = 1024,
) -> ray.data.Dataset:
    """EXACT global top-``k`` of an UNBOUNDED-vocabulary column in
    bounded memory — the frequent-items complement of the HLL/quantile
    sketches: a Misra–Gries pass bounds the candidate set, an exact
    recount pass restores true counts.

    Pass 1 ships ≤ ``capacity`` (item, lower-bound) rows per block —
    bounded regardless of vocabulary size (where ``ngram_top``'s exact
    shuffle carries every distinct item). Merged lower bounds satisfy
    lb(x) ≥ f_x − N/(capacity+1) (summed per-block MG undercount), and
    the recount pass keeps the top ``2·capacity`` candidates by lb:
    the m-th largest lb is ≤ N/m (Σlb ≤ N), so any item with
    lb_x > N/(2·capacity) — i.e. true frequency
    f_x > N/(2·capacity) + N/(capacity+1) < 1.5·N/capacity — is
    guaranteed to survive the cut. The result therefore equals the
    exact top-k whenever the k-th frequency clears 1.5·N/capacity;
    size ``capacity`` ≥ 2N/f_k for a comfortable margin. (Keeping only
    top-``capacity`` would weaken this to f_k > 2N/capacity — an item
    can trail ``capacity`` others whose lbs each reach N/capacity.)
    Pass 2 is plain operator composition — ``semi_join`` (broadcast
    candidate probe) + ``top_frequencies`` (two-phase exact count) —
    so reported counts carry no sketch error.
    Output: (item, n), count desc / item asc, exactly k rows (fewer if
    the column has < k distinct candidates). Triggers execution of
    pass 1 at call time; pass 2 streams."""
    import pyarrow.compute as pc
    import ray as _ray

    from feast_ray.stages.relational import topk

    def _partial(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return pa.table(
                {"item": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        mg = misra_gries_block(
            pd.Series(tbl[col].to_pylist()).astype(str), capacity
        )
        return pa.table(
            {
                "item": pa.array(mg.index.to_numpy(dtype=object), pa.string()),
                "n": pa.array(mg.to_numpy(), pa.int64()),
            }
        )

    from feast_ray.stages.dedup import bucketed_group_reduce
    from feast_ray.stages.join import semi_join
    from feast_ray.stages.relational import top_frequencies

    # merge block summaries DISTRIBUTED (repo merge doctrine: the
    # driver never sees the unreduced union), then keep the top
    # ``2·capacity`` by summed lower bound — the 2c-th largest lb is
    # ≤ N/(2c), so an item evicted here has f ≤ N/(2c) + N/(c+1)
    # (see docstring for the resulting exactness regime). Driver
    # materializes ≤ 2·capacity rows.
    counts1 = bucketed_group_reduce(
        ds.map_batches(_partial, batch_format="pyarrow"),
        ["item"],
        lambda df: df.groupby("item", as_index=False, sort=False)["n"].sum()
        if "item" in df.columns and len(df)
        else pd.DataFrame({"item": [], "n": []}),
    )
    cand = topk(
        counts1, ["n", "item"], max(2 * capacity, k), descending=[True, False]
    ).to_pandas()
    items = (
        cand["item"].tolist() if "item" in cand.columns else []
    )
    if not items:
        return ray.data.from_arrow(
            pa.table(
                {"item": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        )

    # pass 2: exact recount restricted to the candidates — plain
    # operator composition (semi_join broadcast probe + two-phase
    # top_frequencies; identical count-desc/item-asc tie-break)
    ds_items = ds.map_batches(
        lambda t: pa.table(
            {"item": pa.array(
                pd.Series(t[col].to_pylist()).astype(str).to_numpy(
                    dtype=object
                ),
                pa.string(),
            )}
        ),
        batch_format="pyarrow",
    )
    hit = semi_join(ds_items, items, on="item")
    return top_frequencies(hit, "item", k)
