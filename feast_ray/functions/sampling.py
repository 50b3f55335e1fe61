"""Training-data sampling operators.

``budget_sample``: per group, keep the best-scoring documents whose
cumulative token count stays within a budget — the standard corpus-
construction step ("N tokens per domain/language, best first"). SQL
semantics: ``sum(tokens) OVER (PARTITION BY group ORDER BY score DESC,
id) <= budget`` — which is exactly what the DuckDB oracle for q43
states, so the operator is exact, not approximate.

Execution shape: bucket the groups by hash (``bucketed_group_reduce``),
one vectorized pandas sort+cumsum per bucket. Deterministic tie-break
by id.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data


def sample_by_hash(
    ds: ray.data.Dataset,
    key: str,
    frac: float,
    salt: str = "",
) -> ray.data.Dataset:
    """Deterministic fraction sampling: keep a row iff
    ``siphash(key + salt) < frac * 2^64``. Unlike ``random_sample``,
    the same key always lands on the same side — reruns, resumed jobs
    and train/held-out splits stay consistent across processes and
    cluster sizes (no RNG state). ``salt`` derives independent splits
    from the same keys. The digest is Horner+splitmix64 (the engine's
    SQL-reconstructable hash), so sampling decisions themselves are
    oracle-checkable (q50)."""
    import numpy as np

    from feast_ray.functions.neardup import word_hashes64

    # clamp: frac=1.0 (keep everything) would round to 2^64, which
    # overflows uint64 (code-review r2 finding)
    threshold = np.uint64(min(int(frac * float(2**64 - 1)), 2**64 - 1))

    def _filter(tbl: pa.Table) -> pa.Table:
        vals = [str(v) + salt for v in tbl.column(key).to_pylist()]
        h = word_hashes64(vals)
        return tbl.filter(pa.array(h < threshold))

    return ds.map_batches(_filter, batch_format="pyarrow")


def stratified_sample(
    ds: ray.data.Dataset,
    group: str,
    fracs: "dict[str, float]",
    key: str,
    *,
    default_frac: float = 0.0,
    salt: str = "",
) -> ray.data.Dataset:
    """Per-group deterministic sampling — the training-mix primitive
    ("keep 100% of books, 10% of common-crawl"): a row survives iff
    ``digest(key+salt) < frac[group] * 2^64``. Same determinism
    properties as :func:`sample_by_hash`; groups absent from ``fracs``
    get ``default_frac``."""
    import numpy as np
    import ray as _ray

    from feast_ray.functions.neardup import word_hashes64

    thresholds = {
        g: np.uint64(min(int(f * float(2**64 - 1)), 2**64 - 1))
        for g, f in fracs.items()
    }
    tdefault = np.uint64(min(int(default_frac * float(2**64 - 1)), 2**64 - 1))
    ref = _ray.put(thresholds)

    def _filter(tbl: pa.Table) -> pa.Table:
        th = _ray.get(ref)
        vals = [str(v) + salt for v in tbl.column(key).to_pylist()]
        h = word_hashes64(vals)
        groups = tbl.column(group).to_pylist()
        lim = np.array([th.get(g, tdefault) for g in groups], dtype=np.uint64)
        return tbl.filter(pa.array(h < lim))

    return ds.map_batches(_filter, batch_format="pyarrow")


def rebalance_mix(
    ds: ray.data.Dataset,
    group: str,
    weights: "dict[str, int]",
    key: str,
    *,
    salt: str = "",
) -> ray.data.Dataset:
    """Resample to a TARGET mix (DoReMi/Pile-style domain weighting):
    given integer weights per group, keep the largest corpus whose
    group proportions match ``weights`` — the per-group keep fractions
    are DERIVED from the corpus counts, unlike :func:`stratified_sample`
    where the caller states them.

    Exact integer semantics (no float thresholds, so the decision set
    is SQL-oracle-reproducible — q64): with ``W = Σ weights`` and
    per-group counts ``c_g``, the achievable total is
    ``T = min_g floor(c_g·W / w_g)`` and a row survives iff
    ``digest(key+salt) < thr_g = min(floor(w_g·T·2^64 / (W·c_g)),
    2^64-1)``. Realized counts are hash-binomial around ``w_g·T/W``
    (deterministic, resume-stable). Groups without a weight drop;
    a weighted group absent from the corpus is an error (the mix is
    unsatisfiable).

    Two passes: a count pass that ships one (group, n) row per block
    (groups are low-cardinality by construction — domains, languages),
    then the streaming threshold filter."""
    import numpy as np
    import ray as _ray

    from feast_ray.functions.neardup import word_hashes64

    def _cnt(tbl: pa.Table) -> pa.Table:
        vc = pd.Series(tbl.column(group).to_pylist()).value_counts()
        return pa.table(
            {
                "g": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
                "n": pa.array(vc.to_numpy(), pa.int64()),
            }
        )

    cdf = ds.map_batches(_cnt, batch_format="pyarrow").to_pandas()
    counts = cdf.groupby("g")["n"].sum().to_dict() if len(cdf) else {}
    W = sum(weights.values())
    if W <= 0:
        raise ValueError("weights must sum to a positive total")
    missing = [g for g, w in weights.items() if w > 0 and not counts.get(g)]
    if missing:
        raise ValueError(f"weighted groups absent from corpus: {missing}")
    T = min(counts[g] * W // w for g, w in weights.items() if w > 0)
    thr = {
        g: np.uint64(min((w * T << 64) // (W * counts[g]), 2**64 - 1))
        for g, w in weights.items()
        if w > 0
    }
    ref = _ray.put(thr)
    zero = np.uint64(0)

    def _filter(tbl: pa.Table) -> pa.Table:
        th = _ray.get(ref)
        vals = [str(v) + salt for v in tbl.column(key).to_pylist()]
        h = word_hashes64(vals)
        groups = tbl.column(group).to_pylist()
        lim = np.array([th.get(g, zero) for g in groups], dtype=np.uint64)
        return tbl.filter(pa.array(h < lim))

    return ds.map_batches(_filter, batch_format="pyarrow")


def shard_shuffle(
    ds: ray.data.Dataset,
    key: str,
    num_shards: int,
    *,
    salt: str = "",
    shard_col: str = "shard",
    pos_col: str = "pos",
) -> ray.data.Dataset:
    """Deterministic training-order shuffle: the final corpus-prep
    step that replaces ``random_shuffle``. Each row gets
    ``shard = digest(key+salt) % num_shards`` and ``pos`` = its rank
    within the shard ordered by ``(digest, key)`` — a pseudorandom but
    REPRODUCIBLE global order (resume-stable, epoch-salted via
    ``salt``, no RNG state to checkpoint).

    Scale: ONE all-to-all on a small-int shard key (the engine's
    standard skew-safe exchange — hash uniformity bounds shard sizes),
    one vectorized argsort per shard; writing shards as partitioned
    parquet afterwards gives resumable output. Contrast
    ``ds.random_shuffle()``: same exchange cost but non-reproducible
    and unpartitioned. Digest is the SQL-reconstructable
    Horner+splitmix64, so shard AND position are oracle-checkable
    (q65)."""
    import numpy as np

    from feast_ray.functions.neardup import word_hashes64

    def _assign(tbl: pa.Table) -> pa.Table:
        vals = [str(v) + salt for v in tbl.column(key).to_pylist()]
        h = word_hashes64(vals)
        tbl = tbl.append_column("__h", pa.array(h, pa.uint64()))
        return tbl.append_column(
            shard_col,
            pa.array((h % np.uint64(num_shards)).astype(np.int64), pa.int64()),
        )

    def _order(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["__h", key], kind="stable").reset_index(drop=True)
        df[pos_col] = df.index.to_numpy(dtype="int64")
        return df.drop(columns="__h")

    assigned = ds.map_batches(_assign, batch_format="pyarrow")

    from feast_ray.stages.exchange import bucket_exchange

    # raw bucketed exchange: partition-only on the shard id — a sort
    # shuffle would order rows by shard_col only for _order to
    # immediately re-sort them by (__h, key). The exchange drops its
    # bucket column; the reducer's bucket is the shard id.
    def _reduce(b: int, parts: list) -> pa.Table:
        tbls = [p for p in parts if len(p)]
        if not tbls:
            # typed 0-row slice keeps the output schema; all-schema-less
            # means the whole exchange was empty (dedup._reduce doctrine)
            typed = [p for p in parts if p.num_columns]
            if not typed:
                return pa.table({})
            tbls = typed[:1]
        df = pa.concat_tables(tbls, promote_options="permissive").to_pandas()
        df[shard_col] = np.full(len(df), b, dtype=np.int64)
        return pa.Table.from_pandas(
            _order(df), preserve_index=False
        ).replace_schema_metadata(None)

    return bucket_exchange(
        assigned, shard_col, num_shards, _reduce,
        fallback=lambda: ray.data.from_arrow(_reduce(0, [])),
    )


def budget_sample(
    ds: ray.data.Dataset,
    group: str,
    score: str,
    tokens: str,
    id_col: str,
    budget: int,
    descending: bool = True,
) -> ray.data.Dataset:
    """Keep rows whose running token total (ordered by score desc, id
    asc within each group) is ≤ budget."""
    from feast_ray.stages.dedup import bucketed_group_reduce

    def _per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            [group, score, id_col],
            ascending=[True, not descending, True],
            kind="stable",
        )
        csum = df.groupby(group, sort=False)[tokens].cumsum()
        return df[csum <= budget]

    return bucketed_group_reduce(ds, [group], _per_bucket)


def temperature_resample(
    ds: ray.data.Dataset,
    group: str,
    key: str,
    *,
    alpha: float = 0.5,
    total: "int | None" = None,
    salt: str = "",
    epoch_col: str = "epoch",
) -> "tuple[ray.data.Dataset, pd.DataFrame]":
    """Temperature-based domain mixing WITH up-sampling repetition
    (the mT5/XLM-R α-sampling rule): target_g ∝ c_g^α, and a group
    whose target exceeds its count REPEATS — every row is emitted
    ``full_e = target_g // c_g`` times (epochs 0..full_e−1) plus one
    more epoch iff its digest clears the remainder threshold
    ``(target_g % c_g)·2^64 // c_g``. α=1 reproduces the corpus, α=0
    flattens it; α≈0.3–0.7 is the published multilingual range.

    Unlike :func:`rebalance_mix` (explicit weights, keep-only), the
    weights are DERIVED (c^α, driver-side over the tiny count table)
    and groups can be up-sampled past 1 epoch — the repetition layout
    real pretraining mixes use. Returns ``(expanded_ds, targets)``
    where ``targets`` (group, c, target) is the dumpable model: the
    α-power itself is the only non-SQL step, so the oracle recomputes
    counts, full_e, thresholds and the exact (row, epoch) expansion
    from the dumped integer targets (q64's decision-level doctrine).

    Scale shape: one (group, n)-per-block count pass, then a pure
    streaming expansion — no shuffle; per-batch cost is O(rows out)."""
    import numpy as np
    import ray as _ray

    from feast_ray.functions.neardup import word_hashes64

    def _cnt(tbl: pa.Table) -> pa.Table:
        vc = pd.Series(tbl.column(group).to_pylist()).value_counts()
        return pa.table({
            "g": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
            "n": pa.array(vc.to_numpy(), pa.int64()),
        })

    cdf = ds.map_batches(_cnt, batch_format="pyarrow").to_pandas()
    counts = cdf.groupby("g")["n"].sum().to_dict() if len(cdf) else {}
    if not counts:
        raise ValueError("temperature_resample: empty input")
    T = int(total if total is not None else sum(counts.values()))
    shares = {g: float(c) ** alpha for g, c in counts.items()}
    Z = sum(shares.values())
    target = {g: int(T * shares[g] / Z) for g in counts}
    plan = {
        g: (
            target[g] // counts[g],
            np.uint64(min(((target[g] % counts[g]) << 64) // counts[g],
                          2**64 - 1)),
        )
        for g in counts
    }
    ref = _ray.put(plan)

    def _expand(tbl: pa.Table) -> pa.Table:
        pl = _ray.get(ref)
        if len(tbl) == 0:
            return tbl.append_column(epoch_col, pa.array([], pa.int64()))
        vals = [str(v) + salt for v in tbl.column(key).to_pylist()]
        h = word_hashes64(vals)
        groups = tbl.column(group).to_pylist()
        full_e = np.array([pl[g][0] for g in groups], np.int64)
        thr = np.array([pl[g][1] for g in groups], np.uint64)
        reps = full_e + (h < thr)
        idx = np.repeat(np.arange(len(tbl), dtype=np.int64), reps)
        ends = np.cumsum(reps)
        epoch = np.arange(int(ends[-1]) if len(ends) else 0,
                          dtype=np.int64) - np.repeat(ends - reps, reps)
        return tbl.take(pa.array(idx)).append_column(
            epoch_col, pa.array(epoch))

    targets = pd.DataFrame(
        sorted(
            ({"g": g, "c": int(counts[g]), "target": int(target[g])}
             for g in counts),
            key=lambda r: r["g"],
        )
    )
    return ds.map_batches(_expand, batch_format="pyarrow"), targets


def priority_sample(
    ds: ray.data.Dataset,
    k: int,
    weight_col: str,
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Weighted sampling WITHOUT replacement by priority sampling
    (Duffield, Lund, Thorup, JACM 2007): each row draws a
    deterministic uniform u = splitmix64(id)/2^64 and gets priority
    w/u; the k highest priorities are the sample. Near-optimal
    variance for subset-sum estimation and — unlike A-Res exponential
    keys — needs NO transcendental function, so every float op is one
    IEEE divide reproduced bit-for-bit by the SQL oracle (ln/exp
    differ by an ulp between SIMD libm implementations; division
    never does).

    Scale shape: a streaming per-block top-k merged by the bounded
    final top-k (stages/relational.topk) — no shuffle, no sort of the
    corpus. Determinism: splitmix64 of the id column is the only
    randomness; ids must be unique.
    """
    import numpy as np

    from feast_ray.functions.neardup import _splitmix64
    from feast_ray.stages.relational import topk

    def _pri(tbl: pa.Table) -> pa.Table:
        ids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = tbl[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        h = _splitmix64(ids.view(np.uint64).copy())
        u = h.astype(np.float64) / 18446744073709551616.0
        return pa.table({
            id_col: pa.array(ids),
            weight_col: tbl[weight_col],
            "pri": pa.array(w / u),
        })

    scored = ds.map_batches(_pri, batch_format="pyarrow")
    return topk(scored, ["pri", id_col], k, descending=[True, False])
