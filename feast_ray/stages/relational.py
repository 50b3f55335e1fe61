"""Distinct / top-k / union-align — the reference's set-op surface
(SURVEY.md §2.7): `_make_distinct_by_keys`
(contrib/ray_offline_store/ray.py:1357), `_align_and_union_entities_ray`
(:1341-1398), sort/limit wrappers (ray_shared_utils.py:133-191), top-n
categorical frequencies (dask.py:857).

Scale design: distinct and top-k both pre-reduce inside each block
before any shuffle — distinct rows per block, per-block top-k — so the
wide step only sees the reduced stream.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data


def distinct(ds: ray.data.Dataset, cols: list[str]) -> ray.data.Dataset:
    """Distinct rows of ``cols``: per-block dedup (Arrow C++ group_by),
    hash-bucket shuffle, then ONE vectorized dedup per bucket — the
    same high-cardinality-safe merge shape as grouped_agg (Ray's
    native per-key aggregate pays per-group overhead)."""
    from feast_ray.stages.dedup import bucketed_group_reduce

    def _block_distinct(tbl: pa.Table) -> pa.Table:
        return tbl.select(cols).group_by(cols).aggregate([])

    pre = ds.map_batches(_block_distinct, batch_format="pyarrow")
    return bucketed_group_reduce(pre, cols, lambda df: df.drop_duplicates())


def topk(
    ds: ray.data.Dataset,
    by: list[str] | str,
    k: int,
    descending: bool | list[bool] = True,
) -> ray.data.Dataset:
    """Top-k rows by ``by``: per-block top-k, coalesce the (tiny)
    survivors, final top-k. Avoids a global sort shuffle."""
    by = [by] if isinstance(by, str) else list(by)
    asc = (
        [not descending] * len(by)
        if isinstance(descending, bool)
        else [not d for d in descending]
    )

    def _block_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(by, ascending=asc, kind="stable").head(k)

    pre = ds.map_batches(_block_topk, batch_format="pandas")
    return pre.repartition(1).map_batches(_block_topk, batch_format="pandas")


def top_frequencies(
    ds: ray.data.Dataset, col: str, n: int = 10
) -> ray.data.Dataset:
    """Top-n categorical value frequencies (the reference's monitoring
    metric, dask.py:857 `_dask_compute_categorical_metrics` with its
    top_n parameter): two-phase grouped count then bounded top-k —
    never a full sort."""
    from feast_ray.stages.aggregate import AggSpec, grouped_agg

    counts = grouped_agg(ds, [col], [AggSpec(None, "count", "n")])
    return topk(counts, ["n", col], n, descending=[True, False])


def union_align(datasets: list[ray.data.Dataset]) -> ray.data.Dataset:
    """Union datasets after aligning their column SETS (missing columns
    become nulls) and column TYPES (same-named columns with different
    types — int32 vs int64, float32 vs float64 — are promoted to one
    unified type and every block cast to it, so the union emits one
    uniform schema), mirroring `_align_and_union_entities_ray`."""
    from feast_ray.stages.join import arrow_schema

    per_ds = [
        s for s in (arrow_schema(ds.schema()) for ds in datasets)
        # a fully-empty schema-less side (e.g. an empty reduce output)
        # contributes no rows and no columns — skip it in unification
        if s is not None
    ]
    if not per_ds:
        return datasets[0]
    try:
        unified = pa.unify_schemas(per_ds, promote_options="permissive")
    except (pa.ArrowInvalid, pa.ArrowTypeError, TypeError):
        # un-unifiable (e.g. string vs int): fall back to first-wins
        seen: dict[str, pa.DataType] = {}
        for s in per_ds:
            for f in s:
                seen.setdefault(f.name, f.type)
        unified = pa.schema([pa.field(n, t) for n, t in seen.items()])
    order = list(unified.names)
    types = {f.name: f.type for f in unified}

    def _align(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = len(tbl)
        cols = []
        for name in order:
            if name in tbl.column_names:
                arr = tbl[name]
                if not arr.type.equals(types[name]):
                    arr = pc.cast(arr, types[name])
                cols.append(arr)
            else:
                cols.append(pa.nulls(n, types[name]))
        return pa.table(dict(zip(order, cols)))

    aligned = [
        ds.map_batches(_align, batch_format="pyarrow") for ds in datasets
    ]
    out = aligned[0]
    for other in aligned[1:]:
        out = out.union(other)
    return out


def group_limit(
    ds: ray.data.Dataset,
    group_cols: list[str] | str,
    n: int,
    order_by: list[str] | str,
    ascending: bool | list[bool] = True,
) -> ray.data.Dataset:
    """Per-group quota: keep at most ``n`` rows of each group, ranked
    by ``order_by`` — the Common-Crawl-style "max N pages per host"
    crawl-balancing rule (and generally ranked-quota sampling per
    domain / source / language). Deterministic iff ``order_by`` is a
    total order within every group (add an id tie-break).

    Scale design: the top-n of a union is the top-n of per-part
    top-ns, so each BLOCK is pre-limited to ≤ n rows per group before
    any data moves; the wide step is the bucketed grouped rank filter
    (hash(group) bucket shuffle, ONE vectorized sort + cumcount per
    bucket — never a Python call per group). Partitioning assumption:
    n × (groups in one bucket) rows fit in a worker's heap; the
    exchange sizes its bucket count from the input's bytes.
    """
    from feast_ray.stages.dedup import bucketed_group_reduce

    group_cols = [group_cols] if isinstance(group_cols, str) else list(group_cols)
    order_by = [order_by] if isinstance(order_by, str) else list(order_by)
    asc = (
        [ascending] * len(order_by) if isinstance(ascending, bool) else list(ascending)
    )
    sort_cols = group_cols + order_by
    sort_asc = [True] * len(group_cols) + asc

    def _limit(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(sort_cols, ascending=sort_asc, kind="stable")
        return df[df.groupby(group_cols, sort=False).cumcount() < n]

    def _block_limit(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return tbl
        return pa.Table.from_pandas(
            _limit(tbl.to_pandas()), preserve_index=False
        ).replace_schema_metadata(None)

    pre = ds.map_batches(_block_limit, batch_format="pyarrow")
    return bucketed_group_reduce(pre, group_cols, _limit)


def window_row_funcs(
    ds: ray.data.Dataset,
    keys: list[str],
    order_by: list[str],
    *,
    rank_as: str | None = None,
    lag_cols: "dict[str, str] | None" = None,
    cumsum_cols: "dict[str, str] | None" = None,
    lead_cols: "dict[str, str] | None" = None,
    dense_rank_on: "tuple[list[str], str] | None" = None,
    ntile: "tuple[int, str] | None" = None,
    percent_rank_as: str | None = None,
    cume_dist_as: str | None = None,
) -> ray.data.Dataset:
    """Per-key ordered row functions — SQL's ROW_NUMBER / LAG / LEAD /
    running SUM / DENSE_RANK / NTILE — over a partitioned exchange:
    rows co-locate by ``hash(keys)`` (the bucketed_group_reduce shape,
    auto-sized buckets), each bucket sorts ONCE by (keys, order_by)
    and computes every requested function vectorized
    (groupby.cumcount / shift / cumsum — no per-key Python). The
    caller must make (order_by) a total order within a key (add a
    unique id as the last column) or ranks are not well-defined.

    ``dense_rank_on=(cols, alias)``: DENSE_RANK over ``cols`` (which
    must be a prefix of the sort meaning — pass the order_by columns
    that define rank ties). ``ntile=(n, alias)``: SQL NTILE(n) —
    first ``n_rows % n`` tiles get the extra row, exactly the
    standard's allocation. ``percent_rank_as`` / ``cume_dist_as``:
    (rank−1)/(n−1) (0.0 for a 1-row key) and rank/n — under the
    required TOTAL order every row is its own peer group, so these
    single float divisions are bit-stable against the SQL builtins.

    Partitioning assumption (documented, same as every bucketed op):
    one key's rows fit a worker — keys are users/hosts/sessions, not
    the whole corpus.
    """
    import pandas as _pd

    from feast_ray.stages.dedup import bucketed_group_reduce

    lag_cols = lag_cols or {}
    cumsum_cols = cumsum_cols or {}
    lead_cols = lead_cols or {}

    def _merge(df: "_pd.DataFrame") -> "_pd.DataFrame":
        if not len(df):
            out = df.copy()
            if rank_as:
                out[rank_as] = _pd.Series([], dtype="int64")
            for src, dst in {**lag_cols, **lead_cols}.items():
                out[dst] = _pd.Series([], dtype=df.dtypes.get(src, "float64"))
            for src, dst in cumsum_cols.items():
                out[dst] = _pd.Series([], dtype=df.dtypes.get(src, "float64"))
            if dense_rank_on:
                out[dense_rank_on[1]] = _pd.Series([], dtype="int64")
            if ntile:
                out[ntile[1]] = _pd.Series([], dtype="int64")
            if percent_rank_as:
                out[percent_rank_as] = _pd.Series([], dtype="float64")
            if cume_dist_as:
                out[cume_dist_as] = _pd.Series([], dtype="float64")
            return out
        df = df.sort_values(keys + order_by, kind="stable").reset_index(drop=True)
        g = df.groupby(keys, sort=False)
        if rank_as:
            df[rank_as] = (g.cumcount() + 1).astype("int64")
        for src, dst in lag_cols.items():
            df[dst] = g[src].shift()
        for src, dst in lead_cols.items():
            df[dst] = g[src].shift(-1)
        for src, dst in cumsum_cols.items():
            df[dst] = g[src].cumsum()
        if dense_rank_on:
            dcols, dalias = dense_rank_on
            # dense rank = running count of value boundaries within a
            # key (the frame is sorted, so equal tuples are adjacent);
            # rank-tie columns must be non-null — NaN != NaN would
            # split a tie
            first = (g.cumcount() == 0).to_numpy()
            chg = df[dcols].ne(df[dcols].shift()).any(axis=1).to_numpy() | first
            df[dalias] = (
                _pd.Series(chg.astype("int64"))
                .groupby([df[k] for k in keys], sort=False)
                .cumsum()
                .astype("int64")
            )
        if ntile:
            import numpy as _np

            n, talias = ntile
            idx = g.cumcount().to_numpy()
            cnt = g[df.columns[0]].transform("size").to_numpy()
            q, r = cnt // n, cnt % n
            big = idx < r * (q + 1)
            df[talias] = _np.where(
                big,
                idx // _np.maximum(q + 1, 1) + 1,
                r + (idx - r * (q + 1)) // _np.maximum(q, 1) + 1,
            ).astype("int64")
        if percent_rank_as or cume_dist_as:
            import numpy as _np

            idx = g.cumcount().to_numpy().astype(_np.float64)
            cnt = (g[df.columns[0]].transform("size")
                   .to_numpy().astype(_np.float64))
            if percent_rank_as:
                with _np.errstate(invalid="ignore", divide="ignore"):
                    pr = idx / (cnt - 1.0)
                df[percent_rank_as] = _np.where(cnt > 1.0, pr, 0.0)
            if cume_dist_as:
                df[cume_dist_as] = (idx + 1.0) / cnt
        return df

    return bucketed_group_reduce(ds, keys, _merge)


def scd2_intervals(
    ds: ray.data.Dataset,
    keys: list[str],
    order_by: list[str],
    state_col: str,
    *,
    from_as: str = "valid_from",
    to_as: str = "valid_to",
) -> ray.data.Dataset:
    """Slowly-changing-dimension (type 2) interval builder: per key,
    collapse consecutive rows with an unchanged ``state_col`` into one
    row valid from its first timestamp until the NEXT state change
    (NULL for the current state) — SQL's
    ``lag`` (change detection) + ``lead`` (interval close) pattern,
    computed in one per-bucket sort through one partitioned exchange.
    ``order_by[0]`` is the validity timestamp; the caller makes
    (order_by) a total order within a key."""
    import pandas as _pd

    from feast_ray.stages.dedup import bucketed_group_reduce

    ts_col = order_by[0]

    def _build(df: "_pd.DataFrame") -> "_pd.DataFrame":
        cols = keys + [state_col, from_as, to_as]
        if not len(df):
            out = df.reindex(columns=keys + [state_col]).copy()
            out[from_as] = _pd.Series([], dtype=df.dtypes.get(ts_col))
            out[to_as] = _pd.Series([], dtype=df.dtypes.get(ts_col))
            return out[cols]
        df = df.sort_values(keys + order_by, kind="stable").reset_index(drop=True)
        g = df.groupby(keys, sort=False)
        first = g.cumcount() == 0
        changed = first | (df[state_col] != df[state_col].shift())
        iv = df[changed].copy()
        iv = iv.rename(columns={ts_col: from_as})
        g2 = iv.groupby(keys, sort=False)
        iv[to_as] = g2[from_as].shift(-1)
        return iv[cols]

    return bucketed_group_reduce(ds, keys, _build)


def small_group_sums(
    ds: ray.data.Dataset, key: str, cols: "list[str]" = ()
) -> pd.DataFrame:
    """Row count ``n_rows`` and the sums of ``cols`` per ``key`` value,
    indexed and sorted by ``key`` — for a SMALL key set (range buckets,
    query terms) with no shuffle: each block emits its partial sums
    from ``map_batches`` and the driver adds them up."""
    cols = list(cols)

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame()
        df = df[[key, *cols]].assign(n_rows=1)
        return df.groupby(key, as_index=False, sort=False).sum()

    parts = ds.map_batches(_partial, batch_format="pandas").to_pandas()
    if not len(parts):
        return pd.DataFrame(columns=[*cols, "n_rows"], index=pd.Index([], name=key),
                            dtype="int64")
    return parts.groupby(key).sum()


#: range buckets of the sample-sort ranks: the driver picks
#: ``RANK_NUM_BUCKETS - 1`` range boundaries from the block samples
RANK_NUM_BUCKETS = 64
#: sorted keys each block contributes to the boundary sample
RANK_SAMPLE_PER_BLOCK = 256


def global_rank_int(
    ds: ray.data.Dataset,
    key_col: str,
    *,
    rank_as: str = "rank",
    keep_cols: "list[str] | None" = None,
) -> ray.data.Dataset:
    """EXACT global ascending rank (1-based) by a UNIQUE int64 key —
    the distributed ORDER BY / ROW_NUMBER() the reference never had
    (SURVEY §2.7: "no user-facing global sort"): a sample-sort.
    Composite orders encode into the key (the caller's contract, e.g.
    ``(cents desc, id asc)`` → ``(C − cents)·2^k + id``); ties are NOT
    ranked deterministically, hence the uniqueness requirement.

    Shape — never a full sort shuffle of payload rows:
    1. per-block deterministic samples (first + strided) → driver
       picks ``RANK_NUM_BUCKETS − 1`` RANGE boundaries (tiny);
    2. one range exchange (searchsorted on the broadcast boundaries);
    3. per-bucket vectorized argsort + size;
    4. per-block bucket sizes summed and prefix-summed DRIVER-side
       (``small_group_sums``, B integers — no second shuffle) → each
       bucket emits ``offset + local_index``.
    Skewed key ranges only imbalance bucket sizes, never correctness;
    boundary quality degrades to imbalance, not error.

    Columns: ``[key_col, *keep_cols, rank_as]``, also on empty input.
    """
    return _sample_sort_rank(ds, key_col, [], keep_cols or [], rank_as)


def global_rank_prefix_int(
    ds: ray.data.Dataset,
    key_col: str,
    val_col: str,
    *,
    rank_as: str = "rank",
    prefix_as: str = "prefix",
    keep_cols: "list[str] | None" = None,
) -> ray.data.Dataset:
    """EXACT global rank AND exclusive running int64 sum of ``val_col``
    in key order — the distributed ``SUM(v) OVER (ORDER BY k ROWS
    UNBOUNDED PRECEDING AND 1 PRECEDING)`` (the global cumulative
    aggregate). The sample-sort of ``global_rank_int`` carrying one
    value column: per-bucket vectorized sort + local cumsum, and a
    DRIVER prefix-sum over the B bucket (count, val-total) pairs —
    payload rows shuffle exactly once. The budget-selection /
    quantile-cut primitive: ``prefix < T`` picks the exact key-ordered
    head whose values fit a budget T, independent of partitioning.

    Contract: ``key_col`` is a UNIQUE int64 key, as for
    ``global_rank_int`` (composite orders encode into it). With
    duplicate keys the per-bucket stable sort keeps arrival order, so
    the rank and exclusive prefix among tied keys depend on
    partitioning and are not deterministic.

    Columns: ``[key_col, val_col, *keep_cols, rank_as, prefix_as]``,
    also on empty input."""
    return _sample_sort_rank(ds, key_col, [(val_col, prefix_as)],
                             keep_cols or [], rank_as)


def _sample_sort_rank(
    ds: ray.data.Dataset,
    key_col: str,
    sums: "list[tuple[str, str]]",
    keep_cols: "list[str]",
    rank_as: str,
) -> ray.data.Dataset:
    """The one body of both ranks. ``sums`` lists (value column, its
    exclusive-prefix column) pairs — none for ``global_rank_int``, so
    it allocates no value column; each gets an int64 cast, a local
    cumsum and a driver-side offset next to the row count's."""
    vals = [v for v, _ in sums]
    lpre = [f"__lpre{i}" for i in range(len(sums))]
    # this call's value, read on the driver and shipped in the closure
    per_block = RANK_SAMPLE_PER_BLOCK

    def _sample(tbl: pa.Table) -> pa.Table:
        k = tbl[key_col].to_numpy(zero_copy_only=False)
        if not len(k):
            return pa.table({"s": pa.array([], pa.int64())})
        step = max(1, len(k) // per_block)
        return pa.table({"s": pa.array(np.sort(k)[::step][:per_block]
                                       .astype(np.int64))})

    samp = np.sort(np.concatenate([
        b["s"].to_numpy(zero_copy_only=False)
        for b in ds.map_batches(_sample, batch_format="pyarrow")
                   .iter_batches(batch_format="pyarrow")
        if b.num_rows
    ] or [np.array([], np.int64)]))
    if not len(samp):
        # no rows: the output columns typed from the input schema
        from feast_ray.stages.join import dataset_schema

        schema = dataset_schema(ds)
        cols = {c: pa.array([], pa.int64()) for c in [key_col, *vals]}
        cols.update({c: pa.array([], schema.field(c).type) for c in keep_cols})
        cols.update({c: pa.array([], pa.int64())
                     for c in [rank_as, *(a for _, a in sums)]})
        return ray.data.from_arrow(pa.table(cols))
    cuts = samp[np.linspace(0, len(samp) - 1, RANK_NUM_BUCKETS + 1)
                .astype(int)][1:-1]
    bounds = np.unique(cuts).astype(np.int64)
    bref = ray.put(bounds)

    def _tag(tbl: pa.Table) -> pa.Table:
        b = ray.get(bref)
        k = tbl[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {key_col: pa.array(k)}
        for v in vals:
            cols[v] = pa.array(tbl[v].to_numpy(zero_copy_only=False)
                               .astype(np.int64))
        cols["__rb"] = pa.array(np.searchsorted(b, k, side="left")
                                .astype(np.int64))
        for c in keep_cols:
            cols[c] = tbl[c]
        return pa.table(cols)

    from feast_ray.stages.dedup import bucketed_group_reduce

    tagged = ds.map_batches(_tag, batch_format="pyarrow")

    def _local_sort(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            out = df.drop(columns=["__rb"], errors="ignore").copy()
            for c in ["__loc", *lpre, "__b"]:
                out[c] = pd.Series([], dtype="int64")
            return out
        # the exchange hashes __rb, so one reduce may hold several
        # RANGE buckets — order within each range bucket
        df = df.sort_values(["__rb", key_col],
                            kind="stable").reset_index(drop=True)
        g = df.groupby("__rb", sort=False)
        df["__loc"] = g.cumcount().astype("int64")
        # exclusive per-range-bucket running sums
        for v, c in zip(vals, lpre):
            df[c] = (g[v].cumsum() - df[v]).astype("int64")
        return df.rename(columns={"__rb": "__b"})

    local = bucketed_group_reduce(
        tagged, ["__rb"], _local_sort,
        # all rows of one RANGE bucket co-locate (the exchange hashes
        # __rb); a reduce holding several range buckets sorts each
        num_buckets=len(bounds) + 1,
    ).materialize()

    # per range bucket: rows and value totals before it
    sizes = small_group_sums(local, "__b", vals)
    oref = ray.put([
        dict(zip(sizes.index,
                 np.concatenate([[0], np.cumsum(sizes[c].to_numpy())[:-1]])))
        for c in ["n_rows", *vals]])
    internal = {"__b", "__loc", *lpre}

    def _rank(tbl: pa.Table) -> pa.Table:
        offs = ray.get(oref)
        b = pd.Series(tbl["__b"].to_numpy(zero_copy_only=False))
        cols = {c: tbl[c] for c in tbl.column_names if c not in internal}
        cols[rank_as] = pa.array(b.map(offs[0]).to_numpy(np.int64)
                                 + tbl["__loc"].to_numpy(zero_copy_only=False)
                                 + 1)
        for (_, alias), c, o in zip(sums, lpre, offs[1:]):
            cols[alias] = pa.array(b.map(o).to_numpy(np.int64)
                                   + tbl[c].to_numpy(zero_copy_only=False))
        return pa.table(cols)

    return local.map_batches(_rank, batch_format="pyarrow")
