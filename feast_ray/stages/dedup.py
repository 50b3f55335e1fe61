"""Dedup stage: keep the newest row per key.

Semantics reproduced: the reference's DedupNode — argmax by
``(event_ts, created_ts)`` per key, nulls sorting first / losing ties
(dask.py:1229-1270 `_drop_duplicates`; ray/nodes.py:559-654).
``keep_latest`` is exact: a per-block combiner (argmax per key within
each batch — shrinks the shuffle to ≤ one row per key per block), Ray's
sort shuffle on a hash bucket with fixed bucket-range boundaries, then
the same Arrow kernel once per reduce block.
That kernel, ``_latest_per_key``, is the repo's one latest-per-key
rule: the online store's merge-on-read and upsert run it too.

Scale note: the combiner bounds shuffle volume by (#distinct keys per
block), so a hot key costs one row per block, not its full row count —
skew-resistant without explicit salting.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

BUCKET_COL = "__kl_bucket"


def _latest_per_key(keys: list[str], order_by: list[str], drop: tuple = ()):
    """Arrow kernel of ``keep_latest``: a stable sort on ``keys +
    order_by`` (nulls first, so a null timestamp loses), then the last
    row of each key run — the max ``order_by`` row; on full ties the
    last in input order. Null keys form one group, as do NaN keys."""
    sort_keys = [(c, "ascending") for c in keys + order_by]

    def _kernel(tbl: pa.Table) -> pa.Table:
        if len(tbl) > 1:
            order = pc.sort_indices(tbl, sort_keys, null_placement="at_start")
            last = np.arange(len(tbl)) == len(tbl) - 1
            for k in keys:
                col = tbl.column(k).take(order)
                a, b = col[:-1], col[1:]
                same = pc.or_(pc.fill_null(pc.equal(a, b), False),
                              pc.and_(pc.is_null(a), pc.is_null(b)))
                if pa.types.is_floating(col.type):
                    same = pc.or_(same, pc.fill_null(pc.and_(pc.is_nan(a), pc.is_nan(b)), False))
                last[:-1] |= ~same.to_numpy()
            tbl = tbl.take(order.to_numpy()[last])
        return tbl.drop_columns(list(drop)).replace_schema_metadata(None)

    return _kernel


#: pandas' hash of a float NaN: the hash of a null in an int, bool or
#: float key column, as when such a column reached pandas as float64
_NULL_HASH = pd.util.hash_pandas_object(pd.Series([np.nan]), index=False).iloc[0]


def _hash_keys(tbl: pa.Table, keys: list[str]) -> np.ndarray:
    """The one key hash behind every bucket: pandas siphash (process-
    stable, unlike Python's hash()) of each key column, XOR-combined
    over the columns, as uint64.

    A value hashes the same whatever its block holds: the column's
    Arrow type decides, not the block's pandas dtype. Dictionaries are
    decoded, bool and every integer type cast to int64 (``safe=False``:
    uint64 keeps its bits), floats to float64. A null hashes as in a
    column of that canonical type: ``_NULL_HASH`` for int64 and
    float64, pandas' hash of None for strings. For string and float64
    columns, and null-free int64 and bool ones, this is the hash pandas
    gives the column itself."""
    h = np.zeros(len(tbl), dtype=np.uint64)
    for k in keys:
        col = tbl.column(k)
        if pa.types.is_dictionary(col.type):
            col = col.cast(col.type.value_type)
        if pa.types.is_boolean(col.type) or pa.types.is_integer(col.type):
            col = pc.cast(col, pa.int64(), safe=False)
        elif pa.types.is_floating(col.type):
            col = pc.cast(col, pa.float64())
        if col.type == pa.int64() and col.null_count:
            # pandas would see this column as float64: hash the values
            # as int64 and the nulls as float NaN
            nulls = pc.is_null(col).to_numpy(zero_copy_only=False)
            col = pc.fill_null(col, 0)
        else:
            nulls = None
        kh = pd.util.hash_pandas_object(col.to_pandas(), index=False).to_numpy()
        if nulls is not None:
            kh[nulls] = _NULL_HASH
        h ^= kh
    return h


def add_hash_bucket(tbl: pa.Table, keys: list[str], num_buckets: "int | None",
                    col: str = BUCKET_COL) -> pa.Table:
    """Append the key hash (``_hash_keys``) as int64 column ``col``:
    mod ``num_buckets``, or with ``num_buckets=None`` the raw uint64
    hash stored as int64, which the exchanges take as it is (their map
    tasks mod it by the bucket count they pick)."""
    h = _hash_keys(tbl, keys)
    if num_buckets is None:
        return tbl.append_column(col, pa.array(h.view(np.int64)))
    return tbl.append_column(col, pa.array((h % num_buckets).astype(np.int64)))


def bucketed_group_reduce(
    ds: ray.data.Dataset,
    keys: list[str],
    merge_fn,
    *,
    num_buckets: "int | None" = None,
) -> ray.data.Dataset:
    """THE high-cardinality-safe merge shape (used by grouped_agg,
    distinct, count_distinct): tag rows with the raw key hash
    (``_hash_keys``), shuffle on it mod ``num_buckets`` through the
    raw bucketed exchange (stages/exchange.py — partition-only, no
    sort) and run
    ``merge_fn`` (a vectorized pandas reduce, typically one groupby
    over the bucket) once per bucket — never one Python call per key,
    which is where Ray's native per-key aggregate loses at high key
    cardinality (measured 5.8 s vs 0.7 s at 147k groups).

    ``num_buckets=None`` (the default since VERDICT r3 #7) AUTO-SIZES
    the bucket count from the exchange's materialized input bytes
    (``exchange.auto_num_buckets`` — one-bucket-fits-heap derived, not
    hard-coded); pass an int to pin it (key-cardinality-driven shapes
    like session windows, or tests).

    ``merge_fn`` gets each bucket with the bucket column already
    dropped; EMPTY buckets also get a call (typed 0-row frame), which
    every repo merge_fn tolerates. A zero-block input yields an empty
    Dataset."""
    from feast_ray.stages.exchange import bucket_exchange

    bucketed = ds.map_batches(
        lambda t: add_hash_bucket(t, keys, None, col="__bg"),
        batch_format="pyarrow",
    )

    def _reduce(_b: int, parts: list) -> pa.Table:
        cands = [p for p in parts if len(p)]
        if not cands:
            # typed 0-row slice → merge_fn still runs, emitting the
            # correct (empty) output schema; all-schema-less parts mean
            # the whole exchange was empty — emit a 0-col empty block
            typed = [p for p in parts if p.num_columns]
            if not typed:
                return pa.table({})
            cands = typed[:1]
        tbl = pa.concat_tables(cands, promote_options="permissive")
        out = merge_fn(tbl.to_pandas())
        if isinstance(out, pa.Table):
            return out.replace_schema_metadata(None)
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(
            None
        )

    return bucket_exchange(
        bucketed, "__bg", num_buckets, _reduce,
        fallback=lambda: ray.data.from_arrow(_reduce(0, [])),
    )


def keep_latest(
    ds: ray.data.Dataset,
    keys: list[str],
    event_ts: str,
    created_ts: str | None = None,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Exact global dedup: per-block combiner (≤ 1 row per key per
    block) → a SMALL INT hash bucket → Ray's sort shuffle on that
    bucket with fixed ``boundaries`` that cut ``[0, num_buckets)`` into
    R contiguous ranges → one reducer call per range block. Both ends
    run ``_latest_per_key``, so no block goes through pandas and no
    Python call is made per key or per bucket. It is exact because all
    rows of a key share one bucket and a bucket lies in one range.
    ``num_buckets=None`` means ``max(64, 8 * cluster CPUs)``.

    R is the cluster's CPU count, capped at ``num_buckets``, with a
    floor of 2: Ray samples the sort key whenever ``boundaries`` is
    empty, and with fixed boundaries it skips that pass and runs R
    reducers instead of one per input block. Partitioning assumption:
    one reducer's range of buckets (the surviving rows of about
    1/R of the keys) fits a worker's heap.

    The reducer sorts on the bucket before the keys, so rows come out
    in (bucket, keys) order for any R.

    It stays on the sort shuffle rather than the raw exchange: see the
    measurements in ``stages/exchange.py``'s module docstring."""
    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    if num_buckets is None:
        num_buckets = max(64, 8 * ncpu)
    ranges = max(2, min(ncpu, num_buckets))
    order_by = [event_ts] + ([created_ts] if created_ts else [])
    combine = _latest_per_key(keys, order_by)
    bucketed = ds.map_batches(
        lambda t: add_hash_bucket(combine(t), keys, num_buckets), batch_format="pyarrow"
    )
    # a key determines its bucket, so grouping on (bucket, keys) is
    # grouping on keys
    return bucketed.sort(
        BUCKET_COL, boundaries=[i * num_buckets // ranges for i in range(1, ranges)]
    ).map_batches(
        _latest_per_key([BUCKET_COL, *keys], order_by, drop=(BUCKET_COL,)),
        batch_format="pyarrow", batch_size=None,
    )
