"""Raw-Ray bucketed exchange — the one shuffle primitive under
``hash_join``, ``bucketed_group_reduce``, ``shard_shuffle``, the
store's LSM upsert and every other keyed shuffle in the package.

The one Ray sort-shuffle site left is ``dedup.keep_latest`` (the
flagship's url dedup). It sorts on its small-int bucket with fixed
bucket-range boundaries, so Ray skips the sort's sample pass and runs
one reducer per range, and the dedup kernel runs once per reduce
block. On 1 CPU, against a per-bucket ``groupby(bucket).map_groups``
it cut median ``wall_s`` from 0.679 to 0.490 s on ``flagship_job`` and
from 0.457 to 0.351 s on ``flagship_audit`` (perfbench seeds 66-72 and
36-38, 10 of 10 alternating pairs each, with extraction sped up in the
same change). That ``groupby`` in turn beat this exchange with the
same kernel at both ends and an auto-sized count: ``flagship_audit``
ran slower on the exchange in 7 of 8 alternating pairs (seeds 41-48,
median ``wall_s`` 0.469 → 0.549 s, ``cpu_s`` 0.61-0.65 → 0.66-0.80 s).
Small bounded group sets (range buckets, query terms) need no shuffle
at all: their per-block partial sums are added on the driver
(``relational.small_group_sums``).

Ray Data's ``groupby(bucket).map_groups`` shuffle is SORT-based: it
pays a full range-partition sort for an ordering hash-bucketed
reducers never need (q02 at sf0.1 on 32 CPUs: 12.5 s on the sort
shuffle, 4.6 s here). Partitioning alone suffices, so this module
drops to raw Ray tasks — the documented last-resort rule (SURVEY
custom-operator rule (c)):

* **bucket contract**: one-sided (``bucket_exchange``), the caller
  tags each row with an int64 bucket column holding either a raw
  64-bit key hash (``dedup.add_hash_bucket`` with ``num_buckets=None``,
  the package's one key hash) or an id it owns (a shard, partition or
  cell). Two-sided (``two_sided_exchange``), the caller passes the two
  sides as separate Datasets plus one bucket function per side that
  returns each row's raw key hash from that side's own rows, so no
  bucket or side column is added and no union is built. Either way the
  exchange picks B (the caller's count, or auto-sized from the
  materialized bytes) and owns the bucket: each map task takes the
  value as uint64 mod B, the identity on ids already in [0, B).
  Reducers are called with their bucket index ``b`` — ``reduce_fn(b,
  parts)`` or ``join_fn(b, lparts, rparts)`` — so no caller copies the
  bucket into its rows to learn which bucket it reduces.
* **map side**: one task per materialized block of each side →
  stable-sort the block by its bucket → ``num_returns=B`` zero-copy
  slices (Arrow ``Table.slice``), one per bucket (a bucket column is
  dropped).
* **reduce side**: one task per bucket ``b`` concatenates its ≤ M
  slices per side (M = that side's map-task count) and applies the
  caller's per-bucket function.

Scale shape: classic MapReduce shuffle — B × M small objects through
the object store, no global order, no barrier beyond the one every
all-to-all has (reducers start once all map tasks are done). Skew
lives in the caller's bucket assignment (hash_join salts hot keys in
its left bucket function and replicates the matching right rows, so a
salted key's rows still spread here). Partitioning assumption
unchanged: one bucket (all sides) fits in a worker's heap — scale
``num_buckets`` with data size.

Every exchange here materializes its upstream (each side once) into
the object store at BUILD time (``to_arrow_refs``) — the same
materialization a sort shuffle performs, surfaced eagerly; the
returned Dataset is lazy from the reduce outputs onward.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import pyarrow as pa
import ray
import ray.data


#: target bytes per bucket for auto-sized exchanges — the documented
#: one-bucket-fits-heap invariant made a derived quantity instead of a
#: constant sprinkled through pipelines (VERDICT r3 #7): a reducer
#: concatenates one bucket (~this many bytes) plus its merge output,
#: comfortably inside a worker heap at the default 2 GiB/CPU.
TARGET_BUCKET_BYTES = 128 << 20
#: bounds of an auto-sized bucket count
MIN_BUCKETS = 8
MAX_BUCKETS = 4096


def auto_num_buckets(total_bytes: int) -> int:
    """Bucket count from input size: ``ceil(total /
    TARGET_BUCKET_BYTES)`` clamped to [MIN_BUCKETS, MAX_BUCKETS].
    ``total_bytes=0`` (unknown size — e.g. object-store metadata
    unavailable) degrades to ``MIN_BUCKETS``, which is still correct,
    just coarser-grained."""
    b = -(-max(int(total_bytes), 1) // TARGET_BUCKET_BYTES)
    return max(MIN_BUCKETS, min(MAX_BUCKETS, b))


def refs_total_bytes(refs) -> int:
    """Total object-store bytes of materialized block refs — free
    metadata (no fetch). Returns 0 when sizes are unavailable."""
    try:
        locs = ray.experimental.get_object_locations(refs, timeout_ms=2000)
        return sum(int(v.get("object_size") or 0) for v in locs.values())
    except Exception:  # noqa: BLE001 — degrade to the coarse default
        return 0


def _split_remote(n_out: int, hash_fn, drop_cols: Sequence[str]):
    """Build the map-side task: block → ``n_out`` per-bucket slices.

    ``hash_fn(tbl) -> np.ndarray`` gives each row a raw 64-bit hash or
    id; the row's bucket is that value as uint64 mod ``n_out``. A
    0-row block (Ray Data emits 0-row map outputs as SCHEMA-LESS
    blocks, with no columns at all) is never hashed."""

    @ray.remote(num_returns=n_out)
    def _split(tbl):
        # to_arrow_refs passes pandas-backed blocks through UNconverted
        # (despite the name) — normalize to Arrow here
        if not isinstance(tbl, pa.Table):
            tbl = pa.Table.from_pandas(tbl, preserve_index=False).replace_schema_metadata(None)
        h = np.asarray(hash_fn(tbl)) if len(tbl) else np.zeros(0, np.uint64)
        if h.dtype != np.uint64:
            h = h.astype(np.int64, copy=False).view(np.uint64)
        key = (h % np.uint64(n_out)).astype(np.int64)
        order = np.argsort(key, kind="stable")
        tbl = tbl.take(pa.array(order))
        key = key[order]
        bounds = np.searchsorted(key, np.arange(n_out + 1))
        drop = [c for c in drop_cols if c in tbl.column_names]
        tbl = tbl.drop_columns(drop)
        if n_out == 1:
            return tbl
        return tuple(
            tbl.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(n_out)
        )

    return _split


def _splits_done(split_refs: list) -> list:
    """Wait (no fetch) until every return of every map task exists; see
    ``_exchange``. Waiting on a task's first return alone can come back
    before the owner has recorded its other returns."""
    flat = [r for x in split_refs for r in (x if isinstance(x, list) else [x])]
    ray.wait(flat, num_returns=len(flat), fetch_local=False)
    return split_refs


def _exchange(sides, num_buckets, fn, fallback, name):
    """The body of both exchanges. ``sides`` is one ``(ds, hash_fn,
    drop_cols)`` per side; each side is materialized once and split by
    its own map tasks, and ``fn(b, *parts)`` gets bucket ``b``'s slices
    of each side, one list per side."""
    mats = [ds.materialize() for ds, _, _ in sides]
    refs = [m.to_arrow_refs() for m in mats]
    if not any(refs):
        if fallback is not None:
            return fallback()
        raise ValueError(f"{name} on a zero-block Dataset")
    B = num_buckets
    if B is None:
        # the datasets' own block metadata is free and reliable; the
        # object-location query is only a fallback (it can time out
        # under load)
        size = sum(m.size_bytes() or 0 for m in mats)
        B = auto_num_buckets(size if size > 0 else refs_total_bytes(sum(refs, [])))

    # slice refs ride INSIDE list arguments, not as task args (Ray
    # 2.49's reference counter can fatally race inlining thousands of
    # tiny slices, reference_count.cc:581), so Ray would schedule a
    # reducer before its slices exist; it would then hold a worker in
    # ray.get while another worker process starts for the map tasks
    @ray.remote
    def _reduce(b, *part_refs):
        return fn(b, *(list(ray.get(list(p))) for p in part_refs))

    split_refs = []
    for (_, hash_fn, drop), side_refs in zip(sides, refs):
        _split = _split_remote(B, hash_fn, drop)
        split_refs.append([_split.remote(r) for r in side_refs])
    _splits_done(sum(split_refs, []))
    split_refs = [[r if isinstance(r, list) else [r] for r in s] for s in split_refs]
    out = [
        _reduce.remote(b, *([r[b] for r in s] for s in split_refs))
        for b in range(B)
    ]
    return ray.data.from_arrow_refs(out)


def bucket_exchange(
    ds: ray.data.Dataset,
    bucket_col: str,
    num_buckets: "int | None",
    reduce_fn: Callable[[int, list[pa.Table]], pa.Table],
    *,
    fallback: Callable[[], ray.data.Dataset] | None = None,
) -> ray.data.Dataset:
    """One-sided raw exchange: partition ``ds`` on its int64
    ``bucket_col`` (a raw key hash or an id; each map task takes it mod
    B) and run ``reduce_fn(b, parts)`` once per bucket ``b`` in
    [0, B): ``parts`` are that bucket's per-map-task Arrow slices, the
    bucket column already dropped. EVERY bucket gets a reduce call,
    possibly with all-empty typed parts — reducers must tolerate empty
    input. ``num_buckets=None`` AUTO-SIZES B from the materialized
    input's bytes (``auto_num_buckets``) — the exchange materializes
    at build time, so the size is known before any slice moves.

    ``fallback`` builds the result for an input that materializes to
    zero blocks (no schema to exchange) — typically an empty Dataset
    from ``reduce_fn(0, [])``."""
    return _exchange(
        [(ds, lambda t: t[bucket_col].to_numpy(zero_copy_only=False), (bucket_col,))],
        num_buckets, reduce_fn, fallback, "bucket_exchange")


def two_sided_exchange(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_hash: Callable[[pa.Table], np.ndarray],
    right_hash: Callable[[pa.Table], np.ndarray],
    num_buckets: "int | None",
    join_fn: Callable[[int, list[pa.Table], list[pa.Table]], pa.Table],
    *,
    fallback: Callable[[], ray.data.Dataset] | None = None,
) -> ray.data.Dataset:
    """Two-sided raw exchange for joins: ``left`` and ``right`` are
    materialized once each (a no-op on a materialized side), and each
    side's map tasks split its blocks on that side's bucket function —
    ``left_hash(tbl)`` / ``right_hash(tbl)`` return one raw 64-bit key
    hash per row, taken mod B like a one-sided bucket column. Reducer
    ``b`` receives bucket ``b``'s left slices and right slices
    separately: ``join_fn(b, lparts, rparts)`` joins them (parts may be
    empty or schema-drifted per block; the caller casts each part to
    its side's schema). A side with zero blocks contributes empty part
    lists; ``fallback`` runs only when both have none.
    ``num_buckets=None`` auto-sizes B from the two sides' materialized
    bytes."""
    return _exchange([(left, left_hash, ()), (right, right_hash, ())],
                     num_buckets, join_fn, fallback, "two_sided_exchange")
