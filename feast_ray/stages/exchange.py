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

* **bucket contract**: the caller tags each row with an int64 bucket
  column holding either a raw 64-bit key hash (``dedup.add_hash_bucket``
  with ``num_buckets=None``, the package's one key hash) or an id it
  owns (a shard, partition or cell). The exchange picks B (the
  caller's count, or auto-sized from the materialized bytes) and owns
  the bucket: each map task takes the column as uint64 mod B, the
  identity on ids already in [0, B). Reducers are called with their
  bucket index ``b``, so no caller copies the bucket column into its
  rows to learn which bucket it reduces.
* **map side**: one task per materialized block → stable-sort the
  block by its bucket → ``num_returns=B`` zero-copy slices (Arrow
  ``Table.slice``), one per bucket, the bucket column dropped.
* **reduce side**: one task per bucket ``b`` concatenates its ≤ M
  slices (M = map-task count) and applies the caller's per-bucket
  function to ``(b, parts)``.

Scale shape: classic MapReduce shuffle — B × M small objects through
the object store, no global order, no barrier beyond the one every
all-to-all has (reducers start once all map tasks are done). Skew
lives in the caller's bucket assignment (hash_join salts hot keys
BEFORE the bucket column is computed, so a salted key's rows still
spread here). Partitioning assumption unchanged: one bucket (all
sides) fits in a worker's heap — scale ``num_buckets`` with data size.

Every exchange here materializes its upstream into the object store
at BUILD time (``to_arrow_refs``) — the same materialization a sort
shuffle performs, surfaced eagerly; the returned Dataset is lazy from
the reduce outputs onward.
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


def _split_remote(n_out: int, key_fn, drop_cols: Sequence[str]):
    """Build the map-side task: block → ``n_out`` per-bucket slices.

    ``key_fn(tbl) -> np.ndarray[int64]`` maps each row to its output
    index in [0, n_out) (its bucket for one-sided exchanges; side and
    bucket for joins)."""

    @ray.remote(num_returns=n_out)
    def _split(tbl):
        # to_arrow_refs passes pandas-backed blocks through UNconverted
        # (despite the name) — normalize to Arrow here
        if not isinstance(tbl, pa.Table):
            tbl = pa.Table.from_pandas(tbl, preserve_index=False).replace_schema_metadata(None)
        key = key_fn(tbl)
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


def _exchange(ds, bucket_col, num_buckets, fn, fallback, name, side=None):
    """The body of both exchanges. ``side=(side_col, right_tag)`` makes
    it two-sided: rows whose ``side_col`` equals ``right_tag`` form the
    right side, and ``fn(b, lparts, rparts)`` gets bucket ``b``'s
    slices of each side; one-sided, ``fn(b, parts)``."""
    mat = ds.materialize()
    refs = mat.to_arrow_refs()
    if not refs:
        if fallback is not None:
            return fallback()
        raise ValueError(f"{name} on a zero-block Dataset")
    B = num_buckets
    if B is None:
        # the dataset's own block metadata is free and reliable; the
        # object-location query is only a fallback (it can time out
        # under load)
        size = mat.size_bytes() or 0
        B = auto_num_buckets(size if size > 0 else refs_total_bytes(refs))
    sides = 1 if side is None else 2

    def _key(tbl: pa.Table) -> np.ndarray:
        # Ray Data emits 0-row map_batches outputs as SCHEMA-LESS empty
        # blocks (no columns at all) — they carry no rows: bucket 0
        if bucket_col not in tbl.column_names:
            return np.zeros(len(tbl), dtype=np.int64)
        v = tbl[bucket_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = (v.view(np.uint64) % np.uint64(B)).astype(np.int64)
        if side is not None:
            b += (tbl[side[0]].to_numpy(zero_copy_only=False) == side[1]) * B
        return b

    drop = [bucket_col] if side is None else [bucket_col, side[0]]
    _split = _split_remote(sides * B, _key, drop)

    # slice refs ride INSIDE list arguments, not as task args (Ray
    # 2.49's reference counter can fatally race inlining thousands of
    # tiny slices, reference_count.cc:581), so Ray would schedule a
    # reducer before its slices exist; it would then hold a worker in
    # ray.get while another worker process starts for the map tasks
    @ray.remote
    def _reduce(b, *part_refs):
        return fn(b, *(list(ray.get(list(p))) for p in part_refs))

    split_refs = _splits_done([_split.remote(r) for r in refs])
    split_refs = [r if isinstance(r, list) else [r] for r in split_refs]
    out = [
        _reduce.remote(b, *([r[s * B + b] for r in split_refs] for s in range(sides)))
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
    return _exchange(ds, bucket_col, num_buckets, reduce_fn, fallback,
                     "bucket_exchange")


def two_sided_exchange(
    both: ray.data.Dataset,
    bucket_col: str,
    side_col: str,
    right_tag: str,
    num_buckets: "int | None",
    join_fn: Callable[[int, list[pa.Table], list[pa.Table]], pa.Table],
    *,
    fallback: Callable[[], ray.data.Dataset] | None = None,
) -> ray.data.Dataset:
    """Two-sided raw exchange for joins: ``both`` is the tagged UNION
    of the two sides (one streaming execution, so the sides still run
    concurrently); each map task splits its block into 2·B slices
    keyed by (side, bucket) and reducer ``b`` receives bucket ``b``'s
    left slices and right slices separately — ``join_fn(b, lparts,
    rparts)`` joins them (parts may be empty / schema-drifted per
    block; the caller casts each part to its captured side schema).
    Buckets, ``num_buckets=None`` and ``fallback`` work as in
    ``bucket_exchange``."""
    return _exchange(both, bucket_col, num_buckets, join_fn, fallback,
                     "two_sided_exchange", side=(side_col, right_tag))
