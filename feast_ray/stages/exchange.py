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

* **map side**: one task per materialized block → stable-sort the
  block by its small-int bucket column → ``num_returns=B`` zero-copy
  slices (Arrow ``Table.slice``), one per bucket.
* **reduce side**: one task per bucket concatenates its ≤ M slices
  (M = map-task count) and applies the caller's per-bucket function.

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


def _split_remote(bucket_col: str, n_out: int, key_fn, drop_cols: Sequence[str]):
    """Build the map-side task: block → ``n_out`` per-bucket slices.

    ``key_fn(tbl) -> np.ndarray[int64]`` maps each row to its output
    index in [0, n_out) (identity on the bucket column for one-sided
    exchanges; side-composited for joins)."""

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
    """Wait (no fetch) until every map task is done; see bucket_exchange."""
    ray.wait([r[0] if isinstance(r, list) else r for r in split_refs],
             num_returns=len(split_refs), fetch_local=False)
    return split_refs


def bucket_exchange(
    ds: ray.data.Dataset,
    bucket_col: str,
    num_buckets: "int | None",
    reduce_fn: Callable[[list[pa.Table]], pa.Table],
    *,
    fallback: Callable[[], ray.data.Dataset] | None = None,
    premodded: bool = True,
) -> ray.data.Dataset:
    """One-sided raw exchange: partition ``ds`` on its precomputed
    int ``bucket_col`` and run ``reduce_fn(parts)`` once per bucket
    (``parts`` are that bucket's per-map-task Arrow slices, the bucket
    column already dropped; EVERY bucket gets a reduce call, possibly
    with all-empty typed parts — reducers must tolerate empty input).

    ``fallback`` builds the result for an input that materializes to
    zero blocks (no schema to exchange) — typically an empty Dataset
    from ``reduce_fn([])``.

    ``num_buckets=None`` AUTO-SIZES the bucket count from the
    materialized input's object-store bytes (``auto_num_buckets``) —
    possible here because the exchange materializes at build time, so
    the size is known before any slice moves. Requires
    ``premodded=False``: ``bucket_col`` then carries the RAW uint64
    key hash (stored as int64) and each map task mods it by the
    derived count."""
    def _key(tbl: pa.Table) -> np.ndarray:
        # Ray Data emits 0-row map_batches outputs as SCHEMA-LESS empty
        # blocks (no columns at all) — route them to bucket 0; they
        # carry no rows
        if bucket_col not in tbl.column_names:
            return np.zeros(len(tbl), dtype=np.int64)
        v = tbl[bucket_col].to_numpy(zero_copy_only=False)
        if premodded:
            return v.astype(np.int64)
        return (v.astype(np.int64).view(np.uint64) % np.uint64(B)).astype(
            np.int64
        )

    mat = ds.materialize()
    refs = mat.to_arrow_refs()
    if not refs:
        if fallback is not None:
            return fallback()
        raise ValueError("bucket_exchange on a zero-block Dataset")
    if num_buckets is None:
        if premodded:
            raise ValueError("num_buckets=None requires premodded=False")
        # size from the materialized dataset's own block metadata —
        # free and reliable; the object-location query is only a
        # fallback (it can time out under load)
        size = mat.size_bytes() or 0
        B = auto_num_buckets(size if size > 0 else refs_total_bytes(refs))
    else:
        B = num_buckets
    _split = _split_remote(bucket_col, B, _key, [bucket_col])

    # slice refs ride INSIDE a list argument, not as task args (Ray
    # 2.49's reference counter can fatally race inlining thousands of
    # tiny slices, reference_count.cc:581), so Ray would schedule a
    # reducer before its slices exist; it would then hold a worker in
    # ray.get while another worker process starts for the map tasks
    @ray.remote
    def _reduce(part_refs):
        return reduce_fn(list(ray.get(list(part_refs))))

    split_refs = _splits_done([_split.remote(r) for r in refs])
    if B == 1:
        out = [_reduce.remote(split_refs)]
    else:
        out = [_reduce.remote([sr[b] for sr in split_refs]) for b in range(B)]
    return ray.data.from_arrow_refs(out)


def two_sided_exchange(
    both: ray.data.Dataset,
    bucket_col: str,
    side_col: str,
    right_tag: str,
    num_buckets: int,
    join_fn: Callable[[list[pa.Table], list[pa.Table]], pa.Table],
    *,
    fallback: Callable[[], ray.data.Dataset] | None = None,
    premodded: bool = True,
) -> ray.data.Dataset:
    """Two-sided raw exchange for joins: ``both`` is the tagged UNION
    of the two sides (one streaming execution, so the sides still run
    concurrently); each map task splits its block into 2·B slices
    keyed by (side, bucket) and reducer ``b`` receives bucket ``b``'s
    left slices and right slices separately — ``join_fn(lparts,
    rparts)`` joins them (parts may be empty / schema-drifted per
    block; the caller casts each part to its captured side schema).

    ``premodded=False``: ``bucket_col`` carries the RAW uint64 key
    hash (stored as int64; hash_join's deferred auto-sizing mode) and
    each map task mods it by ``num_buckets`` here."""
    B = num_buckets

    def _key(tbl: pa.Table) -> np.ndarray:
        if bucket_col not in tbl.column_names:  # schema-less empty block
            return np.zeros(len(tbl), dtype=np.int64)
        b = tbl[bucket_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if not premodded:
            b = (b.view(np.uint64) % np.uint64(B)).astype(np.int64)
        is_r = np.asarray(tbl[side_col].to_numpy(zero_copy_only=False) == right_tag)
        return b + is_r.astype(np.int64) * B

    refs = both.to_arrow_refs()
    if not refs:
        if fallback is not None:
            return fallback()
        raise ValueError("two_sided_exchange on a zero-block Dataset")
    _split = _split_remote(bucket_col, 2 * B, _key, [bucket_col, side_col])

    # refs inside list args — see bucket_exchange for why (Ray 2.49
    # arg-inlining race under thousands of tiny multi-return objects)
    @ray.remote
    def _reduce(l_refs, r_refs):
        return join_fn(list(ray.get(list(l_refs))), list(ray.get(list(r_refs))))

    split_refs = _splits_done([_split.remote(r) for r in refs])
    out = [
        _reduce.remote(
            [sr[b] for sr in split_refs],
            [sr[B + b] for sr in split_refs],
        )
        for b in range(B)
    ]
    return ray.data.from_arrow_refs(out)
