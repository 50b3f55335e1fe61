"""Distributed Bloom filter: incremental dedup against an existing
corpus without a join.

The operation a 100 TB pipeline actually runs when a NEW crawl arrives:
"drop every document whose key we already ingested" — an anti-join
whose right side is the entire historical corpus. A shuffle anti-join
would move the full key set of both corpora; a Bloom filter moves a
fixed-size bit array instead. Build once over the corpus (mergeable
per-block partials — the sketch doctrine of ``sketches.py``), broadcast
via ``ray.put``, and every filter task answers membership locally.
False positives (old-looking new docs get dropped) at the standard
rate ``(1 - e^{-kn/m})^k``; false negatives never.

Scale design:

* **build** never moves raw keys: each block hashes its keys, expands
  to the k bit positions, dedupes in-block, and ships DISTINCT
  positions only (8 B each, ≤ k per distinct key). The wide step packs
  positions into disjoint dense segments — one vectorized
  ``bitwise_or.at`` per segment via ``bucketed_group_reduce`` — and
  the driver concatenates ``num_segments`` byte strings. Nothing
  driver-side ever sees a key.
* **probe** is a broadcast read: the packed filter is ``ray.put`` once
  and gathered zero-copy by every ``map_batches`` task; the check is
  three numpy gathers per batch.
* **limits**: one filter must fit the object store / worker heap
  (m ≤ 2^32 bits = 512 MB here). Beyond that — e.g. 10^10 keys at
  1% FP needs ~12 GB — use :func:`bloom_build_partitioned` +
  :func:`bloom_filter_new_partitioned`: P independent filters, probe
  rows co-partitioned so each task gathers ONLY its partition's bits
  (the join.py size-gating doctrine applied to sketch state).

Hash family: ONE ``word_hashes64`` digest per key (Horner+splitmix64,
process-stable and SQL-reconstructable — q62's oracle re-derives
membership bit-exactly, false positives included) expanded to k
positions by Kirsch–Mitzenmacher double hashing::

    h1 = h mod m,  h2 = (h >> 33) * 2 + 1   (odd)
    pos_i = (h1 + i * h2) mod m             i = 0..k-1

Reference has no analog (SURVEY.md §2 extension surface; nearest is
the exact-dedup path, neardup.py:44).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from feast_ray.functions.neardup import word_hashes64
from feast_ray.stages.dedup import bucketed_group_reduce
from feast_ray.stages.exchange import bucket_exchange


def positions_from_hashes(h: np.ndarray, m: int, k: int) -> np.ndarray:
    """(n, k) int64 bit positions from uint64 digests."""
    h = h.astype(np.uint64, copy=False)
    h1 = (h % np.uint64(m)).astype(np.int64)
    h2 = (((h >> np.uint64(33)) << np.uint64(1)) + np.uint64(1)).astype(
        np.int64
    )
    i = np.arange(k, dtype=np.int64)[None, :]
    return (h1[:, None] + i * h2[:, None]) % m


def bloom_positions(keys: "list[str]", m: int, k: int) -> np.ndarray:
    """(n, k) int64 bit positions for each key."""
    return positions_from_hashes(word_hashes64(keys), m, k)


def _pack(rel: np.ndarray, nbits: int) -> np.ndarray:
    """Dense uint64 bitset of ``nbits`` with ``rel`` positions set."""
    arr = np.zeros(nbits // 64, dtype=np.uint64)
    np.bitwise_or.at(
        arr, rel >> 6, np.uint64(1) << (rel & 63).astype(np.uint64)
    )
    return arr


@dataclass
class BloomFilter:
    """Packed filter + its hash-family parameters."""

    m: int
    k: int
    bits: np.ndarray  # uint64[m // 64]

    def contains(self, keys: "list[str]") -> np.ndarray:
        """bool[n]: True = possibly present (all k bits set)."""
        if not keys:
            return np.zeros(0, dtype=bool)
        return self.contains_hashes(word_hashes64(keys))

    def contains_hashes(self, h: np.ndarray) -> np.ndarray:
        """Membership from precomputed uint64 digests (no string
        round-trip — the prehashed probe path)."""
        if len(h) == 0:
            return np.zeros(0, dtype=bool)
        pos = positions_from_hashes(h, self.m, self.k)
        word = self.bits[pos >> 6]
        hit = (word >> (pos & 63).astype(np.uint64)) & np.uint64(1)
        return hit.all(axis=1)

    @property
    def fill_ratio(self) -> float:
        return float(
            sum(int(w).bit_count() for w in self.bits.tolist())
        ) / self.m


def _pack_segments(df: pd.DataFrame, keys: list[str], seg_bits: int) -> pd.DataFrame:
    """One packed bit segment per ``keys`` group of distinct ``pos``
    rows (the last key is the segment id) — a reduce call may hold
    several segments, or none."""
    rows = []
    for kv, g in df.groupby(keys, sort=False):
        kv = kv if isinstance(kv, tuple) else (kv,)
        pos = np.unique(g["pos"].to_numpy(dtype=np.int64))
        seg = int(kv[-1])
        rows.append((*map(int, kv), _pack(pos - seg * seg_bits, seg_bits).tobytes()))
    out = pd.DataFrame(rows, columns=[*keys, "bits"])
    return out.astype({**dict.fromkeys(keys, "int64"), "bits": object})


def bloom_build(
    ds: ray.data.Dataset,
    key_col: str,
    *,
    m_bits: int = 1 << 22,
    k: int = 4,
    num_segments: int = 32,
    prehashed: bool = False,
) -> BloomFilter:
    """Build a Bloom filter over ``ds[key_col]`` distributed: in-block
    position dedup → segment shuffle (distinct positions only) → one
    vectorized pack per segment → driver concat of ``num_segments``
    byte payloads (total m/8 bytes — the only driver materialization).

    ``m_bits`` must be a multiple of 64 × num_segments and ≤ 2^32
    (single-filter regime; partition keys into multiple filters past
    that — see module docstring). ``prehashed=True``: ``key_col``
    already holds uint64/int64 digests — used directly as h, probe
    with :meth:`BloomFilter.contains_hashes`."""
    if m_bits % (64 * num_segments):
        raise ValueError("m_bits must be a multiple of 64*num_segments")
    if m_bits > 1 << 32:
        raise ValueError("single filter capped at 2^32 bits; partition keys")
    seg_bits = m_bits // num_segments

    def _partial(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return pa.table({"pos": pa.array([], pa.int64())})
        if prehashed:
            col = tbl[key_col]
            if col.null_count:
                # a null digest would round-trip through float64 NaN
                # into a garbage position — fail loudly like the
                # string path does
                raise ValueError(
                    f"prehashed bloom_build: {key_col} contains nulls"
                )
            h = col.to_numpy(zero_copy_only=False).astype(np.uint64)
            pos = np.unique(positions_from_hashes(h, m_bits, k))
        else:
            pos = np.unique(
                bloom_positions(tbl[key_col].to_pylist(), m_bits, k)
            )
        return pa.table({"pos": pa.array(pos, pa.int64())})

    parts = ds.map_batches(_partial, batch_format="pyarrow").map_batches(
        lambda t: t.append_column(
            "seg", pa.array(t["pos"].to_numpy() // seg_bits, pa.int64())
        ),
        batch_format="pyarrow",
    )
    segs = bucketed_group_reduce(
        parts, ["seg"], lambda df: _pack_segments(df, ["seg"], seg_bits)
    )
    bits = np.zeros(m_bits // 64, dtype=np.uint64)
    words = seg_bits // 64
    for row in segs.take_all():
        s = int(row["seg"])
        bits[s * words : (s + 1) * words] = np.frombuffer(
            row["bits"], dtype=np.uint64
        )
    return BloomFilter(m=m_bits, k=k, bits=bits)


def bloom_filter_new(
    ds: ray.data.Dataset,
    bloom: BloomFilter,
    key_col: str,
    *,
    member_col: str | None = None,
) -> ray.data.Dataset:
    """Probe side: keep only rows whose key is definitely NOT in the
    filter (the incremental-ingest semantics — members, including
    false positives, are dropped). With ``member_col`` set, instead
    append the boolean membership flag and keep every row (audit
    mode). The packed filter is ``ray.put`` once; tasks gather it
    zero-copy."""
    bits_ref = ray.put(bloom.bits)
    m, k = bloom.m, bloom.k

    def _probe(tbl: pa.Table) -> pa.Table:
        bf = BloomFilter(m=m, k=k, bits=ray.get(bits_ref))
        member = bf.contains(tbl[key_col].to_pylist())
        if member_col is not None:
            return tbl.append_column(member_col, pa.array(member))
        return tbl.filter(pa.array(~member))

    return ds.map_batches(_probe, batch_format="pyarrow")


def bloom_semi_prefilter(
    ds: ray.data.Dataset,
    bloom: BloomFilter,
    key_col: str,
    *,
    prehashed: bool = False,
) -> ray.data.Dataset:
    """Join-pushdown polarity (the classic distributed-join dynamic
    filter: Bloom-filter semi-join reduction): KEEP rows whose key is
    possibly in the filter — members including false positives — and
    drop definite non-members BEFORE the join's shuffle. With a
    selective build side, most probe-side rows never enter the
    exchange; false positives cost only wasted shuffle bytes, never
    correctness, because the exact join still runs behind it.
    ``prehashed=True``: ``key_col`` holds the same uint64 digests the
    filter was built from (the caller's contract — e.g.
    ``_splitmix64`` of an int key on BOTH sides)."""
    bits_ref = ray.put(bloom.bits)
    m, k = bloom.m, bloom.k

    def _probe(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return tbl
        bf = BloomFilter(m=m, k=k, bits=ray.get(bits_ref))
        if prehashed:
            h = tbl[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
            member = bf.contains_hashes(h)
        else:
            member = bf.contains(tbl[key_col].to_pylist())
        return tbl.filter(pa.array(member))

    return ds.map_batches(_probe, batch_format="pyarrow")


def _partition_of(h: np.ndarray, num_partitions: int) -> np.ndarray:
    """Partition id from a SECOND splitmix pass over the digest —
    independent of the bits the position scheme consumes (p = h % P
    would alias the low position bits when both are powers of two,
    collapsing pos_0 to m/P residues inside each filter)."""
    from feast_ray.functions.neardup import _splitmix64

    return (_splitmix64(h) % np.uint64(num_partitions)).astype(np.int64)


@dataclass
class PartitionedBloom:
    """A family of P independent filters, one per key partition —
    the beyond-broadcast-cap regime (e.g. 10^10 keys at 1% FP is
    ~12 GB of bits: no single object to broadcast). Each probe task
    gathers ONLY its partition's bits."""

    m: int  # bits per partition filter
    k: int
    num_partitions: int
    refs: "dict[int, object]"  # partition -> ray ObjectRef of uint64[]

    def contains(self, keys: "list[str]") -> np.ndarray:
        """Driver-side membership (testing/small batches)."""
        if not keys:
            return np.zeros(0, dtype=bool)
        h = word_hashes64(keys)
        p = _partition_of(h, self.num_partitions)
        out = np.zeros(len(keys), dtype=bool)
        for pi in np.unique(p):
            idx = np.flatnonzero(p == pi)
            bits = ray.get(self.refs[int(pi)])
            bf = BloomFilter(m=self.m, k=self.k, bits=bits)
            out[idx] = bf.contains([keys[i] for i in idx])
        return out


def bloom_build_partitioned(
    ds: ray.data.Dataset,
    key_col: str,
    num_partitions: int,
    *,
    m_bits_per: int = 1 << 22,
    k: int = 4,
    num_segments: int = 8,
) -> PartitionedBloom:
    """Build P filters in ONE pass: per-block (partition, pos)
    distinct pairs → (partition, segment) shuffle → vectorized pack →
    driver assembles P bit arrays and ``ray.put``s each separately
    (so probe tasks can gather one without touching the rest)."""
    if m_bits_per % (64 * num_segments):
        raise ValueError("m_bits_per must be a multiple of 64*num_segments")
    seg_bits = m_bits_per // num_segments

    def _partial(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return pa.table(
                {"p": pa.array([], pa.int64()), "pos": pa.array([], pa.int64())}
            )
        keys = tbl[key_col].to_pylist()
        h = word_hashes64(keys)
        p = _partition_of(h, num_partitions)
        pos = bloom_positions(keys, m_bits_per, k)
        df = pd.DataFrame(
            {"p": np.repeat(p, k), "pos": pos.ravel()}
        ).drop_duplicates()
        return pa.table(
            {
                "p": pa.array(df["p"].to_numpy(), pa.int64()),
                "pos": pa.array(df["pos"].to_numpy(), pa.int64()),
            }
        )

    parts = ds.map_batches(_partial, batch_format="pyarrow").map_batches(
        lambda t: t.append_column(
            "seg", pa.array(t["pos"].to_numpy() // seg_bits, pa.int64())
        ),
        batch_format="pyarrow",
    )
    segs = bucketed_group_reduce(
        parts, ["p", "seg"], lambda df: _pack_segments(df, ["p", "seg"], seg_bits)
    )
    arrays = {
        p: np.zeros(m_bits_per // 64, dtype=np.uint64)
        for p in range(num_partitions)
    }
    words = seg_bits // 64
    for row in segs.take_all():
        p, s = int(row["p"]), int(row["seg"])
        arrays[p][s * words : (s + 1) * words] = np.frombuffer(
            row["bits"], dtype=np.uint64
        )
    refs = {p: ray.put(a) for p, a in arrays.items()}
    return PartitionedBloom(
        m=m_bits_per, k=k, num_partitions=num_partitions, refs=refs
    )


def bloom_filter_new_partitioned(
    ds: ray.data.Dataset,
    pb: PartitionedBloom,
    key_col: str,
    *,
    member_col: str | None = None,
) -> ray.data.Dataset:
    """Probe side, CO-PARTITIONED: rows shuffle to their key's
    partition through ``bucket_exchange`` (one reduce task per
    partition) and each task ``ray.get``s only that partition's bit
    array — the filter family is never assembled in one place.
    Semantics identical to the single-filter probe (members and
    false positives drop; ``member_col`` flips to audit mode)."""
    m, k, P, refs = pb.m, pb.k, pb.num_partitions, pb.refs

    def _tag(tbl: pa.Table) -> pa.Table:
        h = word_hashes64(tbl[key_col].to_pylist())
        return tbl.append_column(
            "__bp", pa.array(_partition_of(h, P), pa.int64())
        )

    def _probe(parts: list) -> pa.Table:
        # one reduce call per partition: its id is recomputed from the
        # rows (the exchange drops the bucket column)
        typed = [t for t in parts if t.num_columns]
        if not typed:
            return pa.table({})
        tbl = pa.concat_tables(typed, promote_options="permissive")
        keys = tbl[key_col].to_pylist()
        if keys:
            p = int(_partition_of(word_hashes64(keys[:1]), P)[0])
            member = BloomFilter(m=m, k=k, bits=ray.get(refs[p])).contains(keys)
        else:
            member = np.zeros(0, dtype=bool)
        if member_col is not None:
            return tbl.append_column(member_col, pa.array(member, pa.bool_()))
        return tbl.filter(pa.array(~member))

    return bucket_exchange(
        ds.map_batches(_tag, batch_format="pyarrow"), "__bp", P, _probe,
        fallback=lambda: ray.data.from_arrow(_probe([])),
    )
