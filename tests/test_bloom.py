"""Distributed Bloom filter (incremental dedup)."""

import numpy as np
import pandas as pd
import ray.data

from feast_ray.functions.bloom import (
    BloomFilter,
    bloom_build,
    bloom_filter_new,
    bloom_positions,
)


def _keys(n, prefix="k"):
    return [f"{prefix}{i}" for i in range(n)]


def test_bloom_no_false_negatives_and_low_fp():
    corpus = _keys(500)
    bf = bloom_build(
        ray.data.from_pandas(pd.DataFrame({"k": corpus})),
        "k",
        m_bits=1 << 16,
        k=4,
        num_segments=8,
    )
    assert bf.contains(corpus).all()  # zero false negatives, always
    fresh = _keys(2000, prefix="new")
    fp = bf.contains(fresh).mean()
    assert fp < 0.01  # m/n = 131 bits/key -> FP ~ 1e-7


def test_bloom_distributed_build_matches_local():
    corpus = _keys(300)
    ds = ray.data.from_pandas(pd.DataFrame({"k": corpus})).repartition(7)
    bf = bloom_build(ds, "k", m_bits=1 << 12, k=3, num_segments=4)
    pos = np.unique(bloom_positions(corpus, 1 << 12, 3))
    local = np.zeros((1 << 12) // 64, dtype=np.uint64)
    np.bitwise_or.at(
        local, pos >> 6, np.uint64(1) << (pos & 63).astype(np.uint64)
    )
    assert (bf.bits == local).all()


def test_bloom_distributed_build_matches_local_two_buckets(force_buckets):
    force_buckets(2)  # several keys per reducer
    test_bloom_distributed_build_matches_local()


def test_bloom_filter_new_drops_members_keeps_fresh():
    corpus = pd.DataFrame({"k": _keys(200)})
    incoming = pd.DataFrame({"k": _keys(200) + _keys(50, prefix="new")})
    bf = bloom_build(
        ray.data.from_pandas(corpus), "k", m_bits=1 << 16, k=4
    )
    out = bloom_filter_new(
        ray.data.from_pandas(incoming), bf, "k"
    ).to_pandas()
    assert set(out["k"]) == {f"new{i}" for i in range(50)}
    # audit mode: all rows kept, flag column appended
    audit = bloom_filter_new(
        ray.data.from_pandas(incoming), bf, "k", member_col="seen"
    ).to_pandas()
    assert len(audit) == 250 and audit["seen"].sum() == 200


def test_bloom_false_positive_branch_is_real():
    # deliberately undersized filter: members AND some fresh keys drop
    corpus = _keys(400)
    bf = bloom_build(
        ray.data.from_pandas(pd.DataFrame({"k": corpus})),
        "k",
        m_bits=1 << 10,
        k=4,
        num_segments=4,
    )
    fresh = _keys(400, prefix="x")
    fp = bf.contains(fresh)
    assert fp.any()  # load 1.56 -> FP ~ 0.38: the FP path is exercised
    out = bloom_filter_new(
        ray.data.from_pandas(pd.DataFrame({"k": corpus + fresh})), bf, "k"
    ).to_pandas()
    assert set(out["k"]) == {k for k, m in zip(fresh, fp) if not m}


def test_bloom_empty_and_fill_ratio():
    bf = bloom_build(
        ray.data.from_pandas(pd.DataFrame({"k": _keys(64)})),
        "k",
        m_bits=1 << 12,
        k=2,
        num_segments=2,
    )
    assert 0 < bf.fill_ratio < 0.05
    assert bf.contains([]).shape == (0,)
    empty = BloomFilter(m=1 << 12, k=2, bits=np.zeros(64, dtype=np.uint64))
    assert not empty.contains(["anything"]).any()


def test_partitioned_bloom_matches_per_partition_reference():
    import ray

    from feast_ray.functions.bloom import (
        bloom_build_partitioned,
        bloom_filter_new_partitioned,
        bloom_positions,
        _partition_of,
    )
    from feast_ray.functions.neardup import word_hashes64

    corpus = _keys(400)
    ds = ray.data.from_pandas(pd.DataFrame({"k": corpus})).repartition(5)
    pb = bloom_build_partitioned(
        ds, "k", 4, m_bits_per=1 << 12, k=3, num_segments=4
    )
    # reference: per-partition position sets
    h = word_hashes64(corpus)
    p = _partition_of(h, 4)
    pos = bloom_positions(corpus, 1 << 12, 3)
    psets = {
        pi: set(pos[p == pi].ravel().tolist()) for pi in range(4)
    }
    probe = corpus + _keys(600, prefix="new")
    hp = word_hashes64(probe)
    pp = _partition_of(hp, 4)
    want = [
        all(int(x) in psets.get(int(pp[i]), set()) for x in row)
        for i, row in enumerate(bloom_positions(probe, 1 << 12, 3))
    ]
    got = pb.contains(probe)
    assert got.tolist() == want
    assert got[:400].all()  # no false negatives

    out = bloom_filter_new_partitioned(
        ray.data.from_pandas(pd.DataFrame({"k": probe})), pb, "k"
    ).to_pandas()
    assert set(out["k"]) == {k for k, m in zip(probe, want) if not m}
    ann = bloom_filter_new_partitioned(
        ray.data.from_pandas(pd.DataFrame({"k": probe})), pb, "k",
        member_col="seen",
    ).to_pandas()
    assert len(ann) == len(probe) and ann["seen"].sum() == sum(want)


def test_partitioned_bloom_matches_per_partition_reference_two_buckets(force_buckets):
    force_buckets(2)  # several keys per reducer
    test_partitioned_bloom_matches_per_partition_reference()
