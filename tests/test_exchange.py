"""Raw bucketed exchange: auto-sized bucket counts (VERDICT r3 #7)."""

def test_auto_num_buckets_scales_with_input(monkeypatch):
    """VERDICT r3 #7: bucket count derives from materialized input
    bytes (one-bucket-fits-heap invariant), not a constant — larger
    input ⇒ more buckets; unknown size degrades to the floor."""
    import numpy as np
    import pandas as pd
    import ray.data

    from feast_ray.stages import exchange
    from feast_ray.stages.dedup import bucketed_group_reduce

    assert exchange.auto_num_buckets(0) == 8
    assert exchange.auto_num_buckets(10 * exchange.TARGET_BUCKET_BYTES + 1) == 11
    assert exchange.auto_num_buckets(1 << 60) == 4096

    # integration: shrink the per-bucket target so a modest dataset
    # auto-sizes past the floor; output has exactly one block per bucket
    monkeypatch.setattr(exchange, "TARGET_BUCKET_BYTES", 64 << 10)
    n = 200_000
    df = pd.DataFrame({"k": np.arange(n) % 1000, "v": np.arange(n, dtype=np.float64)})
    ds = ray.data.from_pandas(df).repartition(4)
    out = bucketed_group_reduce(
        ds, ["k"], lambda d: d.groupby("k", as_index=False, dropna=False)["v"].sum()
    )
    got = out.to_pandas()
    b_big = out.num_blocks()
    assert b_big > 8, f"expected auto-sizing past the floor, got {b_big}"
    exp = df.groupby("k", as_index=False)["v"].sum()
    pd.testing.assert_frame_equal(
        got.sort_values("k").reset_index(drop=True), exp, check_dtype=False
    )
    # small input stays at the floor
    small = ray.data.from_pandas(df.head(100))
    out_s = bucketed_group_reduce(
        small, ["k"], lambda d: d.groupby("k", as_index=False, dropna=False)["v"].sum()
    )
    assert out_s.num_blocks() == 8


def test_reducers_wait_for_every_map_task():
    """Reducers get their slices as refs inside a list, which Ray does
    not wait for; the exchange itself must hold them back until every
    map task (single- or multi-return) is done."""
    import time

    import ray

    from feast_ray.stages import exchange

    @ray.remote(num_returns=2)
    def _two(delay):
        time.sleep(delay)
        return delay, delay

    @ray.remote
    def _one(delay):
        time.sleep(delay)
        return delay

    refs = [_two.remote(0.5), _one.remote(0.0), _one.remote(0.3), _two.remote(0.1)]
    assert exchange._splits_done(refs) is refs
    flat = [r for x in refs for r in (x if isinstance(x, list) else [x])]
    _, pending = ray.wait(flat, num_returns=len(flat), timeout=0, fetch_local=False)
    assert not pending


def test_only_keep_latest_uses_the_sort_shuffle(monkeypatch, tmp_path):
    """Every shuffle site except ``keep_latest`` runs on the raw
    exchange (or on driver-summed partials): with ``Dataset.groupby``
    disabled they all still run, and ``keep_latest`` is the one call
    that reaches Ray's sort shuffle."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pytest
    import ray.data

    from feast_ray.functions.bloom import (
        bloom_build,
        bloom_build_partitioned,
        bloom_filter_new_partitioned,
    )
    from feast_ray.functions.hnsw import hnsw_build
    from feast_ray.functions.neardup import (
        exact_dedup,
        minhash_candidate_pairs,
        simhash_dups,
    )
    from feast_ray.functions.sampling import budget_sample
    from feast_ray.functions.search import bm25_topk
    from feast_ray.functions.similarity import cosine_neardup_pairs_lsh
    from feast_ray.functions.sketches import approx_count_distinct, approx_quantiles
    from feast_ray.stages.aggregate import AggSpec, pivot_agg
    from feast_ray.stages.dedup import keep_latest
    from feast_ray.stages.join import copartitioned_asof_join
    from feast_ray.stages.relational import global_rank_int, global_rank_prefix_int

    def _no_sort_shuffle(self, *_a, **_k):
        raise AssertionError("Dataset.groupby called")

    monkeypatch.setattr(ray.data.Dataset, "groupby", _no_sort_shuffle)

    n = 24
    rng = np.random.default_rng(5)
    docs = ray.data.from_pandas(pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "g": np.arange(n) % 3,
        "v": np.arange(n, dtype=np.int64),
        "ts": pd.Timestamp("2024-01-01") + pd.to_timedelta(np.arange(n), unit="h"),
        "text": [f"alpha beta gamma delta {i % 5}" for i in range(n)],
    })).repartition(3)
    vecs = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array(list(rng.normal(size=(n, 4)).astype(np.float32)),
                              pa.list_(pa.float32())),
    })).repartition(2)

    exact_dedup(docs, "text", "doc_id").materialize()
    minhash_candidate_pairs(docs, "doc_id", "text", threshold=0.5).materialize()
    simhash_dups(docs, "doc_id", "text").materialize()
    approx_count_distinct(docs, ["g"], "text").materialize()
    approx_quantiles(docs, ["g"], "v", [0.5]).materialize()
    cosine_neardup_pairs_lsh(vecs, threshold=0.5).materialize()
    budget_sample(docs, "g", "v", "v", "doc_id", 50).materialize()
    right = docs.map_batches(
        lambda t: pa.table({"g": t["g"], "rts": t["ts"], "v": t["v"]}),
        batch_format="pyarrow")
    copartitioned_asof_join(docs.select_columns(["g", "ts", "doc_id"]), right,
                            left_ts="ts", right_ts="rts", by="g").materialize()
    pivot_agg(docs, "g", "doc_id", AggSpec("v", "sum", "s")).materialize()
    keys = docs.map_batches(
        lambda t: pa.table({"k": pa.array([str(x) for x in t["doc_id"].to_pylist()])}),
        batch_format="pyarrow")
    bloom_build(keys, "k", m_bits=1 << 12, num_segments=4)
    pb = bloom_build_partitioned(keys, "k", 3, m_bits_per=1 << 10, num_segments=2)
    bloom_filter_new_partitioned(keys, pb, "k").materialize()
    hnsw_build(vecs, str(tmp_path / "hnsw"), n_shards=3, m=4, ef_construction=8)
    global_rank_int(docs, "v", num_buckets=4).materialize()
    global_rank_prefix_int(docs, "doc_id", "v", num_buckets=4).materialize()
    bm25_topk(docs, ["alpha", "delta"], k=3).materialize()

    with pytest.raises(AssertionError, match="Dataset.groupby"):
        keep_latest(docs, ["g"], "ts").materialize()
