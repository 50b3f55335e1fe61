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
