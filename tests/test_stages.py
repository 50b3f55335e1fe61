"""Operator tests against DuckDB / pandas oracles (the reference's
golden-oracle pattern, tests/utils/feature_records.py)."""

from datetime import timedelta

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import pytest
import ray.data

from feast_ray.sources import read_table
from feast_ray.stages import (
    AggSpec,
    asof_join,
    broadcast_join,
    cross_join,
    distinct,
    grouped_agg,
    hash_join,
    keep_latest,
    topk,
    ttl_filter,
    union_align,
    windowed_agg,
)
from feast_ray.stages.join import copartitioned_asof_join


def test_grouped_agg_matches_duckdb(sf_small, duck):
    li = read_table(sf_small, "lineitem")
    out = (
        grouped_agg(
            li,
            ["l_returnflag", "l_linestatus"],
            [
                AggSpec("l_quantity", "sum", "sum_qty"),
                AggSpec("l_quantity", "mean", "avg_qty"),
                AggSpec("l_quantity", "std", "std_qty"),
                AggSpec("l_quantity", "var", "var_qty"),
                AggSpec("l_quantity", "min", "min_qty"),
                AggSpec("l_quantity", "max", "max_qty"),
                AggSpec(None, "count", "n"),
                AggSpec("l_extendedprice", "count_distinct", "n_prices"),
            ],
        )
        .to_pandas()
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )
    exp = duck.execute(
        """select l_returnflag, l_linestatus, sum(l_quantity) sum_qty,
           avg(l_quantity) avg_qty, stddev_samp(l_quantity) std_qty,
           var_samp(l_quantity) var_qty, min(l_quantity) min_qty,
           max(l_quantity) max_qty, count(*) n,
           count(distinct l_extendedprice) n_prices
           from lineitem group by 1,2 order by 1,2"""
    ).fetchdf()
    for c in ["sum_qty", "avg_qty", "std_qty", "var_qty", "min_qty", "max_qty"]:
        np.testing.assert_allclose(out[c], exp[c], err_msg=c)
    assert (out["n"].to_numpy() == exp["n"].to_numpy()).all()
    assert (out["n_prices"].to_numpy() == exp["n_prices"].to_numpy()).all()


def test_global_agg(sf_small, duck):
    li = read_table(sf_small, "lineitem", columns=["l_quantity"])
    out = grouped_agg(li, [], [AggSpec("l_quantity", "sum", "s"), AggSpec(None, "count", "n")]).to_pandas()
    s, n = duck.execute("select sum(l_quantity), count(*) from lineitem").fetchone()
    assert len(out) == 1
    assert out["s"][0] == pytest.approx(s)
    assert out["n"][0] == n


def test_keep_latest_matches_duckdb(sf_small, duck):
    ev = read_table(sf_small, "events")
    out = keep_latest(ev, ["user_id"], "ts").to_pandas().sort_values("user_id")
    exp = duck.execute(
        """select * exclude(rn) from (select *, row_number() over
           (partition by user_id order by ts desc, event_id desc) rn from events)
           where rn=1 order by user_id"""
    ).fetchdf()
    # ts ties broken arbitrarily in ours; compare the (user_id, ts) pairs
    assert (out["user_id"].to_numpy() == exp["user_id"].to_numpy()).all()
    assert (out["ts"].to_numpy() == exp["ts"].to_numpy()).all()


def test_keep_latest_tiebreak_created():
    import ray.data

    df = pd.DataFrame(
        {
            "k": [1, 1, 1, 2],
            "event_ts": pd.to_datetime(["2024-01-02", "2024-01-02", "2024-01-01", "2024-01-01"]),
            "created_ts": pd.to_datetime(["2024-02-01", "2024-02-02", "2024-03-01", None]),
            "v": [10, 20, 30, 40],
        }
    )
    ds = ray.data.from_pandas(df)
    out = keep_latest(ds, ["k"], "event_ts", "created_ts").to_pandas().sort_values("k")
    # k=1: event ties on 01-02 → created 02-02 wins → v=20; null created loses
    assert out["v"].tolist() == [20, 40]


# keep_latest's Arrow kernel against the pandas semantics it replaced:
# stable sort on the order columns (nulls first), last row per key


def _pandas_latest(tbl, keys, order_by):
    df = tbl.to_pandas()
    df = df.sort_values(order_by, kind="stable", na_position="first")
    return df.drop_duplicates(keys, keep="last")


def _arrow(ds):
    """Collect a Dataset as one Arrow table; the sort shuffle may also
    emit schema-less empty blocks, which carry no rows."""
    import pyarrow as pa

    return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs()) if t.num_columns])


def _events(n, seed):
    """Few keys and few timestamps, so full ties are common; ``v`` is a
    unique row id, so the set of kept ``v`` identifies the output."""
    import pyarrow as pa

    rng = np.random.default_rng(seed)
    k = pa.array(rng.integers(0, 5, n), pa.int64(), mask=rng.random(n) < 0.15)
    k2 = pa.array(rng.choice(["a", "b"], n), pa.string(), mask=rng.random(n) < 0.1)
    f = rng.integers(0, 3, n).astype(np.float64)
    f[rng.random(n) < 0.2] = np.nan
    ts = pa.array(rng.integers(0, 3, n) * 3_600_000_000, pa.timestamp("us"),
                  mask=rng.random(n) < 0.2)
    created = pa.array(rng.integers(0, 3, n), pa.timestamp("us"), mask=rng.random(n) < 0.2)
    return pa.table({"k": k, "k2": k2, "f": f, "ts": ts, "created": created,
                     "v": np.arange(n)})


_KERNEL_CASES = [
    (["k"], ["ts"]),  # null keys, null event_ts, full ties
    (["k", "k2"], ["ts"]),  # multi-column keys, nulls in either
    (["k"], ["ts", "created"]),  # created_ts tie-break, null created
    (["f"], ["ts"]),  # NaN float keys form one group
]


@pytest.mark.parametrize("keys,order_by", _KERNEL_CASES)
@pytest.mark.parametrize("seed", range(4))
def test_latest_kernel_matches_pandas(keys, order_by, seed):
    from feast_ray.stages.dedup import _latest_per_key

    tbl = _events(60, seed)
    got = _latest_per_key(keys, order_by)(tbl)
    assert got.schema == tbl.schema
    assert sorted(got["v"].to_pylist()) == sorted(_pandas_latest(tbl, keys, order_by)["v"])


def _crawl_ties():
    """A key whose timestamps are all null, a key with a full tie and a
    single-crawl key: the rows a hash-and-timestamp filter keeps twice."""
    import pyarrow as pa

    t = pa.timestamp("us")
    return pa.table({"url": ["a", "a", "b", "b", "c"],
                     "warc_ts": pa.array([None, None, 5, 5, 9], t),
                     "v": np.arange(5)})


@pytest.mark.parametrize("keys,order_by", _KERNEL_CASES + [(["url"], ["warc_ts"])])
def test_keep_latest_blocks_match_pandas(keys, order_by):
    """Several blocks, one of them 0-row: full ties across blocks go to
    the later block, as in the concatenated-input pandas reference."""
    tbl = _crawl_ties() if keys == ["url"] else _events(200, 7)
    a, b = len(tbl) * 7 // 20, len(tbl) * 13 // 20
    blocks = [tbl.slice(0, a), tbl.slice(a, 0), tbl.slice(a, b - a), tbl.slice(b)]
    out = keep_latest(ray.data.from_arrow(blocks), keys, order_by[0],
                      order_by[1] if len(order_by) > 1 else None, num_buckets=4)
    got = _arrow(out)
    assert sorted(got["v"].to_pylist()) == sorted(_pandas_latest(tbl, keys, order_by)["v"])


@pytest.mark.parametrize("cpus", [1, 8])
@pytest.mark.parametrize("num_buckets", [1, 2, 64])
@pytest.mark.parametrize("keys,order_by", _KERNEL_CASES)
def test_keep_latest_ranges_match_pandas(monkeypatch, keys, order_by, num_buckets, cpus):
    """One reducer block per contiguous bucket range: R = CPUs capped
    at ``num_buckets``, floor 2. Null keys form one group, as do NaN
    keys; every key of ``k`` is in every block; ``created`` ties. The
    last block's ``k`` holds no null, so an int key there must hash as
    it does in the blocks whose nulls make pandas see floats."""
    import pyarrow as pa
    import ray

    from feast_ray.stages.dedup import BUCKET_COL, add_hash_bucket

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": float(cpus)})
    extra = _events(50, 10)
    extra = extra.set_column(0, "k", pc.fill_null(extra["k"], 0)).set_column(
        5, "v", pa.array(np.arange(200, 250)))
    tbl = pa.concat_tables([_events(200, 9), extra])
    blocks = [tbl.slice(i, 50) for i in range(0, 250, 50)]
    assert all(pc.count_distinct(b["k"]).as_py() == 5 for b in blocks)
    assert blocks[-1]["k"].null_count == 0
    out = keep_latest(ray.data.from_arrow(blocks), keys, order_by[0],
                      order_by[1] if len(order_by) > 1 else None,
                      num_buckets=num_buckets).materialize()
    assert out.num_blocks() == max(2, min(cpus, num_buckets))
    got = _arrow(out)
    assert got.schema == tbl.schema
    assert sorted(got["v"].to_pylist()) == sorted(_pandas_latest(tbl, keys, order_by)["v"])
    # rows come out in bucket order, as from one reducer per bucket
    buckets = add_hash_bucket(got, keys, num_buckets)[BUCKET_COL].to_numpy()
    assert (np.diff(buckets) >= 0).all()


@pytest.mark.parametrize("num_buckets", [1, 2, 64])
def test_keep_latest_empty_input(num_buckets):
    tbl = _events(10, 1).slice(0, 0)
    out = keep_latest(ray.data.from_arrow(tbl), ["k"], "ts", "created",
                      num_buckets=num_buckets)
    assert out.count() == 0


def test_latest_kernel_empty_blocks():
    import pyarrow as pa

    from feast_ray.stages.dedup import _latest_per_key

    kernel = _latest_per_key(["k"], ["ts"])
    empty = _events(5, 0).slice(0, 0)
    assert kernel(empty).schema == empty.schema and kernel(empty).num_rows == 0
    assert kernel(pa.table({})).num_columns == 0


def test_keep_latest_preserves_schema():
    """Column types survive unchanged (no pandas type inference on the
    way) and the output carries no pandas schema metadata."""
    import pyarrow as pa

    tbl = pa.Table.from_pandas(pd.DataFrame({"k": ["x", "y", "x", None]}))
    tbl = tbl.append_column("ts", pa.array([1, 2, 3, 4], pa.timestamp("ms", tz="UTC")))
    tbl = tbl.append_column("s", pa.array(["a", "b", "c", "d"], pa.large_string()))
    tbl = tbl.append_column("i", pa.array([1, None, 3, 4], pa.int32()))
    tbl = tbl.append_column("l", pa.array([[1], [], None, [2, 3]], pa.list_(pa.int16())))
    tbl = tbl.append_column("b", pa.array([True, False, None, True]))
    assert tbl.schema.metadata  # pandas metadata on the way in
    out = _arrow(keep_latest(ray.data.from_arrow(tbl), ["k"], "ts"))
    assert out.schema == tbl.schema.remove_metadata()
    assert out.schema.metadata is None
    assert sorted(out["i"].to_pylist(), key=str) == [3, 4, None]


def test_keep_latest_kernels_never_use_pandas(monkeypatch):
    """The combiner and the reducer run with Table<->DataFrame
    conversion disabled, so pandas cannot creep back into the kernel."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.pandas_compat

    from feast_ray.stages.dedup import BUCKET_COL, _latest_per_key, add_hash_bucket

    tbl = _events(120, 3)
    exp = sorted(_pandas_latest(tbl, ["k"], ["ts", "created"])["v"])

    def _no_pandas(*a, **k):
        raise AssertionError("Table <-> pandas conversion in keep_latest")

    monkeypatch.setattr(pyarrow.pandas_compat, "table_to_dataframe", _no_pandas)
    monkeypatch.setattr(pyarrow.pandas_compat, "dataframe_to_arrays", _no_pandas)
    with pytest.raises(AssertionError):
        tbl.to_pandas()
    combine = _latest_per_key(["k"], ["ts", "created"])
    reduce = _latest_per_key(["k"], ["ts", "created"], drop=(BUCKET_COL,))
    parts = [add_hash_bucket(combine(tbl.slice(i, 40)), ["k"], 3) for i in (0, 40, 80)]
    bucketed = pa.concat_tables(parts)
    got = [reduce(bucketed.filter(pc.equal(bucketed[BUCKET_COL], b)))
           for b in range(3)]
    assert sorted(pa.concat_tables(got)["v"].to_pylist()) == exp


def test_broadcast_join_matches_duckdb(sf_small, duck):
    cust = read_table(sf_small, "customer")
    nat = read_table(sf_small, "nation").to_pandas()
    out = (
        broadcast_join(cust, nat, on="c_nationkey", right_on="n_nationkey", how="left")
        .to_pandas()
        .sort_values("c_custkey")
        .reset_index(drop=True)
    )
    exp = duck.execute(
        """select c.*, n.n_nationkey, n.n_name, n.n_regionkey from customer c
           left join nation n on c.c_nationkey = n.n_nationkey order by c_custkey"""
    ).fetchdf()
    assert len(out) == len(exp)
    assert (out["n_name"].to_numpy() == exp["n_name"].to_numpy()).all()


def test_hash_join_matches_duckdb(sf_small, duck, force_buckets):
    force_buckets(8)
    orders = read_table(sf_small, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    cust = read_table(sf_small, "customer", columns=["c_custkey", "c_mktsegment"])
    cust = cust.map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_mktsegment"]), batch_format="pyarrow"
    )
    out = hash_join(orders, cust, on="o_custkey", how="inner").to_pandas()
    exp = duck.execute(
        """select count(*), sum(o_totalprice) from orders o join customer c
           on o.o_custkey = c.c_custkey"""
    ).fetchone()
    assert len(out) == exp[0]
    assert out["o_totalprice"].sum() == pytest.approx(exp[1])


def test_asof_join_pandas_oracle(sf_small):
    ev = read_table(sf_small, "events").to_pandas()
    purchases = ev[ev.event_type == "purchase"][["user_id", "ts", "event_id"]]
    clicks = ev[ev.event_type == "click"][["user_id", "ts", "value"]].rename(
        columns={"ts": "click_ts", "value": "click_value"}
    )
    import ray.data

    left = ray.data.from_pandas(purchases.reset_index(drop=True))
    out = (
        asof_join(left, clicks, left_ts="ts", right_ts="click_ts", by="user_id")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    exp = pd.merge_asof(
        purchases.sort_values("ts"),
        clicks.sort_values("click_ts"),
        left_on="ts",
        right_on="click_ts",
        by="user_id",
        direction="backward",
    ).sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_series_equal(out["click_value"], exp["click_value"])


def test_asof_join_ttl(sf_small):
    ev = read_table(sf_small, "events").to_pandas()
    purchases = ev[ev.event_type == "purchase"][["user_id", "ts", "event_id"]]
    clicks = ev[ev.event_type == "click"][["user_id", "ts", "value"]].rename(
        columns={"ts": "click_ts", "value": "click_value"}
    )
    import ray.data

    ttl = timedelta(hours=2)
    left = ray.data.from_pandas(purchases.reset_index(drop=True))
    out = (
        asof_join(left, clicks, left_ts="ts", right_ts="click_ts", by="user_id", ttl=ttl)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    exp = pd.merge_asof(
        purchases.sort_values("ts"),
        clicks.sort_values("click_ts"),
        left_on="ts",
        right_on="click_ts",
        by="user_id",
        direction="backward",
        tolerance=ttl,
    ).sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_series_equal(out["click_value"], exp["click_value"])


def test_copartitioned_asof_equals_broadcast(sf_small):
    import ray.data

    ev = read_table(sf_small, "events").to_pandas()
    purchases = ev[ev.event_type == "purchase"][["user_id", "ts", "event_id"]]
    clicks = ev[ev.event_type == "click"][["user_id", "ts", "value"]].rename(
        columns={"ts": "click_ts", "value": "click_value"}
    )
    left = ray.data.from_pandas(purchases.reset_index(drop=True))
    right = ray.data.from_pandas(clicks.reset_index(drop=True))
    out_b = (
        asof_join(left, clicks, left_ts="ts", right_ts="click_ts", by="user_id")
        .to_pandas()
        .sort_values("event_id")["click_value"]
        .reset_index(drop=True)
    )
    out_c = (
        copartitioned_asof_join(
            left, right, left_ts="ts", right_ts="click_ts", by="user_id"
        )
        .to_pandas()
        .sort_values("event_id")["click_value"]
        .reset_index(drop=True)
    )
    pd.testing.assert_series_equal(out_b, out_c)


def test_copartitioned_asof_equals_broadcast_two_buckets(sf_small, force_buckets):
    force_buckets(2)  # several keys per reducer
    test_copartitioned_asof_equals_broadcast(sf_small)


def test_ttl_filter(sf_small):
    import pandas as pd

    ev = read_table(sf_small, "events")
    bound = pd.Timestamp("2024-01-10")
    out = ttl_filter(ev, "ts", bound, ttl=timedelta(days=3), keep_null_ts=False).to_pandas()
    assert (out["ts"] <= bound).all()
    assert (out["ts"] >= bound - timedelta(days=3)).all()
    assert len(out) > 0


def test_distinct(sf_small, duck):
    ev = read_table(sf_small, "events")
    out = distinct(ev, ["event_type"]).to_pandas()
    exp = duck.execute("select distinct event_type from events").fetchdf()
    assert sorted(out["event_type"]) == sorted(exp["event_type"])


def test_topk(sf_small, duck):
    orders = read_table(sf_small, "orders")
    out = topk(orders, "o_totalprice", 10).to_pandas()
    exp = duck.execute(
        "select o_totalprice from orders order by o_totalprice desc limit 10"
    ).fetchdf()
    np.testing.assert_allclose(
        np.sort(out["o_totalprice"]), np.sort(exp["o_totalprice"])
    )


def test_union_align(sf_small):
    import ray.data

    a = ray.data.from_pandas(pd.DataFrame({"x": [1, 2], "y": ["a", "b"]}))
    b = ray.data.from_pandas(pd.DataFrame({"x": [3], "z": [9.5]}))
    out = union_align([a, b]).to_pandas().sort_values("x").reset_index(drop=True)
    assert list(out.columns) == ["x", "y", "z"]
    assert out["x"].tolist() == [1, 2, 3]
    assert out["z"].isna().tolist() == [True, True, False]


def test_windowed_agg_tumbling(sf_small, duck):
    ev = read_table(sf_small, "events")
    out = (
        windowed_agg(
            ev,
            ["user_id"],
            "ts",
            timedelta(hours=1),
            [AggSpec("value", "sum", "sum_value"), AggSpec(None, "count", "n")],
        )
        .to_pandas()
        .sort_values(["user_id", "window_start"])
        .reset_index(drop=True)
    )
    exp = duck.execute(
        """select user_id, time_bucket(interval '1 hour', ts) window_start,
           sum(value) sum_value, count(*) n from events
           group by 1,2 order by 1,2"""
    ).fetchdf()
    assert len(out) == len(exp)
    np.testing.assert_allclose(out["sum_value"], exp["sum_value"])
    assert (out["n"].to_numpy() == exp["n"].to_numpy()).all()


def test_gate_replica_flags_dtype_family_drift():
    """The local gate replica must flag an int64->float64 drift (the
    driver hashes the textual representation, so "1" vs "1.0" fails its
    hash even when values are exact — the round-4 q73 escape)."""
    from scripts.check_correctness import compare

    exp = pd.DataFrame({"k": [1, 2], "n": pd.array([3, 4], dtype="int64")})
    drifted = exp.assign(n=exp["n"].astype("float64"))
    problems = compare("synthetic", drifted, exp)
    assert any("dtype family drift" in p for p in problems)
    # exact-dtype match still passes
    assert compare("synthetic_ok", exp.copy(), exp.copy()) == []


def test_windowed_agg_sliding_mixed_specs_int_dtypes(sf_small):
    """Mixed sliding specs (count + count_distinct + sum) must emit
    int64 counts — the round-4 q73 regression upcast them to float64
    through the union_align nulls in the bucketed count_distinct join
    (values exact, representation drifted, driver hash failed)."""
    import ray.data

    df = pd.DataFrame(
        {
            "k": [1, 1, 1, 2, 2, 2],
            "ts": pd.to_datetime(
                ["2024-01-01 00:05", "2024-01-01 00:20", "2024-01-01 00:35",
                 "2024-01-01 00:50", "2024-01-01 01:05", "2024-01-01 01:20"]
            ),
            "u": [10, 10, 11, 12, 12, 13],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        }
    )
    out = windowed_agg(
        ray.data.from_pandas(df),
        ["k"],
        "ts",
        timedelta(hours=1),
        [
            AggSpec(None, "count", "n_events"),
            AggSpec("u", "count_distinct", "n_users"),
            AggSpec("v", "sum", "sum_v"),
        ],
        slide=timedelta(minutes=30),
    ).to_pandas()
    assert str(out["n_events"].dtype) == "int64"
    assert str(out["n_users"].dtype) == "int64"
    assert str(out["sum_v"].dtype) == "float64"
    # spot-check values against a brute re-derivation
    for _, row in out.iterrows():
        st = row["window_start"]
        m = (df["k"] == row["k"]) & (df["ts"] >= st) & (df["ts"] < st + timedelta(hours=1))
        assert row["n_events"] == int(m.sum())
        assert row["n_users"] == df.loc[m, "u"].nunique()


def test_windowed_agg_sliding(sf_small):
    """Sliding window: every row appears in window//slide hops; check
    against a pandas re-derivation."""
    import ray.data

    df = pd.DataFrame(
        {
            "k": [1] * 6,
            "ts": pd.to_datetime(
                ["2024-01-01 00:05", "2024-01-01 00:20", "2024-01-01 00:35",
                 "2024-01-01 00:50", "2024-01-01 01:05", "2024-01-01 01:20"]
            ),
            "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        }
    )
    ds = ray.data.from_pandas(df)
    out = (
        windowed_agg(ds, ["k"], "ts", timedelta(hours=1), [AggSpec("v", "sum", "s")],
                     slide=timedelta(minutes=30))
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    # oracle: for each slide-aligned start, sum rows in [start, start+1h)
    starts = sorted(out["window_start"].unique())
    for st in starts:
        mask = (df["ts"] >= st) & (df["ts"] < st + timedelta(hours=1))
        expected = df.loc[mask, "v"].sum()
        got = out.loc[out["window_start"] == st, "s"].iloc[0]
        assert got == pytest.approx(expected), st


def test_cross_join(sf_small):
    import ray.data

    left = ray.data.from_pandas(pd.DataFrame({"a": [1, 2, 3]}))
    right = pd.DataFrame({"b": ["x", "y"]})
    out = cross_join(left, right).to_pandas()
    assert len(out) == 6
    assert set(map(tuple, out.values)) == {(i, c) for i in [1, 2, 3] for c in ["x", "y"]}


def test_semi_and_anti_join(sf_small, duck):
    from feast_ray.stages.join import semi_join

    orders = read_table(sf_small, "orders", columns=["o_orderkey", "o_custkey"])
    building = duck.execute(
        "select c_custkey from customer where c_mktsegment = 'BUILDING'"
    ).fetchdf()["c_custkey"].tolist()
    got = semi_join(orders, building, on="o_custkey").to_pandas()
    exp_n = duck.execute(
        """select count(*) from orders where o_custkey in
           (select c_custkey from customer where c_mktsegment = 'BUILDING')"""
    ).fetchone()[0]
    assert len(got) == exp_n
    got_anti = semi_join(orders, building, on="o_custkey", anti=True).to_pandas()
    assert len(got_anti) == orders.count() - exp_n
    assert not set(got_anti["o_custkey"]) & set(building)


def test_asof_created_timestamp_cutoff():
    """Backfill leakage guard (dask.py:1203-1226): a feature row whose
    created_ts is after the entity timestamp is selected by the as-of
    (its event_ts qualifies) but its VALUES are blanked."""
    import ray.data

    left = ray.data.from_pandas(
        pd.DataFrame(
            {"k": [1, 2], "ets": pd.to_datetime(["2024-01-10", "2024-01-10"])}
        )
    )
    right = pd.DataFrame(
        {
            "k": [1, 2],
            "fts": pd.to_datetime(["2024-01-05", "2024-01-05"]),
            # k=1 written before the entity event; k=2 backfilled later
            "created": pd.to_datetime(["2024-01-06", "2024-02-01"]),
            "v": [10.0, 20.0],
        }
    )
    out = (
        asof_join(
            left, right, left_ts="ets", right_ts="fts", by="k",
            created_ts="created", created_cutoff=True,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out.loc[0, "v"] == 10.0
    assert pd.isna(out.loc[1, "v"])  # backfill blanked, row kept


def test_hash_join_one_sided_groups_and_left(force_buckets):
    """Regression (ADVICE r1): a bucket whose rows all come from one
    side must not crash or drop columns; how='left' keeps unmatched
    left rows with typed nulls."""
    force_buckets(4)
    import ray.data

    left = ray.data.from_pandas(
        pd.DataFrame({"k": [1, 2, 3, 4], "lv": [10, 20, 30, 40]})
    )
    right = ray.data.from_pandas(
        pd.DataFrame({"k": [2, 4, 9], "rv": [200.0, 400.0, 900.0]})
    )
    inner = (
        hash_join(left, right, on="k", how="inner")
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert list(inner["k"]) == [2, 4]
    assert list(inner["rv"]) == [200.0, 400.0]
    louter = (
        hash_join(left, right, on="k", how="left")
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert list(louter["k"]) == [1, 2, 3, 4]
    assert pd.isna(louter.loc[0, "rv"]) and louter.loc[1, "rv"] == 200.0


def test_hash_join_all_null_column_preserved(force_buckets):
    """Regression: a column that is entirely null inside one bucket is
    real data and must survive the join (old dropna side-split ate it)."""
    force_buckets(2)
    import ray.data

    left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "lv": [1.0, 2.0]}))
    right = ray.data.from_pandas(
        pd.DataFrame({"k": [1, 2], "rv": pd.array([None, None], dtype="float64")})
    )
    out = hash_join(left, right, on="k").to_pandas()
    assert "rv" in out.columns and len(out) == 2
    assert out["rv"].isna().all()


def test_copartitioned_asof_left_key_without_right_rows():
    """Regression (ADVICE r1): a left `by` key with zero right rows
    crashed the whole query; it must instead yield typed-null features."""
    import ray.data

    left = ray.data.from_pandas(
        pd.DataFrame(
            {
                "u": [1, 1, 5],
                "ts": pd.to_datetime(["2024-01-02", "2024-01-03", "2024-01-02"]),
                "eid": [10, 11, 12],
            }
        )
    )
    right = ray.data.from_pandas(
        pd.DataFrame(
            {
                "u": [1],
                "rts": pd.to_datetime(["2024-01-01"]),
                "rv": [7.5],
            }
        )
    )
    out = (
        copartitioned_asof_join(
            left, right, left_ts="ts", right_ts="rts", by="u"
        )
        .to_pandas().sort_values("eid").reset_index(drop=True)
    )
    assert list(out["eid"]) == [10, 11, 12]
    assert out.loc[0, "rv"] == 7.5 and out.loc[1, "rv"] == 7.5
    assert pd.isna(out.loc[2, "rv"]) and pd.isna(out.loc[2, "rts"])


def test_copartitioned_asof_left_key_without_right_rows_two_buckets(force_buckets):
    force_buckets(2)  # several keys per reducer
    test_copartitioned_asof_left_key_without_right_rows()


def _shared_ts_sides():
    """Two sides whose time column is named ``ts`` on both."""
    rng = np.random.default_rng(11)
    day = pd.Timestamp("2024-01-01")
    left = pd.DataFrame({
        "u": rng.integers(0, 4, 30),
        "ts": day + pd.to_timedelta(rng.integers(0, 48, 30), unit="h"),
        "eid": np.arange(30),
    })
    right = pd.DataFrame({
        "u": rng.integers(0, 4, 20),
        "ts": day + pd.to_timedelta(np.arange(20) * 2 + 1, unit="h"),
        "rv": np.arange(20, dtype=np.float64),
    })
    exp = pd.merge_asof(left.sort_values("ts", kind="stable"), right, on="ts", by="u")
    return left, right, exp.sort_values("eid").reset_index(drop=True)


@pytest.mark.parametrize("join", [asof_join, copartitioned_asof_join])
def test_asof_joins_with_shared_ts_name(join):
    """Both as-of joins take ``left_ts == right_ts``: pandas accepts
    ``on=`` alone, never together with ``left_on=``."""
    left, right, exp = _shared_ts_sides()
    rside = right if join is asof_join else ray.data.from_pandas(right)
    out = (join(ray.data.from_pandas(left), rside, left_ts="ts", right_ts="ts", by="u")
           .to_pandas().sort_values("eid").reset_index(drop=True))
    assert list(out.columns) == list(exp.columns)
    pd.testing.assert_frame_equal(out[exp.columns], exp, check_dtype=False)


def test_cross_join_arrow_blocks():
    """cross_join must emit Arrow blocks (repo rule #1) and the full
    cartesian product."""
    import ray.data

    left = ray.data.from_pandas(pd.DataFrame({"a": [1, 2, 3]}))
    right = pd.DataFrame({"b": ["x", "y"]})
    from feast_ray.stages.join import cross_join

    ds = cross_join(left, right)
    out = ds.to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    assert len(out) == 6
    assert list(out.columns) == ["a", "b"]
    assert out.loc[0, "b"] == "x" and out.loc[5, "a"] == 3


def test_interval_join_matches_pandas_oracle(sf_small):
    """interval_join vs a brute-force pandas oracle, keyed and
    unkeyed, inner and left."""
    import pyarrow.parquet as pq
    import ray.data

    from feast_ray.stages.join import interval_join

    ev = pq.read_table(f"{sf_small}/events.parquet").to_pandas()
    clicks = ev[ev.event_type == "click"][["event_id", "user_id", "ts"]]
    purch = ev[ev.event_type == "purchase"][["event_id", "user_id", "ts"]].rename(
        columns={"event_id": "pid", "ts": "w_start"}
    )
    purch["w_end"] = purch["w_start"] + timedelta(hours=2)

    got = (
        interval_join(
            ray.data.from_pandas(clicks.reset_index(drop=True)),
            purch,
            left_point="ts", right_start="w_start", right_end="w_end",
            by="user_id",
        )
        .to_pandas().sort_values(["event_id", "pid"]).reset_index(drop=True)
    )
    # brute force oracle
    m = clicks.merge(purch, on="user_id")
    m = m[(m.ts >= m.w_start) & (m.ts < m.w_end)]
    exp = m.sort_values(["event_id", "pid"]).reset_index(drop=True)
    assert list(got["event_id"]) == list(exp["event_id"])
    assert list(got["pid"]) == list(exp["pid"])

    # left join keeps unmatched clicks with nulls
    left_out = interval_join(
        ray.data.from_pandas(clicks.reset_index(drop=True)),
        purch,
        left_point="ts", right_start="w_start", right_end="w_end",
        by="user_id", how="left",
    ).to_pandas()
    assert len(left_out) >= len(clicks)
    unmatched = left_out[left_out["pid"].isna()]
    assert len(unmatched) == len(clicks) - clicks.event_id.isin(exp.event_id).sum()


def test_union_align_promotes_types():
    """Same-named columns with different widths unify (int32+int64 →
    int64) instead of drifting per block."""
    import pyarrow as pa
    import ray.data

    a = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int32()),
                                      "x": pa.array([1.0, 2.0], pa.float32())}))
    b = ray.data.from_arrow(pa.table({"k": pa.array([3], pa.int64()),
                                      "y": pa.array(["z"], pa.string())}))
    out = union_align([a, b])
    sch = {f.name: str(f.type) for f in out.schema().base_schema}
    assert sch["k"] == "int64" and sch["x"] == "float" or sch["x"] == "float32"
    df = out.to_pandas().sort_values("k").reset_index(drop=True)
    assert list(df["k"]) == [1, 2, 3]
    assert df["y"].isna().sum() == 2


def test_hash_join_hot_key_salting(force_buckets):
    """Salted skew join: identical result set to the unsalted join on
    a corpus with one extreme hot key, and the hot key's left rows
    spread across multiple buckets."""
    force_buckets(16)
    import ray.data

    n_hot = 500
    left = pd.DataFrame(
        {"k": [7] * n_hot + list(range(100)),
         "lv": list(range(n_hot)) + [1000 + i for i in range(100)]}
    )
    right = pd.DataFrame({"k": [7] + list(range(0, 100, 2)),
                          "rv": ["hot"] + [f"r{i}" for i in range(0, 100, 2)]})
    lds = ray.data.from_pandas(left)
    rds = ray.data.from_pandas(right)
    plain = (
        hash_join(lds, rds, on="k")
        .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True)
    )
    salted = (
        hash_join(lds, rds, on="k", hot_keys=[7])
        .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True)
    )
    assert len(plain) == len(salted) == n_hot + 1 + 50
    pd.testing.assert_frame_equal(plain, salted)
    # left outer with salting keeps unmatched rows exactly once
    lo_p = hash_join(lds, rds, on="k", how="left").to_pandas()
    lo_s = hash_join(lds, rds, on="k", how="left", hot_keys=[7]).to_pandas()
    assert len(lo_p) == len(lo_s) == n_hot + 100


def test_semi_join_distributed_path_parity(sf_small, monkeypatch):
    """The size-gated distributed semi/anti path (marker left-join)
    must match the broadcast is_in path."""
    import ray.data

    from feast_ray.stages import join
    from feast_ray.stages.join import semi_join

    orders = read_table(sf_small, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    import pyarrow.compute as pc_

    big_keys = read_table(sf_small, "customer", columns=["c_custkey"]).map_batches(
        lambda t: t.filter(pc_.less(t["c_custkey"], 60)).rename_columns(["o_custkey"]),
        batch_format="pyarrow",
    )
    for anti in (False, True):
        a = (
            semi_join(orders, big_keys, on="o_custkey", anti=anti)
            .to_pandas().sort_values("o_orderkey").reset_index(drop=True)
        )
        with monkeypatch.context() as m:
            m.setattr(join, "SEMI_BROADCAST_MAX_KEYS", 0)
            b = (
                semi_join(orders, big_keys, on="o_custkey", anti=anti)
                .to_pandas().sort_values("o_orderkey").reset_index(drop=True)
            )
        assert list(a["o_orderkey"]) == list(b["o_orderkey"])
        assert sorted(a.columns) == sorted(b.columns)


def test_hash_join_mismatched_key_types(force_buckets):
    """int32 left key vs int64 right key must join (promoted), not
    crash the per-bucket C++ join (code-review r2 finding)."""
    force_buckets(4)
    import pyarrow as pa
    import ray.data

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3], pa.int32()), "lv": [10, 20, 30]})
    )
    right = ray.data.from_arrow(
        pa.table({"k": pa.array([2, 3], pa.int64()), "rv": ["b", "c"]})
    )
    out = hash_join(left, right, on="k").to_pandas().sort_values("k")
    assert list(out["k"]) == [2, 3] and list(out["rv"]) == ["b", "c"]


def _null_in_one_block():
    """Blocks ``[5, null]`` and ``[5, 6]``: an int64 key that holds a
    null in one block only, so pandas sees it as float64 there."""
    import pyarrow as pa

    return ray.data.from_arrow([
        pa.table({"k": pa.array([5, None], pa.int64()), "v": [1, 2]}),
        pa.table({"k": pa.array([5, 6], pa.int64()), "v": [10, 20]}),
    ])


def _sums(df, col):
    """``k`` → ``col``, asserting one row per key (null included)."""
    keys = [None if pd.isna(k) else int(k) for k in df["k"]]
    assert len(set(keys)) == len(keys), keys
    return {k: int(v) for k, v in zip(keys, df[col])}


def test_grouped_agg_int_key_null_in_one_block(force_buckets):
    force_buckets(64)
    out = grouped_agg(_null_in_one_block(), ["k"], [AggSpec("v", "sum", "s")])
    assert _sums(out.to_pandas(), "s") == {5: 11, 6: 20, None: 2}


@pytest.mark.parametrize("num_buckets", [None, 64])
def test_bucketed_group_reduce_int_key_null_in_one_block(force_buckets, num_buckets):
    from feast_ray.stages.dedup import bucketed_group_reduce

    force_buckets(64)
    out = bucketed_group_reduce(
        _null_in_one_block(), ["k"],
        lambda d: d.groupby("k", as_index=False, dropna=False)["v"].sum(),
        num_buckets=num_buckets,
    )
    assert _sums(out.to_pandas(), "v") == {5: 11, 6: 20, None: 2}


def test_hash_join_int_key_null_in_one_block(force_buckets):
    import pyarrow as pa

    force_buckets(64)
    left = ray.data.from_arrow(pa.table({"k": pa.array([5, None], pa.int64()),
                                         "lv": [1, 2]}))
    right = ray.data.from_arrow(pa.table({"k": pa.array([5], pa.int64()), "rv": [10]}))
    out = hash_join(left, right, on="k").to_pandas()
    assert out[["k", "lv", "rv"]].values.tolist() == [[5, 1, 10]]


@pytest.mark.parametrize("ltype,rtype,keys", [
    ("int64", "float64", list(range(40))),
    ("int32", "int64", [-3, -2, -1, 0, 1, 2]),
])
def test_hash_join_keys_hash_in_the_unified_type(force_buckets, ltype, rtype, keys):
    """Keys are cast to the type both sides unify to before they are
    hashed: int64 meets float64 and a negative int32 meets int64."""
    import pyarrow as pa

    force_buckets(8)
    left = ray.data.from_arrow(pa.table({"k": pa.array(keys, ltype),
                                         "lv": list(range(len(keys)))}))
    right = ray.data.from_arrow(pa.table({"k": pa.array(keys, rtype),
                                          "rv": list(range(len(keys)))}))
    out = hash_join(left, right, on="k").to_pandas()
    assert len(out) == len(keys)
    assert (out["lv"] == out["rv"]).all()


def test_global_agg_of_empty_input_matches_duckdb():
    """``keys=[]`` on no rows is SQL's one row: count 0, the rest NULL."""
    import duckdb
    import pyarrow as pa

    t = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    specs = [AggSpec(None, "count", "n"), AggSpec("v", "sum", "s"),
             AggSpec("v", "min", "mn"), AggSpec("v", "max", "mx"),
             AggSpec("v", "mean", "m"), AggSpec("v", "count_distinct", "nd")]
    got = grouped_agg(ray.data.from_arrow(t), [], specs).to_pandas()
    exp = duckdb.sql("select count(*) as n, sum(v) as s, min(v) as mn, max(v) as mx, "
                     "avg(v) as m, count(distinct v) as nd from t").df()
    assert list(got.columns) == list(exp.columns)
    assert len(got) == len(exp) == 1
    for c in exp.columns:
        e, g = exp[c].iloc[0], got[c].iloc[0]
        assert (pd.isna(e) and pd.isna(g)) or e == g, c
    assert got["n"].dtype == np.int64


def test_hash_join_salt_factor_exceeds_buckets(force_buckets, monkeypatch):
    """SALT_FACTOR > num_buckets must not duplicate hot matches
    (offsets collide mod num_buckets; clamped internally)."""
    force_buckets(4)
    import ray.data

    from feast_ray.stages import join

    monkeypatch.setattr(join, "SALT_FACTOR", 8)

    left = pd.DataFrame({"k": [42] * 9, "lv": range(9)})
    right = pd.DataFrame({"k": [42, 1], "rv": ["hot", "cold"]})
    out = hash_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        on="k", hot_keys=[42],
    ).to_pandas()
    assert len(out) == 9


def test_group_limit_matches_pandas_rank():
    import numpy as np

    from feast_ray.stages import group_limit

    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {
            "g": rng.integers(0, 9, 400),
            "id": np.arange(400),
            "score": rng.integers(0, 50, 400),
        }
    )
    # many blocks so per-block pre-limit + bucketed merge both exercise
    ds = ray.data.from_pandas(df).repartition(8)
    out = (
        group_limit(ds, "g", 5, ["score", "id"], ascending=[False, True])
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    ref = df.sort_values(["g", "score", "id"], ascending=[True, False, True])
    ref = ref[ref.groupby("g", sort=False).cumcount() < 5]
    ref = ref.sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out[["g", "id", "score"]], ref[["g", "id", "score"]])


def test_group_limit_quota_not_hit_is_noop():
    from feast_ray.stages import group_limit

    df = pd.DataFrame({"g": [1, 1, 2], "id": [1, 2, 3]})
    out = group_limit(ray.data.from_pandas(df), "g", 10, "id").to_pandas()
    assert sorted(out["id"]) == [1, 2, 3]


def test_q02_customer_gate_parity(sf_small, duck, monkeypatch):
    """q02 with the customer-broadcast gate forced to 0 routes customer
    through the partitioned hash join; result must match the oracle
    (VERDICT r2 #6 — customer scales with sf, unlike nation/region)."""
    from feast_ray.pipelines import queries
    from feast_ray.pipelines.queries import q02_revenue_by_nation, oracle_sql
    from scripts.check_correctness import compare, to_pandas

    monkeypatch.setattr(queries, "CUSTOMER_BROADCAST_MAX_ROWS", 0)
    got = to_pandas(q02_revenue_by_nation(sf_small))
    exp = duck.execute(oracle_sql()["q02_revenue_by_nation"]).fetchdf()
    assert compare("q02_gated", got, exp) == []


def test_session_agg_gap_semantics():
    """Exact-gap events stay in one session (dt > gap splits); key
    changes always split; single-event sessions emit one row."""
    from datetime import datetime, timedelta

    import pyarrow as pa
    import ray.data

    from feast_ray.stages.aggregate import AggSpec, session_agg

    t0 = datetime(2024, 1, 1)
    rows = {
        # user 1: 0min, 30min (== gap, same session), 61min (new)
        # user 2: one event at 0min
        "user_id": [1, 1, 1, 2],
        "ts": [t0, t0 + timedelta(minutes=30), t0 + timedelta(minutes=61), t0],
        "v": [1.0, 2.0, 4.0, 8.0],
    }
    ds = ray.data.from_arrow(pa.table(rows)).repartition(3)
    out = (
        session_agg(
            ds, ["user_id"], "ts", timedelta(minutes=30),
            [AggSpec(None, "count", "n"), AggSpec("v", "sum", "s"),
             AggSpec("v", "count_distinct", "nd")],
        )
        .to_pandas()
        .sort_values(["user_id", "session_start"])
        .reset_index(drop=True)
    )
    assert len(out) == 3
    assert list(out["n"]) == [2, 1, 1]
    assert list(out["s"]) == [3.0, 4.0, 8.0]
    assert list(out["nd"]) == [2, 1, 1]
    assert out.loc[0, "session_end"] - out.loc[0, "session_start"] == timedelta(minutes=30)


def test_exchange_matches_pandas(force_buckets):
    """hash_join and bucketed_group_reduce through the raw bucketed
    exchange equal pandas merge / groupby — including empty buckets
    and a 0-row side."""
    force_buckets(4)
    import pyarrow as pa

    from feast_ray.stages.dedup import bucketed_group_reduce

    ldf = pd.DataFrame({"k": [1, 2, 3, 4, 5],
                        "v": [10.0, 20.0, 30.0, 40.0, 50.0]})
    rdf = pd.DataFrame({"k": [2, 3, 3, 9], "w": ["a", "b", "c", "d"]})
    left = ray.data.from_pandas(ldf).repartition(3)
    right = ray.data.from_pandas(rdf).repartition(2)

    joined = (
        hash_join(left, right, on="k")
        .to_pandas().sort_values(["k", "w"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        joined, ldf.merge(rdf, on="k").sort_values(["k", "w"]).reset_index(drop=True)
    )

    grouped = (
        bucketed_group_reduce(
            left,
            ["k"],
            lambda df: df.groupby("k", as_index=False)["v"].sum(),
            num_buckets=8,  # > #keys: the exchange hits EMPTY buckets
        )
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        grouped, ldf.groupby("k", as_index=False)["v"].sum()
    )

    # 0-row (typed) side: every bucket emits the typed empty join
    empty = ray.data.from_arrow(
        pa.table({"k": pa.array([], pa.int64()), "w": pa.array([], pa.string())})
    )
    joined = hash_join(left, empty, on="k")
    blocks = [ray.get(r) for r in joined.to_arrow_refs()]
    assert all(b.column_names == ["k", "v", "w"] for b in blocks)
    assert sum(len(b) for b in blocks) == 0


def test_exchange_zero_block_input_is_empty(force_buckets):
    """A Dataset that materializes to ZERO blocks (nothing to take a
    schema from) reaches each exchange site's empty fallback: the
    result is empty and building it does not raise."""
    force_buckets(4)
    import pyarrow as pa

    from feast_ray.functions.sampling import shard_shuffle
    from feast_ray.stages.dedup import bucketed_group_reduce

    def _zero_blocks(tbl: pa.Table) -> ray.data.Dataset:
        ds = ray.data.from_arrow(tbl).limit(0)
        assert ds.materialize().num_blocks() == 0
        return ds

    kv = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.float64())})
    kw = pa.table({"k": pa.array([], pa.int64()), "w": pa.array([], pa.string())})

    grouped = bucketed_group_reduce(
        _zero_blocks(kv), ["k"], lambda df: df.groupby("k", as_index=False)["v"].sum()
    )
    assert grouped.count() == 0

    # a zero-block side has no schema to probe: state both
    joined = hash_join(_zero_blocks(kv), _zero_blocks(kw), on="k",
                       left_schema=kv.schema, right_schema=kw.schema)
    assert joined.count() == 0
    assert joined.schema().names == ["k", "v", "w"]

    shards = shard_shuffle(_zero_blocks(kw), "k", 4)
    assert shards.count() == 0


def test_window_compose_grid_vs_brute(ray_session):
    """Bucket-local window composition: the sorted sweep must equal
    brute-force window semantics for dense and sparse keys alike,
    across mixed densities, null keys, and every IR kind
    (sum/mean/min/max/count/std + datetime max)."""
    from datetime import timedelta

    import numpy as np
    import pandas as pd
    import ray.data

    from feast_ray.stages.aggregate import AggSpec, windowed_agg

    rng = np.random.RandomState(5)
    rows = []
    base = pd.Timestamp("2024-06-01").value // 1000
    for k, (n, span) in enumerate(
        [(800, 3600), (300, 1800), (25, 86400), (5, 400000), (1, 1)]
    ):
        ts = base + rng.randint(0, span + 1, n).astype(np.int64) * 1_000_000
        rows += [(f"u{k}", int(t), float(rng.randn()), int(rng.randint(0, 50)))
                 for t in ts]
    rows += [(None, base + t * 60_000_000, 1.5, 3) for t in range(5)]
    df = pd.DataFrame(rows, columns=["user_id", "ts_i", "value", "cnt"])
    df["ts"] = df["ts_i"].astype("datetime64[us]")
    df = df.drop(columns="ts_i")
    ds = ray.data.from_pandas(df).repartition(5)
    specs = [
        AggSpec("value", "sum", "v_sum"), AggSpec("value", "mean", "v_mean"),
        AggSpec("value", "min", "v_min"), AggSpec("cnt", "max", "c_max"),
        AggSpec(None, "count", "n"), AggSpec("value", "std", "v_std"),
        AggSpec("ts", "max", "t_max"),
    ]
    for w_s, s_s in [(3600, 300), (7200, 60)]:  # 12 and 120 hops
        got = (
            windowed_agg(ds, ["user_id"], "ts", timedelta(seconds=w_s), specs,
                         slide=timedelta(seconds=s_s))
            .to_pandas()
            .sort_values(["user_id", "window_start"], na_position="first")
            .reset_index(drop=True)
        )
        w_us, s_us = w_s * 1_000_000, s_s * 1_000_000
        ti = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        hop = (ti // s_us) * s_us
        ex = pd.concat([
            df.assign(window_start=(hop - j * s_us).astype("datetime64[us]"))
            for j in range(w_us // s_us)
        ])
        g = ex.groupby(["user_id", "window_start"], dropna=False)
        exp = pd.DataFrame({
            "v_sum": g["value"].sum(), "v_mean": g["value"].mean(),
            "v_min": g["value"].min(), "c_max": g["cnt"].max(),
            "n": g["value"].size(), "v_std": g["value"].std(),
            "t_max": g["ts"].max(),
        }).reset_index().sort_values(
            ["user_id", "window_start"], na_position="first"
        ).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[exp.columns], exp, check_dtype=False, rtol=1e-9, atol=1e-12
        )


def test_window_compose_int64_exact_beyond_float53():
    """The sweep keeps integer IRs in int64 on a dense key (a tile on
    every hop): sums and extrema of fixed-point values beyond 2^53 stay
    exact — a float64 cumsum would silently round them."""
    import numpy as np
    import pandas as pd

    from feast_ray.stages.aggregate import _make_window_compose

    kinds = {"__p0_sum": "sum", "__p1_min": "min", "__p2_max": "max"}

    def merge_ir(df):
        g = df.groupby(["k", "w"], sort=False, dropna=False)
        return pd.DataFrame({
            "__p0_sum": g["__p0_sum"].sum(),
            "__p1_min": g["__p1_min"].min(),
            "__p2_max": g["__p2_max"].max(),
        }).reset_index()

    def finalize(df):
        out = df[["k", "w"]].copy()
        out["s"] = df["__p0_sum"]
        out["mn"] = df["__p1_min"]
        out["mx"] = df["__p2_max"]
        return out

    comp = _make_window_compose(["k"], "w", 1_000_000, 4, kinds, merge_ir, finalize)
    n, big = 40, 3 * 10**15
    hops = np.arange(n, dtype=np.int64) * 1_000_000  # a tile on every hop
    vals = np.full(n, big, np.int64)
    vals[7] = big + 3
    df = pd.DataFrame({
        "k": ["a"] * n, "w": hops.astype("datetime64[us]"),
        "__p0_sum": vals, "__p1_min": vals, "__p2_max": vals,
    })
    got = comp(df).sort_values("w").reset_index(drop=True)
    rows = []
    for s in range(-3, n):
        mem = [i for i in range(max(s, 0), min(s + 4, n))]
        if mem:
            rows.append((
                np.datetime64(s * 1_000_000, "us"),
                sum(int(vals[i]) for i in mem),
                min(vals[i] for i in mem), max(vals[i] for i in mem),
            ))
    exp = pd.DataFrame(rows, columns=["w", "s", "mn", "mx"]).sort_values(
        "w"
    ).reset_index(drop=True)
    assert got["s"].dtype == np.int64
    np.testing.assert_array_equal(got["s"].to_numpy(), exp["s"].to_numpy())
    np.testing.assert_array_equal(got["mn"].to_numpy(), exp["mn"].to_numpy())
    np.testing.assert_array_equal(got["mx"].to_numpy(), exp["mx"].to_numpy())


def test_hash_join_auto_buckets_scale_with_input(monkeypatch):
    """num_buckets=None (the default) derives the bucket count from the
    two materialized sides' bytes: with a tiny bucket-size target a
    bigger input must fan out to MORE reduce buckets (visible as output
    blocks), and the join stays equal to a pandas merge."""
    import ray.data

    from feast_ray.stages import exchange

    monkeypatch.setattr(exchange, "TARGET_BUCKET_BYTES", 32 << 10)

    def _mk(n):
        left = pd.DataFrame({"k": np.arange(n, dtype=np.int64),
                             "pad": ["x" * 64] * n})
        right = pd.DataFrame({"k": np.arange(0, n, 2, dtype=np.int64),
                              "rv": np.arange(0, n, 2, dtype=np.int64)})
        return ray.data.from_pandas(left), ray.data.from_pandas(right)

    lds, rds = _mk(200)
    small = hash_join(lds, rds, on="k")
    n_small = small.materialize().num_blocks()
    big_l, big_r = _mk(20_000)
    big = hash_join(big_l, big_r, on="k")
    bigm = big.materialize()
    assert bigm.num_blocks() > n_small  # buckets grew with bytes
    # each map task mods the raw hash by the derived count, and the
    # join still equals the pandas reference
    ref = big_l.to_pandas().merge(big_r.to_pandas(), on="k")
    assert len(ref) == 10_000
    pd.testing.assert_frame_equal(
        bigm.to_pandas().sort_values("k").reset_index(drop=True),
        ref.sort_values("k").reset_index(drop=True),
    )


def test_window_sparse_sweep_720_hops_parity():
    """At window//slide = 720 with few tiles per key, the
    output-optimal sweep (prefix-diff + level-by-level sparse-table
    extremes) must equal the brute tile explode exactly — including
    int64 sums beyond 2^53, NaN floats, and datetime max."""
    import numpy as np
    import pandas as pd

    from feast_ray.stages.aggregate import _make_window_compose

    kinds = {
        "__p0_sum": "sum", "__p1_min": "min", "__p2_max": "max",
        "__p3_count": "count", "__p4_max": "max",
    }

    def merge_ir(df):
        g = df.groupby(["k", "w"], sort=False, dropna=False)
        return pd.DataFrame({
            "__p0_sum": g["__p0_sum"].sum(),
            "__p1_min": g["__p1_min"].min(),
            "__p2_max": g["__p2_max"].max(),
            "__p3_count": g["__p3_count"].sum(),
            "__p4_max": g["__p4_max"].max(),
        }).reset_index()

    def finalize(df):
        return df.reset_index(drop=True)

    s_us, n_hops = 1_000_000, 720
    comp = _make_window_compose(["k"], "w", s_us, n_hops, kinds, merge_ir, finalize)

    rng = np.random.RandomState(11)
    frames = []
    big = 3 * 10**15
    for k, (t, span) in enumerate([(6, 900_000), (3, 5_000), (1, 1), (12, 2_000_000)]):
        hops = np.unique(rng.randint(0, span + 1, t).astype(np.int64)) * s_us
        f = np.where(rng.rand(len(hops)) < 0.3, np.nan, rng.randn(len(hops)))
        frames.append(pd.DataFrame({
            "k": f"u{k}", "w": hops.astype("datetime64[us]"),
            "__p0_sum": big + rng.randint(0, 9, len(hops)).astype(np.int64),
            "__p1_min": f,
            "__p2_max": (hops + 17).astype("datetime64[us]"),
            "__p3_count": np.ones(len(hops), np.int64),
            "__p4_max": rng.randint(-50, 50, len(hops)).astype(np.int64),
        }))
    df = pd.concat(frames, ignore_index=True)

    got = comp(df).sort_values(["k", "w"]).reset_index(drop=True)

    # brute: explode every tile into its n_hops windows, groupby-merge
    n = len(df)
    idx = np.repeat(np.arange(n), n_hops)
    hop = df["w"].to_numpy("datetime64[us]").astype(np.int64)
    w = np.repeat(hop, n_hops) - np.tile(
        np.arange(n_hops, dtype=np.int64) * s_us, n)
    ex = df.iloc[idx].copy()
    ex["w"] = w.astype("datetime64[us]")
    exp = merge_ir(ex).sort_values(["k", "w"]).reset_index(drop=True)

    assert got["__p0_sum"].dtype == np.int64  # exact past 2^53
    pd.testing.assert_frame_equal(got[exp.columns], exp)


def test_window_sparse_sweep_overflow_fallback():
    """Two keys whose hops lie 2^61 slides apart: each key's windows
    are searched on offsets from its own first hop, so the sweep stays
    exact (``test_window_sweep_overflow_falls_back_to_explode`` covers
    the ranges that do overflow its search key)."""
    import numpy as np
    import pandas as pd

    from feast_ray.stages.aggregate import _make_window_compose

    kinds = {"__p0_sum": "sum"}

    def merge_ir(df):
        g = df.groupby(["k", "w"], sort=False, dropna=False)
        return pd.DataFrame({"__p0_sum": g["__p0_sum"].sum()}).reset_index()

    comp = _make_window_compose(["k"], "w", 1, 4, kinds, merge_ir, lambda d: d.reset_index(drop=True))
    hops = np.array([0, 2**61], np.int64)  # L ~ 2^61 at slide_us=1
    df = pd.DataFrame({
        "k": ["a", "b"],
        "w": hops.astype("datetime64[us]"),
        "__p0_sum": np.array([5, 7], np.int64),
    })
    got = comp(df).sort_values(["k", "w"]).reset_index(drop=True)
    assert len(got) == 8 and got["__p0_sum"].sum() == 4 * 5 + 4 * 7



def test_window_sweep_overflow_falls_back_to_explode():
    """Keys whose own hop ranges are ~2^61 slides long overflow the
    sweep's composite int64 search key: the composer explodes the tiles
    instead and stays exact."""
    import numpy as np
    import pandas as pd

    from feast_ray.stages.aggregate import _make_window_compose

    def merge_ir(df):
        g = df.groupby(["k", "w"], sort=False, dropna=False)
        return pd.DataFrame({"__p0_sum": g["__p0_sum"].sum()}).reset_index()

    comp = _make_window_compose(["k"], "w", 1, 4, {"__p0_sum": "sum"}, merge_ir,
                                lambda d: d.reset_index(drop=True))
    df = pd.DataFrame({
        "k": ["a", "a", "b", "b", "c"],
        "w": np.array([0, 2**61, 5, 2**61 + 5, 9], np.int64).astype("datetime64[us]"),
        "__p0_sum": np.array([1, 2, 3, 4, 5], np.int64),
    })
    got = comp(df).sort_values(["k", "w"]).reset_index(drop=True)
    hop = df["w"].to_numpy("datetime64[us]").astype(np.int64)
    exp = pd.DataFrame({
        "k": np.repeat(df["k"].to_numpy(), 4),
        "w": (np.repeat(hop, 4) - np.tile(np.arange(4), len(df))).astype("datetime64[us]"),
        "__p0_sum": np.repeat(df["__p0_sum"].to_numpy(), 4),
    }).sort_values(["k", "w"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[exp.columns], exp)


def test_keyless_sliding_window_vs_brute(ray_session):
    """Keyless sliding windows (one composer bucket on the global key)
    equal a pandas brute-force explode of the rows into every window
    holding them, count_distinct included."""
    from datetime import timedelta

    import numpy as np
    import pandas as pd
    import ray.data

    from feast_ray.stages.aggregate import AggSpec, windowed_agg

    rng = np.random.RandomState(7)
    base = pd.Timestamp("2024-06-01").value // 1000
    ts = base + np.sort(rng.randint(0, 20000, 300)).astype(np.int64) * 1_000_000
    ts[150:] += 40000 * 1_000_000  # a gap wider than the window
    df = pd.DataFrame({
        "ts": ts.astype("datetime64[us]"), "value": rng.randn(300),
        "cnt": rng.randint(0, 50, 300),
        "tag": pd.array(np.where(rng.rand(300) < 0.2, None, rng.randint(0, 9, 300)),
                        dtype="Int64"),
    })
    ds = ray.data.from_pandas(df).repartition(4)
    specs = [
        AggSpec("value", "sum", "v_sum"), AggSpec("value", "mean", "v_mean"),
        AggSpec("value", "min", "v_min"), AggSpec("cnt", "max", "c_max"),
        AggSpec(None, "count", "n"), AggSpec("value", "std", "v_std"),
        AggSpec("tag", "count_distinct", "tags"),
    ]
    w_s, s_s = 3600, 300
    got = (
        windowed_agg(ds, [], "ts", timedelta(seconds=w_s), specs,
                     slide=timedelta(seconds=s_s))
        .to_pandas().sort_values("window_start").reset_index(drop=True)
    )
    s_us = s_s * 1_000_000
    hop = (ts // s_us) * s_us
    ex = pd.concat([
        df.assign(window_start=(hop - j * s_us).astype("datetime64[us]"))
        for j in range(w_s // s_s)
    ])
    g = ex.groupby("window_start")
    exp = pd.DataFrame({
        "v_sum": g["value"].sum(), "v_mean": g["value"].mean(),
        "v_min": g["value"].min(), "c_max": g["cnt"].max(),
        "n": g["value"].size(), "v_std": g["value"].std(),
        "tags": g["tag"].nunique(),
    }).reset_index().sort_values("window_start").reset_index(drop=True)
    assert list(got.columns) == list(exp.columns)
    assert got["tags"].dtype == np.int64
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, rtol=1e-9, atol=1e-12)


def test_window_string_minmax_falls_back_to_explode(ray_session):
    """Object-dtype extremes (string min/max) have no numeric kernel in
    the sweep — the composer must fall back to the explode path and
    stay exact (code-review r5)."""
    from datetime import timedelta

    import numpy as np
    import pandas as pd
    import ray.data

    from feast_ray.stages.aggregate import AggSpec, windowed_agg

    rng = np.random.RandomState(2)
    base = pd.Timestamp("2024-06-01").value // 1000
    rows = []
    for k, (n, span) in enumerate([(40, 3600), (3, 200000)]):  # dense + sparse
        ts = base + rng.randint(0, span + 1, n).astype(np.int64) * 1_000_000
        rows += [(f"u{k}", int(t), f"tag{rng.randint(0, 9)}") for t in ts]
    df = pd.DataFrame(rows, columns=["user_id", "ts_i", "tag"])
    df["ts"] = df["ts_i"].astype("datetime64[us]")
    df = df.drop(columns="ts_i")
    ds = ray.data.from_pandas(df).repartition(3)
    got = (
        windowed_agg(ds, ["user_id"], "ts", timedelta(seconds=3600),
                     [AggSpec("tag", "min", "t_min"),
                      AggSpec("tag", "max", "t_max"),
                      AggSpec(None, "count", "n")],
                     slide=timedelta(seconds=300))
        .to_pandas().sort_values(["user_id", "window_start"])
        .reset_index(drop=True)
    )
    w_us, s_us = 3600 * 1_000_000, 300 * 1_000_000
    ti = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
    hop = (ti // s_us) * s_us
    ex = pd.concat([
        df.assign(window_start=(hop - j * s_us).astype("datetime64[us]"))
        for j in range(w_us // s_us)
    ])
    g = ex.groupby(["user_id", "window_start"], dropna=False)
    exp = pd.DataFrame({
        "t_min": g["tag"].min(), "t_max": g["tag"].max(),
        "n": g["tag"].size(),
    }).reset_index().sort_values(["user_id", "window_start"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[exp.columns], exp, check_dtype=False)


def test_progressive_ac_refine_history_beyond_zrl_window():
    """Code-review r5 bug: a history coefficient past a ZRL's 16-zero
    window desynced the refinement bitstream (correction bits were
    flushed with the wrong code). Coefficient layout crafted via exact
    IDCT round-trip; progressive decode must equal baseline."""
    import numpy as np

    from feast_ray.functions.multimodal import (
        _JPEG_DCT,
        _JPEG_ZZ,
        decode_jpeg,
        encode_jpeg_gray,
        encode_jpeg_progressive,
    )

    q1 = np.ones((8, 8), np.int32)
    zz = np.zeros(64, np.int64)
    zz[1], zz[18], zz[36] = 4, 4, 1
    nat = np.zeros(64, np.float64)
    nat[_JPEG_ZZ] = zz
    block = _JPEG_DCT.T @ nat.reshape(8, 8) @ _JPEG_DCT
    px = np.clip(np.floor(block + 128.5), 0, 255).astype(np.uint8)
    scans = ((0, 0, 0, 0), (1, 63, 0, 1), (1, 63, 1, 0))
    base = decode_jpeg(encode_jpeg_gray(px, q1))
    prog = decode_jpeg(encode_jpeg_progressive(px, q1, scans=scans))
    assert np.array_equal(base, prog)


def test_hash_join_right_and_full_outer(force_buckets):
    """Right/full outer (late round 5): unmatched rows from each side
    surface exactly once with coalesced keys and typed nulls, equal to
    pandas merge; broadcast_join and hot_keys reject outer types."""
    force_buckets(4)
    import ray.data

    from feast_ray.stages.join import broadcast_join

    ldf = pd.DataFrame({"k": [1, 2, 3, 4], "lv": [10, 20, 30, 40]})
    rdf = pd.DataFrame({"k": [2, 4, 9, 11], "rv": [2.0, 4.0, 9.0, 11.0]})
    left = ray.data.from_pandas(ldf).repartition(3)
    right = ray.data.from_pandas(rdf).repartition(2)

    for how, pd_how in (("right", "right"), ("full", "outer")):
        got = (
            hash_join(left, right, on="k", how=how)
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        ref = ldf.merge(rdf, on="k", how=pd_how).sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, ref, check_dtype=False)

    with pytest.raises(ValueError):
        broadcast_join(left, rdf, on="k", how="full")
    with pytest.raises(ValueError):
        hash_join(left, right, on="k", how="full", hot_keys=[2])
    with pytest.raises(ValueError):
        hash_join(left, right, on="k", how="bogus")


def test_asof_join_directions():
    import ray.data

    left = pd.DataFrame({
        "k": [1, 1, 1], "ts": pd.to_datetime([10, 20, 30], unit="s"),
        "lid": [0, 1, 2],
    })
    right = pd.DataFrame({
        "k": [1, 1, 1, 1],
        "rts": pd.to_datetime([8, 14, 26, 40], unit="s"),
        "v": [10, 20, 30, 40],
    })
    lds = ray.data.from_pandas(left)

    near = (asof_join(lds, right, left_ts="ts", right_ts="rts", by="k",
                      direction="nearest")
            .to_pandas().sort_values("lid"))
    # 10 -> 8 (d2) beats 14 (d4); 20 -> 14 (d6) vs 26 (d6) tie -> backward;
    # 30 -> 26 (d4) beats 40 (d10)
    assert near["v"].tolist() == [10, 20, 30]

    fwd = (asof_join(lds, right, left_ts="ts", right_ts="rts", by="k",
                     direction="forward")
           .to_pandas().sort_values("lid"))
    assert fwd["v"].tolist() == [20, 30, 40]

    import pytest as _pytest
    with _pytest.raises(ValueError, match="backward"):
        asof_join(lds, right, left_ts="ts", right_ts="rts", by="k",
                  direction="nearest", created_ts="rts")
