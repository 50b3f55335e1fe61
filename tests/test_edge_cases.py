"""Empty-input and degenerate-shape behavior of the core operators —
streaming pipelines see empty blocks routinely."""

from datetime import timedelta

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from feast_ray.stages import (
    AggSpec,
    asof_join,
    distinct,
    grouped_agg,
    keep_latest,
    topk,
    windowed_agg,
)
from feast_ray.stages.join import semi_join


def _empty_events():
    tbl = pa.table(
        {
            "k": pa.array([], pa.int64()),
            "ts": pa.array([], pa.timestamp("us")),
            "v": pa.array([], pa.float64()),
        }
    )
    return ray.data.from_arrow(tbl)


def test_grouped_agg_empty():
    out = grouped_agg(_empty_events(), ["k"], [AggSpec("v", "sum", "s")]).to_pandas()
    assert len(out) == 0


def test_keep_latest_empty():
    assert keep_latest(_empty_events(), ["k"], "ts").count() == 0


def test_distinct_and_topk_empty():
    assert distinct(_empty_events(), ["k"]).count() == 0
    assert topk(_empty_events(), "v", 5).count() == 0


def test_windowed_agg_empty():
    out = windowed_agg(
        _empty_events(), ["k"], "ts", timedelta(hours=1), [AggSpec(None, "count", "n")]
    )
    assert out.count() == 0


def test_asof_join_empty_right():
    left = ray.data.from_pandas(
        pd.DataFrame({"k": [1], "ts": pd.to_datetime(["2024-01-01"])})
    )
    right = pd.DataFrame(
        {"k": pd.Series([], dtype="int64"),
         "fts": pd.Series([], dtype="datetime64[ns]"),
         "v": pd.Series([], dtype="float64")}
    )
    out = asof_join(left, right, left_ts="ts", right_ts="fts", by="k").to_pandas()
    assert len(out) == 1
    assert out["v"].isna().all()


def test_semi_join_empty_keyset():
    left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2]}))
    assert semi_join(left, [], on="k").count() == 0
    assert semi_join(left, [], on="k", anti=True).count() == 2


def test_single_row_pipeline(sf_small):
    from feast_ray.pipelines.quality_filter import quality_filter
    from feast_ray.sources.webpages import pages_from_documents

    one = pa.table(
        {
            "doc_id": pa.array([1], pa.int64()),
            "text": pa.array([
                "the quick brown fox jumps over the lazy dog while the data "
                "engine sorts filters joins and aggregates rows of tables in "
                "parallel across many worker processes with streaming output"
            ]),
            "lang": pa.array(["en"]),
            "source": pa.array(["s"]),
            "n_chars": pa.array([100], pa.int64()),
        }
    )
    pages = ray.data.from_arrow(pages_from_documents(one))
    out = quality_filter(pages).to_pandas()
    assert len(out) == 1
    assert out["keep"].iloc[0]


def test_count_distinct_ignores_nulls(ray_session):
    """COUNT(DISTINCT) must ignore null VALUES and keep null group
    KEYS mergeable (code-review wave-5 findings)."""
    import pandas as pd
    import ray.data

    from feast_ray.stages.aggregate import AggSpec, grouped_agg

    df = pd.DataFrame(
        {
            "g": [1, 1, 1, None, None],
            "v": [None, "a", "b", "a", "a"],
            "x": [1.0, 2.0, 3.0, 4.0, 5.0],
        }
    )
    out = (
        grouped_agg(
            ray.data.from_pandas(df), ["g"],
            [AggSpec("x", "sum", "sx"), AggSpec("v", "count_distinct", "cd")],
        )
        .to_pandas()
    )
    row1 = out[out["g"] == 1].iloc[0]
    assert row1["cd"] == 2  # null value not counted
    rownull = out[out["g"].isna()].iloc[0]
    assert rownull["cd"] == 1  # null group key still merged
    assert rownull["sx"] == 9.0



def _count_distinct_vs_duckdb(tbl: pa.Table, keys: list[str], tumbling: bool):
    """``sum(v)`` and ``count(distinct x)`` per ``keys`` from
    ``grouped_agg`` (or a tumbling ``windowed_agg`` holding every row
    in one window) and from DuckDB over the same rows."""
    import duckdb

    specs = [AggSpec("v", "sum", "s"), AggSpec("x", "count_distinct", "n")]
    ds = ray.data.from_arrow(tbl)
    if tumbling:
        out = windowed_agg(ds, keys, "ts", timedelta(hours=1), specs)
    else:
        out = grouped_agg(ds, keys, specs)
    out = out.to_pandas().sort_values(keys).reset_index(drop=True) if keys else out.to_pandas()
    by = f"group by {', '.join(keys)} order by {', '.join(keys)}" if keys else ""
    sel = "".join(f"{k}, " for k in keys)
    exp = duckdb.sql(f"select {sel}sum(v) as s, count(distinct x) as n from tbl {by}").df()
    return out, exp


@pytest.mark.parametrize("tumbling", [False, True])
def test_count_distinct_of_an_all_null_group_is_zero(ray_session, tumbling):
    """A group whose counted values are all NULL counts 0 (int64) next
    to another aggregate, as DuckDB gives it."""
    tbl = pa.table({
        "k": ["a", "a", "b", "b"], "ts": pa.array([0] * 4, pa.timestamp("us")),
        "v": [1, 2, 3, 4], "x": pa.array([5, 5, None, None], pa.int64()),
    })
    out, exp = _count_distinct_vs_duckdb(tbl, ["k"], tumbling)
    assert out["n"].dtype == np.int64
    assert out["n"].tolist() == exp["n"].tolist() == [1, 0]
    assert out["s"].tolist() == exp["s"].tolist() == [3, 7]


@pytest.mark.parametrize("tumbling", [False, True])
def test_keyless_count_distinct_of_only_nulls_is_zero(ray_session, tumbling):
    """Every counted value NULL with no group keys: one row with count
    0 next to another aggregate, as DuckDB gives it."""
    tbl = pa.table({
        "ts": pa.array([0, 1], pa.timestamp("us")), "v": [1, 2],
        "x": pa.array([None, None], pa.int64()),
    })
    out, exp = _count_distinct_vs_duckdb(tbl, [], tumbling)
    assert len(out) == len(exp) == 1
    assert out["n"].dtype == np.int64
    assert out["n"].tolist() == exp["n"].tolist() == [0]
    assert out["s"].tolist() == exp["s"].tolist() == [3]


def test_simhash_max_hamming_guard(ray_session):
    import pandas as pd
    import pytest as _pytest
    import ray.data

    from feast_ray.functions.neardup import simhash_dups

    ds = ray.data.from_pandas(pd.DataFrame({"id": [1], "text": ["x y z"]}))
    with _pytest.raises(ValueError, match="max_hamming"):
        simhash_dups(ds, "id", "text", max_hamming=4)


def test_session_agg_empty_and_single_row():
    from datetime import datetime, timedelta

    import pyarrow as pa
    import ray.data

    from feast_ray.stages.aggregate import AggSpec, session_agg

    empty = ray.data.from_arrow(
        pa.table({"k": pa.array([], pa.int64()),
                  "ts": pa.array([], pa.timestamp("us")),
                  "v": pa.array([], pa.float64())})
    )
    out = session_agg(
        empty, ["k"], "ts", timedelta(minutes=5), [AggSpec("v", "sum", "s")]
    ).to_pandas()
    assert len(out) == 0
    one = ray.data.from_arrow(
        pa.table({"k": [1], "ts": [datetime(2024, 1, 1)], "v": [2.5]})
    )
    out = session_agg(
        one, ["k"], "ts", timedelta(minutes=5), [AggSpec("v", "sum", "s")]
    ).to_pandas()
    assert len(out) == 1 and out.loc[0, "s"] == 2.5
    assert out.loc[0, "session_start"] == out.loc[0, "session_end"]


def test_windowed_agg_tiled_single_key_gap():
    """Tile composition emits a window for every start containing >= 1
    hop — including windows whose OTHER hops are empty (gap in the
    stream)."""
    from datetime import datetime, timedelta

    import pyarrow as pa
    import ray.data

    from feast_ray.stages.aggregate import AggSpec, windowed_agg

    t0 = datetime(2024, 1, 1)
    # two events 3 hops apart; window = 2 hops
    ds = ray.data.from_arrow(
        pa.table({
            "k": [1, 1],
            "ts": [t0, t0 + timedelta(minutes=30)],
            "v": [1.0, 10.0],
        })
    )
    out = (
        windowed_agg(
            ds, ["k"], "ts", timedelta(minutes=20),
            [AggSpec("v", "sum", "s")], slide=timedelta(minutes=10),
        )
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    # event A in windows starting -10, 0; event B in 20, 30 — no
    # window sees both (gap), 4 windows total
    assert len(out) == 4
    assert list(out["s"]) == [1.0, 1.0, 10.0, 10.0]


def test_substrait_eval_reordered_columns():
    """Plans bind positionally to their embedded schema; the evaluator
    must re-bind by NAME when the batch has extra/reordered columns."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.substrait as pss

    from feast_ray.stages.transform import substrait_eval

    plan = bytes(
        pss.serialize_expressions(
            [pc.add(pc.field("b"), pc.field("a"))],
            ["a_plus_b"],
            pa.schema([("a", pa.int64()), ("b", pa.int64())]),
        )
    )
    tbl = pa.table({"x": ["p", "q"], "b": [10, 20], "a": [1, 2]})
    out = substrait_eval(tbl, plan)
    assert out["a_plus_b"].to_pylist() == [11, 22]
    assert out.column_names == ["x", "b", "a", "a_plus_b"]


def test_session_agg_null_keys_kept():
    """NULL keys form their own session partition (ADVICE r3): the
    pandas groupby must run dropna=False, and consecutive null-key
    rows within the gap must sessionize TOGETHER (NaN != NaN would
    otherwise split every pair)."""
    from datetime import datetime, timedelta

    import numpy as np
    import pandas as pd
    import ray.data

    from feast_ray.stages.aggregate import AggSpec, session_agg

    t0 = datetime(2024, 1, 1)
    df = pd.DataFrame({
        "k": [1.0, np.nan, np.nan, np.nan],
        "ts": [t0, t0, t0 + timedelta(minutes=1), t0 + timedelta(minutes=30)],
        "v": [1.0, 2.0, 3.0, 4.0],
    })
    out = session_agg(
        ray.data.from_pandas(df), ["k"], "ts", timedelta(minutes=5),
        [AggSpec("v", "sum", "s")],
    ).to_pandas()
    # key=1: one session; key=NULL: two sessions (rows 2+3 together,
    # row 4 past the gap)
    assert len(out) == 3
    null_rows = out[out["k"].isna()].sort_values("session_start")
    assert list(null_rows["s"]) == [5.0, 4.0]
    assert out.loc[out["k"] == 1.0, "s"].iloc[0] == 1.0


def test_tiled_count_distinct_merge_high_cardinality():
    """VERDICT r3 #3: the tiled count_distinct merge is a bucketed
    (keys, window) join, not a driver to_pandas broadcast — ≥1M
    (key, window) rows must flow through without assembling the cd
    table on the driver. 600k distinct keys × window/slide=2 ⇒ ~1.2M
    (key, window) pairs; values checked on a sample + in aggregate."""
    from datetime import datetime, timedelta

    import numpy as np
    import pyarrow as pa
    import ray.data

    from feast_ray.stages.aggregate import AggSpec, windowed_agg

    n = 600_000
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    keys = np.arange(n, dtype=np.int64)
    ts = t0 + ((keys % 3) * 30).astype("timedelta64[m]")  # 3 hops, slide=30m
    tbl = pa.table({
        "k": pa.array(keys),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "v": pa.array((keys % 5).astype(np.int64)),
    })
    ds = ray.data.from_arrow(tbl).repartition(16)
    out = windowed_agg(
        ds, ["k"], "ts", timedelta(hours=1),
        [AggSpec(None, "count", "n"), AggSpec("v", "count_distinct", "dv")],
        slide=timedelta(minutes=30),
    )
    got = out.to_pandas()
    # each row lands in exactly 2 windows; all keys distinct
    assert len(got) == 2 * n
    assert (got["n"] == 1).all() and (got["dv"] == 1).all()


def test_skyline2d_brute_parity():
    """O(n log n) sweep == O(n^2) dominance brute force, incl. ties."""
    import numpy as np
    import pandas as pd

    from feast_ray.pipelines.queries import _skyline2d

    rng = np.random.RandomState(7)
    for trial in range(25):
        n = rng.randint(1, 60)
        df = pd.DataFrame({
            "s": rng.randint(0, 8, n).astype("int64"),
            "m": rng.randint(0, 8, n).astype("int64"),
            "rid": np.arange(n, dtype="int64"),
        })
        got = set(_skyline2d(df, "s", "m")["rid"])
        s, m = df["s"].to_numpy(), df["m"].to_numpy()
        exp = set()
        for i in range(n):
            dom = ((s >= s[i]) & (m <= m[i])
                   & ((s > s[i]) | (m < m[i]))).any()
            if not dom:
                exp.add(i)
        assert got == exp, f"trial {trial}"


def test_count_min_overestimate_guarantee(sf_small):
    """CMS point estimates must be >= true frequency for EVERY probe
    key (the one-sided sketch guarantee), and exact when no probe
    key collides in at least one row."""
    import duckdb

    from feast_ray.pipelines.queries import q174_count_min

    got = q174_count_min(sf_small).to_pandas()
    true = duckdb.sql(
        f"""select o.o_orderkey, count(l.l_orderkey) as n
            from read_parquet('{sf_small}/orders.parquet') o
            left join read_parquet('{sf_small}/lineitem.parquet') l
              on l.l_orderkey = o.o_orderkey
            where o.o_orderkey <= 200 group by 1"""
    ).df().set_index("o_orderkey")["n"]
    assert len(got) == len(true)
    for k, est in zip(got["o_orderkey"], got["est"]):
        assert est >= int(true.loc[k])


def test_interval_islands_brute_parity():
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from feast_ray.stages.dedup import bucketed_group_reduce

    rng = np.random.RandomState(11)
    rows = []
    for u in range(12):
        for _ in range(rng.randint(1, 15)):
            s = int(rng.randint(0, 50))
            rows.append({"user_id": u, "s": s,
                         "e": s + int(rng.randint(1, 12))})
    df = pd.DataFrame(rows)

    # reference: brute union over integer points (e exclusive)
    exp = {}
    for u, g in df.groupby("user_id"):
        pts = set()
        for _, r in g.iterrows():
            pts.update(range(r["s"], r["e"]))
        pts = sorted(pts)
        islands = 1 + sum(1 for a, b in zip(pts, pts[1:]) if b > a + 1)
        exp[u] = (islands, len(pts))

    # engine kernel (same reduce as q176) through the bucketed exchange
    ds = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))

    def _islands(d: pd.DataFrame) -> pd.DataFrame:
        if not len(d):
            return pd.DataFrame({"user_id": pd.Series([], dtype="int64"),
                                 "n_islands": pd.Series([], dtype="int64"),
                                 "covered_us": pd.Series([], dtype="int64")})
        d = d.sort_values(["user_id", "s", "e"], kind="stable"
                          ).reset_index(drop=True)
        run_end = d.groupby("user_id", sort=False)["e"].cummax()
        prev = run_end.groupby(d["user_id"], sort=False).shift()
        isl = (prev.isna() | (d["s"] > prev)).groupby(
            d["user_id"], sort=False).cumsum()
        segg = (d.assign(isl=isl)
                .groupby(["user_id", "isl"], sort=False)
                .agg(s=("s", "min"), e=("e", "max")).reset_index())
        segg["cov"] = segg["e"] - segg["s"]
        out = segg.groupby("user_id", sort=False).agg(
            n_islands=("isl", "size"), covered_us=("cov", "sum")
        ).reset_index()
        return out.astype({"n_islands": "int64", "covered_us": "int64"})

    got = {r["user_id"]: (r["n_islands"], r["covered_us"])
           for r in bucketed_group_reduce(
               ds, ["user_id"], _islands, num_buckets=4).take_all()}
    assert got == exp


def test_kendall_knight_vs_brute():
    import numpy as np

    from feast_ray.functions.kendall import count_inversions, kendall_counts

    rng = np.random.RandomState(3)
    for trial in range(30):
        n = rng.randint(0, 80)
        a = rng.randint(0, 10, n)
        brute = sum(int(a[i] > a[j])
                    for i in range(n) for j in range(i + 1, n))
        assert count_inversions(a) == brute, f"inv trial {trial}"

        x = rng.randint(0, 6, n).astype(np.int64)
        y = rng.randint(0, 6, n).astype(np.int64)
        got = kendall_counts(x, y)
        nc = nd = n1 = n2 = n3 = 0
        for i in range(n):
            for j in range(i + 1, n):
                sx = int(np.sign(x[j] - x[i]))
                sy = int(np.sign(y[j] - y[i]))
                nc += sx * sy > 0
                nd += sx * sy < 0
                n1 += sx == 0
                n2 += sy == 0
                n3 += sx == 0 and sy == 0
        assert got == {"n0": n * (n - 1) // 2, "n1": n1, "n2": n2,
                       "n3": n3, "n_c": nc, "n_d": nd}, f"trial {trial}"


def test_spatial_join_grid_vs_brute():
    """Grid replication + home-cell rule == brute-force pair scan,
    each pair exactly once (no dup from replica cells)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from feast_ray.pipelines.queries import q188_spatial_join  # noqa: F401

    # drive the same kernel through a synthetic supplier table on disk
    # is heavy; instead replicate the cell math inline
    rng = np.random.RandomState(5)
    n = 120
    k = np.arange(1, n + 1, dtype=np.int64)
    lat = (k * 2654435761) % 4_000_000 - 2_000_000
    lon = (k * 40503) % 8_000_000 - 4_000_000
    R2 = 500_000 * 500_000
    brute = set()
    for i in range(n):
        for j in range(i + 1, n):
            d2 = int(lat[i] - lat[j]) ** 2 + int(lon[i] - lon[j]) ** 2
            if d2 < R2:
                brute.add((int(k[i]), int(k[j])))

    # grid path: replicate to 3x3 cells, home-of-smaller-id rule
    got = []
    cl, cg = lat // 1_000_000, lon // 1_000_000
    cells = {}
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            for i in range(n):
                key = (int(cl[i] + dy), int((cg[i] + dx) % 360))
                cells.setdefault(key, []).append((int(k[i]), dy == 0 and dx == 0, int(lat[i]), int(lon[i])))
    for pts in cells.values():
        for sid_a, home_a, la, lo in pts:
            if not home_a:
                continue
            for sid_b, _, lb2, lo2 in pts:
                if sid_a >= sid_b:
                    continue
                d2 = (la - lb2) ** 2 + (lo - lo2) ** 2
                if d2 < R2:
                    got.append((sid_a, sid_b))
    assert len(got) == len(set(got)), "pair double-counted"
    assert set(got) == brute


def test_resample_lerp_vs_npinterp():
    import numpy as np

    rng = np.random.RandomState(9)
    ts = np.sort(rng.choice(10_000, size=40, replace=False)).astype(np.int64)
    cs = rng.randint(0, 1000, size=40).astype(np.int64)
    grid = np.arange(0, 10_000, 137, dtype=np.int64)
    hi = np.searchsorted(ts, grid, side="right")
    valid = (hi > 0) & (hi < len(ts))
    gv, lo, hiv = grid[valid], hi[valid] - 1, hi[valid]
    t0, t1 = ts[lo].astype(float), ts[hiv].astype(float)
    c0, c1 = cs[lo].astype(float), cs[hiv].astype(float)
    tf = gv.astype(float)
    lerp = (c0 * (t1 - tf) + c1 * (tf - t0)) / (t1 - t0)
    ref = np.interp(gv.astype(float), ts.astype(float), cs.astype(float))
    assert np.allclose(lerp, ref, rtol=0, atol=1e-9)
