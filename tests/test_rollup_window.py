"""Rollup + window-function operators: parity with pandas references,
NULL-key conventions, dtype stability, empty buckets."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from feast_ray.stages.aggregate import AggSpec, rollup_agg
from feast_ray.stages.relational import window_row_funcs


def _docs():
    rng = np.random.default_rng(0)
    n = 400
    return pa.table({
        "source": pa.array(rng.choice(["a", "b", "c"], n)),
        "lang": pa.array(rng.choice(["en", "de"], n)),
        "n_chars": pa.array(rng.integers(1, 1000, n), pa.int64()),
    })


def test_rollup_levels_match_pandas():
    tbl = _docs()
    out = rollup_agg(
        rd.from_arrow(tbl).repartition(5), ["source", "lang"],
        [AggSpec(None, "count", "n_docs"), AggSpec("n_chars", "sum", "s")],
    ).to_pandas()
    df = tbl.to_pandas()
    finest = df.groupby(["source", "lang"]).agg(
        n_docs=("n_chars", "size"), s=("n_chars", "sum")).reset_index()
    lvl1 = df.groupby("source").agg(
        n_docs=("n_chars", "size"), s=("n_chars", "sum")).reset_index()
    assert len(out) == len(finest) + len(lvl1) + 1
    got_f = (out[out.lang.notna()].sort_values(["source", "lang"])
             .reset_index(drop=True))
    assert got_f[["source", "lang", "n_docs", "s"]].equals(
        finest.sort_values(["source", "lang"]).reset_index(drop=True))
    got_1 = (out[out.lang.isna() & out.source.notna()]
             .sort_values("source").reset_index(drop=True))
    assert list(got_1["n_docs"]) == list(lvl1["n_docs"])
    assert list(got_1["s"]) == list(lvl1["s"])
    total = out[out.source.isna()]
    assert len(total) == 1
    assert total.iloc[0]["n_docs"] == len(df)
    assert total.iloc[0]["s"] == df["n_chars"].sum()
    assert out["n_docs"].dtype == np.int64


def test_rollup_rejects_non_algebraic():
    with pytest.raises(ValueError):
        rollup_agg(rd.from_arrow(_docs()), ["source"],
                   [AggSpec("n_chars", "mean", "m")])


def test_window_funcs_match_pandas():
    rng = np.random.default_rng(1)
    n = 600
    tbl = pa.table({
        "id": pa.array(np.arange(n), pa.int64()),
        "k": pa.array(rng.integers(0, 25, n), pa.int64()),
        "o": pa.array(rng.integers(0, 50, n), pa.int64()),
        "v": pa.array(rng.integers(-10, 10, n), pa.int64()),
    })
    out = window_row_funcs(
        rd.from_arrow(tbl).repartition(6), ["k"], ["o", "id"],
        rank_as="rn", lag_cols={"v": "lag_v"}, cumsum_cols={"v": "cum_v"},
    ).to_pandas().sort_values("id").reset_index(drop=True)
    ref = (tbl.to_pandas().sort_values(["k", "o", "id"], kind="stable")
           .reset_index(drop=True))
    g = ref.groupby("k", sort=False)
    ref["rn"] = (g.cumcount() + 1).astype("int64")
    ref["lag_v"] = g["v"].shift()
    ref["cum_v"] = g["v"].cumsum()
    ref = ref.sort_values("id").reset_index(drop=True)
    for c in ("rn", "cum_v"):
        assert np.array_equal(out[c].to_numpy(), ref[c].to_numpy()), c
    a, b = out["lag_v"].to_numpy(float), ref["lag_v"].to_numpy(float)
    assert ((a == b) | (np.isnan(a) & np.isnan(b))).all()
    # first row of every key has no lag
    firsts = out[out.rn == 1]
    assert firsts["lag_v"].isna().all() and len(firsts) == 25


def test_cube_levels_match_pandas():
    from feast_ray.stages.aggregate import cube_agg

    tbl = _docs()
    out = cube_agg(
        rd.from_arrow(tbl).repartition(5), ["source", "lang"],
        [AggSpec(None, "count", "n_docs"), AggSpec("n_chars", "sum", "s")],
    ).to_pandas()
    df = tbl.to_pandas()
    # four grouping sets: (source,lang), (source), (lang), ()
    fine = df.groupby(["source", "lang"]).size()
    assert len(out) == len(fine) + df["source"].nunique() + \
        df["lang"].nunique() + 1
    grand = out[out["source"].isna() & out["lang"].isna()]
    assert len(grand) == 1
    assert int(grand["n_docs"].iloc[0]) == len(df)
    assert int(grand["s"].iloc[0]) == int(df["n_chars"].sum())
    # the lang-only level (absent from ROLLUP) matches pandas
    lang_lvl = out[out["source"].isna() & out["lang"].notna()]
    exp = df.groupby("lang")["n_chars"].sum()
    got = dict(zip(lang_lvl["lang"], lang_lvl["s"]))
    assert {k: int(v) for k, v in got.items()} == \
        {k: int(v) for k, v in exp.items()}
    assert out["n_docs"].dtype == np.int64


def test_pivot_missing_combo_is_null():
    from feast_ray.stages.aggregate import pivot_agg

    tbl = pa.table({
        "source": ["a", "a", "b"],
        "lang": ["en", "de", "en"],
        "n_chars": pa.array([10, 20, 30], pa.int64()),
    })
    out = pivot_agg(rd.from_arrow(tbl).repartition(2), "source", "lang",
                    AggSpec("n_chars", "sum", "s")).to_pandas()
    out = out.sort_values("source").reset_index(drop=True)
    assert list(out.columns) == ["source", "de", "en"]
    assert out.loc[0, "de"] == 20.0 and out.loc[0, "en"] == 10.0
    assert pd.isna(out.loc[1, "de"]) and out.loc[1, "en"] == 30.0


@pytest.mark.parametrize("buckets", [2, 8])
def test_pivot_matches_pandas_pivot_table(force_buckets, buckets):
    """More index values than buckets, some (index, pivot) cells with
    no rows: equal to ``pandas.pivot_table``, NaN in the empty cells."""
    from feast_ray.stages.aggregate import pivot_agg

    force_buckets(buckets)
    rng = np.random.default_rng(13)
    n = 300
    df = pd.DataFrame({
        "source": rng.integers(0, 25, n).astype(np.int64),
        "lang": rng.choice(["de", "en", "fr", "ja"], n),
        "n_chars": rng.integers(1, 1000, n).astype(np.int64),
    })
    df = df[~((df["source"] % 5 == 0) & (df["lang"] == "fr"))]  # empty cells
    out = pivot_agg(rd.from_pandas(df).repartition(4), "source", "lang",
                    AggSpec("n_chars", "sum", "s")).to_pandas()
    exp = df.pivot_table(index="source", columns="lang", values="n_chars",
                         aggfunc="sum").astype("float64").reset_index()
    exp.columns.name = None
    got = out.sort_values("source").reset_index(drop=True)
    assert got["fr"].isna().sum() == 5
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_pivot_value_cap(monkeypatch):
    from feast_ray.stages import aggregate
    from feast_ray.stages.aggregate import pivot_agg

    tbl = pa.table({
        "source": ["a"] * 5,
        "lang": [f"l{i}" for i in range(5)],
        "n_chars": pa.array(range(5), pa.int64()),
    })
    monkeypatch.setattr(aggregate, "MAX_PIVOT_VALUES", 3)
    with pytest.raises(ValueError):
        pivot_agg(rd.from_arrow(tbl), "source", "lang",
                  AggSpec("n_chars", "sum", "s"))


def test_grouping_sets_match_pandas():
    from feast_ray.stages.aggregate import grouping_sets_agg

    tbl = _docs()
    out = grouping_sets_agg(
        rd.from_arrow(tbl).repartition(4), ["source", "lang"],
        [["source", "lang"], ["lang"], []],
        [AggSpec(None, "count", "n_docs"), AggSpec("n_chars", "sum", "s")],
    ).to_pandas()
    df = tbl.to_pandas()
    finest = df.groupby(["source", "lang"]).size()
    by_lang = df.groupby("lang").agg(s=("n_chars", "sum"))
    assert len(out) == len(finest) + len(by_lang) + 1
    # (lang) level: source NULL, lang set
    got = out[out.source.isna() & out.lang.notna()].set_index("lang")
    for lang, row in by_lang.iterrows():
        assert got.loc[lang, "s"] == row["s"]
    # () level
    total = out[out.source.isna() & out.lang.isna()]
    assert len(total) == 1 and total.iloc[0]["n_docs"] == len(df)
    assert out["n_docs"].dtype == np.int64


def _empty_kvg() -> pa.Table:
    return pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64()),
                     "g": pa.array([], pa.string())})


@pytest.mark.parametrize("form", ["rollup(g, k)", "cube(g, k)",
                                  "grouping sets ((g, k), (g), ())"])
def test_grouping_forms_on_empty_input_match_duckdb(form):
    """On no rows SQL still returns the grand total: one row with the
    keys NULL, count 0 and sum NULL, and nothing for the keyed sets."""
    import duckdb

    from feast_ray.stages.aggregate import cube_agg, grouping_sets_agg

    tbl = _empty_kvg()
    specs = [AggSpec(None, "count", "c"), AggSpec("v", "sum", "s")]
    ds = rd.from_arrow(tbl)
    run = {
        "rollup(g, k)": lambda: rollup_agg(ds, ["g", "k"], specs),
        "cube(g, k)": lambda: cube_agg(ds, ["g", "k"], specs),
        "grouping sets ((g, k), (g), ())": lambda: grouping_sets_agg(
            ds, ["g", "k"], [["g", "k"], ["g"], []], specs),
    }
    got = run[form]().to_pandas()
    con = duckdb.connect()
    con.register("t", tbl)
    exp = con.execute(
        f"select g, k, count(*) as c, sum(v) as s from t group by {form}").df()
    assert list(got.columns) == list(exp.columns) == ["g", "k", "c", "s"]
    assert len(got) == len(exp) == 1
    for col in ("g", "k", "s"):
        assert got[col].isna().all() and exp[col].isna().all()
    assert got["c"].tolist() == exp["c"].tolist() == [0]
    assert got["c"].dtype == np.int64


def test_global_ranks_keep_their_columns_on_empty_input():
    from feast_ray.stages.relational import global_rank_int, global_rank_prefix_int

    def _schema(ds):
        s = ds.materialize().schema()
        return pa.schema(list(zip(s.names, s.types)))

    ds = rd.from_arrow(_empty_kvg())
    i64 = pa.int64()
    ranked = global_rank_int(ds, "k", keep_cols=["g"])
    assert ranked.count() == 0
    assert _schema(ranked) == pa.schema([("k", i64), ("g", pa.string()),
                                         ("rank", i64)])
    prefixed = global_rank_prefix_int(ds, "k", "v", keep_cols=["g"],
                                      rank_as="r", prefix_as="p")
    assert prefixed.count() == 0
    assert _schema(prefixed) == pa.schema([("k", i64), ("v", i64),
                                           ("g", pa.string()), ("r", i64),
                                           ("p", i64)])


def test_grouping_sets_validates():
    from feast_ray.stages.aggregate import grouping_sets_agg

    ds = rd.from_arrow(_docs())
    with pytest.raises(ValueError):
        grouping_sets_agg(ds, ["source"], [["lang"]],
                          [AggSpec(None, "count", "n")])
    with pytest.raises(ValueError):
        grouping_sets_agg(ds, ["source"], [["source", "source"]],
                          [AggSpec(None, "count", "n")])
    with pytest.raises(ValueError):
        grouping_sets_agg(ds, ["source"], [["source"]],
                          [AggSpec("n_chars", "mean", "m")])


def test_window_lead_dense_rank_ntile_match_pandas():
    rng = np.random.default_rng(7)
    n = 500
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": rng.choice(["u1", "u2", "u3"], n),
        # coarse ts so dense-rank ties actually occur
        "t": rng.integers(0, 40, n).astype(np.int64),
        "v": rng.integers(-50, 50, n).astype(np.int64),
    })
    out = window_row_funcs(
        rd.from_pandas(df).repartition(6), ["k"], ["t", "id"],
        lead_cols={"v": "lead_v"},
        dense_rank_on=(["t"], "drk"),
        ntile=(4, "tile"),
    ).to_pandas().sort_values("id").reset_index(drop=True)
    ref = df.sort_values(["k", "t", "id"], kind="stable").copy()
    g = ref.groupby("k", sort=False)
    ref["lead_v"] = g["v"].shift(-1)
    ref["drk"] = g["t"].rank(method="dense").astype(np.int64)
    # SQL ntile: first (n % 4) tiles get the extra row
    def _ntile(m: int, parts: int = 4) -> np.ndarray:
        q, r = divmod(m, parts)
        sizes = [q + 1] * r + [q] * (parts - r)
        return np.repeat(np.arange(1, parts + 1), sizes[:parts])[:m]
    ref["tile"] = np.concatenate([_ntile(len(x)) for _, x in g])
    ref = ref.sort_values("id").reset_index(drop=True)
    assert (out["drk"] == ref["drk"]).all()
    assert (out["tile"] == ref["tile"]).all()
    pd.testing.assert_series_equal(
        out["lead_v"], ref["lead_v"], check_names=False)
    assert out["drk"].dtype == np.int64 and out["tile"].dtype == np.int64


def test_grouped_quantile_matches_duckdb_disc():
    import duckdb

    from feast_ray.stages.aggregate import grouped_quantile

    rng = np.random.default_rng(11)
    # group sizes deliberately hit q*n integer boundaries (multiples
    # of 2, 4, 5, 10) and odd sizes
    frames = []
    for i, sz in enumerate([1, 2, 3, 4, 5, 10, 20, 37, 100]):
        frames.append(pd.DataFrame({
            "g": np.repeat(f"g{i}", sz),
            "x": rng.integers(0, 1000, sz).astype(np.int64),
        }))
    df = pd.concat(frames, ignore_index=True)
    out = grouped_quantile(
        rd.from_pandas(df).repartition(5), ["g"], "x",
        {"p25": 0.25, "p50": 0.5, "p90": 0.9},
    ).to_pandas().sort_values("g").reset_index(drop=True)
    ref = duckdb.sql(
        "select g, quantile_disc(x, 0.25) p25, quantile_disc(x, 0.5) p50,"
        " quantile_disc(x, 0.9) p90 from df group by g order by g"
    ).df()
    assert (out["p25"].to_numpy() == ref["p25"].to_numpy()).all()
    assert (out["p50"].to_numpy() == ref["p50"].to_numpy()).all()
    assert (out["p90"].to_numpy() == ref["p90"].to_numpy()).all()


def test_global_rank_matches_argsort(monkeypatch):
    from feast_ray.stages import relational
    from feast_ray.stages.relational import global_rank_int

    rng = np.random.default_rng(17)
    n = 5000
    keys = rng.permutation(n).astype(np.int64) * 7 - 1000  # unique, negative too
    df = pd.DataFrame({"k": keys, "tag": np.arange(n, dtype=np.int64)})
    monkeypatch.setattr(relational, "RANK_NUM_BUCKETS", 16)
    out = (global_rank_int(
        rd.from_pandas(df).repartition(7), "k",
        rank_as="r", keep_cols=["tag"])
        .to_pandas().sort_values("k").reset_index(drop=True))
    # ascending rank == 1-based argsort position
    assert list(out["r"]) == list(range(1, n + 1))
    # payload column survives aligned with its key
    ref = df.sort_values("k").reset_index(drop=True)
    assert (out["tag"].to_numpy() == ref["tag"].to_numpy()).all()


def test_global_rank_skewed_and_tiny(monkeypatch):
    from feast_ray.stages import relational
    from feast_ray.stages.relational import global_rank_int

    # heavily skewed key range (boundary quality -> imbalance only)
    k = np.concatenate([np.arange(50, dtype=np.int64),
                        np.arange(10**9, 10**9 + 950, dtype=np.int64)])
    df = pd.DataFrame({"k": k})
    monkeypatch.setattr(relational, "RANK_NUM_BUCKETS", 8)
    out = global_rank_int(rd.from_pandas(df).repartition(3), "k").to_pandas()
    assert sorted(out["rank"]) == list(range(1, 1001))
    assert (out.sort_values("k")["rank"].to_numpy()
            == np.arange(1, 1001)).all()
    tiny = global_rank_int(
        rd.from_pandas(pd.DataFrame({"k": np.array([5], np.int64)})),
        "k").to_pandas()
    assert list(tiny["rank"]) == [1]


def test_grouped_string_agg_matches_duckdb(force_buckets):
    force_buckets(3)
    import duckdb

    from feast_ray.stages.aggregate import grouped_string_agg

    rng = np.random.default_rng(19)
    n = 600
    df = pd.DataFrame({
        "g": rng.choice(["u1", "u2", "u3", "u4"], n),
        "v": rng.choice(["a", "b", "c"], n),
        "o": rng.permutation(n).astype(np.int64),
    })
    out = (grouped_string_agg(
        rd.from_pandas(df).repartition(5), ["g"], "v", ["o"],
        sep=">", alias="s")
        .to_pandas().sort_values("g").reset_index(drop=True))
    ref = duckdb.sql(
        "select g, string_agg(v, '>' order by o) as s from df "
        "group by g order by g").df()
    assert out.equals(ref)


def test_grouped_quantile_cont_matches_duckdb():
    import duckdb

    from feast_ray.stages.aggregate import grouped_quantile

    rng = np.random.default_rng(31)
    frames = []
    for i, sz in enumerate([2, 3, 4, 5, 11, 40, 100]):
        frames.append(pd.DataFrame({
            "g": np.repeat(f"g{i}", sz),
            "x": rng.integers(0, 10**6, sz).astype(np.int64),
        }))
    df = pd.concat(frames, ignore_index=True)
    out = grouped_quantile(
        rd.from_pandas(df).repartition(4), ["g"], "x",
        {"p25": 0.25, "p50": 0.5, "p90": 0.9}, interpolate=True,
    ).to_pandas().sort_values("g").reset_index(drop=True)
    ref = duckdb.sql(
        "select g, quantile_cont(x, 0.25) p25, quantile_cont(x, 0.5) p50,"
        " quantile_cont(x, 0.9) p90 from df group by g order by g").df()
    # BIT-exact float equality is the contract (DuckDB's op order)
    for c in ("p25", "p50", "p90"):
        assert (out[c].to_numpy() == ref[c].to_numpy()).all(), c


def test_window_percent_rank_cume_dist_match_duckdb(force_buckets):
    force_buckets(3)
    import duckdb

    from feast_ray.stages.relational import window_row_funcs

    rng = np.random.default_rng(37)
    n = 500
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": rng.choice(["a", "b", "c"], n),
        "t": rng.permutation(n).astype(np.int64),
    })
    # add a singleton key: percent_rank of a 1-row partition is 0.0
    df.loc[n - 1, "k"] = "solo"
    df = df[~((df.k == "solo") & (df.index < n - 1))]
    out = (window_row_funcs(
        rd.from_pandas(df).repartition(4), ["k"], ["t", "id"],
        percent_rank_as="pr", cume_dist_as="cd")
        .to_pandas().sort_values("id").reset_index(drop=True))
    ref = duckdb.sql(
        "select id, percent_rank() over w as pr, cume_dist() over w as cd "
        "from df window w as (partition by k order by t, id) order by id"
    ).df()
    assert (out["pr"].to_numpy() == ref["pr"].to_numpy()).all()
    assert (out["cd"].to_numpy() == ref["cd"].to_numpy()).all()


def test_global_rank_prefix_matches_cumsum(monkeypatch):
    from feast_ray.stages import relational
    from feast_ray.stages.relational import global_rank_prefix_int

    rng = np.random.default_rng(23)
    n = 4000
    keys = rng.permutation(n).astype(np.int64) * 3 - 500
    vals = rng.integers(0, 900, n).astype(np.int64)
    df = pd.DataFrame({"k": keys, "v": vals,
                       "tag": np.arange(n, dtype=np.int64)})
    monkeypatch.setattr(relational, "RANK_NUM_BUCKETS", 16)
    for parts in (1, 9):
        out = (global_rank_prefix_int(
            rd.from_pandas(df).repartition(parts), "k", "v",
            rank_as="r", prefix_as="p", keep_cols=["tag"])
            .to_pandas().sort_values("k").reset_index(drop=True))
        ref = df.sort_values("k").reset_index(drop=True)
        assert list(out["r"]) == list(range(1, n + 1))
        # exclusive running sum in key order, any partitioning
        expect = np.concatenate([[0], np.cumsum(ref["v"].to_numpy())[:-1]])
        assert (out["p"].to_numpy() == expect).all()
        assert (out["tag"].to_numpy() == ref["tag"].to_numpy()).all()
