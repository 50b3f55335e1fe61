"""Co-partitioned joins run each side's lineage once (no schema probes,
no side-tagged union), and the broadcast semi / anti and interval joins
agree with SQL and with their distributed tiers."""

from datetime import timedelta

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from feast_ray.stages import AggSpec, hash_join, windowed_agg
from feast_ray.stages.join import copartitioned_asof_join, interval_join, semi_join


def _counted(ds, path) -> ray.data.Dataset:
    """``ds`` (a list of frames: one block each) behind a map that
    appends one byte to ``path`` per call — one call per block per run
    of the lineage."""
    if isinstance(ds, list):
        ds = ray.data.from_pandas(ds)

    def _mark(t: pa.Table) -> pa.Table:
        with open(path, "a") as f:
            f.write("x")
        return t

    return ds.map_batches(_mark, batch_format="pyarrow", batch_size=None)


def _calls(path) -> int:
    return path.stat().st_size if path.exists() else 0


def _split(df: pd.DataFrame, blocks: int) -> list[pd.DataFrame]:
    return [part.reset_index(drop=True) for part in np.array_split(df, blocks)]


@pytest.mark.parametrize("hot_keys", [None, [1]])
@pytest.mark.parametrize("blocks", [1, 3])
def test_hash_join_runs_each_side_once(tmp_path, blocks, hot_keys):
    ldf = pd.DataFrame({"k": np.arange(30) % 5, "lv": np.arange(30)})
    rdf = pd.DataFrame({"k": np.arange(6), "rv": np.arange(6) * 10})
    lpath, rpath = tmp_path / "left", tmp_path / "right"
    out = hash_join(_counted(_split(ldf, blocks), lpath),
                    _counted(_split(rdf, blocks), rpath),
                    on="k", hot_keys=hot_keys).to_pandas()
    assert (_calls(lpath), _calls(rpath)) == (blocks, blocks)
    exp = ldf.merge(rdf, on="k")
    pd.testing.assert_frame_equal(
        out.sort_values("lv").reset_index(drop=True),
        exp.sort_values("lv").reset_index(drop=True)[list(out.columns)],
        check_dtype=False,
    )


@pytest.mark.parametrize("blocks", [1, 3])
def test_copartitioned_asof_join_runs_each_side_once(tmp_path, blocks):
    ts = pd.Timestamp("2024-01-01")
    ldf = pd.DataFrame({"k": np.arange(12) % 3,
                        "ts": ts + pd.to_timedelta(np.arange(12), "h")})
    rdf = pd.DataFrame({"k": np.arange(6) % 3,
                        "fts": ts + pd.to_timedelta(np.arange(6) * 2, "h"),
                        "rv": np.arange(6)})
    lpath, rpath = tmp_path / "left", tmp_path / "right"
    out = copartitioned_asof_join(
        _counted(_split(ldf, blocks), lpath), _counted(_split(rdf, blocks), rpath),
        left_ts="ts", right_ts="fts", by="k",
    ).to_pandas()
    assert (_calls(lpath), _calls(rpath)) == (blocks, blocks)
    assert len(out) == len(ldf)


@pytest.mark.parametrize("blocks", [1, 3])
def test_sliding_count_distinct_join_runs_each_side_once(tmp_path, monkeypatch, blocks):
    """A sliding ``windowed_agg`` mixing ``count_distinct`` with ``sum``
    joins its composed windows with the count_distinct aggregate through
    one two-sided exchange: the input runs once per branch (tiles and
    distinct values), and the count_distinct side once per block."""
    from feast_ray.stages import aggregate

    cd_path, cd_blocks = tmp_path / "cd", []
    orig = aggregate.grouped_agg

    def _counted_cd(*a, **k):
        mat = orig(*a, **k).materialize()
        cd_blocks.append(mat.num_blocks())
        return _counted(mat, cd_path)

    monkeypatch.setattr(aggregate, "grouped_agg", _counted_cd)
    ts = pd.Timestamp("2024-01-01")
    df = pd.DataFrame({"k": np.arange(40) % 4,
                       "ts": ts + pd.to_timedelta(np.arange(40) * 7, "min"),
                       "v": np.arange(40),
                       "u": np.arange(40) % 3})
    in_path = tmp_path / "input"
    out = windowed_agg(
        _counted(_split(df, blocks), in_path), ["k"], "ts", timedelta(hours=2),
        [AggSpec("v", "sum", "s"), AggSpec("u", "count_distinct", "n")],
        slide=timedelta(hours=1),
    ).to_pandas()
    assert _calls(in_path) == 2 * blocks
    assert _calls(cd_path) == sum(cd_blocks)
    assert out["n"].dtype == np.int64 and out["s"].dtype == np.int64
    assert (out["n"] >= 1).all()


@pytest.mark.parametrize("rtype", [pa.int64(), pa.float64()])
def test_copartitioned_asof_join_unifies_by_key_types(rtype):
    """An int32 `by` key meets an int64 or float64 one: both sides hash
    and merge in the unified type, and the output keeps the left type."""
    ts = pd.Timestamp("2024-01-01")
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], pa.int32()),
        "ts": pa.array([ts + pd.Timedelta(hours=2)] * 3, pa.timestamp("ns")),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 2], rtype),
        "fts": pa.array([ts, ts, ts + pd.Timedelta(hours=1)], pa.timestamp("ns")),
        "rv": [10, 20, 21],
    }))
    out = copartitioned_asof_join(left, right, left_ts="ts", right_ts="fts", by="k")
    assert out.schema().base_schema.field("k").type == pa.int32()
    got = out.to_pandas().sort_values("k").reset_index(drop=True)
    assert list(got["k"]) == [1, 2, 3]
    assert got["rv"].iloc[:2].tolist() == [10, 21] and pd.isna(got["rv"].iloc[2])


@pytest.mark.parametrize("copartitioned", [False, True])
def test_asof_join_int_key_null_on_one_side(copartitioned):
    """An int `by` key with a null reads as float64 in pandas while the
    other side's reads as int64; merge_asof needs one dtype."""
    from feast_ray.stages.join import asof_join

    ts = pd.Timestamp("2024-01-01")
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, None], pa.int64()),
        "ts": pa.array([ts + pd.Timedelta(hours=1)] * 2, pa.timestamp("ns")),
    }))
    right = pa.table({"k": pa.array([1], pa.int64()),
                      "fts": pa.array([ts], pa.timestamp("ns")), "rv": [7]})
    if copartitioned:
        out = copartitioned_asof_join(left, ray.data.from_arrow(right),
                                      left_ts="ts", right_ts="fts", by="k")
    else:
        out = asof_join(left, right, left_ts="ts", right_ts="fts", by="k")
    got = out.to_pandas().sort_values("k").reset_index(drop=True)
    assert got["rv"].iloc[0] == 7 and pd.isna(got["k"].iloc[1]) and pd.isna(got["rv"].iloc[1])


@pytest.mark.parametrize("tier", ["broadcast", "distributed"])
def test_semi_join_tiers_follow_sql(monkeypatch, tier):
    """A null key matches nothing (semi drops it, anti keeps it), and a
    composite key compares column by column — on both tiers."""
    from feast_ray.stages import join

    if tier == "distributed":
        monkeypatch.setattr(join, "SEMI_BROADCAST_MAX_KEYS", 0)
    left = ray.data.from_arrow(pa.table({"k": pa.array([1, None, 3], pa.int64()),
                                         "v": ["a", "b", "c"]}))
    right = ray.data.from_arrow(pa.table({"k": pa.array([1, None], pa.int64())}))

    def _vals(ds):
        return sorted(ds.to_pandas()["v"])

    assert _vals(semi_join(left, right, on="k")) == ["a"]
    assert _vals(semi_join(left, right, on="k", anti=True)) == ["b", "c"]

    left2 = ray.data.from_arrow(pa.table({"a": ["x\x1fy", "p"], "b": ["z", "q"],
                                          "v": ["spliced", "match"]}))
    right2 = ray.data.from_arrow(pa.table({"a": ["x", "p"], "b": ["y\x1fz", "q"]}))
    assert _vals(semi_join(left2, right2, on=["a", "b"])) == ["match"]
    assert _vals(semi_join(left2, right2, on=["a", "b"], anti=True)) == ["spliced"]


def test_interval_join_rejects_unsupported_types_and_runs_left_once(tmp_path):
    right = pd.DataFrame({"s": [0, 10], "e": [5, 20], "rv": [1, 2]})
    left = ray.data.from_pandas(pd.DataFrame({"p": [1, 12, 30]}))
    for how in ("right", "full", "bogus"):
        with pytest.raises(ValueError, match=how):
            interval_join(left, right, left_point="p", right_start="s", right_end="e",
                          how=how)
    path = tmp_path / "left"
    out = interval_join(
        _counted([pd.DataFrame({"p": [1, 12, 30]})], path), right,
        left_point="p", right_start="s", right_end="e", how="left",
    ).to_pandas().sort_values("p")
    assert _calls(path) == 1
    assert out["rv"].tolist()[:2] == [1, 2] and pd.isna(out["rv"].iloc[2])


def test_sliding_count_distinct_of_only_nulls_is_zero():
    """Every counted value NULL: the count_distinct side has no rows and
    no schema, so the join reads its stated schema, and each window's
    count is 0, as SQL gives it."""
    us = pa.timestamp("us")
    ds = ray.data.from_arrow(pa.table({
        "k": [1, 2], "ts": pa.array([0, 3_600_000_000], us), "v": [1, 2],
        "u": pa.array([None, None], pa.int64()),
    }))
    out = windowed_agg(
        ds, ["k"], "ts", timedelta(hours=2),
        [AggSpec("v", "sum", "s"), AggSpec("u", "count_distinct", "n")],
        slide=timedelta(hours=1),
    ).to_pandas().sort_values(["k", "window_start"])
    assert out["s"].tolist() == [1, 1, 2, 2]
    assert out["n"].tolist() == [0, 0, 0, 0] and out["n"].dtype == np.int64


def test_sliding_mixed_aggs_of_empty_input_is_empty():
    """A 0-row input gives 0 windows when count_distinct rides with
    another aggregate, as each gives alone."""
    us = pa.timestamp("us")
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array([], pa.int64()), "ts": pa.array([], us),
        "v": pa.array([], pa.int64()), "u": pa.array([], pa.int64()),
    }))
    for specs in ([AggSpec("v", "sum", "s")], [AggSpec("u", "count_distinct", "n")],
                  [AggSpec("v", "sum", "s"), AggSpec("u", "count_distinct", "n")]):
        out = windowed_agg(ds, ["k"], "ts", timedelta(hours=2), specs,
                           slide=timedelta(hours=1))
        assert out.count() == 0, specs
