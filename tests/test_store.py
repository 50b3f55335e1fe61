"""Feature-store surface tests: apply → materialize → PIT historical
retrieval → online lookup → push, with the record-at-a-time pandas
oracle of the reference (tests/utils/feature_records.py:50-200
`find_latest_record`) re-derived here."""

from datetime import timedelta

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from feast_ray.stages.aggregate import AggSpec
from feast_ray.store import Store
from feast_ray.views import Entity, FeatureService, TableSource, View

USER = Entity("user", "user_id")


def _events_source():
    return TableSource(name="events", table="events", timestamp_field="ts")


def _value_view():
    return View(
        name="user_values",
        source=_events_source(),
        entities=[USER],
        ttl=timedelta(days=2),
        features=["value"],
    )


def _stats_view():
    return View(
        name="user_stats",
        source=_events_source(),
        entities=[USER],
        aggregations=[
            AggSpec("value", "sum", "total_value"),
            AggSpec(None, "count", "n_events"),
        ],
        features=["total_value", "n_events"],
    )


@pytest.fixture()
def store(tmp_path, sf_small):
    s = Store(str(tmp_path / "repo"), sf_small)
    s.apply([_value_view(), _stats_view(),
             FeatureService("svc", ("user_values:value",))])
    return s


def find_latest_record(df, user_id, ts, ttl):
    """Record-at-a-time PIT oracle (reference pattern)."""
    sub = df[(df.user_id == user_id) & (df.ts <= ts)]
    if ttl is not None:
        sub = sub[sub.ts >= ts - ttl]
    if len(sub) == 0:
        return None
    return sub.sort_values("ts", kind="stable").iloc[-1]["value"]


def test_historical_retrieval_pit(store, sf_small):
    import pyarrow.parquet as pq

    events = pq.read_table(f"{sf_small}/events.parquet").to_pandas()
    rng = np.random.RandomState(7)
    users = rng.choice(events.user_id.unique(), 20)
    tss = pd.to_datetime(rng.choice(events.ts.to_numpy(), 20))
    entity_df = pd.DataFrame({"user_id": users, "event_timestamp": tss})

    out = (
        store.get_historical_features(entity_df, ["user_values:value"])
        .to_pandas()
        .reset_index(drop=True)
    )
    assert len(out) == len(entity_df)
    merged = entity_df.merge(out, on=["user_id", "event_timestamp"], how="left")
    for _, r in merged.iterrows():
        exp = find_latest_record(events, r.user_id, r.event_timestamp, timedelta(days=2))
        got = r["value"]
        if exp is None:
            assert pd.isna(got)
        else:
            assert got == pytest.approx(exp)


def test_historical_full_feature_names(store):
    entity_df = pd.DataFrame(
        {"user_id": [1, 2], "event_timestamp": pd.to_datetime(["2024-01-20", "2024-01-20"])}
    )
    out = store.get_historical_features(
        entity_df, ["user_values:value"], full_feature_names=True
    ).to_pandas()
    assert "user_values__value" in out.columns


def test_materialize_and_online_lookup(store, sf_small):
    import pyarrow.parquet as pq

    res = store.materialize()
    assert res["user_values"] > 0
    events = pq.read_table(f"{sf_small}/events.parquet").to_pandas()
    latest = events.sort_values("ts").drop_duplicates("user_id", keep="last")
    some_users = latest.user_id.head(5).tolist()
    out = store.get_online_features(
        ["user_values:value"], [{"user_id": u} for u in some_users]
    )
    exp = latest.set_index("user_id").loc[some_users, "value"].to_numpy()
    np.testing.assert_allclose(out["value"].to_numpy(), exp)


def test_materialize_agg_view(store, sf_small, duck):
    store.materialize(views=["user_stats"])
    got = (
        store.online.read("user_stats")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    exp = duck.execute(
        "select user_id, sum(value) total_value, count(*) n_events from events group by 1 order by 1"
    ).fetchdf()
    np.testing.assert_allclose(got["total_value"], exp["total_value"])
    assert (got["n_events"].to_numpy() == exp["n_events"].to_numpy()).all()


def test_push_upserts_latest(store):
    store.materialize(views=["user_values"])
    before = store.get_online_features(["user_values:value"], [{"user_id": 1}])
    new_ts = pd.Timestamp("2030-01-01")
    store.push(
        "user_values",
        pd.DataFrame(
            {"event_id": [999999], "ts": [new_ts], "user_id": [1],
             "event_type": ["push"], "value": [123.45], "props": ["{}"]}
        ),
    )
    after = store.get_online_features(["user_values:value"], [{"user_id": 1}])
    assert after["value"][0] == pytest.approx(123.45)
    # stale push (older ts) must NOT win
    store.push(
        "user_values",
        pd.DataFrame(
            {"event_id": [999998], "ts": [pd.Timestamp("2000-01-01")], "user_id": [1],
             "event_type": ["push"], "value": [0.0], "props": ["{}"]}
        ),
    )
    again = store.get_online_features(["user_values:value"], [{"user_id": 1}])
    assert again["value"][0] == pytest.approx(123.45)


def test_materialize_incremental_watermark(store):
    from datetime import datetime

    store.materialize(end=datetime(2024, 1, 10), views=["user_values"])
    reg = store._load_registry()
    assert reg["watermarks"]["user_values"][-1][1] == str(datetime(2024, 1, 10))
    store.materialize_incremental(datetime(2024, 2, 1), views=["user_values"])
    reg = store._load_registry()
    assert reg["watermarks"]["user_values"][-1] == [
        str(datetime(2024, 1, 10)), str(datetime(2024, 2, 1))
    ]


def test_derived_view_chain(store, sf_small, duck):
    """Derived view: parent transform feeds child aggregation without a
    disk round trip (reference sink_source chain, ray/nodes.py:769-834)."""
    parent = View(
        name="doubled",
        source=_events_source(),
        entities=[USER],
        udf=lambda t: t.set_column(
            t.schema.get_field_index("value"), "value",
            pa.compute.multiply(t["value"], pa.scalar(2.0)),
        ),
    )
    child = View(
        name="doubled_stats",
        source=parent,
        entities=[USER],
        aggregations=[AggSpec("value", "sum", "total2")],
    )
    store.apply([parent, child])
    got = (
        store.build_view_ds(child).to_pandas().sort_values("user_id").reset_index(drop=True)
    )
    exp = duck.execute(
        "select user_id, sum(value*2.0) total2 from events group by 1 order by 1"
    ).fetchdf()
    np.testing.assert_allclose(got["total2"], exp["total2"])


def test_historical_retrieval_large_view_copartitioned(tmp_path, sf_small):
    """Forcing the broadcast size gate to 0 routes retrieval down the
    distributed co-partitioned as-of path (reference's 100 MB gate,
    ray/nodes.py:182-199); the result must equal the broadcast path."""
    import pyarrow.parquet as pq

    s_small = Store(str(tmp_path / "r1"), sf_small)
    s_big = Store(str(tmp_path / "r2"), sf_small, broadcast_threshold_bytes=0)
    for s in (s_small, s_big):
        s.apply([_value_view(), _stats_view()])

    events = pq.read_table(f"{sf_small}/events.parquet").to_pandas()
    rng = np.random.RandomState(3)
    users = rng.choice(events.user_id.unique(), 25)
    tss = pd.to_datetime(rng.choice(events.ts.to_numpy(), 25))
    entity_df = pd.DataFrame({"user_id": users, "event_timestamp": tss})

    feats = ["user_values:value", "user_stats:total_value"]
    a = (
        s_small.get_historical_features(entity_df, feats)
        .to_pandas()
        .sort_values(["user_id", "event_timestamp"])
        .reset_index(drop=True)
    )
    b = (
        s_big.get_historical_features(entity_df, feats)
        .to_pandas()
        .sort_values(["user_id", "event_timestamp"])
        .reset_index(drop=True)
    )
    assert sorted(a.columns) == sorted(b.columns)
    for c in ["value", "total_value"]:
        pd.testing.assert_series_equal(
            a[c], b[c], check_dtype=False, check_exact=False
        )


def test_historical_retrieval_copartitioned_shared_ts_name(tmp_path, sf_small):
    """The distributed as-of path with the entity timestamp column named
    like the view's (``ts``) matches the broadcast path."""
    import pyarrow.parquet as pq

    s_small = Store(str(tmp_path / "r1"), sf_small)
    s_big = Store(str(tmp_path / "r2"), sf_small, broadcast_threshold_bytes=0)
    for s in (s_small, s_big):
        s.apply([_value_view()])

    events = pq.read_table(f"{sf_small}/events.parquet").to_pandas()
    rng = np.random.RandomState(5)
    entity_df = pd.DataFrame({
        "user_id": rng.choice(events.user_id.unique(), 25),
        "ts": pd.to_datetime(rng.choice(events.ts.to_numpy(), 25)),
    })
    a, b = (
        s.get_historical_features(entity_df, ["user_values:value"], entity_ts_col="ts")
        .to_pandas().sort_values(["user_id", "ts"]).reset_index(drop=True)
        for s in (s_small, s_big)
    )
    assert sorted(a.columns) == sorted(b.columns) == ["ts", "user_id", "value"]
    assert a["value"].notna().any()
    pd.testing.assert_series_equal(a["value"], b["value"], check_dtype=False)


def test_plan_detects_changed_view(store):
    """Object-level diff (reference diff/registry_diff.py:253): a view
    with the same name but a different ttl shows as to-update; apply
    then bumps the definition."""
    changed = View(
        name="user_values",
        source=_events_source(),
        entities=[USER],
        ttl=timedelta(days=9),
        features=["value"],
    )
    p = store.plan([changed, _stats_view()])
    assert p["to_update"] == ["user_values"]
    assert p["unchanged"] == ["user_stats"]
    store.apply([changed])
    assert store.views["user_values"].ttl == timedelta(days=9)
    p2 = store.plan([changed])
    assert p2["to_update"] == [] and p2["unchanged"] == ["user_values"]


def test_source_explicit_path(tmp_path, sf_small):
    """TableSource.path overrides the {data_dir}/{table} layout
    (ADVICE r1: path was silently ignored)."""
    import shutil

    alt = str(tmp_path / "alt_events.parquet")
    shutil.copy(f"{sf_small}/events.parquet", alt)
    s = Store(str(tmp_path / "repo"), str(tmp_path / "nonexistent_data_dir"))
    v = View(
        name="user_values",
        source=TableSource(name="ev", path=alt, timestamp_field="ts"),
        entities=[USER],
        features=["value"],
    )
    s.apply([v])
    n = s.build_view_ds(v).count()
    assert n > 0


def test_non_entity_all_keyless_raises(tmp_path, sf_small):
    from datetime import datetime

    s = Store(str(tmp_path / "repo"), sf_small)
    keyless = View(
        name="globals",
        source=_events_source(),
        entities=[],
        features=["value"],
    )
    s.apply([keyless])
    with pytest.raises(ValueError, match="keyless"):
        s.get_historical_features(
            None, ["globals:value"], end=datetime(2024, 2, 1)
        )


def test_plan_detects_udf_constant_change(store, sf_small):
    """Fingerprint must see constant changes (co_code alone is blind
    to lambda t: t*2 vs t*3 — code-review r2 finding)."""
    def make(factor):
        import pyarrow.compute as pc_

        return View(
            name="scaled",
            source=_events_source(),
            entities=[USER],
            udf=lambda t, f=factor: t.append_column(
                "v2", pc_.multiply(t["value"], pc_.cast(f, "double"))
            ),
            features=["v2"],
        )

    store.apply([make(2)])
    p = store.plan([make(3)])
    assert p["to_update"] == ["scaled"]
    p2 = store.plan([make(2)])
    assert p2["unchanged"] == ["scaled"]


def test_online_lsm_compaction_bounds_files(store, tmp_path):
    """Repeated small pushes append delta files; compaction keeps
    every bucket at <= COMPACT_FILES+1 files so lookup fan-in (and
    latency) stays flat, while last-write-wins survives across the
    compaction boundary (VERDICT r2 #10)."""
    import os
    import time

    from datetime import datetime

    n_pushes = 25
    for i in range(n_pushes):
        store.push(
            "user_values",
            pd.DataFrame(
                {
                    "user_id": [1, 2],
                    "ts": [datetime(2024, 1, 1, 0, i), datetime(2024, 1, 1, 0, i)],
                    "value": [float(i), float(100 + i)],
                }
            ),
        )
    vdir = store.online._dir("user_values")
    cap = store.online.COMPACT_FILES + 1
    bdirs = [d for d in os.listdir(vdir) if d.startswith("bucket=")]
    assert bdirs
    for b in bdirs:
        n_files = len(
            [f for f in os.listdir(os.path.join(vdir, b)) if f.endswith(".parquet")]
        )
        assert n_files <= cap, (b, n_files)
    # latest value per key wins across all the deltas + compactions
    out = store.get_online_features(
        ["user_values:value"], [{"user_id": 1}, {"user_id": 2}]
    )
    assert list(out["value"]) == [float(n_pushes - 1), float(100 + n_pushes - 1)]
    # merge-on-read yields exactly one row per key
    merged = store.online.read("user_values").to_pandas()
    assert merged["user_id"].value_counts().max() == 1


def test_online_read_ds_matches_driver_reader(store):
    """Distributed merge-on-read (read_ds) must produce exactly the
    driver-side reader's rows across base+delta files."""
    from datetime import datetime

    for i in range(6):  # several deltas, below the compaction bound
        store.push(
            "user_values",
            pd.DataFrame(
                {
                    "user_id": [10 + (i % 3), 99],
                    "ts": [datetime(2024, 2, 1, 0, i)] * 2,
                    "value": [float(i), float(50 + i)],
                }
            ),
        )
    a = (
        store.online.read("user_values")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    b = (
        store.online.read_ds("user_values")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    assert (b[b.user_id == 99]["value"] == 55.0).all()


def test_online_read_ds_seq_tiebreak_equal_timestamps(store):
    """EQUAL event timestamps force last-write-wins onto the file
    SEQUENCE — which read_ds must parse from the uuid-suffixed
    delta_{seq}_{uuid} names (code-review r4: taking the last '_'
    token read the uuid, collapsing every file to seq 0 or, for
    all-decimal uuids, a bogus huge seq)."""
    from datetime import datetime

    ts = datetime(2024, 3, 1)
    for i in range(5):
        store.push(
            "user_values",
            pd.DataFrame(
                {"user_id": [500], "ts": [ts], "value": [float(i)]}
            ),
        )
    a = store.online.read("user_values").to_pandas()
    b = store.online.read_ds("user_values").to_pandas()
    assert float(a[a.user_id == 500]["value"].iloc[0]) == 4.0
    assert float(b[b.user_id == 500]["value"].iloc[0]) == 4.0


def test_online_lookup_pre_lsm_legacy_layout(store, sf_small):
    """ADVICE r3: a store written before the LSM layout has bucket
    dirs but no _meta.json — lookup() must synthesize the merge recipe
    from the View (like read()'s fallback) instead of silently
    returning all-null features."""
    import os

    import pyarrow.parquet as pq

    store.materialize(views=["user_values"])
    # simulate the pre-LSM store: strip the meta file and rename each
    # bucket's delta to the legacy single data.parquet
    vdir = os.path.join(store.online.root, "user_values")
    os.remove(os.path.join(vdir, "_meta.json"))
    for b in os.listdir(vdir):
        bdir = os.path.join(vdir, b)
        if not os.path.isdir(bdir):
            continue
        files = [f for f in os.listdir(bdir) if f.endswith(".parquet")]
        assert len(files) == 1  # single materialize → one delta
        os.rename(os.path.join(bdir, files[0]),
                  os.path.join(bdir, "data.parquet"))
    events = pq.read_table(f"{sf_small}/events.parquet").to_pandas()
    latest = events.sort_values("ts").drop_duplicates("user_id", keep="last")
    some_users = latest.user_id.head(5).tolist()
    out = store.get_online_features(
        ["user_values:value"], [{"user_id": u} for u in some_users]
    )
    exp = latest.set_index("user_id").loc[some_users, "value"].to_numpy()
    np.testing.assert_allclose(out["value"].to_numpy(), exp)


def test_concurrent_upsert_seq_collision_no_lost_write(store):
    """ADVICE r3: delta filenames carry a uuid suffix, so two writers
    that computed the same seq cannot overwrite each other. Simulate
    the collision by copying a same-seq delta under a different uuid
    and checking both survive the merge listing."""
    import os
    import shutil

    now = pd.Timestamp("2024-01-01")
    store.push("user_values",
               pd.DataFrame({"user_id": [1], "ts": [now], "value": [1.0]}))
    vdir = os.path.join(store.online.root, "user_values")
    bdirs = [os.path.join(vdir, b) for b in os.listdir(vdir)
             if os.path.isdir(os.path.join(vdir, b))]
    (bdir,) = [b for b in bdirs if os.listdir(b)]
    (f0,) = [f for f in os.listdir(bdir) if f.endswith(".parquet")]
    assert "_" in f0.rsplit(".", 1)[0][6:], "delta name should carry uuid"
    # same-seq concurrent write under another uuid: distinct filename
    clone = f0.rsplit("_", 1)[0] + "_deadbeef.parquet"
    shutil.copy(os.path.join(bdir, f0), os.path.join(bdir, clone))
    files = store.online._bucket_files(bdir)
    assert len(files) == 2 and files[0][0] == files[1][0]
    # merge-on-read still returns exactly one latest row per key
    got = store.online.read("user_values").to_pandas()
    assert len(got) == 1 and got.loc[0, "value"] == 1.0


def _probe_view():
    return View(name="probe", source=TableSource(name="probe", table="probe"),
                entities=[USER], features=["n"])


def _bucket_parquet(vdir):
    import os

    return [os.path.join(vdir, b, f) for b in sorted(os.listdir(vdir))
            if b.startswith("bucket=") for f in os.listdir(os.path.join(vdir, b))]


def test_online_int64_with_null_keeps_type(tmp_path):
    """An int64 feature holding a null stays int64 in every bucket file
    and through both readers; read_ds returns exactly read's columns
    (no hive ``bucket`` column)."""
    import pyarrow.parquet as pq
    import ray

    from feast_ray.store import OnlineParquetStore

    online = OnlineParquetStore(str(tmp_path / "online"))
    probe = pa.table({"user_id": [1, 2, 3, 1],
                      "n": pa.array([10, None, 30, 11], pa.int64())})
    assert online.upsert(_probe_view(), ray.data.from_arrow(probe)) == 3
    files = _bucket_parquet(online._dir("probe"))
    assert len(files) == 3
    for f in files:
        assert pq.read_schema(f).field("n").type == pa.int64(), f
    a = online.read("probe")
    b = pa.concat_tables(ray.get(online.read_ds("probe").to_arrow_refs()))
    assert a.schema == b.schema == pa.schema([("user_id", pa.int64()), ("n", pa.int64())])
    exp = [{"user_id": 1, "n": 11}, {"user_id": 2, "n": None}, {"user_id": 3, "n": 30}]
    assert sorted(a.to_pylist(), key=lambda r: r["user_id"]) == exp
    assert sorted(b.to_pylist(), key=lambda r: r["user_id"]) == exp


def test_online_merges_older_writer_files(tmp_path):
    """Files from the earlier pandas-based writer still merge: a bucket
    holding a double delta (an int64 feature with a null came back from
    pandas as double) beside an int64 delta, and a pre-LSM
    ``data.parquet`` bucket, each match the pandas last-write-wins
    reference."""
    import json
    import os

    import pyarrow.parquet as pq

    from feast_ray.store import OnlineParquetStore
    from tests.test_stages import _pandas_latest

    online = OnlineParquetStore(str(tmp_path / "online"))
    vdir = online._dir("probe")
    meta = {"upsert_keys": ["user_id"], "order_by": ["ts"], "has_ts": True}
    ts = pa.timestamp("us")
    int64_delta = pa.table({"user_id": [1, 2, 3],
                            "ts": pa.array([1, 2, 2], ts),
                            "n": pa.array([10, None, 30], pa.int64())})
    double_delta = pa.Table.from_pandas(int64_delta.to_pandas(), preserve_index=False)
    assert double_delta.schema.field("n").type == pa.float64()
    newer = pa.table({"user_id": [1, 2, 3],
                      "ts": pa.array([1, 1, None], ts),
                      "n": pa.array([11, 21, 31], pa.int64())})
    legacy = pa.table({"user_id": [4, 4, 5, 5],
                       "ts": pa.array([2, 1, None, None], ts),
                       "n": pa.array([40, 41, 50, 51], pa.int64())})
    buckets = {
        "bucket=0": [("delta_000000000000_0a1b2c3d.parquet", double_delta),
                     ("delta_000000000001_4e5f6a7b.parquet", newer)],
        "bucket=1": [("data.parquet", legacy)],
    }
    for b, files in buckets.items():
        os.makedirs(os.path.join(vdir, b))
        for name, tbl in files:
            pq.write_table(tbl, os.path.join(vdir, b, name))
    with open(os.path.join(vdir, "_meta.json"), "w") as f:
        json.dump(meta, f)

    refs = []
    for b, files in buckets.items():
        got = online._read_bucket(os.path.join(vdir, b), meta)
        src = pa.concat_tables([t for _, t in files], promote_options="permissive")
        ref = _pandas_latest(src, ["user_id"], ["ts"])
        ref = ref.sort_values("user_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.to_pandas().sort_values("user_id").reset_index(drop=True), ref
        )
        refs.append(ref)
    exp = pd.concat(refs, ignore_index=True)
    # full tie -> later file; null ts loses; all-null ts -> last row
    assert exp["n"].fillna(-1).tolist() == [11, -1, 30, 40, 51]
    merged = online.read("probe").to_pandas().sort_values("user_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(merged, exp)



@pytest.mark.parametrize("typ,keys", [
    (pa.int32(), [-3, -2, -1, 0, 1, 2]),
    (pa.float32(), [-1.5, 0.25, 2.0, 1e6]),
])
def test_online_lookup_finds_narrow_keys(tmp_path, typ, keys):
    """``lookup`` hashes request keys (int64 / float64 from pandas) to
    the bucket ``upsert`` wrote the stored int32 / float32 key to."""
    import ray

    from feast_ray.store import OnlineParquetStore

    online = OnlineParquetStore(str(tmp_path / "online"))
    probe = pa.table({"user_id": pa.array(keys, typ),
                      "n": pa.array(range(len(keys)), pa.int64())})
    assert online.upsert(_probe_view(), ray.data.from_arrow(probe)) == len(keys)
    got = online.lookup(_probe_view(), [{"user_id": k} for k in keys])
    assert got["n"].tolist() == list(range(len(keys)))


def test_online_lookup_with_a_null_key_finds_int_keys(tmp_path):
    """A ``None`` among the request keys stays a null in the int64 key
    column, so every int key still hashes to the bucket ``upsert``
    wrote it to (a float64 request column missed half of them)."""
    import ray

    from feast_ray.store import OnlineParquetStore

    online = OnlineParquetStore(str(tmp_path / "online"))
    probe = pa.table({"user_id": pa.array(range(8), pa.int64()),
                      "n": pa.array(range(10, 18), pa.int64())})
    assert online.upsert(_probe_view(), ray.data.from_arrow(probe)) == 8
    got = online.lookup(_probe_view(),
                        [{"user_id": k} for k in range(8)] + [{"user_id": None}])
    assert got["n"].tolist()[:8] == list(range(10, 18))
    assert len(got) == 9 and pd.isna(got["n"].iloc[8])
