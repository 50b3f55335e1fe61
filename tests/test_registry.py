"""Resumable materialization: manifest watermarks, partition skip,
idempotent partition rewrite (reference semantics:
feature_view.py:482-491 apply_materialization,
feature_store.py:2546-2630 materialize_incremental)."""

import os
import shutil
from pathlib import Path

import pyarrow.parquet as pq
import pytest

from feast_ray.pipelines import quality_filter
from feast_ray.sources import synth_webpages
from feast_ray.state import Registry, materialize_resumable

ROOT = Path(__file__).resolve().parents[1]


def _build(ds):
    return quality_filter(ds, validate_input=False)


def test_resume_skips_and_stays_idempotent(tmp_path, sf_small):
    out = str(tmp_path / "mat")
    r1 = materialize_resumable(
        _build, synth_webpages(sf_small), out, num_partitions=4, version="v1"
    )
    assert r1["written"] == [0, 1, 2, 3]
    r2 = materialize_resumable(
        _build, synth_webpages(sf_small), out, num_partitions=4, version="v1"
    )
    assert r2["written"] == [] and r2["skipped"] == [0, 1, 2, 3]

    # partial completion: only parts 0,1 committed → rerun writes 2,3
    reg = Registry(out)
    m = reg.load()
    m["completed_partitions"] = [0, 1]
    reg.save(m)
    r3 = materialize_resumable(
        _build, synth_webpages(sf_small), out, num_partitions=4, version="v1"
    )
    assert r3["written"] == [2, 3] and r3["skipped"] == [0, 1]

    tbl = pq.read_table(os.path.join(out, "data"))
    urls = tbl["url"].to_pylist()
    assert len(urls) == len(set(urls)) == 500  # no duplicate rows ever

    # version bump invalidates the checkpoint entirely
    r4 = materialize_resumable(
        _build, synth_webpages(sf_small), out, num_partitions=4, version="v2"
    )
    assert r4["written"] == [0, 1, 2, 3]


def test_metrics_sink(tmp_path, sf_small):
    import pandas as pd

    reg = Registry(str(tmp_path / "reg"))
    path = reg.append_metrics(pd.DataFrame({"stage": ["extract"], "rows": [10]}))
    assert len(os.listdir(path)) == 1


def test_metrics_over_several_fresh_partitions(tmp_path, sf_small):
    """metrics_fn sees every freshly written partition: with four
    part_id= directories the quality_metrics n_docs total equals the
    rows committed."""
    from feast_ray.pipelines import quality_metrics

    out = str(tmp_path / "mat")
    res = materialize_resumable(
        _build, synth_webpages(sf_small), out, num_partitions=4,
        metrics_fn=quality_metrics,
    )
    assert res["written"] == [0, 1, 2, 3]
    rows = sum(res["rows_out"].values())
    assert rows == pq.read_table(os.path.join(out, "data")).num_rows > 0
    metrics = pq.read_table(os.path.join(out, "metrics")).to_pandas()
    assert int(metrics["n_docs"].sum()) == rows


def test_kill_and_resume_incremental(tmp_path, sf_small):
    """Real kill mid-run: a chunked materialization killed partway
    leaves committed chunks; the rerun skips them and completes the
    rest with no duplicate rows (the north rule's resumability)."""
    import json
    import subprocess
    import sys
    import time

    out = str(tmp_path / "mat")
    code = f'''
import ray, warnings
warnings.filterwarnings("ignore")
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import sys; sys.path.insert(0, "{ROOT}")
from feast_ray.pipelines.quality_filter import quality_filter
from feast_ray.sources import synth_webpages
from feast_ray.state import materialize_resumable
materialize_resumable(
    lambda ds: quality_filter(ds, validate_input=False),
    synth_webpages("{sf_small}"), "{out}",
    num_partitions=8, version="v1", chunk_size=2)
print("FULLY_DONE")
'''
    proc = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
    )
    # kill once the first chunk has committed but before completion
    import os as _os

    manifest = _os.path.join(out, "manifest.json")
    deadline = time.time() + 240
    committed = []
    while time.time() < deadline:
        if _os.path.exists(manifest):
            committed = json.load(open(manifest)).get("completed_partitions", [])
            if committed and len(committed) < 8:
                break
        if proc.poll() is not None:
            break
        time.sleep(0.3)
    proc.kill()
    proc.wait()
    assert committed, "no chunk committed before kill/completion"
    # (if the box was fast enough to finish all 8 chunks before the
    # kill landed, the resume-skips-everything path is still verified)

    # resume in-process: must skip the committed chunks
    from feast_ray.pipelines.quality_filter import quality_filter
    from feast_ray.sources import synth_webpages
    from feast_ray.state import materialize_resumable

    res = materialize_resumable(
        lambda ds: quality_filter(ds, validate_input=False),
        synth_webpages(sf_small), out,
        num_partitions=8, version="v1", chunk_size=2,
    )
    assert sorted(res["skipped"]) == sorted(committed)
    assert sorted(res["skipped"] + res["written"]) == list(range(8))

    import pyarrow.parquet as pq

    tbl = pq.read_table(_os.path.join(out, "data"))
    urls = tbl["url"].to_pylist()
    assert len(urls) == len(set(urls)) == 500


# --- the one-pass write: row counts, file layout and metrics come from
# the write tasks, and must equal what a read-back of the files gives


_METRIC_KEYS = ["domain", "drop_reason"]


def _data_files(out: str, parts=None) -> list[str]:
    import glob

    files = sorted(glob.glob(os.path.join(out, "data", "part_id=*", "*.parquet")))
    if parts is None:
        return files
    return [f for f in files if int(f.split("part_id=")[1].split(os.sep)[0]) in parts]


def _assert_metrics_equal(got, exp):
    import numpy as np
    import pandas as pd

    got = got.sort_values(_METRIC_KEYS).reset_index(drop=True)
    exp = exp.sort_values(_METRIC_KEYS).reset_index(drop=True)
    assert list(got.columns) == list(exp.columns)
    assert (got.dtypes == exp.dtypes).all()
    exact = _METRIC_KEYS + ["n_docs", "total_words"]
    pd.testing.assert_frame_equal(got[exact], exp[exact])
    np.testing.assert_allclose(got["avg_ppl"], exp["avg_ppl"], rtol=1e-12)


@pytest.mark.parametrize("chunk_size", [None, 2])
def test_write_pass_metrics_match_read_back(tmp_path, sf_small, chunk_size):
    """The metrics the write tasks compute equal ``quality_metrics``
    over a read-back of the written files; a resumed run counts only
    its fresh partitions."""
    import ray.data

    from feast_ray.pipelines import quality_metrics

    out = str(tmp_path / "mat")
    mat = dict(num_partitions=4, metrics_fn=quality_metrics, chunk_size=chunk_size)
    materialize_resumable(_build, synth_webpages(sf_small), out, **mat)
    got = pq.read_table(os.path.join(out, "metrics")).to_pandas()
    exp = quality_metrics(ray.data.read_parquet(_data_files(out))).to_pandas()
    _assert_metrics_equal(got, exp)

    reg = Registry(out)
    m = reg.load()
    m["completed_partitions"] = [0, 1]
    reg.save(m)
    shutil.rmtree(os.path.join(out, "metrics"))
    res = materialize_resumable(_build, synth_webpages(sf_small), out, **mat)
    assert res["written"] == [2, 3]
    got = pq.read_table(os.path.join(out, "metrics")).to_pandas()
    exp = quality_metrics(ray.data.read_parquet(_data_files(out, {2, 3}))).to_pandas()
    _assert_metrics_equal(got, exp)
    assert int(got["n_docs"].sum()) == res["rows_out"][2] + res["rows_out"][3]


def test_rows_out_match_footers_and_empty_partition(tmp_path, sf_small):
    """``rows_out[p]`` equals the parquet footer count of partition p; a
    partition the pipeline leaves empty counts 0 and gets no directory."""
    import pyarrow.compute as pc

    def build(ds):
        ds = ds.map_batches(
            lambda t: t.filter(pc.not_equal(t["part_id"], 2)), batch_format="pyarrow"
        )
        return quality_filter(ds, validate_input=False)

    out = str(tmp_path / "mat")
    res = materialize_resumable(build, synth_webpages(sf_small), out, num_partitions=4)
    assert res["rows_out"][2] == 0
    assert not os.path.exists(os.path.join(out, "data", "part_id=2"))
    for p in (0, 1, 3):
        footer = sum(pq.read_metadata(f).num_rows for f in _data_files(out, {p}))
        assert res["rows_out"][p] == footer > 0


def test_partitioned_files_match_write_parquet(tmp_path, sf_small):
    """The files hold no ``part_id`` column, and their hive read-back
    equals Ray's ``write_parquet(partition_cols=["part_id"])`` of the
    same rows."""
    from feast_ray.stages.dedup import add_hash_bucket

    out = str(tmp_path / "mat")
    materialize_resumable(_build, synth_webpages(sf_small), out, num_partitions=4)
    assert all("part_id" not in pq.read_schema(f).names for f in _data_files(out))

    ref = str(tmp_path / "ref")
    _build(synth_webpages(sf_small)).map_batches(
        lambda t: add_hash_bucket(t, ["url"], 4, col="part_id"), batch_format="pyarrow"
    ).write_parquet(ref, partition_cols=["part_id"])
    got = pq.read_table(os.path.join(out, "data")).sort_by("url")
    exp = pq.read_table(ref).sort_by("url")
    assert got.schema == exp.schema
    assert got.equals(exp)


def test_part_ids_of_string_keys_keep_the_pandas_str_formula():
    """Part ids of string keys, a null among them, equal the pandas
    formula over ``to_pylist()`` that wrote every existing layout and
    manifest, for ``string`` and ``large_string`` columns alike."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from feast_ray.stages.dedup import add_hash_bucket

    keys = ["https://a.example/1", None, "", "https://b.example/ü?q=1", "x" * 300]
    for typ in (pa.string(), pa.large_string()):
        tbl = pa.table({"url": pa.array(keys, typ)})
        got = add_hash_bucket(tbl, ["url"], 8, col="part_id")["part_id"]
        old = pd.util.hash_pandas_object(
            pd.Series(tbl["url"].to_pylist(), dtype=str), index=False).to_numpy()
        assert got.to_pylist() == (old % 8).astype(np.int64).tolist()
        assert got.type == pa.int64()


def test_keep_only_nothing_kept_writes_nothing(tmp_path, sf_small):
    """A keep-only run that keeps no row commits every partition with 0
    rows and writes no data file and no metrics file."""
    from feast_ray.pipelines import quality_metrics

    def build(ds):
        return quality_filter(ds, keep_only=True, validate_input=False).map_batches(
            lambda t: t.slice(0, 0), batch_format="pyarrow"
        )

    out = str(tmp_path / "mat")
    res = materialize_resumable(
        build, synth_webpages(sf_small), out, num_partitions=4, metrics_fn=quality_metrics
    )
    assert res["rows_out"] == {0: 0, 1: 0, 2: 0, 3: 0}
    assert Registry(out).completed_partitions("v1") == {0, 1, 2, 3}
    assert _data_files(out) == []
    assert not os.path.exists(os.path.join(out, "metrics"))
