"""Resumable materialization: manifest watermarks, partition skip,
idempotent partition rewrite (reference semantics:
feature_view.py:482-491 apply_materialization,
feature_store.py:2546-2630 materialize_incremental)."""

import os

import pyarrow.parquet as pq

from feast_ray.pipelines import quality_filter
from feast_ray.sources import synth_webpages
from feast_ray.state import Registry, materialize_resumable


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
import sys; sys.path.insert(0, "/root/repo")
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
        stderr=subprocess.DEVNULL, text=True, cwd="/root/repo",
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
