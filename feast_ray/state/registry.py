"""Registry: lineage, metrics, and resumable-materialization manifest.

Semantics reproduced: the reference's registry-persisted
materialization watermarks (`apply_materialization` records
[start, end) intervals per view, feature_view.py:482-491;
`materialize_incremental` resumes from `most_recent_end_time`,
feature_store.py:2546-2630) and its monitoring metric records
(monitoring_utils.py:24-60) — recast for a batch corpus job as:

- a JSON **run manifest** per output directory listing completed
  partitions (+ pipeline/extractor version, so a version bump
  invalidates the checkpoint);
- **partitioned Parquet output**: one ``part_id=…`` directory per hash
  partition of the key, written by the workers through one Datasink
  (``_PartitionedSink``) whose write tasks compute ``part_id``
  themselves and return their rows per partition;
- metrics rows appended as Parquet, computed in the same pass: each
  write task returns a partial of ``metrics_fn`` over the rows it
  wrote, and the driver merges the partials once (at most one row per
  write task and metrics key, e.g. per (domain, drop_reason) for
  ``quality_metrics``). The output is never read back.

Resume contract: a rerun loads the manifest, prunes already-completed
partitions from the stream (at real scale the pruning unit is the
input file group, so pruning happens at the read; with a single test
file we prune by hash bucket inside the first map_batches), processes
the remainder and commits their manifest entries. A kill between
write and commit re-does at most the uncommitted partitions —
idempotent because each partition directory is overwritten whole.
"""

from __future__ import annotations

import json
import os
import time
import uuid

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray.data
from ray.data.block import BlockAccessor
from ray.data.datasource import Datasink

from feast_ray.stages.dedup import add_hash_bucket

MANIFEST_NAME = "manifest.json"


class Registry:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.manifest_path = os.path.join(out_dir, MANIFEST_NAME)

    def load(self) -> dict:
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path) as f:
                return json.load(f)
        return {"runs": [], "completed_partitions": [], "version": None}

    def save(self, manifest: dict) -> None:
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1, sort_keys=True)
        os.replace(tmp, self.manifest_path)  # atomic commit

    def completed_partitions(self, version: str) -> set[int]:
        m = self.load()
        if m.get("version") != version:
            return set()  # version bump invalidates the checkpoint
        return set(m.get("completed_partitions", []))

    def commit_partitions(self, part_ids: list[int], version: str, stats: dict | None = None) -> None:
        m = self.load()
        if m.get("version") != version:
            m = {"runs": [], "completed_partitions": [], "version": version}
        done = set(m["completed_partitions"]) | set(int(p) for p in part_ids)
        m["completed_partitions"] = sorted(done)
        m["runs"].append(
            {
                "run_id": uuid.uuid4().hex[:12],
                "committed": sorted(int(p) for p in part_ids),
                "ts": time.time(),
                "stats": stats or {},
            }
        )
        self.save(m)

    def append_metrics(self, metrics: pa.Table | pd.DataFrame, name: str = "metrics") -> str:
        path = os.path.join(self.out_dir, name)
        os.makedirs(path, exist_ok=True)
        if isinstance(metrics, pd.DataFrame):
            metrics = pa.Table.from_pandas(metrics, preserve_index=False)
        pq.write_table(metrics, os.path.join(path, f"{uuid.uuid4().hex[:12]}.parquet"))
        return path


class _PartitionedSink(Datasink):
    """The write task of ``materialize_resumable``: tag the task's rows
    with ``part_id``, write them as hive ``part_id=<p>/`` parquet files
    (the ``pyarrow.dataset.write_dataset`` call, layout and file schema
    of Ray's ``write_parquet(partition_cols=["part_id"])``), and return
    the rows per ``part_id`` plus the task's ``metrics_fn.partial``."""

    def __init__(self, data_dir: str, key_col: str, num_partitions: int, metrics_fn):
        self.data_dir = data_dir
        self.key_col = key_col
        self.num_partitions = num_partitions
        self.metrics_fn = metrics_fn
        self.uuid = uuid.uuid4().hex
        self.returns: list = []

    def write(self, blocks, ctx) -> tuple[dict[int, int], pa.Table | None]:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return {}, None
        tbl = add_hash_bucket(pa.concat_tables(tables, promote_options="default"),
                              [self.key_col], self.num_partitions, col="part_id")
        pads.write_dataset(
            tbl,
            self.data_dir,
            format="parquet",
            partitioning=["part_id"],
            partitioning_flavor="hive",
            basename_template=f"{self.uuid}_{ctx.task_idx:06}_{{i}}.parquet",
            existing_data_behavior="overwrite_or_ignore",
        )
        counts = pc.value_counts(tbl["part_id"])
        rows = dict(zip(counts.field("values").to_pylist(), counts.field("counts").to_pylist()))
        return rows, self.metrics_fn.partial(tbl) if self.metrics_fn else None

    def on_write_complete(self, write_result) -> None:
        self.returns = write_result.write_returns


def materialize_resumable(
    build_pipeline,
    source_ds: ray.data.Dataset,
    out_dir: str,
    *,
    key_col: str = "url",
    num_partitions: int = 8,
    version: str = "v1",
    resume: bool = True,
    metrics_fn=None,
    chunk_size: int | None = None,
) -> dict:
    """Run ``build_pipeline(partitioned_source_ds)`` and write its output
    partitioned by ``part_id``, skipping partitions already committed in
    the manifest. Returns ``{"skipped", "written", "out", "rows_out"}``,
    where ``rows_out`` maps each written partition to its row count (0
    for an empty one; ``{}`` when every partition was already committed).

    The partition id is ``hash(key_col) % num_partitions``
    (``stages.dedup.add_hash_bucket``, the exchanges' key hash) — computed
    on the source for pruning and recomputed inside the write task for
    the partitioned write, so the pipeline does not need to carry it
    (the hash is a pure function of the key).

    ``metrics_fn`` (``quality_metrics``, or any ``GroupedAgg``): each
    write task returns ``metrics_fn.partial`` of the rows it wrote; the
    driver merges the partials of this run's fresh partitions once
    (``metrics_fn.merge``) and appends the table under ``metrics/``. The
    merge holds at most one partial row per (write task, metrics key)
    on the driver; for ``quality_metrics`` that is one row per (task,
    domain, drop_reason). At crawl scale (millions of domains) that
    outgrows the driver, and a heavy-hitter sketch of domains per
    drop_reason is the bounded replacement.

    ``chunk_size``: process and COMMIT that many partitions per
    pipeline run instead of all pending at once — a kill loses at most
    one uncommitted chunk and the rerun skips everything committed
    before it (the incremental-watermark granularity; at real scale a
    chunk maps to an input file group so chunking prunes at the read)."""
    import shutil

    reg = Registry(out_dir)
    done = reg.completed_partitions(version) if resume else set()
    all_parts = set(range(num_partitions))
    pending = sorted(all_parts - done)
    data_dir = os.path.join(out_dir, "data")
    if not pending:
        return {"skipped": sorted(done), "written": [], "out": data_dir, "rows_out": {}}
    os.makedirs(data_dir, exist_ok=True)  # ``out`` exists even when no row is written
    partials: list[pa.Table] = []

    def _run_chunk(chunk: list[int]) -> dict[int, int]:
        keep = sorted(chunk)

        def _prune(tbl):
            mask = pc.is_in(tbl["part_id"], value_set=pa.array(keep, pa.int64()))
            return tbl.filter(mask)

        ds = source_ds.map_batches(
            lambda t: add_hash_bucket(t, [key_col], num_partitions, col="part_id"),
            batch_format="pyarrow",
        )
        if set(keep) != all_parts:
            ds = ds.map_batches(_prune, batch_format="pyarrow")
        # idempotence: a partition is rewritten WHOLE — clear any orphan
        # files a killed previous run left in the uncommitted partitions
        for p in keep:
            shutil.rmtree(os.path.join(data_dir, f"part_id={p}"), ignore_errors=True)
        sink = _PartitionedSink(data_dir, key_col, num_partitions, metrics_fn)
        build_pipeline(ds).write_datasink(sink)
        # per-partition lineage, counted by the write tasks themselves
        rows = dict.fromkeys(keep, 0)
        for task_rows, partial in sink.returns:
            for p, n in task_rows.items():
                rows[p] += n
            if partial is not None:
                partials.append(partial)
        reg.commit_partitions(keep, version, stats={"rows_out": rows})
        return rows

    part_rows: dict[int, int] = {}
    step = chunk_size or len(pending)
    for i in range(0, len(pending), step):
        part_rows.update(_run_chunk(pending[i : i + step]))

    if partials:
        # metrics over ONLY this run's fresh partitions: a resumed run
        # never recounts the partitions committed before it
        reg.append_metrics(metrics_fn.merge(partials))
    return {
        "skipped": sorted(done),
        "written": pending,
        "out": data_dir,
        "rows_out": part_rows,
    }
