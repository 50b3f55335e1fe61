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
  partition of the key, written by the workers;
- metrics rows appended as Parquet.

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

import numpy as np
import pandas as pd
import ray.data

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

    def append_metrics(self, metrics: ray.data.Dataset | pd.DataFrame, name: str = "metrics") -> str:
        path = os.path.join(self.out_dir, name)
        os.makedirs(path, exist_ok=True)
        if isinstance(metrics, pd.DataFrame):
            import pyarrow as pa
            import pyarrow.parquet as pq

            pq.write_table(
                pa.Table.from_pandas(metrics, preserve_index=False),
                os.path.join(path, f"{uuid.uuid4().hex[:12]}.parquet"),
            )
        else:
            metrics.write_parquet(path)
        return path


def _partition_by_key(key_col: str, num_partitions: int):
    # Arrow in/out — keeps downstream blocks Arrow (shuffles are much
    # slower over pandas blocks) and never round-trips binary columns
    # (html payloads) through pandas
    def _add(tbl):
        import pyarrow as pa

        keys = pd.Series(tbl[key_col].to_pylist(), dtype=str)
        h = pd.util.hash_pandas_object(keys, index=False).to_numpy()
        return tbl.append_column(
            "part_id", pa.array((h % num_partitions).astype(np.int64))
        )

    return _add


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
    the manifest. Returns a summary dict.

    The partition id is ``hash(key_col) % num_partitions`` — computed
    on the source for pruning and recomputed on the result for the
    partitioned write, so the pipeline does not need to carry it
    (the hash is a pure function of the key).

    ``chunk_size``: process and COMMIT that many partitions per
    pipeline run instead of all pending at once — a kill loses at most
    one uncommitted chunk and the rerun skips everything committed
    before it (the incremental-watermark granularity; at real scale a
    chunk maps to an input file group so chunking prunes at the read)."""
    import shutil

    import pyarrow.parquet as pq

    reg = Registry(out_dir)
    done = reg.completed_partitions(version) if resume else set()
    all_parts = set(range(num_partitions))
    pending = sorted(all_parts - done)
    if not pending:
        return {"skipped": sorted(done), "written": [], "rows": 0}
    data_dir = os.path.join(out_dir, "data")

    def _part_files(p: int) -> list[str]:
        pdir = os.path.join(data_dir, f"part_id={p}")
        if not os.path.isdir(pdir):
            return []
        return [
            os.path.join(pdir, f)
            for f in sorted(os.listdir(pdir))
            if f.endswith(".parquet")
        ]

    def _run_chunk(chunk: list[int]) -> dict[int, int]:
        keep = sorted(chunk)

        def _prune(tbl):
            import pyarrow as pa
            import pyarrow.compute as pc

            mask = pc.is_in(tbl["part_id"], value_set=pa.array(keep, pa.int64()))
            return tbl.filter(mask)

        ds = source_ds.map_batches(
            _partition_by_key(key_col, num_partitions), batch_format="pyarrow"
        )
        if set(keep) != all_parts:
            ds = ds.map_batches(_prune, batch_format="pyarrow")
        result = build_pipeline(ds)
        result = result.map_batches(
            _partition_by_key(key_col, num_partitions), batch_format="pyarrow"
        )
        # idempotence: a partition is rewritten WHOLE — clear any orphan
        # files a killed previous run left in the uncommitted partitions
        for p in keep:
            shutil.rmtree(os.path.join(data_dir, f"part_id={p}"), ignore_errors=True)
        result.write_parquet(data_dir, partition_cols=["part_id"])
        # per-partition lineage: row counts from parquet footers
        # (metadata only — no data read), recorded in the commit
        rows = {
            p: sum(pq.read_metadata(f).num_rows for f in _part_files(p))
            for p in keep
        }
        reg.commit_partitions(keep, version, stats={"rows_out": rows})
        return rows

    part_rows: dict[int, int] = {}
    step = chunk_size or len(pending)
    for i in range(0, len(pending), step):
        part_rows.update(_run_chunk(pending[i : i + step]))

    if metrics_fn is not None and pending:
        # metrics over ONLY the freshly written partitions — reading
        # the whole data_dir double-counted already-committed
        # partitions on every resumed run (code-review r2 finding).
        # Pass their FILES: Ray 2.49's read_parquet rejects a list of
        # several partition directories ("... is a directory")
        fresh_files = [f for p in pending for f in _part_files(p)]
        if fresh_files:
            written = ray.data.read_parquet(fresh_files)
            reg.append_metrics(metrics_fn(written))
    return {
        "skipped": sorted(done),
        "written": pending,
        "out": data_dir,
        "rows_out": part_rows,
    }
