"""Cluster entrypoint for the flagship quality-filter run.

The north rule's deployment shape: `ray job submit` onto a fixed-size
multi-node cluster, the same job at N and 4N nodes, resumable from
checkpoint. This script is that entrypoint — it deliberately contains
NO tuning that assumes a single node:

    ray job submit --working-dir . -- \
        python jobs/quality_filter_job.py \
        --input  s3://bucket/commoncrawl-pages/   (any parquet dir) \
        --output s3://bucket/corpus-out/ \
        --partitions 4096

Design recap (why this scales; see BASELINE.md for the measurements):
- one lazy Dataset pipeline: pruned parquet read → validate → extract
  (vectorized `<article>` slicing, no regex) → url-dedup (per-block
  combiner, then a sort on the url hash bucket over fixed bucket-range
  boundaries — no sample pass, spills, skew-safe) → fused scorer
  (per-worker model cache) → partitioned parquet sink;
- the dedup shuffle carries extracted text only (html dropped first);
- resumability: the run is split into --partitions hash partitions of
  the input; each writes its own `part_id=` directory and a manifest
  row — a killed job resumes by skipping completed partitions
  (state/registry.py, the same mechanism `feast_ray.cli
  quality-filter` uses locally);
- measured scaling efficiency of this exact pipeline at N→4N
  parallelism: 0.949 / 0.988 / 1.042 across three runs (BASELINE.md).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--input", required=True, help="parquet dir of pages")
    p.add_argument("--output", required=True)
    p.add_argument("--partitions", type=int, default=256,
                   help="resume granularity (one manifest entry each)")
    p.add_argument("--keep-only", action="store_true")
    p.add_argument("--no-resume", action="store_true")
    args = p.parse_args(argv)

    import ray

    # under `ray job submit` RAY_ADDRESS points at the cluster; a
    # standalone invocation resolves it the same way (local session if
    # unset) — the entrypoint never hardcodes a topology
    if not ray.is_initialized():
        ray.init(ignore_reinit_error=True)

    import ray.data

    from feast_ray.pipelines.quality_filter import PIPELINE_VERSION, quality_filter
    from feast_ray.state.registry import materialize_resumable

    def build(ds: ray.data.Dataset) -> ray.data.Dataset:
        return quality_filter(ds, keep_only=args.keep_only, validate_input=False)

    result = materialize_resumable(
        build,
        ray.data.read_parquet(args.input),
        args.output,
        key_col="url",
        num_partitions=args.partitions,
        version=PIPELINE_VERSION,
        resume=not args.no_resume,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
