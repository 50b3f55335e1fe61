"""Benchmark harness (driver contract).

Runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and prints ONE JSON line:

    {"metric": ..., "value": <headline sec>, "unit": "sec",
     "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
     "docs_per_sec": ..., "pages": ...}

``--scaling``: runs the same bench twice in fresh subprocesses at N
and 4N CPUs (default pair 4,16 — both inside the box's physical
cores; override with GRAFT_SCALING_PAIR) on the same input and prints
both throughputs + scaling efficiency (the sandbox stand-in for the
north rule's N vs 4N-node clusters; see BASELINE.md).

Flake-proofing (VERDICT r4 #2): the round-4 driver bench died in Ray
core (raylet FATAL → rc=1, no JSON) and the whole round's perf record
was lost. Now the bench body runs in an INNER subprocess supervised by
this process: every stage is individually try/except-guarded (a stage
failure is recorded in an ``errors`` field and the remaining stages
still run), the inner flushes a partial-JSON sidecar after every
stage, and if the inner process dies hard — even an uncatchable C++
abort — the supervisor still prints the sidecar's partial results as
the one JSON line, with ``errors.harness`` recording the death.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import warnings

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# Sidecar the inner bench process flushes after EVERY stage, so the
# supervising parent can emit a parseable partial JSON line even when
# the inner process dies hard (the round-4 loss mode).
PARTIAL_PATH = os.environ.get("GRAFT_BENCH_PARTIAL", "")
# Test hooks (tests/test_bench_harness.py): raise inside the named
# stage / hard-abort (os._exit) right after the named stage completes,
# proving both the soft-failure and the dead-inner recovery paths.
FORCE_FAIL = os.environ.get("GRAFT_BENCH_FORCE_FAIL", "")
FORCE_ABORT_AFTER = os.environ.get("GRAFT_BENCH_FORCE_ABORT_AFTER", "")
# pages are replicated so the flagship processes a non-trivial corpus
# (sf0.1 documents is only 5k rows). 60 ≈ 360k pages ≈ 6 min of
# single-CPU model compute — large enough that per-run fixed costs
# (session init, actor startup, shuffle barrier) stop dominating, the
# regime a 100 TB run actually lives in. Fixed for comparability.
PAGE_REPLICATE = int(os.environ.get("GRAFT_PAGE_REPLICATE", "60"))


def _consume(ds) -> int:
    """Stream the dataset to completion without driver materialization."""
    n = 0
    for batch in ds.iter_batches(batch_size=8192, batch_format="pyarrow"):
        n += batch.num_rows
    return n


def _flush_partial(out: dict) -> None:
    if not PARTIAL_PATH:
        return
    tmp = PARTIAL_PATH + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(out, fh)
    os.replace(tmp, PARTIAL_PATH)


def run_bench() -> dict:
    warnings.filterwarnings("ignore")
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        log_to_driver=False,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    import ray.data

    from feast_ray.pipelines.queries import QUERIES

    timings: dict[str, float] = {}
    extras: dict[str, float] = {}
    errors: dict[str, str] = {}
    state: dict = {"headline": None, "n_pages": None, "n_out": None,
                   "pages_dir": None}

    def _snapshot() -> dict:
        headline = state["headline"]
        out = {
            "metric": "quality_filter_wall_sec",
            "value": round(headline, 3) if headline else None,
            "unit": "sec",
            "queries": timings,
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "pages": state["n_pages"],
            "rows_out": state["n_out"],
            "docs_per_sec": (
                round(state["n_pages"] / headline, 1)
                if headline and state["n_pages"] else None
            ),
            **extras,
        }
        try:
            from feast_ray.pipelines.queries import LAST_IVF_SCAN_STATS

            if LAST_IVF_SCAN_STATS:
                out["ivf_scanned_frac"] = LAST_IVF_SCAN_STATS.get("scanned_frac")
        except Exception:  # noqa: BLE001 — stats are best-effort
            pass
        if errors:
            out["errors"] = dict(errors)
        return out

    def _stage(name: str, fn) -> None:
        """One bench stage: a failure is recorded, the rest still run,
        and the partial sidecar is re-flushed either way."""
        try:
            if FORCE_FAIL == name:
                raise RuntimeError("forced failure (GRAFT_BENCH_FORCE_FAIL)")
            fn()
        except Exception as exc:  # noqa: BLE001 — isolate stage flakes
            errors[name] = f"{type(exc).__name__}: {exc}"[:500]
        _flush_partial(_snapshot())
        if FORCE_ABORT_AFTER == name:
            os._exit(134)  # simulate the r4 raylet hard abort

    import shutil

    def _headline() -> None:
        from feast_ray.pipelines.quality_filter import quality_filter
        from feast_ray.sources.webpages import webpages_parquet_dir

        # materialize the synthetic page corpus to parquet once
        # (cached) and warm the page cache so we measure compute, not
        # first disk read
        pages_dir = webpages_parquet_dir(SF_DIR, replicate=PAGE_REPLICATE)
        state["pages_dir"] = pages_dir
        for f in os.listdir(pages_dir):
            if f.endswith(".parquet"):
                with open(os.path.join(pages_dir, f), "rb") as fh:
                    while fh.read(1 << 24):
                        pass

        # headline: flagship quality filter, read → ... →
        # worker-parallel parquet sink (the production consumption
        # path; an iter_batches loop would funnel all output through
        # the single driver process and pollute the scaling
        # measurement).
        # warm/cold split (VERDICT r2 #9): the FIRST run of the session
        # is the COLD number (session + worker + model warmup); the
        # headline is then the best of 2 WARM runs — steady-state
        # pipeline compute, the regime a multi-hour 100 TB job lives in
        # (single fresh runs vary ±40%). GRAFT_BENCH_RUNS=2 (the
        # --scaling inner runs) keeps round-2 comparability: best of
        # BOTH runs, no separate cold iteration.
        out_dir = f"/tmp/feast_ray_bench_out_{NUM_CPUS}"
        n_runs = int(os.environ.get("GRAFT_BENCH_RUNS", "3"))
        headline = None
        cold = None
        for i in range(n_runs):
            shutil.rmtree(out_dir, ignore_errors=True)
            t0 = time.perf_counter()
            result = quality_filter(
                ray.data.read_parquet(
                    pages_dir, override_num_blocks=max(64, 4 * NUM_CPUS)
                ),
                validate_input=False,
            )
            result.write_parquet(out_dir)
            dt = time.perf_counter() - t0
            if i == 0:
                cold = dt
            if i > 0 or n_runs < 3:
                headline = dt if headline is None else min(headline, dt)
        timings["quality_filter"] = round(headline, 3)
        timings["quality_filter_cold"] = round(cold, 3)
        state["headline"] = headline

        import pyarrow.parquet as pq_meta

        # throughput numerator = INPUT pages processed (pre-dedup): the
        # output row count conflates dedup rate with speed — a
        # recrawl-mix change would read as a phantom perf shift
        state["n_pages"] = sum(
            pq_meta.read_metadata(os.path.join(pages_dir, f)).num_rows
            for f in os.listdir(pages_dir)
            if f.endswith(".parquet")
        )
        state["n_out"] = sum(
            pq_meta.read_metadata(os.path.join(out_dir, f)).num_rows
            for f in os.listdir(out_dir)
            if f.endswith(".parquet")
        )

    _stage("quality_filter", _headline)

    bench_queries = [] if os.environ.get("GRAFT_HEADLINE_ONLY") else [
        "q01_pricing_summary",
        "q02_revenue_by_nation",
        "q03_top_customers",
        "q07_latest_event_per_user",
        "q08_asof_click_before_purchase",
        "q10_hourly_user_activity",
        "q12_users_per_type",
        "q16_quality_filter_docs",
        "q19_exact_dedup_docs",
        "q21_ann_cosine_topk",
        "q25_minhash_dedup_docs",
        "q29_ann_ivf",
        "q62_bloom_incremental_dedup",
        "q63_duplicate_span_removal",
        "q65_shard_shuffle",
        "q73_fine_slide_activity",
        "q81_ann_ivfpq",
        "q85_dense_slide_metrics",
        "q86_local_supplier_volume",
    ]

    def _query_stage(name: str):
        def _run() -> None:
            # best of 2 — single runs on this shared box vary ±40%,
            # which would read as phantom regressions cross-round
            best = None
            for _ in range(2):
                t0 = time.perf_counter()
                _consume(QUERIES[name](SF_DIR))
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            timings[name] = round(best, 3)
        return _run

    for name in bench_queries:
        _stage(name, _query_stage(name))

    if not os.environ.get("GRAFT_HEADLINE_ONLY") and state["pages_dir"]:
        # dedup ops at cluster scale: the full page corpus (96%
        # near-duplicate by construction — 60 variants per doc, the
        # pathological LSH-bucket shape) through content-level dedup.
        # Single runs (the ops are long enough to be stable).
        import pyarrow as _pa
        import ray.data as _rd

        pages_dir = state["pages_dir"]
        corpus = _rd.read_parquet(pages_dir, columns=["url", "text"])

        # corpus dedup stages are single long shuffles — the co-tenant
        # noise band on this box is >3x on bad windows (round-5
        # measurement: identical-code simhash 15.1 s vs 45.2 s an hour
        # apart), so each records the BEST of GRAFT_CORPUS_RUNS runs
        # (default 2) like the headline does
        corpus_runs = int(os.environ.get("GRAFT_CORPUS_RUNS", "2"))

        def _best_of(fn) -> float:
            best = None
            for _ in range(corpus_runs):
                t0 = time.perf_counter()
                fn()
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            return best

        def _minhash() -> None:
            from feast_ray.functions.neardup import minhash_dedup

            timings["minhash_dedup_corpus"] = round(_best_of(
                lambda: minhash_dedup(
                    corpus, "url", "text", threshold=0.9).count()
            ), 3)

        def _simhash() -> None:
            from feast_ray.functions.neardup import simhash_dups

            timings["simhash_dups_corpus"] = round(_best_of(
                lambda: simhash_dups(
                    corpus, "url", "text", max_hamming=3).count()
            ), 3)

        def _spandup() -> None:
            # span dedup (broadcast dup-gram table, 128-bit gram keys)
            # over the same corpus
            from feast_ray.functions.neardup import word_hashes64
            from feast_ray.functions.spandup import remove_duplicate_spans

            def _iid(t):
                import numpy as _np

                h = word_hashes64(t["url"]).view(_np.int64)
                return t.append_column("doc_iid", _pa.array(h, _pa.int64()))

            corpus_iid = corpus.map_batches(_iid, batch_format="pyarrow").materialize()
            timings["spandup_corpus"] = round(_best_of(
                lambda: remove_duplicate_spans(
                    corpus_iid, "doc_iid", "text", n=8
                ).count()
            ), 3)

        def _embed() -> None:
            # real-compute embed stage (VERDICT r3 #8): chunk → 17 MB-
            # weight transformer actors over 20k pages; reports docs/s
            from feast_ray.functions.chunker import (
                MiniTransformerEmbedder,
                chunk_batch,
            )

            emb_in = corpus.limit(20_000).materialize()
            emb_pages = emb_in.count()  # corpus may be smaller at low sf
            t0 = time.perf_counter()
            n_chunks = (
                emb_in.map_batches(
                    lambda t: chunk_batch(t, "url", "text"), batch_format="pyarrow"
                )
                .map_batches(
                    MiniTransformerEmbedder,
                    fn_constructor_kwargs={"text_col": "chunk_text"},
                    batch_format="pyarrow", batch_size=512,
                    concurrency=(2, max(2, NUM_CPUS // 2)),
                )
                .count()
            )
            dt = time.perf_counter() - t0
            timings["embed_pages"] = round(dt, 3)
            extras["embed_docs_per_sec"] = round(emb_pages / dt, 1)
            extras["embed_chunks"] = n_chunks

        def _stream() -> None:
            # streaming ingest at bench scale (VERDICT r3 #9): 1M
            # events in 20 offset-named segments through the
            # micro-batch tail, with a mid-stream crash +
            # fresh-processor resume — proves offset idempotence at
            # volume and reports events/s
            import numpy as _np
            import pandas as _pd
            import pyarrow.parquet as _pq2

            from feast_ray.store import Store
            from feast_ray.stream import (
                FileTailSource,
                MicroBatchProcessor,
                run_tail,
            )
            from feast_ray.views import Entity, TableSource, View

            n_seg, seg_rows = 20, 50_000
            seg_dir = "/tmp/feast_ray_bench_stream_segs"
            have = [f for f in os.listdir(seg_dir)] if os.path.isdir(seg_dir) else []
            if len([f for f in have if f.endswith(".parquet")]) != n_seg:
                shutil.rmtree(seg_dir, ignore_errors=True)
                os.makedirs(seg_dir)
                for off in range(n_seg):
                    i = _np.arange(seg_rows, dtype=_np.int64) + off * seg_rows
                    df = _pd.DataFrame({
                        "event_id": i,
                        "ts": _pd.Timestamp("2024-06-01")
                        + _pd.to_timedelta(i, unit="s"),
                        "user_id": i % 100_000,
                        "value": (i % 1000).astype(_np.float64),
                    })
                    _pq2.write_table(
                        _pa.Table.from_pandas(df, preserve_index=False),
                        os.path.join(seg_dir, f"seg_{off:06d}.parquet"),
                    )
            repo_dir = "/tmp/feast_ray_bench_stream_repo"
            shutil.rmtree(repo_dir, ignore_errors=True)
            st = Store(repo_dir, SF_DIR)
            st.apply([View(
                name="stream_values",
                source=TableSource(name="events", table="events", timestamp_field="ts"),
                entities=[Entity("user", "user_id")],
                features=["value"],
            )])
            src = FileTailSource(seg_dir)
            t0 = time.perf_counter()
            proc = MicroBatchProcessor(st, "stream_values")
            it = src.iter_from(proc._offset())
            done = 0
            for _ in range(n_seg // 2):  # "crash" halfway
                off, df = next(it)
                done += proc.process_batch(df, off)
            proc2 = MicroBatchProcessor(st, "stream_values")  # fresh process
            done += run_tail(proc2, src)
            dt = time.perf_counter() - t0
            assert proc2._offset() == n_seg - 1 and done == n_seg * seg_rows
            timings["stream_ingest_1m"] = round(dt, 3)
            extras["stream_events_per_sec"] = round(n_seg * seg_rows / dt, 1)

        def _ann() -> None:
            # ANN at corpus scale (round 5): a 512k-vector OPQ+residual
            # IVF-PQ index built by streaming replication of the sf
            # embeddings (deterministic per-replica tilt), then a
            # 10k-query ADC search through the vectorized per-cell
            # scorer and the bucketed final top-k merge. Records build
            # and search separately; search also reports queries/sec.
            import numpy as _np

            from feast_ray.functions.similarity import (
                ann_topk_ivfpq,
                ivfpq_build,
            )

            import pyarrow.parquet as _pq2

            base = _pq2.read_table(
                os.path.join(SF_DIR, "embeddings.parquet"),
                columns=["vec_id", "embedding"],
            )
            bm = _np.stack(
                base["embedding"].to_numpy(zero_copy_only=False)
            ).astype(_np.float64)
            nb, d = bm.shape
            reps = 256
            bref = ray.put(bm)

            def _mk(tbl: _pa.Table) -> _pa.Table:
                b = ray.get(bref)
                out = []
                for rid in tbl["id"].to_pylist():
                    rng = _np.random.RandomState(1000 + rid)
                    mat = b + rng.standard_normal(b.shape) * 0.05
                    out.append(_pa.table({
                        "vec_id": _pa.array(
                            _np.arange(nb, dtype=_np.int64) + rid * nb),
                        "embedding": _pa.array(list(mat.astype(_np.float32))),
                    }))
                return _pa.concat_tables(out)

            corpus_ds = _rd.range(reps).map_batches(
                _mk, batch_format="pyarrow", batch_size=8)
            idx_dir = "/tmp/feast_ray_bench/ivfpq_corpus"
            shutil.rmtree(idx_dir, ignore_errors=True)
            t0 = time.perf_counter()
            ivfpq_build(corpus_ds, idx_dir, n_cells=64, m=8,
                        residual=True, opq=True)
            timings["ann_ivfpq_build_512k"] = round(
                time.perf_counter() - t0, 3)
            qrng = _np.random.RandomState(7)
            queries = (bm[qrng.randint(0, nb, 10_000)]
                       + qrng.standard_normal((10_000, d)) * 0.05)
            t0 = time.perf_counter()
            out_ds, _ = ann_topk_ivfpq(idx_dir, queries, k=10, nprobe=8)
            n = out_ds.count()
            dt = time.perf_counter() - t0
            assert n == 100_000, n
            timings["ann_ivfpq_search_10kq"] = round(dt, 3)
            extras["ann_queries_per_sec"] = round(10_000 / dt, 1)

            # SQ8 flat scan over the same 512k corpus (round 5, q99):
            # codebook-free 4x-compressed codes, exact int64 scoring
            # through the chunked composite-key block top-k.
            from feast_ray.functions.similarity import (
                ann_topk_sq8,
                sq8_build,
            )

            sq_dir = "/tmp/feast_ray_bench/sq8_corpus"
            shutil.rmtree(sq_dir, ignore_errors=True)
            t0 = time.perf_counter()
            vmin, scale = sq8_build(corpus_ds, sq_dir)
            timings["ann_sq8_build_512k"] = round(
                time.perf_counter() - t0, 3)
            t0 = time.perf_counter()
            n = ann_topk_sq8(sq_dir, queries, vmin, scale, k=10).count()
            dt = time.perf_counter() - t0
            assert n == 100_000, n
            timings["ann_sq8_search_10kq"] = round(dt, 3)
            extras["sq8_queries_per_sec"] = round(10_000 / dt, 1)

        def _hnsw() -> None:
            # Sharded HNSW graph ANN (round 5, q104) over a 128k-vector
            # corpus: 32 hash-sharded graphs built in parallel (each a
            # sequential insert loop — the documented pure-Python
            # graph-build economics, ~500 vec/s/shard), then a
            # 10k-query fan-out search. Every query visits every shard
            # graph; coarse shard routing (IVF over shard medoids)
            # is the documented scale refinement.
            import numpy as _np

            import pyarrow.parquet as _pq2

            from feast_ray.functions.hnsw import ann_topk_hnsw, hnsw_build

            base = _pq2.read_table(
                os.path.join(SF_DIR, "embeddings.parquet"),
                columns=["vec_id", "embedding"],
            )
            bm = _np.stack(
                base["embedding"].to_numpy(zero_copy_only=False)
            ).astype(_np.float64)
            nb, d = bm.shape
            reps = max(1, 131_072 // nb)
            bref = ray.put(bm)

            def _mk(tbl: _pa.Table) -> _pa.Table:
                b = ray.get(bref)
                out = []
                for rid in tbl["id"].to_pylist():
                    rng = _np.random.RandomState(2000 + rid)
                    mat = b + rng.standard_normal(b.shape) * 0.05
                    out.append(_pa.table({
                        "vec_id": _pa.array(
                            _np.arange(nb, dtype=_np.int64) + rid * nb),
                        "embedding": _pa.array(list(mat.astype(_np.float32))),
                    }))
                return _pa.concat_tables(out)

            corpus_ds = _rd.range(reps).map_batches(
                _mk, batch_format="pyarrow", batch_size=4)
            idx_dir = "/tmp/feast_ray_bench/hnsw_corpus"
            shutil.rmtree(idx_dir, ignore_errors=True)
            t0 = time.perf_counter()
            hnsw_build(corpus_ds, idx_dir, n_shards=32, m=8,
                       ef_construction=48)
            dt = time.perf_counter() - t0
            timings["ann_hnsw_build_128k"] = round(dt, 3)
            extras["hnsw_build_vecs_per_sec"] = round(reps * nb / dt, 1)
            qrng = _np.random.RandomState(11)
            queries = (bm[qrng.randint(0, nb, 10_000)]
                       + qrng.standard_normal((10_000, d)) * 0.05)
            t0 = time.perf_counter()
            n = ann_topk_hnsw(idx_dir, queries, k=10, ef_search=32).count()
            dt = time.perf_counter() - t0
            assert n == 100_000, n
            timings["ann_hnsw_search_10kq"] = round(dt, 3)
            extras["hnsw_queries_per_sec"] = round(10_000 / dt, 1)
            # centroid-routed fan-out (R=8 of 32): the IVF-over-shards
            # pruning — search cost drops ~4x at hash-shard recall
            t0 = time.perf_counter()
            n = ann_topk_hnsw(idx_dir, queries, k=10, ef_search=32,
                              route_shards=8).count()
            dt = time.perf_counter() - t0
            assert n == 100_000, n
            timings["ann_hnsw_search_routed_10kq"] = round(dt, 3)
            extras["hnsw_routed_queries_per_sec"] = round(10_000 / dt, 1)

        def _clf() -> None:
            # trainable quality classifier (round 5): distill the
            # heuristic keep/drop labels into a hashed-ngram logistic
            # regression (bit-deterministic distributed full-batch GD,
            # 40 iterations), then stream-score the documents table
            # with the int64 fixed-point weights.
            import pyarrow as _pa2

            from feast_ray.functions.quality_clf import (
                clf_features,
                clf_fit,
                clf_quantize,
                clf_score,
            )
            from feast_ray.functions.textstats import (
                apply_quality_rules,
                compute_textstats,
            )

            docs = _rd.read_parquet(
                os.path.join(SF_DIR, "documents.parquet"),
                columns=["doc_id", "text"],
            )
            lab = docs.map_batches(
                lambda t: compute_textstats(t, "text"),
                batch_format="pyarrow",
            ).map_batches(apply_quality_rules, batch_format="pyarrow")
            lab = lab.map_batches(
                lambda t: t.select(["doc_id", "text"]).append_column(
                    "label", t["keep"].cast(_pa2.int8())
                ),
                batch_format="pyarrow",
            )
            t0 = time.perf_counter()
            feats = clf_features(lab, buckets=4096)
            w, b = clf_fit(feats, buckets=4096, iters=40, lr=4.0)
            timings["clf_train_docs"] = round(time.perf_counter() - t0, 3)
            lam, beta = clf_quantize(w, b)
            t0 = time.perf_counter()
            n = clf_score(docs, lam, beta).count()
            dt = time.perf_counter() - t0
            timings["clf_score_docs"] = round(dt, 3)
            extras["clf_docs_per_sec"] = round(n / dt, 1)

        def _knlm() -> None:
            # corpus-trained Kneser-Ney LM (round 5, q97): fit on the
            # documents table (the bounded train side, CCNet-style),
            # then stream-score the full page corpus through the
            # model-holding actor pool with exact integer sums.
            from feast_ray.functions.nglm import kn_fit, kn_score

            docs = _rd.read_parquet(
                os.path.join(SF_DIR, "documents.parquet"),
                columns=["doc_id", "text"],
            )
            t0 = time.perf_counter()
            model = kn_fit(docs, max_vocab=4096, max_bigrams=262144)
            timings["knlm_train_docs"] = round(time.perf_counter() - t0, 3)
            mref = ray.put(model)
            t0 = time.perf_counter()
            n = kn_score(corpus, mref, id_col="url",
                         concurrency=(1, NUM_CPUS)).count()
            dt = time.perf_counter() - t0
            timings["knlm_score_corpus"] = round(dt, 3)
            extras["knlm_docs_per_sec"] = round(n / dt, 1)

        def _budget() -> None:
            # global running-sum selection at corpus scale (session
            # 11, q209): rank 360k pages by (token count desc, url
            # hash) through the sample-sort range exchange carrying
            # the token column, keep the head under half the corpus
            # token mass — ONE payload shuffle for the global ORDER
            # BY ... ROWS UNBOUNDED PRECEDING running sum.
            import numpy as _np
            import pyarrow.compute as _pc3

            from feast_ray.functions.neardup import word_hashes64
            from feast_ray.stages.relational import global_rank_prefix_int

            def _key(t: _pa.Table) -> _pa.Table:
                ntok = _pc3.cast(
                    _pc3.count_substring_regex(t["text"], r"\S+"),
                    _pa.int64()).to_numpy(zero_copy_only=False)
                h = word_hashes64(
                    t["url"].to_numpy(zero_copy_only=False).tolist())
                tie = (h % _np.uint64(1 << 40)).astype("int64")
                k = ((1 << 22) - ntok) * (1 << 40) + tie
                return _pa.table({"k": _pa.array(k),
                                  "ntok": _pa.array(ntok)})

            def _run() -> None:
                keyed = (_rd.read_parquet(pages_dir,
                                          columns=["url", "text"])
                         .map_batches(_key, batch_format="pyarrow")
                         .materialize())
                total = int(keyed.sum("ntok"))
                budget = total // 2
                ranked = global_rank_prefix_int(
                    keyed, "k", "ntok", rank_as="rnk",
                    prefix_as="tok_before")
                kept = ranked.map_batches(
                    lambda t: t.filter(_pc3.less(
                        t["tok_before"],
                        _pa.scalar(budget, _pa.int64()))),
                    batch_format="pyarrow").count()
                extras["budget_selected_frac"] = round(
                    kept / max(state["n_pages"], 1), 4)

            dt = _best_of(_run)
            timings["budget_select_corpus"] = round(dt, 3)
            extras["budget_pages_per_sec"] = round(
                state["n_pages"] / dt, 1)

        def _bm25() -> None:
            # lexical retrieval at corpus scale (round 5, q120/q121):
            # the inverted-index build is one term-keyed exchange over
            # thin distinct (term, doc) pairs; BM25 scoring is the
            # zero-shuffle pass (df + scalars broadcast, per-doc score
            # complete in-block)
            from feast_ray.functions.search import (
                bm25_topk,
                build_inverted_index,
            )

            t0 = time.perf_counter()
            n_terms = build_inverted_index(
                corpus, id_col="url", text_col="text", min_df=2).count()
            timings["invindex_build_corpus"] = round(
                time.perf_counter() - t0, 3)
            extras["invindex_terms"] = int(n_terms)
            n_pages = state["n_pages"]
            t0 = time.perf_counter()
            top = bm25_topk(corpus, ["hash", "join", "vector"],
                            id_col="url", text_col="text", k=10).count()
            dt = time.perf_counter() - t0
            timings["bm25_search_corpus"] = round(dt, 3)
            extras["bm25_pages_per_sec"] = round(n_pages / dt, 1)
            assert top == 10

        def _zonemap() -> None:
            # data-layout pair at corpus scale (round 5, q158/q159):
            # z-order-style range clustering of the page corpus by
            # text length + a footer-stats zone map; compares the same
            # narrow-band filtered aggregate over (a) the raw
            # unclustered corpus vs (b) the clustered layout with
            # partition pruning (row filter pushed down in BOTH)
            import numpy as _np

            from feast_ray.functions.layout import (
                build_zone_map,
                prune_partitions,
            )
            from feast_ray.stages.relational import global_rank_int

            out_dir = "/tmp/feast_ray_bench_zorder"
            shutil.rmtree(out_dir, ignore_errors=True)
            P = 32
            src = _rd.read_parquet(pages_dir, columns=["url", "text"])
            n_pages = state["n_pages"]

            def _prep(t: _pa.Table) -> _pa.Table:
                import pyarrow.compute as _pc

                from feast_ray.functions.neardup import word_hashes64

                ln = _pc.cast(_pc.utf8_length(t["text"]), _pa.int64())
                h = (word_hashes64(t["url"].to_pylist())
                     & _np.uint64((1 << 33) - 1)).astype(_np.int64)
                key = ln.to_numpy(zero_copy_only=False) * (1 << 33) + h
                return _pa.table({"url": t["url"], "text": t["text"],
                                  "length": ln, "key": _pa.array(key)})

            t0 = time.perf_counter()
            ranked = global_rank_int(
                src.map_batches(_prep, batch_format="pyarrow"), "key",
                rank_as="rank", keep_cols=["url", "text", "length"])

            def _pid(t: _pa.Table) -> _pa.Table:
                r = t["rank"].to_numpy(zero_copy_only=False) - 1
                return _pa.table({
                    "url": t["url"], "text": t["text"],
                    "length": t["length"],
                    "pid": _pa.array(r * _np.int64(P) // _np.int64(n_pages)),
                })

            ranked.map_batches(_pid, batch_format="pyarrow").write_parquet(
                out_dir, partition_cols=["pid"])
            timings["zorder_layout_corpus"] = round(
                time.perf_counter() - t0, 3)

            zm = build_zone_map(out_dir, ["length"])
            lo = int(zm["vmin"].to_pandas().min())
            hi = int(zm["vmax"].to_pandas().max())
            blo = lo + (hi - lo) * 45 // 100
            bhi = lo + (hi - lo) * 50 // 100
            import pyarrow.compute as _pc

            flt = (_pc.field("length") >= blo) & (_pc.field("length") <= bhi)

            def _agg(ds) -> int:
                return ds.map_batches(
                    lambda t: _pa.table({
                        "n": _pa.array([t.num_rows], _pa.int64())}),
                    batch_format="pyarrow",
                ).to_pandas()["n"].sum()

            def _with_len(t: _pa.Table) -> _pa.Table:
                return t.append_column(
                    "length",
                    _pc.cast(_pc.utf8_length(t["text"]), _pa.int64()))

            t0 = time.perf_counter()
            n_raw = _agg(_rd.read_parquet(pages_dir, columns=["text"])
                         .map_batches(_with_len, batch_format="pyarrow")
                         .filter(expr=f"length >= {blo} and length <= {bhi}"))
            t_raw = time.perf_counter() - t0
            timings["scan_raw_band_corpus"] = round(t_raw, 3)

            keep, total = prune_partitions(zm, "length", blo, bhi)
            files = [os.path.join(out_dir, p, f)
                     for p in keep
                     for f in sorted(os.listdir(os.path.join(out_dir, p)))
                     if f.endswith(".parquet")]
            t0 = time.perf_counter()
            n_zm = _agg(_rd.read_parquet(files, columns=["length"],
                                         filter=flt))
            t_zm = time.perf_counter() - t0
            timings["scan_zonemap_band_corpus"] = round(t_zm, 3)
            assert int(n_raw) == int(n_zm)
            extras["zonemap_parts_scanned"] = f"{len(keep)}/{total}"
            extras["zonemap_scan_speedup"] = round(t_raw / max(t_zm, 1e-9), 2)
            shutil.rmtree(out_dir, ignore_errors=True)

        def _robots() -> None:
            # RFC 9309 policy evaluation at corpus scale (round 5,
            # q168): ~2 rules per host derived from the corpus's
            # source set + one wildcard rule on the hot domain,
            # broadcast once; longest-match per URL over 360k pages
            import duckdb as _dk

            from feast_ray.functions.robots import robots_filter
            from feast_ray.sources.webpages import HOT_DOMAIN

            srcs = [r[0] for r in _dk.connect().execute(
                "select distinct source from read_parquet(?)",
                [os.path.join(SF_DIR, "documents.parquet")]).fetchall()]
            rules = []
            for s in sorted(srcs):
                rules.append((f"{s}.example.com", False, f"/{s}/page-1"))
                rules.append((f"{s}.example.com", True, f"/{s}/page-12"))
            rules.append((HOT_DOMAIN, False, "/src1/"))
            rules.append((HOT_DOMAIN, False, "/*/page-3*"))

            def _run() -> None:
                out = robots_filter(
                    _rd.read_parquet(pages_dir, columns=["url"]),
                    "url", rules, host_as=None)
                agg = out.map_batches(
                    lambda t: _pa.table({
                        "n": _pa.array([t.num_rows], _pa.int64()),
                        "blocked": _pa.array(
                            [t.num_rows
                             - _pc_sum(t["allowed"])], _pa.int64()),
                    }),
                    batch_format="pyarrow").to_pandas().sum()
                extras["robots_blocked_frac"] = round(
                    float(agg["blocked"]) / max(float(agg["n"]), 1.0), 4)

            import pyarrow.compute as _pc2

            def _pc_sum(col) -> int:
                return int(_pc2.sum(_pc2.cast(col, _pa.int64())).as_py())

            dt = _best_of(_run)
            timings["robots_policy_corpus"] = round(dt, 3)
            extras["robots_urls_per_sec"] = round(
                state["n_pages"] / dt, 1)

        _stage("robots_policy_corpus", _robots)
        _stage("zonemap_corpus", _zonemap)
        _stage("minhash_dedup_corpus", _minhash)
        _stage("bm25_corpus", _bm25)
        _stage("simhash_dups_corpus", _simhash)
        _stage("spandup_corpus", _spandup)
        _stage("embed_pages", _embed)
        _stage("stream_ingest_1m", _stream)
        _stage("ann_ivfpq_corpus", _ann)
        _stage("ann_hnsw_corpus", _hnsw)
        _stage("quality_clf_corpus", _clf)
        _stage("knlm_corpus", _knlm)
        _stage("budget_select_corpus", _budget)

    out = _snapshot()
    ray.shutdown()
    return out


def supervise() -> dict:
    """Run the bench body in a subprocess; recover the per-stage
    partial sidecar if it dies hard (rc!=0, no stdout JSON)."""
    import tempfile

    fd, partial = tempfile.mkstemp(prefix="feast_ray_bench_partial_",
                                   suffix=".json")
    os.close(fd)
    env = dict(os.environ, GRAFT_BENCH_INNER="1", GRAFT_BENCH_PARTIAL=partial)
    p = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env, capture_output=True, text=True,
    )
    if p.stderr:
        sys.stderr.write(p.stderr[-8000:])
    out = None
    for line in reversed(p.stdout.strip().splitlines()):
        try:
            parsed = json.loads(line)
        except (json.JSONDecodeError, ValueError):
            continue
        if isinstance(parsed, dict) and "metric" in parsed:
            out = parsed
            break
    if p.returncode == 0 and out is not None:
        os.unlink(partial)
        return out
    # inner died (the r4 loss mode) — emit whatever stages completed
    try:
        with open(partial) as fh:
            out = json.load(fh)
    except (OSError, json.JSONDecodeError):
        out = {"metric": "quality_filter_wall_sec", "value": None,
               "unit": "sec", "queries": {}, "sf": SF_DIR,
               "num_cpus": NUM_CPUS}
    out.setdefault("errors", {})["harness"] = (
        f"inner bench process died rc={p.returncode}; "
        "partial results recovered from the per-stage sidecar"
    )
    try:
        os.unlink(partial)
    except OSError:
        pass
    return out


def run_scaling() -> dict:
    # longer run than the headline (same input at BOTH levels) so the
    # per-run fixed costs — session init, actor-pool startup, shuffle
    # coordination, ~6s on this box — are amortized the way a real
    # multi-hour 100 TB job amortizes them
    scaling_replicate = os.environ.get("GRAFT_SCALING_REPLICATE", "300")

    def _run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_PAGE_REPLICATE=scaling_replicate,
            GRAFT_HEADLINE_ONLY="1",
            GRAFT_BENCH_RUNS="2",
        )
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        parsed = json.loads(out.strip().splitlines()[-1])
        if parsed.get("value") is None:
            raise RuntimeError(
                f"scaling run at {ncpu} cpus lost its headline: "
                f"{parsed.get('errors')}"
            )
        return parsed

    def _best(ncpu: int) -> dict:
        # best of 2: the sandbox is a shared box; single runs vary ±40%
        a, b = _run(ncpu), _run(ncpu)
        return a if a["value"] <= b["value"] else b

    # N vs 4N parallelism. Default 4→16: both levels inside the box's
    # ~16 PHYSICAL cores. 8→32 crosses into SMT siblings (measured
    # 21.5 effective cores at 32 procs), which understates scaling in
    # a way a real 4N-node cluster — whose silicon scales with nodes —
    # would not; see BASELINE.md for both measurements.
    pair = os.environ.get("GRAFT_SCALING_PAIR", "4,16")
    lo, hi = (int(x) for x in pair.split(","))
    r_lo, r_hi = _best(lo), _best(hi)
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "cpus_lo": lo,
        "cpus_hi": hi,
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"docs_per_sec_{lo}": r_lo["docs_per_sec"],
        f"docs_per_sec_{hi}": r_hi["docs_per_sec"],
        "sf": SF_DIR,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif os.environ.get("GRAFT_BENCH_INNER"):
        print(json.dumps(run_bench()))
    else:
        print(json.dumps(supervise()))
