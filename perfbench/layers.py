"""Per-layer measurement: spans, Ray Data operator stats, scorer sub-layers.

Spans are recorded by the benchmark around calls into the package's
public functions; nothing inside the package is instrumented. The
traced runs rebuild each production chain stage by stage from the same
public functions, with a ``.materialize()`` at each boundary, so each
stage's time and row counts are measured where the work happens. Their
outputs go through the same checks as the untraced runs, and a traced
pretrain chain always follows an untraced ``pretraining_corpus`` run in
the same process and must reproduce its output digest, so a rebuilt
chain that drifted from the production one fails the run.
"""

from __future__ import annotations

import importlib
import logging
import os
import re
import time
from collections import Counter, defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import workloads as wl

HEURISTIC = ("too_short", "too_long", "word_len", "no_stopwords",
             "too_many_digits", "too_many_symbols")
MODEL = ("lang_unknown", "high_perplexity", "repetition")
SCORER_SUBS = ("bytetext", "textstats", "repetition", "langid", "perplexity",
               "rules", "scrub")
# rows a sub-layer needs: those no higher-priority rule already dropped
_EARLIER = {
    "langid": set(HEURISTIC),
    "perplexity": set(HEURISTIC) | {"lang_unknown"},
    "repetition": set(HEURISTIC) | {"lang_unknown", "high_perplexity"},
}
OP_KINDS = ("read", "map", "shuffle", "write")
FLAGSHIP_STAGES = ("read.s", "extract.s", "extract.us_per_page", "dedup.s",
                   "dedup.rows_in", "dedup.rows_out", "dedup.bucket_skew",
                   "scorer.s", "write.s", "write.rows", "write.mb",
                   "registry.commit_s", "metrics.s")
PRETRAIN_STAGES = ("pretrain.filter_prefix.s", "pretrain.checkpoint_mb",
                   "pretrain.spandup.s", "pretrain.decontam.s",
                   "pretrain.rebalance.s", "pretrain.shard_shuffle.s",
                   "pretrain.shard_skew", "pretrain.pack.s",
                   "pretrain.pack.fill_frac", "pretrain.write.s")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in FLAGSHIP_STAGES + PRETRAIN_STAGES:
        units[name] = ("us" if name.endswith("us_per_page") else
                       "s" if name.endswith((".s", "_s")) else
                       "MB" if name.endswith("mb") else
                       "ratio" if name.endswith(("skew", "frac")) else "count")
    for sub in SCORER_SUBS:
        units[f"scorer.{sub}.us_per_page"] = "us"
    for sub in SCORER_SUBS:
        units[f"scorer.{sub}.rows"] = "count"
    for sub in ("langid", "perplexity", "repetition", "scrub"):
        units[f"scorer.{sub}.useful_frac"] = "ratio"
    for reason in HEURISTIC + MODEL:
        units[f"scorer.drops.{reason}"] = "count"
    units["raydata.tasks"] = "count"
    for kind in OP_KINDS:
        units[f"raydata.{kind}.wall_s"] = "s"
        units[f"raydata.{kind}.cpu_s"] = "s"
    units["ray.spilled_mb"] = "MB"
    units["ray.object_store_peak_mb"] = "MB"
    units["trace.coverage_frac"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


# --- spans -----------------------------------------------------------------


class Tracer:
    """In-memory spans: (name, start, end, parent, run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str):
        tracer = self

        class _Span:
            def __enter__(self):
                tracer.spans.append({
                    "name": name, "start": time.perf_counter(), "end": None,
                    "parent": tracer._open[-1] if tracer._open else None,
                    "run": tracer.run_id,
                })
                tracer._open.append(len(tracer.spans) - 1)
                return self

            def __exit__(self, *exc):
                tracer.spans[tracer._open.pop()]["end"] = time.perf_counter()

        return _Span()

    def self_times(self) -> dict:
        """Span duration minus the part its child spans cover, by name."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s["name"]] += s["end"] - s["start"] - child[i]
        return dict(out)


def traced(tracer: Tracer, obj, attr: str):
    """Patch ``obj.attr`` so each call runs inside a span named ``attr``;
    returns an undo callable."""
    orig = getattr(obj, attr)

    def wrapper(*a, **k):
        with tracer.span(attr):
            return orig(*a, **k)

    setattr(obj, attr, wrapper)
    return lambda: setattr(obj, attr, orig)


# --- Ray Data operator stats -----------------------------------------------

_OP = re.compile(r"^Operator \d+ (.+?): (?:\d+ tasks executed|executed in)")
_TASKS = re.compile(r"(\d+) tasks executed")
_TIME = re.compile(r"Remote (wall|cpu) time: .*?([\d.]+)(us|ms|s) total")
_SPILL = re.compile(r"'obj_store_mem_spilled': (\d+)")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_SHUFFLES = {"Sort", "Aggregate", "Repartition", "RandomShuffle", "HashShuffle",
             "HashAggregate", "Join", "RandomizeBlockOrder", "Zip", "Union"}


def op_kind(name: str) -> str:
    first = name.split("->")[0]
    if "Write" in name:
        return "write"
    if first.startswith("Read"):
        return "read"
    if first.split("(")[0] in _SHUFFLES:
        return "shuffle"
    return "map"


class RayDataStats(logging.Handler):
    """Collects the execution summaries Ray Data logs after each
    dataset execution (``DataContext.enable_auto_log_stats``)."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.summaries: list[str] = []

    def emit(self, record):
        msg = record.getMessage()
        if msg.startswith("Operator ") or "\nOperator " in msg:
            self.summaries.append(msg)

    @staticmethod
    def log_whole_plans() -> None:
        """Ray logs only an execution's last operator; make it log the
        upstream operators too (``take`` drops repeated blocks)."""
        from ray.data._internal.stats import DatasetStatsSummary

        orig = DatasetStatsSummary.to_string
        if getattr(orig, "_whole_plan", False):
            return

        def to_string(self, already_printed=None, include_parent=True,
                      add_global_stats=True):
            return orig(self, already_printed, True, add_global_stats)

        to_string._whole_plan = True
        DatasetStatsSummary.to_string = to_string

    def take(self) -> dict:
        """Aggregate and clear what was logged since the last call."""
        agg = {"raydata.tasks": 0, "spilled_bytes": 0}
        for kind in OP_KINDS:
            agg[f"raydata.{kind}.wall_s"] = 0.0
            agg[f"raydata.{kind}.cpu_s"] = 0.0
        seen, kind = set(), None
        for text in self.summaries:
            # one block per operator; an upstream operator reappears in
            # every later execution that descends from it
            for block in re.split(r"\n(?=Operator \d+ )", text):
                if block in seen:
                    continue
                seen.add(block)
                kind = None
                for line in block.splitlines():
                    kind = self._add_line(agg, line, kind)
        self.summaries = []
        return agg

    @staticmethod
    def _add_line(agg: dict, line: str, kind):
        m = _OP.match(line)
        if m:
            kind = op_kind(m.group(1))
        if kind is not None:
            if (m := _TASKS.search(line)):
                agg["raydata.tasks"] += int(m.group(1))
            if (m := _TIME.search(line)):
                agg[f"raydata.{kind}.{m.group(1)}_s"] += (
                    float(m.group(2)) * _UNIT[m.group(3)])
            if (m := _SPILL.search(line)):
                agg["spilled_bytes"] += int(m.group(1))
        return kind


# --- scorer sub-layers -----------------------------------------------------


class ScorerProfile:
    """Times the callables ``QualityScorer.__call__`` invokes: its
    ``langid`` / ``ppl`` / ``scrub`` instance attributes, and the module
    functions it looks up at call time (``ByteText`` with its lazily
    computed byte counts and word runs, ``compute_textstats``,
    ``add_repetition_stats``, ``apply_quality_rules``). Self time only:
    byte classification triggered inside textstats counts as bytetext.
    ``rules`` is the scorer's total minus every other sub-layer."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.rows = Counter()
        self._stack: list[float] = []

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, t0: float):
        dt = time.perf_counter() - t0
        self.busy[name] += dt - self._stack.pop()
        if self._stack:
            self._stack[-1] += dt

    def wrap(self, name: str, fn, time_it: bool = True):
        prof = self

        def wrapper(tbl, *a, **k):
            prof.rows[name] += len(tbl)
            if not time_it:
                return fn(tbl, *a, **k)
            t0 = prof._enter()
            try:
                return fn(tbl, *a, **k)
            finally:
                prof._exit(name, t0)

        return wrapper

    def timed_bytetext(self, base):
        prof = self

        class TimedByteText(base):
            def __init__(self, text):
                prof.rows["bytetext"] += len(text)
                t0 = prof._enter()
                try:
                    super().__init__(text)
                finally:
                    prof._exit("bytetext", t0)

            @property
            def counts(self):
                if self._counts is None:
                    t0 = prof._enter()
                    try:
                        base.counts.fget(self)
                    finally:
                        prof._exit("bytetext", t0)
                return self._counts

            @property
            def runs(self):
                if self._runs is None:
                    t0 = prof._enter()
                    try:
                        base.runs.fget(self)
                    finally:
                        prof._exit("bytetext", t0)
                return self._runs

        return TimedByteText

    def run(self, ds, batch_size: int = 2048) -> dict:
        """Score the materialized scorer input in this process."""
        # the package re-exports quality_filter() under the module's name
        qf = importlib.import_module("feast_ray.pipelines.quality_filter")
        ts = importlib.import_module("feast_ray.functions.textstats")

        batches = list(ds.iter_batches(batch_size=batch_size, batch_format="pyarrow"))
        scorer = qf.QualityScorer(text_col="extracted_text")
        if batches:
            scorer(batches[0].slice(0, 64))  # load the models outside the timing
        patches = [
            (ts, "ByteText", self.timed_bytetext(ts.ByteText)),
            (qf, "compute_textstats", self.wrap("textstats", qf.compute_textstats)),
            (qf, "add_repetition_stats", self.wrap("repetition", qf.add_repetition_stats)),
            (qf, "apply_quality_rules", self.wrap("rules", qf.apply_quality_rules, False)),
            (scorer, "langid", self.wrap("langid", scorer.langid)),
            (scorer, "ppl", self.wrap("perplexity", scorer.ppl)),
            (scorer, "scrub", self.wrap("scrub", scorer.scrub)),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        reasons = []
        total = 0.0
        try:
            for obj, attr, new in patches:
                setattr(obj, attr, new)
            for b in batches:
                t0 = time.perf_counter()
                out = scorer(b)
                total += time.perf_counter() - t0
                reasons.extend(out["drop_reason"].to_pylist())
        finally:
            for obj, attr, old in saved:
                setattr(obj, attr, old)
        n = max(1, len(reasons))
        self.busy["rules"] = total - sum(v for k, v in self.busy.items() if k != "rules")
        m = {f"scorer.{s}.us_per_page": self.busy[s] / n * 1e6 for s in SCORER_SUBS}
        m.update({f"scorer.{s}.rows": self.rows[s] for s in SCORER_SUBS})
        counts = Counter(reasons)
        for sub, earlier in _EARLIER.items():
            useful = sum(v for r, v in counts.items() if r not in earlier)
            m[f"scorer.{sub}.useful_frac"] = useful / max(1, self.rows[sub])
        m["scorer.scrub.useful_frac"] = counts[None] / max(1, self.rows["scrub"])
        for r in HEURISTIC + MODEL:
            m[f"scorer.drops.{r}"] = counts[r]
        return m


# --- traced runs -----------------------------------------------------------


def _dir_mb(path: str) -> float:
    size = 0
    for dirpath, _, files in os.walk(path):
        size += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return size / 2**20


def _skew(counts) -> float:
    counts = np.asarray(counts, dtype=np.float64)
    return float(counts.max() / counts.mean()) if len(counts) and counts.mean() else 0.0


def _project(tbl: pa.Table) -> pa.Table:
    from feast_ray.pipelines.quality_filter import OUTPUT_SCHEMA

    return tbl.select([n for n in OUTPUT_SCHEMA.names if n in tbl.column_names])


def _extract(tbl: pa.Table) -> pa.Table:
    from feast_ray.functions.extract import extract_batch

    return extract_batch(tbl, "html", "extracted_text").drop_columns(["html", "text"])


def _kept(tbl: pa.Table) -> pa.Table:
    return tbl.filter(tbl["keep"])


def traced_filter(tracer: Tracer, pages: str, m: dict, validate: bool = False):
    """read → (validate) → extract → url dedup → scorer, materialized per
    stage, as ``quality_filter`` composes them (``validate`` as its
    ``validate_input``). Returns (dedup output, scored)."""
    import ray
    import ray.data

    from feast_ray.pipelines.quality_filter import _scorer_task
    from feast_ray.schema import WEBPAGE_SCHEMA
    from feast_ray.stages.dedup import add_hash_bucket, keep_latest
    from feast_ray.stages.validate import validate_stage

    with tracer.span("read"):
        ds = ray.data.read_parquet(pages).materialize()
    n_pages = ds.count()
    if validate:
        with tracer.span("validate"):
            ds = validate_stage(ds, WEBPAGE_SCHEMA, strict=False).materialize()
    with tracer.span("extract"):
        ds = ds.map_batches(_extract, batch_format="pyarrow", zero_copy_batch=True).materialize()
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    buckets = max(64, 8 * ncpu)
    with tracer.span("dedup"):
        dedup = keep_latest(ds, ["url"], "warc_ts", num_buckets=buckets).materialize()
    urls = pa.table({"url": pa.concat_arrays(
        [b["url"].combine_chunks() for b in ds.iter_batches(batch_format="pyarrow")])})
    per_bucket = np.bincount(
        add_hash_bucket(urls, ["url"], buckets)["__kl_bucket"].to_numpy(),
        minlength=buckets)
    with tracer.span("scorer"):
        scored = dedup.map_batches(_scorer_task, batch_format="pyarrow",
                                   batch_size=2048).materialize()
    m["dedup.rows_in"] = n_pages
    m["dedup.rows_out"] = dedup.count()
    m["dedup.bucket_skew"] = _skew(per_bucket)
    m["n_pages"] = n_pages
    return dedup, scored


def traced_flagship(tracer: Tracer, workload, pages: str, out: str) -> dict:
    from feast_ray.pipelines.quality_filter import PIPELINE_VERSION, quality_metrics
    from feast_ray.state.registry import Registry, materialize_resumable

    keep_only = workload.name == "flagship_job"
    parts = wl.JOB_PARTITIONS if keep_only else wl.AUDIT_PARTITIONS
    m: dict = {}
    dedup, scored = traced_filter(tracer, pages, m)

    def build(ds):
        ds = ds.drop_columns(["part_id"])
        if keep_only:
            ds = ds.map_batches(_kept, batch_format="pyarrow", zero_copy_batch=True)
        return ds.map_batches(_project, batch_format="pyarrow")

    undo = [traced(tracer, Registry, "commit_partitions"),
            traced(tracer, Registry, "append_metrics")]
    try:
        with tracer.span("write"):
            res = materialize_resumable(
                build, scored, out, key_col="url", num_partitions=parts,
                version=PIPELINE_VERSION,
                metrics_fn=None if keep_only else quality_metrics)
    finally:
        for u in undo:
            u()
    st = tracer.self_times()
    n = m.pop("n_pages")
    m.update({
        "read.s": st["read"], "extract.s": st["extract"],
        "extract.us_per_page": st["extract"] / n * 1e6,
        "dedup.s": st["dedup"], "scorer.s": st["scorer"], "write.s": st["write"],
        "write.rows": sum(res["rows_out"].values()),
        "write.mb": _dir_mb(os.path.join(out, "data")),
        "registry.commit_s": st.get("commit_partitions", 0.0),
        "metrics.s": st.get("append_metrics", 0.0),
    })
    m.update({k: 0.0 for k in PRETRAIN_STAGES})
    return m, dedup


def traced_pretrain(tracer: Tracer, pages: str, out: str, info: dict) -> dict:
    import ray.data

    from feast_ray.functions.decontam import decontaminate
    from feast_ray.functions.neardup import word_hashes64
    from feast_ray.functions.packing import pack_sequences
    from feast_ray.functions.sampling import rebalance_mix, shard_shuffle
    from feast_ray.functions.spandup import remove_duplicate_spans
    from feast_ray.functions.urltools import block_domains

    p = wl.PRETRAIN
    m: dict = {}
    ckpt = os.path.join(out, "checkpoint")

    def _iid(tbl: pa.Table) -> pa.Table:
        h = word_hashes64(tbl["url"].to_pylist()).view(np.int64)
        return tbl.append_column("doc_iid", pa.array(h, pa.int64()))

    def _recount(tbl: pa.Table) -> pa.Table:
        cnt = pc.list_value_length(pc.split_pattern_regex(tbl["text_final"], r"\s+"))
        empty = pc.equal(pc.utf8_length(pc.utf8_trim_whitespace(tbl["text_final"])), 0)
        cnt = pc.if_else(empty, pa.scalar(0, pa.int32()), cnt)
        return tbl.append_column("n_tokens_final", pc.cast(cnt, pa.int64()))

    with tracer.span("pretrain.filter_prefix"):
        dedup, scored = traced_filter(tracer, pages, m, validate=True)
        ds = scored.map_batches(_kept, batch_format="pyarrow", zero_copy_batch=True)
        ds = ds.map_batches(_project, batch_format="pyarrow")
        ds = block_domains(ds, p["blocked_domains"], "url")
        ds.map_batches(_iid, batch_format="pyarrow").write_parquet(ckpt)
    n = m.pop("n_pages")
    m["pretrain.checkpoint_mb"] = _dir_mb(ckpt)
    with tracer.span("pretrain.spandup"):
        ds = remove_duplicate_spans(ray.data.read_parquet(ckpt), "doc_iid", "text_scrubbed",
                                    n=p["span_n"], out_col="text_final").materialize()
    with tracer.span("pretrain.decontam"):
        ds = decontaminate(ds, info["benchmark_texts"], id_col="url",
                           text_col="text_final", n=p["span_n"], mode="drop").materialize()
    with tracer.span("pretrain.rebalance"):
        ds = rebalance_mix(ds, "lang_pred", p["lang_weights"], "url").materialize()
    with tracer.span("pretrain.shard_shuffle"):
        ds = shard_shuffle(ds, "url", p["num_shards"], salt="ep0").materialize()
    with tracer.span("pretrain.pack"):
        ds = ds.map_batches(_recount, batch_format="pyarrow")
        ds = pack_sequences(ds, "shard", "pos", "n_tokens_final", p["context_tokens"],
                            num_buckets=p["num_shards"]).materialize()
    cols = ["url", "lang_pred", "n_tokens_final", "text_final", "shard", "pos",
            "bin_id", "bin_offset"]
    packed = ds.select_columns(["shard", "bin_id", "n_tokens_final"]).to_pandas()
    with tracer.span("pretrain.write"):
        ds.select_columns(cols).write_parquet(os.path.join(out, "corpus"),
                                              partition_cols=["shard"])
    bins = packed.groupby("shard")["bin_id"].max().add(1).sum()
    st = tracer.self_times()
    m.update({
        "read.s": st["read"], "extract.s": st["extract"],
        "extract.us_per_page": st["extract"] / n * 1e6,
        "dedup.s": st["dedup"], "scorer.s": st["scorer"],
        "write.s": 0.0, "write.rows": 0, "write.mb": 0.0,
        "registry.commit_s": 0.0, "metrics.s": 0.0,
        "pretrain.filter_prefix.s": st["pretrain.filter_prefix"],
        "pretrain.spandup.s": st["pretrain.spandup"],
        "pretrain.decontam.s": st["pretrain.decontam"],
        "pretrain.rebalance.s": st["pretrain.rebalance"],
        "pretrain.shard_shuffle.s": st["pretrain.shard_shuffle"],
        "pretrain.shard_skew": _skew(np.bincount(packed["shard"], minlength=p["num_shards"])),
        "pretrain.pack.s": st["pretrain.pack"],
        "pretrain.pack.fill_frac": float(packed["n_tokens_final"].sum())
        / max(1, bins * p["context_tokens"]),
        "pretrain.write.s": st["pretrain.write"],
    })
    return m, dedup
