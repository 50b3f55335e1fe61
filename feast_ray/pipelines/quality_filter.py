"""The flagship pipeline: web-text quality filter.

Recasts the reference's materialization loop (feature_store.py:2788,
compute_engines/base.py:113 → Source→Transform→Filter→Dedup→Validate→
Output, feature_builder.py:81-142) as per-document feature computation
per the north rule:

    read pages → validate → extract (html→text, byte-stable) →
    drop html payload → dedup latest crawl per url →
    one fused scorer task: textstats (vectorized Arrow) → langid →
    perplexity → decide keep/drop → scrub kept text → output

Everything is one lazy Ray Dataset chain (the reference's DerivedRead
chaining, ray/nodes.py:769-834, without the disk round-trip). Scale
notes inline; the fat ``html`` column is dropped immediately after
extraction so the shuffle (url dedup) never carries it twice.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from feast_ray.functions.extract import EXTRACTOR_VERSION, extract_batch
from feast_ray.functions.langid import LangIdModel
from feast_ray.functions.perplexity import PerplexityModel
from feast_ray.functions.scrub import Scrubber
from feast_ray.functions.textstats import (
    MAX_DUP_2GRAM_FRAC,
    add_repetition_stats,
    apply_quality_rules,
    compute_textstats,
)
from feast_ray.schema import WEBPAGE_SCHEMA, Schema
from feast_ray.stages.aggregate import AggSpec, GroupedAgg
from feast_ray.stages.dedup import keep_latest
from feast_ray.stages.validate import validate_stage

# additional (non-SQL) rules on top of textstats' heuristic set
MAX_PPL = 160.0          # byte-trigram perplexity vs seed corpus
MIN_LANG_CONF = 0.0      # lang rule: drop only 'und' by default

OUTPUT_SCHEMA = Schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("lang_pred", pa.string()),
        ("lang_conf", pa.float64()),
        ("n_chars", pa.int64()),
        ("n_words", pa.int64()),
        ("mean_word_len", pa.float64()),
        ("digit_frac", pa.float64()),
        ("symbol_frac", pa.float64()),
        ("stop_count", pa.int64()),
        ("dup_2gram_frac", pa.float64()),
        ("ppl", pa.float64()),
        ("keep", pa.bool_()),
        ("drop_reason", pa.string()),
        ("text_scrubbed", pa.string()),
    ]
)


def domain_of(urls: "pa.ChunkedArray | pa.Array"):
    """Vectorized url → domain (for per-domain metrics / salting)."""
    stripped = pc.replace_substring_regex(urls, r"^https?://", "")
    return pc.replace_substring_regex(stripped, r"/.*$", "")


def _model_rules(tbl: pa.Table) -> pa.Table:
    """Fold the model-based rules (perplexity, language, repetition)
    into keep/drop_reason, after the heuristic rules. Priority:
    heuristic reasons stay; then 'lang_unknown'; then
    'high_perplexity'; then 'repetition' (Gopher dup-2gram rule)."""
    reason = tbl["drop_reason"]
    lang_bad = pc.or_(
        pc.equal(tbl["lang_pred"], "und"),
        pc.less(tbl["lang_conf"], MIN_LANG_CONF),
    )
    ppl_bad = pc.greater(tbl["ppl"], MAX_PPL)
    rep_bad = pc.greater(tbl["dup_2gram_frac"], MAX_DUP_2GRAM_FRAC)
    reason = pc.if_else(
        pc.is_null(reason),
        pc.if_else(
            lang_bad,
            pa.scalar("lang_unknown"),
            pc.if_else(
                ppl_bad,
                pa.scalar("high_perplexity"),
                pc.if_else(
                    rep_bad, pa.scalar("repetition"), pa.nulls(len(tbl), pa.string())
                ),
            ),
        ),
        reason,
    )
    keep = pc.is_null(reason)
    tbl = tbl.set_column(tbl.schema.get_field_index("keep"), "keep", keep)
    tbl = tbl.set_column(tbl.schema.get_field_index("drop_reason"), "drop_reason", reason)
    return tbl


class QualityScorer:
    """One stage fusing every per-row model step: text stats → langid
    → perplexity → rules → scrub. They have no shuffle between them,
    so fusing removes three stage hand-offs (the reference
    materializes per-view chains the same way — one worker pass per
    row set, ray/nodes.py Transform→Filter fusion via lazy Datasets).
    ``quality_filter`` runs it as stateless tasks via ``_scorer_task``."""

    def __init__(self, text_col: str = "extracted_text"):
        self.text_col = text_col
        self.langid = LangIdModel(text_col=text_col)
        self.ppl = PerplexityModel(text_col=text_col)
        self.scrub = Scrubber(text_col=text_col, out_col="text_scrubbed", only_where="keep")

    def __call__(self, tbl: pa.Table) -> pa.Table:
        from feast_ray.functions.textstats import ByteText

        # one byte-classification context shared by the four byte-path
        # stages (buffer view, class codes, counts, dictionary-word hits
        # each computed once per batch, not once per stage)
        ctx = ByteText(tbl[self.text_col])
        tbl = compute_textstats(tbl, self.text_col, ctx=ctx)
        tbl = add_repetition_stats(tbl, self.text_col, ctx=ctx)
        tbl = self.langid(tbl, ctx=ctx)
        tbl = self.ppl(tbl, ctx=ctx)
        tbl = apply_quality_rules(tbl)
        tbl = _model_rules(tbl)
        return self.scrub(tbl)


# per-worker-process model cache for the stateless-task execution mode:
# Ray reuses worker processes across tasks, so the scorer (regexes,
# LM tables) is built once per process — the same amortization an
# actor pool gives, WITHOUT statically reserving CPUs. A fixed actor
# pool held 3/4 of the cluster from pipeline start and capped the
# pre-shuffle read/extract phase at the leftover CPUs (measured ~2-10
# concurrent tasks); elastic tasks let every phase use every CPU.
_SCORER_CACHE: dict = {}


def _scorer_task(tbl: pa.Table, text_col: str = "extracted_text") -> pa.Table:
    scorer = _SCORER_CACHE.get(text_col)
    if scorer is None:
        scorer = _SCORER_CACHE[text_col] = QualityScorer(text_col=text_col)
    return scorer(tbl)


def quality_filter(
    pages: ray.data.Dataset,
    *,
    keep_only: bool = False,
    validate_input: bool = True,
) -> ray.data.Dataset:
    """Build the full lazy pipeline over a pages Dataset with schema
    (url, warc_ts, html, text, lang). Returns one row per (deduped)
    url with features, decision and scrubbed text (OUTPUT_SCHEMA).

    ``keep_only=True`` filters to kept docs (the production corpus
    output); the default keeps drop rows too so metrics/F1 can be
    computed downstream from the same stream.

    The url dedup is ``keep_latest``: Ray's sort shuffle on a hash
    bucket, with fixed bucket-range boundaries, between two runs of one
    Arrow kernel (per input block, per reduce block of a bucket range)
    — backpressured, spillable, no driver state. It runs after
    extraction, so the shuffle carries extracted text only (html is
    dropped before it).
    """
    ds = pages
    if validate_input:
        ds = validate_stage(ds, WEBPAGE_SCHEMA, strict=False)

    # extract, then drop the fat payload column immediately
    ds = ds.map_batches(
        lambda t: extract_batch(t, "html", "extracted_text").drop_columns(["html", "text"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    # latest crawl per url — PIT invariant analog (SURVEY.md §2.2)
    ds = keep_latest(ds, ["url"], "warc_ts")

    # one fused model stage: stats + langid + ppl + rules + scrub
    # (scrub skips dropped rows via only_where="keep"). Stateless tasks
    # + per-worker model cache (see _SCORER_CACHE).
    ds = ds.map_batches(_scorer_task, batch_format="pyarrow", batch_size=2048)

    if keep_only:
        ds = ds.map_batches(
            lambda t: t.filter(t["keep"]), batch_format="pyarrow", zero_copy_batch=True
        )

    def _project(tbl: pa.Table) -> pa.Table:
        cols = {name: tbl[name] for name in OUTPUT_SCHEMA.names if name in tbl.column_names}
        return pa.table(cols)

    return ds.map_batches(_project, batch_format="pyarrow")


def _add_domain(tbl: pa.Table) -> pa.Table:
    return pa.table({
        "domain": domain_of(tbl["url"]),
        "drop_reason": pc.fill_null(tbl["drop_reason"], "kept"),
        "n_words": tbl["n_words"],
        "ppl": tbl["ppl"],
    })


# Per-(domain, drop_reason) lineage metrics over the pipeline output —
# the reference's monitoring/registry records (monitoring_utils.py:24-60)
# as a grouped aggregate. ``quality_metrics(ds)`` runs it distributed
# (two-phase: the hot domain costs one partial row per block, skew-safe);
# ``materialize_resumable(metrics_fn=quality_metrics)`` computes the
# partials inside its write tasks and merges them once on the driver.
quality_metrics = GroupedAgg(
    ("domain", "drop_reason"),
    (
        AggSpec(None, "count", "n_docs"),
        AggSpec("n_words", "sum", "total_words"),
        AggSpec("ppl", "mean", "avg_ppl"),
    ),
    prepare=_add_domain,
)


PIPELINE_VERSION = f"quality_filter/1.0.0+extractor-{EXTRACTOR_VERSION}"
