"""The three production paths the benchmark drives, and their output checks.

Each workload runs one production entry point end to end over the
seeded pages and writes into a fresh per-run directory:

- ``flagship_job``: ``materialize_resumable`` around
  ``quality_filter(keep_only=True, validate_input=False)``, the path
  ``jobs/quality_filter_job.py --keep-only`` runs;
- ``flagship_audit``: the same job with ``keep_only=False`` and
  ``metrics_fn=quality_metrics`` over a recrawl-heavy corpus;
- ``pretrain_corpus``: ``pretraining_corpus`` with a parquet checkpoint,
  span dedup, decontamination, language rebalance, shard shuffle,
  packing and a shard-partitioned ``write_dir``.

A check returns a list of ``(name, ok, detail)``; any failed check
fails the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str       # corpus.generate profile
    docs: int          # distinct urls in the generated corpus
    run_limit_s: float  # a run slower than this is a failure


# Sizes keep a warm flagship run near 3 s on one CPU, so an invocation
# (two set-ups plus at least four warm runs) stays near a minute.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("flagship_job", "flagship", 3000, 60.0),
        Workload("flagship_audit", "recrawl", 1000, 60.0),
        Workload("pretrain_corpus", "flagship", 2000, 90.0),
    )
}

# Resume granularity of the flagship job (the job's --partitions).
JOB_PARTITIONS = 16
# materialize_resumable(metrics_fn=...) reads the fresh partitions back
# with read_parquet(list of part_id= directories), which raises under
# the installed Ray whenever more than one partition is written. The
# audit therefore commits a single partition; raise this once the
# registry reads the partitions another way.
AUDIT_PARTITIONS = 1
PRETRAIN = dict(
    blocked_domains=["src7.example.com"],
    lang_weights={"en": 8, "de": 1, "fr": 1},
    span_n=8,
    num_shards=8,
    context_tokens=2048,
)
ORACLE_SAMPLE = 1500  # urls re-derived by the record-at-a-time oracle


# --- production runs -------------------------------------------------------


def run_flagship(pages: str, out: str, *, keep_only: bool, partitions: int,
                 metrics: bool) -> dict:
    import ray.data

    from feast_ray.pipelines.quality_filter import (
        PIPELINE_VERSION,
        quality_filter,
        quality_metrics,
    )
    from feast_ray.state.registry import materialize_resumable

    return materialize_resumable(
        lambda ds: quality_filter(ds, keep_only=keep_only, validate_input=False),
        ray.data.read_parquet(pages),
        out,
        key_col="url",
        num_partitions=partitions,
        version=PIPELINE_VERSION,
        metrics_fn=quality_metrics if metrics else None,
    )


def run_pretrain(pages: str, out: str, info: dict) -> None:
    import ray.data

    from feast_ray.pipelines.pretrain import pretraining_corpus

    pretraining_corpus(
        ray.data.read_parquet(pages),
        benchmark_texts=info["benchmark_texts"],
        checkpoint=os.path.join(out, "checkpoint"),
        write_dir=os.path.join(out, "corpus"),
        **PRETRAIN,
    )


def run(workload: Workload, pages: str, out: str, info: dict) -> None:
    if workload.name == "flagship_job":
        run_flagship(pages, out, keep_only=True, partitions=JOB_PARTITIONS, metrics=False)
    elif workload.name == "flagship_audit":
        run_flagship(pages, out, keep_only=False, partitions=AUDIT_PARTITIONS, metrics=True)
    else:
        run_pretrain(pages, out, info)


# --- oracle expectations ---------------------------------------------------


def oracle_expectations(pages: str, seed: int) -> dict:
    """Per-url keep / drop_reason / text_scrubbed from the independent
    record-at-a-time oracle (``tests/oracle_quality.py``), over a
    seeded sample of urls with all their crawls. Cached beside the
    pages."""
    path = os.path.join(pages, "_oracle.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    import tests.oracle_quality as oracle
    from feast_ray.functions.langid import LangIdModel
    from feast_ray.functions.perplexity import PerplexityModel

    # the oracle builds its models once per record; the models are
    # deterministic, so one shared instance gives identical answers
    lang, ppl = LangIdModel(), PerplexityModel()
    oracle.LangIdModel = lambda: lang
    oracle.PerplexityModel = lambda: ppl

    tbl = pads.dataset(pages, format="parquet").to_table()
    urls = sorted(set(tbl["url"].to_pylist()))
    sample = sorted(random.Random(seed).sample(urls, min(ORACLE_SAMPLE, len(urls))))
    sub = tbl.filter(pc.is_in(tbl["url"], value_set=pa.array(sample)))
    got = oracle.oracle_quality_filter(sub.to_pandas())
    exp = {
        "n_urls": len(urls),
        "rows": {
            r.url: [bool(r.keep), r.drop_reason, r.text_scrubbed]
            for r in got.itertuples()
        },
    }
    with open(path + ".tmp", "w") as f:
        json.dump(exp, f)
    os.replace(path + ".tmp", path)
    return exp


# --- checks ----------------------------------------------------------------


def _read(path: str, columns=None) -> pa.Table:
    return pads.dataset(path, format="parquet", partitioning="hive").to_table(
        columns=columns
    )


def _first_mismatch(out: pa.Table, exp: dict, keep_only: bool) -> "str | None":
    got = {
        u: [k, r, s]
        for u, k, r, s in zip(
            out["url"].to_pylist(),
            out["keep"].to_pylist(),
            out["drop_reason"].to_pylist(),
            out["text_scrubbed"].to_pylist(),
        )
    }
    for url, want in exp["rows"].items():
        have = got.get(url)
        if keep_only and not want[0]:
            if have is not None:
                return f"{url}: dropped by the oracle ({want[1]}) but written"
        elif have != want:
            return f"{url}: got {have}, oracle {want}"
    return None


def check_flagship(out: str, exp: dict, *, keep_only: bool, partitions: int,
                   metrics: bool) -> list:
    checks = []
    data = _read(os.path.join(out, "data"),
                 ["url", "keep", "drop_reason", "text_scrubbed"])
    urls = data["url"]
    checks.append(("urls_unique", pc.count_distinct(urls).as_py() == len(urls),
                   f"{len(urls)} rows"))
    if keep_only:
        checks.append(("keep_only", pc.all(data["keep"]).as_py() is not False, ""))
    else:
        checks.append(("one_row_per_url", len(urls) == exp["n_urls"],
                       f"{len(urls)} rows for {exp['n_urls']} urls"))
    bad = _first_mismatch(data, exp, keep_only)
    checks.append(("oracle_parity", bad is None,
                   bad or f"{len(exp['rows'])} sampled urls"))
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    checks.append(("registry_commit",
                   manifest["completed_partitions"] == list(range(partitions)), ""))
    if metrics:
        m = _read(os.path.join(out, "metrics"), ["drop_reason", "n_docs"])
        want = pc.value_counts(pc.fill_null(data["drop_reason"], "kept")).to_pylist()
        want = {d["values"]: d["counts"] for d in want}
        have: dict = {}
        for r, n in zip(m["drop_reason"].to_pylist(), m["n_docs"].to_pylist()):
            have[r] = have.get(r, 0) + n
        checks.append(("metrics_totals", have == want, f"{have} vs {want}"[:300]))
    return checks


def pretrain_digest(table: pa.Table) -> str:
    cols = ["url", "shard", "pos", "bin_id", "bin_offset", "n_tokens_final", "text_final"]
    t = table.select(cols).sort_by([("url", "ascending")])
    h = hashlib.blake2b(digest_size=16)
    for c in cols:
        h.update(json.dumps(t[c].to_pylist()).encode())
    return h.hexdigest()


def check_pretrain(out: str, exp: dict, digest_ref: "str | None") -> tuple[list, str]:
    checks = []
    t = _read(os.path.join(out, "corpus"))
    t = t.set_column(t.schema.get_field_index("shard"), "shard",
                     pc.cast(pc.cast(t["shard"], pa.string()), pa.int64()))
    n = len(t)
    checks.append(("rows", n > 0, f"{n} rows"))
    checks.append(("urls_unique", pc.count_distinct(t["url"]).as_py() == n, ""))
    shards = t["shard"].to_pylist()
    checks.append(("shard_range",
                   all(0 <= s < PRETRAIN["num_shards"] for s in shards), ""))
    texts = t["text_final"].to_pylist()
    toks = t["n_tokens_final"].to_pylist()
    checks.append(("n_tokens_final",
                   all(len(x.split()) == k for x, k in zip(texts, toks)), ""))
    ctx = PRETRAIN["context_tokens"]
    rows = sorted(zip(shards, t["pos"].to_pylist(), toks,
                      t["bin_id"].to_pylist(), t["bin_offset"].to_pylist()))
    ok, shard, acc = True, None, 0
    for s, _pos, k, b, off in rows:
        if s != shard:
            shard, acc = s, 0
        ok &= b * ctx + off == acc
        acc += k
    checks.append(("bin_prefix_sums", ok, ""))
    kept = {u for u, (k, _r, _s) in exp["rows"].items() if k}
    stray = [u for u in t["url"].to_pylist() if u in exp["rows"] and u not in kept]
    checks.append(("oracle_kept_only", not stray, stray[0] if stray else ""))
    digest = pretrain_digest(t)
    checks.append(("digest_stable", digest_ref is None or digest == digest_ref,
                   digest))
    return checks, digest


def check(workload: Workload, out: str, exp: dict, state: dict) -> list:
    """Check one run's output; ``state`` carries the first run's digest."""
    if workload.name == "flagship_job":
        return check_flagship(out, exp, keep_only=True,
                              partitions=JOB_PARTITIONS, metrics=False)
    if workload.name == "flagship_audit":
        return check_flagship(out, exp, keep_only=False,
                              partitions=AUDIT_PARTITIONS, metrics=True)
    checks, digest = check_pretrain(out, exp, state.get("digest"))
    state.setdefault("digest", digest)
    return checks


def output_summary(workload: Workload, out: str) -> dict:
    """Drop mix of a flagship output / row count of a pretrain output."""
    if workload.name == "pretrain_corpus":
        return {"rows": len(_read(os.path.join(out, "corpus"), ["url"]))}
    data = _read(os.path.join(out, "data"), ["drop_reason"])
    mix = pc.value_counts(pc.fill_null(data["drop_reason"], "kept")).to_pylist()
    return {"rows": len(data),
            "drop_mix": {d["values"]: d["counts"] for d in mix}}
