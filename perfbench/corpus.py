"""Seeded web-page corpus generator for the benchmark.

The program under test receives only the Parquet pages this module
writes: ``(url, warc_ts, html, text, lang)``, the same page format the
package's own synthetic source uses (``sources.webpages.make_html`` wraps
the text, ``decorate_text`` plants PII, gibberish, symbol spam and
repeated phrases on doc-id residues).

Everything the pipelines react to is drawn from ``random.Random(seed)``:

- the document mix: language (code-mixed en/de/fr/es pages plus CJK
  pages), length, and planted defects that trip each heuristic rule;
- the doc ids, whose residues decide ``decorate_text``'s dirty content;
- the hot-domain share (one third of urls on ``HOT_DOMAIN``);
- recrawls: ``flagship`` re-crawls ~20% of urls once, ``recrawl``
  crawls every url 2-4 times (mean 3); crawl timestamps are distinct
  per url and later crawls may carry edited text;
- shared boilerplate spans (span dedup) and benchmark passages planted
  into a few pages (decontamination).

Output is cached per (profile, size, seed) under ``perfbench/.cache``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from collections import Counter
from datetime import datetime, timedelta

import pyarrow as pa
import pyarrow.parquet as pq

from feast_ray.sources.webpages import HOT_DOMAIN, decorate_text, make_html

GENERATOR_VERSION = 1
CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".cache")

_EPOCH = datetime(2024, 3, 1)
_CONTENT = (
    "batch part spark line column order small sort value scan hash slow "
    "group fast agg filter query big key window row table stream merge data "
    "join vector customer index block shard worker node cluster disk cache "
    "page crawl corpus token model score rule text file record"
).split()
_FUNCTION = {
    "en": "the and of to in is it that for on with as are this be at or from".split(),
    "de": "der die das und ist nicht ein eine zu den von mit sich auf im in".split(),
    "fr": "le la les et de des un une est pas que pour dans sur avec au du a".split(),
    "es": "el la los las y de que en un una es no por con para su al a".split(),
}
_LANG_MIX = [("en", 0.62), ("de", 0.12), ("fr", 0.12), ("es", 0.06), ("zh", 0.08)]
_CJK = "数据处理系统查询表格分布式计算存储索引模型网页语料过滤"
# planted defects: (kind, share of documents); the rest are clean prose
_DEFECTS = [
    ("short", 0.05),       # too_short
    ("keywords", 0.03),    # no_stopwords
    ("digits", 0.05),      # too_many_digits
    ("markup", 0.03),      # too_many_symbols
    ("longword", 0.02),    # word_len
    ("article_only", 0.02),  # stopwords but no profile word: lang_unknown
    ("loop", 0.03),        # repetition
]
BOILERPLATE = [
    "subscribe to the newsletter for the latest data and query news from the team",
    "this page uses a cookie to store the state of the table and the stream for you",
    "read more about the cluster and the shard in the archive of this portal today",
]
_SOURCES = [f"src{i}" for i in range(20)]


def _prose(rng: random.Random, lang: str, n_words: int) -> str:
    # non-English pages are code-mixed: their own function words, the
    # shared technical vocabulary, and the odd English stopword
    fw = _FUNCTION[lang] if lang == "en" else _FUNCTION[lang] + ["in", "a"]
    return " ".join(
        rng.choice(fw) if rng.random() < 0.35 else rng.choice(_CONTENT)
        for _ in range(n_words)
    )


def _document(rng: random.Random, kind: str, lang: str) -> str:
    if lang == "zh":
        return "".join(rng.choice(_CJK) for _ in range(rng.randint(30, 200)))
    if kind == "short":
        return _prose(rng, lang, rng.randint(4, 19))
    if kind == "keywords":
        return " ".join(rng.choice(_CONTENT) for _ in range(rng.randint(25, 80)))
    if kind == "digits":
        return _prose(rng, "en", 12) + " " + " ".join(
            str(rng.randint(1000, 99999)) for _ in range(rng.randint(20, 40))
        )
    if kind == "markup":
        return _prose(rng, lang, rng.randint(25, 60)) + " " + " ".join(
            rng.choice(["{}", "[];", "</>", "=>", "&&", "||", "#!"])
            for _ in range(rng.randint(30, 60))
        )
    if kind == "longword":
        return " ".join(
            "".join(rng.choice(_CONTENT) for _ in range(3)) + " the"
            for _ in range(rng.randint(15, 30))
        )
    if kind == "article_only":
        return " ".join(
            "a" if i % 6 == 0 else rng.choice(_CONTENT)
            for i in range(rng.randint(25, 60))
        )
    if kind == "loop":
        phrase = _prose(rng, "en", 4)
        return " ".join([phrase] * rng.randint(8, 20))
    return _prose(rng, lang, rng.randint(25, 140))


def _pick(rng: random.Random, table) -> str | None:
    r = rng.random()
    for name, share in table:
        if r < share:
            return name
        r -= share
    return None


def generate(profile: str, n_docs: int, seed: int) -> tuple[pa.Table, dict]:
    """Build the page table and its description for one seed."""
    if profile not in ("flagship", "recrawl"):
        raise ValueError(f"unknown corpus profile {profile!r}")
    rng = random.Random(f"{profile}:{seed}")
    doc_ids = rng.sample(range(1, 1 << 40), n_docs)
    bench_texts = [_prose(rng, "en", 14) for _ in range(6)]
    rows = {"url": [], "warc_ts": [], "html": [], "text": [], "lang": []}
    kinds: Counter = Counter()
    langs: Counter = Counter()
    hot = recrawled = 0
    for d in doc_ids:
        lang = _pick(rng, _LANG_MIX) or "en"
        kind = _pick(rng, _DEFECTS) or "clean"
        text = _document(rng, kind, lang)
        if kind == "clean" and lang != "zh":
            if rng.random() < 0.15:
                text += " " + rng.choice(BOILERPLATE)
            if rng.random() < 0.02:
                text += " " + rng.choice(bench_texts)
        text = decorate_text(d, text)
        source = rng.choice(_SOURCES)
        on_hot = rng.random() < 1 / 3
        domain = HOT_DOMAIN if on_hot else f"{source}.example.com"
        url = f"https://{domain}/{source}/page-{d}"
        kinds[kind] += 1
        langs[lang] += 1
        hot += on_hot
        if profile == "recrawl":
            crawls = rng.choice((2, 3, 3, 4))
        else:
            crawls = 2 if rng.random() < 0.2 else 1
        recrawled += crawls > 1
        ts = _EPOCH + timedelta(seconds=rng.randrange(86400 * 30))
        for c in range(crawls):
            if c:
                ts += timedelta(minutes=rng.randint(1, 60 * 24 * 7))
                if rng.random() < 0.4:
                    text = text + " revised " + _prose(rng, "en", rng.randint(2, 8))
            rows["url"].append(url)
            rows["warc_ts"].append(ts)
            rows["html"].append(make_html(d, source, text))
            rows["text"].append(text)
            rows["lang"].append(lang)
    table = pa.table(
        {
            "url": pa.array(rows["url"], pa.string()),
            "warc_ts": pa.array(rows["warc_ts"], pa.timestamp("us")),
            "html": pa.array(rows["html"], pa.binary()),
            "text": pa.array(rows["text"], pa.string()),
            "lang": pa.array(rows["lang"], pa.string()),
        }
    )
    # shuffle crawl order so dedup cannot rely on input order
    order = list(range(table.num_rows))
    rng.shuffle(order)
    table = table.take(pa.array(order))
    info = {
        "profile": profile,
        "seed": seed,
        "generator_version": GENERATOR_VERSION,
        "urls": n_docs,
        "pages": table.num_rows,
        "recrawl_share": round(recrawled / n_docs, 4),
        "hot_domain_share": round(hot / n_docs, 4),
        "planted": dict(sorted(kinds.items())),
        "languages": dict(sorted(langs.items())),
        "benchmark_texts": bench_texts,
    }
    return table, info


def pages_dir(profile: str, n_docs: int, seed: int) -> tuple[str, dict]:
    """Generate (or reuse) the cached pages directory for one seed."""
    out = os.path.join(CACHE_DIR, f"{profile}_{n_docs}_s{seed}_v{GENERATOR_VERSION}")
    meta = os.path.join(out, "_corpus.json")
    if os.path.exists(meta):
        with open(meta) as f:
            return out, json.load(f)
    table, info = generate(profile, n_docs, seed)
    tmp = out + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    # a few files so the read stage has parallel inputs
    step = -(-table.num_rows // 4)
    for i in range(0, table.num_rows, step):
        pq.write_table(table.slice(i, step), os.path.join(tmp, f"pages-{i // step}.parquet"))
    with open(os.path.join(tmp, "_corpus.json"), "w") as f:
        json.dump(info, f)
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return out, info
