"""Output pin of the fused quality scorer.

``QualityScorer`` runs in-process over the sf0.001 synthetic pages,
extracted and deduped to the latest crawl per url, in 2048-row
batches as ``quality_filter`` runs it. The SHA-256 of every output
column's values must equal the constants below. They were computed by
this same procedure at the commit before the scorer's byte kernels
moved to ``np.add.reduceat`` and Arrow's hash kernels (6e7c93b), so
any change in a feature, decision or scrubbed text shows up here."""

from __future__ import annotations

import hashlib
import importlib

import pyarrow as pa

from feast_ray.functions.extract import extract_batch
from feast_ray.sources.webpages import webpages_table
from feast_ray.stages.dedup import _latest_per_key

EXPECTED = {
    "url": "ae9e1c4b62411baccd2d96be72e3bb1a7537ed788e93472f2bb5d5690a59c666",
    "warc_ts": "734cf8d587e6b4d25218e870e93366e7d05cc2ccb218b298f832b54584c2325c",
    "lang": "33c36ac88c95dd9a1e1e19143969b23ff607dce1b36b2a7c7143636b425924e6",
    "extracted_text": "de87aec70190f6a40c60863707b64d8e81ed2b19cc4705ffc55e02308f77b57c",
    "n_chars": "54b97f0f68c6ea9533d75ffc7e04675a7757143f520c0237d50c7f227b29fd31",
    "n_words": "ffddf48b5ed1e423af69b8d1e7e86601e75b5c3b19632516eed73b8d4daf84c3",
    "mean_word_len": "cb76c62ee14037ca43346ac0a08ad0910213488b2f3dc8a6076d02176f4e3a64",
    "digit_frac": "0a7603de8c8fb03a352ec775b3bbf80e1c812b93ffb652130c249124c655def5",
    "symbol_frac": "c0e2e5e9cfdea382b829b20e0743f32d8e1809e95dd41cc5cb088cb3bdb39be3",
    "stop_count": "9679f5f6b1eeb1f88b6b3ad491ab001f458c6b6ffec799e0cea544d2aa2d7bfe",
    "dup_2gram_frac": "9d24ca38017f5a3aba2d9641db1d2ff01c75f07b3955b1a0c10f282e2ea694f5",
    "lang_pred": "1b06eb47062dc17d58ae4f8d5a9d1eea79c068a0a127c91fc45f5e48116f2c41",
    "lang_conf": "aa9161fe4b4df937d38df781ecb5a85585bc56797de6a04133b09d319d697a44",
    "ppl": "5019bda7db92659ed082b4fb00d1f8e5c744e1836e9716c8ef8c234973f63964",
    "keep": "b105b2d0b9561e11758c468c85918c4ad339ec694357b9544960310985cd1065",
    "drop_reason": "bb3956e1e35b12f68f361f6a895998ebf2e0abf4a1f11dd65c83f8a177575813",
    "text_scrubbed": "3e9e808ddebdfaa0e6226a7cca0477c12fbb3ae2442adc93edd7e21982df0bf5",
}


def test_scorer_output_pinned(sf_small):
    # the package re-exports quality_filter() under the module's name
    qf = importlib.import_module("feast_ray.pipelines.quality_filter")
    pages = extract_batch(webpages_table(sf_small), "html", "extracted_text")
    pages = _latest_per_key(["url"], ["warc_ts"])(pages.drop_columns(["html", "text"]))
    scorer = qf.QualityScorer()
    out = pa.concat_tables(
        scorer(pages.slice(i, 2048)) for i in range(0, len(pages), 2048)
    )
    got = {
        c: hashlib.sha256(repr(out[c].to_pylist()).encode()).hexdigest()
        for c in out.column_names
    }
    assert got == EXPECTED
