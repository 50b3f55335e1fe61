"""Flagship-pipeline correctness: golden-oracle comparison + the north
rule's two invariants (byte-identical extracted text per url; keep/drop
F1 ≥ 0.99 vs reference labels)."""

import numpy as np
import pandas as pd
import pytest

from feast_ray.pipelines import quality_filter, quality_metrics
from feast_ray.sources import synth_webpages
from feast_ray.sources.webpages import webpages_table
from tests.oracle_quality import oracle_quality_filter


@pytest.fixture(scope="module")
def result_and_oracle(sf_small):
    pages = synth_webpages(sf_small)
    got = quality_filter(pages).to_pandas().sort_values("url").reset_index(drop=True)
    exp = (
        oracle_quality_filter(webpages_table(sf_small).to_pandas())
        .sort_values("url")
        .reset_index(drop=True)
    )
    return got, exp


def test_one_row_per_url_latest(result_and_oracle, sf_small):
    got, exp = result_and_oracle
    assert got["url"].is_unique
    assert len(got) == len(exp)
    pd.testing.assert_series_equal(
        got["warc_ts"], exp["warc_ts"], check_names=False, check_dtype=False
    )


def test_keep_drop_f1(result_and_oracle):
    got, exp = result_and_oracle
    y_true = exp["keep"].to_numpy(dtype=bool)
    y_pred = got["keep"].to_numpy(dtype=bool)
    tp = (y_true & y_pred).sum()
    fp = (~y_true & y_pred).sum()
    fn = (y_true & ~y_pred).sum()
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.99, f"F1={f1}: disagreements={np.flatnonzero(y_true != y_pred)[:10]}"
    # and drop reasons agree exactly
    assert (
        got["drop_reason"].fillna("kept") == exp["drop_reason"].fillna("kept")
    ).all()


def test_scrubbed_text_byte_identical(result_and_oracle):
    got, exp = result_and_oracle
    kept = exp["keep"].to_numpy(dtype=bool)
    assert (got.loc[kept, "text_scrubbed"] == exp.loc[kept, "text_scrubbed"]).all()
    assert got.loc[~kept, "text_scrubbed"].isna().all()


def test_extraction_byte_identity_roundtrip(sf_small):
    """extract(make_html(text)) == text, byte for byte, for every doc
    — checked against the INDEPENDENT oracle extractor too."""
    from feast_ray.functions.extract import extract_text
    from tests.oracle_quality import oracle_extract

    wt = webpages_table(sf_small).to_pandas()
    for h, t in zip(wt["html"], wt["text"]):
        e1 = extract_text(h)
        e2 = oracle_extract(h)
        assert e1 == t
        assert e2 == t


def test_scrubber_patterns():
    from feast_ray.functions.scrub import Scrubber

    s = Scrubber()
    assert s.scrub("mail me at bob.smith+x@foo-bar.example.com now") == "mail me at <EMAIL> now"
    assert s.scrub("call +1-555-123-4567 ok") == "call <PHONE> ok"
    assert s.scrub("host 192.168.10.1 up") == "host <IP> up"
    assert s.scrub("ssn 123-45-6789 .") == "ssn <SSN> ."
    assert s.scrub("card 4111111111111111 x") == "card <NUM> x"
    assert s.scrub("you badword1 person") == "you <TOX> person"


def test_perplexity_independent_of_batch(sf_small):
    """A doc's ppl is bit-identical alone, in its batch and behind a
    random prefix batch, so keep/drop at MAX_PPL cannot move with block
    boundaries; the per-doc ``score`` loop stays the reference."""
    from feast_ray.functions.perplexity import PerplexityModel

    texts = webpages_table(sf_small)["text"].to_pylist()[:400] + ["", "ab", "abc", "é"]
    m = PerplexityModel()
    batch = m.score_batch(texts)
    alone = np.array([m.score_batch([t])[0] for t in texts])
    assert np.array_equal(batch, alone)
    prefix = list(np.random.default_rng(0).choice(texts, 37))
    assert np.array_equal(m.score_batch(prefix + texts)[len(prefix):], batch)
    np.testing.assert_allclose(batch, [m.score(t) for t in texts], rtol=1e-12)


def test_metrics(sf_small):
    pages = synth_webpages(sf_small)
    res = quality_filter(pages)
    m = quality_metrics(res).to_pandas()
    assert {"domain", "drop_reason", "n_docs", "total_words", "avg_ppl"} <= set(m.columns)
    # hot domain must be present (skew fixture) and totals must add up
    assert (m["domain"] == "big-portal.example.com").any()
    assert m["n_docs"].sum() == res.count()


def test_dedup_picks_edited_recrawl(sf_small):
    """Urls with an edited second crawl must surface the edited text."""
    got = quality_filter(synth_webpages(sf_small)).to_pandas()
    wt = webpages_table(sf_small).to_pandas()
    edited_urls = wt[wt["text"].str.endswith("updated edition")]["url"].unique()
    assert len(edited_urls) > 0
    sub = got[got["url"].isin(edited_urls) & got["keep"]]
    assert sub["text_scrubbed"].str.endswith("updated edition").all()


def test_quality_filter_job_smoke(tmp_path, sf_small, capsys, monkeypatch):
    """The production entry point end to end over a parquet pages
    directory: a keep-only run writes one kept row per url and stamps
    the manifest with ``PIPELINE_VERSION``, a second run skips every
    committed partition, a pipeline version bump rewrites every
    partition, and the removed ``--dedup-mode`` flag is an argparse
    error."""
    import importlib
    import json
    import os

    import pyarrow.parquet as pq

    from feast_ray.sources.webpages import webpages_parquet_dir
    from jobs.quality_filter_job import main

    # the package re-exports the function under the module's name
    qf_module = importlib.import_module("feast_ray.pipelines.quality_filter")

    pages = webpages_parquet_dir(sf_small, cache_root=str(tmp_path / "cache"))
    out = str(tmp_path / "out")
    argv = ["--input", pages, "--output", out, "--partitions", "2", "--keep-only"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert first["written"] == [0, 1] and first["skipped"] == []
    got = pq.read_table(first["out"]).to_pandas()
    assert len(got) > 0 and got["keep"].all()
    assert got["url"].is_unique
    with open(os.path.join(out, "manifest.json")) as f:
        assert json.load(f)["version"] == qf_module.PIPELINE_VERSION

    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert second["skipped"] == [0, 1] and second["written"] == []
    # a fully resumed run reports the same keys as a writing run
    assert second.keys() == first.keys()
    assert second["out"] == first["out"] and second["rows_out"] == {}

    monkeypatch.setattr(qf_module, "PIPELINE_VERSION", qf_module.PIPELINE_VERSION + "+bump")
    assert main(argv) == 0
    third = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert third["written"] == [0, 1] and third["skipped"] == []
    assert pq.read_table(third["out"]).num_rows == len(got)  # rewritten, not appended

    with pytest.raises(SystemExit) as exc:
        main(argv + ["--dedup-mode", "sketch"])
    assert exc.value.code == 2
    assert "--dedup-mode" in capsys.readouterr().err


def test_corpus_export_partitions(tmp_path, sf_small):
    """CCNet-style export: kept docs land in lang/quality-bucket
    directories; per-language bucket sizes are tercile-balanced."""
    from feast_ray.pipelines.corpus_export import export_corpus

    res = quality_filter(synth_webpages(sf_small))
    counts = export_corpus(res, str(tmp_path / "corpus"))
    assert counts, "no partitions written"
    # every partition path is lang_pred=X/quality_bucket=Y
    for k in counts:
        assert "lang_pred=" in k and "quality_bucket=" in k, k
    total = sum(counts.values())
    kept = res.to_pandas()["keep"].sum()
    assert total == kept
    # en buckets within a reasonable tercile balance
    en = {k: v for k, v in counts.items() if "lang_pred=en" in k}
    if len(en) == 3:
        vals = sorted(en.values())
        assert vals[0] >= vals[-1] * 0.5  # no degenerate bucketing


def test_extract_fast_path_byte_identical():
    """The vectorized extractor must be byte-identical to the
    row-at-a-time reference path on template pages, escaped-entity
    round-trips, and every non-template fallback shape."""
    import pyarrow as pa

    from feast_ray.functions.extract import extract_batch, extract_text
    from feast_ray.sources.webpages import make_html

    texts = [
        "hello world", "", "a &amp; b &lt;tag&gt;",
        "it's a \"quote\" & <x>", "x " * 500,
        "&copy; &lt; &amp;lt; &#x27;", "multi  space   runs",
        "newline\nin text",
    ]
    cases = [make_html(i, "src", t) for i, t in enumerate(texts)]
    cases += [
        b"<article>\n<p>caf&eacute; &#39;x&#39; &nbsp;gap</p>\n</article>",
        b"<article>\n<p>AT&T and R&D; &amp;eacute; roundtrip</p>\n</article>",
        b"<html>no article</html>",
        b"<article><p>a</p><p>b</p></article>",
        b"<article>\njunk<p>a</p>\n</article>",
        b"\xff\xfebad utf8 <article>\n<p>x</p>\n</article>",
        b"<article>\n<p>a</p>\nstray\n<p>b</p>\n</article>",
        b"</article> <article>\n<p>close first</p>\n</article>",
        b"</article> <article>\n<p>close first, none after</p>\n",
        b"<article>\n<p>one</p>\n</article><article>\n<p>two</p>\n</article>",
        b"x <article>\n<p>unclosed</p>\n",
        b"<article>\n<p>at byte 0</p>\n</article> tail",
        b"head <article>\n<p>at the end</p>\n</article>",
        b"head <article>",
        b"<article></article>",
        b"<article>\n<p></p>\n</article>",
        b"<article>\n<p>\n</article>",
    ]
    col = pa.array(cases, pa.binary())

    def _check(html):
        out = extract_batch(pa.table({"html": html}), "html", "out")["out"]
        assert out.type == pa.string()
        assert out.to_pylist() == [extract_text(h) for h in html.to_pylist()]

    _check(col)
    _check(col.slice(3))  # sliced column: offset != 0
    _check(pa.chunked_array([col.slice(0, 5), col.slice(5, 9), col.slice(14)]))
    _check(col.slice(0, 0))
