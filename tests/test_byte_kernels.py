"""Parity pins for the byte-classification fast paths (textstats,
repetition, langid, perplexity) against their reference kernels.

The fast paths must be BIT-identical — the driver's DuckDB oracle
shares RE2 with the reference path, so any divergence here would break
the value-hash gate. Randomized docs cover unicode, VT, punctuation,
stopword edge shapes, empty/whitespace-only docs, and slicing."""

from __future__ import annotations

import random
import string
import tempfile

import numpy as np
import pyarrow as pa
import pytest

from feast_ray.functions import textstats as ts
from feast_ray.functions.langid import LangIdModel
from feast_ray.functions.perplexity import PerplexityModel

STAT_COLS = [
    "n_chars",
    "n_words",
    "mean_word_len",
    "digit_frac",
    "symbol_frac",
    "stop_count",
]


def _rand_docs(seed: int, n: int) -> list[str]:
    rng = random.Random(seed)

    def doc():
        k = rng.random()
        if k < 0.04:
            return ""
        if k < 0.08:
            return " \t\n" * rng.randint(1, 3)
        words = []
        for _ in range(rng.randint(1, 60)):
            r = rng.random()
            if r < 0.3:
                words.append(
                    rng.choice(
                        ["the", "a", "and", "of", "to", "in", "is", "it", "The", "IT"]
                    )
                )
            elif r < 0.45:
                words.append(
                    rng.choice(
                        ["it.it", "x_it", "it_", "_the", "the,", "(a)", "'is'", "9to5"]
                    )
                )
            else:
                words.append(
                    "".join(
                        rng.choice(string.ascii_letters + string.digits + ".,_-'\"")
                        for _ in range(rng.randint(1, 11))
                    )
                )
        d = rng.choice([" ", "  ", "\t", "\n", " \r\n "]).join(words)
        if rng.random() < 0.12:
            d = "é" + d + " Σwörd 中文 İt K " + d
        if rng.random() < 0.06:
            d = "\v" + d + "\v"
        return d

    out = [doc() for _ in range(n)]
    out += [
        "the the the",
        "a",
        "",
        " ",
        "it it",
        "中文中文",
        "für FÜR und",
        "x_it it_x _it it_ it.it,it",
        "wordlongerthaneightbytes the of",
    ]
    return out


def test_textstats_byte_vs_re2_parity():
    docs = _rand_docs(7, 2000)
    tbl = pa.table({"text": pa.array(docs, pa.string())})
    fast = ts.compute_textstats(tbl, "text")
    ref = ts._compute_textstats_re2(tbl, "text")
    for c in STAT_COLS:
        a = fast[c].to_numpy(zero_copy_only=False)
        b = ref[c].to_numpy(zero_copy_only=False)
        bad = np.flatnonzero(a != b)
        assert len(bad) == 0, (c, bad[:5], [docs[i] for i in bad[:3]])


def test_textstats_sliced_and_large_string():
    docs = _rand_docs(13, 400)
    tbl = pa.table({"text": pa.array(docs, pa.string())})
    sl = tbl.slice(37, 200)  # nonzero array offset
    fast = ts.compute_textstats(sl, "text")
    ref = ts._compute_textstats_re2(sl, "text")
    for c in STAT_COLS:
        assert fast[c].equals(ref[c]), c
    lt = pa.table({"text": pa.array(docs[:100], pa.large_string())})
    fl = ts.compute_textstats(lt, "text")
    rl = ts._compute_textstats_re2(lt, "text")
    for c in STAT_COLS:
        assert fl[c].equals(rl[c]), c


def test_textstats_null_fallback():
    tbl = pa.table({"text": pa.array(["a b the c", None, "x"], pa.string())})
    out = ts.compute_textstats(tbl, "text")
    assert out["stop_count"].to_pylist() == [2, None, 0]


def test_repetition_byte_vs_reference_parity():
    docs = _rand_docs(29, 2000)
    arr = pa.array(docs, pa.string())
    view = ts._string_view(arr)
    d2f = ts._repetition_fast(arr, view)
    d2r = ts.repetition_stats(docs)
    assert np.array_equal(d2f, d2r)


def test_repetition_empty_and_degenerate():
    for docs in ([], [""], [" \t "], ["one"], ["x x x x"], ["\va b\v"]):
        arr = pa.array(docs, pa.string())
        view = ts._string_view(arr)
        d2f = ts._repetition_fast(arr, view)
        d2r = ts.repetition_stats(docs)
        assert np.array_equal(d2f, d2r), docs


def test_langid_byte_vs_re2_parity():
    rng = random.Random(31)
    pools = {
        "en": "the and of to in is it that for on with as are this be".split(),
        "de": "der die das und ist nicht ein eine zu den von mit für".split(),
        "fr": "le la les et de des un une est pas que pour dans".split(),
        "es": "el la los las y de que en un una es no por como".split(),
    }
    docs = []
    for _ in range(1500):
        k = rng.random()
        if k < 0.05:
            docs.append("")
        elif k < 0.12:
            docs.append("中文" * rng.randint(1, 30) + " mixed text")
        else:
            pool = rng.choice(list(pools.values()))
            ws = [
                rng.choice(pool)
                if rng.random() < 0.5
                else "".join(
                    rng.choice(string.ascii_letters + ".,'д")
                    for _ in range(rng.randint(1, 8))
                )
                for _ in range(rng.randint(1, 50))
            ]
            d = " ".join(ws)
            docs.append(d.upper() if rng.random() < 0.1 else d)
    docs += ["für und der die das ist", "the the", "", "一鿿 鿿一"]
    tbl = pa.table({"text": pa.array(docs, pa.string())})
    m = LangIdModel(text_col="text")
    fast = m(tbl)
    ref_l, ref_c = m._scores_re2(tbl["text"].combine_chunks())
    assert fast["lang_pred"].to_pylist() == list(ref_l)
    assert np.array_equal(fast["lang_conf"].to_numpy(), ref_c)


def test_dict_word_hits_boundaries():
    # runs split at doc boundaries, 9+ byte words never match, and
    # matching is on the lowered run
    arr = pa.array(
        ["the", "xthe yit", "", "and", "the", "thethethe", "IT The tHe x_it"],
        pa.string(),
    )
    hits = ts.ByteText(arr).runs
    the = ts.dict_mask([b"the"])
    assert ts.count_dict_words(hits, the, 7).tolist() == [1, 0, 0, 0, 1, 0, 2]
    stop = ts.count_dict_words(hits, ts._STOP_MASK, 7)
    assert stop.tolist() == [1, 0, 0, 1, 1, 0, 3]


def _segsum_ref(x, offs):
    c = np.zeros(len(x) + 1, np.int64)
    np.cumsum(x, dtype=np.int64, out=c[1:])
    return c[offs[1:]] - c[offs[:-1]]


@pytest.mark.parametrize(
    "arr",
    [
        pa.array(["", "ab 1 c", "", "x9", "", "", "a\tb", ""], pa.string()),
        pa.array(["", "", ""], pa.string()),  # all empty: a zero-byte buffer
        pa.array([], pa.string()),
        pa.array(_rand_docs(3, 300), pa.string()).slice(41, 150),
        pa.array(_rand_docs(5, 100), pa.large_string()),
    ],
)
def test_segsum_matches_cumsum_diff(arr):
    buf, offs = ts._string_view(arr)
    cls = ts._CLASS[buf]
    for bit in (ts._WS, ts._DIGIT, ts._ALNUM, ts._CONT, ts._IMPURE):
        x = cls >> bit & 1
        assert np.array_equal(ts._segsum(x, offs), _segsum_ref(x, offs)), bit
    assert np.array_equal(ts._segsum(cls, offs), _segsum_ref(cls, offs))


def test_perplexity_byte_view_matches_score_batch():
    m = PerplexityModel(text_col="text")
    short = ["", "a", "ab", "abc", "é", "ab", "", "abcd"]
    docs = _rand_docs(17, 500) + short
    cases = [
        pa.array(docs, pa.string()),
        pa.array(docs, pa.string()).slice(123, 250),
        pa.array(docs, pa.large_string()),
        pa.array(short, pa.string()),
    ]
    for arr in cases:
        got = m(pa.table({"text": arr}))["ppl"].to_numpy()
        assert np.array_equal(got, m.score_batch(arr.to_pylist()))
    # a column with nulls takes the score_batch fallback
    nulls = pa.array(["the quick fox", None, "ab", None, "abcabc"], pa.string())
    got = m(pa.table({"text": nulls}))["ppl"]
    assert got.null_count == 2
    valid = [t for t in nulls.to_pylist() if t is not None]
    assert got.drop_null().to_pylist() == m.score_batch(valid).tolist()


def test_perplexity_table_matches_formula_for_every_trigram():
    """Every one of the 2^24 byte trigrams looks up the bit-exact
    smoothed log-prob log((c_tri + k) / (c_bi[prefix] + k*V)), not
    just those the pin corpora reach; the whole table is < 1 MiB."""
    m = PerplexityModel()
    assert m.logp_rows.nbytes + m.row_base.nbytes < 1 << 20
    step = 1 << 20
    for lo in range(0, 1 << 24, step):
        tri = np.arange(lo, lo + step, dtype=np.uint32)
        bi = tri >> np.uint32(8)
        c_tri = m._lookup(tri, m.tri_keys, m.tri_counts)
        c_bi = m._lookup(bi, m.bi_keys, m.bi_counts)
        want = np.log((c_tri + m.add_k) / (c_bi + m.add_k * m.V))
        got = m.logp_rows[m.row_base[bi] + (tri & 255)]
        assert np.array_equal(got, want), lo


def test_perplexity_model_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    PerplexityModel()
    assert list(tmp_path.iterdir()) == []


def test_shared_bytetext_context_matches_unshared():
    docs = _rand_docs(41, 300)
    tbl = pa.table({"text": pa.array(docs, pa.string())})
    ctx = ts.ByteText(tbl["text"])
    a = ts.compute_textstats(tbl, "text", ctx=ctx)
    b = ts.compute_textstats(tbl, "text")
    for c in STAT_COLS:
        assert a[c].equals(b[c]), c
    ra = ts.add_repetition_stats(tbl, "text", ctx=ctx)
    rb = ts.add_repetition_stats(tbl, "text")
    assert ra["dup_2gram_frac"].equals(rb["dup_2gram_frac"])
    m = LangIdModel(text_col="text")
    la = m(tbl, ctx=ctx)
    lb = m(tbl)
    assert la["lang_pred"].equals(lb["lang_pred"])
    assert la["lang_conf"].equals(lb["lang_conf"])
