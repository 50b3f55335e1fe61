"""Trainable multiclass fastText-shape language-ID
(functions/langid_clf.py): char-bigram extraction edges, partition-
invariant softmax training, planted-alphabet recovery, exact argmax
tie-breaks."""

import numpy as np
import pyarrow as pa
import ray.data

from feast_ray.functions.langid_clf import (
    char_bigram_buckets,
    langid_features,
    langid_fit,
    langid_predict,
    langid_quantize,
)

ALPHABETS = {"aa": "abcde", "bb": "fghij", "cc": "klmno", "dd": "pqrst"}
CLASSES = sorted(ALPHABETS)


def _corpus(n=600, seed=0):
    rng = np.random.RandomState(seed)
    rows = []
    for i in range(n):
        c = CLASSES[i % 4]
        al = ALPHABETS[c]
        txt = " ".join(
            "".join(al[rng.randint(0, 5)] for _ in range(6))
            for _ in range(10)
        )
        rows.append({"doc_id": i, "lang": c, "text": txt})
    return rows


def test_char_bigram_edges():
    t = pa.table({"text": pa.array(["", "x", "ab", None, "héllo", "a b"])})
    b, offs = char_bigram_buckets(t, "text", 64)
    # per-doc gram counts: 0, 0, 1, 0, 4, 2 (spaces participate)
    assert np.diff(offs).tolist() == [0, 0, 1, 0, 4, 2]
    assert len(b) == 7
    assert b.min() >= 0 and b.max() < 64


def test_bigram_hash_matches_horner_spec():
    # the bucket must equal splitmix64((cp1*FNV + cp2) mod 2^64) % D —
    # the exact 2-char Horner specialization the SQL oracle restates
    from feast_ray.functions.dsir import _FNV
    from feast_ray.functions.neardup import _splitmix64

    t = pa.table({"text": pa.array(["ab"])})
    b, _ = char_bigram_buckets(t, "text", 4096)
    with np.errstate(over="ignore"):
        h0 = np.array([ord("a")], np.uint64) * _FNV + np.uint64(ord("b"))
    expect = int(_splitmix64(h0)[0] % np.uint64(4096))
    assert b.tolist() == [expect]


def test_fit_partition_invariant_bit_exact():
    rows = _corpus(300)
    a = langid_features(
        ray.data.from_items(rows).repartition(2), CLASSES, buckets=1024)
    b = langid_features(
        ray.data.from_items(rows).repartition(11), CLASSES, buckets=1024)
    Wa, ba = langid_fit(a, 4, buckets=1024, iters=8, lr=4.0)
    Wb, bb = langid_fit(b, 4, buckets=1024, iters=8, lr=4.0)
    assert np.array_equal(Wa, Wb)
    assert np.array_equal(ba, bb)


def test_learns_planted_alphabets():
    rows = _corpus()
    ds = ray.data.from_items(rows).repartition(5)
    feats = langid_features(ds, CLASSES, buckets=1024)
    W, b = langid_fit(feats, 4, buckets=1024, iters=25, lr=4.0)
    lam, beta = langid_quantize(W, b)
    pred = langid_predict(ds, lam, beta, CLASSES).to_pandas()
    pred = pred.sort_values("doc_id")["pred_lang"].to_numpy()
    true = np.array([r["lang"] for r in rows])
    assert (pred == true).mean() >= 0.99  # the north-rule bar


def test_argmax_tie_breaks_to_smallest_class():
    # zero weights, equal biases → every doc ties → class 0 wins
    ds = ray.data.from_items(
        [{"doc_id": i, "text": "xy"} for i in range(5)])
    lam = np.zeros((64, 3), np.int64)
    beta = np.array([7, 7, 7], np.int64)
    out = langid_predict(ds, lam, beta, ["a", "b", "c"]).to_pandas()
    assert (out["pred_lang"] == "a").all()


def test_passthrough_and_empty_docs():
    ds = ray.data.from_items(
        [{"doc_id": 0, "lang": "aa", "text": ""},
         {"doc_id": 1, "lang": "bb", "text": "fgfg fghi"}])
    rows = _corpus(100)
    feats = langid_features(
        ray.data.from_items(rows), CLASSES, buckets=512)
    W, b = langid_fit(feats, 4, buckets=512, iters=10, lr=4.0)
    lam, beta = langid_quantize(W, b)
    out = langid_predict(
        ds, lam, beta, CLASSES, passthrough=["lang"]
    ).to_pandas().set_index("doc_id")
    assert out.loc[0, "lang"] == "aa"  # passthrough survives
    assert out.loc[1, "pred_lang"] == "bb"  # real signal wins
    # empty doc scores = biases only — still a deterministic argmax
    assert out.loc[0, "pred_lang"] in CLASSES
