"""Dedup operator tests on a constructed corpus with known duplicates
(the sf documents have none, so fixtures build exact and near dups)."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from feast_ray.functions.neardup import (
    estimated_jaccard,
    exact_dedup,
    minhash_dedup,
    minhash_signature,
    ngram_jaccard_pairs,
    simhash64,
    simhash_dups,
)

BASE = (
    "the quick brown fox jumps over the lazy dog while the data engine "
    "sorts filters joins and aggregates rows of tables in parallel across "
    "many worker processes with streaming backpressure and object spilling"
)


@pytest.fixture()
def corpus():
    rng = np.random.RandomState(3)
    words = BASE.split()
    rows = []
    for i in range(40):
        w = list(words)
        rng.shuffle(w)
        rows.append({"doc_id": i, "text": " ".join(w[: 20 + i % 10])})
    # exact duplicates of doc 0 and 1
    rows.append({"doc_id": 100, "text": rows[0]["text"]})
    rows.append({"doc_id": 101, "text": rows[1]["text"]})
    # near-duplicate of doc 2: one word changed
    t2 = rows[2]["text"].split()
    t2[3] = "changed"
    rows.append({"doc_id": 102, "text": " ".join(t2)})
    return pd.DataFrame(rows)


def test_exact_dedup(corpus):
    ds = ray.data.from_pandas(corpus)
    out = exact_dedup(ds, "text", "doc_id").to_pandas()
    kept = set(out["doc_id"])
    assert 0 in kept and 1 in kept
    assert 100 not in kept and 101 not in kept
    assert 102 in kept  # near-dup is NOT an exact dup
    assert len(out) == len(corpus) - 2


def test_exact_dedup_two_buckets(corpus, force_buckets):
    force_buckets(2)  # several keys per reducer
    test_exact_dedup(corpus)


def test_minhash_identical_sig(corpus):
    s0 = minhash_signature(corpus.loc[0, "text"])
    s100 = minhash_signature(corpus.loc[corpus.doc_id == 100, "text"].iloc[0])
    assert (s0 == s100).all()
    assert estimated_jaccard(s0, s100) == 1.0


def test_minhash_dedup_drops_exact_and_near(corpus):
    ds = ray.data.from_pandas(corpus)
    out = minhash_dedup(ds, "doc_id", "text", threshold=0.6).to_pandas()
    kept = set(out["doc_id"])
    assert 100 not in kept and 101 not in kept
    assert 102 not in kept  # near-dup caught by LSH
    assert 0 in kept and 1 in kept and 2 in kept


def test_simhash_near(corpus):
    h2 = simhash64(corpus.loc[2, "text"])
    h102 = simhash64(corpus.loc[corpus.doc_id == 102, "text"].iloc[0])
    assert bin(h2 ^ h102).count("1") <= 12  # similar docs → close hashes
    ds = ray.data.from_pandas(corpus)
    dropped = set(simhash_dups(ds, "doc_id", "text", max_hamming=3).to_pandas()["doc_id"])
    assert 100 in dropped and 101 in dropped  # exact dups always hamming 0


def test_simhash_near_two_buckets(corpus, force_buckets):
    force_buckets(2)  # several keys per reducer
    test_simhash_near(corpus)


def test_ngram_jaccard_pairs(corpus):
    ds = ray.data.from_pandas(corpus)
    pairs = ngram_jaccard_pairs(ds, "doc_id", "text", k=3, threshold=0.9).to_pandas()
    got = {tuple(r) for r in pairs[["id_a", "id_b"]].itertuples(index=False)}
    assert (0, 100) in got and (1, 101) in got


def test_deterministic_across_calls(corpus):
    a = minhash_signature("hello world foo bar baz qux")
    b = minhash_signature("hello world foo bar baz qux")
    assert (a == b).all()
    assert simhash64("hello world") == simhash64("hello world")


def test_minhash_distributed_verify_matches_driver(corpus):
    """The size-gated verify paths (driver vectorized vs distributed
    hash-join) must produce the same verified pair set."""
    from feast_ray.functions.neardup import minhash_candidate_pairs

    ds = ray.data.from_pandas(corpus)
    a = (
        minhash_candidate_pairs(ds, "doc_id", "text", threshold=0.6)
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    b = (
        minhash_candidate_pairs(
            ds, "doc_id", "text", threshold=0.6, driver_verify_max=0
        )
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    assert list(a["id_a"]) == list(b["id_a"])
    assert list(a["id_b"]) == list(b["id_b"])
    assert len(a) > 0


def test_minhash_distributed_verify_matches_driver_two_buckets(corpus, force_buckets):
    force_buckets(2)  # several keys per reducer
    test_minhash_distributed_verify_matches_driver(corpus)


def _ref_digest(b: bytes) -> int:
    """Pure-Python word digest: Horner polynomial over the bytes
    (base = FNV-64 prime, mod 2^64), then the splitmix64 finalizer."""
    m = (1 << 64) - 1
    h = 0
    for c in b:
        h = (h * 1099511628211 + c) & m
    h = (h + 0x9E3779B97F4A7C15) & m
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & m
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & m
    return h ^ (h >> 31)


def test_word_hashes64_matches_python_reference():
    import pyarrow as pa

    from feast_ray.functions.neardup import word_hashes64

    words = ["", "a", "ab", "straße", "日本語テキスト", "", "x" * 70, "ünï cödé", "z"]
    want = [_ref_digest(w.encode()) for w in words]
    assert word_hashes64(words).tolist() == want
    assert word_hashes64([w.encode() for w in words]).tolist() == want
    for typ in (pa.string(), pa.large_string(), pa.binary()):
        arr = pa.array(words, typ)
        assert word_hashes64(arr).tolist() == want
        # a slice starts mid-buffer: offsets must be read from its offset
        assert word_hashes64(arr.slice(2, 5)).tolist() == want[2:7]
    chunked = pa.chunked_array([pa.array(words[:4]), pa.array(words[4:])])
    assert word_hashes64(chunked).tolist() == want
    assert word_hashes64([]).dtype == np.uint64 and len(word_hashes64([])) == 0
    with pytest.raises(ValueError):
        word_hashes64(pa.array(["a", None]))
