"""tf-idf keyword extraction."""

import math

import pandas as pd
import ray.data

from feast_ray.functions import tfidf
from feast_ray.functions.tfidf import tfidf_top_terms


def test_tfidf_ranks_rare_terms_first():
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "apple apple banana common",
                "banana common common",
                "cherry common",
            ],
        }
    )
    out = (
        tfidf_top_terms(ray.data.from_pandas(df).repartition(2), k=2)
        .to_pandas()
        .sort_values(["doc_id", "term"])
    )
    # doc 1: apple tf=2 df=1 -> 2*ln(3); banana tf=1 df=2 -> ln(1.5);
    # common tf=1 df=3 -> 0. top-2 = apple, banana
    d1 = out[out["doc_id"] == 1]
    assert list(d1["term"]) == ["apple", "banana"]
    assert list(d1["tf"]) == [2, 1] and list(d1["df"]) == [1, 2]
    # doc 3: cherry (df=1) ranks above common (idf=0)
    d3 = out[out["doc_id"] == 3]
    assert list(d3["term"]) == ["cherry", "common"]


def test_tfidf_matches_reference_score_order():
    rows = {
        "doc_id": list(range(8)),
        "text": [f"w{i} w{i} shared x{i % 2} shared" for i in range(8)],
    }
    df = pd.DataFrame(rows)
    out = tfidf_top_terms(ray.data.from_pandas(df), k=1).to_pandas()
    # each doc's top term is its unique w{i} (tf=2, df=1)
    assert sorted(out["term"]) == sorted(f"w{i}" for i in range(8))
    assert (out["tf"] == 2).all() and (out["df"] == 1).all()


def test_tfidf_distributed_gate_parity(monkeypatch):
    """Forcing BROADCAST_MAX_TERMS=0 routes through the distributed
    hash_join path; the result must be identical to the broadcast path
    (same gate-flip doctrine as the PIT join / partitioned Bloom)."""
    df = pd.DataFrame(
        {
            "doc_id": list(range(20)),
            "text": [
                f"w{i} w{i} shared x{i % 3} shared filler{i % 5}"
                for i in range(20)
            ],
        }
    )
    ds = ray.data.from_pandas(df).repartition(3)
    broad = (
        tfidf_top_terms(ds, k=2)
        .to_pandas()
        .sort_values(["doc_id", "term"])
        .reset_index(drop=True)
    )
    monkeypatch.setattr(tfidf, "BROADCAST_MAX_TERMS", 0)
    dist = (
        tfidf_top_terms(ds, k=2)
        .to_pandas()
        .sort_values(["doc_id", "term"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        broad, dist[broad.columns], check_dtype=False
    )
    assert len(broad) == 40
