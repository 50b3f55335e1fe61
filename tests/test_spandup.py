"""Duplicate-span removal (cross-doc n-gram spans, keep-first)."""

import pandas as pd
import pytest
import ray.data

from feast_ray.functions import spandup
from feast_ray.functions.spandup import remove_duplicate_spans


def _run(df, **kw):
    out = (
        remove_duplicate_spans(
            ray.data.from_pandas(df), "doc_id", "text", **kw
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    return out["text_despanned"].tolist()


def test_shared_span_kept_only_in_lowest_doc():
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "alpha beta gamma delta unique one",
                "other words here alpha beta gamma delta tail",
                "fully distinct text with no overlap at all",
            ],
        }
    )
    got = _run(df, n=4)
    assert got[0] == "alpha beta gamma delta unique one"  # survivor intact
    assert got[1] == "other words here tail"  # span cut
    assert got[2] == "fully distinct text with no overlap at all"


def test_overlapping_grams_cut_as_one_interval():
    # a 6-token shared run = three overlapping 4-grams -> one clean cut
    shared = "s1 s2 s3 s4 s5 s6"
    df = pd.DataFrame(
        {
            "doc_id": [10, 20],
            "text": [f"head {shared} mid", f"pre {shared} post"],
        }
    )
    got = _run(df, n=4)
    assert got == [f"head {shared} mid", "pre post"]


def test_short_docs_and_empty_are_untouched():
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["too short", "", "   "],
        }
    )
    assert _run(df, n=4) == ["too short", "", ""]


def test_min_docs_threshold_and_whitespace_normalization():
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "a  b\tc   d x",  # messy whitespace, normalized on rebuild
                "y a b c d",
                "z a b c d",
            ],
        }
    )
    # min_docs=4: nothing is duplicated enough -> only normalization
    assert _run(df, n=4, min_docs=4) == [
        "a b c d x",
        "y a b c d",
        "z a b c d",
    ]
    got = _run(df, n=4, min_docs=3)
    assert got == ["a b c d x", "y", "z"]


def test_distributed_blocks_match_single_block():
    rows = []
    for i in range(40):
        boiler = f"subscribe to channel {i % 3} now today please"
        # per-doc-unique tokens around the boilerplate so no 4-gram
        # crosses the span boundary
        rows.append(
            {"doc_id": i, "text": f"w{i}a w{i}b w{i}c {boiler} t{i}x t{i}y"}
        )
    rows.append({"doc_id": 40, "text": ""})  # empty doc
    rows.append({"doc_id": 41, "text": "too short"})  # sub-n doc
    df = pd.DataFrame(rows)
    one = _run(df, n=4)
    many = (
        remove_duplicate_spans(
            ray.data.from_pandas(df).repartition(8), "doc_id", "text", n=4
        )
        .to_pandas()
        .sort_values("doc_id")["text_despanned"]
        .tolist()
    )
    assert one == many
    assert one[40:] == ["", "too short"]
    # survivors are exactly doc_ids 0,1,2 (lowest per boilerplate variant)
    for i, t in enumerate(one[:40]):
        if i in (0, 1, 2):
            assert "subscribe to channel" in t
        else:
            assert "subscribe" not in t


def test_dup_free_corpus_returns_text_unchanged():
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["only one doc here", "something else x", "tiny"],
        }
    )
    assert _run(df, n=4) == ["only one doc here", "something else x", "tiny"]


def test_token_boundaries_are_part_of_the_gram_key():
    # same characters, different split: a key over the concatenated
    # bytes would call the 4-grams shared and cut doc 2
    df = pd.DataFrame({"doc_id": [1, 2], "text": ["x ab c d e", "x a bc d e"]})
    assert _run(df, n=4) == ["x ab c d e", "x a bc d e"]


def test_null_text_rejoins_to_empty_string():
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["a b c d e", None, "z a b c d"],
        }
    )
    assert _run(df, n=4) == ["a b c d e", "", "z"]


def test_broadcast_cap_raises(monkeypatch):
    monkeypatch.setattr(spandup, "MAX_BROADCAST_ROWS", 1)
    df = pd.DataFrame(
        {"doc_id": [1, 2], "text": ["a b c d e f", "a b c d e f"]}
    )  # three dup 4-grams
    with pytest.raises(ValueError, match="broadcast cap"):
        _run(df, n=4)
