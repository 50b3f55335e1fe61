"""Sequence pattern matching (MATCH_RECOGNIZE-lite) unit tests."""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from feast_ray.functions.seqmatch import sequence_pattern_counts

AB = {"view": "v", "click": "c", "purchase": "p"}


def _ds(rows):
    return ray.data.from_arrow(pa.Table.from_pylist(rows))


def _run(ds, pattern="vc*p", **kw):
    out = sequence_pattern_counts(
        ds, ["u"], ["ts", "eid"], "et", AB, pattern, **kw).take_all()
    return {r["u"]: (r["n_matches"], r["seq_len"]) for r in out}


def _rows(u, types, ts0=0):
    return [{"u": u, "ts": ts0 + i, "eid": i, "et": t}
            for i, t in enumerate(types)]


def test_basic_motifs():
    ds = _ds(
        _rows(1, ["view", "click", "purchase",          # match
                  "view", "purchase",                   # match (c* empty)
                  "view", "click"])                     # no terminator
        + _rows(2, ["click", "purchase", "view"])       # no match
    )
    got = _run(ds, num_buckets=4)
    assert got == {1: (2, 7), 2: (0, 3)}


def test_unknown_event_breaks_run():
    ds = _ds(_rows(1, ["view", "signup", "purchase"]))  # signup -> '_'
    got = _run(ds, num_buckets=2)
    assert got == {1: (0, 3)}


def test_non_overlapping_consumption():
    # vpvp: two disjoint matches; vpp: second p unmatched (no fresh v)
    ds = _ds(_rows(1, ["view", "purchase", "view", "purchase", "purchase"]))
    assert _run(ds, num_buckets=2) == {1: (2, 5)}


def test_tiebreak_order_by():
    # same ts: eid must decide the order (purchase BEFORE view -> 0)
    rows = [
        {"u": 1, "ts": 5, "eid": 0, "et": "purchase"},
        {"u": 1, "ts": 5, "eid": 1, "et": "view"},
    ]
    assert _run(_ds(rows), num_buckets=2) == {1: (0, 2)}
    rows2 = [
        {"u": 1, "ts": 5, "eid": 0, "et": "view"},
        {"u": 1, "ts": 5, "eid": 1, "et": "purchase"},
    ]
    assert _run(_ds(rows2), num_buckets=2) == {1: (1, 2)}


def test_counts_match_pandas_groupby():
    """The bucketed exchange's per-key counts equal a pandas groupby
    reference over the same rows, with the input spread over several
    blocks and more buckets than keys (empty buckets included)."""
    import random
    import re

    rows = []
    for u in range(37):
        rows += _rows(u, (["view", "click", "purchase"] * (u % 4 + 1)
                          + ["click", "signup"] * (u % 3)))
    random.Random(7).shuffle(rows)
    got = _run(_ds(rows).repartition(4), num_buckets=64)

    df = pd.DataFrame(rows).sort_values(["u", "ts", "eid"])
    seq = df.groupby("u")["et"].agg(
        lambda s: "".join(AB.get(e, "_") for e in s))
    want = {u: (len(re.findall("vc*p", s)), len(s)) for u, s in seq.items()}
    assert got == want


def test_int64_dtypes():
    ds = _ds(_rows(1, ["view", "purchase"]))
    out = sequence_pattern_counts(
        ds, ["u"], ["ts", "eid"], "et", AB, "vp", num_buckets=2)
    df = out.to_pandas()
    assert str(df["n_matches"].dtype) == "int64"
    assert str(df["seq_len"].dtype) == "int64"


def test_multichar_symbol_rejected():
    ds = _ds(_rows(1, ["view"]))
    with pytest.raises(ValueError, match="single char"):
        sequence_pattern_counts(
            ds, ["u"], ["ts"], "et", {"view": "vv"}, "v")
