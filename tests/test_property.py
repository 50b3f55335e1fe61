"""Property-based invariants (hypothesis) for the core reducers —
beyond the fixed oracles: for ANY generated frame, the distributed
operator must equal the single-process pandas re-derivation."""

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from feast_ray.functions.neardup import estimated_jaccard, minhash_signature


@st.composite
def keyed_frames(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    keys = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n))
    ts = draw(st.lists(st.integers(min_value=0, max_value=10), min_size=n, max_size=n))
    vals = list(range(n))
    return pd.DataFrame(
        {
            "k": keys,
            "event_ts": pd.to_datetime(ts, unit="h", origin="2024-01-01"),
            "v": vals,
        }
    )


@settings(max_examples=15, deadline=None, suppress_health_check=list(HealthCheck))
@given(keyed_frames())
def test_keep_latest_matches_pandas(df):
    import ray.data

    from feast_ray.stages.dedup import keep_latest

    ds = ray.data.from_pandas(df)
    got = (
        keep_latest(ds, ["k"], "event_ts", created_ts="v", num_buckets=4)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    exp = (
        df.sort_values(["event_ts", "v"], kind="stable")
        .drop_duplicates("k", keep="last")
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["k", "v"]], exp[["k", "v"]])


@settings(max_examples=15, deadline=None, suppress_health_check=list(HealthCheck))
@given(keyed_frames())
def test_grouped_agg_matches_pandas(df):
    import ray.data

    from feast_ray.stages.aggregate import AggSpec, grouped_agg

    ds = ray.data.from_pandas(df)
    got = (
        grouped_agg(ds, ["k"], [AggSpec("v", "sum", "s"), AggSpec(None, "count", "n")])
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    exp = (
        df.groupby("k")
        .agg(s=("v", "sum"), n=("v", "size"))
        .reset_index()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert (got["k"].to_numpy() == exp["k"].to_numpy()).all()
    assert (got["s"].to_numpy() == exp["s"].to_numpy()).all()
    assert (got["n"].to_numpy() == exp["n"].to_numpy()).all()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from("abcdefgh"), min_size=10, max_size=60),
    st.integers(min_value=0, max_value=8),
)
def test_minhash_estimate_tracks_true_jaccard(words, n_swap):
    """Estimated Jaccard from signatures stays within 0.35 of the true
    shingle-set Jaccard (64 permutations ⇒ se ≈ 0.06; 0.35 is a
    >5-sigma bound, deterministic permutations)."""
    a = " ".join(words)
    b_words = list(words)
    for i in range(min(n_swap, len(b_words))):
        b_words[i * max(1, len(b_words) // (n_swap + 1))] = "zzz"
    b = " ".join(b_words)

    def shingles(text):
        w = text.split()
        return {" ".join(w[i : i + 3]) for i in range(max(1, len(w) - 2))}

    sa, sb = shingles(a), shingles(b)
    true_j = len(sa & sb) / len(sa | sb)
    est = estimated_jaccard(minhash_signature(a), minhash_signature(b))
    assert abs(est - true_j) <= 0.35


@settings(max_examples=10, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    st.lists(st.tuples(st.integers(0, 20), st.integers(-100, 100)),
             min_size=1, max_size=60),
    st.lists(st.tuples(st.integers(0, 20), st.integers(-100, 100)),
             min_size=1, max_size=60),
    st.sampled_from(["inner", "left"]),
)
def test_hash_join_matches_pandas_merge(force_buckets, lrows, rrows, how):
    """hash_join ≡ pandas merge on random keyed frames (incl. empty
    sides, duplicate keys, both join types)."""
    force_buckets(4)
    import ray.data

    from feast_ray.stages.join import hash_join

    ldf = pd.DataFrame(lrows, columns=["k", "lv"])
    rdf = pd.DataFrame(rrows, columns=["k", "rv"])
    got = hash_join(
        ray.data.from_pandas(ldf), ray.data.from_pandas(rdf),
        on="k", how=how,
    ).to_pandas()
    exp = (
        ldf.merge(rdf, on="k", how=how)
        .sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    )
    assert len(got) == len(exp)
    if len(exp) == 0:
        return  # Ray to_pandas drops columns on all-empty results
    got = got.sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    if len(exp):
        assert (got["k"].to_numpy() == exp["k"].to_numpy()).all()
        assert (got["lv"].to_numpy() == exp["lv"].to_numpy()).all()
        ga, ea = got["rv"].to_numpy(dtype=float), exp["rv"].to_numpy(dtype=float)
        assert ((ga == ea) | (np.isnan(ga) & np.isnan(ea))).all()


@settings(max_examples=10, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1000)), min_size=1, max_size=40),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1000), st.integers(1, 200)),
             min_size=1, max_size=30),
)
def test_interval_join_matches_bruteforce(lrows, rrows):
    """interval_join ≡ brute-force containment on random keyed points
    and intervals (variable lengths exercise the max-length window)."""
    import ray.data

    from feast_ray.stages.join import interval_join

    ldf = pd.DataFrame(lrows, columns=["u", "pt"])
    ldf["eid"] = np.arange(len(ldf))
    rdf = pd.DataFrame(rrows, columns=["u", "s", "w"])
    rdf["e"] = rdf["s"] + rdf["w"]
    rdf["rid"] = np.arange(len(rdf))
    rdf = rdf.drop(columns=["w"])
    got = interval_join(
        ray.data.from_pandas(ldf), rdf,
        left_point="pt", right_start="s", right_end="e", by="u",
    ).to_pandas()
    m = ldf.merge(rdf, on="u")
    exp = (
        m[(m.pt >= m.s) & (m.pt < m.e)]
        .sort_values(["eid", "rid"]).reset_index(drop=True)
    )
    assert len(got) == len(exp)
    if len(exp) == 0:
        return
    got = got.sort_values(["eid", "rid"]).reset_index(drop=True)
    assert list(got["eid"]) == list(exp["eid"])
    assert list(got["rid"]) == list(exp["rid"])


@st.composite
def doc_frames(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    vocab = ["aa", "bb", "cc", "dd", "ee", "ff"]
    texts = [
        " ".join(
            draw(
                st.lists(st.sampled_from(vocab), min_size=0, max_size=12)
            )
        )
        for _ in range(n)
    ]
    return pd.DataFrame({"doc_id": range(n), "text": texts})


@settings(max_examples=10, deadline=None, suppress_health_check=list(HealthCheck))
@given(doc_frames())
def test_spandup_matches_reference_implementation(df):
    """Engine output == a direct single-process reimplementation of the
    documented semantics, for arbitrary corpora (incl. heavy overlap,
    empty docs, sub-n docs)."""
    import ray.data

    from feast_ray.functions.spandup import remove_duplicate_spans

    n = 3
    # reference: dup grams (>=2 distinct docs), survivor = min doc
    occ = {}
    toks = {int(r.doc_id): r.text.split() for r in df.itertuples()}
    for d, ws in toks.items():
        for i in range(max(0, len(ws) - n + 1)):
            g = " ".join(ws[i : i + n])
            occ.setdefault(g, set()).add(d)
    dup = {g: min(ds_) for g, ds_ in occ.items() if len(ds_) >= 2}
    expect = {}
    for d, ws in toks.items():
        covered = [False] * len(ws)
        for i in range(max(0, len(ws) - n + 1)):
            g = " ".join(ws[i : i + n])
            if g in dup and dup[g] != d:
                for j in range(i, i + n):
                    covered[j] = True
        expect[d] = " ".join(w for w, c in zip(ws, covered) if not c)
    out = (
        remove_duplicate_spans(
            ray.data.from_pandas(df).repartition(3), "doc_id", "text", n=n
        )
        .to_pandas()
        .set_index("doc_id")["text_despanned"]
        .to_dict()
    )
    assert {int(k): v for k, v in out.items()} == expect


@settings(max_examples=10, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    st.lists(st.text(alphabet="abc:/.0123456789", min_size=0, max_size=20),
             min_size=1, max_size=30),
    st.integers(min_value=8, max_value=12),  # log2(m_bits) ≥ 64*segments
)
def test_bloom_membership_matches_positions(keys, logm):
    """No false negatives ever; membership == all-k-bits-set against
    the union of corpus positions, for arbitrary keys and filter
    sizes."""
    import ray.data

    from feast_ray.functions.bloom import bloom_build, bloom_positions

    m = 1 << logm
    df = pd.DataFrame({"k": keys})
    bf = bloom_build(
        ray.data.from_pandas(df).repartition(2), "k", m_bits=m, k=3,
        num_segments=2,
    )
    posset = set(bloom_positions(keys, m, 3).ravel().tolist())
    probe = keys + ["zz" + k for k in keys]
    got = bf.contains(probe)
    want = [
        all(int(p) in posset for p in row)
        for row in bloom_positions(probe, m, 3)
    ]
    assert got.tolist() == want
    assert got[: len(keys)].all()  # corpus keys always members


def _int_range(bits, signed=True):
    if signed:
        return st.integers(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    return st.integers(0, (1 << bits) - 1)


#: key type → (value strategy, the canonical type ``_hash_keys`` hashes it as)
_KEY_TYPES = {
    "int8": (_int_range(8), "int64"),
    "int16": (_int_range(16), "int64"),
    "int32": (_int_range(32), "int64"),
    "int64": (_int_range(64), "int64"),
    "uint32": (_int_range(32, signed=False), "int64"),
    "bool": (st.booleans(), "int64"),
    "float32": (st.floats(width=32), "float64"),
    "float64": (st.floats(), "float64"),
    "string": (st.text(max_size=6), "string"),
    "large_string": (st.text(max_size=6), "string"),
    "dictionary": (st.text(max_size=6), "string"),
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_KEY_TYPES)), st.booleans(), st.data())
def test_key_hash_depends_on_the_value_alone(name, with_nulls, data):
    """For every key type, with and without nulls in the block, a value
    hashes as the same value does in a null-free column of the
    canonical type, and a null as a null of the canonical type."""
    import pyarrow as pa

    from feast_ray.stages.dedup import _hash_keys

    values, canonical = _KEY_TYPES[name]
    elems = st.one_of(st.none(), values) if with_nulls else values
    vals = data.draw(st.lists(elems, max_size=20))
    if name == "dictionary":
        col = pa.array(vals, pa.string()).dictionary_encode()
    else:
        col = pa.array(vals, pa.bool_() if name == "bool" else getattr(pa, name)())
    h = _hash_keys(pa.table({"k": col}), ["k"])
    canonical = getattr(pa, canonical)()
    valid = [int(v) if name == "bool" else v for v in vals if v is not None]
    ref = _hash_keys(pa.table({"k": pa.array(valid, canonical)}), ["k"])
    null_ref = _hash_keys(pa.table({"k": pa.nulls(1, canonical)}), ["k"])
    is_null = np.array([v is None for v in vals], dtype=bool)
    assert (h[~is_null] == ref).all()
    assert (h[is_null] == null_ref).all()
