"""Inverted index / BM25 / ed-1 fuzzy join / ORC source."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd


def _lev(a: str, b: str) -> int:
    if len(a) > len(b):
        a, b = b, a
    prev = list(range(len(a) + 1))
    for j, cb in enumerate(b, 1):
        cur = [j] + [0] * len(a)
        for i, ca in enumerate(a, 1):
            cur[i] = min(prev[i] + 1, cur[i - 1] + 1, prev[i - 1] + (ca != cb))
        prev = cur
    return prev[-1]


def _docs(n=60, seed=3):
    rng = np.random.default_rng(seed)
    words = ["hash", "join", "scan", "sort", "merge", "row", "key"]
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": [" ".join(rng.choice(words, 1 + int(rng.integers(3, 15))))
                 for _ in range(n)],
    })


def test_inverted_index_matches_pandas_and_partitioning(force_buckets):
    force_buckets(4)
    from feast_ray.functions.search import build_inverted_index

    df = _docs()
    ref = (
        df.assign(term=df["text"].str.lower().str.split())
        .explode("term")
        .drop_duplicates(["doc_id", "term"])
        .groupby("term")["doc_id"]
        .apply(lambda s: sorted(s))
    )
    for parts in (2, 7):
        out = build_inverted_index(
            rd.from_pandas(df).repartition(parts), min_df=1
        ).to_pandas().set_index("term")
        assert set(out.index) == set(ref.index)
        for term, postings in ref.items():
            assert list(out.loc[term, "postings"]) == postings
            assert out.loc[term, "df"] == len(postings)


def test_inverted_index_min_df():
    from feast_ray.functions.search import build_inverted_index

    df = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "text": ["common rare1", "common", "common rare2", "common"],
    })
    out = build_inverted_index(rd.from_pandas(df), min_df=2).to_pandas()
    assert list(out["term"]) == ["common"]


def test_bm25_matches_sequential_reference():
    from feast_ray.functions.search import bm25_topk

    import math

    df = _docs(n=80, seed=9)
    terms = ["hash", "join"]
    # sequential reference with identical float ops
    toks = [t.lower().split() for t in df["text"]]
    n_docs = len(df)
    avgdl = float(sum(len(x) for x in toks)) / n_docs
    dfs = {t: sum(t in set(x) for x in toks) for t in terms}
    scores = {}
    for i, tk in enumerate(toks):
        s = 0
        for t in terms:
            tf = tk.count(t)
            if not tf:
                continue
            idf = math.log((n_docs - dfs[t] + 0.5) / (dfs[t] + 0.5) + 1.0)
            v = idf * ((tf * (1.2 + 1.0))
                       / (tf + 1.2 * ((1.0 - 0.75) + 0.75 * (len(tk) / avgdl))))
            s += int(np.floor(v * 1e9 + 0.5))
        if s:
            scores[i] = s
    ref = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    for parts in (2, 6):
        out = bm25_topk(rd.from_pandas(df).repartition(parts), terms,
                        k=10).to_pandas()
        assert list(zip(out["doc_id"], out["score_n"])) == ref


def test_ed1_join_matches_brute_force(force_buckets):
    force_buckets(4)
    from feast_ray.functions.fuzzyjoin import ed1_self_join

    vocab = ["kitten", "sitting", "kitchen", "mitten", "mittens", "bitten",
             "abc", "abd", "ab", "a", "", "héllo", "hallo", "hell", "shell"]
    strs = [vocab[i % len(vocab)] + ("x" if i % 7 == 0 else "")
            for i in range(70)]
    df = pd.DataFrame({"doc_id": np.arange(70, dtype=np.int64), "s": strs})
    ref = pd.DataFrame(
        [(i, j, _lev(strs[i], strs[j]))
         for i in range(70) for j in range(i + 1, 70)
         if _lev(strs[i], strs[j]) <= 1],
        columns=["id1", "id2", "ed"],
    ).astype("int64")
    for parts in (3, 8):
        out = (
            ed1_self_join(rd.from_pandas(df).repartition(parts),
                          "doc_id", "s")
            .to_pandas().sort_values(["id1", "id2"]).reset_index(drop=True)
        )
        assert out.equals(ref)


def test_orc_round_trip_and_pruning(tmp_path):
    import pyarrow.orc as paorc

    from feast_ray.sources.orc import read_orc, write_orc

    t = pa.table({
        "a": pa.array(np.arange(50000, dtype=np.int64)),
        "b": pa.array(np.arange(50000) * 0.5),
        "c": pa.array([f"s{i % 7}" for i in range(50000)]),
    })
    write_orc(t, str(tmp_path / "f1.orc"), stripe_size=1 << 17)
    write_orc(t.slice(0, 300), str(tmp_path / "f2.orc"))
    assert paorc.ORCFile(str(tmp_path / "f1.orc")).nstripes > 1
    out = read_orc(str(tmp_path), columns=["a", "c"]).to_pandas()
    assert len(out) == 50300 and list(out.columns) == ["a", "c"]
    assert out["a"].sum() == t["a"].to_pandas().sum() + t["a"].to_pandas()[:300].sum()
    full = read_orc(str(tmp_path / "f2.orc")).to_pandas()
    assert full.equals(t.slice(0, 300).to_pandas())
    with pytest.raises(FileNotFoundError):
        read_orc(str(tmp_path / "nope_dir_without_orc" ))


def test_positional_index_and_phrase(force_buckets):
    force_buckets(2)
    from feast_ray.functions.search import build_positional_index, phrase_search

    df = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": [
            "hash join hash join join",   # overlap-ish: 2 occurrences
            "join hash",                   # 0
            "hash  join",                  # whitespace collapse: 1
            "nothing here",                # 0 (terms absent)
            "hash join",                   # 1
        ],
    })
    ds = rd.from_pandas(df).repartition(3)
    idx = build_positional_index(ds, terms=["hash", "join"]).to_pandas()
    row = idx[(idx.term == "hash") & (idx.doc_id == 0)].iloc[0]
    assert list(row["positions"]) == [0, 2]
    out = (phrase_search(ds, ["hash", "join"])
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert list(zip(out["doc_id"], out["n_phrase"])) == [(0, 2), (2, 1), (4, 1)]
    with pytest.raises(ValueError):
        phrase_search(ds, ["solo"])


def test_phrase_three_tokens_counts_overlaps(force_buckets):
    force_buckets(2)
    from feast_ray.functions.search import phrase_search

    df = pd.DataFrame({
        "doc_id": np.array([0], dtype=np.int64),
        "text": ["a b a b a b a"],  # "a b a": positions 0, 2, 4
    })
    out = phrase_search(rd.from_pandas(df), ["a", "b", "a"]).to_pandas()
    assert list(zip(out["doc_id"], out["n_phrase"])) == [(0, 3)]


def test_dictionary_tag_matches_pandas():
    from feast_ray.functions.search import dictionary_tag

    df = _docs(n=40, seed=5)
    pats = ["hash join", "sort", "zzz none"]
    out = (dictionary_tag(rd.from_pandas(df).repartition(4), pats)
           .to_pandas().sort_values(["doc_id", "pattern"])
           .reset_index(drop=True))
    norm = df["text"].str.lower().str.replace(r"\s+", " ", regex=True).str.strip()
    ref = []
    for p in sorted(set(pats)):
        for i, t in zip(df["doc_id"], norm):
            if p in t:
                ref.append((i, p))
    ref = pd.DataFrame(sorted(ref), columns=["doc_id", "pattern"])
    assert list(out["doc_id"]) == list(ref["doc_id"])
    assert list(out["pattern"]) == list(ref["pattern"])


def test_funnel_matches_brute_force(force_buckets):
    force_buckets(3)
    from feast_ray.functions.funnel import funnel_converted_users

    rng = np.random.default_rng(21)
    n = 800
    df = pd.DataFrame({
        "user_id": rng.integers(0, 25, n).astype(np.int64),
        "event_type": rng.choice(["view", "click", "purchase", "other"], n),
        "ts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.integers(0, 86400 * 5, n), unit="s"),
    })
    W = 3600.0 * 6
    out = (funnel_converted_users(
        rd.from_pandas(df).repartition(5),
        ["view", "click", "purchase"], W)
        .to_pandas()["user_id"].sort_values().tolist())
    ref = []
    for uid, g in df.groupby("user_id"):
        a = g[g.event_type == "view"]["ts"].to_numpy()
        b = g[g.event_type == "click"]["ts"].to_numpy()
        c = g[g.event_type == "purchase"]["ts"].to_numpy()
        hit = any(
            t1 < t2 < t3 and (t3 - t1) <= np.timedelta64(int(W * 1e9), "ns")
            for t1 in a for t2 in b for t3 in c)
        if hit:
            ref.append(int(uid))
    assert out == sorted(ref)
    with pytest.raises(ValueError):
        funnel_converted_users(rd.from_pandas(df), ["view", "click"], W)


def test_jaccard_join_matches_brute_force(force_buckets):
    force_buckets(4)
    from feast_ray.functions.setjoin import jaccard_self_join

    rng = np.random.default_rng(4)
    words = [f"w{i}" for i in range(20)]
    docs = pd.DataFrame({
        "doc_id": np.arange(120, dtype=np.int64),
        "text": [" ".join(rng.choice(words, int(rng.integers(5, 18))))
                 for _ in range(120)],
    })
    sets = [set(t.lower().split()) for t in docs["text"]]
    for tau in (50, 70, 100):
        ref = pd.DataFrame(
            [(i, j, len(sets[i] & sets[j]), len(sets[i] | sets[j]))
             for i in range(120) for j in range(i + 1, 120)
             if 100 * len(sets[i] & sets[j]) >= tau * len(sets[i] | sets[j])],
            columns=["id1", "id2", "inter", "uni"]).astype("int64")
        out = jaccard_self_join(
            rd.from_pandas(docs).repartition(5), tau
        ).to_pandas()
        if not len(ref):
            # all-empty reduces lose the schema (exchange-wide
            # convention) — emptiness is the assertion
            assert len(out) == 0, f"tau={tau}"
            continue
        out = out.sort_values(["id1", "id2"]).reset_index(drop=True)
        assert out.equals(ref), f"tau={tau}"
    with pytest.raises(ValueError):
        jaccard_self_join(rd.from_pandas(docs), 0)


def test_triangle_count_matches_brute_force(force_buckets):
    force_buckets(4)
    from feast_ray.functions.graphrank import triangle_count

    rng = np.random.default_rng(7)
    edges = pd.DataFrame({
        "src": rng.integers(0, 40, 500).astype(np.int64),
        "dst": rng.integers(0, 40, 500).astype(np.int64),
    })
    E = {(min(s, d), max(s, d))
         for s, d in zip(edges["src"], edges["dst"]) if s != d}
    adj = {}
    for u, v in E:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    tri = sum(len(adj[u] & adj[v]) for u, v in E) // 3
    for parts in (2, 6):
        res = triangle_count(rd.from_pandas(edges).repartition(parts)).to_pandas()
        assert res.iloc[0]["n_edges"] == len(E)
        assert res.iloc[0]["n_triangles"] == tri


def test_scd2_intervals_matches_pandas(force_buckets):
    force_buckets(3)
    from feast_ray.stages.relational import scd2_intervals

    rng = np.random.default_rng(11)
    n = 400
    ev = pd.DataFrame({
        "user_id": rng.integers(0, 12, n).astype(np.int64),
        "event_type": rng.choice(["a", "b", "c"], n),
        "ts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.permutation(n) * 61, unit="s"),
        "event_id": np.arange(n, dtype=np.int64),
    })
    out = (scd2_intervals(
        rd.from_pandas(ev).repartition(4), ["user_id"],
        ["ts", "event_id"], "event_type")
        .to_pandas().sort_values(["user_id", "valid_from"])
        .reset_index(drop=True))
    refr = []
    for uid, g in ev.sort_values(["ts", "event_id"]).groupby("user_id"):
        rows, prev = [], None
        for _, r in g.iterrows():
            if prev is None or r["event_type"] != prev:
                rows.append([uid, r["event_type"], r["ts"], pd.NaT])
            prev = r["event_type"]
        for k in range(len(rows) - 1):
            rows[k][3] = rows[k + 1][2]
        refr.extend(rows)
    ref = (pd.DataFrame(refr,
           columns=["user_id", "event_type", "valid_from", "valid_to"])
           .sort_values(["user_id", "valid_from"]).reset_index(drop=True))
    assert len(out) == len(ref)
    assert (out["event_type"] == ref["event_type"]).all()
    assert (out["valid_from"] == ref["valid_from"]).all()
    assert out["valid_to"].fillna(pd.Timestamp(0)).equals(
        ref["valid_to"].fillna(pd.Timestamp(0)))
    # every user's intervals tile: valid_to of row k == valid_from k+1
    for _, g in out.groupby("user_id"):
        assert (g["valid_to"].iloc[:-1].to_numpy()
                == g["valid_from"].iloc[1:].to_numpy()).all()
        assert pd.isna(g["valid_to"].iloc[-1])


def test_priority_sample_deterministic_and_weighted():
    from feast_ray.functions.neardup import _splitmix64
    from feast_ray.functions.sampling import priority_sample

    rng = np.random.default_rng(29)
    n = 2000
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        # two weight classes: heavy rows 100x more likely
        "w": np.where(np.arange(n) % 10 == 0, 1000, 10).astype(np.int64),
    })
    outs = []
    for parts in (3, 9):
        out = (priority_sample(
            rd.from_pandas(df).repartition(parts), 50, "w")
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
        outs.append(out)
    # partition-invariant
    assert outs[0].equals(outs[1])
    # matches the sequential definition exactly
    h = _splitmix64(df["doc_id"].to_numpy().view(np.uint64).copy())
    u = h.astype(np.float64) / 2.0**64
    pri = df["w"].to_numpy(np.float64) / u
    ref_ids = (pd.DataFrame({"doc_id": df["doc_id"], "pri": pri})
               .sort_values(["pri", "doc_id"], ascending=[False, True])
               .head(50)["doc_id"].sort_values().tolist())
    assert outs[0]["doc_id"].tolist() == ref_ids
    # weighting bites: heavy rows (10% of corpus) dominate the sample
    heavy = (outs[0]["doc_id"] % 10 == 0).mean()
    assert heavy > 0.6, heavy


def test_ipc_round_trip_and_batch_parallelism(tmp_path):
    import pyarrow.ipc as paipc

    from feast_ray.sources.orc import read_ipc, write_ipc

    t = pa.table({
        "a": pa.array(np.arange(10000, dtype=np.int64)),
        "b": pa.array([f"v{i % 5}" for i in range(10000)]),
    })
    write_ipc(t, str(tmp_path / "f1.arrow"), max_chunksize=1024)
    write_ipc(t.slice(0, 100), str(tmp_path / "f2.arrow"))
    with paipc.open_file(str(tmp_path / "f1.arrow")) as r:
        assert r.num_record_batches == 10
    out = read_ipc(str(tmp_path), columns=["a"]).to_pandas()
    assert len(out) == 10100 and list(out.columns) == ["a"]
    assert out["a"].sum() == t["a"].to_pandas().sum() + 4950
    full = read_ipc(str(tmp_path / "f2.arrow")).to_pandas()
    assert full.equals(t.slice(0, 100).to_pandas())
    with pytest.raises(FileNotFoundError):
        read_ipc(str(tmp_path / "missing.arrow"))


def test_containment_join_matches_brute_force(force_buckets):
    force_buckets(4)
    from feast_ray.functions.setjoin import containment_self_join

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(24)]
    docs = pd.DataFrame({
        "doc_id": np.arange(100, dtype=np.int64),
        "text": [" ".join(rng.choice(words, int(rng.integers(3, 20))))
                 for _ in range(100)],
    })
    sets = [set(t.lower().split()) for t in docs["text"]]
    for tau, mn in ((60, 1), (80, 5), (100, 3)):
        ref = pd.DataFrame(
            [(i, j, len(sets[i] & sets[j]), len(sets[i]))
             for i in range(100) for j in range(100)
             if i != j and len(sets[i]) >= mn
             and 100 * len(sets[i] & sets[j]) >= tau * len(sets[i])],
            columns=["probe_id", "host_id", "inter", "sz"]).astype("int64")
        ref = ref.sort_values(["probe_id", "host_id"]).reset_index(drop=True)
        out = containment_self_join(
            rd.from_pandas(docs).repartition(5), tau,
            min_tokens=mn).to_pandas()
        if not len(ref):
            assert len(out) == 0, f"tau={tau}"
            continue
        out = out.sort_values(["probe_id", "host_id"]).reset_index(drop=True)
        assert out.equals(ref), f"tau={tau} mn={mn}"
    with pytest.raises(ValueError):
        containment_self_join(rd.from_pandas(docs), 101)
