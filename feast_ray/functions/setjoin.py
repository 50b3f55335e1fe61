"""Exact token-set similarity self-join (Jaccard ≥ τ) via prefix
filtering.

The EXACT companion to the MinHash/SimHash approximations in
``neardup.py``: every pair of docs whose distinct-token sets have
Jaccard ≥ τ, no false negatives, no n² cross product. Method: the
prefix-filter principle of All-Pairs / PPJoin (Bayardo, Ma, Srikant
WWW 2007; Xiao, Wang, Lin, Yu WWW 2008) — order every set by one
GLOBAL token order (rarest-first: ascending document frequency, ties
by token); a set of size s gets a prefix of its first
``s − ⌈τ·s⌉ + 1`` tokens; two sets with Jaccard ≥ τ MUST share a
prefix token, so only prefix-token collisions become candidates.

Exchanges: one tiny df aggregate (vocabulary-bounded, broadcast —
the rarest-first order), one on the prefix token (candidate
generation), one on the pair key (dedup + exact verify). The verify
compares ``100·|A∩B| ≥ τ₁₀₀·|A∪B|`` in INTEGERS — bit-exact against
the SQL restatement, no float threshold drift.

Skew note: a stop-word prefix token collects many sets — rarest-first
ordering makes prefixes the LEAST frequent tokens precisely to keep
those buckets small; residual hot buckets would size-gate to the
star-pattern doctrine of ``neardup.py``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from feast_ray.functions.tfidf import _doc_terms


def _doc_shingles(tbl: pa.Table, id_col: str, text_col: str,
                  k: int) -> pd.DataFrame:
    """(doc_id, term) rows of DISTINCT word k-shingles (raw
    whitespace split, NOT lowercased — the MinHash feature space of
    ``neardup._shingle_hashes``); a doc with < k words contributes its
    whole text as its single shingle, mirroring the same fallback."""
    ids = tbl[id_col].to_pylist()
    texts = tbl[text_col].to_pylist()
    out_ids: list = []
    out_terms: list = []
    for i, t in zip(ids, texts):
        words = t.split()
        sh = ({t} if len(words) < k else
              {" ".join(words[j:j + k]) for j in range(len(words) - k + 1)})
        out_ids.extend([i] * len(sh))
        out_terms.extend(sh)
    return pd.DataFrame({"doc_id": out_ids, "term": out_terms})


def jaccard_self_join(
    ds: ray.data.Dataset,
    tau100: int,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_k: "int | None" = None,
) -> ray.data.Dataset:
    """Dataset(id1, id2, inter, uni) for pairs id1 < id2 with
    100·inter ≥ tau100·uni over distinct lowercase whitespace tokens
    (the q59 tokenization doctrine). ``tau100`` is the threshold in
    integer percent (85 = 0.85). ``shingle_k`` switches the feature
    space to raw word k-shingles (``_doc_shingles``) — the exact
    companion of the MinHash signature space, used by the q198
    detector-evaluation harness."""
    if not (0 < tau100 <= 100):
        raise ValueError("tau100 in (0, 100]")
    from feast_ray.stages.aggregate import AggSpec, grouped_agg
    from feast_ray.stages.dedup import bucketed_group_reduce

    def _pairs_tbl(tbl: pa.Table) -> pa.Table:
        d = (_doc_terms(tbl, id_col, text_col) if shingle_k is None
             else _doc_shingles(tbl, id_col, text_col, shingle_k))
        return pa.table({
            "term": pa.array(d["term"].to_numpy(dtype=object), pa.string()),
            "doc_id": pa.array(d["doc_id"].to_numpy(), pa.int64()),
        })

    pairs = ds.map_batches(_pairs_tbl, batch_format="pyarrow").materialize()
    dfs = grouped_agg(pairs, ["term"],
                      [AggSpec(None, "count", "df")]).to_pandas()
    # global rarest-first total order: (df asc, term asc) -> dense rank
    dfs = dfs.sort_values(["df", "term"], kind="stable").reset_index(drop=True)
    order_ref = ray.put(dict(zip(dfs["term"], np.arange(len(dfs),
                                                        dtype=np.int64))))

    def _prefix(df: pd.DataFrame) -> pd.DataFrame:
        """per doc: sorted token-rank array + its prefix tokens."""
        if not len(df):
            return pd.DataFrame({
                "ptok": pd.Series([], dtype="int64"),
                "doc_id": pd.Series([], dtype="int64"),
                "toks": pd.Series([], dtype=object),
            })
        lut = ray.get(order_ref)
        df = df.assign(rank=df["term"].map(lut).astype("int64"))
        df = df.sort_values(["doc_id", "rank"], kind="stable")
        ranks = df["rank"].to_numpy()
        docs = df["doc_id"].to_numpy()
        sizes = df.groupby("doc_id", sort=False).size().to_numpy()
        # plain lists, not ndarrays: Ray's pandas->Arrow block codec
        # treats ndarray-valued object columns as (ragged) tensors
        arrs = np.empty(len(sizes), dtype=object)
        for k, a in enumerate(np.split(ranks, np.cumsum(sizes)[:-1])):
            arrs[k] = a.tolist()
        plens = sizes - (-(-tau100 * sizes // 100)) + 1  # s − ⌈τ·s⌉ + 1
        within = np.arange(len(ranks)) - np.repeat(
            np.cumsum(sizes) - sizes, sizes)
        keep = within < np.repeat(plens, sizes)
        grp = np.repeat(np.arange(len(sizes)), sizes)
        return pd.DataFrame({
            "ptok": ranks[keep],
            "doc_id": docs[keep],
            "toks": arrs[grp[keep]],
        })

    # doc -> one row: _pairs_tbl output already has a doc's terms
    # within one block (a doc's text is one input row), so the prefix
    # emit runs block-local, no exchange
    pref = pairs.map_batches(_prefix, batch_format="pandas")

    def _cands(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("ptok", sort=False):
            u = g.drop_duplicates("doc_id")
            if len(u) < 2:
                continue
            ids = u["doc_id"].to_numpy()
            tk = u["toks"].to_numpy(dtype=object)
            o = np.argsort(ids, kind="stable")
            ids, tk = ids[o], tk[o]
            i, j = np.triu_indices(len(ids), k=1)
            outs.append(pd.DataFrame({
                "id1": ids[i], "id2": ids[j], "t1": tk[i], "t2": tk[j]}))
        if not outs:
            return pd.DataFrame({
                "id1": pd.Series([], dtype="int64"),
                "id2": pd.Series([], dtype="int64"),
                "t1": pd.Series([], dtype=object),
                "t2": pd.Series([], dtype=object)})
        return pd.concat(outs, ignore_index=True)

    cand = bucketed_group_reduce(pref, ["ptok"], _cands)

    def _verify(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["id1", "id2"])
        if not len(df):
            return pd.DataFrame({
                "id1": pd.Series([], dtype="int64"),
                "id2": pd.Series([], dtype="int64"),
                "inter": pd.Series([], dtype="int64"),
                "uni": pd.Series([], dtype="int64")})
        inter = np.fromiter(
            (len(np.intersect1d(a, b, assume_unique=True))
             for a, b in zip(df["t1"], df["t2"])),
            np.int64, len(df))
        uni = (np.fromiter((len(a) for a in df["t1"]), np.int64, len(df))
               + np.fromiter((len(b) for b in df["t2"]), np.int64, len(df))
               - inter)
        keep = 100 * inter >= tau100 * uni
        return pd.DataFrame({
            "id1": df["id1"].to_numpy()[keep],
            "id2": df["id2"].to_numpy()[keep],
            "inter": inter[keep],
            "uni": uni[keep],
        }).astype("int64")

    return bucketed_group_reduce(cand, ["id1", "id2"], _verify)


def containment_self_join(
    ds: ray.data.Dataset,
    tau100: int,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_tokens: int = 10,
) -> ray.data.Dataset:
    """Directed token-set CONTAINMENT join: Dataset(probe_id, host_id,
    inter, sz) for ordered pairs probe ≠ host with
    ``100·|P∩H| ≥ tau100·|P|`` and ``|P| ≥ min_tokens`` — the
    quote/subset detector Jaccard misses (a paragraph embedded in a
    10× larger page scores near-zero Jaccard but 100% containment).

    Asymmetric prefix filter (the containment variant of the All-Pairs
    bound): a probe set of size s can miss at most ``s − ⌈τ·s⌉``
    tokens, so its rarest-first prefix of ``s − ⌈τ·s⌉ + 1`` tokens
    must hit the host — the HOST side indexes ALL its tokens, the
    probe side only its prefix. Rarest-first ordering keeps the
    candidate buckets small exactly where host postings are long: a
    stop-word's posting list is huge but almost no probe PREFIX
    contains it. Verify recomputes |P∩H| exactly in integers."""
    if not (0 < tau100 <= 100):
        raise ValueError("tau100 in (0, 100]")
    from feast_ray.stages.aggregate import AggSpec, grouped_agg
    from feast_ray.stages.dedup import bucketed_group_reduce

    def _pairs_tbl(tbl: pa.Table) -> pa.Table:
        d = _doc_terms(tbl, id_col, text_col)
        return pa.table({
            "term": pa.array(d["term"].to_numpy(dtype=object), pa.string()),
            "doc_id": pa.array(d["doc_id"].to_numpy(), pa.int64()),
        })

    pairs = ds.map_batches(_pairs_tbl, batch_format="pyarrow").materialize()
    dfs = grouped_agg(pairs, ["term"],
                      [AggSpec(None, "count", "df")]).to_pandas()
    dfs = dfs.sort_values(["df", "term"], kind="stable").reset_index(drop=True)
    order_ref = ray.put(dict(zip(dfs["term"], np.arange(len(dfs),
                                                        dtype=np.int64))))

    def _emit(side: str):
        probe = side == "probe"

        def _fn(df: pd.DataFrame) -> pd.DataFrame:
            if not len(df):
                return pd.DataFrame({
                    "ptok": pd.Series([], dtype="int64"),
                    "doc_id": pd.Series([], dtype="int64"),
                    "toks": pd.Series([], dtype=object)})
            lut = ray.get(order_ref)
            df = df.assign(rank=df["term"].map(lut).astype("int64"))
            df = df.sort_values(["doc_id", "rank"], kind="stable")
            ranks = df["rank"].to_numpy()
            docs = df["doc_id"].to_numpy()
            sizes = df.groupby("doc_id", sort=False).size().to_numpy()
            arrs = np.empty(len(sizes), dtype=object)
            for k, a in enumerate(np.split(ranks, np.cumsum(sizes)[:-1])):
                arrs[k] = a.tolist()
            grp = np.repeat(np.arange(len(sizes)), sizes)
            if probe:
                plens = sizes - (-(-tau100 * sizes // 100)) + 1
                within = np.arange(len(ranks)) - np.repeat(
                    np.cumsum(sizes) - sizes, sizes)
                keep = (within < np.repeat(plens, sizes)) & (
                    np.repeat(sizes, sizes) >= min_tokens)
            else:
                keep = np.ones(len(ranks), dtype=bool)
            return pd.DataFrame({
                "ptok": ranks[keep],
                "doc_id": docs[keep],
                "toks": arrs[grp[keep]],
            })

        return _fn

    pref = pairs.map_batches(_emit("probe"), batch_format="pandas")
    host = pairs.map_batches(_emit("host"), batch_format="pandas")

    def _tag(side: int):
        def _fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "side", pa.array(np.full(len(t), side, dtype=np.int8)))
        return _fn

    both = pref.map_batches(_tag(0), batch_format="pyarrow").union(
        host.map_batches(_tag(1), batch_format="pyarrow"))

    def _cands(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("ptok", sort=False):
            p = g[g["side"] == 0].drop_duplicates("doc_id")
            h = g[g["side"] == 1].drop_duplicates("doc_id")
            if not len(p) or not len(h):
                continue
            m = p.merge(h, how="cross", suffixes=("_p", "_h"))
            m = m[m["doc_id_p"] != m["doc_id_h"]]
            if len(m):
                outs.append(pd.DataFrame({
                    "probe_id": m["doc_id_p"].to_numpy(),
                    "host_id": m["doc_id_h"].to_numpy(),
                    "tp": m["toks_p"].to_numpy(dtype=object),
                    "th": m["toks_h"].to_numpy(dtype=object)}))
        if not outs:
            return pd.DataFrame({
                "probe_id": pd.Series([], dtype="int64"),
                "host_id": pd.Series([], dtype="int64"),
                "tp": pd.Series([], dtype=object),
                "th": pd.Series([], dtype=object)})
        return pd.concat(outs, ignore_index=True)

    cand = bucketed_group_reduce(both, ["ptok"], _cands)

    def _verify(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["probe_id", "host_id"])
        if not len(df):
            return pd.DataFrame({
                "probe_id": pd.Series([], dtype="int64"),
                "host_id": pd.Series([], dtype="int64"),
                "inter": pd.Series([], dtype="int64"),
                "sz": pd.Series([], dtype="int64")})
        inter = np.fromiter(
            (len(np.intersect1d(a, b, assume_unique=True))
             for a, b in zip(df["tp"], df["th"])),
            np.int64, len(df))
        sz = np.fromiter((len(a) for a in df["tp"]), np.int64, len(df))
        keep = 100 * inter >= tau100 * sz
        return pd.DataFrame({
            "probe_id": df["probe_id"].to_numpy()[keep],
            "host_id": df["host_id"].to_numpy()[keep],
            "inter": inter[keep],
            "sz": sz[keep],
        }).astype("int64")

    return bucketed_group_reduce(cand, ["probe_id", "host_id"], _verify)
