"""Full-text retrieval primitives: distributed inverted index and
BM25 ranked search.

The keyword-retrieval side of a training-data pipeline (the dense
side is ``functions/similarity.py`` / ``hnsw.py``): decontamination
lookups, targeted corpus carving ("every doc mentioning X"), and the
lexical arm of hybrid RAG retrieval. The reference has no analog
(SURVEY.md §2 extension surface); tokenization reuses the exact
``tfidf._doc_terms`` doctrine (lowercase, whitespace split) so the
SQL restatement is shared.

Scale design:

* **index build** — each block explodes docs to distinct
  (term, doc_id) pairs (a doc's text is one row, so its postings
  contribution never crosses blocks); ONE bucketed exchange on term
  co-locates each term's pairs; the reducer emits (term, df, sorted
  postings ``list<int64>``). The shuffle carries thin pairs, never
  text. Partitioning assumption (documented, same as every bucketed
  op): one TERM's postings fit a worker — stopword-scale terms at
  100 TB are the skew case and would be segment-split (the
  ``bloom.py`` segment doctrine); the gate corpus vocabulary is
  bounded so the plain shape is exact and fast.
* **BM25 search** — zero shuffles: df for the ≤ tens of query terms
  and the corpus scalars (N, avgdl) are tiny aggregates collected
  once and broadcast; scoring is then a single streaming pass where
  each block computes its docs' complete scores in-block (tf and dl
  are per-doc, a doc is one row). The global top-k merges per-block
  top-k candidates.

Determinism doctrine: idf uses ``math.log`` per DISTINCT df (libm —
bit-identical to DuckDB's ``ln``, the tfidf.py rule); the per-term
float score quantizes to int64 nano-units via ``floor(x·1e9 + 0.5)``
(same ops in the SQL oracle) BEFORE the per-doc sum, so the sum is
integer and order-free.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from feast_ray.functions.tfidf import _doc_terms


def _id_array(values) -> "pa.Array":
    """Arrow array for a doc-id column of any dtype (int keys in the
    gate tables, string urls in the page corpus)."""
    import numpy as _np

    v = _np.asarray(values)
    if v.dtype == object or v.dtype.kind in "SU":
        return pa.array(v.astype(object), pa.string())
    return pa.array(v.astype(_np.int64), pa.int64())


def build_inverted_index(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_df: int = 1,
) -> ray.data.Dataset:
    """Dataset(term, df, postings list<int64> ascending) — see module
    docstring for the shuffle shape. ``min_df`` drops hapax noise
    before the output (AFTER the exact df count)."""
    from feast_ray.stages.dedup import bucketed_group_reduce

    def _pairs(tbl: pa.Table) -> pa.Table:
        d = _doc_terms(tbl, id_col, text_col)
        return pa.table({
            "term": pa.array(d["term"].to_numpy(dtype=object), pa.string()),
            "doc_id": _id_array(d["doc_id"].to_numpy()),
        })

    pairs = ds.map_batches(_pairs, batch_format="pyarrow")

    def _reduce(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "term": pd.Series([], dtype=object),
                "df": pd.Series([], dtype="int64"),
                "postings": pd.Series([], dtype=object),
            })
        rows = []
        for term, g in df.groupby("term", sort=False):
            post = np.sort(g["doc_id"].to_numpy())
            if len(post) >= min_df:
                rows.append((term, len(post), post.tolist()))
        if not rows:
            return pd.DataFrame({
                "term": pd.Series([], dtype=object),
                "df": pd.Series([], dtype="int64"),
                "postings": pd.Series([], dtype=object),
            })
        out = pd.DataFrame(rows, columns=["term", "df", "postings"])
        out["df"] = out["df"].astype("int64")
        return out

    return bucketed_group_reduce(pairs, ["term"], _reduce)


def postings_digest(index: ray.data.Dataset) -> ray.data.Dataset:
    """(term, df, postings_md5) — md5 of the comma-joined ascending
    postings, the compact value-check of full index content (DuckDB:
    ``md5(string_agg(doc_id, ',' order by doc_id))``). Runs per index
    row; the index is vocabulary-sized, not corpus-sized."""

    def _dig(df: pd.DataFrame) -> pd.DataFrame:
        md5 = [
            hashlib.md5(",".join(map(str, p)).encode()).hexdigest()
            for p in df["postings"]
        ]
        return pd.DataFrame({
            "term": df["term"].to_numpy(dtype=object),
            "df": df["df"].astype("int64").to_numpy(),
            "postings_md5": md5,
        })

    return index.map_batches(_dig, batch_format="pandas")


def build_positional_index(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    terms: "list[str] | None" = None,
) -> ray.data.Dataset:
    """Positional inverted index: Dataset(term, doc_id,
    positions list<int64> ascending, 0-based token offsets). Same
    exchange shape as ``build_inverted_index`` but the postings carry
    positions (the phrase/proximity-query layout). ``terms`` prunes
    the index to a query vocabulary at tokenize time (the phrase-
    search path never ships the full vocabulary)."""
    from feast_ray.stages.dedup import bucketed_group_reduce

    tset = set(terms) if terms is not None else None

    def _pos(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        txt = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(
                pc.utf8_lower(tbl[text_col]), r"\s+", " ")
        )
        la = pc.split_pattern(txt, " ").combine_chunks()
        flat = la.flatten().to_pandas().to_numpy(dtype=object)
        lens = np.diff(la.offsets.to_numpy())
        ids = np.repeat(
            tbl[id_col].to_numpy(zero_copy_only=False), lens)
        # 0-based token position within each doc
        starts = np.repeat(la.offsets.to_numpy()[:-1], lens)
        pos = np.arange(len(flat), dtype=np.int64) - starts
        keep = flat != ""
        if tset is not None:
            keep &= pd.Series(flat).isin(tset).to_numpy()
        return pa.table({
            "term": pa.array(flat[keep], pa.string()),
            "doc_id": _id_array(ids[keep]),
            "pos": pa.array(pos[keep], pa.int64()),
        })

    trips = ds.map_batches(_pos, batch_format="pyarrow")

    def _reduce(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "term": pd.Series([], dtype=object),
                "doc_id": pd.Series([], dtype="int64"),
                "positions": pd.Series([], dtype=object),
            })
        df = df.sort_values(["term", "doc_id", "pos"], kind="stable")
        g = df.groupby(["term", "doc_id"], sort=False)["pos"].agg(list)
        out = g.reset_index().rename(columns={"pos": "positions"})
        return out

    return bucketed_group_reduce(trips, ["term"], _reduce)


def phrase_search(
    ds: ray.data.Dataset,
    phrase: list[str],
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Exact phrase query over the positional index:
    Dataset(doc_id, n_phrase) for docs containing the consecutive
    token sequence ``phrase`` (n_phrase = occurrence count, counting
    overlaps). The index rows for the |phrase| query terms re-keyed
    by doc_id through one exchange; the adjacency intersection is
    vectorized ``np.intersect1d`` over shifted position arrays."""
    from feast_ray.stages.dedup import bucketed_group_reduce

    if len(phrase) < 2:
        raise ValueError("phrase needs >= 2 tokens")
    idx = build_positional_index(
        ds, id_col, text_col, terms=list(set(phrase)))

    def _match(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "n_phrase": pd.Series([], dtype="int64"),
            })
        rows = []
        for doc, g in df.groupby("doc_id", sort=False):
            by_term = dict(zip(g["term"], g["positions"]))
            if any(t not in by_term for t in phrase):
                continue
            cand = np.asarray(by_term[phrase[0]], np.int64)
            for off, t in enumerate(phrase[1:], 1):
                cand = np.intersect1d(
                    cand, np.asarray(by_term[t], np.int64) - off,
                    assume_unique=True)
                if not len(cand):
                    break
            if len(cand):
                rows.append((doc, len(cand)))
        if not rows:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "n_phrase": pd.Series([], dtype="int64"),
            })
        out = pd.DataFrame(rows, columns=["doc_id", "n_phrase"])
        return out.astype({"n_phrase": "int64"})

    return bucketed_group_reduce(idx, ["doc_id"], _match)


def dictionary_tag(
    ds: ray.data.Dataset,
    patterns: list[str],
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Multi-pattern substring tagging (blocklist / topic-dictionary
    scan): Dataset(doc_id, pattern) for every (doc, pattern) where the
    normalized text (lowercase, whitespace collapsed) contains the
    pattern. Zero shuffles — K C++ ``match_substring`` kernels per
    block, one block visit. For dictionaries beyond a few hundred
    entries an Aho-Corasick automaton per actor would replace the
    K-pass scan; at typical blocklist sizes the vectorized kernels
    win."""
    import pyarrow.compute as pc

    pats = sorted(set(patterns))

    def _tag(tbl: pa.Table) -> pa.Table:
        txt = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(
                pc.utf8_lower(tbl[text_col]), r"\s+", " ")
        )
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        out_ids, out_pat = [], []
        for p in pats:
            hit = pc.match_substring(txt, p).to_numpy(zero_copy_only=False)
            if hit.any():
                out_ids.append(ids[hit])
                out_pat.append(np.full(int(hit.sum()), p, object))
        if not out_ids:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "pattern": pa.array([], pa.string()),
            })
        return pa.table({
            "doc_id": _id_array(np.concatenate(out_ids)),
            "pattern": pa.array(np.concatenate(out_pat), pa.string()),
        })

    return ds.map_batches(_tag, batch_format="pyarrow")


def bm25_topk(
    ds: ray.data.Dataset,
    query_terms: list[str],
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> ray.data.Dataset:
    """Top-k docs by BM25 (Robertson/Sparck-Jones idf variant with the
    +1 floor, the Lucene default shape) — Dataset(doc_id, score_n)
    where score_n = Σ_t floor(idf_t · tf·(k1+1)/(tf + k1·(1−b+b·dl/avgdl))
    · 1e9 + 0.5), int64. Zero-shuffle scoring; see module docstring."""
    from feast_ray.stages.relational import small_group_sums, topk

    terms = sorted(set(query_terms))

    def _pairs(tbl: pa.Table) -> pa.Table:
        d = _doc_terms(tbl, id_col, text_col)
        dl = d.groupby("doc_id", sort=False)["tf"].transform("sum")
        d = d.assign(dl=dl)
        d = d[d["term"].isin(terms)]
        return pa.table({
            "doc_id": _id_array(d["doc_id"].to_numpy()),
            "term": pa.array(d["term"].to_numpy(dtype=object), pa.string()),
            "tf": pa.array(d["tf"].to_numpy().astype(np.int64)),
            "dl": pa.array(d["dl"].to_numpy().astype(np.int64)),
        })

    def _tokens_stats(tbl: pa.Table) -> pa.Table:
        d = _doc_terms(tbl, id_col, text_col)
        return pa.table({
            "n_docs": pa.array([tbl.num_rows], pa.int64()),
            "n_tokens": pa.array([int(d["tf"].sum())], pa.int64()),
        })

    # tiny aggregates: corpus scalars + per-query-term df
    stats = ds.map_batches(_tokens_stats, batch_format="pyarrow").to_pandas()
    n_docs = int(stats["n_docs"].sum())
    avgdl = float(stats["n_tokens"].sum()) / n_docs

    # thin (doc, term, tf, dl) hits are reused by the df count and the
    # scoring pass — materialize once instead of re-tokenizing
    hits = ds.map_batches(_pairs, batch_format="pyarrow").materialize()
    dfs = {t: int(n) for t, n in small_group_sums(hits, "term")["n_rows"].items()}
    # libm log per term (tfidf doctrine: bit-identical to DuckDB ln)
    idf = {
        t: math.log((n_docs - dfs[t] + 0.5) / (dfs[t] + 0.5) + 1.0)
        for t in terms
        if t in dfs
    }
    idf_ref = ray.put(idf)

    def _score(tbl: pa.Table) -> pa.Table:
        if not tbl.num_rows:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "score_n": pa.array([], pa.int64())})
        lut = ray.get(idf_ref)
        d = tbl.to_pandas()
        tf = d["tf"].to_numpy(np.float64)
        dl = d["dl"].to_numpy(np.float64)
        w = d["term"].map(lut).to_numpy(np.float64)
        s = w * ((tf * (k1 + 1.0)) / (tf + k1 * ((1.0 - b) + b * (dl / avgdl))))
        sn = np.floor(s * 1e9 + 0.5).astype(np.int64)
        agg = (
            pd.DataFrame({"doc_id": d["doc_id"].to_numpy(), "score_n": sn})
            .groupby("doc_id", as_index=False, sort=False)["score_n"]
            .sum()
        )
        return pa.table({
            "doc_id": _id_array(agg["doc_id"].to_numpy()),
            "score_n": pa.array(agg["score_n"].to_numpy(), pa.int64()),
        })

    from feast_ray.stages.aggregate import AggSpec, grouped_agg

    # _score pre-sums per block (combiner); the grouped sum makes the
    # per-doc total exact even if Ray's dynamic block splitting ever
    # separates one doc's hit rows — integer sums are order-free
    scored = grouped_agg(
        hits.map_batches(_score, batch_format="pyarrow"),
        ["doc_id"], [AggSpec("score_n", "sum", "score_n")])
    return topk(scored, ["score_n", "doc_id"], k,
                descending=[True, False])
