"""Per-document tf-idf keyword extraction.

The corpus-relevance primitive (keyword tagging, topic sampling,
quality-aware retrieval pre-filters): score every (doc, term) by
``tf * ln(N / df)`` and keep each doc's top-k terms. The reference
has no analog (SURVEY.md §2 extension surface).

Scale design — two passes, one thin shuffle, one broadcast:

* **pass A (df)**: each block explodes its docs to DISTINCT
  (term, doc) presence pairs and pre-counts per term, so the shuffle
  carries (term, partial_df) rows bounded by the block vocabulary;
  the merge is ONE vectorized sum per hash bucket
  (``bucketed_group_reduce``). Corpus size N is a count aggregate on
  the same pass.
* **pass B (score)**: SIZE-GATED like every small-side lookup here.
  Below ``BROADCAST_MAX_TERMS`` the (term → df) map is broadcast ONCE
  via ``ray.put``; each block recomputes its docs' tf in-block (a
  doc's text is one row, so tf never crosses blocks), maps df with a
  pandas lookup, and keeps the per-doc top-k — all before anything
  leaves the block. Above the gate (a 100 TB web corpus's vocabulary
  outgrows any broadcast) the df table stays DISTRIBUTED: thin
  (doc, term, tf) pairs ``hash_join`` the df table on term, a
  per-block combiner keeps ≤ k rows per doc per bucket, and one
  doc-bucketed reduce finishes the exact per-doc top-k — same
  gate-flip doctrine as the PIT join (store.py) and partitioned
  Bloom (bloom.py).

idf uses ``math.log`` per DISTINCT df value (libm, bit-identical to
DuckDB's ``ln``), never numpy's SIMD log which can differ by an ulp
and flip rank order vs the SQL oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

#: vocabulary size up to which the (term → df) map is broadcast
BROADCAST_MAX_TERMS = 50_000_000


def _doc_terms(tbl: pa.Table, id_col: str, text_col: str) -> pd.DataFrame:
    """Explode a block to (doc_id, term, tf) — lowercased whitespace
    tokens, positional numpy over the flat token buffer."""
    txt = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(pc.utf8_lower(tbl[text_col]), r"\s+", " ")
    )
    la = pc.split_pattern(txt, " ").combine_chunks()
    flat = la.flatten().to_pandas().to_numpy(dtype=object)
    lens = np.diff(la.offsets.to_numpy())
    ids = np.repeat(tbl[id_col].to_numpy(zero_copy_only=False), lens)
    df = pd.DataFrame({"doc_id": ids, "term": flat})
    df = df[df["term"] != ""]
    return df.groupby(["doc_id", "term"], as_index=False, sort=False).size().rename(
        columns={"size": "tf"}
    )


def _score_topk(d: pd.DataFrame, n_docs: int, k: int) -> pd.DataFrame:
    """Per-doc top-k of (doc_id, term, tf, df) rows by tf·ln(N/df),
    tie-break term asc. libm log per DISTINCT df value (module
    docstring) — shared by the broadcast and distributed paths so both
    sides of the gate rank bit-identically."""
    idf = {v: math.log(n_docs / v) for v in pd.unique(d["df"])}
    d = d.copy()
    d["score"] = d["tf"].to_numpy() * d["df"].map(idf).to_numpy()
    d = d.sort_values(
        ["doc_id", "score", "term"], ascending=[True, False, True], kind="stable"
    )
    d = d[d.groupby("doc_id", sort=False).cumcount() < k]
    return d[["doc_id", "term", "tf", "df"]].astype({"tf": "int64", "df": "int64"})


def tfidf_top_terms(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 3,
) -> ray.data.Dataset:
    """Each doc's top-``k`` terms by tf-idf (tie-break term asc).
    Output: (doc_id, term, tf, df) — integer columns so the result is
    hash-stable across engines; the float score only orders."""
    from feast_ray.stages.dedup import bucketed_group_reduce

    mat = ds.materialize()  # read once, reuse for both passes
    n_docs = mat.count()

    def _block_df(tbl: pa.Table) -> pa.Table:
        d = _doc_terms(tbl, id_col, text_col)
        vc = d.groupby("term", sort=False).size()
        return pa.table(
            {
                "term": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
                "df": pa.array(vc.to_numpy(), pa.int64()),
            }
        )

    partial = mat.map_batches(_block_df, batch_format="pyarrow")
    df_ds = bucketed_group_reduce(
        partial,
        ["term"],
        lambda d: d.groupby("term", as_index=False, sort=False)["df"].sum(),
    ).materialize()
    n_terms = df_ds.count()
    if n_terms > BROADCAST_MAX_TERMS:
        return _tfidf_distributed(mat, df_ds, n_docs, id_col, text_col, k)
    df_pdf = df_ds.to_pandas()
    df_ref = ray.put(
        pd.Series(df_pdf["df"].to_numpy(), index=df_pdf["term"]).sort_index()
    )

    def _score(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                }
            )
        dfs = ray.get(df_ref)
        d = _doc_terms(tbl, id_col, text_col)
        d["df"] = dfs.reindex(d["term"]).to_numpy()
        return pa.Table.from_pandas(
            _score_topk(d, n_docs, k), preserve_index=False
        ).replace_schema_metadata(None)

    return mat.map_batches(_score, batch_format="pyarrow")


def _tfidf_distributed(
    mat: ray.data.Dataset,
    df_ds: ray.data.Dataset,
    n_docs: int,
    id_col: str,
    text_col: str,
    k: int,
) -> ray.data.Dataset:
    """Beyond-the-broadcast-cap tf-idf: df stays a distributed table.

    Thin (doc_id, term, tf) pairs (no text) hash_join the (term, df)
    table co-partitioned on term; each joined bucket pre-prunes to its
    per-doc top-k (the global per-doc top-k is a subset of the union of
    per-bucket top-ks — score is a per-row function of (tf, df), so
    bucket-local ranking is final for the rows it sees); one
    doc-bucketed reduce then finishes the exact top-k. Exchange volume:
    ≤ 1 row per distinct (doc, term) into the join, ≤ k rows per doc
    per term-bucket into the doc exchange."""
    from feast_ray.stages.dedup import bucketed_group_reduce
    from feast_ray.stages.join import hash_join

    def _pairs(tbl: pa.Table) -> pa.Table:
        d = _doc_terms(tbl, id_col, text_col)
        return pa.Table.from_pandas(
            d.astype({"tf": "int64"}), preserve_index=False
        ).replace_schema_metadata(None)

    pairs = mat.map_batches(_pairs, batch_format="pyarrow")
    joined = hash_join(pairs, df_ds, on="term")
    pruned = joined.map_batches(
        lambda t: pa.Table.from_pandas(
            _score_topk(t.to_pandas(), n_docs, k), preserve_index=False
        ).replace_schema_metadata(None)
        if len(t)
        else t,
        batch_format="pyarrow",
    )
    return bucketed_group_reduce(
        pruned,
        ["doc_id"],
        lambda d: _score_topk(d, n_docs, k),
    )
