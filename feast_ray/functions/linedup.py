"""Line-level dedup (boilerplate removal) — the CCNet-style pass that
drops lines repeated across the corpus (navigation bars, footers,
cookie banners) before model scoring. Reference analog: none (Feast
has no content ops) — part of the web-text operator surface this
engine adds (SURVEY.md §2 extension; CCNet: Wenzek et al. 2020
deduplicates hashed paragraphs the same way).

Rule: a line is boilerplate when it occurs in ≥ ``min_docs`` DISTINCT
documents (repeats inside one document count once). Boilerplate lines
are removed from EVERY document; document line order is preserved;
a document whose lines are all boilerplate becomes the empty string.
Deterministic and order-independent — the q53 oracle recomputes the
rule in DuckDB with the same Horner+splitmix64 line hash
(``neardup.word_hashes64``).

Scale shape (two passes: a thin-pair shuffle that finds the
boilerplate set, then a broadcast membership filter over the text):

* pass A ships one thin ``(line_hash, doc_bucket-distinct)`` pair per
  distinct (doc, line) — 16 B/row — through ONE bucketed shuffle,
  counts distinct docs per hash with a vectorized per-bucket reduce,
  and keeps hashes with count ≥ ``min_docs``. The surviving set is
  bounded by the number of DISTINCT boilerplate lines (small), so it
  broadcasts as one sorted numpy array (``ray.put`` once,
  ``searchsorted`` membership per batch — the same anti-join shape as
  ``minhash_dedup``).
* pass B re-splits each batch, masks member lines, and reassembles
  text with a vectorized explode → mask → groupby-join. No per-row
  Python in either pass.

Partitioning assumption: the distinct-boilerplate set fits in a
worker's heap (it is corpus-boilerplate-sized, not corpus-sized); if
it ever doesn't, move the membership test to a hash join on the line
hash (the documented alternative, same shape as minhash_dedup's
distributed verify tier).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from feast_ray.functions.neardup import word_hashes64

__all__ = ["common_line_hashes", "line_dedup"]


def _line_frame(tbl: pa.Table, id_col: str, text_col: str) -> pd.DataFrame:
    """Exploded (doc, line-order, line, hash) frame for one batch."""
    s = tbl[text_col].to_pandas().astype("string").fillna("").reset_index(drop=True)
    ids = pd.Series(tbl[id_col].to_numpy(zero_copy_only=False))
    lines = s.str.split("\n").explode()
    df = pd.DataFrame(
        {"row": lines.index.to_numpy(),
         "doc": ids.reindex(lines.index).to_numpy(),
         "line": lines.to_numpy()}
    )
    df["h"] = word_hashes64(df["line"].tolist()).view(np.int64)
    return df


def common_line_hashes(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str = "text",
    min_docs: int = 2,
) -> np.ndarray:
    """Sorted int64 hashes of lines occurring in ≥ min_docs docs."""
    from feast_ray.stages.dedup import bucketed_group_reduce

    def _pairs(tbl: pa.Table) -> pa.Table:
        df = _line_frame(tbl, id_col, text_col).drop_duplicates(["doc", "h"])
        return pa.table(
            {"h": pa.array(df["h"].to_numpy()), "doc": pa.array(df["doc"].to_numpy())}
        )

    pairs = ds.map_batches(_pairs, batch_format="pyarrow")

    def _count(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.drop_duplicates(["doc", "h"])
            .groupby("h", sort=False)
            .size()
            .reset_index(name="n")
        )
        return g[g["n"] >= min_docs][["h"]]

    common = bucketed_group_reduce(pairs, ["h"], _count)
    cdf = common.to_pandas()
    if "h" not in cdf.columns:  # no line met the threshold anywhere
        return np.array([], dtype=np.int64)
    return np.sort(cdf["h"].to_numpy(dtype=np.int64))


def line_dedup(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str = "text",
    min_docs: int = 2,
    out_col: str | None = None,
) -> ray.data.Dataset:
    """Remove corpus-repeated lines from every document (see module
    docstring). Output column ``out_col`` (default: replace
    ``text_col``)."""
    out = out_col or text_col
    common = common_line_hashes(ds, id_col, text_col, min_docs)
    common_ref = ray.put(common)

    def _strip(tbl: pa.Table) -> pa.Table:
        bad = ray.get(common_ref)
        df = _line_frame(tbl, id_col, text_col)
        h = df["h"].to_numpy()
        if len(bad):
            pos = np.clip(np.searchsorted(bad, h), 0, len(bad) - 1)
            member = bad[pos] == h
        else:
            member = np.zeros(len(df), bool)
        kept = df.loc[~member]
        # order-preserving reassembly: explode preserves line order
        # within each source row; group back by source-row position
        joined = kept.groupby("row", sort=True)["line"].agg("\n".join)
        vals = pd.Series("", index=pd.RangeIndex(len(tbl)), dtype=object)
        vals.loc[joined.index] = joined
        arr = pa.array(vals.to_numpy(), pa.string())
        if out in tbl.column_names:
            return tbl.set_column(tbl.schema.get_field_index(out), out, arr)
        return tbl.append_column(out, arr)

    return ds.map_batches(_strip, batch_format="pyarrow")


def dedup_within_doc(
    ds: ray.data.Dataset,
    text_col: str,
    *,
    sep: str = "\n\n",
    out_col: str = "text_clean",
) -> ray.data.Dataset:
    """WITHIN-document repetition removal: drop repeated ``sep``-split
    segments (paragraphs) of each doc, keeping the FIRST occurrence in
    order — the Gopher-style intra-doc boilerplate cut, complementary
    to :func:`line_dedup`'s cross-doc rule. Purely block-local (a doc
    is one row): explode → stable first-occurrence dedup → ordered
    rejoin, all inside one ``map_batches`` — streams, no shuffle, no
    state."""

    def _dedup(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if len(tbl) == 0:
            return tbl.append_column(out_col, pa.array([], pa.string()))
        la = pc.split_pattern(tbl[text_col], sep).combine_chunks()
        lens = np.diff(la.offsets.to_numpy())
        df = pd.DataFrame(
            {
                "ridx": np.repeat(np.arange(len(tbl)), lens),
                "para": la.flatten().to_pandas().to_numpy(dtype=object),
            }
        )
        df = df.drop_duplicates(["ridx", "para"], keep="first")
        joined = df.groupby("ridx", sort=True)["para"].agg(sep.join)
        out = joined.reindex(np.arange(len(tbl))).fillna("").to_numpy(dtype=object)
        return tbl.append_column(out_col, pa.array(out, pa.string()))

    return ds.map_batches(_dedup, batch_format="pyarrow")
