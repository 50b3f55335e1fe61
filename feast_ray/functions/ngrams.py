"""Corpus-level n-gram frequency statistics.

The corpus-analysis primitive behind contamination screens, boilerplate
discovery and tokenizer/vocab studies: count every word n-gram across
the corpus and keep the global top-k. The reference has no analog
(SURVEY.md §2 extension surface).

Scale design — the explode-and-count shape done right:

* the EXPLODE never leaves the block: each ``map_batches`` call
  tokenizes its batch (Arrow RE2 split), forms n-grams positionally
  with numpy over the flat token buffer + list offsets (no Python per
  row), and immediately pre-counts them (`value_counts`), so the
  shuffle carries (gram, partial_count) rows — bounded by DISTINCT
  grams per block, not token volume;
* the wide step is ``bucketed_group_reduce`` on the gram hash (ONE
  vectorized sum per bucket — high-cardinality-safe, same doctrine as
  grouped_agg);
* the final top-k is per-block top-k + tiny merge (`topk`), never a
  global sort.

Partitioning assumption: distinct grams of one hash bucket fit in a
worker's heap; the exchange sizes its bucket count from the input's
bytes (n-gram vocabularies grow sublinearly in corpus size past a few
TB).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def _block_gram_counts(tbl: pa.Table, text_col: str, n: int) -> pa.Table:
    """Tokenize → positional n-grams → per-block partial counts."""
    if len(tbl) == 0:
        return pa.table(
            {"gram": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
        )
    # mirror regexp_extract_all(text, '\S+'): trim + collapse, then
    # split on single spaces. Empty/whitespace-only docs produce a
    # single EMPTY token — harmless for n >= 2 (one token can't form
    # an n-gram) but a phantom '' gram at n=1, so unigrams filter it
    # below (regexp_extract_all('\S+') yields no token for such docs).
    txt = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(tbl[text_col], r"\s+", " ")
    )
    la = pc.split_pattern(txt, " ").combine_chunks()
    flat = la.flatten().to_pandas().to_numpy(dtype=object)
    offs = la.offsets.to_numpy()
    lens = np.diff(offs)
    # absolute end offset of the owning doc, per token position
    ends = np.repeat(offs[1:], lens)
    idx = np.arange(len(flat))
    start = idx[idx + (n - 1) < ends]
    if n == 1 and len(start):
        start = start[flat[start] != ""]
    if len(start) == 0:
        return pa.table(
            {"gram": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
        )
    grams = flat[start]
    for j in range(1, n):
        grams = grams + " "
        grams = grams + flat[start + j]
    vc = pd.Series(grams).value_counts()
    return pa.table(
        {
            "gram": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
            "n": pa.array(vc.to_numpy(), pa.int64()),
        }
    )


def ngram_top(
    ds: ray.data.Dataset,
    text_col: str = "text",
    n: int = 3,
    k: int = 20,
) -> ray.data.Dataset:
    """Global top-``k`` word ``n``-grams with counts, deterministic
    tie-break (count desc, gram asc)."""
    from feast_ray.stages.dedup import bucketed_group_reduce
    from feast_ray.stages.relational import topk

    partial = ds.map_batches(
        lambda t: _block_gram_counts(t, text_col, n), batch_format="pyarrow"
    )

    def _merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("gram", as_index=False, sort=False)["n"].sum()

    counts = bucketed_group_reduce(partial, ["gram"], _merge)
    return topk(counts, ["n", "gram"], k, descending=[True, False])
