"""Sequence packing: assign documents to fixed token-budget training
bins (context windows).

LLM pretraining consumes documents as a concatenated token stream
chopped into fixed-size context windows ("concat-and-chop" packing —
the standard GPT-style data layout). The operator that prepares this
layout at corpus scale tags every document with the window its first
token falls into, given a deterministic document order within each
stream partition:

    prefix  = sum(n_tokens of earlier docs in the partition)
    bin_id  = prefix // budget        # which context window it starts in
    offset  = prefix %  budget        # where inside that window

The reference has no analog — this is part of the LLM-training-data
surface this engine adds on top of the reference's operator set
(SURVEY.md §2 extension), alongside dedup/quality/decontamination.

Scale design: a per-group running sum cannot pre-reduce per block (the
prefix needs every earlier row), so the whole group must co-locate —
ONE hash(group) % num_buckets shuffle, then one vectorized pandas
sort + grouped cumsum per bucket (``bucketed_group_reduce``, never a
Python call per group). Partitioning assumption: one stream
partition's (doc_id, n_tokens) rows fit in a worker's heap — these
are thin rows (text stays behind; join it back by id at write time),
so even a billion-doc stream partition is ~16 GB and real corpora
shard streams far smaller. Greedy first-fit/best-fit packers trade
determinism for less padding; concat-and-chop has zero padding by
construction, which is why production pretraining pipelines use it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data


def pack_sequences(
    ds: ray.data.Dataset,
    group_col: str,
    order_col: str,
    tokens_col: str,
    budget: int,
    *,
    num_buckets: int = 64,
    bin_col: str = "bin_id",
    offset_col: str = "bin_offset",
) -> ray.data.Dataset:
    """Tag every row with its concat-and-chop context-window id and
    in-window offset. ``ds`` must carry (group, order, token-count)
    columns; rows are packed independently per ``group_col`` stream in
    ``order_col`` order (make it a total order within every group)."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    from feast_ray.stages.dedup import bucketed_group_reduce

    def _pack(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([group_col, order_col], kind="stable")
        csum = df.groupby(group_col, sort=False)[tokens_col].cumsum()
        prefix = (csum - df[tokens_col]).astype("int64")
        df = df.copy()
        df[bin_col] = prefix // budget
        df[offset_col] = prefix % budget
        return df

    return bucketed_group_reduce(ds, [group_col], _pack, num_buckets=num_buckets)


def pack_ffd(
    ds: ray.data.Dataset,
    group_col: str,
    id_col: str,
    tokens_col: str,
    budget: int,
    *,
    bin_col: str = "bin_id",
) -> ray.data.Dataset:
    """First-fit-decreasing bin packing per group — the
    padding-minimizing alternative to ``pack_sequences``' concat-chop
    (FFD wastes ≤ 22% of OPT bins worst-case, Johnson 1973; use it
    when documents must stay WHOLE inside a context window, e.g.
    instruction-tuning examples that cannot straddle windows).

    Deterministic: items sort by (tokens desc, id asc) and each takes
    the LOWEST-numbered bin with enough remaining capacity, so the
    assignment is a pure function of the group's (id, tokens) set —
    partition-invariant by construction (the whole group co-locates
    through one hash exchange, the q56 contract). Rows with tokens >
    budget raise — pre-chunk oversize docs (q33) first.

    The per-group first-fit scan is inherently sequential (documented
    loop boundary, like ADPCM/BPE): O(n·bins) per group with n =
    group size bounded by the stream-shard contract. A capacity-
    indexed tree would make it O(n log n); not needed at shard sizes.
    """
    from feast_ray.stages.dedup import bucketed_group_reduce

    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")

    def _ffd(df: pd.DataFrame) -> pd.DataFrame:
        cols = [group_col, id_col, tokens_col, bin_col]
        if not len(df):
            out = df.copy()
            out[bin_col] = pd.Series([], dtype="int64")
            return out[[c for c in cols if c in out.columns or c == bin_col]]
        if int(df[tokens_col].max()) > budget:
            raise ValueError(
                f"pack_ffd: item exceeds budget {budget}; pre-chunk it")
        df = df.sort_values([group_col, tokens_col, id_col],
                            ascending=[True, False, True],
                            kind="stable").reset_index(drop=True)
        bins_out = np.empty(len(df), dtype=np.int64)
        grp = df[group_col].to_numpy()
        tok = df[tokens_col].to_numpy(np.int64)
        start = 0
        while start < len(df):
            end = start
            while end < len(df) and grp[end] == grp[start]:
                end += 1
            caps: list[int] = []  # remaining capacity per bin id
            for i in range(start, end):
                t = int(tok[i])
                for j, c in enumerate(caps):
                    if c >= t:
                        caps[j] = c - t
                        bins_out[i] = j
                        break
                else:
                    bins_out[i] = len(caps)
                    caps.append(budget - t)
            start = end
        df = df.copy()
        df[bin_col] = bins_out
        return df[cols]

    return bucketed_group_reduce(ds, [group_col], _ffd)
