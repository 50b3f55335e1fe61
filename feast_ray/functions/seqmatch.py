"""Sequence pattern matching over per-key ordered event streams —
SQL:2016 MATCH_RECOGNIZE's core (symbol mapping + regex over the
per-partition event sequence), recast as one partitioned exchange.

Each key's events are ordered, each event maps to one symbol
character through a caller-supplied alphabet, and a compiled regex
counts non-overlapping matches over the resulting sequence string —
the "row-pattern recognition" primitive behind funnel mining, fraud
rules, and clickstream motif search. q126's funnel is the fixed
three-step special case; this is the general form.

Reference analog: none in Feast (row-pattern recognition is a
warehouse SQL surface); SURVEY §2.4 windowed/ordered family
extension.

Scale shape: ONE hash-partitioned exchange on the key (the same
bucketed_group_reduce every ordered-per-key op in the repo rides);
within a bucket the symbol mapping is one vectorized ``Series.map``,
sequences assemble via one grouped join, and the regex runs once per
KEY over a short string — O(total events) bytes moved, no
per-event Python in the map stage. Pattern compile happens once per
reduce task, not per key.

Determinism contract with the SQL oracle: the caller supplies a
total order (``order_by`` must break ties, e.g. ``[ts, event_id]``)
and a pattern in the common RE2∩PCRE subset where leftmost-first and
leftmost-longest agree (character classes that exclude the
terminator symbol — e.g. ``vc*p`` — qualify); then Python
``re.findall`` and DuckDB ``regexp_extract_all`` count identically.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray.data


def sequence_pattern_counts(
    ds: ray.data.Dataset,
    keys: "list[str]",
    order_by: "list[str]",
    event_col: str,
    alphabet: "dict[str, str]",
    pattern: str,
    *,
    other: str = "_",
    count_as: str = "n_matches",
    len_as: str = "seq_len",
) -> ray.data.Dataset:
    """Per ``keys``: order rows by ``order_by``, map ``event_col``
    values through ``alphabet`` (misses become ``other``), and count
    non-overlapping ``pattern`` matches over the concatenated symbol
    string. Returns one row per key: keys + ``count_as`` (int64) +
    ``len_as`` (int64, the event count — a structural cross-check the
    oracle restates as ``len(seq)``). Keys with zero matches are
    KEPT (count 0): absence is part of the answer."""
    for sym in list(alphabet.values()) + [other]:
        if len(sym) != 1:
            raise ValueError(f"alphabet symbols must be single chars: {sym!r}")

    from feast_ray.stages.dedup import bucketed_group_reduce

    cols = list(keys) + [count_as, len_as]

    def _reduce(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            out = df.reindex(columns=list(keys)).copy()
            out[count_as] = pd.Series([], dtype="int64")
            out[len_as] = pd.Series([], dtype="int64")
            return out[cols]
        rx = re.compile(pattern)
        df = df.sort_values(list(keys) + list(order_by),
                            kind="stable").reset_index(drop=True)
        syms = df[event_col].map(alphabet).fillna(other)
        seq = syms.groupby([df[k] for k in keys], sort=False).agg("".join)
        n = np.fromiter((len(rx.findall(s)) for s in seq),
                        dtype=np.int64, count=len(seq))
        ln = np.fromiter((len(s) for s in seq),
                         dtype=np.int64, count=len(seq))
        out = seq.index.to_frame(index=False)
        out.columns = list(keys)
        out[count_as] = n
        out[len_as] = ln
        return out[cols]

    return bucketed_group_reduce(ds, list(keys), _reduce)
