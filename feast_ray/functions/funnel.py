"""Ordered event-funnel analysis (view → click → purchase within a
window).

The event-analytics staple the reference's aggregation DSL cannot
express (its windowed aggs are per-key single-stream — SURVEY.md §2.1
#6): which users performed step1 < step2 < step3 with
ts(step3) − ts(step1) ≤ window, timestamps strictly increasing
(EXISTS semantics — any qualifying triple converts the user).

Scale shape: ONE bucketed exchange on the user key (the
``bucketed_group_reduce`` doctrine — a user's events fit a worker);
per user the EXISTS test is O(n log n) searchsorted, not O(n³):
for every step-3 event t3, the best step-2 witness is the LATEST
step-2 before t3, and a qualifying step-1 exists iff some step-1
falls in [t3 − window, t2) — two vectorized searchsorted probes per
step array, no triple join. The SQL oracle IS the triple join
(affordable at gate scale, exactly what the engine avoids).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data


def funnel_converted_users(
    ds: ray.data.Dataset,
    steps: "list[str]",
    window_s: float,
    *,
    user_col: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
) -> ray.data.Dataset:
    """Dataset(user_id) — users with an ordered 3-step conversion
    inside ``window_s`` seconds. Exactly three steps (the searchsorted
    witness argument below is specific to length 3)."""
    if len(steps) != 3:
        raise ValueError("funnel_converted_users expects exactly 3 steps")
    from feast_ray.stages.dedup import bucketed_group_reduce

    s1, s2, s3 = steps

    def _pre(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[type_col].isin(steps)]
        return df[[user_col, type_col, ts_col]]

    thin = ds.map_batches(_pre, batch_format="pandas")

    def _per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for uid, g in df.groupby(user_col, sort=False):
            t = g[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
            kinds = g[type_col].to_numpy()
            a = np.sort(t[kinds == s1])  # step-1 times
            b = np.sort(t[kinds == s2])
            c = np.sort(t[kinds == s3])
            if not (len(a) and len(b) and len(c)):
                continue
            # for each t3: latest step-2 strictly before t3
            j = np.searchsorted(b, c, side="left") - 1
            ok3 = j >= 0
            if not ok3.any():
                continue
            t3, t2 = c[ok3], b[j[ok3]]
            # a step-1 in [t3 - W, t2) ?
            lo = np.searchsorted(a, t3 - int(window_s * 1e6), side="left")
            hi = np.searchsorted(a, t2, side="left")
            if (hi > lo).any():
                out.append(uid)
        return pd.DataFrame({user_col: pd.Series(out, dtype="int64")})

    return bucketed_group_reduce(thin, [user_col], _per_bucket)
