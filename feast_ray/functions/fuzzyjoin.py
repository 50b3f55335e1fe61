"""Edit-distance-1 string similarity self-join (PassJoin shape).

The record-linkage / fuzzy-dedup primitive (near-identical titles,
URLs, product names): emit every pair of rows whose strings are
within Levenshtein distance 1, WITHOUT the O(n²) cross product. The
reference has no analog (SURVEY.md §2 extension surface).

Method — the pigeonhole segment filter of PassJoin (Li, Deng, Wang,
Feng: "PASS-JOIN: A Partition-based Method for Similarity Joins",
PVLDB 5(1), 2011), specialized to τ=1: split ``s`` at h=len(s)//2
into seg1+seg2. One edit touches at most one segment, and the
untouched segment keeps its prefix/suffix role — so for any pair
with ed(s,t) ≤ 1 (and ||s|−|t|| ≤ 1):

  t[:h] == s[:h]  (edit in the tail)  OR  t ends with s[h:]
  (edit in the head).

Each string therefore emits its OWN two segment keys plus PROBE keys
for the ≤ 2 distinct split lengths a partner of length ±1 could use;
key-equal rows co-locate through ONE bucketed exchange, candidate
pairs dedup in-bucket, and the exact ed ≤ 1 verify is vectorized
numpy over utf-32 codepoint arrays grouped by (len_a, len_b) — no
per-character Python. Emitted keys per row ≤ 8, so the shuffle is
O(n), and the verify cost is proportional to CANDIDATES (strings
sharing a half), not pairs.

Scale note: a pathological key (half the corpus sharing one segment)
is the usual skew case — the star-pattern/size-gate doctrine of
``neardup.py`` applies; the verify is quadratic only within one
segment bucket.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data


def _codes(strings: "np.ndarray", width: int) -> np.ndarray:
    """(n, width) uint32 codepoint matrix, zero-padded."""
    out = np.zeros((len(strings), width), np.uint32)
    for i, s in enumerate(strings):
        b = np.frombuffer(s.encode("utf-32-le"), np.uint32)
        out[i, : len(b)] = b
    return out


def _verify_ed1(sa: "np.ndarray", sb: "np.ndarray") -> np.ndarray:
    """Vectorized exact ed(a,b) <= 1 for candidate arrays (object
    dtype); callers guarantee ||a|-|b|| <= 1. Returns (ok, ed)."""
    la = np.fromiter((len(s) for s in sa), np.int64, len(sa))
    lb = np.fromiter((len(s) for s in sb), np.int64, len(sb))
    ok = np.zeros(len(sa), bool)
    ed = np.full(len(sa), 2, np.int64)
    for L, M in {(int(x), int(y)) for x, y in zip(la, lb)}:
        m = (la == L) & (lb == M)
        if not m.any():
            continue
        A = _codes(sa[m], max(L, 1))
        B = _codes(sb[m], max(M, 1))
        if L == M:
            diff = (A != B).sum(axis=1)
            ok[m] = diff <= 1
            e = ed[m]
            e[diff <= 1] = diff[diff <= 1]
            ed[m] = e
        else:
            # |L-M| == 1: one deletion from the longer — first
            # mismatch at p, then longer[p+1:] must equal shorter[p:]
            S, G = (A, B) if L < M else (B, A)  # S short (n,l), G long (n,l+1)
            l = min(L, M)
            if l == 0:  # "" vs one char: always one deletion
                ok[m] = True
                e = ed[m]
                e[:] = 1
                ed[m] = e
                continue
            neq = S != G[:, :l]
            p = np.where(neq.any(axis=1), neq.argmax(axis=1), l)
            # shifted equality: G with one char removed at p == S
            idx = np.arange(l)
            gather = idx[None, :] + (idx[None, :] >= p[:, None])
            shifted = np.take_along_axis(G, gather, axis=1) if l else G[:, :0]
            good = (shifted == S).all(axis=1)
            ok[m] = good
            e = ed[m]
            e[good] = 1
            ed[m] = e
    return ok, ed


def ed1_self_join(
    ds: ray.data.Dataset,
    id_col: str,
    str_col: str,
) -> ray.data.Dataset:
    """Dataset(id1, id2, ed) — every pair id1 < id2 with
    Levenshtein(s1, s2) <= 1 (ed in {0, 1}). See module docstring."""
    from feast_ray.stages.dedup import bucketed_group_reduce

    def _keys(tbl: pa.Table) -> pa.Table:
        # vectorized per DISTINCT length (slices share h within a
        # length class), never per row
        df = pd.DataFrame({
            "rid": tbl[id_col].to_numpy(zero_copy_only=False),
            "s": tbl[str_col].to_pandas().to_numpy(dtype=object),
        })
        df["L"] = df["s"].str.len()
        parts = []
        for L, g in df.groupby("L", sort=False):
            L = int(L)
            cuts = set()
            for lp in (L - 1, L, L + 1):  # own split (lp=L) + probes
                if lp < 1:
                    continue
                cuts.add(("p", lp // 2))
                mp = lp - lp // 2
                if mp <= L:
                    cuts.add(("s", mp))
            for role, c in cuts:
                seg = g["s"].str[:c] if role == "p" else g["s"].str[L - c:]
                parts.append(pd.DataFrame({
                    "rid": g["rid"].to_numpy(),
                    "key": role + ":" + seg.to_numpy(dtype=object),
                    "s": g["s"].to_numpy(dtype=object),
                }))
        out = (pd.concat(parts, ignore_index=True)
               .drop_duplicates(["rid", "key"])
               if parts else
               pd.DataFrame({"rid": pd.Series([], dtype="int64"),
                             "key": pd.Series([], dtype=object),
                             "s": pd.Series([], dtype=object)}))
        return pa.table({
            "rid": pa.array(out["rid"].to_numpy(), pa.int64()),
            "key": pa.array(out["key"].to_numpy(dtype=object), pa.string()),
            "s": pa.array(out["s"].to_numpy(dtype=object), pa.string()),
        })

    keyed = ds.map_batches(_keys, batch_format="pyarrow")

    def _pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_sa, out_sb = [], [], [], []
        for _, g in df.groupby("key", sort=False):
            u = g.drop_duplicates("rid")
            if len(u) < 2:
                continue
            ids = u["rid"].to_numpy()
            ss = u["s"].to_numpy(dtype=object)
            order = np.argsort(ids, kind="stable")
            ids, ss = ids[order], ss[order]
            iu, ju = np.triu_indices(len(ids), k=1)
            ln = np.fromiter((len(x) for x in ss), np.int64, len(ss))
            keep = np.abs(ln[iu] - ln[ju]) <= 1
            iu, ju = iu[keep], ju[keep]
            out_a.append(ids[iu])
            out_b.append(ids[ju])
            out_sa.append(ss[iu])
            out_sb.append(ss[ju])
        if not out_a:
            return pd.DataFrame({
                "id1": pd.Series([], dtype="int64"),
                "id2": pd.Series([], dtype="int64"),
                "s1": pd.Series([], dtype=object),
                "s2": pd.Series([], dtype=object),
            })
        return pd.DataFrame({
            "id1": np.concatenate(out_a),
            "id2": np.concatenate(out_b),
            "s1": np.concatenate(out_sa),
            "s2": np.concatenate(out_sb),
        })

    cand = bucketed_group_reduce(keyed, ["key"], _pairs)

    def _verify(df: pd.DataFrame) -> pd.DataFrame:
        # candidates reach this bucket keyed by (id1, id2) — each pair
        # exactly once after the dedup below
        df = df.drop_duplicates(["id1", "id2"])
        if not len(df):
            return pd.DataFrame({
                "id1": pd.Series([], dtype="int64"),
                "id2": pd.Series([], dtype="int64"),
                "ed": pd.Series([], dtype="int64"),
            })
        ok, ed = _verify_ed1(
            df["s1"].to_numpy(dtype=object), df["s2"].to_numpy(dtype=object)
        )
        out = pd.DataFrame({
            "id1": df["id1"].to_numpy()[ok],
            "id2": df["id2"].to_numpy()[ok],
            "ed": ed[ok],
        })
        return out.astype({"id1": "int64", "id2": "int64", "ed": "int64"})

    # a pair can surface from several segment keys (possibly in
    # different buckets) — ONE exchange on the pair key dedups exactly
    return bucketed_group_reduce(cand, ["id1", "id2"], _verify)
