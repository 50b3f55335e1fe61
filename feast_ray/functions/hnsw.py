"""Sharded HNSW graph ANN (Malkov & Yashunin 2016) — deterministic.

The reference's vector surface is ``Field(vector_index=True,
vector_search_metric=...)`` + online-store KNN retrieval
(``/root/reference/sdk/python/feast/field.py:30-80``,
``infra/online_stores/sqlite.py`` vec search); HNSW is the standard
graph index behind such stores. This is a from-scratch Ray-Data-shaped
implementation, NOT a binding: the corpus is hash-sharded by
``splitmix64(vec_id) % n_shards`` (content-independent, so the layout
is partition-invariant), one navigable-small-world graph is built PER
SHARD in parallel (each build is a stateful sequential insert loop —
exactly the thing the Dataset API can't express, so it runs as one
``bucket_exchange`` reduce task per shard), and a search fans out to
every shard graph and merges per-query top-k. That is the standard scale shape for
graph indexes (FAISS/Vespa shard HNSW the same way): build cost and
graph memory stay per-shard-bounded at 100 TB while searches stay
O(n_shards · ef · log n_shard) instead of a corpus scan.

Everything is DETERMINISTIC by construction so the distributed result
equals a single-process reference recompute (the q104 oracle):

- level assignment: floor(−ln(u) · mL) with u drawn from
  splitmix64(vec_id) — no RNG state;
- insertion order: ascending vec_id within each shard;
- all candidate orderings compare (distance, vec_id) tuples, so float
  ties break by id;
- distances: float64 negative cosine on unit-normalized vectors.
"""

from __future__ import annotations

import heapq
import json
import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from feast_ray.stages.exchange import bucket_exchange


def _splitmix64(x: np.ndarray) -> np.ndarray:
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _levels_for(ids: np.ndarray, m: int) -> np.ndarray:
    """Deterministic exponential level draw per the HNSW paper, seeded
    by the id hash instead of an RNG (mL = 1/ln(M))."""
    z = _splitmix64(ids.astype(np.uint64))
    u = ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53  # (0, 1]
    return np.floor(-np.log(u) / math.log(m)).astype(np.int64)


class ShardHNSW:
    """One shard's graph. Nodes are LOCAL indexes 0..n−1 (ascending
    vec_id order); adjacency is a list-of-lists per level."""

    def __init__(self, ids: np.ndarray, vecs: np.ndarray, *,
                 m: int = 8, ef_construction: int = 64):
        order = np.argsort(ids, kind="stable")
        self.ids = ids[order].astype(np.int64)
        v = vecs[order].astype(np.float64)
        norms = np.linalg.norm(v, axis=1)
        norms[norms == 0] = 1.0
        self.vecs = v / norms[:, None]
        self.m = m
        self.efc = ef_construction
        self.levels = _levels_for(self.ids, m)
        self.adj: list[dict[int, list[int]]] = []
        self.entry = -1
        self.top = -1
        for i in range(len(self.ids)):
            self._insert(i)

    # -- distance: negative cosine (smaller = closer), float64
    def _dist(self, q: np.ndarray, nodes) -> np.ndarray:
        return -(self.vecs[nodes] @ q)

    def _greedy(self, q: np.ndarray, start: int, level: int) -> int:
        cur = start
        cur_d = float(self._dist(q, [cur])[0])
        improved = True
        while improved:
            improved = False
            neigh = self.adj[level].get(cur, [])
            if not neigh:
                break
            ds = self._dist(q, neigh)
            j = int(np.lexsort((neigh, ds))[0])  # min by (dist, id)
            if (ds[j], self.ids[neigh[j]]) < (cur_d, self.ids[cur]):
                cur, cur_d = neigh[j], float(ds[j])
                improved = True
        return cur

    def _search_layer(self, q: np.ndarray, entry: int, ef: int,
                      level: int) -> list[tuple[float, int, int]]:
        """Beam search (paper Alg. 2). Returns up to ef
        (dist, vec_id, local) tuples sorted ascending."""
        d0 = float(self._dist(q, [entry])[0])
        start = (d0, int(self.ids[entry]), entry)
        visited = {entry}
        cand = [start]  # min-heap by (dist, id)
        best = [(-d0, -int(self.ids[entry]), entry)]  # max-heap of kept
        while cand:
            d, _tid, c = heapq.heappop(cand)
            if d > -best[0][0] and len(best) >= ef:
                break
            neigh = [x for x in self.adj[level].get(c, []) if x not in visited]
            if not neigh:
                continue
            visited.update(neigh)
            ds = self._dist(q, neigh)
            for j, nb in enumerate(neigh):
                t = (float(ds[j]), int(self.ids[nb]), nb)
                if len(best) < ef or (-t[0], -t[1]) > best[0][:2]:
                    heapq.heappush(cand, t)
                    heapq.heappush(best, (-t[0], -t[1], nb))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted((-bd, -bid, nb) for bd, bid, nb in best)

    def _select_heuristic(self, base: int, cand: list[int], cap: int) -> list[int]:
        """Paper Alg. 4: take candidates closest-first, but skip any
        that sit closer to an already-selected neighbor than to the
        base — keeps edges spread across clusters. Deterministic:
        candidates ordered by (dist, id), strict < comparisons."""
        ds = self._dist(self.vecs[base], cand)
        order = np.lexsort(([self.ids[n] for n in cand], ds))
        chosen: list[int] = []
        for oi in order:
            e = cand[oi]
            if len(chosen) >= cap:
                break
            d_eq = float(ds[oi])
            if chosen:
                d_sel = self._dist(self.vecs[e], chosen)
                if float(d_sel.min()) < d_eq:
                    continue
            chosen.append(e)
        if len(chosen) < cap:  # backfill with skipped, closest-first
            for oi in order:
                if len(chosen) >= cap:
                    break
                if cand[oi] not in chosen:
                    chosen.append(cand[oi])
        return chosen

    def _connect(self, a: int, b: int, level: int):
        cap = self.m * 2 if level == 0 else self.m
        for x, y in ((a, b), (b, a)):
            lst = self.adj[level].setdefault(x, [])
            if y in lst:
                continue
            lst.append(y)
            if len(lst) > cap:
                self.adj[level][x] = self._select_heuristic(x, lst, cap)

    def _insert(self, i: int):
        lvl = int(self.levels[i])
        while len(self.adj) <= lvl:
            self.adj.append({})
        if self.entry < 0:
            self.entry, self.top = i, lvl
            for le in range(lvl + 1):
                self.adj[le].setdefault(i, [])
            return
        q = self.vecs[i]
        cur = self.entry
        for level in range(self.top, lvl, -1):
            cur = self._greedy(q, cur, level)
        for level in range(min(lvl, self.top), -1, -1):
            w = self._search_layer(q, cur, self.efc, level)
            for nb in self._select_heuristic(i, [nb for _d, _v, nb in w], self.m):
                self._connect(i, nb, level)
            cur = w[0][2]
        for le in range(lvl + 1):
            self.adj[le].setdefault(i, [])
        if lvl > self.top:
            self.entry, self.top = i, lvl

    def search(self, q: np.ndarray, k: int, ef: int = 64):
        """→ list of (score, vec_id) with score = cosine (desc)."""
        if self.entry < 0:
            return []
        qn = np.asarray(q, np.float64)
        n = np.linalg.norm(qn)
        qn = qn / n if n else qn
        cur = self.entry
        for level in range(self.top, 0, -1):
            cur = self._greedy(qn, cur, level)
        w = self._search_layer(qn, cur, max(ef, k), 0)
        return [(-d, vid) for d, vid, _nb in w[:k]]

    # -- serialization (edges as flat rows; local idx → vec_id)
    def to_tables(self) -> tuple[pa.Table, dict]:
        lv, src, dst = [], [], []
        for level, d in enumerate(self.adj):
            for a, lst in d.items():
                for b in lst:
                    lv.append(level)
                    src.append(int(self.ids[a]))
                    dst.append(int(self.ids[b]))
        edges = pa.table({
            "level": pa.array(lv, pa.int32()),
            "src": pa.array(src, pa.int64()),
            "dst": pa.array(dst, pa.int64()),
        })
        meta = {"entry": int(self.ids[self.entry]) if self.entry >= 0 else -1,
                "top": self.top, "m": self.m, "n": len(self.ids)}
        return edges, meta

    @classmethod
    def from_tables(cls, ids: np.ndarray, vecs: np.ndarray,
                    edges: pa.Table, meta: dict) -> "ShardHNSW":
        g = cls.__new__(cls)
        order = np.argsort(ids, kind="stable")
        g.ids = ids[order].astype(np.int64)
        v = vecs[order].astype(np.float64)
        norms = np.linalg.norm(v, axis=1)
        norms[norms == 0] = 1.0
        g.vecs = v / norms[:, None]
        g.m = meta["m"]
        g.efc = 0
        g.top = meta["top"]
        pos = {int(x): j for j, x in enumerate(g.ids)}
        g.entry = pos[meta["entry"]] if meta["entry"] >= 0 else -1
        g.adj = [{} for _ in range(g.top + 1)]
        lv = edges["level"].to_numpy()
        src = edges["src"].to_numpy()
        dst = edges["dst"].to_numpy()
        for le, a, b in zip(lv, src, dst):
            g.adj[le].setdefault(pos[int(a)], []).append(pos[int(b)])
        return g


def shard_of(ids: np.ndarray, n_shards: int) -> np.ndarray:
    """Content-independent deterministic shard assignment."""
    return (_splitmix64(ids.astype(np.uint64)) % np.uint64(n_shards)).astype(np.int64)


def hnsw_build(
    ds: ray.data.Dataset,
    path: str,
    *,
    n_shards: int = 8,
    m: int = 8,
    ef_construction: int = 64,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> dict:
    """Build one HNSW graph per hash shard, in parallel, persisted as
    ``{path}/vectors/shard=S.parquet`` + ``{path}/graph/shard=S.parquet``
    + ``{path}/meta.json``. The sequential insert loop runs in the
    shard's one reduce task — the per-shard stateful stage the Dataset
    API can't express as a batch transform (prompt doctrine:
    actor/group state only where genuinely needed)."""
    os.makedirs(os.path.join(path, "vectors"), exist_ok=True)
    os.makedirs(os.path.join(path, "graph"), exist_ok=True)

    def _tag(tbl: pa.Table) -> pa.Table:
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        return tbl.append_column("__shard", pa.array(shard_of(ids, n_shards)))

    def _build(parts: list) -> pa.Table:
        # one reduce call per shard: its id is recomputed from the rows
        # (the exchange drops the bucket column); an empty shard builds
        # nothing
        parts = [t for t in parts if len(t)]
        if not parts:
            return pa.table({})
        tbl = pa.concat_tables(parts, promote_options="permissive")
        ids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        s = int(shard_of(ids[:1], n_shards)[0])
        vecs = np.stack(tbl[vec_col].to_numpy(zero_copy_only=False))
        g = ShardHNSW(ids, vecs, m=m, ef_construction=ef_construction)
        edges, meta = g.to_tables()
        pq.write_table(edges, os.path.join(path, "graph", f"shard={s}.parquet"))
        pq.write_table(
            pa.table({id_col: pa.array(ids, pa.int64()),
                      vec_col: pa.array(list(vecs.astype(np.float32)))}),
            os.path.join(path, "vectors", f"shard={s}.parquet"))
        # routing centroid: mean of the shard's unit vectors (float32
        # round-tripped so driver routing == any recompute)
        cent = g.vecs.mean(axis=0).astype(np.float32).astype(np.float64)
        return pa.Table.from_pylist([{"shard": s, **meta,
                                      "centroid": [cent.tolist()]}])

    metas = bucket_exchange(
        ds.map_batches(_tag, batch_format="pyarrow"), "__shard", n_shards,
        _build, fallback=lambda: ray.data.from_arrow(pa.table({})),
    ).to_pandas()
    info = {"n_shards": n_shards, "m": m, "ef_construction": ef_construction,
            "shards": {int(r["shard"]): {"entry": int(r["entry"]),
                                         "top": int(r["top"]),
                                         "m": int(r["m"]), "n": int(r["n"]),
                                         "centroid": list(r["centroid"][0])}
                       for _, r in metas.iterrows()}}
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(info, fh)
    return info


def _shard_meta(info: dict, s) -> dict:
    sh = info["shards"]
    return sh[str(s)] if str(s) in sh else sh[s]


def _route_queries(info: dict, qn: np.ndarray,
                   route_shards: int | None) -> dict[int, np.ndarray]:
    """→ {shard: query indices}. ``route_shards=None`` fans every
    query out to every shard; an int R visits only each query's R
    most-similar shard CENTROIDS (stable argsort, so float ties break
    by shard id — deterministic)."""
    shards = sorted(int(s) for s in info["shards"])
    if route_shards is None or route_shards >= len(shards):
        allq = np.arange(len(qn))
        return {s: allq for s in shards}
    norms = np.linalg.norm(qn, axis=1)
    norms[norms == 0] = 1.0
    qu = qn / norms[:, None]
    cents = np.stack([np.asarray(_shard_meta(info, s)["centroid"], np.float64)
                      for s in shards])
    sims = qu @ cents.T  # (nq, S)
    order = np.argsort(-sims, axis=1, kind="stable")[:, :route_shards]
    out: dict[int, np.ndarray] = {}
    for col in range(route_shards):
        for s_idx in np.unique(order[:, col]):
            qsel = np.nonzero(order[:, col] == s_idx)[0]
            s = shards[int(s_idx)]
            out[s] = (np.sort(np.concatenate([out[s], qsel]))
                      if s in out else qsel)
    return out


def ann_topk_hnsw(
    path: str,
    queries: np.ndarray,
    k: int = 10,
    *,
    ef_search: int = 64,
    query_ids: np.ndarray | None = None,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    round_to: int | None = 4,
    route_shards: int | None = None,
) -> ray.data.Dataset:
    """Search the shard graphs (one task per shard, queries broadcast
    once via ``ray.put``) and merge per-query top-k across shards.
    Output (query_id, vec_id, score) — score = cosine, desc, ties by
    vec_id (same contract as ``ann_topk_bruteforce``).

    ``route_shards=R`` prunes the fan-out to each query's R
    closest shard centroids (the IVF-over-shards refinement: search
    cost drops S/R-fold; recall depends on shard/cluster alignment —
    hash shards spread clusters, so keep R a meaningful fraction, or
    shard by content cluster for tight routing)."""
    with open(os.path.join(path, "meta.json")) as fh:
        info = json.load(fh)
    qn = np.asarray(queries, dtype=np.float64)
    qids = (np.arange(len(qn)) if query_ids is None
            else np.asarray(query_ids, dtype=np.int64))
    routing = _route_queries(info, qn, route_shards)
    qref = ray.put((qn, qids, {s: v for s, v in routing.items()}))

    shard_rows = [{"shard": int(s)} for s in sorted(routing)]

    def _search_shard(batch: pa.Table) -> pa.Table:
        q, qi, route = ray.get(qref)
        out_q, out_id, out_s = [], [], []
        for s in batch["shard"].to_pylist():
            sel = route[s]
            if len(sel) == 0:
                continue
            vt = pq.read_table(os.path.join(path, "vectors", f"shard={s}.parquet"))
            et = pq.read_table(os.path.join(path, "graph", f"shard={s}.parquet"))
            ids = vt[id_col].to_numpy(zero_copy_only=False)
            vecs = np.stack(vt[vec_col].to_numpy(zero_copy_only=False))
            g = ShardHNSW.from_tables(ids, vecs, et, _shard_meta(info, s))
            for j in sel:
                for score, vid in g.search(q[j], k, ef_search):
                    out_q.append(int(qi[j]))
                    out_id.append(vid)
                    out_s.append(score)
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            id_col: pa.array(out_id, pa.int64()),
            "score": pa.array(out_s, pa.float64()),
        })

    cand = (
        ray.data.from_items(shard_rows)
        .repartition(len(shard_rows))  # one task per shard graph
        .map_batches(_search_shard, batch_format="pyarrow", batch_size=1)
    )

    from feast_ray.functions.similarity import _final_per_query_topk

    return _final_per_query_topk(cand, id_col, k, n_queries=len(qn),
                                 round_to=round_to)


def hnsw_search_sequential(
    path: str, queries: np.ndarray, k: int = 10, *, ef_search: int = 64,
    query_ids: np.ndarray | None = None, id_col: str = "vec_id",
    vec_col: str = "embedding", route_shards: int | None = None,
) -> pd.DataFrame:
    """Single-process reference: same graphs, same routing, same
    search, merged with the same (score desc, vec_id asc) order — the
    q104 oracle dump."""
    with open(os.path.join(path, "meta.json")) as fh:
        info = json.load(fh)
    qn = np.asarray(queries, dtype=np.float64)
    qids = (np.arange(len(qn)) if query_ids is None
            else np.asarray(query_ids, dtype=np.int64))
    routing = _route_queries(info, qn, route_shards)
    rows: list[tuple[int, int, float]] = []
    for s in sorted(routing):
        vt = pq.read_table(os.path.join(path, "vectors", f"shard={s}.parquet"))
        et = pq.read_table(os.path.join(path, "graph", f"shard={s}.parquet"))
        ids = vt[id_col].to_numpy(zero_copy_only=False)
        vecs = np.stack(vt[vec_col].to_numpy(zero_copy_only=False))
        g = ShardHNSW.from_tables(ids, vecs, et, _shard_meta(info, s))
        for j in routing[s]:
            for score, vid in g.search(qn[j], k, ef_search):
                rows.append((int(qids[j]), vid, score))
    df = pd.DataFrame(rows, columns=["query_id", id_col, "score"])
    df = df.sort_values(["query_id", "score", id_col],
                        ascending=[True, False, True], kind="stable")
    return df.groupby("query_id", sort=True).head(k).reset_index(drop=True)
