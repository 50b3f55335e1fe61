"""Distributed PageRank over a link graph — integer fixed-point.

The web-pipeline use: rank hosts/pages of a crawl by link structure
(the classic crawl-prioritization / quality prior — Page et al. 1999;
Common Crawl publishes exactly this as its host-level ranking). The
reference has no graph operator; this is part of the engine's
beyond-reference LLM-data surface (SURVEY §2 extension tier), shaped
like ``connected_components``: a SIZE-GATED driver fixpoint for small
graphs and a distributed iterated join+aggregate for graphs whose
rank vector cannot sit on one machine.

Determinism doctrine (q92/q93/q97): all rank arithmetic is int64
fixed point — rank starts at ``scale // n``, each edge contributes
``rank // out_degree`` (integer division), and the damping update is
``base + (damping_pct * sum) // 100``. Addition of integers is
order-free, so the driver path, the distributed path, and a SQL
restatement agree BIT-EXACTLY — no float summation-order drift.

Scale shape of the distributed path: per iteration one partitioned
``hash_join`` (edges ⋈ ranks on src — auto-sized buckets) and one
combiner-shape ``grouped_agg`` sum by dst, then a left join back to
the node set. 100-TB honesty: both the edge list and the rank vector
stream; nothing node-sized ever materializes on the driver above the
gate. (A production refinement would pin edges and ranks to ONE
shared hash partitioning across iterations to skip re-exchanging the
static edge side — documented, not needed at bench scale.)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from feast_ray.stages.aggregate import AggSpec, grouped_agg
from feast_ray.stages.join import hash_join

#: graphs with at most this many nodes run the driver fixpoint
DRIVER_GATE_NODES = 2_000_000


def _driver_pagerank(
    src: np.ndarray, dst: np.ndarray, deg: np.ndarray, n: int,
    iters: int, scale: int, damping_pct: int,
) -> np.ndarray:
    r = np.full(n, scale // n, dtype=np.int64)
    base = (100 - damping_pct) * (scale // n) // 100
    for _ in range(iters):
        contrib = r[src] // deg[src]
        s = np.zeros(n, dtype=np.int64)
        np.add.at(s, dst, contrib)
        r = base + (damping_pct * s) // 100
    return r


def pagerank(
    edges: ray.data.Dataset,
    n_nodes: int,
    *,
    iters: int = 5,
    scale: int = 10**12,
    damping_pct: int = 85,
    src_col: str = "src",
    dst_col: str = "dst",
    out_degree: int | None = None,
) -> ray.data.Dataset:
    """→ (node, in_deg, rank_q) for nodes 0..n_nodes−1.

    ``out_degree``: pass the constant fan-out when the graph has one
    (skips the degree join); None computes per-src degrees. Nodes with
    no outgoing edges contribute nothing (their mass damps away — the
    simple dangling convention, stated so the SQL oracle matches).
    Graphs up to ``DRIVER_GATE_NODES`` nodes run on the driver, larger
    ones distributed. Both paths are bit-identical (integer arithmetic
    throughout).
    """
    use_driver = n_nodes <= DRIVER_GATE_NODES
    base = (100 - damping_pct) * (scale // n_nodes) // 100

    if use_driver:
        df = edges.select_columns([src_col, dst_col]).to_pandas()
        src = df[src_col].to_numpy(dtype=np.int64)
        dst = df[dst_col].to_numpy(dtype=np.int64)
        if out_degree is None:
            deg = np.bincount(src, minlength=n_nodes).astype(np.int64)
            deg[deg == 0] = 1
        else:
            deg = np.full(n_nodes, out_degree, dtype=np.int64)
        r = _driver_pagerank(src, dst, deg, n_nodes, iters, scale, damping_pct)
        ind = np.bincount(dst, minlength=n_nodes).astype(np.int64)
        tbl = pa.table({
            "node": pa.array(np.arange(n_nodes, dtype=np.int64)),
            "in_deg": pa.array(ind),
            "rank_q": pa.array(r),
        })
        return ray.data.from_arrow(tbl)

    # ---- distributed path: iterated partitioned join + combiner sum
    nodes = ray.data.range(n_nodes).map_batches(
        lambda t: pa.table({"node": t["id"].cast(pa.int64())}),
        batch_format="pyarrow",
    ).materialize()

    if out_degree is None:
        degs = grouped_agg(
            edges.map_batches(
                lambda t: pa.table({"node": t[src_col].cast(pa.int64())}),
                batch_format="pyarrow"),
            ["node"], [AggSpec(None, "count", "deg")],
        ).materialize()
    else:
        degs = None

    r0 = scale // n_nodes
    ranks = nodes.map_batches(
        lambda t: t.append_column(
            "r", pa.array(np.full(len(t), r0, dtype=np.int64))),
        batch_format="pyarrow",
    ).materialize()

    edges2 = edges.map_batches(
        lambda t: pa.table({
            src_col: t[src_col].cast(pa.int64()),
            dst_col: t[dst_col].cast(pa.int64()),
        }),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(iters):
        rsrc = ranks.map_batches(
            lambda t: pa.table({src_col: t["node"], "r": t["r"]}),
            batch_format="pyarrow")
        if degs is not None:
            dsrc = degs.map_batches(
                lambda t: pa.table({src_col: t["node"], "deg": t["deg"]}),
                batch_format="pyarrow")
            rsrc = hash_join(rsrc, dsrc, on=src_col)
        joined = hash_join(edges2, rsrc, on=src_col)

        def _contrib(t: pa.Table, _od=out_degree) -> pa.Table:
            r = t["r"].to_numpy(zero_copy_only=False)
            d = (np.full(len(t), _od, dtype=np.int64) if _od is not None
                 else t["deg"].to_numpy(zero_copy_only=False))
            return pa.table({
                "node": t[dst_col],
                "c": pa.array(r // d),
            })

        sums = grouped_agg(
            joined.map_batches(_contrib, batch_format="pyarrow"),
            ["node"], [AggSpec("c", "sum", "s")])
        merged = hash_join(nodes, sums, on="node", how="left")

        def _update(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            s = pc.fill_null(t["s"], 0).cast(pa.int64()).to_numpy(
                zero_copy_only=False).astype(np.int64)
            return pa.table({
                "node": t["node"],
                "r": pa.array(base + (damping_pct * s) // 100),
            })

        ranks = merged.map_batches(_update, batch_format="pyarrow").materialize()

    ind = grouped_agg(
        edges2.map_batches(
            lambda t: pa.table({"node": t[dst_col]}), batch_format="pyarrow"),
        ["node"], [AggSpec(None, "count", "in_deg")])
    out = hash_join(nodes, ind, on="node", how="left")
    final = hash_join(out, ranks, on="node")

    def _final(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ind_ = pc.fill_null(t["in_deg"], 0).cast(pa.int64())
        return pa.table({
            "node": t["node"],
            "in_deg": ind_,
            "rank_q": t["r"],
        })

    return final.map_batches(_final, batch_format="pyarrow")


def triangle_count(
    edges: "ray.data.Dataset",
    *,
    src_col: str = "src",
    dst_col: str = "dst",
) -> "ray.data.Dataset":
    """Exact distributed triangle count over an undirected simple
    graph (self-loops dropped, multi-edges collapsed) — the
    clustering-coefficient / community-density primitive. Returns a
    single row (n_edges, n_triangles).

    Method — degree-ordered edge orientation (the MapReduce classic,
    Suri & Vassilvitskii WWW 2011): orient every edge from the
    lower-(degree, id) endpoint to the higher, so every node's
    out-degree is O(√E) regardless of hub skew; each node emits its
    out-neighbor PAIRS (wedges), and a wedge (b, c) closes a triangle
    iff the oriented edge (b, c) exists. Every triangle is counted
    exactly once (at its lowest-ranked vertex). The COUNT is
    orientation-invariant, so the SQL oracle can restate it with the
    simpler id-ordered triple join.

    Exchanges: one to dedup undirected edges, one combiner-shape
    degree count (broadcast — node-count-bounded; at 10^12 nodes it
    becomes a join on both endpoints, the documented flip), one on the
    wedge key (b, c) matching wedges against edges.
    """
    import pyarrow.compute as pc  # noqa: F401

    from feast_ray.stages.aggregate import AggSpec, grouped_agg
    from feast_ray.stages.dedup import bucketed_group_reduce

    def _undirect(t: pa.Table) -> pa.Table:
        s = t[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({
            "u": pa.array(np.minimum(s, d)),
            "v": pa.array(np.maximum(s, d)),
        })

    und = edges.map_batches(_undirect, batch_format="pyarrow")

    def _dedup(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.drop_duplicates(["u", "v"])

    uniq = bucketed_group_reduce(und, ["u", "v"], _dedup).materialize()

    def _ends(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pa.concat_arrays(
                [t["u"].combine_chunks(), t["v"].combine_chunks()]),
        })

    deg = grouped_agg(
        uniq.map_batches(_ends, batch_format="pyarrow"),
        ["node"], [AggSpec(None, "count", "deg")]).to_pandas()
    deg_ref = ray.put(dict(zip(deg["node"], deg["deg"])))

    def _orient(t: pa.Table) -> pa.Table:
        lut = ray.get(deg_ref)
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        du = pd.Series(u).map(lut).to_numpy(np.int64)
        dv = pd.Series(v).map(lut).to_numpy(np.int64)
        # rank = (deg, id): orient low -> high
        flip = (dv < du) | ((dv == du) & (v < u))
        a = np.where(flip, v, u)
        b = np.where(flip, u, v)
        return pa.table({"a": pa.array(a), "b": pa.array(b)})

    oriented = uniq.map_batches(_orient, batch_format="pyarrow").materialize()

    def _wedges(df: "pd.DataFrame") -> "pd.DataFrame":
        outs = []
        for _, g in df.groupby("a", sort=False):
            nb = np.sort(g["b"].to_numpy())
            if len(nb) < 2:
                continue
            i, j = np.triu_indices(len(nb), k=1)
            outs.append((nb[i], nb[j]))
        if not outs:
            return pd.DataFrame({"x": pd.Series([], dtype="int64"),
                                 "y": pd.Series([], dtype="int64"),
                                 "w": pd.Series([], dtype="int64")})
        x = np.concatenate([o[0] for o in outs])
        y = np.concatenate([o[1] for o in outs])
        # pre-count duplicate wedges (several anchors can emit the
        # same (x, y) pair) — combiner shape
        out = (pd.DataFrame({"x": x, "y": y})
               .groupby(["x", "y"], as_index=False, sort=False).size()
               .rename(columns={"size": "w"}))
        return out.astype("int64")

    wedges = bucketed_group_reduce(oriented, ["a"], _wedges)

    def _edge_rows(t: pa.Table) -> pa.Table:
        # oriented edges keyed like wedges, w = -1 marks "edge"
        x = t["a"].to_numpy(zero_copy_only=False)
        y = t["b"].to_numpy(zero_copy_only=False)
        # wedge pairs are emitted with x < y in SORTED neighbor order,
        # but the closing edge (b, c) is oriented by RANK — normalize
        # to id order on both sides so the keys collide
        return pa.table({
            "x": pa.array(np.minimum(x, y)),
            "y": pa.array(np.maximum(x, y)),
            "w": pa.array(np.full(len(x), -1, np.int64)),
        })

    closing = oriented.map_batches(_edge_rows, batch_format="pyarrow")

    def _close(df: "pd.DataFrame") -> "pd.DataFrame":
        has_edge = df[df["w"] < 0][["x", "y"]].drop_duplicates()
        wed = df[df["w"] > 0]
        if not len(wed) or not len(has_edge):
            return pd.DataFrame({"n_triangles": pd.Series([], dtype="int64")})
        m = wed.merge(has_edge, on=["x", "y"], how="inner")
        return pd.DataFrame({"n_triangles": [int(m["w"].sum())]})

    tri = bucketed_group_reduce(wedges.union(closing), ["x", "y"], _close)
    n_tri = sum(r["n_triangles"] for r in tri.take_all())
    n_edges = uniq.count()
    return ray.data.from_items([{"n_edges": n_edges,
                                 "n_triangles": int(n_tri)}])


def bfs_levels(
    edges: "ray.data.Dataset",
    source: int,
    max_depth: int,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
) -> "ray.data.Dataset":
    """Distributed breadth-first levels from ``source`` up to
    ``max_depth`` hops — the crawl-frontier / graph-reachability
    primitive (level = shortest hop distance, an exact integer, so
    DuckDB's recursive CTE with min(level) oracles it bit-exactly).

    Shape: level-synchronous frontier expansion — per hop, ONE
    partitioned ``hash_join`` (edges ⋈ frontier on src), one distinct,
    one ANTI join against the visited set (size-gated broadcast ↔
    distributed marker join, the semi_join doctrine). The visited set
    and frontier stream through the object store; the driver holds
    only loop control. Edges re-exchange per hop — a pinned
    co-partitioning across iterations is the documented refinement at
    web scale (same note as pagerank's).
    """
    import pyarrow.compute as pc  # noqa: F401

    from feast_ray.stages.join import hash_join, semi_join
    from feast_ray.stages.relational import distinct

    # every hop joins the edges: run their pipeline once, not per hop
    # (plus a schema probe per hop)
    edges = edges.materialize()
    levels = ray.data.from_items(
        [{"node": int(source), "level": 0}]).materialize()
    frontier = levels
    for depth in range(1, max_depth + 1):
        fr = frontier.map_batches(
            lambda t: pa.table({src_col: t["node"].cast(pa.int64())}),
            batch_format="pyarrow")
        hops = hash_join(edges, fr, on=src_col)
        nxt = distinct(
            hops.map_batches(
                lambda t: pa.table({"node": t[dst_col].cast(pa.int64())}),
                batch_format="pyarrow"),
            ["node"])
        fresh = semi_join(
            nxt, levels.map_batches(
                lambda t: t.select(["node"]), batch_format="pyarrow"),
            on="node", anti=True)
        frontier = fresh.map_batches(
            lambda t, d=depth: t.append_column(
                "level", pa.array(np.full(len(t), d, np.int64))),
            batch_format="pyarrow").materialize()
        if frontier.count() == 0:
            break
        levels = levels.union(frontier).materialize()
    return levels.map_batches(
        lambda t: pa.table({
            "node": t["node"].cast(pa.int64()),
            "level": t["level"].cast(pa.int64()),
        }),
        batch_format="pyarrow")


def _driver_hits(
    src: np.ndarray, dst: np.ndarray, n: int, iters: int, scale: int,
) -> "tuple[np.ndarray, np.ndarray]":
    lim = (2**63 - 1) // scale

    def _nrm(raw: np.ndarray) -> np.ndarray:
        mx = int(raw.max()) if len(raw) else 0
        if mx > lim:
            raise ValueError("hits: score overflow — lower scale")
        return (raw * scale) // mx if mx else raw

    h = np.full(n, scale, dtype=np.int64)
    a = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        a_raw = np.zeros(n, dtype=np.int64)
        np.add.at(a_raw, dst, h[src])
        a = _nrm(a_raw)
        h_raw = np.zeros(n, dtype=np.int64)
        np.add.at(h_raw, src, a[dst])
        h = _nrm(h_raw)
    return h, a


def hits(
    edges: ray.data.Dataset,
    n_nodes: int,
    *,
    iters: int = 3,
    scale: int = 10**6,
    src_col: str = "src",
    dst_col: str = "dst",
) -> ray.data.Dataset:
    """HITS hubs & authorities (Kleinberg 1999) → (node, hub_q,
    auth_q) for nodes 0..n_nodes−1 — the link-analysis sibling of
    ``pagerank`` (authorities = pages good hubs point at; the crawl
    seed-quality / mirror-detection prior).

    Integer fixed-point doctrine: h₀ = scale; each half-iteration is
    an exact int64 edge-sum followed by MAX-normalization
    ``x·scale // max(x)`` — max of integers and integer division are
    both order-free, so driver, distributed and unrolled-SQL paths
    agree bit-exactly (the L2 norm of float HITS would not).
    Overflow bound (documented, asserted): max in-degree · scale² <
    2^63, i.e. in-degree ≤ ~9.2e6 at the default scale — lower
    ``scale`` for denser graphs.

    Distributed shape per half-iteration: one partitioned hash_join
    (edges ⋈ scores) + one combiner-shape grouped sum + one exact
    scalar ``Dataset.max`` (driver reads ONE int) + a left join back
    to the node set. Same ``DRIVER_GATE_NODES`` gate as pagerank.
    ``iters`` must be ≥ 1 (an authority score needs at least one
    half-iteration)."""
    if iters < 1:
        raise ValueError(f"hits: iters must be >= 1, got {iters}")
    use_driver = n_nodes <= DRIVER_GATE_NODES

    if use_driver:
        df = edges.select_columns([src_col, dst_col]).to_pandas()
        src = df[src_col].to_numpy(dtype=np.int64)
        dst = df[dst_col].to_numpy(dtype=np.int64)
        h, a = _driver_hits(src, dst, n_nodes, iters, scale)
        return ray.data.from_arrow(pa.table({
            "node": pa.array(np.arange(n_nodes, dtype=np.int64)),
            "hub_q": pa.array(h), "auth_q": pa.array(a)}))

    nodes = ray.data.range(n_nodes).map_batches(
        lambda t: pa.table({"node": t["id"].cast(pa.int64())}),
        batch_format="pyarrow").materialize()
    edges2 = edges.map_batches(
        lambda t: pa.table({
            src_col: t[src_col].cast(pa.int64()),
            dst_col: t[dst_col].cast(pa.int64())}),
        batch_format="pyarrow").materialize()

    def pc_fill0(arr):
        import pyarrow.compute as pc
        return pc.fill_null(arr, 0).cast(pa.int64())

    def _norm(ds: ray.data.Dataset, raw_col: str, out_col: str,
              mx: int) -> ray.data.Dataset:
        if mx > (2**63 - 1) // scale:
            raise ValueError("hits: score overflow — lower scale")

        def _f(t: pa.Table, _mx=mx) -> pa.Table:
            import pyarrow.compute as pc
            v = pc.fill_null(t[raw_col], 0).cast(pa.int64()).to_numpy(
                zero_copy_only=False).astype(np.int64)
            out = (v * scale) // _mx if _mx else v
            return pa.table({"node": t["node"], out_col: pa.array(out)})
        return ds.map_batches(_f, batch_format="pyarrow")

    def _half(scores: ray.data.Dataset, score_col: str,
              from_col: str, to_col: str,
              out_col: str) -> ray.data.Dataset:
        """one half-iteration: sum score over edges from ``from_col``
        endpoints onto ``to_col`` endpoints, max-normalize."""
        sidec = scores.map_batches(
            lambda t: pa.table({from_col: t["node"],
                                "v": t[score_col]}),
            batch_format="pyarrow")
        joined = hash_join(edges2, sidec, on=from_col)
        sums = grouped_agg(
            joined.map_batches(
                lambda t: pa.table({"node": t[to_col], "v": t["v"]}),
                batch_format="pyarrow"),
            ["node"], [AggSpec("v", "sum", "s")])
        merged = hash_join(nodes, sums, on="node", how="left").materialize()
        mx = merged.map_batches(
            lambda t: pa.table({"s": pc_fill0(t["s"])}),
            batch_format="pyarrow").max("s")
        return _norm(merged, "s", out_col, int(mx or 0)).materialize()

    h = nodes.map_batches(
        lambda t: t.append_column(
            "hub_q", pa.array(np.full(len(t), scale, np.int64))),
        batch_format="pyarrow").materialize()
    for _ in range(iters):
        a = _half(h, "hub_q", src_col, dst_col, "auth_q")
        h = _half(a, "auth_q", dst_col, src_col, "hub_q")

    out = hash_join(h, a, on="node")
    return out.map_batches(
        lambda t: t.select(["node", "hub_q", "auth_q"]),
        batch_format="pyarrow")
