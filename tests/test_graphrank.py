"""PageRank suite: driver/distributed bit-parity (constant and
computed degrees), integer-doctrine invariants, hub-graph ranking
sanity, dangling-source convention."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from feast_ray.functions import graphrank
from feast_ray.functions.graphrank import pagerank


@pytest.fixture
def force_path(monkeypatch):
    """``force_path(n, "driver" | "distributed")`` puts an n-node graph
    on that side of ``graphrank.DRIVER_GATE_NODES`` (at the gate, or one
    node above it)."""
    def _force(n, path):
        monkeypatch.setattr(graphrank, "DRIVER_GATE_NODES",
                            n if path == "driver" else n - 1)
    return _force


def _edges_tbl(src, dst):
    return rd.from_arrow(pa.table({
        "src": pa.array(np.asarray(src, dtype=np.int64)),
        "dst": pa.array(np.asarray(dst, dtype=np.int64)),
    })).repartition(5)


def _skewed(n=400):
    d = np.arange(n)
    src = np.repeat(d, 3)
    dst = np.concatenate([(d * d + p * d) % n for p in (7, 101, 997)])
    return src, dst


def test_driver_distributed_bit_parity_const_deg(force_path):
    src, dst = _skewed()
    e = _edges_tbl(src, dst)
    force_path(400, "driver")
    a = (pagerank(e, 400, out_degree=3).to_pandas()
         .sort_values("node").reset_index(drop=True))
    force_path(400, "distributed")
    b = (pagerank(e, 400, out_degree=3).to_pandas()
         .sort_values("node").reset_index(drop=True))
    assert a.equals(b[a.columns])
    assert a["rank_q"].dtype == np.int64
    # skewed in-degree by construction
    assert a["in_deg"].max() >= 5 and (a["in_deg"] == 0).any()


def test_driver_distributed_bit_parity_computed_deg(force_path):
    rng = np.random.default_rng(3)
    src = rng.integers(0, 120, 700)
    dst = rng.integers(0, 120, 700)
    e = _edges_tbl(src, dst)
    force_path(120, "driver")
    a = (pagerank(e, 120).to_pandas()
         .sort_values("node").reset_index(drop=True))
    force_path(120, "distributed")
    b = (pagerank(e, 120).to_pandas()
         .sort_values("node").reset_index(drop=True))
    assert a.equals(b[a.columns])


def test_hub_ranks_highest(force_path):
    # star: everyone links to node 0 plus a ring edge
    n = 50
    d = np.arange(1, n)
    src = np.concatenate([d, d])
    dst = np.concatenate([np.zeros(n - 1, np.int64), (d + 1) % n])
    force_path(n, "driver")
    out = (pagerank(_edges_tbl(src, dst), n).to_pandas()
           .sort_values("rank_q", ascending=False))
    assert out.iloc[0]["node"] == 0
    # n-1 star edges plus the ring edge from node n-1
    assert out.iloc[0]["in_deg"] == n


def test_no_inlink_node_gets_base_rank(force_path):
    # 1 -> 2 only; node 0 has no in-links, out-degree 0 (dangling)
    force_path(3, "driver")
    out = (pagerank(_edges_tbl([1], [2]), 3).to_pandas()
           .set_index("node"))
    scale = 10**12
    base = 15 * (scale // 3) // 100
    assert out.loc[0, "rank_q"] == base and out.loc[0, "in_deg"] == 0
    # node 2 receives node 1's full (deg=1) contribution in iter 1,
    # then 1's rank decays to base: r2 = base + 85*(base//1)//100
    assert out.loc[2, "rank_q"] == base + 85 * base // 100


def test_rank_mass_bounded_and_deterministic(force_path):
    src, dst = _skewed(200)
    e = _edges_tbl(src, dst)
    force_path(200, "driver")
    a = pagerank(e, 200, out_degree=3).to_pandas()
    b = pagerank(e, 200, out_degree=3).to_pandas()
    assert a.sort_values("node").equals(b.sort_values("node"))
    # total mass can only shrink under integer floors
    assert a["rank_q"].sum() <= 10**12
    assert (a["rank_q"] > 0).all()


def test_bfs_levels_matches_brute_force():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from feast_ray.functions.graphrank import bfs_levels

    rng = np.random.default_rng(23)
    edges = pd.DataFrame({
        "src": rng.integers(0, 60, 300).astype(np.int64),
        "dst": rng.integers(0, 60, 300).astype(np.int64),
    })
    for depth in (1, 3):
        out = (bfs_levels(rd.from_pandas(edges).repartition(4), 5, depth)
               .to_pandas().sort_values("node").reset_index(drop=True))
        # brute-force BFS
        adj = {}
        for s, d in zip(edges["src"], edges["dst"]):
            adj.setdefault(int(s), set()).add(int(d))
        lev = {5: 0}
        frontier = {5}
        for dd in range(1, depth + 1):
            nxt = set()
            for u in frontier:
                nxt |= adj.get(u, set())
            nxt -= set(lev)
            for v in nxt:
                lev[v] = dd
            frontier = nxt
        ref = (pd.DataFrame(sorted(lev.items()), columns=["node", "level"])
               .astype("int64"))
        assert out.equals(ref), f"depth={depth}"


def test_bfs_levels_isolated_source():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from feast_ray.functions.graphrank import bfs_levels

    edges = pd.DataFrame({"src": np.array([1, 2], np.int64),
                          "dst": np.array([2, 3], np.int64)})
    out = bfs_levels(rd.from_pandas(edges), 99, 3).to_pandas()
    assert list(out["node"]) == [99] and list(out["level"]) == [0]


def test_bfs_levels_runs_edge_pipeline_once(tmp_path):
    """The caller's edges pipeline runs once per input block, not once
    (plus a schema probe) per hop: a side-effecting edge stage leaves
    one marker file per call."""
    import os
    import uuid

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from feast_ray.functions.graphrank import bfs_levels

    marks = str(tmp_path)

    def _mark(t):
        open(os.path.join(marks, uuid.uuid4().hex), "w").close()
        return t

    # chain 0 -> 1 -> 2 -> 3 -> 4: three hops all find a new node
    chain = pd.DataFrame({"src": np.arange(4, dtype=np.int64),
                          "dst": np.arange(1, 5, dtype=np.int64)})
    edges = rd.from_pandas(chain).repartition(2).map_batches(
        _mark, batch_format="pyarrow")
    out = bfs_levels(edges, 0, 3).to_pandas().sort_values("node")
    assert list(out["level"]) == [0, 1, 2, 3]
    assert len(os.listdir(marks)) == 2


def test_hits_driver_distributed_parity(force_path):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from feast_ray.functions.graphrank import hits

    rng = np.random.default_rng(31)
    n = 80
    edges = pd.DataFrame({
        "src": rng.integers(0, n, 400).astype(np.int64),
        "dst": rng.integers(0, n, 400).astype(np.int64),
    })
    force_path(n, "driver")
    drv = (hits(rd.from_pandas(edges).repartition(3), n, iters=3)
           .to_pandas().sort_values("node").reset_index(drop=True))
    force_path(n, "distributed")
    dist = (hits(rd.from_pandas(edges).repartition(3), n, iters=3)
            .to_pandas().sort_values("node").reset_index(drop=True))
    assert (drv["hub_q"].to_numpy() == dist["hub_q"].to_numpy()).all()
    assert (drv["auth_q"].to_numpy() == dist["auth_q"].to_numpy()).all()
    # max-normalized: top score is exactly scale
    assert drv["hub_q"].max() == 10**6 and drv["auth_q"].max() == 10**6


def test_hits_overflow_guard(force_path):
    import numpy as np
    import pandas as pd
    import pytest
    import ray.data as rd

    from feast_ray.functions.graphrank import hits

    # a star graph: node 0 receives from everyone; huge scale trips
    # the documented in-degree * scale^2 < 2^63 bound
    n = 50
    edges = pd.DataFrame({
        "src": np.arange(1, n, dtype=np.int64),
        "dst": np.zeros(n - 1, np.int64)})
    force_path(n, "driver")
    with pytest.raises(ValueError, match="overflow"):
        hits(rd.from_pandas(edges), n, iters=2, scale=10**10).to_pandas()


@pytest.mark.parametrize("mode", ["driver", "distributed"])
def test_hits_rejects_zero_iters(mode, force_path):
    """iters < 1 is refused identically by the driver and distributed
    paths."""
    import pandas as pd

    from feast_ray.functions.graphrank import hits

    edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
    force_path(3, mode)
    with pytest.raises(ValueError, match="iters"):
        hits(rd.from_pandas(edges), 3, iters=0)
