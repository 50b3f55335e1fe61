"""Connected components over near-dup pair graphs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from feast_ray.functions.components import connected_components, minhash_components


def _uf_reference(edges):
    """Tiny union-find oracle."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # min-label per component
    comp = {}
    for x in list(parent):
        r = find(x)
        comp.setdefault(r, []).append(x)
    out = {}
    for r, members in comp.items():
        m = min(members)
        for x in members:
            out[x] = m
    return out


def _pairs_ds(edges):
    a = pa.array([e[0] for e in edges], pa.int64())
    b = pa.array([e[1] for e in edges], pa.int64())
    return ray.data.from_arrow(pa.table({"id_a": a, "id_b": b}))


def _as_dict(ds):
    df = ds.to_pandas()
    return dict(zip(df["node"].astype(int), df["component"].astype(int)))


def test_cc_chain_and_cliques():
    # chain 1-2-3-4, clique {10,11,12}, pair {20,21}, isolated not present
    edges = [(1, 2), (2, 3), (3, 4), (10, 11), (11, 12), (10, 12), (20, 21)]
    got = _as_dict(connected_components(_pairs_ds(edges)))
    assert got == _uf_reference(edges)
    assert got[4] == 1 and got[12] == 10 and got[21] == 20


def test_cc_random_graphs_match_union_find():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(20, 200))
        m = int(rng.integers(10, 400))
        ea = rng.integers(0, n, m)
        eb = rng.integers(0, n, m)
        keep = ea != eb
        edges = list(zip(ea[keep].tolist(), eb[keep].tolist()))
        if not edges:
            continue
        got = _as_dict(connected_components(_pairs_ds(edges)))
        assert got == _uf_reference(edges)


def test_cc_empty():
    ds = ray.data.from_arrow(
        pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())})
    )
    assert connected_components(ds).count() == 0


def test_cc_distributed_parity():
    """driver_max_edges=0 forces the iterative distributed path; the
    labeling must be identical to the driver fixpoint."""
    # realistic near-dup graph shape: a clique, a star, and a short
    # chain that needs >1 propagation round to collapse
    edges = (
        [(a, b) for a in (50, 51, 52, 53) for b in (50, 51, 52, 53) if a < b]
        + [(10, x) for x in (11, 12, 13, 14)]
        + [(1, 2), (2, 3), (3, 4)]
    )
    drv = _as_dict(connected_components(_pairs_ds(edges)))
    dist = _as_dict(
        connected_components(_pairs_ds(edges), driver_max_edges=0)
    )
    assert dist == drv


def test_minhash_components_planted_clusters():
    """Two planted near-dup families + distinct singletons: each
    family collapses to one component labeled by its min doc id;
    singletons are absent from the output."""
    base_a = "the quick brown fox jumps over the lazy dog again and again " * 8
    base_b = "pack my box with five dozen liquor jugs for the long voyage " * 8
    rows = []
    for i in range(4):
        rows.append((100 + i, base_a + f" tail{i}"))
        rows.append((200 + i, base_b + f" tail{i}"))
    rows.append((300, "completely unrelated tiny text about volcanoes"))
    rows.append((301, "another unrelated snippet concerning deep sea fish"))
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [r[0] for r in rows], "text": [r[1] for r in rows]})
    )
    df = minhash_components(ds, "doc_id", "text", threshold=0.7).to_pandas()
    got = dict(zip(df["doc_id"].astype(int), df["component"].astype(int)))
    fam_a = {d for d in got if 100 <= d < 200}
    fam_b = {d for d in got if 200 <= d < 300}
    assert fam_a and all(got[d] == 100 for d in fam_a)
    assert fam_b and all(got[d] == 200 for d in fam_b)
    assert 300 not in got and 301 not in got
    # the two families never merge
    assert not (set(got.values()) & {100}) or 100 not in {got[d] for d in fam_b}


def test_minhash_dedup_best_keeps_highest_score():
    """Cluster-aware keep policy: the SURVIVOR of each near-dup family
    is the best-scoring member (longest text here), not the min id —
    and singletons are untouched."""
    from feast_ray.functions.components import minhash_dedup_best

    base_a = "the quick brown fox jumps over the lazy dog again and again " * 8
    base_b = "pack my box with five dozen liquor jugs for the long voyage " * 8
    rows = [
        (100, base_a + "t0", 1.0),
        (101, base_a + "t1", 9.0),  # best of family a, NOT the min id
        (102, base_a + "t2", 2.0),
        (200, base_b + "s0", 3.0),
        (201, base_b + "s1", 7.0),  # best of family b
        (300, "completely unrelated tiny text about volcanoes", 0.1),
    ]
    df = pd.DataFrame(
        {
            "doc_id": [r[0] for r in rows],
            "text": [r[1] for r in rows],
            "quality": [r[2] for r in rows],
        }
    )
    ds = ray.data.from_pandas(df)
    out = minhash_dedup_best(
        ds, "doc_id", "text", score_col="quality", threshold=0.7
    ).to_pandas()
    assert sorted(out["doc_id"].astype(int)) == [101, 201, 300]


def test_keep_best_per_cluster_empty_labels_is_noop():
    from feast_ray.functions.components import keep_best_per_cluster

    df = pd.DataFrame({"doc_id": [1, 2], "n_chars": [5, 9]})
    ds = ray.data.from_pandas(df)
    labels = ray.data.from_pandas(pd.DataFrame({"doc_id": [], "component": []}))
    out = keep_best_per_cluster(ds, labels, "doc_id", "n_chars").to_pandas()
    assert sorted(out["doc_id"].astype(int)) == [1, 2]
