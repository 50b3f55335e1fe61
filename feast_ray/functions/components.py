"""Connected components over a near-duplicate pair graph.

Production fuzzy-dedup pipelines (MinHash-LSH and friends) need more
than "drop the larger id of each verified pair": downstream sampling,
cluster-size statistics and keep-one-per-cluster policies all want a
CLUSTER id per document. The reference has no analog operator — this
is part of the LLM-training-data surface this engine adds on top of
the reference's operator set (SURVEY.md §2 extension).

Semantics: given verified pairs ``(id_a, id_b)``, label every node
that appears in at least one pair with the MINIMUM node id reachable
from it (the canonical min-label connected component). Singletons
(docs with no verified pair) are their own component and are omitted —
the caller left-joins and coalesces to the doc's own id when a total
labeling is needed (``minhash_components`` does exactly that when
given the corpus).

Two size-gated paths, the same doctrine as ``minhash_candidate_pairs``
verification and ``semi_join``:

* **driver path** (pair count ≤ ``driver_max_edges``): the pair graph
  is bounded by the *duplicate* count, not the corpus size, so at the
  default gate it is a few-hundred-MB array at worst. One vectorized
  numpy loop: hash-min over edges (``np.minimum.at``) alternated with
  pointer jumping (``labels = labels[labels]``), converging in
  O(log diameter) passes — no Python per-edge work.
* **distributed path**: iterative label propagation expressed in Ray
  Data — per iteration ONE partitioned hash join (labels onto edge
  sources) and ONE bucketed grouped-min; labels only ever decrease, so
  the (driver-computed, Python-int, overflow-free) sum of labels is a
  monotone convergence witness: unchanged sum ⟺ fixpoint. Rounds
  needed = graph diameter in label-propagation hops; near-dup cluster
  graphs are star/clique shaped (diameter ≤ ~3), so 3-5 rounds in
  practice. Partitioning assumption: the LABEL table (one row per
  node in the pair graph — duplicates only) fits the cluster
  comfortably; per-iteration state never exceeds edges + labels.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

__all__ = ["connected_components", "minhash_components"]


def _labels_fixpoint(ea: np.ndarray, eb: np.ndarray, n_nodes: int) -> np.ndarray:
    """Vectorized min-label fixpoint over edge index arrays
    (positions into a node array). Returns per-node label positions."""
    labels = np.arange(n_nodes, dtype=np.int64)
    while True:
        before = labels.copy()
        m = np.minimum(labels[ea], labels[eb])
        np.minimum.at(labels, ea, m)
        np.minimum.at(labels, eb, m)
        # pointer jumping: path-halve until stable within this pass
        while True:
            nxt = labels[labels]
            if np.array_equal(nxt, labels):
                break
            labels = nxt
        if np.array_equal(labels, before):
            return labels


def connected_components(
    pairs: ray.data.Dataset,
    id_a: str = "id_a",
    id_b: str = "id_b",
    *,
    out_node: str = "node",
    out_comp: str = "component",
    driver_max_edges: int = 5_000_000,
    max_iters: int = 50,
) -> ray.data.Dataset:
    """(node, component=min reachable id) for every node in ``pairs``.

    The distributed path's per-iteration join and reduce size their
    bucket counts from the input's bytes."""
    n_edges = pairs.count()
    if n_edges == 0:
        empty = pa.table(
            {out_node: pa.array([], pa.int64()),
             out_comp: pa.array([], pa.int64())}
        )
        return ray.data.from_arrow(empty)
    if n_edges <= driver_max_edges:
        ptbl = pairs.select_columns([id_a, id_b]).to_pandas()
        a = ptbl[id_a].to_numpy()
        b = ptbl[id_b].to_numpy()
        nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        labels = _labels_fixpoint(inv[: len(a)], inv[len(a):], len(nodes))
        return ray.data.from_arrow(
            pa.table({out_node: nodes, out_comp: nodes[labels]})
        )
    return _connected_components_distributed(
        pairs, id_a, id_b, out_node=out_node, out_comp=out_comp,
        max_iters=max_iters,
    )


def _connected_components_distributed(
    pairs: ray.data.Dataset,
    id_a: str,
    id_b: str,
    *,
    out_node: str,
    out_comp: str,
    max_iters: int,
) -> ray.data.Dataset:
    """Iterative distributed label propagation (see module docstring)."""
    from feast_ray.stages.dedup import bucketed_group_reduce
    from feast_ray.stages.join import hash_join

    def _sym(t: pa.Table) -> pa.Table:
        src = pa.concat_arrays(
            [t[id_a].combine_chunks().cast(pa.int64()),
             t[id_b].combine_chunks().cast(pa.int64())]
        )
        dst = pa.concat_arrays(
            [t[id_b].combine_chunks().cast(pa.int64()),
             t[id_a].combine_chunks().cast(pa.int64())]
        )
        return pa.table({"src": src, "dst": dst})

    # symmetric edge list, materialized once: every iteration re-reads it
    edges = pairs.select_columns([id_a, id_b]).map_batches(
        _sym, batch_format="pyarrow"
    ).materialize()

    def _merge_min(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(out_node, sort=False, as_index=False)[out_comp].min()

    # labels₀(v) = v
    labels = bucketed_group_reduce(
        edges.map_batches(
            lambda t: pa.table({out_node: t["src"], out_comp: t["src"]}),
            batch_format="pyarrow",
        ),
        [out_node],
        _merge_min,
    ).materialize()

    def _label_sum(ds: ray.data.Dataset) -> int:
        # Python-int sum per batch → overflow-free monotone witness
        return sum(
            int(pd.Series(b[out_comp].to_numpy(zero_copy_only=False)).sum())
            for b in ds.iter_batches(batch_format="pyarrow", batch_size=65536)
        )

    total = _label_sum(labels)
    for _ in range(max_iters):
        # messages: every edge forwards its source's current label to dst
        # rename via map_batches: bucketed_group_reduce emits pandas
        # blocks, which ray's rename_columns can't handle in 2.49
        lab_r = labels.map_batches(
            lambda t: pa.table({"src": t[out_node], "__msg": t[out_comp]}),
            batch_format="pyarrow",
        )
        joined = hash_join(edges, lab_r, on="src")
        msgs = joined.map_batches(
            lambda t: pa.table({out_node: t["dst"], out_comp: t["__msg"]}),
            batch_format="pyarrow",
        )
        labels_new = bucketed_group_reduce(
            labels.union(msgs), [out_node], _merge_min
        ).materialize()
        total_new = _label_sum(labels_new)
        labels = labels_new
        if total_new == total:
            break
        total = total_new
    return labels


def minhash_components(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str = "text",
    threshold: float = 0.8,
    k: int = 3,
    *,
    star_threshold: int = 16,
    out_comp: str = "component",
) -> ray.data.Dataset:
    """Cluster id per document: MinHash-LSH verified pairs →
    connected components → min-id cluster label for every doc in the
    pair graph. Docs with no verified near-duplicate are omitted
    (their component is trivially their own id)."""
    from feast_ray.functions.neardup import minhash_candidate_pairs

    pairs = minhash_candidate_pairs(
        ds, id_col, text_col, threshold, k, star_threshold=star_threshold
    )
    return connected_components(
        pairs, "id_a", "id_b", out_node=id_col, out_comp=out_comp
    )


def keep_best_per_cluster(
    ds: ray.data.Dataset,
    labels: ray.data.Dataset,
    id_col: str,
    score_col: str,
    *,
    higher_is_better: bool = True,
    comp_col: str = "component",
) -> ray.data.Dataset:
    """Cluster-aware dedup policy: keep ONE doc per near-dup cluster —
    the best-scoring one (tie-break: min id) — instead of blindly
    keeping the min id. ``labels`` is a (id, component) labeling as
    produced by :func:`minhash_components`; docs absent from it are
    singletons and survive untouched.

    The labeling and the member scores are bounded by the DUPLICATE
    count, not the corpus (same bound as minhash_dedup's drop set), so
    both are gathered to the driver for the argmax and the drop set is
    applied as a broadcast anti-join (``semi_join(anti=True)``, which
    itself falls back to a distributed marker join above its size
    gate)."""
    from feast_ray.stages.join import semi_join

    lab_df = labels.to_pandas()
    if len(lab_df) == 0:
        return ds
    member_scores = semi_join(
        ds.select_columns([id_col, score_col]), labels.select_columns([id_col]),
        on=id_col,
    ).to_pandas()
    merged = member_scores.merge(lab_df[[id_col, comp_col]], on=id_col)
    merged = merged.sort_values(
        [comp_col, score_col, id_col],
        ascending=[True, not higher_is_better, True],
        kind="stable",
    )
    best = merged.drop_duplicates(comp_col, keep="first")[id_col]
    drops = merged.loc[~merged[id_col].isin(best), [id_col]]
    return semi_join(ds, pa.Table.from_pandas(drops, preserve_index=False),
                     on=id_col, anti=True)


def minhash_dedup_best(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str = "text",
    score_col: str = "n_chars",
    threshold: float = 0.8,
    k: int = 3,
    *,
    higher_is_better: bool = True,
    star_threshold: int = 16,
) -> ray.data.Dataset:
    """MinHash near-dup dedup keeping the BEST doc per cluster (by
    ``score_col``; tie-break min id) — the production keep policy
    (plain ``minhash_dedup`` keeps the min id)."""
    labels = minhash_components(
        ds, id_col, text_col, threshold, k, star_threshold=star_threshold
    )
    return keep_best_per_cluster(
        ds, labels, id_col, score_col, higher_is_better=higher_is_better
    )
