"""Semantic deduplication over an embedding column (SemDeDup shape —
Abbas et al. 2023, "SemDeDup: Data-efficient learning at web-scale
through semantic deduplication"): k-means-cluster the embeddings, then
drop near-duplicates WITHIN each cluster by pairwise cosine.

The reference has no semantic-dedup operator (its vector surface is
retrieval — feature_store.py:4044); this is one of the brief's
first-class LLM-pipeline additions, composing machinery that already
exists here: the deterministic IVF centroid fit (hash-sampled k-means,
similarity.py:IVFIndex), per-batch cell assignment, and the raw
bucketed exchange keyed by cell (stages/exchange.py) so each cluster's
pairwise work never crosses the network.

Drop rule (deterministic, order-free, SQL-expressible): a row is
dropped iff SOME lower-id row in the same cluster has cosine >=
``threshold`` — the pairwise variant of the paper's greedy leader
pass (every lower-id row counts as a witness whether or not it was
itself kept), chosen so a DuckDB oracle can restate it as one EXISTS
join over the dumped cluster assignment (q91).

Scale shape: pairwise cost is per-cluster, O(sum n_c^2) not O(n^2);
row-chunked inside the reducer so memory stays bounded. Clusters are
capped by construction (raise ``n_clusters`` at corpus scale — the
paper uses ~100k clusters for LAION); the gate-scale default keeps
cells small enough for one reducer each.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from feast_ray.functions.similarity import IVFIndex, _batch_matrix, _normalize

#: rows per block of the reducer's chunked pairwise cosine
CHUNK_ROWS = 4096


def semantic_dedup(
    ds: ray.data.Dataset,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_clusters: int = 8,
    threshold: float = 0.92,
    sample_size: int = 2048,
) -> "tuple[ray.data.Dataset, np.ndarray]":
    """Returns (kept_rows, centroids): ``kept_rows`` has columns
    (id_col, cell) — the rows that survive within-cluster cosine
    dedup; ``centroids`` is the (n_clusters, d) fit for dumping /
    reuse. Deterministic end to end (hash-sampled k-means seed,
    order-free drop rule)."""
    from feast_ray.functions.sampling import sample_by_hash
    from feast_ray.stages.exchange import bucket_exchange

    n_total = ds.count()
    frac = min(1.0, sample_size / max(1, n_total))
    sample_tbl = sample_by_hash(ds, id_col, frac).to_pandas()
    if len(sample_tbl) == 0:
        sample_tbl = ds.limit(sample_size).to_pandas()
    sample = np.stack(sample_tbl[vec_col].to_numpy())
    index = IVFIndex(sample, n_cells=n_clusters)
    cref = ray.put(index.centroids)
    # this call's value, read on the driver and shipped in the closure
    chunk_rows = CHUNK_ROWS

    def _assign(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            t = pa.table({
                id_col: pa.array([], pa.int64()),
                vec_col: tbl[vec_col] if vec_col in tbl.column_names
                else pa.array([], pa.list_(pa.float64())),
            })
            return t.append_column("cell", pa.array([], pa.int64()))
        cent = ray.get(cref)
        mat = _normalize(_batch_matrix(tbl, vec_col))
        cells = np.argmax(mat @ cent.T, axis=1).astype(np.int64)
        return pa.table({
            id_col: tbl[id_col],
            vec_col: tbl[vec_col],
            "cell": pa.array(cells),
        })

    assigned = ds.map_batches(_assign, batch_format="pyarrow")

    def _tag(tbl: pa.Table) -> pa.Table:
        if "cell" not in tbl.column_names:
            return tbl
        return tbl.append_column("_cb", tbl["cell"])

    def _reduce(_b: int, parts: "list[pa.Table]") -> pa.Table:
        typed = [p for p in parts if p.num_columns]
        empty = pa.table({
            id_col: pa.array([], pa.int64()),
            "cell": pa.array([], pa.int64()),
        })
        if not typed:
            return empty
        tbl = pa.concat_tables(typed, promote_options="default")
        if tbl.num_rows == 0:
            return empty
        order = pc.sort_indices(tbl[id_col])
        tbl = tbl.take(order)
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        mat = _normalize(_batch_matrix(tbl, vec_col))
        n = len(ids)
        drop = np.zeros(n, bool)
        # chunked lower-triangle pairwise: row block i scores against
        # ALL lower-id rows (kept or dropped — the order-free rule)
        for i0 in range(0, n, chunk_rows):
            i1 = min(n, i0 + chunk_rows)
            if i0 == 0 and i1 == n:
                g = mat @ mat.T
                tri = np.tril(g >= threshold, -1)
                drop = tri.any(axis=1)
                break
            g = mat[i0:i1] @ mat[: i1].T  # (block, i1)
            hit = g >= threshold
            # mask j >= i within the block
            for r in range(i1 - i0):
                hit[r, i0 + r :] = False
            drop[i0:i1] = hit.any(axis=1)
        keep = ~drop
        return pa.table({
            id_col: pa.array(ids[keep], pa.int64()),
            "cell": tbl["cell"].take(
                pa.array(np.flatnonzero(keep), pa.int64())),
        })

    kept = bucket_exchange(
        assigned.map_batches(_tag, batch_format="pyarrow"),
        "_cb", n_clusters, _reduce,
        fallback=lambda: ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "cell": pa.array([], pa.int64()),
        })),
    )
    return kept, index.centroids
