"""Similarity search over an embedding column (list<float>).

The reference exposes ANN retrieval over ``vector_index`` fields
(feature_store.py:4044/4149 `retrieve_online_documents(_v2)`,
passthrough_provider.py:300-348) backed by vector stores; here the
same capability is a Ray Data pipeline:

- **brute-force cosine top-k** (the exact baseline): the query matrix
  is broadcast once via ``ray.put``; every batch does one float64
  matmul against it and emits its local top-k per query; a final tiny
  reduce merges per-block candidates. Exact → DuckDB-oracle-checkable.
- **IVF (scale path)**: deterministic k-means centroids (fixed seed,
  driver-side fit on a bounded sample), assignment inside
  ``map_batches``, search restricted to the ``nprobe`` nearest cells.
- **embedding-cosine near-dup**: exact all-pairs ≥ threshold via the
  same broadcast-matmul shape.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from feast_ray.stages.dedup import bucketed_group_reduce


def _normalize(mat: np.ndarray) -> np.ndarray:
    mat = mat.astype(np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _batch_matrix(tbl: pa.Table, col: str) -> np.ndarray:
    arr = tbl[col].combine_chunks()
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.chunk(0)
    if isinstance(arr, (pa.ListArray, pa.LargeListArray, pa.FixedSizeListArray)):
        flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        return flat.reshape(len(tbl), -1)
    # Ray tensor-extension array (from_pandas of ndarray cells) or
    # anything else exposing a 2-D to_numpy
    mat = arr.to_numpy(zero_copy_only=False)
    if mat.dtype == object:
        mat = np.stack(mat)
    return np.asarray(mat, dtype=np.float64)


def _empty_topk_table(id_col: str) -> pa.Table:
    return pa.table(
        {"query_id": pa.array([], pa.int64()),
         id_col: pa.array([], pa.int64()),
         "score": pa.array([], pa.float64())}
    )


#: per-query-topk finalization switches from one merge partition to a
#: bucketed query-id exchange above this many queries
_FINAL_BUCKET_MIN_Q = 4096
_FINAL_QUERIES_PER_BUCKET = 1024


def _final_per_query_topk(
    candidates: ray.data.Dataset,
    id_col: str,
    keep: int,
    *,
    n_queries: int = 0,
    round_to: "int | None" = None,
) -> ray.data.Dataset:
    """Merge per-block candidate rows into each query's global
    top-``keep`` (score desc, id asc tie-break). Queries are
    independent, so above ``_FINAL_BUCKET_MIN_Q`` of them the merge
    runs as a bucketed exchange on query_id instead of ONE
    driver-sized partition — the serial tail of every ANN search at
    thousands-of-queries scale; each bucket sorts only its
    ~``_FINAL_QUERIES_PER_BUCKET`` queries' candidates."""

    def _one(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["query_id", "score", id_col],
                            ascending=[True, False, True], kind="stable")
        df = df.groupby("query_id", sort=True).head(keep).reset_index(drop=True)
        if round_to is not None:
            df["score"] = df["score"].round(round_to)
        return df

    def _serial() -> ray.data.Dataset:
        return candidates.repartition(1).map_batches(_one, batch_format="pandas")

    if n_queries < _FINAL_BUCKET_MIN_Q:
        return _serial()

    from feast_ray.stages.exchange import bucket_exchange

    B = max(2, n_queries // _FINAL_QUERIES_PER_BUCKET)

    def _tag(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0 or "query_id" not in tbl.column_names:
            return _empty_topk_table(id_col).append_column(
                "_qb", pa.array([], pa.int64()))
        qb = tbl["query_id"].to_numpy(zero_copy_only=False) % B
        return tbl.append_column("_qb", pa.array(qb.astype(np.int64)))

    def _reduce(parts: "list[pa.Table]") -> pa.Table:
        typed = [p for p in parts if p.num_columns]
        if not typed:
            return _empty_topk_table(id_col)
        tbl = pa.concat_tables(typed, promote_options="default")
        if tbl.num_rows == 0:
            return _empty_topk_table(id_col)
        return pa.Table.from_pandas(_one(tbl.to_pandas()), preserve_index=False)

    tagged = candidates.map_batches(_tag, batch_format="pyarrow")
    return bucket_exchange(tagged, "_qb", B, _reduce, fallback=_serial)


def _score(mat: np.ndarray, q: np.ndarray, metric: str) -> np.ndarray:
    """(n, d) corpus × (nq, d) queries → (n, nq) scores, HIGHER=better.
    Metrics per the reference's configurable `retrieve_online_documents_v2`
    distance metrics (feature_store.py:4149): cosine, dot, l2
    (negated euclidean distance so ordering stays descending)."""
    if metric == "cosine":
        return _normalize(mat) @ _normalize(q).T
    if metric == "dot":
        return mat.astype(np.float64) @ q.astype(np.float64).T
    if metric == "l2":
        m = mat.astype(np.float64)
        qq = q.astype(np.float64)
        d2 = (
            (m * m).sum(axis=1, keepdims=True)
            - 2.0 * (m @ qq.T)
            + (qq * qq).sum(axis=1)[None, :]
        )
        return -np.sqrt(np.maximum(d2, 0.0))
    raise ValueError(f"unknown metric {metric!r} (cosine|dot|l2)")


def ann_topk_bruteforce(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    query_ids: np.ndarray | None = None,
    round_to: int | None = 4,
    metric: str = "cosine",
) -> ray.data.Dataset:
    """Exact top-k per query under ``metric``. Output columns:
    (query_id, {id_col}, score). Scores are float64 (higher = closer;
    l2 scores are negated distances), optionally rounded for
    cross-engine comparability."""
    qn = np.asarray(queries, dtype=np.float64)
    qids = np.arange(len(qn)) if query_ids is None else np.asarray(query_ids)
    ref = ray.put((qn, qids))

    def _block_topk(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return _empty_topk_table(id_col)
        q, qi = ray.get(ref)
        mat = _batch_matrix(tbl, vec_col)
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        sims = _score(mat, q, metric)  # (n, nq)
        kk = min(k, sims.shape[0])
        out_q, out_id, out_s = [], [], []
        for j in range(sims.shape[1]):
            col = sims[:, j]
            idx = np.argpartition(-col, kk - 1)[:kk]
            out_q.append(np.full(kk, qi[j]))
            out_id.append(ids[idx])
            out_s.append(col[idx])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                id_col: pa.array(np.concatenate(out_id), pa.int64()),
                "score": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    candidates = ds.map_batches(_block_topk, batch_format="pyarrow")

    return _final_per_query_topk(candidates, id_col, k,
                                 n_queries=len(qn), round_to=round_to)


class IVFIndex:
    """Deterministic IVF index: k-means centroids fit once (fixed seed,
    bounded sample), lookup = nprobe nearest cells."""

    def __init__(self, sample: np.ndarray, n_cells: int = 16, iters: int = 10):
        x = _normalize(sample)
        rng = np.random.RandomState(42)
        idx = rng.choice(len(x), size=min(n_cells, len(x)), replace=False)
        cent = x[np.sort(idx)].copy()
        for _ in range(iters):
            assign = np.argmax(x @ cent.T, axis=1)
            for c in range(len(cent)):
                members = x[assign == c]
                if len(members):
                    v = members.mean(axis=0)
                    n = np.linalg.norm(v)
                    if n > 0:
                        cent[c] = v / n
        self.centroids = cent

    def cells_for(self, vecs: np.ndarray, nprobe: int = 4) -> np.ndarray:
        sims = _normalize(vecs) @ self.centroids.T
        return np.argsort(-sims, axis=1)[:, :nprobe]


def ann_topk_ivf(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_cells: int = 16,
    nprobe: int = 4,
    sample_size: int = 2048,
) -> ray.data.Dataset:
    """Approximate top-k: restrict scoring to vectors whose nearest
    centroid is among each query's nprobe cells. Same output schema as
    the brute-force baseline."""
    sample_tbl = ds.limit(sample_size).to_pandas()
    sample = np.stack(sample_tbl[vec_col].to_numpy())
    index = IVFIndex(sample, n_cells=n_cells)
    qn = _normalize(np.asarray(queries))
    q_cells = index.cells_for(qn, nprobe)  # (nq, nprobe)
    ref = ray.put((qn, q_cells, index.centroids))

    def _block(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return _empty_topk_table(id_col)
        q, qc, cent = ray.get(ref)
        mat = _normalize(_batch_matrix(tbl, vec_col))
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        cells = np.argmax(mat @ cent.T, axis=1)
        out_q, out_id, out_s = [], [], []
        for j in range(len(q)):
            mask = np.isin(cells, qc[j])
            if not mask.any():
                continue
            sub = mat[mask]
            sub_ids = ids[mask]
            sims = sub @ q[j]
            kk = min(k, len(sims))
            idx = np.argpartition(-sims, kk - 1)[:kk]
            out_q.append(np.full(kk, j))
            out_id.append(sub_ids[idx])
            out_s.append(sims[idx])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                id_col: pa.array(np.concatenate(out_id), pa.int64()),
                "score": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    candidates = ds.map_batches(_block, batch_format="pyarrow")

    return _final_per_query_topk(candidates, id_col, k, n_queries=len(qn))


def _kmeans_refine_distributed(
    ds: ray.data.Dataset,
    vec_col: str,
    centroids: np.ndarray,
    iters: int,
) -> np.ndarray:
    """Distributed Lloyd iterations over the WHOLE corpus: each pass is
    one ``map_batches`` emitting per-block (cell, count, sum-vector)
    partials — k×d floats per block, never the vectors — merged on the
    driver (k rows total) into the next centroid set. This is the
    100 TB k-means shape: corpus stays distributed, driver state is
    k×d, iterations stream with backpressure."""
    k, d = centroids.shape
    for _ in range(iters):
        cref = ray.put(centroids)

        def _partial(tbl: pa.Table) -> pa.Table:
            if len(tbl) == 0:
                return pa.table(
                    {
                        "cell": pa.array([], pa.int64()),
                        "n": pa.array([], pa.int64()),
                        "vsum": pa.array([], pa.list_(pa.float64())),
                    }
                )
            cent = ray.get(cref)
            mat = _normalize(_batch_matrix(tbl, vec_col))
            a = np.argmax(mat @ cent.T, axis=1)
            sums = np.zeros((k, d))
            np.add.at(sums, a, mat)
            counts = np.bincount(a, minlength=k).astype(np.int64)
            return pa.table(
                {
                    "cell": pa.array(np.arange(k, dtype=np.int64)),
                    "n": pa.array(counts),
                    "vsum": pa.array(list(sums)),
                }
            )

        pdf = ds.map_batches(_partial, batch_format="pyarrow").to_pandas()
        if not len(pdf):
            break
        nxt = centroids.copy()
        for c, grp in pdf.groupby("cell"):
            n = int(grp["n"].sum())
            if n == 0:
                continue
            v = np.sum(np.stack(grp["vsum"].to_numpy()), axis=0)
            norm = np.linalg.norm(v)
            if norm > 0:
                nxt[int(c)] = v / norm
        centroids = nxt
    return centroids


def _write_cell_partitioned(
    assigned: ray.data.Dataset, path: str, n_cells: int
) -> None:
    """Hive-partitioned index write with each cell's rows CO-LOCATED
    first: one exchange keyed by ``cell`` yields one write block per
    cell (full row groups). Without it every upstream map task writes
    a sliver of every cell and the ADC/IVF scans later read thousands
    of tiny row-group batches (measured: 2048 × ~30-row batches on a
    64k-row index — 8× per-(query, cell) candidate amplification
    through the vectorized scorer)."""
    from feast_ray.stages.exchange import bucket_exchange

    def _tag_cell(tbl: pa.Table) -> pa.Table:
        if "cell" not in tbl.column_names:
            return tbl
        return tbl.append_column("_cellb", tbl["cell"])

    def _concat(parts: "list[pa.Table]") -> pa.Table:
        typed = [p for p in parts if p.num_columns]
        if not typed:
            return pa.table({})
        return pa.concat_tables(typed, promote_options="default")

    bucket_exchange(
        assigned.map_batches(_tag_cell, batch_format="pyarrow"),
        "_cellb", n_cells, _concat,
        fallback=lambda: assigned,
    ).write_parquet(path, partition_cols=["cell"])


def _seed_sample(ds: ray.data.Dataset, id_col: str, vec_col: str,
                 sample_size: int) -> np.ndarray:
    """About ``sample_size`` k-means seed vectors, drawn with the
    deterministic hash sampler (``functions.sampling.sample_by_hash``)
    instead of ``limit()`` — UNBIASED across the corpus, where
    ``limit`` reads only the first blocks (a 100 TB corpus's head is
    rarely representative; head-bias survives every small-sf test and
    silently ruins recall at scale). Needs one metadata-cheap
    ``count()``; a corpus too tiny to hash-sample any row falls back
    to its head."""
    from feast_ray.functions.sampling import sample_by_hash

    frac = min(1.0, sample_size / max(1, ds.count()))
    sample_tbl = sample_by_hash(ds, id_col, frac).to_pandas()
    if len(sample_tbl) == 0:
        sample_tbl = ds.limit(sample_size).to_pandas()
    return np.stack(sample_tbl[vec_col].to_numpy())


def ivf_build(
    ds: ray.data.Dataset,
    path: str,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_cells: int = 16,
    sample_size: int = 2048,
    refine_iters: int = 0,
) -> "IVFIndex":
    """Partition the corpus by assigned IVF cell ONCE (hive-partitioned
    parquet, one directory per cell) so searches read only probed
    cells' files instead of filtering every block (VERDICT r1 #10 —
    the scan-pruning the flat IVF variant lacked). Centroids are saved
    alongside (``_centroids.npy``) so later searches reuse the index.

    Index-build scale:

    * the k-means seed sample is an unbiased hash sample
      (``_seed_sample``), not the corpus head;
    * ``refine_iters=N`` runs N distributed Lloyd passes over the FULL
      corpus after the sample fit (``_kmeans_refine_distributed`` —
      per-block k×d partials, driver merges k rows), so centroids
      converge on the data the sample missed."""
    import os

    sample = _seed_sample(ds, id_col, vec_col, sample_size)
    index = IVFIndex(sample, n_cells=n_cells)
    if refine_iters > 0:
        index.centroids = _kmeans_refine_distributed(
            ds, vec_col, index.centroids, refine_iters
        )
    cref = ray.put(index.centroids)

    def _assign(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return tbl.append_column("cell", pa.array([], pa.int64()))
        cent = ray.get(cref)
        mat = _normalize(_batch_matrix(tbl, vec_col))
        cells = np.argmax(mat @ cent.T, axis=1).astype(np.int64)
        return tbl.append_column("cell", pa.array(cells))

    os.makedirs(path, exist_ok=True)
    _write_cell_partitioned(
        ds.map_batches(_assign, batch_format="pyarrow"), path, n_cells
    )
    np.save(os.path.join(path, "_centroids.npy"), index.centroids)
    return index


def ivf_scan_stats(path: str, probed_cells: "set[int]") -> dict:
    """Bytes/files scanned vs total for a probed-cell set — the
    scanned-fraction metric BENCH reports."""
    import os

    total_b = scanned_b = 0
    for d in os.listdir(path):
        if not d.startswith("cell="):
            continue
        cell = int(d.split("=", 1)[1])
        sz = sum(
            os.path.getsize(os.path.join(path, d, f))
            for f in os.listdir(os.path.join(path, d))
        )
        total_b += sz
        if cell in probed_cells:
            scanned_b += sz
    return {
        "scanned_bytes": scanned_b,
        "total_bytes": total_b,
        "scanned_frac": round(scanned_b / total_b, 4) if total_b else 0.0,
    }


def ann_topk_ivf_partitioned(
    index_path: str,
    queries: np.ndarray,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    nprobe: int = 4,
) -> "tuple[ray.data.Dataset, dict]":
    """Approximate top-k over an :func:`ivf_build` index, scanning ONLY
    the union of the queries' probed cell partitions. Returns
    ``(dataset, scan_stats)``; the dataset has the brute-force output
    schema. Per-query filtering inside the scanned cells keeps results
    identical to the flat :func:`ann_topk_ivf` for the same centroids."""
    import os

    centroids = np.load(os.path.join(index_path, "_centroids.npy"))
    index = IVFIndex.__new__(IVFIndex)
    index.centroids = centroids
    qn = _normalize(np.asarray(queries))
    q_cells = index.cells_for(qn, nprobe)
    probed = set(int(c) for c in np.unique(q_cells))
    probes = q_cells  # exposed via stats for the SQL oracle (q29)
    files = []
    cell_of_file = {}
    for c in sorted(probed):
        d = os.path.join(index_path, f"cell={c}")
        if os.path.isdir(d):
            for f in sorted(os.listdir(d)):
                if f.endswith(".parquet"):
                    p = os.path.join(d, f)
                    files.append(p)
                    cell_of_file[p] = c
    stats = ivf_scan_stats(index_path, probed)
    stats["probes"] = probes
    if not files:
        return ray.data.from_arrow(_empty_topk_table(id_col)), stats
    ds = ray.data.read_parquet(files)
    cent_ref = ray.put(centroids)

    def _ensure_cell(tbl: pa.Table) -> pa.Table:
        # hive path inference usually materializes `cell` (as a string);
        # normalize it to int64, or re-derive from nearest centroid
        # (same argmax as the build) when inference didn't fire
        if "cell" in tbl.column_names:
            import pyarrow.compute as pac

            idx = tbl.schema.get_field_index("cell")
            return tbl.set_column(idx, "cell", pac.cast(tbl["cell"], pa.int64()))
        if len(tbl) == 0:
            return tbl.append_column("cell", pa.array([], pa.int64()))
        cent = ray.get(cent_ref)
        mat = _normalize(_batch_matrix(tbl, vec_col))
        cells = np.argmax(mat @ cent.T, axis=1).astype(np.int64)
        return tbl.append_column("cell", pa.array(cells))

    ds = ds.map_batches(_ensure_cell, batch_format="pyarrow")
    ref = ray.put((qn, q_cells))

    def _block(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return _empty_topk_table(id_col)
        q, qc = ray.get(ref)
        mat = _normalize(_batch_matrix(tbl, vec_col))
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        # hive partition values may read back as strings — normalize
        pc_cell = tbl["cell"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_q, out_id, out_s = [], [], []
        for j in range(len(q)):
            mask = np.isin(pc_cell, qc[j])
            if not mask.any():
                continue
            sims = mat[mask] @ q[j]
            kk = min(k, len(sims))
            idx = np.argpartition(-sims, kk - 1)[:kk]
            out_q.append(np.full(kk, j))
            out_id.append(ids[mask][idx])
            out_s.append(sims[idx])
        if not out_q:
            return _empty_topk_table(id_col)
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                id_col: pa.array(np.concatenate(out_id), pa.int64()),
                "score": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    candidates = ds.map_batches(
        _block, batch_format="pyarrow", batch_size=8192
    )

    return (
        _final_per_query_topk(candidates, id_col, k, n_queries=len(qn)),
        stats,
    )


def cosine_neardup_pairs(
    ds: ray.data.Dataset,
    threshold: float = 0.95,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    round_to: int | None = 4,
    broadcast_max_rows: int = 200_000,
    block_rows: int = 4096,
) -> ray.data.Dataset:
    """Exact embedding near-dup pairs (id_a < id_b, cosine ≥ threshold).

    Size-gated like ``tfidf.py`` / ``spandup.py`` (VERDICT r3 #4):
    below ``broadcast_max_rows`` the full (normalized) matrix is
    broadcast once and each batch matmuls against it; above the gate
    :func:`_cosine_neardup_pairs_blocked` tiles the corpus into
    ~``block_rows``-row chunks and runs one Ray task per chunk PAIR —
    the same exact O(n²) FLOPs, but distributed, with per-task memory
    bounded by one tile pair and no driver materialization. Exactness
    is inherent to the operator (every pair is scored), so both sides
    of the gate are value-identical — the approximate alternative when
    n² flops themselves are unaffordable is
    :func:`cosine_neardup_pairs_lsh` (SRP-LSH, exact precision,
    probabilistic recall)."""
    thin = ds.select_columns([id_col, vec_col]).materialize()
    n = thin.count()
    if n == 0:
        return ray.data.from_arrow(pa.table(
            {"id_a": pa.array([], pa.int64()),
             "id_b": pa.array([], pa.int64()),
             "cosine": pa.array([], pa.float64())}))
    if n > broadcast_max_rows:
        return _cosine_neardup_pairs_blocked(
            thin, threshold, id_col=id_col, vec_col=vec_col,
            round_to=round_to, block_rows=block_rows)
    pdf = thin.to_pandas().sort_values(id_col)
    all_ids = pdf[id_col].to_numpy()
    all_mat = _normalize(np.stack(pdf[vec_col].to_numpy()))
    ref = ray.put((all_ids, all_mat))

    def _pairs(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return pa.table(
                {"id_a": pa.array([], pa.int64()),
                 "id_b": pa.array([], pa.int64()),
                 "cosine": pa.array([], pa.float64())}
            )
        ids_r, mat_r = ray.get(ref)
        mat = _normalize(_batch_matrix(tbl, vec_col))
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        sims = mat @ mat_r.T
        ia, ib, ss = [], [], []
        for i in range(len(ids)):
            mask = (sims[i] >= threshold) & (ids_r > ids[i])
            if mask.any():
                ia.extend([ids[i]] * int(mask.sum()))
                ib.extend(ids_r[mask].tolist())
                ss.extend(sims[i][mask].tolist())
        ss = np.array(ss, dtype=np.float64)
        if round_to is not None:
            ss = ss.round(round_to)
        return pa.table(
            {
                "id_a": pa.array(np.array(ia, dtype=np.int64)),
                "id_b": pa.array(np.array(ib, dtype=np.int64)),
                "cosine": pa.array(ss),
            }
        )

    return thin.map_batches(_pairs, batch_format="pyarrow")


def _cosine_neardup_pairs_blocked(
    thin: ray.data.Dataset,
    threshold: float,
    *,
    id_col: str,
    vec_col: str,
    round_to: int | None,
    block_rows: int,
) -> ray.data.Dataset:
    """Above-gate exact path: tile the (id, vector) corpus into B
    chunks of ~``block_rows`` rows and score every chunk pair (i ≤ j)
    in its own Ray task — B(B+1)/2 tasks, each one tile-pair matmul.

    Raw tasks (SURVEY custom-operator rule (c)): all-pairs needs no
    co-location, so there is no shuffle at all — just the one eager
    ``materialize()`` barrier the exchange doctrine already pays, and
    every task reads its two tiles zero-copy from the object store.
    Per-task memory = 2 tiles + one (block_rows × block_rows) score
    matrix (~128 MB float64 at the default), independent of n. Pairs
    where the smaller id lands in the j-side tile are emitted as
    (min, max), so each unordered pair surfaces exactly once."""
    n = thin.count()
    B = max(1, -(-n // block_rows))
    # row-balanced tiles: repartition (split/coalesce, no shuffle —
    # all-pairs needs no co-location) so every tile is ~block_rows
    refs = thin.repartition(B).to_arrow_refs()
    groups = [[r] for r in refs]

    @ray.remote
    def _tile_pair(refs_a, refs_b, same: bool):
        ta = pa.concat_tables([t if isinstance(t, pa.Table)
                               else pa.Table.from_pandas(t, preserve_index=False)
                               for t in ray.get(list(refs_a))])
        ids_a = ta[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mat_a = _normalize(_batch_matrix(ta, vec_col))
        if same:
            ids_b, mat_b = ids_a, mat_a
        else:
            tb = pa.concat_tables([t if isinstance(t, pa.Table)
                                   else pa.Table.from_pandas(t, preserve_index=False)
                                   for t in ray.get(list(refs_b))])
            ids_b = tb[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            mat_b = _normalize(_batch_matrix(tb, vec_col))
        if len(ids_a) == 0 or len(ids_b) == 0:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        sims = mat_a @ mat_b.T
        mask = sims >= threshold
        if same:
            # upper triangle by id keeps each within-tile pair once
            mask &= ids_b[None, :] > ids_a[:, None]
        else:
            mask &= ids_b[None, :] != ids_a[:, None]
        ii, jj = np.nonzero(mask)
        a, b = ids_a[ii], ids_b[jj]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        ss = sims[ii, jj]
        if round_to is not None:
            ss = ss.round(round_to)
        return pa.table({"id_a": pa.array(lo, pa.int64()),
                         "id_b": pa.array(hi, pa.int64()),
                         "cosine": pa.array(ss, pa.float64())})

    out = []
    for i in range(len(groups)):
        out.append(_tile_pair.remote(groups[i], None, True))
        for j in range(i + 1, len(groups)):
            out.append(_tile_pair.remote(groups[i], groups[j], False))
    return ray.data.from_arrow_refs(out)


def cosine_neardup_pairs_lsh(
    ds: ray.data.Dataset,
    threshold: float = 0.9,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_planes: int = 16,
    n_tables: int = 6,
    seed: int = 7,
    driver_verify_max: int = 2_000_000,
    round_to: int | None = 4,
) -> ray.data.Dataset:
    """SCALE path for embedding near-dup (the exact
    :func:`cosine_neardup_pairs` is O(n²) broadcast): random-hyperplane
    (SRP) LSH. Each of ``n_tables`` tables hashes the normalized vector
    to an ``n_planes``-bit bucket; candidates collide in ≥1 table; all
    candidates are verified with exact cosine, so precision is exact
    and only recall is approximate (P[miss] =
    (1-(1-θ/π)^n_planes)^n_tables for angle θ — raise n_tables for
    higher recall). Same verify size-gate as minhash: bounded driver
    vectorization below ``driver_verify_max`` candidate pairs, a
    distributed signature join above it. Output: (id_a, id_b, cosine).
    """
    import pyarrow.compute as pac

    rng = np.random.RandomState(seed)

    def _vb(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return pa.table(
                {id_col: tbl[id_col], "__vb": pa.array([], pa.binary())}
            )
        mat = _normalize(_batch_matrix(tbl, vec_col))
        return pa.table(
            {id_col: tbl[id_col],
             "__vb": pa.array([row.tobytes() for row in mat], pa.binary())}
        )

    sigged = ds.select_columns([id_col, vec_col]).map_batches(
        _vb, batch_format="pyarrow"
    ).materialize()
    dim = None
    first = sigged.take(1)
    if not first:
        return ray.data.from_arrow(
            pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "cosine": pa.array([], pa.float64())})
        )
    dim = len(np.frombuffer(first[0]["__vb"], dtype=np.float64))
    planes = rng.standard_normal((n_tables, n_planes, dim))
    pref = ray.put(planes)
    weights = (1 << np.arange(n_planes, dtype=np.int64))

    def _buckets(tbl: pa.Table) -> pa.Table:
        n = len(tbl)
        if n == 0:
            return pa.table(
                {id_col: tbl[id_col], "table": pa.array([], pa.int64()),
                 "bucket": pa.array([], pa.int64())}
            )
        P = ray.get(pref)
        mat = np.frombuffer(b"".join(tbl["__vb"].to_pylist()), dtype=np.float64
                            ).reshape(n, dim)
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        out_t, out_b = [], []
        for t in range(n_tables):
            bits = (mat @ P[t].T) > 0  # (n, n_planes)
            out_b.append(bits @ weights)
            out_t.append(np.full(n, t, dtype=np.int64))
        return pa.table(
            {id_col: pa.array(np.tile(ids, n_tables)),
             "table": pa.array(np.concatenate(out_t)),
             "bucket": pa.array(np.concatenate(out_b))}
        )

    band_rows = sigged.map_batches(_buckets, batch_format="pyarrow")

    def _bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby(["table", "bucket"], sort=False)[id_col].transform("size")
        multi = g[sizes > 1]
        ia, ib = [], []
        for _, grp in multi.groupby(["table", "bucket"], sort=False):
            ids = np.sort(grp[id_col].to_numpy())
            iu, ju = np.triu_indices(len(ids), 1)
            ia.append(ids[iu])
            ib.append(ids[ju])
        if not ia:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype=g[id_col].dtype),
                 "id_b": pd.Series(dtype=g[id_col].dtype)}
            )
        return pd.DataFrame(
            {"id_a": np.concatenate(ia), "id_b": np.concatenate(ib)}
        ).drop_duplicates()

    raw_pairs = bucketed_group_reduce(
        band_rows, ["table", "bucket"], _bucket_pairs
    ).materialize()

    def _empty():
        return ray.data.from_arrow(
            pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64()),
                      "cosine": pa.array([], pa.float64())})
        )

    if raw_pairs.count() <= driver_verify_max:
        ptbl = raw_pairs.to_pandas().drop_duplicates()
        if len(ptbl) == 0:
            return _empty()
        involved = np.unique(
            np.concatenate([ptbl["id_a"].to_numpy(), ptbl["id_b"].to_numpy()])
        )
        iref = ray.put(involved)
        sub = sigged.map_batches(
            lambda t: t.filter(
                pac.is_in(t[id_col], value_set=pa.array(ray.get(iref)))
            ),
            batch_format="pyarrow",
        ).to_pandas().sort_values(id_col, kind="stable")
        sub_ids = sub[id_col].to_numpy()
        mat = np.frombuffer(b"".join(sub["__vb"].tolist()), dtype=np.float64
                            ).reshape(-1, dim)
        a = mat[np.searchsorted(sub_ids, ptbl["id_a"].to_numpy())]
        b = mat[np.searchsorted(sub_ids, ptbl["id_b"].to_numpy())]
        cos = (a * b).sum(axis=1)
        keep = cos >= threshold
        if round_to is not None:
            cos = cos.round(round_to)
        return ray.data.from_arrow(
            pa.table({"id_a": pa.array(ptbl["id_a"].to_numpy()[keep]),
                      "id_b": pa.array(ptbl["id_b"].to_numpy()[keep]),
                      "cosine": pa.array(cos[keep])})
        )

    from feast_ray.stages.relational import distinct

    pairs = distinct(raw_pairs, ["id_a", "id_b"])
    # broadcast-vector verify (mid tier): the normalized-vector table
    # usually fits the object store (8d bytes/doc); put it once and
    # verify pairs per batch with searchsorted gathers — no sort
    # shuffles (same tier structure as minhash_candidate_pairs)
    vb_bytes = sigged.size_bytes() or 0
    if vb_bytes and vb_bytes <= 2 * (1 << 30):
        sdf = sigged.to_pandas().sort_values(id_col, kind="stable")
        sids = sdf[id_col].to_numpy()
        smat = np.frombuffer(b"".join(sdf["__vb"].tolist()), dtype=np.float64
                             ).reshape(-1, dim)
        sref = ray.put((sids, smat))

        def _verify_bcast(tbl: pa.Table) -> pa.Table:
            if len(tbl) == 0:
                return pa.table({"id_a": tbl["id_a"], "id_b": tbl["id_b"],
                                 "cosine": pa.array([], pa.float64())})
            ids_s, mat = ray.get(sref)
            a = mat[np.searchsorted(ids_s, tbl["id_a"].to_numpy(zero_copy_only=False))]
            b = mat[np.searchsorted(ids_s, tbl["id_b"].to_numpy(zero_copy_only=False))]
            cos = (a * b).sum(axis=1)
            keep = cos >= threshold
            if round_to is not None:
                cos = cos.round(round_to)
            out = tbl.select(["id_a", "id_b"]).append_column("cosine", pa.array(cos))
            return out.filter(pa.array(keep))

        return pairs.map_batches(_verify_bcast, batch_format="pyarrow")

    # distributed verify: join the vector-bytes table onto the pairs
    from feast_ray.stages.join import hash_join
    va = sigged.map_batches(
        lambda t: t.rename_columns(["id_a", "vb_a"]), batch_format="pyarrow"
    )
    vb = sigged.map_batches(
        lambda t: t.rename_columns(["id_b", "vb_b"]), batch_format="pyarrow"
    )
    joined = hash_join(
        hash_join(pairs, va, on="id_a"),
        vb, on="id_b",
    )

    def _verify(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return pa.table({"id_a": tbl["id_a"], "id_b": tbl["id_b"],
                             "cosine": pa.array([], pa.float64())})
        a = np.frombuffer(b"".join(tbl["vb_a"].to_pylist()), dtype=np.float64
                          ).reshape(-1, dim)
        b = np.frombuffer(b"".join(tbl["vb_b"].to_pylist()), dtype=np.float64
                          ).reshape(-1, dim)
        cos = (a * b).sum(axis=1)
        keep = cos >= threshold
        if round_to is not None:
            cos = cos.round(round_to)
        out = tbl.select(["id_a", "id_b"]).append_column("cosine", pa.array(cos))
        return out.filter(pa.array(keep))

    return joined.map_batches(_verify, batch_format="pyarrow")


# ----------------------------------------------------------- IVF-PQ
# Product-quantized IVF (round 4): the memory-frugal scale path for
# 100 TB embedding corpora. The reference's vector search surface
# (feature_store.py:4044 retrieve_online_documents over vector_index
# fields) delegates compression to the backing store; here the engine
# owns it: d-dim float vectors compress to m uint8 codes (m=8 on d=32
# floats = 16x smaller scan payload), searches scan only probed cell
# partitions and only the CODE columns, and score by asymmetric
# distance (ADC): one (m x ks) lookup table per query, score =
# sum_j lut[j, code_j] — no float vector ever leaves storage unless
# exact reranking asks for it.


def pq_train(
    sample: np.ndarray, m: int = 8, ks: int = 256, iters: int = 10,
    seed: int = 7, prenormalized: bool = False,
) -> np.ndarray:
    """Train per-subspace codebooks (m, ks, d/m) by k-means over a
    normalized sample. Deterministic (fixed seed). ks shrinks to the
    sample size on tiny corpora; unused code slots repeat codeword 0
    so any uint8 decodes. ``prenormalized=True`` skips the L2
    normalization (residual training — residuals must NOT be
    re-normalized)."""
    x = np.asarray(sample, np.float64)
    if not prenormalized:
        x = _normalize(x)
    n, d = x.shape
    if d % m != 0:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    books = np.zeros((m, ks, sub), np.float64)
    for j in range(m):
        xj = x[:, j * sub : (j + 1) * sub]
        rng = np.random.RandomState(seed + j)
        ke = min(ks, n)
        cent = xj[np.sort(rng.choice(n, size=ke, replace=False))].copy()
        for _ in range(iters):
            # ||x-c||^2 argmin == argmax(x.c - ||c||^2/2)
            a = np.argmax(xj @ cent.T - 0.5 * (cent**2).sum(1), axis=1)
            for c in range(ke):
                mem = xj[a == c]
                if len(mem):
                    cent[c] = mem.mean(0)
        books[j, :ke] = cent
        if ke < ks:
            books[j, ke:] = cent[0]
    return books


def pq_encode(mat: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """Nearest-codeword codes (n, m) uint8 for NORMALIZED vectors."""
    n = len(mat)
    m, ks, sub = codebooks.shape
    codes = np.empty((n, m), np.uint8)
    for j in range(m):
        xj = mat[:, j * sub : (j + 1) * sub]
        cb = codebooks[j]
        codes[:, j] = np.argmax(
            xj @ cb.T - 0.5 * (cb**2).sum(1), axis=1
        ).astype(np.uint8)
    return codes


def pq_decode(codes: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """Reconstruct (n, d) vectors from (n, m) codes — each subspace's
    codeword gathered and concatenated. The OPQ trainer's
    reconstruction step; also handy in tests."""
    m, ks, sub = codebooks.shape
    return np.concatenate([codebooks[j][codes[:, j]] for j in range(m)], axis=1)


def opq_train(
    sample: np.ndarray, m: int = 8, ks: int = 256, iters: int = 10,
    opq_iters: int = 8, seed: int = 7, prenormalized: bool = False,
) -> "tuple[np.ndarray, np.ndarray]":
    """Optimized Product Quantization (Ge et al., CVPR 2013 — the
    non-parametric alternation): learn an ORTHOGONAL rotation R so
    the rotated vectors' variance aligns with the m subspace blocks,
    then quantize the rotated space. Alternates (1) retrain codebooks
    on x@R, (2) encode + reconstruct, (3) solve the orthogonal
    Procrustes problem min_R ||xR - recon||_F via one SVD of
    x^T @ recon. Deterministic (pq_train's fixed seeds + LAPACK SVD).
    Returns (R, codebooks) where codes are ``pq_encode(x @ R, books)``
    and scoring rotates the QUERY instead: q·(recon @ R^T) = (q R)·recon.
    """
    x = np.asarray(sample, np.float64)
    if not prenormalized:
        x = _normalize(x)
    d = x.shape[1]
    rot = np.eye(d)
    for _ in range(opq_iters):
        y = x @ rot
        books = pq_train(y, m=m, ks=ks, iters=iters, seed=seed,
                         prenormalized=True)
        recon = pq_decode(pq_encode(y, books), books)
        u, _, vt = np.linalg.svd(x.T @ recon)
        rot = u @ vt
    y = x @ rot
    books = pq_train(y, m=m, ks=ks, iters=iters, seed=seed,
                     prenormalized=True)
    return rot, books


def ivfpq_build(
    ds: ray.data.Dataset,
    path: str,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_cells: int = 16,
    m: int = 8,
    ks: int = 256,
    sample_size: int = 2048,
    residual: bool = False,
    opq: bool = False,
    opq_joint: bool = False,
) -> np.ndarray:
    """Build the cell-partitioned PQ index: IVF centroids + PQ
    codebooks fit on one unbiased hash sample (ivf_build's doctrine),
    then a single pass assigns each row its cell and m uint8 codes
    (``code_0..code_{m-1}`` columns — individually prunable at read)
    and writes hive-partitioned parquet. The float ``embedding``
    column rides along for optional exact rerank; a codes-only layout
    is the same call with the column dropped upstream. Saves
    ``_centroids.npy`` + ``_codebooks.npy`` + ``_meta.json``. Returns
    the codebooks.

    ``residual=True`` (round 5, VERDICT r4 #9 — the standard
    FAISS-style IVF-PQ layout): codebooks are trained on and codes
    encode ``x - centroid[cell(x)]`` instead of ``x``. Residuals
    cluster much tighter than raw vectors, so the same m×ks code
    budget quantizes finer; ADC then scores
    ``q·centroid[cell] + q·residual_codewords`` (the per-cell base
    term costs one n_q×n_cells matmul at query build).

    ``opq=True`` (round 5, README r6 candidate): an OPQ rotation is
    learned on the training sample (:func:`opq_train`) and codes
    encode the ROTATED (residual) vector; search rotates each query
    once before building its ADC tables — everything downstream of
    the LUTs (scan, gather-sum, dump-doctrine oracle) is unchanged.
    The rotation is saved as ``_rotation.npy``.

    ``opq_joint=True`` (late round 5 — the README candidate closing
    the OPQ line): the COARSE quantizer joins the alternation — each
    OPQ round re-fits the IVF centroids in the ROTATED space, assigns
    cells there, trains the PQ books on rotated-space residuals, and
    solves Procrustes against the FULL reconstruction
    (centroid + decoded residual), so the rotation optimizes the
    joint coarse+fine quantization error (Ge et al. §4's joint
    variant). Centroids then LIVE in the rotated space: assignment
    rotates x first, and search both probes and builds its ADC base
    term from the rotated query — q·x = (qR)·(xR) exactly
    (orthogonality), so the metric is unchanged and the dump-doctrine
    oracle still needs no linear algebra. Implies ``residual``."""
    import json as _json
    import os

    sample = _seed_sample(ds, id_col, vec_col, sample_size)
    index = IVFIndex(sample, n_cells=n_cells)
    sn = _normalize(sample)
    if opq_joint:
        residual = True
        rot = np.eye(sn.shape[1])
        for _ in range(8):
            y = sn @ rot
            cent_r = IVFIndex(y, n_cells=n_cells).centroids
            cells_s = np.argmax(y @ cent_r.T, axis=1)
            resid = y - cent_r[cells_s]
            books = pq_train(resid, m=m, ks=ks, prenormalized=True)
            recon = cent_r[cells_s] + pq_decode(
                pq_encode(resid, books), books)
            u, _, vt = np.linalg.svd(sn.T @ recon)
            rot = u @ vt
        y = sn @ rot
        cent_r = IVFIndex(y, n_cells=n_cells).centroids
        cells_s = np.argmax(y @ cent_r.T, axis=1)
        books = pq_train(y - cent_r[cells_s], m=m, ks=ks,
                         prenormalized=True)
        index.centroids = cent_r  # centroids live in the ROTATED space
    else:
        if residual:
            s_cells = np.argmax(sn @ index.centroids.T, axis=1)
            train = sn - index.centroids[s_cells]
        else:
            train = sn
        if opq:
            rot, books = opq_train(train, m=m, ks=ks, prenormalized=True)
        else:
            rot = None
            books = pq_train(train, m=m, ks=ks, prenormalized=True)
    cref = ray.put((index.centroids, books, rot))

    def _assign(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            tbl = tbl.append_column("cell", pa.array([], pa.int64()))
            for j in range(m):
                tbl = tbl.append_column(f"code_{j}", pa.array([], pa.int16()))
            return tbl
        cent, cb, rr = ray.get(cref)
        mat = _normalize(_batch_matrix(tbl, vec_col))
        if opq_joint:
            # joint layout: rotate FIRST — cells and residuals both
            # live in the rotated space, codes need no extra rotation
            y = mat @ rr
            cells = np.argmax(y @ cent.T, axis=1).astype(np.int64)
            codes = pq_encode(y - cent[cells], cb)
        else:
            cells = np.argmax(mat @ cent.T, axis=1).astype(np.int64)
            delta = mat - cent[cells] if residual else mat
            codes = pq_encode(delta @ rr if rr is not None else delta, cb)
        tbl = tbl.append_column("cell", pa.array(cells))
        for j in range(m):
            # int16: parquet/hive round-trips plain ints losslessly
            tbl = tbl.append_column(
                f"code_{j}", pa.array(codes[:, j].astype(np.int16))
            )
        return tbl

    os.makedirs(path, exist_ok=True)
    _write_cell_partitioned(
        ds.map_batches(_assign, batch_format="pyarrow"), path, n_cells
    )
    np.save(os.path.join(path, "_centroids.npy"), index.centroids)
    np.save(os.path.join(path, "_codebooks.npy"), books)
    if rot is not None:
        np.save(os.path.join(path, "_rotation.npy"), rot)
    with open(os.path.join(path, "_meta.json"), "w") as fh:
        _json.dump({"residual": residual, "m": m, "ks": ks, "opq": opq,
                    "opq_joint": opq_joint}, fh)
    return books


#: query count at which ann_topk_ivfpq._block switches from the
#: per-query loop to the chunked vectorized gather-sum (same float
#: accumulation order — the two arms are bit-identical, parity-tested)
_ADC_VECTOR_MIN_Q = 32


def ann_topk_ivfpq(
    index_path: str,
    queries: np.ndarray,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    nprobe: int = 4,
    rerank: int = 0,
    vector_min_q: "int | None" = None,
) -> "tuple[ray.data.Dataset, dict]":
    """ADC top-k over an :func:`ivfpq_build` index. Scans ONLY the
    probed cell partitions and ONLY the id + code columns (the float
    vectors stay on disk); each batch scores by per-query lookup-table
    gather. ``rerank > 0`` re-scores that many ADC candidates per
    query with exact dot products (one extra narrow read of the
    candidates' vectors via an id-filtered scan of the probed cells) —
    ``rerank >= cells' rows`` with ``nprobe = n_cells`` reproduces
    brute force exactly (parity-tested). Returns (dataset, stats);
    stats carries the probe sets and the per-query ADC tables for the
    q81 SQL oracle."""
    import os

    centroids = np.load(os.path.join(index_path, "_centroids.npy"))
    books = np.load(os.path.join(index_path, "_codebooks.npy"))
    meta_p = os.path.join(index_path, "_meta.json")
    residual = joint = False
    if os.path.exists(meta_p):
        import json as _json

        with open(meta_p) as fh:
            _meta = _json.load(fh)
        residual = bool(_meta.get("residual", False))
        joint = bool(_meta.get("opq_joint", False))
    m, ks, sub = books.shape
    index = IVFIndex.__new__(IVFIndex)
    index.centroids = centroids
    qn = _normalize(np.asarray(queries))
    # OPQ: codes live in the rotated space, so rotate the query once —
    # q·(recon @ R^T) == (q @ R)·recon — and build LUTs from q@R
    rot_p = os.path.join(index_path, "_rotation.npy")
    qr = qn @ np.load(rot_p) if os.path.exists(rot_p) else qn
    # joint OPQ: centroids ALSO live in the rotated space — probe and
    # take the ADC base term from the rotated query; plain (non-joint)
    # indexes keep cells in the original space
    probe_q = qr if joint else qn
    q_cells = index.cells_for(probe_q, nprobe)
    probed = set(int(c) for c in np.unique(q_cells))
    # residual ADC base term: q·centroid[cell], one small matmul
    qcent = (probe_q @ centroids.T) if residual else None
    # per-query ADC lookup tables: lut[q][j, c] = q_sub_j . codeword_c
    # — ONE (n_q, sub) @ (sub, ks) matmul per subspace (a per-query
    # Python loop here dominates search setup at 10k+ queries). The
    # dump-doctrine oracles read these tables as computed, so the
    # BLAS kernel choice can never break gate bit-exactness.
    luts = np.ascontiguousarray(
        np.stack(
            [qr[:, j * sub : (j + 1) * sub] @ books[j].T for j in range(m)]
        ).transpose(1, 0, 2)
    )  # (n_q, m, ks)
    files = []
    for c in sorted(probed):
        d = os.path.join(index_path, f"cell={c}")
        if os.path.isdir(d):
            files.extend(
                os.path.join(d, f)
                for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
    stats = ivf_scan_stats(index_path, probed)
    stats["probes"] = q_cells
    stats["luts"] = luts
    stats["qcent"] = qcent  # None on non-residual indexes
    if not files:
        return ray.data.from_arrow(_empty_topk_table(id_col)), stats
    code_cols = [f"code_{j}" for j in range(m)]
    ds = ray.data.read_parquet(files, columns=[id_col, *code_cols, "cell"])
    # (n_q, n_cells) probe membership — an O(n) row-mask gather per
    # query in _block instead of np.isin's per-query sort (r4 minor #5)
    pmask = np.zeros((len(qn), centroids.shape[0]), bool)
    for i in range(len(qn)):
        pmask[i, q_cells[i]] = True
    ref = ray.put((luts, q_cells, qcent, pmask))
    vec_min_q = _ADC_VECTOR_MIN_Q if vector_min_q is None else vector_min_q

    def _block(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return _empty_topk_table(id_col)
        lt, qc, qcb, pm = ray.get(ref)
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        cells = tbl["cell"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes = np.stack(
            [
                tbl[f"code_{j}"].to_numpy(zero_copy_only=False).astype(np.int64)
                for j in range(m)
            ],
            axis=1,
        )  # (n, m)
        out_q, out_id, out_s = [], [], []
        if len(lt) >= vec_min_q:
            # thousands-of-queries arm (README r6 candidate): group the
            # block's rows by CELL (the on-disk partition key, so a
            # block is usually one cell) and score each cell's rows for
            # exactly the queries that probe it — one (q_chunk, n_cell)
            # gather-sum per subspace, no per-query Python loop and no
            # flops on non-probed (query, row) pairs. Accumulation is
            # STRICTLY left-to-right over (base, subspaces), so scores
            # are BIT-identical to the loop arm; candidates are top-kk
            # per (query, cell) — a superset of the loop arm's
            # per-(query, block) kk, deduped by the downstream _final
            # top-k (parity-tested end to end).
            for c in np.unique(cells):
                qs = np.flatnonzero(pm[:, int(c)])
                if len(qs) == 0:
                    continue
                rsel = np.flatnonzero(cells == c)
                cm = codes[rsel]
                rid = ids[rsel]
                kk = min(max(k, rerank), len(rsel))
                step = max(1, int(8_000_000 // max(1, len(rsel))))
                for q0 in range(0, len(qs), step):
                    qsc = qs[q0 : q0 + step]
                    if qcb is not None:
                        sc2 = (qcb[qsc, int(c)][:, None]
                               + lt[qsc, 0][:, cm[:, 0]])
                    else:
                        sc2 = lt[qsc, 0][:, cm[:, 0]].copy()
                    for j in range(1, m):
                        sc2 += lt[qsc, j][:, cm[:, j]]
                    idx = np.argpartition(-sc2, kk - 1, axis=1)[:, :kk]
                    out_q.append(np.repeat(qsc, kk))
                    out_id.append(rid[idx].ravel())
                    out_s.append(np.take_along_axis(sc2, idx, axis=1).ravel())
            if not out_q:
                return _empty_topk_table(id_col)
            return pa.table(
                {
                    "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                    id_col: pa.array(np.concatenate(out_id), pa.int64()),
                    "score": pa.array(np.concatenate(out_s), pa.float64()),
                }
            )
        for i in range(len(lt)):
            mask = pm[i][cells]
            if not mask.any():
                continue
            cm = codes[mask]
            # ADC gather-sum, accumulated STRICTLY left-to-right over
            # (base, subspaces): the q81 oracle's explicit + chain then
            # reproduces the float64 score BIT-exactly
            if qcb is not None:  # residual index: q·centroid base first
                sc = qcb[i][cells[mask]] + lt[i][0][cm[:, 0]]
            else:
                sc = lt[i][0][cm[:, 0]].copy()
            for j in range(1, m):
                sc += lt[i][j][cm[:, j]]
            kk = min(max(k, rerank), len(sc))
            idx = np.argpartition(-sc, kk - 1)[:kk]
            out_q.append(np.full(kk, i))
            out_id.append(ids[mask][idx])
            out_s.append(sc[idx])
        if not out_q:
            return _empty_topk_table(id_col)
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                id_col: pa.array(np.concatenate(out_id), pa.int64()),
                "score": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )

    # batch_size coalesces row-group-sized blocks from the cell scan so
    # the per-cell vectorized scorer sees full batches, and candidate
    # volume stays ~kk per (query, cell) rather than per tiny slice
    candidates = ds.map_batches(
        _block, batch_format="pyarrow", batch_size=8192
    )
    keep = max(k, rerank)

    out = _final_per_query_topk(candidates, id_col, keep, n_queries=len(qn))
    if rerank <= 0:
        return out, stats

    # exact rerank: re-read ONLY the candidates' float vectors from the
    # probed cells (narrow id-filtered scan), exact dot, final top-k
    cand = out.to_pandas()
    want = set(cand[id_col].tolist())
    vds = ray.data.read_parquet(files, columns=[id_col, vec_col])
    wref = ray.put(np.array(sorted(want), np.int64))

    def _pick(tbl: pa.Table) -> pa.Table:
        w = ray.get(wref)
        mask = np.isin(tbl[id_col].to_numpy(zero_copy_only=False), w)
        return tbl.filter(pa.array(mask))

    vecs = vds.map_batches(_pick, batch_format="pyarrow").to_pandas()
    vm = _normalize(np.stack(vecs[vec_col].to_numpy()))
    vid = vecs[id_col].to_numpy()
    pos = {int(v): i for i, v in enumerate(vid)}
    rows_q, rows_i, rows_s = [], [], []
    for qi, grp in cand.groupby("query_id", sort=True):
        gi = grp[id_col].to_numpy()
        exact = vm[[pos[int(v)] for v in gi]] @ qn[int(qi)]
        order = np.lexsort((gi, -exact))[:k]
        rows_q.append(np.full(len(order), int(qi)))
        rows_i.append(gi[order])
        rows_s.append(exact[order])
    final = pa.table(
        {
            "query_id": pa.array(np.concatenate(rows_q), pa.int64()),
            id_col: pa.array(np.concatenate(rows_i), pa.int64()),
            "score": pa.array(np.concatenate(rows_s), pa.float64()),
        }
    )
    return ray.data.from_arrow(final), stats


# --------------------------------------------------------------- SQ8
# Scalar quantization (the FAISS ScalarQuantizer QT_8bit shape): each
# dimension gets an affine map code = floor((x - vmin_d)*scale_d + .5)
# into uint8 — 4x smaller than float32 storage with NO codebook, the
# standard first rung of the vector-compression ladder below PQ.
# Scoring is SYMMETRIC integer dot product (query quantized with the
# same map), so every score is an exact int64 sum — order-free under
# any partitioning, and a SQL oracle can recompute the entire
# quantize -> score -> top-k chain from raw vectors plus the dumped
# per-dim (vmin, scale) table alone (no engine output re-read).
# Reference parity surface: retrieve_online_documents_v2 top-k
# (feature_store.py:4149) at a compressed storage footprint.


def sq8_fit(
    ds: ray.data.Dataset, vec_col: str = "embedding"
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-dimension (vmin, scale) affine params over the corpus.

    min/max are associative + commutative, so the distributed partial
    reduce is exactly partition-invariant (unlike float sums). Each
    block emits ONE (2, d) partial row; the driver folds the tiny
    partial set. ``scale_d = 255 / (vmax_d - vmin_d)`` computed once
    driver-side in float64 (0 for constant dims) and DUMPED for the
    oracle — SQL never re-derives the division."""

    def _partial(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return pa.table({"vmin": pa.array([], pa.list_(pa.float64())),
                             "vmax": pa.array([], pa.list_(pa.float64()))})
        mat = _batch_matrix(tbl, vec_col).astype(np.float64)
        return pa.table({"vmin": pa.array([mat.min(0).tolist()]),
                         "vmax": pa.array([mat.max(0).tolist()])})

    parts = ds.map_batches(_partial, batch_format="pyarrow").take_all()
    if not parts:
        raise ValueError("sq8_fit: empty corpus")
    vmin = np.min([np.asarray(p["vmin"]) for p in parts], axis=0)
    vmax = np.max([np.asarray(p["vmax"]) for p in parts], axis=0)
    rng_ = vmax - vmin
    scale = np.where(rng_ > 0, 255.0 / np.where(rng_ > 0, rng_, 1.0), 0.0)
    return vmin, scale


def sq8_encode(mat: np.ndarray, vmin: np.ndarray,
               scale: np.ndarray) -> np.ndarray:
    """(n, d) -> uint8 codes. The float64 expression is written in
    the EXACT association the SQL oracle uses —
    ``(cast(x as double) - vmin) * scale + 0.5`` then floor then
    clip — so engine and DuckDB agree bit-for-bit (elementwise IEEE
    ops only; no accumulation, no rounding-mode ambiguity)."""
    q = np.floor((mat.astype(np.float64) - vmin) * scale + 0.5)
    return np.clip(q, 0.0, 255.0).astype(np.uint8)


def sq8_build(
    ds: ray.data.Dataset,
    path: str,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> "tuple[np.ndarray, np.ndarray]":
    """Encode the corpus once into a codes-only parquet layout
    (id + fixed-width uint8 list): the search scans 1 byte/dim
    instead of 4. Params broadcast via ``ray.put`` once, read per
    task. Returns (vmin, scale) for query-side encoding + the dump."""
    vmin, scale = sq8_fit(ds, vec_col)
    pref = ray.put((vmin, scale))

    def _enc(tbl: pa.Table) -> pa.Table:
        vm, sc = ray.get(pref)
        if len(tbl) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "codes": pa.array([], pa.binary())})
        codes = sq8_encode(_batch_matrix(tbl, vec_col), vm, sc)
        return pa.table({
            id_col: tbl[id_col].cast(pa.int64()),
            "codes": pa.array([c.tobytes() for c in codes], pa.binary()),
        })

    ds.map_batches(_enc, batch_format="pyarrow").write_parquet(path)
    return vmin, scale


def ann_topk_sq8(
    path: str,
    queries: np.ndarray,
    vmin: np.ndarray,
    scale: np.ndarray,
    *,
    k: int = 10,
    id_col: str = "vec_id",
    query_ids: "np.ndarray | None" = None,
) -> ray.data.Dataset:
    """Flat SQ8 scan: quantize the queries with the corpus affine
    map, stream the codes table, one uint8->int64 matmul per block,
    per-block top-k candidates, then the shared bucketed final merge.
    Scores are exact int64 (d * 255^2 « 2^63), ties break to the
    smaller id — total order, no float drift anywhere."""
    queries = np.asarray(queries)
    qcodes = sq8_encode(queries, vmin, scale).astype(np.int64)
    qids = (np.arange(len(queries), dtype=np.int64)
            if query_ids is None else np.asarray(query_ids, np.int64))
    qref = ray.put((qcodes, qids))

    def _block(tbl: pa.Table) -> pa.Table:
        qc, qi = ray.get(qref)
        if len(tbl) == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.int64())})
        ids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        raw = tbl["codes"].to_numpy(zero_copy_only=False)
        codes = np.frombuffer(b"".join(raw), np.uint8).reshape(
            len(ids), -1).astype(np.int64)
        # sort the block by id so a composite (score, -rowpos) key
        # breaks ties toward the SMALLER id — exact top-k with one
        # vectorized argpartition per query chunk, no (n, nq) id
        # matrix and no per-query Python loop (thousands-of-queries
        # economics, same doctrine as the IVF-PQ per-cell scorer)
        order0 = np.argsort(ids, kind="stable")
        ids, codes = ids[order0], codes[order0]
        n = len(ids)
        keep = min(k, n)
        rowpos = np.arange(n, dtype=np.int64)[:, None]
        parts = []
        for q0 in range(0, len(qi), 1024):
            qcc = qc[q0 : q0 + 1024]
            scores = codes @ qcc.T  # (n, <=1024) exact int64
            # scores < d*255^2 << 2^62 / n: the composite key is safe
            key = scores * n - rowpos
            top = np.argpartition(-key, keep - 1, axis=0)[:keep]
            kk = np.take_along_axis(key, top, axis=0)
            ordk = np.argsort(-kk, axis=0, kind="stable")
            sel = np.take_along_axis(top, ordk, axis=0)  # (keep, nq)
            nq = sel.shape[1]
            parts.append(pa.table({
                "query_id": pa.array(
                    np.repeat(qi[q0 : q0 + nq], keep), pa.int64()),
                id_col: pa.array(ids[sel].T.ravel(), pa.int64()),
                "score": pa.array(
                    np.take_along_axis(scores, sel, axis=0).T.ravel(),
                    pa.int64()),
            }))
        return pa.concat_tables(parts)

    cand = ray.data.read_parquet(path, columns=[id_col, "codes"]) \
        .map_batches(_block, batch_format="pyarrow")
    return _final_per_query_topk(cand, id_col, k, n_queries=len(queries))
