"""Semantic dedup (SemDeDup shape) vs a driver-side exact oracle."""

import numpy as np
import pandas as pd
import ray.data


def _corpus(n=400, d=32, seed=5, n_groups=40):
    """Clustered corpus with planted near-duplicate groups."""
    rng = np.random.RandomState(seed)
    cents = rng.standard_normal((8, d)) * 2.0
    base = cents[rng.randint(0, 8, n_groups)] + rng.standard_normal(
        (n_groups, d)) * 0.3
    rows = []
    for g in range(n_groups):
        k = 1 + rng.randint(0, 4)  # group sizes 1..4
        for _ in range(k):
            rows.append(base[g] + rng.standard_normal(d) * 0.01)
    mat = np.stack(rows)[:n]
    return mat


def _oracle(mat, cells, threshold):
    matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    n = len(mat)
    keep = []
    for i in range(n):
        wit = [j for j in range(i)
               if cells[j] == cells[i]
               and float(matn[i] @ matn[j]) >= threshold]
        if not wit:
            keep.append(i)
    return keep


def test_semantic_dedup_matches_exact_oracle():
    from feast_ray.functions.semdedup import semantic_dedup
    from feast_ray.functions.similarity import IVFIndex, _normalize
    from feast_ray.functions.sampling import sample_by_hash  # noqa: F401

    mat = _corpus()
    df = pd.DataFrame({
        "vec_id": np.arange(len(mat), dtype=np.int64),
        "embedding": list(mat.astype(np.float64)),
    })
    ds = ray.data.from_pandas(df).repartition(4)
    kept, centroids = semantic_dedup(
        ds, n_clusters=8, threshold=0.92, sample_size=400)
    got = kept.to_pandas().sort_values("vec_id").reset_index(drop=True)

    # reproduce the engine's own cluster assignment, then the
    # order-free pairwise drop rule exactly
    matn = _normalize(mat)
    cells = np.argmax(matn @ centroids.T, axis=1)
    exp_keep = _oracle(mat, cells, 0.92)
    assert got["vec_id"].tolist() == exp_keep
    np.testing.assert_array_equal(
        got["cell"].to_numpy(), cells[exp_keep])
    # planted duplicates actually got dropped
    assert len(got) < len(mat)


def test_semantic_dedup_chunked_parity(monkeypatch):
    """The chunked lower-triangle path must equal the one-shot gram
    matrix path."""
    from feast_ray.functions import semdedup
    from feast_ray.functions.semdedup import semantic_dedup

    mat = _corpus(seed=11)
    df = pd.DataFrame({
        "vec_id": np.arange(len(mat), dtype=np.int64),
        "embedding": list(mat.astype(np.float64)),
    })
    ds = ray.data.from_pandas(df).repartition(4)
    full, _ = semantic_dedup(ds, n_clusters=4, threshold=0.9,
                             sample_size=400)
    monkeypatch.setattr(semdedup, "CHUNK_ROWS", 7)
    chunked, _ = semantic_dedup(ds, n_clusters=4, threshold=0.9,
                                sample_size=400)
    pd.testing.assert_frame_equal(
        full.to_pandas().sort_values("vec_id").reset_index(drop=True),
        chunked.to_pandas().sort_values("vec_id").reset_index(drop=True),
    )


def test_semantic_dedup_no_dups_keeps_all():
    from feast_ray.functions.semdedup import semantic_dedup

    rng = np.random.RandomState(3)
    mat = rng.standard_normal((100, 16))  # random ≈ orthogonal
    df = pd.DataFrame({
        "vec_id": np.arange(100, dtype=np.int64),
        "embedding": list(mat.astype(np.float64)),
    })
    ds = ray.data.from_pandas(df)
    kept, _ = semantic_dedup(ds, n_clusters=4, threshold=0.99,
                             sample_size=100)
    assert kept.count() == 100
