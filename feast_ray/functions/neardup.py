"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram
Jaccard, embedding-cosine near-dup.

These extend the reference's latest-per-key dedup (SURVEY.md §2.1 #7)
to the content-level dedup a training-data pipeline needs. All hashes
are process-stable (zlib.crc32 / blake2b — never Python ``hash()``).

Scale shapes (per the Ray Data guide's sketch pattern):
- exact: content-hash column in a vectorized ``map_batches`` →
  keep-min-id per hash in ``bucketed_group_reduce``.
- MinHash-LSH: per-batch signatures → explode to (band, band_hash, id,
  sig) rows → (band, band_hash) LSH buckets → verified candidate
  pairs (estimated Jaccard from signatures) → drop the larger id.
  One LSH pass approximates connected components by representative
  min-id — documented approximation, same as common web-dedup practice.
- SimHash: 64-bit signature; 4×16-bit chunk LSH buckets guarantee
  recall for Hamming distance ≤ 3 within ≤ 4 buckets; verify by popcount.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from feast_ray.stages.dedup import bucketed_group_reduce

# ---------------------------------------------------------------- exact

def add_content_hash(tbl: pa.Table, text_col: str = "text", out_col: str = "content_hash") -> pa.Table:
    """Stable 63-bit content hash column — vectorized siphash via
    pandas' C kernel (process-stable with a fixed key, unlike Python
    ``hash()``); round 1 looped blake2b per row. Collision class is the
    same (64-bit birthday bound); dedup consumers treat equal hashes as
    equal content, so both need ``n << 2^32``... use the 128-bit hex
    fingerprint for adversarial settings."""
    s = tbl.column(text_col).to_pandas()
    h = (pd.util.hash_pandas_object(s, index=False).to_numpy() >> 1).astype(np.int64)
    return tbl.append_column(out_col, pa.array(h, pa.int64()))


def exact_dedup(ds: ray.data.Dataset, text_col: str, id_col: str) -> ray.data.Dataset:
    """Keep the min-id row per distinct text: content-hash column →
    per-block combine → ``bucketed_group_reduce`` on the hash."""

    def _min_id(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(id_col, kind="stable").drop_duplicates(
            "content_hash", keep="first"
        )

    def _combine(tbl: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(
            _min_id(tbl.to_pandas()), preserve_index=False, schema=tbl.schema
        ).replace_schema_metadata(None)

    pre = ds.map_batches(
        lambda t: add_content_hash(t, text_col), batch_format="pyarrow"
    ).map_batches(_combine, batch_format="pyarrow")
    return bucketed_group_reduce(
        pre, ["content_hash"], lambda df: _min_id(df).drop(columns=["content_hash"])
    )


# ------------------------------------------------------------- minhash

NUM_PERM = 64
BANDS = 16
ROWS_PER_BAND = NUM_PERM // BANDS
_MERSENNE = (1 << 61) - 1
_rng = np.random.RandomState(1234567)
_PERM_A = _rng.randint(1, _MERSENNE, size=NUM_PERM, dtype=np.uint64)
_PERM_B = _rng.randint(0, _MERSENNE, size=NUM_PERM, dtype=np.uint64)


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """crc32 of word k-shingles (stable, C-speed)."""
    words = text.split()
    if len(words) < k:
        return np.array([zlib.crc32(text.encode())], dtype=np.uint64)
    return np.array(
        [zlib.crc32(" ".join(words[i : i + k]).encode()) for i in range(len(words) - k + 1)],
        dtype=np.uint64,
    )


def minhash_signature(text: str, k: int = 3) -> np.ndarray:
    sh = _shingle_hashes(text, k)
    # (a*x + b) mod p, min over shingles, per permutation
    with np.errstate(over="ignore"):
        vals = (_PERM_A[:, None] * sh[None, :] + _PERM_B[:, None]) % _MERSENNE
    return vals.min(axis=1).astype(np.uint64)


def estimated_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float((sig_a == sig_b).mean())


class MinHasher:
    """Actor-pool stage: text → minhash signature (binary column)."""

    def __init__(self, text_col: str = "text", k: int = 3):
        self.text_col = text_col
        self.k = k

    def __call__(self, batch: "pa.Table") -> "pa.Table":
        sigs = [
            minhash_signature(t, self.k).tobytes()
            for t in batch[self.text_col].to_pylist()
        ]
        return batch.append_column("minhash_sig", pa.array(sigs, pa.binary()))


# fixed odd mixing constants: band hash = sum(chunk * mix) mod 2^64 —
# fully vectorized (no per-(doc,band) crc32 call); a false 64-bit
# collision only costs one extra verified pair, never a wrong answer
_BAND_MIX = _rng.randint(1, np.iinfo(np.int64).max, size=ROWS_PER_BAND, dtype=np.uint64) | np.uint64(1)


def _sig_matrix(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """(n, NUM_PERM) uint64 matrix from a binary signature column."""
    blob = b"".join(col.to_pylist())
    return np.frombuffer(blob, dtype=np.uint64).reshape(-1, NUM_PERM)


def _explode_bands(tbl: "pa.Table", id_col: str) -> "pa.Table":
    """signature rows → (id, band, band_hash) rows — 24 B/row through
    the LSH shuffle; signatures are NOT replicated into band rows
    (round-1 shipped the full 512 B signature in all 16 band rows)."""
    n = len(tbl)
    if n == 0:
        return pa.table(
            {id_col: tbl[id_col], "band": pa.array([], pa.int64()),
             "band_hash": pa.array([], pa.int64())}
        )
    mat = _sig_matrix(tbl["minhash_sig"])
    with np.errstate(over="ignore"):
        bh = (mat.reshape(n, BANDS, ROWS_PER_BAND) * _BAND_MIX[None, None, :]).sum(
            axis=2, dtype=np.uint64
        )
    ids = tbl[id_col].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            id_col: pa.array(np.repeat(ids, BANDS)),
            "band": pa.array(np.tile(np.arange(BANDS, dtype=np.int64), n)),
            "band_hash": pa.array(bh.reshape(-1).view(np.int64)),
        }
    )


def minhash_candidate_pairs(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str = "text",
    threshold: float = 0.8,
    k: int = 3,
    driver_verify_max: int = 2_000_000,
    star_threshold: int = 16,
) -> ray.data.Dataset:
    """Verified near-duplicate pairs ``(id_a < id_b, est_jaccard)``.

    1. sign → explode to thin (id, band, band_hash) rows (24 B/row —
       signatures are NOT replicated into band rows) → bucket shuffle
       → per-bucket pairs inside multi-member LSH buckets;
    2. verify: keep pairs whose estimated Jaccard (signature agreement
       rate) ≥ threshold. Verification is size-gated like the
       reference's broadcast joins: when the candidate-pair count is
       ≤ ``driver_verify_max`` the (bounded) pair list and ONLY the
       involved signatures are pulled to the driver and verified in
       one vectorized numpy pass — zero extra shuffles; above the gate
       it runs fully distributed: DISTINCT pairs, then the signature
       table is hash-joined onto the pairs by id (twice) and each
       batch verifies vectorized.
    """
    hasher = MinHasher(text_col=text_col, k=k)
    # materialize the thin (id, sig) table ONCE: three consumers read
    # it (band explode + both verify joins) and signature computation
    # is the expensive stage. 520 B/doc regardless of doc size, object
    # store backed and spillable — the standard minhash checkpoint.
    sigged = (
        ds.select_columns([id_col, text_col])
        .map_batches(hasher, batch_format="pyarrow")
        .drop_columns([text_col])
        .materialize()
    )
    band_rows = sigged.map_batches(
        lambda t: _explode_bands(t, id_col), batch_format="pyarrow"
    )

    def _bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        """Pairs within multi-member LSH buckets. Buckets larger than
        ``star_threshold`` switch from all-pairs to the STAR pattern
        (every member paired with the bucket's min id) — a giant
        bucket means a near-identical cluster, where all-pairs is
        quadratic (a 60-member cluster × 16 bands ≈ 28k pair rows per
        doc group — measured: an all-pairs run over a corpus of
        60-variant clusters emitted 141M candidate rows) while the
        star keeps the drop semantics (everything similar to the
        representative drops) at O(cluster). Callers that need the
        FULL all-pairs edge set (e.g. exact connected components)
        pass a large ``star_threshold``."""
        sizes = g.groupby(["band", "band_hash"], sort=False)[id_col].transform("size")
        multi = g[sizes > 1]
        ia, ib = [], []
        for _, grp in multi.groupby(["band", "band_hash"], sort=False):
            ids = np.sort(grp[id_col].to_numpy())
            if len(ids) > star_threshold:
                ia.append(np.full(len(ids) - 1, ids[0]))
                ib.append(ids[1:])
            else:
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

    # one reduce call holds many LSH buckets; it visits only the
    # multi-member ones
    raw_pairs = bucketed_group_reduce(
        band_rows, ["band", "band_hash"], _bucket_pairs
    ).materialize()  # small: one row per LSH collision pair

    if raw_pairs.count() <= driver_verify_max:
        # ---- driver verify (bounded by the candidate-pair count) ----
        ptbl = raw_pairs.to_pandas().drop_duplicates()
        if len(ptbl) == 0:
            return ray.data.from_arrow(
                pa.table(
                    {"id_a": pa.array([], pa.int64()),
                     "id_b": pa.array([], pa.int64()),
                     "est_jaccard": pa.array([], pa.float64())}
                )
            )
        involved = np.unique(
            np.concatenate([ptbl["id_a"].to_numpy(), ptbl["id_b"].to_numpy()])
        )
        iref = ray.put(involved)

        def _only_involved(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return t.filter(pc.is_in(t[id_col], value_set=pa.array(ray.get(iref))))

        sub = (
            sigged.map_batches(_only_involved, batch_format="pyarrow").to_pandas()
        ).sort_values(id_col, kind="stable")
        sub_ids = sub[id_col].to_numpy()
        mat = np.frombuffer(
            b"".join(sub["minhash_sig"].tolist()), dtype=np.uint64
        ).reshape(-1, NUM_PERM)
        a = mat[np.searchsorted(sub_ids, ptbl["id_a"].to_numpy())]
        b = mat[np.searchsorted(sub_ids, ptbl["id_b"].to_numpy())]
        est = (a == b).mean(axis=1)
        keep = est >= threshold
        out = pa.table(
            {"id_a": pa.array(ptbl["id_a"].to_numpy()[keep]),
             "id_b": pa.array(ptbl["id_b"].to_numpy()[keep]),
             "est_jaccard": pa.array(est[keep])}
        )
        return ray.data.from_arrow(out)

    # ---- broadcast-signature verify (mid tier): when the WHOLE sig
    # table fits the object store comfortably (512 B/doc → ~0.5 GB per
    # million docs), put it once (plasma, read zero-copy by every
    # verify task) and check pairs per batch with two searchsorted
    # gathers — avoids shipping signatures through TWO join shuffles
    # (measured: the join path spent ~100 s on 592k pairs × 300k sigs;
    # this path verifies the same load in seconds) ----
    from feast_ray.stages.relational import distinct

    pairs = distinct(raw_pairs, ["id_a", "id_b"])
    sig_bytes = sigged.size_bytes() or 0
    if sig_bytes and sig_bytes <= 2 * (1 << 30):
        sdf = sigged.to_pandas().sort_values(id_col, kind="stable")
        sids = sdf[id_col].to_numpy()
        smat = np.frombuffer(
            b"".join(sdf["minhash_sig"].tolist()), dtype=np.uint64
        ).reshape(-1, NUM_PERM)
        sref = ray.put((sids, smat))

        def _verify_bcast(tbl: pa.Table) -> pa.Table:
            if len(tbl) == 0:
                return pa.table(
                    {"id_a": tbl["id_a"], "id_b": tbl["id_b"],
                     "est_jaccard": pa.array([], pa.float64())}
                )
            ids_s, mat = ray.get(sref)
            a = mat[np.searchsorted(ids_s, tbl["id_a"].to_numpy(zero_copy_only=False))]
            b = mat[np.searchsorted(ids_s, tbl["id_b"].to_numpy(zero_copy_only=False))]
            est = (a == b).mean(axis=1)
            out = tbl.select(["id_a", "id_b"]).append_column(
                "est_jaccard", pa.array(est)
            )
            return out.filter(pa.array(est >= threshold))

        return pairs.map_batches(_verify_bcast, batch_format="pyarrow")

    # ---- distributed verify (sig table too large to broadcast) ----
    from feast_ray.stages.join import hash_join
    sig_a = sigged.map_batches(
        lambda t: t.rename_columns(["id_a", "sig_a"]), batch_format="pyarrow"
    )
    sig_b = sigged.map_batches(
        lambda t: t.rename_columns(["id_b", "sig_b"]), batch_format="pyarrow"
    )
    joined = hash_join(
        hash_join(pairs, sig_a, on="id_a"),
        sig_b, on="id_b",
    )

    def _verify(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return pa.table(
                {"id_a": tbl["id_a"], "id_b": tbl["id_b"],
                 "est_jaccard": pa.array([], pa.float64())}
            )
        a = _sig_matrix(tbl["sig_a"])
        b = _sig_matrix(tbl["sig_b"])
        est = (a == b).mean(axis=1)
        out = tbl.select(["id_a", "id_b"]).append_column(
            "est_jaccard", pa.array(est)
        )
        return out.filter(pa.array(est >= threshold))

    return joined.map_batches(_verify, batch_format="pyarrow")


def minhash_candidate_dups(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str = "text",
    threshold: float = 0.8,
    k: int = 3,
) -> ray.data.Dataset:
    """Ids to DROP: every doc verified ≥ threshold similar to a
    lower-id doc in a shared LSH bucket (the min-id representative of
    each near-dup cluster survives). One distinct id per row."""
    pairs = minhash_candidate_pairs(ds, id_col, text_col, threshold, k)
    dropped = pairs.map_batches(
        lambda t: pa.table({id_col: t["id_b"]}), batch_format="pyarrow"
    )
    from feast_ray.stages.relational import distinct

    return distinct(dropped, [id_col])


def minhash_dedup(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str = "text",
    threshold: float = 0.8,
    k: int = 3,
) -> ray.data.Dataset:
    """Filter out near-duplicate docs (keeps the min-id representative)
    via a broadcast ANTI-join on the dropped-id set — a single Arrow
    array shipped once and tested with vectorized ``is_in`` per batch
    (round-1 broadcast a Python set, deserialized per task). The
    collected id set is bounded by the duplicate count, not the corpus
    size."""
    from feast_ray.stages.join import semi_join

    drops = minhash_candidate_dups(ds, id_col, text_col, threshold, k)
    return semi_join(ds, drops, on=id_col, anti=True)


# ------------------------------------------------------------- simhash


# 64-bit word digest = splitmix64 finalizer over a polynomial byte
# hash (both mod-2^64) — vectorizable in numpy as one segment sum
# AND expressible in SQL HUGEINT arithmetic (q26's oracle); round 1
# used blake2b, which SQL cannot reproduce. Avalanche comes from the
# splitmix finalizer, so the weak-mixing polynomial underneath is fine.
_POLY_B = np.uint64(1099511628211)  # FNV-64 prime
_SM1, _SM2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * _SM1
        x = (x ^ (x >> np.uint64(27))) * _SM2
        return x ^ (x >> np.uint64(31))


def word_hashes64(
    words: "pa.Array | pa.ChunkedArray | list[str] | list[bytes]",
) -> np.ndarray:
    """Vectorized 64-bit digests, splitmix64-mixed polynomial hashes of
    each value's UTF-8 bytes. Reads an Arrow string/binary array's
    offsets and data buffers in place; a list is converted once with
    ``pa.array``. Every byte contributes ``b * B^(bytes after it)``
    (uint64 wraparound) and one ``np.add.reduceat`` sums each value."""
    arr = words if isinstance(words, (pa.Array, pa.ChunkedArray)) else pa.array(words)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    if pa.types.is_string(arr.type) or pa.types.is_binary(arr.type):
        odt = np.int32
    elif pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type):
        odt = np.int64
    else:
        raise TypeError(f"word_hashes64 needs string or binary values, got {arr.type}")
    if arr.null_count:
        raise ValueError("word_hashes64 got null values")
    _, obuf, dbuf = arr.buffers()
    width = np.dtype(odt).itemsize
    offs = np.frombuffer(obuf, odt, n + 1, arr.offset * width).astype(np.int64)
    lens = np.diff(offs)
    out = np.zeros(n, dtype=np.uint64)
    nz = lens > 0
    if nz.any():
        blob = np.frombuffer(dbuf, dtype=np.uint8)[offs[0] : offs[-1]].astype(np.uint64)
        powers = np.full(int(lens.max()), _POLY_B, dtype=np.uint64)
        powers[0] = np.uint64(1)
        with np.errstate(over="ignore"):
            powers = np.cumprod(powers)  # B^k, uint64 wraparound
            after = np.repeat(offs[1:] - 1, lens) - np.arange(offs[0], offs[-1])
            out[nz] = np.add.reduceat(blob * powers[after], (offs[:-1] - offs[0])[nz])
    return _splitmix64(out)


def simhash_batch(texts: "list[str]") -> np.ndarray:
    """Vectorized SimHash for a batch: ONE grouped-by-length word-hash
    pass over every word in the batch, then per-document bit-majority
    votes via segment sums (add.reduceat) — no per-document Python."""
    words_per_doc = [t.split() for t in texts]
    counts = np.array([len(w) for w in words_per_doc], dtype=np.int64)
    out = np.zeros(len(texts), dtype=np.uint64)
    flat = [w for ws in words_per_doc for w in ws]
    if not flat:
        return out
    digests = word_hashes64(flat)
    bits = np.unpackbits(
        digests.byteswap().view(np.uint8).reshape(len(flat), 8), axis=1
    ).astype(np.int32) * 2 - 1  # (n_words, 64) votes, MSB first
    nz = counts > 0
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[nz]
    acc = np.add.reduceat(bits, starts, axis=0)  # (n_nonzero_docs, 64)
    packed = np.packbits((acc > 0).astype(np.uint8), axis=1)  # big-endian bytes
    out[nz] = np.frombuffer(packed.tobytes(), dtype=np.uint64).byteswap()
    return out


def simhash64(text: str) -> int:
    return int(simhash_batch([text])[0])


# vectorized popcount for uint64 arrays (numpy<2 has no bitwise_count)
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount64(x: np.ndarray) -> np.ndarray:
    return _POP8[x.view(np.uint8).reshape(len(x), 8)].sum(axis=1).astype(np.int64)


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


class SimHasher:
    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, batch: "pa.Table") -> "pa.Table":
        sh = simhash_batch(batch[self.text_col].to_pylist()).view(np.int64)
        return batch.append_column("simhash", pa.array(sh))


def simhash_dups(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str = "text",
    max_hamming: int = 3,
) -> ray.data.Dataset:
    """Ids to drop under SimHash near-dup (Hamming ≤ max_hamming).
    LSH: bucket by each of the four 16-bit chunks — any pair within
    Hamming ≤ 3 collides in ≥ 1 chunk (pigeonhole); verify exactly.
    ``max_hamming`` > 3 would silently MISS pairs whose differing bits
    span all four chunks, so it is rejected."""
    if max_hamming > 3:
        raise ValueError(
            "simhash_dups guarantees candidate recall only for "
            "max_hamming <= 3 (4-chunk pigeonhole); use more/narrower "
            "LSH chunks for larger radii"
        )
    hashed = ds.map_batches(SimHasher(text_col=text_col), batch_format="pyarrow")

    def _explode(tbl: pa.Table) -> pa.Table:
        sh = tbl["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = tbl[id_col].to_numpy(zero_copy_only=False)
        out_ids = np.repeat(ids, 4)
        out_sh = np.repeat(sh, 4)
        chunks = np.tile(np.arange(4, dtype=np.int64), len(tbl))
        chunk_vals = ((out_sh >> (chunks.astype(np.uint64) * np.uint64(16))) & np.uint64(0xFFFF)).astype(np.int64)
        return pa.table(
            {id_col: pa.array(out_ids), "chunk": pa.array(chunks),
             "chunk_val": pa.array(chunk_vals),
             "simhash": pa.array(out_sh.astype(np.int64))}
        )

    band_rows = hashed.map_batches(_explode, batch_format="pyarrow")

    def _bucket(g: pd.DataFrame) -> pd.DataFrame:
        """Vectorized verify: the exact any-lower-member rule runs as
        one triu-matrix xor + table-popcount pass for buckets up to
        512 members (262k vectorized ops — cheap); only genuinely
        giant buckets fall back to the star pattern (compare to the
        min-id element), trading chain-recall for linear cost."""
        star_threshold = 512
        drops: list = []
        sizes = g.groupby(["chunk", "chunk_val"], sort=False)[id_col].transform("size")
        multi = g[sizes > 1]
        for _, grp in multi.groupby(["chunk", "chunk_val"], sort=False):
            grp = grp.sort_values(id_col, kind="stable")
            ids = grp[id_col].to_numpy()
            hs = grp["simhash"].to_numpy().astype(np.uint64)
            if len(ids) > star_threshold:
                d = popcount64(hs[1:] ^ hs[0])
                drops.extend(ids[1:][d <= max_hamming])
            else:
                iu, ju = np.triu_indices(len(ids), 1)
                d = popcount64(hs[iu] ^ hs[ju])
                hit = d <= max_hamming
                drops.extend(np.unique(ids[ju[hit]]))
        return pd.DataFrame({id_col: pd.Series(drops, dtype=g[id_col].dtype)})

    dups = bucketed_group_reduce(band_rows, ["chunk", "chunk_val"], _bucket)
    from feast_ray.stages.relational import distinct

    return distinct(dups, [id_col])


# ------------------------------------------------- n-gram Jaccard (exact)


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    id_col: str,
    text_col: str = "text",
    k: int = 3,
    threshold: float = 0.5,
) -> ray.data.Dataset:
    """Exact word-k-gram Jaccard similar pairs (i<j, sim ≥ threshold),
    brute force per batch against a broadcast shingle-set table.
    O(n²/B) — the exactness baseline the sketch variants approximate;
    use only when one side fits in memory."""
    pdf = ds.select_columns([id_col, text_col]).to_pandas()
    pdf = pdf.sort_values(id_col, kind="stable")
    all_ids = pdf[id_col].to_numpy()
    all_sets = [set(map(int, _shingle_hashes(t, k))) for t in pdf[text_col].tolist()]
    ref = ray.put((all_ids, all_sets))

    def _pairs(df: pd.DataFrame) -> pd.DataFrame:
        ids_r, sets_r = ray.get(ref)
        ia, ib, sims = [], [], []
        for rid, text in zip(df[id_col].tolist(), df[text_col].tolist()):
            s = set(map(int, _shingle_hashes(text, k)))
            for oid, oset in zip(ids_r, sets_r):
                if oid <= rid:
                    continue
                inter = len(s & oset)
                if inter == 0:
                    continue
                sim = inter / len(s | oset)
                if sim >= threshold:
                    ia.append(rid)
                    ib.append(int(oid))
                    sims.append(sim)
        return pd.DataFrame({"id_a": ia, "id_b": ib, "jaccard": sims})

    return ds.select_columns([id_col, text_col]).map_batches(_pairs, batch_format="pandas")
