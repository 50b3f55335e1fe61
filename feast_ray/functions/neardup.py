"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram
Jaccard, embedding-cosine near-dup.

These extend the reference's latest-per-key dedup (SURVEY.md §2.1 #7)
to the content-level dedup a training-data pipeline needs. All hashes
are process-stable (zlib.crc32 / blake2b — never Python ``hash()``).

Scale shapes (per the Ray Data guide's sketch pattern):
- exact: content-hash column in a vectorized ``map_batches`` →
  keep-min-id per hash in ``bucketed_group_reduce``.
- MinHash-LSH: per-batch signatures → explode to (id, band, band_hash)
  rows → (band, band_hash) LSH buckets → verified candidate pairs
  (estimated Jaccard from signatures) → drop the larger id. One LSH
  pass approximates connected components by representative min-id —
  documented approximation, same as common web-dedup practice.
- SimHash: 64-bit signature; 4×16-bit chunk LSH buckets guarantee
  recall for Hamming distance ≤ 3 within ≤ 4 buckets; verify by popcount.

Candidate/verify contract, shared by MinHash-LSH, SimHash and the
SRP-LSH embedding near-dup (``similarity.cosine_neardup_pairs_lsh``):

- Candidates: one row per (id, LSH bucket) goes through one bucket
  shuffle; ``_bucket_pairs`` gives each multi-member bucket's pairs in
  id order — all pairs up to a star threshold, above it the star (the
  bucket's min id with every other member), so a hot bucket costs its
  reducer O(members), not O(members²). MinHash uses
  ``STAR_THRESHOLD``, SimHash 512 and SRP-LSH no star.
- Verify (``verified_pairs``): score each distinct candidate pair from
  the two signatures, keep it when the score is ≥ the threshold, then
  round the kept scores if asked. The tier is picked by size and never
  changes a row or a score:
  1. driver — at most ``DRIVER_VERIFY_MAX`` candidate pairs: the pairs
     and ONLY the involved signatures come to the driver for one
     vectorized pass, with no extra shuffle;
  2. broadcast — a signature table of at most
     ``BROADCAST_VERIFY_MAX_BYTES`` is put in the object store once and
     every task gathers its pairs' rows with ``searchsorted`` (the two
     join shuffles took ~100 s on 592k pairs × 300k signatures; this
     tier verifies the same load in seconds);
  3. join — otherwise the signatures are hash-joined onto the distinct
     pairs twice (by ``id_a``, then ``id_b``) and each batch verifies.
  SimHash's 8-byte signature rides in its band rows, so it verifies
  inside the bucket reducer instead.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
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


# ------------------------------------------ LSH candidates and verify

#: LSH bucket size above which a bucket pairs its min id with every
#: other member (the star) instead of emitting all pairs
STAR_THRESHOLD = 16
#: candidate-pair count up to which :func:`verified_pairs` verifies on
#: the driver
DRIVER_VERIFY_MAX = 2_000_000
#: signature-table size up to which :func:`verified_pairs` broadcasts
#: the signatures instead of joining them onto the pairs (MinHash
#: signatures take 520 B/doc, so about 4M docs)
BROADCAST_VERIFY_MAX_BYTES = 2 * (1 << 30)


def _bucket_pairs(
    g: pd.DataFrame,
    id_col: str,
    bucket_cols: "list[str]",
    star_threshold: "int | None",
) -> "tuple[np.ndarray, np.ndarray]":
    """Row positions ``(a, b)`` of the pairs inside every multi-member
    bucket of ``g`` (rows grouped by ``bucket_cols``), in id order.

    A bucket of at most ``star_threshold`` members gives all its pairs;
    a larger one gives the STAR (its min id with every other member),
    and ``star_threshold=None`` always gives all pairs. A giant bucket
    is a near-identical cluster, where all pairs are quadratic (an
    all-pairs run over a corpus of 60-variant clusters emitted 141M
    candidate rows) while the star keeps the drop semantics (everything
    similar to the representative drops) at O(cluster), so one hot
    bucket cannot sink its reducer."""
    ids = g[id_col].to_numpy()
    sizes = g.groupby(bucket_cols, sort=False)[id_col].transform("size").to_numpy()
    multi = np.flatnonzero(sizes > 1)
    left, right = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for pos in g.iloc[multi].groupby(bucket_cols, sort=False).indices.values():
        pos = multi[pos]
        pos = pos[np.argsort(ids[pos], kind="stable")]
        if star_threshold is not None and len(pos) > star_threshold:
            left.append(np.full(len(pos) - 1, pos[0]))
            right.append(pos[1:])
        else:
            iu, ju = np.triu_indices(len(pos), 1)
            left.append(pos[iu])
            right.append(pos[ju])
    return np.concatenate(left), np.concatenate(right)


def lsh_candidate_pairs(
    band_rows: ray.data.Dataset,
    id_col: str,
    bucket_cols: "list[str]",
    star_threshold: "int | None",
) -> ray.data.Dataset:
    """Materialized ``(id_a, id_b)`` candidate pairs of ``band_rows``
    (one row per id and LSH bucket): one bucket shuffle on
    ``bucket_cols``, then :func:`_bucket_pairs` over each reducer's
    buckets. A pair found in several buckets may appear more than once."""

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy()
        a, b = _bucket_pairs(g, id_col, bucket_cols, star_threshold)
        return pd.DataFrame({"id_a": ids[a], "id_b": ids[b]}).drop_duplicates()

    return bucketed_group_reduce(band_rows, bucket_cols, _pairs).materialize()


def _empty_pairs(out_col: str) -> pa.Table:
    return pa.table(
        {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
         out_col: pa.array([], pa.float64())}
    )


def verified_pairs(
    sigged: ray.data.Dataset,
    raw_pairs: ray.data.Dataset,
    *,
    id_col: str,
    sig_col: str,
    decode,
    score,
    threshold: float,
    out_col: str,
    round_to: "int | None" = None,
) -> ray.data.Dataset:
    """``(id_a, id_b, out_col)`` rows of the distinct ``raw_pairs``
    whose score is ≥ ``threshold``, in the tier the module docstring
    describes. ``sigged`` holds one ``(id_col, sig_col)`` row per id
    (``sig_col`` binary), ``decode`` maps a binary column to a
    signature matrix, and ``score(a, b)`` maps two row-aligned matrices
    to one float64 per row. The keep test reads the unrounded score;
    ``round_to`` rounds the kept ones."""

    def _scored(ia: np.ndarray, ib: np.ndarray, a: np.ndarray, b: np.ndarray) -> pa.Table:
        s = score(a, b)
        keep = s >= threshold
        if round_to is not None:
            s = s.round(round_to)
        return pa.table({"id_a": ia[keep], "id_b": ib[keep], out_col: s[keep]})

    def _sorted(ds: ray.data.Dataset) -> "tuple[np.ndarray, np.ndarray]":
        tbl = pa.concat_tables(ray.get(ds.to_arrow_refs())).sort_by(id_col)
        return tbl[id_col].to_numpy(), decode(tbl[sig_col])

    n = raw_pairs.count()
    if n == 0:
        return ray.data.from_arrow(_empty_pairs(out_col))
    if n <= DRIVER_VERIFY_MAX:
        ptbl = raw_pairs.to_pandas().drop_duplicates()
        ia, ib = ptbl["id_a"].to_numpy(), ptbl["id_b"].to_numpy()
        iref = ray.put(np.unique(np.concatenate([ia, ib])))
        ids_s, mat = _sorted(sigged.map_batches(
            lambda t: t.filter(pc.is_in(t[id_col], value_set=pa.array(ray.get(iref)))),
            batch_format="pyarrow",
        ))
        return ray.data.from_arrow(_scored(
            ia, ib, mat[np.searchsorted(ids_s, ia)], mat[np.searchsorted(ids_s, ib)]
        ))

    from feast_ray.stages.relational import distinct

    pairs = distinct(raw_pairs, ["id_a", "id_b"])
    sig_bytes = sigged.size_bytes() or 0
    if sig_bytes and sig_bytes <= BROADCAST_VERIFY_MAX_BYTES:
        sref = ray.put(_sorted(sigged))

        def _verify_bcast(tbl: pa.Table) -> pa.Table:
            if len(tbl) == 0:
                return _empty_pairs(out_col)
            ids_s, mat = ray.get(sref)
            ia = tbl["id_a"].to_numpy(zero_copy_only=False)
            ib = tbl["id_b"].to_numpy(zero_copy_only=False)
            return _scored(
                ia, ib, mat[np.searchsorted(ids_s, ia)], mat[np.searchsorted(ids_s, ib)]
            )

        return pairs.map_batches(_verify_bcast, batch_format="pyarrow")

    from feast_ray.stages.join import hash_join

    def _side(side: str) -> ray.data.Dataset:
        return sigged.map_batches(
            lambda t: t.select([id_col, sig_col]).rename_columns([f"id_{side}", f"sig_{side}"]),
            batch_format="pyarrow",
        )

    joined = hash_join(hash_join(pairs, _side("a"), on="id_a"), _side("b"), on="id_b")

    def _verify_join(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return _empty_pairs(out_col)
        return _scored(
            tbl["id_a"].to_numpy(zero_copy_only=False),
            tbl["id_b"].to_numpy(zero_copy_only=False),
            decode(tbl["sig_a"]), decode(tbl["sig_b"]),
        )

    return joined.map_batches(_verify_join, batch_format="pyarrow")


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
) -> ray.data.Dataset:
    """Verified near-duplicate pairs ``(id_a < id_b, est_jaccard)``:
    sign → explode to thin (id, band, band_hash) rows (24 B/row —
    signatures are NOT replicated into band rows) → candidate pairs
    inside multi-member LSH buckets (star above ``STAR_THRESHOLD``) →
    :func:`verified_pairs` keeps the pairs whose estimated Jaccard
    (signature agreement rate) is ≥ threshold."""
    hasher = MinHasher(text_col=text_col, k=k)
    # materialize the thin (id, sig) table ONCE: the band explode and
    # the verify both read it, and signature computation is the
    # expensive stage. 520 B/doc regardless of doc size, object store
    # backed and spillable — the standard minhash checkpoint.
    sigged = (
        ds.select_columns([id_col, text_col])
        .map_batches(hasher, batch_format="pyarrow")
        .drop_columns([text_col])
        .materialize()
    )
    band_rows = sigged.map_batches(
        lambda t: _explode_bands(t, id_col), batch_format="pyarrow"
    )
    raw_pairs = lsh_candidate_pairs(
        band_rows, id_col, ["band", "band_hash"], STAR_THRESHOLD
    )
    return verified_pairs(
        sigged, raw_pairs, id_col=id_col, sig_col="minhash_sig",
        decode=_sig_matrix, score=lambda a, b: (a == b).mean(axis=1),
        threshold=threshold, out_col="est_jaccard",
    )


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
    """splitmix64 finalizer of each value taken as uint64 (an int64
    input is read two's-complement, so ``-1`` maps like ``2**64 - 1``)."""
    with np.errstate(over="ignore"):
        x = x.astype(np.uint64, copy=False) + np.uint64(0x9E3779B97F4A7C15)
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
        """Exact popcount verify of the candidate pairs in this
        reducer's buckets: all pairs up to 512 members (262k vectorized xor + table-popcount
        ops — cheap); only genuinely giant buckets fall back to the
        star, trading chain-recall for linear cost."""
        ids = g[id_col].to_numpy()
        hs = g["simhash"].to_numpy().astype(np.uint64)
        a, b = _bucket_pairs(g, id_col, ["chunk", "chunk_val"], 512)
        hit = popcount64(hs[a] ^ hs[b]) <= max_hamming
        return pd.DataFrame({id_col: np.unique(ids[b[hit]])})

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
