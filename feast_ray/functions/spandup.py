"""Exact duplicate-span removal (Lee-et-al-2021-style, n-gram
approximation).

"Deduplicating Training Data Makes Language Models Better" removes
repeated SUBSTRINGS, not just whole near-duplicate documents — the
boilerplate tail (cookie banners, license headers, navigation chrome)
that survives document-level dedup because the surrounding text
differs. The exact method is a corpus-wide suffix array; the standard
scalable approximation (used here) is span marking via duplicated word
n-grams:

* a span is *duplicated* when its word ``n``-gram occurs in ≥
  ``min_docs`` DISTINCT documents;
* the lowest ``id_col`` containing a gram is its *survivor* — that doc
  keeps the span (keep-first, the paper's "remove all but one");
* every other doc drops all tokens covered by any such gram
  occurrence; remaining tokens are rejoined with single spaces
  (whitespace is normalized as a side effect, exactly like the SQL
  oracle's ``\\S+`` tokenization).

Gram key: every token gets one ``neardup.word_hashes64`` digest, read
straight from the Arrow token buffer, and a gram is keyed by two uint64
halves chained through ``splitmix64`` over its n token digests — a
128-bit key in which token boundaries take part ("ab c" and "a bc"
differ). No gram string is ever built. Two distinct grams merge their
dup/survivor decisions only if their keys collide (odds about
(#grams)²/2^128) or two distinct tokens share a 64-bit digest (about
(#distinct tokens)²/2^64).

Scale design — two thin passes, same doctrine as ``linedup.py``:

* pass A ships only per-block DISTINCT (key, n_docs_partial, min_doc)
  rows, two Arrow ``group_by``s per block (a doc's text lives in one
  row = one block, so distinct-doc counts sum across blocks); the wide
  step is ONE auto-sized ``bucketed_group_reduce`` over the key — the
  per-block distinct is the skew remedy for hot boilerplate grams;
* the surviving dup-gram table (key → survivor) broadcasts via
  ``ray.put`` as a ``fixed_size_binary(16)`` key set plus a survivor
  array. Partitioning assumption: it fits the object store
  (boilerplate vocabularies grow sublinearly in corpus size — the
  spans are duplicated by definition); past ``MAX_BROADCAST_ROWS`` the
  call raises;
* pass B is block-local: the same gram keys, one ``pc.index_in`` probe
  (its hash table is rebuilt per block, O(#dup grams)), interval
  marking by a +1/-1 diff + cumsum, and ``pc.binary_join`` over the
  kept tokens.

Reference has no analog (SURVEY.md §2 extension surface).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from feast_ray.functions.neardup import _splitmix64, word_hashes64

# dup-gram rows past which the broadcast table would crowd the object
# store (24 bytes a row)
MAX_BROADCAST_ROWS = 50_000_000

_K2_SEED = np.uint64(0x6A09E667F3BCC909)
_PARTIAL = pa.schema(
    [("k1", pa.uint64()), ("k2", pa.uint64()), ("nd", pa.int64()), ("md", pa.int64())]
)
_DUP = pa.schema([("k1", pa.uint64()), ("k2", pa.uint64()), ("md", pa.int64())])


def _tokenize_block(tbl: pa.Table, text_col: str):
    """Flat token buffer + per-row offsets from 0, ngrams.py's
    normalization (trim + collapse + single-space split ≡ SQL ``\\S+``
    extraction, modulo the single empty token an empty doc produces —
    which can never join a gram and rejoins to ''). A null text holds
    no tokens."""
    txt = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(tbl[text_col], r"\s+", " ")
    )
    la = pc.split_pattern(txt, " ").combine_chunks()
    offs = la.offsets.to_numpy().astype(np.int64)
    return la.values.slice(offs[0], offs[-1] - offs[0]), offs - offs[0]


def _gram_starts(offs: np.ndarray, n: int) -> np.ndarray:
    """Token positions where an n-gram fits inside its own doc."""
    ends = np.repeat(offs[1:], np.diff(offs))
    idx = np.arange(offs[-1])
    return idx[idx + (n - 1) < ends]


def _owners(tbl: pa.Table, id_col: str, offs: np.ndarray, start: np.ndarray):
    """int64 ``id_col`` of the doc each gram start lies in."""
    ids = tbl[id_col].to_numpy().astype(np.int64, copy=False)
    return ids[np.searchsorted(offs, start, side="right") - 1]


def _gram_keys(flat: pa.Array, start: np.ndarray, n: int):
    """The two uint64 halves of each gram's 128-bit key, chained over
    the gram's n token digests (the second over their 32-bit
    rotations, from another seed)."""
    th = word_hashes64(flat)
    k1 = np.zeros(len(start), dtype=np.uint64)
    k2 = np.full(len(start), _K2_SEED, dtype=np.uint64)
    for j in range(n):
        t = th[start + j]
        k1 = _splitmix64(k1 ^ t)
        k2 = _splitmix64(k2 ^ ((t << np.uint64(32)) | (t >> np.uint64(32))))
    return k1, k2


def _key16(k1: np.ndarray, k2: np.ndarray) -> pa.Array:
    """(k1, k2) as one fixed_size_binary(16) array."""
    buf = np.column_stack([k1, k2]).tobytes()
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(16), len(k1), [None, pa.py_buffer(buf)]
    )


def remove_duplicate_spans(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    *,
    n: int = 4,
    min_docs: int = 2,
    out_col: str = "text_despanned",
) -> ray.data.Dataset:
    """Append ``out_col``: the text with cross-document duplicated
    n-gram spans removed everywhere except the lowest-``id_col``
    containing doc (a null text becomes ""). Triggers execution of
    pass A (the dup-gram reduce) at call time; pass B streams.

    Grams are matched on 128-bit token-digest keys (see the module
    docstring for the collision odds). The dup-gram table is broadcast
    to every pass-B task; more than ``MAX_BROADCAST_ROWS`` dup grams
    raise ``ValueError``."""
    from feast_ray.stages.dedup import bucketed_group_reduce

    if n < 2:
        # the single empty token an empty doc produces would become a
        # phantom '' unigram (ngrams.py caveat); spans need n >= 2
        raise ValueError(f"span n-gram size must be >= 2, got {n}")

    def _partial(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return _PARTIAL.empty_table()
        flat, offs = _tokenize_block(tbl, text_col)
        start = _gram_starts(offs, n)
        if len(start) == 0:
            return _PARTIAL.empty_table()
        k1, k2 = _gram_keys(flat, start, n)
        occ = pa.table({"k1": k1, "k2": k2, "doc": _owners(tbl, id_col, offs, start)})
        docs = occ.group_by(["k1", "k2", "doc"]).aggregate([])
        agg = docs.group_by(["k1", "k2"]).aggregate(
            [("doc", "count"), ("doc", "min")]
        )
        return pa.table(
            [agg["k1"], agg["k2"], agg["doc_count"], agg["doc_min"]],
            schema=_PARTIAL,
        )

    def _merge(df) -> pa.Table:
        if "k1" not in df.columns:  # the whole exchange was empty
            return _DUP.empty_table()
        t = pa.Table.from_pandas(df, schema=_PARTIAL, preserve_index=False)
        g = t.group_by(["k1", "k2"]).aggregate([("nd", "sum"), ("md", "min")])
        g = g.filter(pc.greater_equal(g["nd_sum"], min_docs))
        return pa.table({"k1": g["k1"], "k2": g["k2"], "md": g["md_min"]})

    dup = bucketed_group_reduce(
        ds.map_batches(_partial, batch_format="pyarrow"), ["k1", "k2"], _merge
    )
    parts = [t for t in ray.get(dup.to_arrow_refs()) if t.num_rows]
    d = pa.concat_tables(parts) if parts else _DUP.empty_table()
    if len(d) > MAX_BROADCAST_ROWS:
        raise ValueError(
            f"{len(d)} duplicated grams exceed the broadcast cap of "
            f"{MAX_BROADCAST_ROWS}"
        )
    keys_ref = ray.put(_key16(d["k1"].to_numpy(), d["k2"].to_numpy()))
    surv_ref = ray.put(d["md"].to_numpy())

    def _strip(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return tbl.append_column(out_col, pa.array([], pa.string()))
        keys, surv = ray.get(keys_ref), ray.get(surv_ref)
        flat, offs = _tokenize_block(tbl, text_col)
        start = _gram_starts(offs, n)
        s_sel = start[:0]
        if len(start) and len(keys):
            k1, k2 = _gram_keys(flat, start, n)
            ix = pc.index_in(_key16(k1, k2), value_set=keys)
            ix = pc.fill_null(ix, -1).to_numpy()
            hit = np.flatnonzero(ix >= 0)
            owner = _owners(tbl, id_col, offs, start[hit])
            s_sel = start[hit[surv[ix[hit]] != owner]]
        return _mark_and_rejoin(tbl, out_col, n, flat, offs, s_sel)

    return ds.map_batches(_strip, batch_format="pyarrow")


def _mark_and_rejoin(
    tbl: pa.Table,
    out_col: str,
    n: int,
    flat: pa.Array,
    offs: np.ndarray,
    s_sel: np.ndarray,
) -> pa.Table:
    """Pass-B tail: mark [s, s+n) intervals over the flat token buffer
    (absolute token positions), filter the token list to the unmarked
    tokens and rejoin each row with single spaces."""
    keep = np.ones(offs[-1], dtype=bool)
    if len(s_sel):
        diff = np.zeros(offs[-1] + 1, dtype=np.int64)
        np.add.at(diff, s_sel, 1)
        np.add.at(diff, s_sel + n, -1)
        keep = np.cumsum(diff[:-1]) == 0
    kept_offs = np.concatenate([[0], np.cumsum(keep)])[offs]
    kept = pa.ListArray.from_arrays(
        pa.array(kept_offs, pa.int32()), flat.filter(pa.array(keep))
    )  # no validity bitmap: a null text rejoins to ""
    return tbl.append_column(out_col, pc.binary_join(kept, " ").cast(pa.string()))
