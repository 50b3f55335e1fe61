"""KenLM-style n-gram perplexity — one sub-stage of the fused scorer.

KenLM itself is not in the sandbox; the stand-in is a byte-trigram
language model with add-one smoothing trained once per actor on a
fixed, embedded English seed corpus — deterministic across processes
and rounds. Scoring is fully vectorized: UTF-8 bytes → byte trigrams
→ one gather from an exact two-level log-prob table (a row index
per bigram prefix, one 256-entry row per seed bigram plus one shared
row for every unseen prefix; under 1 MiB, held in memory by each
worker), so the hot loop is numpy, not Python.

Execution shape = the reference's model-holding batch transform
(feast/embedder.py:49-120, ray_transformation.py:30-74): build in
``__init__``, score in ``__call__``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_SEED_CORPUS = (
    "the quick brown fox jumps over the lazy dog and the small stream runs "
    "down to the wide river where the old mill stands by the stone bridge "
    "data systems read and write large tables of rows and columns while the "
    "query engine sorts filters joins and aggregates the values in each "
    "partition of the distributed store the workers scan blocks in parallel "
    "and merge partial results into a final answer that the user can read "
    "a good sentence has common words like the and of to in is it that for "
    "language models assign high probability to fluent text and low "
    "probability to random strings of rare symbols or repeated noise "
    "the pipeline keeps documents whose text looks like natural language "
    "and drops pages full of markup fragments numbers or gibberish tokens"
)


class PerplexityModel:
    """Callable actor class: appends a ``ppl`` float column (byte-level
    perplexity; lower = more fluent relative to the seed corpus)."""

    def __init__(self, text_col: str = "text", corpus: str = _SEED_CORPUS, add_k: float = 1.0):
        self.text_col = text_col
        data = np.frombuffer(corpus.encode("utf-8"), dtype=np.uint8).astype(np.uint32)
        tri = (data[:-2] << 16) | (data[1:-1] << 8) | data[2:]
        bi = (data[:-1] << 8) | data[1:]
        tri_keys, tri_counts = np.unique(tri, return_counts=True)
        bi_keys, bi_counts = np.unique(bi, return_counts=True)
        self.V = 256.0
        self.add_k = add_k
        self.tri_keys, self.tri_counts = tri_keys, tri_counts.astype(np.float64)
        self.bi_keys, self.bi_counts = bi_keys, bi_counts.astype(np.float64)
        # two-level log-prob table, exact and cache-resident: trigram id
        # t = prefix << 8 | byte scores logp_rows[row_base[prefix] + byte],
        # one 256-entry row per seed bigram plus row 0, shared by every
        # prefix the seed never saw: 512 KiB + ~0.45 MiB, where a dense
        # 2^24 table is 128 MiB. Each entry is the float64
        # log((c_tri + k) / (c_bi + k·V)) computed once here with the
        # same inputs and libm as the per-trigram chain in score(), so
        # ppl is BIT-IDENTICAL to that chain — the q24/q28 oracles
        # compare keep decisions at the MAX_PPL threshold, where a
        # float32 table's rounding could flip borderline docs.
        c_tri = np.zeros((len(bi_keys) + 1, 256))
        row = np.searchsorted(bi_keys, tri_keys >> np.uint32(8)) + 1
        c_tri[row, tri_keys & 255] = tri_counts
        c_bi = np.concatenate([[0.0], self.bi_counts])
        logp = np.log((c_tri + add_k) / (c_bi[:, None] + add_k * self.V))
        # a spare 0.0 entry last: see _score_bytes
        self.logp_rows = np.append(logp.ravel(), 0.0)
        self.row_base = np.zeros(1 << 16, np.intp)
        self.row_base[bi_keys] = np.arange(1, len(bi_keys) + 1) << 8

    def _lookup(self, keys: np.ndarray, table_keys: np.ndarray, table_vals: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(table_keys, keys)
        idx = np.clip(idx, 0, len(table_keys) - 1)
        hit = table_keys[idx] == keys
        return np.where(hit, table_vals[idx], 0.0)

    def score(self, text: str) -> float:
        b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint32)
        if len(b) < 3:
            return float(self.V)
        tri = (b[:-2] << 16) | (b[1:-1] << 8) | b[2:]
        bi = (b[:-2] << 8) | b[1:-1]
        c_tri = self._lookup(tri, self.tri_keys, self.tri_counts)
        c_bi = self._lookup(bi, self.bi_keys, self.bi_counts)
        logp = np.log((c_tri + self.add_k) / (c_bi + self.add_k * self.V))
        return float(np.exp(-logp.mean()))

    def score_batch(self, texts: list[str]) -> np.ndarray:
        """Reference batch scoring over Python strings: the docs'
        concatenated UTF-8 bytes through the byte-view scorer."""
        encoded = [t.encode("utf-8") for t in texts]
        offs = np.zeros(len(texts) + 1, np.int64)
        np.cumsum([len(b) for b in encoded], out=offs[1:])
        return self._score_bytes(np.frombuffer(b"".join(encoded), np.uint8), offs)

    def _score_bytes(self, buf: np.ndarray, offs: np.ndarray) -> np.ndarray:
        """Vectorized scoring of the docs ``buf[offs[i]:offs[i+1]]``: ONE
        trigram lookup over the whole byte buffer, then per-document
        segment means via add.reduceat — no per-doc numpy call chain.
        A doc's score is bit-identical whatever batch it is scored in."""
        lens = np.diff(offs)
        out = np.full(len(lens), float(self.V))
        idx = np.flatnonzero(lens >= 3)
        if not len(idx):
            return out
        # one gather — the add/div/log chain is baked into the table
        # (bit-identical, see __init__): the bigram prefix picks its
        # row, the third byte the entry. A last position on the table's
        # spare 0.0 keeps the final doc's end bound a valid reduceat
        # index. Indices are intp because take casts any other dtype
        # first (measured slower than the explicit astype); they are
        # always in range, so "clip" never clips and only spares take's
        # buffered bounds check.
        bi = np.left_shift(buf[:-2], 8, dtype=np.uint16)
        bi |= buf[1:-1]
        pos = np.empty(len(bi) + 1, np.intp)
        pos[-1] = len(self.logp_rows) - 1
        np.take(self.row_base, bi.astype(np.intp), out=pos[:-1], mode="clip")
        pos[:-1] += buf[2:]
        logp = np.take(self.logp_rows, pos, mode="clip")
        # segment-sum doc i's trigrams at [offs[i], offs[i+1]-2),
        # skipping the 2 cross-document boundary trigrams; each sum reads
        # only its own segment, so the rest of the batch cannot change it
        bounds = np.stack([offs[idx], offs[idx + 1] - 2], axis=1).ravel()
        sums = np.add.reduceat(logp, bounds)[::2]
        out[idx] = np.exp(-sums / (lens[idx] - 2))
        return out

    def __call__(self, batch: "pa.Table", ctx=None) -> "pa.Table":
        """Arrow in / Arrow out. Scores straight off the batch's shared
        byte view; a column with nulls takes ``score_batch`` over its
        valid docs and gets a null ppl for each null doc."""
        from .textstats import ByteText

        if ctx is None:
            ctx = ByteText(batch[self.text_col])
        if ctx.view is not None:
            ppl = pa.array(self._score_bytes(*ctx.view))
        else:
            texts = ctx.text.to_pylist()
            null = np.array([t is None for t in texts], bool)
            ppl = pa.array(
                self.score_batch([t or "" for t in texts]), mask=null, type=pa.float64()
            )
        return batch.append_column("ppl", ppl)
