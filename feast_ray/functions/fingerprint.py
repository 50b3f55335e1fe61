"""Document fingerprinting: stable 64-bit content hash + winnowed
rolling-hash fingerprint.

The content hash is the engine's entity-key analog — the reference
serializes entity keys to stable sorted binary keys
(feast/infra/key_encoding_utils.py:123-190); we need the same property
(stable across processes/machines) for dedup keys, so Python's
randomized ``hash()`` is never used. blake2b (C implementation) gives
the stable 64-bit id; the rolling hash is a numpy-vectorized polynomial
hash (Rabin–Karp) whose minimum over windows is a winnowing-style
document sketch.
"""

from __future__ import annotations

import hashlib

import numpy as np

_B = np.uint64(1000003)
_WINDOW = 16


def content_hash64(text: str) -> int:
    """Stable 64-bit content hash (blake2b, C-speed)."""
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


def rolling_min_hash(text: str, window: int = _WINDOW) -> int:
    """Minimum polynomial rolling hash over byte windows (uint64
    wraparound arithmetic — deterministic everywhere). Returns the
    full-text hash when the text is shorter than one window."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    if len(b) < window:
        return content_hash64(text)
    with np.errstate(over="ignore"):
        powers = np.empty(window, dtype=np.uint64)
        powers[0] = np.uint64(1)
        for i in range(1, window):
            powers[i] = powers[i - 1] * _B
        powers = powers[::-1]
        sw = np.lib.stride_tricks.sliding_window_view(b, window)
        h = (sw * powers).sum(axis=1, dtype=np.uint64)
    return int(h.min())


def fingerprint_batch(texts: list[str]) -> dict[str, np.ndarray]:
    """Per-doc fingerprints for a batch (map_batches kernel helper)."""
    n = len(texts)
    ch = np.empty(n, dtype=np.uint64)
    rh = np.empty(n, dtype=np.uint64)
    for i, t in enumerate(texts):
        ch[i] = content_hash64(t)
        rh[i] = rolling_min_hash(t)
    return {"content_hash": ch, "rolling_min_hash": rh}
