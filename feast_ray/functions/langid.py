"""Language identification — one stateless sub-stage of the fused
``QualityScorer``.

A fastText-style classifier is not available in the sandbox, so the
model is a deterministic function-word / script profile classifier
(the classic n-gram/stopword heuristic). Model tables are built ONCE
per worker process in ``__init__`` (the scorer is cached per process,
see ``pipelines/quality_filter._SCORER_CACHE``) and applied per batch
in ``__call__`` — the reference's stateful-transform shape
(transformation/ray_transformation.py:30-74) without an actor pool.

The batch path is the byte path: per-language function-word counts
come from the batch's shared ``textstats.ByteText`` (one exact Arrow
probe of the lowercase \\w+ runs against every dictionary word).
Non-ASCII docs and null columns take the RE2 ``count_substring_regex``
reference kernels; the scalar ``predict()`` applies the identical
formula record-at-a-time for the test oracle.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_PROFILES: dict[str, str] = {
    "en": "the|and|of|to|in|is|it|that|for|on|with|as|are|this|be|at|or|from",
    "de": "der|die|das|und|ist|nicht|ein|eine|zu|den|von|mit|sich|auf|für|im",
    "fr": "le|la|les|et|de|des|un|une|est|pas|que|pour|dans|sur|avec|au|du",
    "es": "el|la|los|las|y|de|que|en|un|una|es|no|por|con|para|su|al|como",
}
_LANG_ORDER = list(_PROFILES)  # tie-break order is part of the model
_CJK_PATTERN = r"[一-鿿]"


def _lang_pattern(profile: str) -> str:
    return r"\b(" + profile + r")\b"


class LangIdModel:
    """Callable class for an actor-pool ``map_batches`` stage.

    Emits ``lang_pred`` (en/de/fr/es/zh/und) and ``lang_conf`` in
    [0,1] (function-word hits / token count). Deterministic: ties
    resolve in fixed profile order; zh wins on CJK char ratio > 0.15.
    """

    CJK_THRESHOLD = 0.15

    def __init__(self, text_col: str = "text"):
        # once per actor: "load the model" — freeze patterns (RE2 for
        # the vectorized path, re for the scalar oracle path)
        self.text_col = text_col
        self.patterns = {l: _lang_pattern(p) for l, p in _PROFILES.items()}
        self.re_patterns = {l: re.compile(p) for l, p in self.patterns.items()}
        self.re_cjk = re.compile(_CJK_PATTERN)
        self.re_tokens = re.compile(r"\S+")
        # per-profile membership masks over textstats.DICT_WORDS for
        # the byte path — non-pure-\w words (e.g. "für") are excluded:
        # they contain a non-ASCII byte, so they can only match in docs
        # the byte path already routes to the RE2 fallback
        from .textstats import dict_mask

        self._dict_masks = {
            lang: dict_mask(w.encode() for w in profile.split("|"))
            for lang, profile in _PROFILES.items()
        }

    def predict(self, text: str) -> tuple[str, float]:
        """Record-at-a-time scoring — same formula as the batch path."""
        n_chars = len(text)
        if n_chars == 0:
            return "und", 0.0
        cjk = len(self.re_cjk.findall(text))
        if cjk / n_chars > self.CJK_THRESHOLD:
            return "zh", min(1.0, cjk / n_chars)
        n_tokens = len(self.re_tokens.findall(text))
        if n_tokens == 0:
            return "und", 0.0
        lower = text.lower()
        best_lang, best = "und", 0
        for lang in _LANG_ORDER:
            score = len(self.re_patterns[lang].findall(lower))
            if score > best:
                best_lang, best = lang, score
        if best == 0:
            return "und", 0.0
        return best_lang, min(1.0, best / n_tokens)

    def __call__(self, batch: pa.Table, ctx=None) -> pa.Table:
        from .textstats import ByteText, count_dict_words

        if ctx is None:
            ctx = ByteText(batch[self.text_col])
        text = ctx.text
        if ctx.view is None:
            langs, conf = self._scores_re2(text)
        else:
            # byte fast path: function-word counts = dictionary hits
            # over \w+ runs (every ASCII profile word is pure-\w; "für"
            # can only occur in non-ASCII docs, which are patched
            # below). CJK chars imply non-ASCII, so cjk = 0 on this path
            # by construction.
            buf, offs = ctx.view
            n = len(text)
            n_chars_i, _, _, _, n_words_i = ctx.counts
            hits = ctx.runs
            scores = np.stack(
                [
                    count_dict_words(hits, self._dict_masks[lang], n).astype(np.float64)
                    for lang in _LANG_ORDER
                ]
            )
            langs, conf = self._decide(
                scores,
                n_chars_i.astype(np.float64),
                n_words_i.astype(np.float64),
                np.zeros(n),
            )
            impure = np.flatnonzero(np.diff(offs) != n_chars_i)
            if len(impure):
                sub_l, sub_c = self._scores_re2(text.take(pa.array(impure, pa.int64())))
                langs[impure] = sub_l
                conf[impure] = sub_c

        batch = batch.append_column("lang_pred", pa.array(langs, pa.string()))
        return batch.append_column("lang_conf", pa.array(conf))

    def _scores_re2(self, text) -> tuple[np.ndarray, np.ndarray]:
        """Reference batch path: RE2 alternation scans (the fast path
        is parity-tested against this; non-ASCII docs always use it)."""
        n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.float64)
        n_tokens = pc.count_substring_regex(text, r"\S+").to_numpy(zero_copy_only=False).astype(np.float64)
        cjk = pc.count_substring_regex(text, _CJK_PATTERN).to_numpy(zero_copy_only=False).astype(np.float64)
        lower = pc.utf8_lower(text)
        scores = np.stack(
            [
                pc.count_substring_regex(lower, self.patterns[lang])
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
                for lang in _LANG_ORDER
            ]
        )  # (n_langs, n)
        return self._decide(scores, n_chars, n_tokens, cjk)

    def _decide(self, scores, n_chars, n_tokens, cjk):
        """Shared decision math — identical IEEE ops on both paths."""
        best_idx = scores.argmax(axis=0)  # first max wins (profile order)
        best = scores[best_idx, np.arange(scores.shape[1])]
        safe_chars = np.maximum(n_chars, 1.0)
        safe_tokens = np.maximum(n_tokens, 1.0)
        cjk_ratio = cjk / safe_chars
        is_zh = cjk_ratio > self.CJK_THRESHOLD
        is_und = (~is_zh) & ((best == 0) | (n_chars == 0) | (n_tokens == 0))

        langs = np.array(_LANG_ORDER, dtype=object)[best_idx]
        langs = np.where(is_zh, "zh", langs)
        langs = np.where(is_und, "und", langs)
        conf = np.minimum(1.0, best / safe_tokens)
        conf = np.where(is_zh, np.minimum(1.0, cjk_ratio), conf)
        conf = np.where(is_und, 0.0, conf)
        return langs, conf
