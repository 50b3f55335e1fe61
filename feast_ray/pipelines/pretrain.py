"""End-to-end pretraining-corpus construction — the composed pipeline
a training team actually runs, wiring this engine's operators in their
production order:

    raw pages
      → quality filter        (extract, url-dedup, score, scrub — q28)
      → domain blocklist      (urltools.block_domains — q66)
      → duplicate-span removal (spandup — q63)
      → benchmark decontamination (decontam — q48)
      → target language mix   (rebalance_mix — q64)
      → deterministic shard shuffle (shard_shuffle — q65)
      → context-window packing (pack_sequences — q56)
      → partitioned, resumable parquet (one dir per shard)

Every stage is individually oracle-checked by the driver gate (query
ids above); this module is the COMPOSITION: one lazy Dataset chain —
the only execution barriers are the ones the component operators
declare (span-dedup pass A, rebalance count pass, the shard exchange),
each documented in its own module. Everything between barriers
streams with backpressure; html is dropped at extraction, so the wide
steps only ever carry scrubbed text and thin metadata.

No reference analog: feast has no corpus-construction surface; this
is the SURVEY.md §2 extension tier composed end-to-end.
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import ray.data


def _marker_valid(ckpt_dir: str, fp: dict) -> bool:
    """A checkpoint is reusable only when its ``.done`` marker exists,
    the data dir exists, AND the marker's fingerprint matches this
    run's inputs — a marker beside a deleted dir, or one written for
    different pages/blocklist, forces a rebuild instead of silently
    reusing a stale filtered corpus (ADVICE r3). Legacy "ok" markers
    (pre-fingerprint) never match and rebuild once. ``fp["input"]`` of
    None (caller passed ``pages=None``, the explicit same-input resume
    contract) skips the input term but still checks the blocklist."""
    marker = ckpt_dir + ".done"
    if not (os.path.exists(marker) and os.path.isdir(ckpt_dir)):
        return False
    try:
        with open(marker) as f:
            got = json.loads(f.read())
    except (ValueError, OSError):
        return False  # legacy / corrupt marker → rebuild
    if got.get("v") != 1 or got.get("blocked") != fp["blocked"]:
        return False
    return fp["input"] is None or got.get("input") == fp["input"]


def pretraining_corpus(
    pages: ray.data.Dataset,
    *,
    blocked_domains: "list[str] | None" = None,
    benchmark_texts: "list[str] | None" = None,
    lang_weights: "dict[str, int] | None" = None,
    span_n: int = 8,
    num_shards: int = 64,
    context_tokens: int = 2048,
    epoch_salt: str = "ep0",
    write_dir: "str | None" = None,
    checkpoint: "bool | str" = True,
    ckpt_token: "str | None" = None,
) -> ray.data.Dataset:
    """Run the full corpus build over a pages Dataset (schema:
    url, warc_ts, html, text, lang). Returns rows of
    (url, lang_pred, n_tokens_final, text_final, shard, pos, bin_id,
    bin_offset) — ``n_tokens_final`` is recounted from the FINAL text
    so bin offsets match what a consumer concatenates; with
    ``write_dir`` set, also writes shard-partitioned
    parquet (``shard=K/`` dirs — resumable, never one giant file) and
    returns the same dataset.

    ``lang_weights``: target mix over predicted languages (e.g.
    ``{"en": 8, "de": 1, "fr": 1}``); None skips rebalancing.
    ``benchmark_texts``: eval corpus for n-gram decontamination; None
    skips. ``blocked_domains``: URL hygiene list; None skips.

    ``checkpoint`` (default True): checkpoint the POST-FILTER corpus
    (thin rows — html is gone) before the multi-pass stages. Span
    dedup's gram-count pass and rebalance's count pass each re-execute
    their upstream; without a checkpoint the extract+score prefix
    would run up to 3×. Three modes:

    * ``True`` — object-store ``materialize()``; spills under
      pressure but PINS the corpus for the run's lifetime.
    * a ``str`` path — SPILL-TO-PARQUET (the 100 TB shape): write the
      filtered corpus once to that directory, hand the multi-pass
      stages a parquet READER, and drop the object-store pin. Also
      makes the chain RESUMABLE mid-pipeline: a rerun pointing at the
      same path skips the whole extract→filter→scrub prefix when the
      ``<path>.done`` marker exists AND its input/param fingerprint
      (page identity + blocked_domains) matches this run — different
      inputs rebuild instead of reusing a stale corpus; a crashed
      partial write has no marker and is cleaned + rewritten.
      ``ckpt_token``: caller-supplied input-identity string (e.g.
      "crawl-2024-w31") used in the fingerprint instead of
      ``pages.count()`` — pass it when counting the input is not
      metadata-cheap.
    * ``False`` — no checkpoint; trade recompute for zero footprint."""
    from feast_ray.functions.decontam import decontaminate
    from feast_ray.functions.packing import pack_sequences
    from feast_ray.functions.sampling import rebalance_mix, shard_shuffle
    from feast_ray.functions.spandup import remove_duplicate_spans
    from feast_ray.functions.urltools import block_domains
    from feast_ray.pipelines.quality_filter import quality_filter

    ckpt_dir = checkpoint if isinstance(checkpoint, str) else None
    fp = None
    if ckpt_dir is not None:
        # the checkpoint holds the PREFIX's output, so its identity is
        # the prefix's inputs only: the pages table + blocked_domains
        # (span_n / lang_weights / salt apply downstream of the
        # checkpoint and may change freely across a resume). Callers
        # who know their input's identity pass ckpt_token (e.g.
        # "synth-3000000-seed7") to skip the count pass; pages=None is
        # the explicit same-input resume contract.
        if ckpt_token is not None:
            ident = ckpt_token
        elif pages is not None:
            # count alone is a weak identity (two crawls with a fixed
            # page quota collide — code-review r4): add a content
            # probe over the first rows. limit() early-stops, so the
            # probe reads one block, not the corpus. Callers with a
            # nondeterministic source order pass ckpt_token instead.
            import hashlib

            head = pages.limit(8).to_pandas()
            probe = (
                hashlib.blake2b(
                    head.to_json().encode(), digest_size=8
                ).hexdigest()
                if len(head)
                else "empty"
            )
            ident = f"n={pages.count()};head={probe}"
        else:
            ident = None
        fp = {"v": 1, "input": ident, "blocked": sorted(blocked_domains or [])}
    if ckpt_dir is not None and _marker_valid(ckpt_dir, fp):
        # resume: the filtered corpus is already on disk — the whole
        # extract→filter→scrub prefix is skipped (``pages`` untouched)
        ds = ray.data.read_parquet(ckpt_dir)
    else:
        if pages is None:
            raise ValueError(
                f"pages=None requires a valid checkpoint at {ckpt_dir!r} "
                "(marker missing/stale or data dir gone) — rerun with the "
                "pages Dataset to rebuild it"
            )
        ds = quality_filter(pages, keep_only=True)
        if blocked_domains:
            ds = block_domains(ds, blocked_domains, "url")

        # span dedup wants an integer doc id for its keep-first
        # survivor rule: derive one from the url digest (deterministic,
        # collision odds ~n²/2^64)
        def _iid(tbl: pa.Table) -> pa.Table:
            import numpy as np

            from feast_ray.functions.neardup import word_hashes64

            h = word_hashes64(tbl["url"]).view(np.int64)
            return tbl.append_column("doc_iid", pa.array(h, pa.int64()))

        ds = ds.map_batches(_iid, batch_format="pyarrow")
        if ckpt_dir is not None:
            # stale marker (fingerprint mismatch / missing dir) or
            # partial write from a crashed run: clean BOTH and rebuild
            if os.path.exists(ckpt_dir + ".done"):
                os.remove(ckpt_dir + ".done")
            if os.path.isdir(ckpt_dir):
                shutil.rmtree(ckpt_dir)
            ds.write_parquet(ckpt_dir)
            with open(ckpt_dir + ".done", "w") as f:
                f.write(json.dumps(fp))
            ds = ray.data.read_parquet(ckpt_dir)
        elif checkpoint:
            ds = ds.materialize()
    ds = remove_duplicate_spans(
        ds, "doc_iid", "text_scrubbed", n=span_n, out_col="text_final"
    )
    if benchmark_texts:
        ds = decontaminate(
            ds,
            benchmark_texts,
            id_col="url",
            text_col="text_final",
            n=span_n,
            mode="drop",
        )
    if lang_weights:
        ds = rebalance_mix(ds, "lang_pred", lang_weights, "url")
    ds = shard_shuffle(ds, "url", num_shards, salt=epoch_salt)

    # packing must budget the FINAL text — span removal / scrubbing
    # changed the token count since the quality filter computed n_words
    def _recount(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cnt = pc.list_value_length(
            pc.split_pattern_regex(tbl["text_final"], r"\s+")
        )
        # split of '' yields [''] (length 1) — count empty docs as 0
        cnt = pc.if_else(
            pc.equal(pc.utf8_length(pc.utf8_trim_whitespace(tbl["text_final"])), 0),
            pa.scalar(0, pa.int32()),
            cnt,
        )
        return tbl.append_column("n_tokens_final", pc.cast(cnt, pa.int64()))

    ds = ds.map_batches(_recount, batch_format="pyarrow")
    ds = pack_sequences(
        ds, "shard", "pos", "n_tokens_final", context_tokens,
        num_buckets=num_shards,
    )

    keep_cols = [
        "url",
        "lang_pred",
        "n_tokens_final",
        "text_final",
        "shard",
        "pos",
        "bin_id",
        "bin_offset",
    ]
    ds = ds.map_batches(
        lambda t: t.select([c for c in keep_cols if c in t.column_names]),
        batch_format="pyarrow",
    )
    if write_dir:
        # write once, then hand back a READER over the written shards —
        # consuming the return value must not re-execute the chain
        # (the written corpus is also the resumable artifact)
        ds.write_parquet(write_dir, partition_cols=["shard"])
        rd = ray.data.read_parquet(write_dir)

        def _shard_int(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            # hive partition values read back as dictionary<string>
            col = pc.cast(pc.cast(t["shard"], pa.string()), pa.int64())
            return t.set_column(
                t.schema.get_field_index("shard"), "shard", col
            )

        return rd.map_batches(_shard_int, batch_format="pyarrow")
    return ds
