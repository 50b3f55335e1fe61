"""Join stages: broadcast hash join, as-of (point-in-time) join,
partitioned hash join, cross join.

Semantics reproduced:
- entity point-in-time join, backward as-of with optional TTL and
  (event_ts, created_ts) tie-breaking (dask.py:146-365 & :1093-1270;
  ray/nodes.py:104-211; broadcast variant ray_shared_utils.py:329-465,
  windowed co-partitioned variant :468-550);
- cross join for keyless/dummy-entity views via a constant ``__tmp``
  key (dask.py:1093-1120);
- entity mapping (join_key_map) = rename-before-join
  (SURVEY.md §2.6) — pass ``field_mapping`` at the source instead.

Scale design:
- **small right side → broadcast**: the right table is ``ray.put`` once
  and joined per batch with pyarrow's C++ hash join — no shuffle, the
  canonical dimension-table pattern. The reference uses a 100 MB
  threshold (ray/nodes.py:182-199); callers here choose explicitly.
- **both sides large → partitioned**: add ``bucket = hash(key) % B`` to
  both sides, union tagged, and join per bucket through the raw
  exchange (``stages/exchange.py``; B auto-sized from the input bytes).
  Partitioning assumption (documented per SURVEY.md): all rows of one
  bucket fit in a worker's heap. As-of joins co-partition on the `by`
  key itself (assumption: one key's rows fit).
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from feast_ray.stages.dedup import bucketed_group_reduce
from feast_ray.stages.exchange import two_sided_exchange

_JOIN_TYPE = {
    "inner": "inner",
    "left": "left outer",
    "right": "right outer",
    "full": "full outer",
}
# per-batch (broadcast) joins can only preserve inner/left semantics:
# an unmatched RIGHT row would be emitted once per batch
_BROADCASTABLE = ("inner", "left")
#: right-key rows up to which ``semi_join`` broadcasts the key set
SEMI_BROADCAST_MAX_KEYS = 5_000_000
#: salted buckets a ``hash_join`` hot key's left rows spread over
SALT_FACTOR = 8


def dataset_schema(ds: ray.data.Dataset) -> pa.Schema:
    """The Arrow schema of a Dataset, robust to pandas-backed blocks
    (which report numpy dtypes instead of a pa.Schema)."""
    s = ds.schema()
    if s is None:
        raise ValueError(
            "cannot infer the schema of an empty schema-less Dataset "
            "(e.g. ray.data.from_pandas of a 0-row frame) — give the "
            "input at least a typed empty block"
        )
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for name, typ in zip(s.names, s.types):
        if isinstance(typ, pa.DataType):
            fields.append(pa.field(name, typ))
        elif isinstance(typ, np.dtype):
            if typ == np.dtype("O"):
                fields.append(pa.field(name, pa.string()))
            else:
                fields.append(pa.field(name, pa.from_numpy_dtype(typ)))
        else:
            fields.append(pa.field(name, pa.string()))
    return pa.schema(fields)


def _to_arrow(obj) -> pa.Table:
    if isinstance(obj, pa.Table):
        return obj
    if isinstance(obj, pd.DataFrame):
        return pa.Table.from_pandas(obj, preserve_index=False).replace_schema_metadata(None)
    if isinstance(obj, ray.data.Dataset):
        # only for small sides — this materializes
        return pa.Table.from_pandas(
            obj.to_pandas(), preserve_index=False
        ).replace_schema_metadata(None)
    raise TypeError(type(obj))


def broadcast_join(
    left: ray.data.Dataset,
    right,
    on: list[str] | str,
    *,
    right_on: list[str] | str | None = None,
    how: str = "inner",
    right_suffix: str = "_r",
) -> ray.data.Dataset:
    """Join a Dataset against a SMALL in-memory right side (pa.Table /
    pandas / small Dataset). The right side is put in the object store
    once and read zero-copy by every task; the per-batch join is
    pyarrow's C++ hash join."""
    on = [on] if isinstance(on, str) else list(on)
    right_keys = [right_on] if isinstance(right_on, str) else list(right_on or on)
    if how not in _BROADCASTABLE:
        raise ValueError(
            f"broadcast_join supports {_BROADCASTABLE}, got {how!r}: a "
            "per-batch join would emit unmatched right rows once per "
            "batch — use hash_join for right/full outer")
    rt = _to_arrow(right)
    if right_keys != on:
        rename = dict(zip(right_keys, on))
        rt = rt.rename_columns([rename.get(c, c) for c in rt.column_names])
    ref = ray.put(rt)
    join_type = _JOIN_TYPE[how]

    def _join(tbl: pa.Table) -> pa.Table:
        r = ray.get(ref)
        # harmonize key dtypes (e.g. int32 vs int64) and dodge
        # non-key name collisions
        for k in on:
            lt = tbl.schema.field(k).type
            if not r.schema.field(k).type.equals(lt):
                r = r.set_column(r.schema.get_field_index(k), k, r[k].cast(lt))
        overlap = (set(tbl.column_names) & set(r.column_names)) - set(on)
        if overlap:
            r = r.rename_columns(
                [c + right_suffix if c in overlap else c for c in r.column_names]
            )
        return tbl.join(r, keys=on, join_type=join_type)

    return left.map_batches(_join, batch_format="pyarrow")


def cross_join(
    left: ray.data.Dataset, right, *, right_suffix: str = "_r"
) -> ray.data.Dataset:
    """Cartesian product with a small right side (keyless-view pattern,
    dask.py:1093-1120). Pure Arrow: repeat/tile take indices — no
    pandas round-trip, so downstream blocks stay zero-copy Arrow."""
    rt = _to_arrow(right)
    ref = ray.put(rt)

    def _cross(tbl: pa.Table) -> pa.Table:
        r = ray.get(ref)
        n, m = len(tbl), len(r)
        lt = tbl.take(pa.array(np.repeat(np.arange(n, dtype=np.int64), m)))
        rr = r.take(pa.array(np.tile(np.arange(m, dtype=np.int64), n)))
        cols = {c: lt[c] for c in lt.column_names}
        for c in rr.column_names:
            name = c
            while name in cols:  # never silently overwrite a left column
                name = name + right_suffix
            cols[name] = rr[c]
        return pa.table(cols)

    return left.map_batches(_cross, batch_format="pyarrow")


def _norm_ts(df: pd.DataFrame, col: str) -> pd.DataFrame:
    """Normalize a timestamp column to ns (the reference normalizes all
    timestamps before PIT logic for exactly this reason —
    dask.py:1123-1164 `_normalize_timestamp`; merge_asof refuses
    mixed-unit keys)."""
    if str(df[col].dtype).startswith("datetime64") and str(df[col].dtype) != "datetime64[ns]":
        df = df.copy()
        df[col] = df[col].astype("datetime64[ns]")
    return df


def _prep_asof_right(
    rdf: pd.DataFrame, right_ts: str, created_ts: str | None,
    keep_created_as: str | None = None,
) -> pd.DataFrame:
    rdf = _norm_ts(rdf, right_ts)
    order = [right_ts] + ([created_ts] if created_ts else [])
    rdf = rdf.sort_values(order, kind="stable", na_position="first")
    if created_ts:
        if keep_created_as:
            rdf = _norm_ts(rdf, created_ts).rename(columns={created_ts: keep_created_as})
        else:
            rdf = rdf.drop(columns=[created_ts])
    return rdf.reset_index(drop=True)


def _asof_on(left_ts: str, right_ts: str) -> dict:
    """``pd.merge_asof``'s time-column arguments: ``on=`` alone when
    both sides name it alike (pandas rejects ``on=`` with
    ``left_on=``)."""
    if left_ts == right_ts:
        return {"on": left_ts}
    return {"left_on": left_ts, "right_on": right_ts}


def asof_join(
    left: ray.data.Dataset,
    right,
    *,
    left_ts: str,
    right_ts: str,
    by: list[str] | str,
    ttl: timedelta | None = None,
    created_ts: str | None = None,
    right_suffix: str = "_r",
    created_cutoff: bool = False,
    direction: str = "backward",
) -> ray.data.Dataset:
    """Broadcast backward as-of join: for each left row, the newest
    right row with ``right_ts <= left_ts`` (and ``>= left_ts - ttl``
    when ttl is set), per `by` key; ties on right_ts broken by
    created_ts (PIT semantics, dask.py:1167-1270).

    ``direction``: ``"backward"`` (PIT default), ``"forward"`` (first
    right row at/after), or ``"nearest"`` (smallest absolute time
    difference; equidistant candidates resolve BACKWARD — the earlier
    right row). For deterministic nearest ties the right side must be
    unique per (by, right_ts) — dedupe upstream; with duplicate
    timestamps pandas' backward/forward candidate selection makes the
    tie winner order-dependent.

    ``created_cutoff``: blank (not drop) the joined feature values
    whose ``created_ts`` is AFTER the entity timestamp — a backfilled
    row written later than the entity event must not leak into
    training (dask.py:1203-1226 `_apply_created_timestamp_cutoff`).

    The right side must be small (broadcast). For two large sides use
    :func:`copartitioned_asof_join`.
    """
    by = [by] if isinstance(by, str) else list(by)
    if direction != "backward" and (created_ts or created_cutoff):
        raise ValueError(
            "created_ts tie-break/cutoff is PIT (backward) semantics; "
            f"not meaningful with direction={direction!r}")
    rdf = _to_arrow(right).to_pandas()
    cutoff_col = "__created_cut" if (created_cutoff and created_ts) else None
    rdf = _prep_asof_right(rdf, right_ts, created_ts, keep_created_as=cutoff_col)
    ref = ray.put(rdf)
    same_ts_name = left_ts == right_ts

    def _asof(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        r: pd.DataFrame = ray.get(ref)
        overlap = (set(df.columns) & set(r.columns)) - set(by)
        if same_ts_name:
            overlap -= {right_ts}
        if overlap:
            r = r.rename(columns={c: c + right_suffix for c in overlap})
        df = _norm_ts(df, left_ts)
        df = df.sort_values(left_ts, kind="stable").reset_index(drop=True)
        out = pd.merge_asof(
            df,
            r,
            **_asof_on(left_ts, right_ts),
            by=by,
            direction=direction,
            tolerance=ttl,
            allow_exact_matches=True,
            suffixes=("", right_suffix),
        )
        if cutoff_col is not None and cutoff_col in out.columns:
            late = out[cutoff_col] > out[left_ts]
            feature_cols = [
                c for c in r.columns
                if c not in by and c != right_ts and c != cutoff_col
            ]
            for c in feature_cols:
                col = c if c in out.columns else c + right_suffix
                if col in out.columns:
                    out.loc[late, col] = None
            out = out.drop(columns=[cutoff_col])
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return left.map_batches(_asof, batch_format="pyarrow")


def copartitioned_asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_ts: str,
    right_ts: str,
    by: list[str] | str,
    ttl: timedelta | None = None,
    created_ts: str | None = None,
    right_suffix: str = "_r",
) -> ray.data.Dataset:
    """Distributed as-of join for two large sides: tag rows with their
    side, align columns, union, shuffle by the `by` key(s) through
    ``bucketed_group_reduce``, and run one merge_asof per bucket
    (ray_shared_utils.py:468-550 recast). Output order is unspecified.

    Partitioning assumption: all rows of one `by` key fit in one
    worker's heap (bucket by (key, time-window) if that breaks).

    Each side's columns are tracked by EXPLICIT lists captured from the
    input schemas (never inferred from null-ness — an all-null column
    within one key group is legitimate data), and every group's output
    is cast to one explicit Arrow schema so no per-group type drift
    (int→float NaN promotion, missing columns) leaks into the result.
    """
    by = [by] if isinstance(by, str) else list(by)
    side = "__side"
    same = left_ts == right_ts

    lschema = dataset_schema(left)
    rschema = dataset_schema(right)
    lnames = list(lschema.names)
    rnames = list(rschema.names)
    # right columns surviving into the output: drop created_ts, rename
    # overlaps (same policy as the broadcast asof_join)
    overlap = (set(lnames) & set(rnames)) - set(by)
    if same:
        overlap -= {right_ts}
    out_fields = [lschema.field(n) for n in lnames]
    for n in rnames:
        if n in by or n == created_ts or (same and n == right_ts):
            continue
        name = n + right_suffix if n in overlap else n
        out_fields.append(pa.field(name, rschema.field(n).type))
    out_schema = pa.schema(out_fields)

    def _tag(val):
        def _t(tbl: pa.Table) -> pa.Table:
            return tbl.append_column(side, pa.array([val] * len(tbl), pa.string()))

        return _t

    lt = left.map_batches(_tag("L"), batch_format="pyarrow")
    rt = right.map_batches(_tag("R"), batch_format="pyarrow")
    from feast_ray.stages.relational import union_align

    both = union_align([lt, rt])

    def _per_key(g: pd.DataFrame) -> pa.Table:
        lmask = g[side] == "L"
        ldf = g.loc[lmask, lnames]
        rdf = g.loc[~lmask, rnames]
        if len(ldf) == 0:
            return out_schema.empty_table()
        ldf = _norm_ts(ldf, left_ts)
        ldf = ldf.sort_values(left_ts, kind="stable").reset_index(drop=True)
        if len(rdf) == 0:
            out = ldf
        else:
            rdf = _prep_asof_right(rdf, right_ts, created_ts)
            if overlap:
                rdf = rdf.rename(columns={c: c + right_suffix for c in overlap})
            out = pd.merge_asof(
                ldf,
                rdf,
                **_asof_on(left_ts, right_ts),
                by=by,
                direction="backward",
                tolerance=ttl,
                allow_exact_matches=True,
                suffixes=("", right_suffix),
            )
        return cast_to_schema(
            pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None), out_schema
        )

    # one reduce call holds several `by` keys; merge_asof's `by=`
    # keeps them apart
    return bucketed_group_reduce(both, by, _per_key)


def semi_join(
    left: ray.data.Dataset,
    right_keys,
    on: list[str] | str,
    *,
    anti: bool = False,
) -> ray.data.Dataset:
    """Semi / anti join: keep left rows whose key IS (resp. is NOT) in
    the right key set. Small key sets are broadcast once (``ray.put``)
    and each batch filters with pyarrow ``is_in`` — no shuffle.
    ``right_keys``: table/frame/Dataset of key columns, or a list of
    values for a single key.

    Size gate: a right-keys DATASET larger than ``SEMI_BROADCAST_MAX_KEYS``
    rows is NOT pulled to the driver — the semi/anti join runs as a
    distributed marker left-join (`hash_join` + null-mark filter), so
    arbitrarily large key sets (e.g. a planet-scale dedup drop list)
    stay off the driver."""
    on = [on] if isinstance(on, str) else list(on)
    if isinstance(right_keys, ray.data.Dataset):
        mat = right_keys.materialize()
        if mat.count() > SEMI_BROADCAST_MAX_KEYS:
            import pyarrow.compute as pc

            from feast_ray.stages.relational import distinct

            keys_ds = distinct(mat.select_columns(on), on)
            marked = keys_ds.map_batches(
                lambda t: t.append_column(
                    "__sj", pa.array(np.ones(len(t), dtype=np.int8))
                ),
                batch_format="pyarrow",
            )
            joined = hash_join(left, marked, on=on, how="left")

            def _filt(t: pa.Table) -> pa.Table:
                m = pc.is_null(t["__sj"]) if anti else pc.invert(pc.is_null(t["__sj"]))
                return t.filter(m).drop_columns(["__sj"])

            return joined.map_batches(_filt, batch_format="pyarrow")
        right_keys = mat
    if isinstance(right_keys, (list, set, np.ndarray)):
        rt = pa.table({on[0]: pa.array(sorted(right_keys))})
    else:
        rt = _to_arrow(right_keys).select(on)
    if len(on) > 1:
        # composite keys: compare as concatenated strings (stable)
        import pyarrow.compute as pc

        def _keycol(t: pa.Table):
            cols = [pc.cast(t[c], pa.string()) for c in on]
            out = cols[0]
            for c in cols[1:]:
                out = pc.binary_join_element_wise(out, c, "\x1f")
            return out

        keyset = _keycol(rt).unique()
    else:
        keyset = rt[on[0]].combine_chunks().unique()
    if len(keyset) == 0:
        # empty key set: semi → nothing, anti → everything
        if anti:
            return left
        return left.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    ref = ray.put(keyset)

    def _filter(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ks = ray.get(ref)
        if len(on) > 1:
            cols = [pc.cast(tbl[c], pa.string()) for c in on]
            key = cols[0]
            for c in cols[1:]:
                key = pc.binary_join_element_wise(key, c, "\x1f")
        else:
            key = tbl[on[0]]
            if not key.type.equals(ks.type):
                key = pc.cast(key, ks.type)
        mask = pc.is_in(key, value_set=ks)
        if anti:
            mask = pc.invert(mask)
        return tbl.filter(mask)

    return left.map_batches(_filter, batch_format="pyarrow")


def cast_to_schema(tbl: pa.Table, schema: pa.Schema) -> pa.Table:
    """Cast ``tbl`` to exactly ``schema`` (order, names, types). Missing
    columns become nulls; pandas NaN-promoted floats cast back to their
    integer/timestamp types with NaN→null. This is the per-group output
    normalizer that keeps distributed joins free of schema drift."""
    import pyarrow.compute as pc

    n = len(tbl)
    cols = []
    for f in schema:
        if f.name in tbl.column_names:
            arr = tbl[f.name]
            if not arr.type.equals(f.type):
                if pa.types.is_floating(arr.type) and not pa.types.is_floating(f.type):
                    arr = pc.if_else(
                        pc.is_nan(arr), pa.scalar(None, arr.type), arr
                    )
                arr = pc.cast(arr, f.type)
        else:
            arr = pa.nulls(n, f.type)
        cols.append(arr)
    return pa.Table.from_arrays(cols, schema=schema)


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str] | str,
    *,
    how: str = "inner",
    right_suffix: str = "_r",
    hot_keys=None,
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
) -> ray.data.Dataset:
    """Partitioned hash join for two LARGE sides: co-partition both on
    ``hash(key) % num_buckets`` through the raw bucketed exchange
    (stages/exchange.py — partition-only, no sort) and join
    bucket-wise. Partitioning assumption: one bucket (both sides) fits
    in a worker's heap. A zero-block tagged union yields a typed empty
    Dataset.

    ``how``: inner / left / right / full (outer). Outer semantics are
    exact under co-partitioning — a key's rows from BOTH sides land in
    the same bucket, so unmatched rows are emitted exactly once, with
    coalesced key columns (pyarrow's C++ join default). right/full are
    incompatible with ``hot_keys`` salting (replication would
    duplicate unmatched right rows) and have no broadcast equivalent.

    Each row is tagged with the shared key hash (``dedup._hash_keys``)
    of its key columns AFTER they are cast to the key types both sides
    unify to, so an int32 key meets an int64 key, and an int64 key a
    float64 one, in the same bucket. The exchange takes the raw hash
    mod a bucket count it AUTO-SIZES from the materialized tagged
    union's bytes (``auto_num_buckets``) — so a pipeline written at
    sf0.1 partitions correctly at 100× without edits. With
    ``hot_keys`` the count is derived from the two inputs' bytes
    BEFORE tagging instead (salting needs the bucket count at tag time
    to keep salted offsets distinct).

    ``left_schema`` / ``right_schema``: pass the known Arrow schemas to
    skip the limit-1 probe executions ``dataset_schema`` otherwise runs
    against each side's lineage (a real task on a deep pipeline);
    blocks are cast to the stated schema per bucket either way.

    **Skew**: pass ``hot_keys`` (an iterable of key VALUES of the
    first/only join key) to SALT them — hot LEFT rows spread
    round-robin over ``SALT_FACTOR`` salted buckets (at most the
    bucket count) and the matching RIGHT rows are replicated into
    every salted bucket, so one hot key costs ``1/SALT_FACTOR`` of its
    rows per bucket instead of sinking one reducer. (The classic
    skew-join recipe; replication cost = SALT_FACTOR × the hot right
    rows only.)

    The per-bucket join is pyarrow's C++ hash join over explicit
    side-column lists captured from the input schemas (all-Arrow, no
    pandas round-trip, no null-sniffing side split), so every bucket
    emits blocks with the identical schema as the broadcast path."""
    on = [on] if isinstance(on, str) else list(on)
    bucket, side = "__bucket", "__side"
    import pyarrow.compute as pc

    from feast_ray.stages.dedup import _hash_keys
    from feast_ray.stages.exchange import auto_num_buckets

    if how not in _JOIN_TYPE:
        raise ValueError(f"hash_join: unknown join type {how!r}")
    if hot_keys is not None and how in ("right", "full"):
        # salting replicates hot RIGHT rows into every salted bucket;
        # an unmatched replica would surface SALT_FACTOR times under
        # right/full outer semantics
        raise ValueError(
            "hash_join: hot_keys salting is only valid for inner/left "
            "joins (right-row replication breaks outer semantics)")
    # None: the exchange sizes the count from the tagged union
    num_buckets = None
    if hot_keys is not None:
        # salting must know the bucket count at tag time (salted
        # offsets have to stay distinct mod num_buckets, or a hot
        # right row replicated into two colliding salted buckets would
        # match a hot left row twice) — size from the inputs instead
        left = left.materialize()
        right = right.materialize()
        num_buckets = auto_num_buckets(
            (left.size_bytes() or 0) + (right.size_bytes() or 0)
        )
        # salt offsets must stay distinct mod num_buckets (odd
        # multiplier × power-of-two bucket count guarantees it only up
        # to num_buckets)
        salt_factor = min(SALT_FACTOR, num_buckets)

    lschema = left_schema if left_schema is not None else dataset_schema(left)
    rschema = right_schema if right_schema is not None else dataset_schema(right)
    lnames = list(lschema.names)
    rnames = list(rschema.names)
    # unify join-key types across sides (int32 left vs int64 right must
    # both cast to the promoted type — the C++ join refuses mismatched
    # key types; the tagger hashes the keys in the unified type)
    for k in on:
        lt, rt_ = lschema.field(k).type, rschema.field(k).type
        if not lt.equals(rt_):
            try:
                ut = pa.unify_schemas(
                    [pa.schema([pa.field(k, lt)]), pa.schema([pa.field(k, rt_)])],
                    promote_options="permissive",
                ).field(k).type
            except (pa.ArrowInvalid, pa.ArrowTypeError, TypeError):
                ut = lt
            lschema = lschema.set(lschema.get_field_index(k), pa.field(k, ut))
            rschema = rschema.set(rschema.get_field_index(k), pa.field(k, ut))
    overlap = (set(lnames) & set(rnames)) - set(on)
    r_renamed = [c + right_suffix if c in overlap else c for c in rnames]
    rschema = pa.schema(
        [pa.field(n, rschema.field(o).type) for n, o in zip(r_renamed, rnames)]
    )
    out_cols = lnames + [r for r, orig in zip(r_renamed, rnames) if orig not in on]
    hot = pa.array(sorted(hot_keys)) if hot_keys is not None else None

    key_schema = pa.schema([lschema.field(k) for k in on])

    def _tagged(tbl: pa.Table, h: np.ndarray, val: str) -> pa.Table:
        tbl = tbl.append_column(bucket, pa.array(h.view(np.int64)))
        return tbl.append_column(side, pa.array([val] * len(tbl), pa.string()))

    def _tag(val):
        def _t(tbl: pa.Table) -> pa.Table:
            h = _hash_keys(cast_to_schema(tbl, key_schema), on)
            if hot is not None:
                key = tbl[on[0]]
                if not key.type.equals(hot.type):
                    key = pc.cast(key, hot.type)
                is_hot = pc.is_in(key, value_set=hot).to_numpy(
                    zero_copy_only=False
                )
                if val == "L":
                    with np.errstate(over="ignore"):
                        salt = np.arange(len(tbl), dtype=np.uint64) % np.uint64(salt_factor)
                        h = np.where(
                            is_hot, h + (salt + np.uint64(1)) * np.uint64(2654435761), h
                        )
                else:
                    # replicate hot right rows into every salted bucket;
                    # the UNSALTED copy is dropped (hot left rows are
                    # always salted, and a salted bucket can coincide
                    # with the unsalted one — keeping both would match
                    # a hot left row twice)
                    hot_idx = np.flatnonzero(is_hot)
                    if len(hot_idx):
                        reps = [_tagged(tbl.filter(pa.array(~is_hot)), h[~is_hot], val)]
                        hot_tbl = tbl.take(pa.array(hot_idx))
                        hot_h = h[hot_idx]
                        with np.errstate(over="ignore"):
                            for s in range(salt_factor):
                                hs = hot_h + np.uint64(s + 1) * np.uint64(2654435761)
                                reps.append(_tagged(hot_tbl, hs, val))
                        return pa.concat_tables(reps)
            return _tagged(tbl, h, val)

        return _t

    lt = left.map_batches(_tag("L"), batch_format="pyarrow")
    rt = right.map_batches(_tag("R"), batch_format="pyarrow")
    from feast_ray.stages.relational import union_align

    rschema_orig = pa.schema(
        [pa.field(o, rschema.field(n).type) for n, o in zip(r_renamed, rnames)]
    )
    # when both side schemas are stated, the tagged schemas are fully
    # known too — skip union_align's ds.schema() probes (each is a
    # limit-1 execution of the side's whole lineage)
    tagged = None
    if left_schema is not None and right_schema is not None:
        extra = [pa.field(bucket, pa.int64()), pa.field(side, pa.string())]
        tagged = [
            pa.schema(list(lschema) + extra),
            pa.schema(list(rschema_orig) + extra),
        ]
    both = union_align([lt, rt], schemas=tagged)

    def _join_bucket(_b: int, lparts: list, rparts: list) -> pa.Table:
        # cast each part to its captured side schema — a pandas-origin
        # block can surface an all-null column as Arrow `null` type,
        # which the C++ join refuses as a payload field
        lparts = [cast_to_schema(p, lschema) for p in lparts if len(p)]
        rparts = [cast_to_schema(p, rschema_orig) for p in rparts if len(p)]
        ltab = pa.concat_tables(lparts) if lparts else lschema.empty_table()
        rtab = pa.concat_tables(rparts) if rparts else rschema_orig.empty_table()
        if r_renamed != rnames:
            rtab = rtab.rename_columns(r_renamed)
        out = ltab.join(rtab, keys=on, join_type=_JOIN_TYPE[how])
        return out.select(out_cols)

    return two_sided_exchange(
        both, bucket, side, "R", num_buckets, _join_bucket,
        fallback=lambda: ray.data.from_arrow(_join_bucket(0, [], [])),
    )


def interval_join(
    left: ray.data.Dataset,
    right,
    *,
    left_point: str,
    right_start: str,
    right_end: str,
    by: list[str] | str | None = None,
    how: str = "inner",
    right_suffix: str = "_r",
) -> ray.data.Dataset:
    """Range (interval) join: each left row matches right rows with
    ``right_start <= left_point < right_end`` (optionally equi-matched
    on ``by`` first). The reference expresses ranges only through the
    PIT/TTL window (SURVEY §2.2) — this generalizes to arbitrary
    intervals (session windows, validity ranges, campaign periods).

    Execution: the right side is broadcast (``ray.put`` once) sorted by
    ``right_start``. Per batch, FULLY vectorized: the candidate window
    per left row is ``[searchsorted(starts, point - L),
    searchsorted(starts, point)]`` where ``L`` is the maximum interval
    length (computed at build — any matching interval must start within
    L of the point), expanded with repeat/arange index arithmetic and
    filtered on the end bound + key equality. No per-row Python; cost
    is O(candidates), which the L-window bounds. For two LARGE sides,
    pre-bucket both on ``by`` (or a coarse time bucket) and apply this
    per bucket (hash_join-style co-partitioning).
    """
    by = [by] if isinstance(by, str) else (list(by) if by else [])
    rt = _to_arrow(right)
    rdf = rt.to_pandas().sort_values(right_start, kind="stable").reset_index(drop=True)
    if len(rdf):
        max_len = (rdf[right_end] - rdf[right_start]).max()
    else:
        max_len = None
    ref = ray.put(rdf)
    # explicit output schema: left fields + right non-by fields (suffix
    # where names overlap) — every batch casts to it, so a batch whose
    # unmatched left rows NaN-promoted an int/timestamp right column
    # cannot emit a different schema than an all-matched batch
    lschema = dataset_schema(left)
    overlap_names = (set(lschema.names) & set(rt.schema.names)) - set(by)
    out_fields = [lschema.field(n) for n in lschema.names]
    for f in rt.schema:
        if f.name in by:
            continue
        name = f.name + right_suffix if f.name in overlap_names else f.name
        out_fields.append(pa.field(name, f.type))
    out_schema = pa.schema(out_fields)

    def _join(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            return tbl
        r: pd.DataFrame = ray.get(ref)
        df = tbl.to_pandas()
        overlap = (set(df.columns) & set(r.columns)) - set(by)
        rr = r.rename(columns={c: c + right_suffix for c in overlap}) if overlap else r
        rs = right_start + right_suffix if right_start in overlap else right_start
        re_ = right_end + right_suffix if right_end in overlap else right_end
        n = len(df)
        if len(rr) == 0:
            li_all = np.array([], dtype=np.int64)
            ri_all = np.array([], dtype=np.int64)
            matched = np.zeros(n, dtype=bool)
        else:
            starts = rr[rs].to_numpy()
            rend = rr[re_].to_numpy()
            pts = df[left_point].to_numpy()
            hi = np.searchsorted(starts, pts, side="right")
            lo = np.searchsorted(starts, pts - max_len, side="left")
            counts = hi - lo
            total = int(counts.sum())
            li_all = np.repeat(np.arange(n), counts)
            ri_all = (
                np.arange(total)
                - np.repeat(np.cumsum(counts) - counts, counts)
                + np.repeat(lo, counts)
            )
            keep = rend[ri_all] > pts[li_all]
            if by:
                for k in by:
                    keep &= rr[k].to_numpy()[ri_all] == df[k].to_numpy()[li_all]
            li_all = li_all[keep]
            ri_all = ri_all[keep]
            matched = np.zeros(n, dtype=bool)
            matched[li_all] = True
        if how == "left" and not matched.all():
            un = np.flatnonzero(~matched)
            li_all = np.concatenate([li_all, un])
            ri_all = np.concatenate([ri_all, np.full(len(un), -1)])
            order = np.argsort(li_all, kind="stable")
            li_all, ri_all = li_all[order], ri_all[order]
        lpart = df.iloc[li_all].reset_index(drop=True)
        rpart = rr.reindex(
            pd.Index(np.where(ri_all >= 0, ri_all, len(rr)))
        ).reset_index(drop=True)
        rcols = [c for c in rr.columns if c not in by]
        for c in rcols:
            lpart[c] = rpart[c].to_numpy()
        return cast_to_schema(
            pa.Table.from_pandas(lpart, preserve_index=False).replace_schema_metadata(None), out_schema
        )

    return left.map_batches(_join, batch_format="pyarrow")
