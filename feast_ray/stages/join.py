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
  canonical dimension-table pattern. The reference picks the path by a
  100 MB threshold (ray/nodes.py:182-199); here the caller picks the
  operator (``broadcast_join`` / ``asof_join`` vs ``hash_join`` /
  ``copartitioned_asof_join``), and ``semi_join`` switches on its key
  count (``SEMI_BROADCAST_MAX_KEYS``).
- **both sides large → co-partitioned**: each side is materialized
  once, its schema read off the materialized blocks, and both sides go
  through the two-sided raw exchange (``stages/exchange.py``) with one
  bucket function each: the shared key hash (``dedup._hash_keys``) of
  the key columns cast to the type both sides unify to. Each reducer
  gets its bucket's left and right slices separately — no side column,
  no union — and B is sized from the two sides' bytes. Partitioning
  assumption (documented per SURVEY.md): all rows of one bucket fit in
  a worker's heap; for an as-of join that means one `by` key's rows.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from feast_ray.stages import exchange
from feast_ray.stages.dedup import _hash_keys

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
#: a salted bucket's offset from its key hash is this odd multiplier ×
#: the salt (1..salt factor), so offsets stay distinct mod B
_SALT_STEP = np.uint64(2654435761)
_SALT_COL = "__salt"
_SCHEMALESS = (
    "cannot infer the schema of an empty schema-less Dataset "
    "(e.g. ray.data.from_pandas of a 0-row frame) — give the "
    "input at least a typed empty block")


def arrow_schema(s) -> "pa.Schema | None":
    """A Ray Data schema (or an Arrow one) as an Arrow schema; None
    stays None. Pandas-backed blocks report numpy dtypes: each converts
    with ``pa.from_numpy_dtype``, and object, like any other non-Arrow
    type, reads as string."""
    if s is None:
        return None
    base = getattr(s, "base_schema", s)
    if isinstance(base, pa.Schema):
        return base
    return pa.schema([
        pa.field(n, t if isinstance(t, pa.DataType)
                 else pa.from_numpy_dtype(t)
                 if isinstance(t, np.dtype) and t != np.dtype("O")
                 else pa.string())
        for n, t in zip(s.names, s.types)
    ])


def dataset_schema(ds: ray.data.Dataset) -> pa.Schema:
    """The Arrow schema of a Dataset (``arrow_schema`` of
    ``ds.schema()``); raises on a schema-less one."""
    s = arrow_schema(ds.schema())
    if s is None:
        raise ValueError(_SCHEMALESS)
    return s


def _copartition_sides(left, right, keys, left_schema=None, right_schema=None):
    """The setup every co-partitioned join shares: each side
    materialized once, and its Arrow schema read off the materialized
    blocks, which runs nothing (a stated schema stands in for a side
    with zero blocks). Returns ``(left, right, lschema, rschema,
    key_schema)``: ``key_schema`` holds the types ``keys`` unify to
    across the sides — int32 meets int64, int meets float — or the
    left type where they do not unify."""
    sides, schemas = [], []
    for ds, stated in ((left, left_schema), (right, right_schema)):
        ds = ds.materialize()
        sch = arrow_schema(ds.schema(fetch_if_missing=False))
        sch = stated if sch is None else sch
        if sch is None:
            raise ValueError(_SCHEMALESS)
        sides.append(ds)
        schemas.append(sch)
    return (*sides, *schemas, _key_schema(*schemas, keys))


def _key_schema(lschema: pa.Schema, rschema: pa.Schema, keys) -> pa.Schema:
    fields = []
    for k in keys:
        t = lschema.field(k).type
        try:
            t = pa.unify_schemas(
                [pa.schema([pa.field(k, t)]), pa.schema([pa.field(k, rschema.field(k).type)])],
                promote_options="permissive").field(k).type
        except (pa.ArrowInvalid, pa.ArrowTypeError, TypeError):
            pass
        fields.append(pa.field(k, t))
    return pa.schema(fields)


def _keyed(schema: pa.Schema, key_schema: pa.Schema) -> pa.Schema:
    """``schema`` with its key fields retyped to ``key_schema``'s."""
    for f in key_schema:
        schema = schema.set(schema.get_field_index(f.name), f)
    return schema


def _key_hash(key_schema: pa.Schema):
    """A side's bucket function: the shared key hash of the key columns
    cast to the unified key types, so equal keys of both sides meet."""
    return lambda t: _hash_keys(cast_to_schema(t, key_schema), key_schema.names)


def _side_table(parts: list, schema: pa.Schema) -> pa.Table:
    """One side of a bucket as one table of exactly ``schema``: a
    pandas-origin block can surface an all-null column as Arrow `null`
    type, which the C++ join refuses as a payload field."""
    parts = [cast_to_schema(p, schema) for p in parts if len(p)]
    return pa.concat_tables(parts) if parts else schema.empty_table()


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


def _merge_asof(ldf: pd.DataFrame, rdf: pd.DataFrame, *, left_ts: str,
                right_ts: str, by: list[str], ttl, direction: str,
                right_suffix: str) -> pd.DataFrame:
    """The one ``merge_asof`` body of both as-of joins. ``rdf`` comes
    from ``_prep_asof_right``; its columns that collide with a left
    one (other than `by` and a shared ts name) take ``right_suffix``.
    A `by` column whose pandas dtype differs between the sides (an int
    key with nulls on one side only reads as float there) is brought to
    one dtype, which merge_asof requires."""
    overlap = (set(ldf.columns) & set(rdf.columns)) - set(by)
    if left_ts == right_ts:
        overlap -= {right_ts}
    if overlap:
        rdf = rdf.rename(columns={c: c + right_suffix for c in overlap})
    ldf = _norm_ts(ldf, left_ts)
    ldf = ldf.sort_values(left_ts, kind="stable").reset_index(drop=True)
    for k in by:
        if ldf[k].dtype != rdf[k].dtype:
            t = np.result_type(ldf[k].dtype, rdf[k].dtype)
            ldf, rdf = ldf.astype({k: t}), rdf.astype({k: t})
    return pd.merge_asof(
        ldf,
        rdf,
        **_asof_on(left_ts, right_ts),
        by=by,
        direction=direction,
        tolerance=ttl,
        allow_exact_matches=True,
        suffixes=("", right_suffix),
    )


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

    def _asof(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        out = _merge_asof(df, ray.get(ref), left_ts=left_ts, right_ts=right_ts,
                          by=by, ttl=ttl, direction=direction,
                          right_suffix=right_suffix)
        if cutoff_col is not None and cutoff_col in out.columns:
            late = out[cutoff_col] > out[left_ts]
            for c in out.columns:
                if c not in df.columns and c not in (right_ts, cutoff_col):
                    out.loc[late, c] = None
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
    """Distributed backward as-of join for two large sides
    (ray_shared_utils.py:468-550 recast, without its tagged union):
    each side is materialized once and co-partitioned on the `by`
    key(s) through the two-sided exchange, and each bucket runs one
    merge_asof (its ``by=`` keeps the bucket's keys apart). `by` keys
    of both sides hash and merge in the type they unify to (int32 meets
    int64, int meets float). Output order is unspecified.

    Partitioning assumption: all rows of one `by` key fit in one
    worker's heap (bucket by (key, time-window) if that breaks).

    The output schema is explicit: the left side's fields, then the
    right side's minus `by`, ``created_ts`` and a shared ts name, with
    overlaps suffixed as in ``asof_join``. Every bucket's output is
    cast to it, so no per-bucket type drift (int→float NaN promotion,
    missing columns) leaks into the result.
    """
    by = [by] if isinstance(by, str) else list(by)
    left, right, lschema, rschema, key_schema = _copartition_sides(left, right, by)
    same = left_ts == right_ts
    overlap = (set(lschema.names) & set(rschema.names)) - set(by)
    if same:
        overlap -= {right_ts}
    out_fields = list(lschema)
    for f in rschema:
        if f.name in by or f.name == created_ts or (same and f.name == right_ts):
            continue
        name = f.name + right_suffix if f.name in overlap else f.name
        out_fields.append(pa.field(name, f.type))
    out_schema = pa.schema(out_fields)
    lkeyed, rkeyed = _keyed(lschema, key_schema), _keyed(rschema, key_schema)

    def _join_bucket(_b: int, lparts: list, rparts: list) -> pa.Table:
        ldf = _side_table(lparts, lkeyed).to_pandas()
        if not len(ldf):
            return out_schema.empty_table()
        rdf = _prep_asof_right(_side_table(rparts, rkeyed).to_pandas(), right_ts, created_ts)
        out = _merge_asof(ldf, rdf, left_ts=left_ts, right_ts=right_ts, by=by,
                          ttl=ttl, direction="backward", right_suffix=right_suffix)
        return cast_to_schema(
            pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None), out_schema
        )

    bucket = _key_hash(key_schema)
    return exchange.two_sided_exchange(left, right, bucket, bucket, None, _join_bucket)


def semi_join(
    left: ray.data.Dataset,
    right_keys,
    on: list[str] | str,
    *,
    anti: bool = False,
) -> ray.data.Dataset:
    """Semi / anti join: keep left rows whose key IS (resp. is NOT) in
    the right key set. A null key matches nothing, so semi drops it and
    anti keeps it, on both tiers. Small key sets are broadcast once
    (``ray.put``) and each batch runs Arrow's left semi / anti join
    against them — no shuffle.
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
    if len(rt) == 0:
        # empty key set: semi → nothing, anti → everything
        if anti:
            return left
        return left.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    ref = ray.put(rt.group_by(on).aggregate([]))
    join_type = "left anti" if anti else "left semi"

    def _filter(tbl: pa.Table) -> pa.Table:
        # Arrow's semi/anti join compares composite keys column by
        # column and never matches a null key (SQL semantics, as the
        # distributed tier's hash_join); it runs on the key columns
        # plus a row number, so the batch keeps its row order
        ks = ray.get(ref)
        key_schema = _key_schema(tbl.schema, ks.schema, on)
        probe = cast_to_schema(tbl, key_schema).append_column(
            "__row", pa.array(np.arange(len(tbl), dtype=np.int64)))
        rows = probe.join(cast_to_schema(ks, key_schema), keys=on, join_type=join_type)
        return tbl.take(np.sort(rows["__row"].to_numpy()))

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
    """Partitioned hash join for two LARGE sides: each side is
    materialized once and co-partitioned through the two-sided raw
    exchange (stages/exchange.py — partition-only, no sort), and each
    bucket joins its left and right slices. Partitioning assumption:
    one bucket (both sides) fits in a worker's heap. Two zero-block
    sides yield a typed empty Dataset.

    ``how``: inner / left / right / full (outer). Outer semantics are
    exact under co-partitioning — a key's rows from BOTH sides land in
    the same bucket, so unmatched rows are emitted exactly once, with
    coalesced key columns (pyarrow's C++ join default). right/full are
    incompatible with ``hot_keys`` salting (replication would
    duplicate unmatched right rows) and have no broadcast equivalent.

    Each side's bucket function is the shared key hash
    (``dedup._hash_keys``) of its key columns cast to the key types
    both sides unify to, so an int32 key meets an int64 key, and an
    int64 key a float64 one, in the same bucket. The bucket count is
    AUTO-SIZED from the two materialized sides' bytes
    (``auto_num_buckets``) — so a pipeline written at sf0.1 partitions
    correctly at 100× without edits.

    Each side's schema is read off its materialized blocks, which runs
    nothing. ``left_schema`` / ``right_schema`` state the schema of a
    side that may have zero blocks (a materialized side with none has
    no schema); a side with blocks keeps its own.

    **Skew**: pass ``hot_keys`` (an iterable of key VALUES of the
    first/only join key) to SALT them — the left bucket function
    spreads hot LEFT rows round-robin over ``SALT_FACTOR`` salted
    buckets (at most the bucket count), and the matching RIGHT rows are
    replicated into every salted bucket (a ``__salt`` column the right
    bucket function reads) before that side is exchanged, so one hot
    key costs ``1/SALT_FACTOR`` of its rows per bucket instead of
    sinking one reducer. (The classic skew-join recipe; replication
    cost = SALT_FACTOR × the hot right rows only.)

    The per-bucket join is pyarrow's C++ hash join over each side's
    parts cast to its schema (all-Arrow, no pandas round-trip), so every
    bucket emits blocks with the identical schema as the broadcast
    path."""
    on = [on] if isinstance(on, str) else list(on)
    if how not in _JOIN_TYPE:
        raise ValueError(f"hash_join: unknown join type {how!r}")
    if hot_keys is not None and how in ("right", "full"):
        # salting replicates hot RIGHT rows into every salted bucket;
        # an unmatched replica would surface SALT_FACTOR times under
        # right/full outer semantics
        raise ValueError(
            "hash_join: hot_keys salting is only valid for inner/left "
            "joins (right-row replication breaks outer semantics)")
    left, right, lschema, rschema, key_schema = _copartition_sides(
        left, right, on, left_schema, right_schema)
    num_buckets = exchange.auto_num_buckets(
        (left.size_bytes() or 0) + (right.size_bytes() or 0))
    lschema, rschema = _keyed(lschema, key_schema), _keyed(rschema, key_schema)
    lnames, rnames = list(lschema.names), list(rschema.names)
    overlap = (set(lnames) & set(rnames)) - set(on)
    r_renamed = [c + right_suffix if c in overlap else c for c in rnames]
    out_cols = lnames + [r for r, orig in zip(r_renamed, rnames) if orig not in on]
    left_hash = right_hash = _key_hash(key_schema)
    if hot_keys is not None:
        # salt offsets must stay distinct mod num_buckets (odd
        # multiplier × power-of-two bucket count guarantees it only up
        # to num_buckets), or a hot right row replicated into two
        # colliding salted buckets would match a hot left row twice
        left_hash, right, right_hash = _salted(
            on[0], hot_keys, min(SALT_FACTOR, num_buckets), left_hash, right)

    def _join_bucket(_b: int, lparts: list, rparts: list) -> pa.Table:
        ltab = _side_table(lparts, lschema)
        rtab = _side_table(rparts, rschema).rename_columns(r_renamed)
        out = ltab.join(rtab, keys=on, join_type=_JOIN_TYPE[how])
        return out.select(out_cols)

    return exchange.two_sided_exchange(
        left, right, left_hash, right_hash, num_buckets, _join_bucket,
        fallback=lambda: ray.data.from_arrow(_join_bucket(0, [], [])),
    )


def _salted(key: str, hot_keys, salt_factor: int, key_hash, right):
    """``hash_join``'s hot-key salting: the left bucket function, the
    right side with each hot row replicated once per salt (1..
    ``salt_factor``; a ``_SALT_COL`` of 0 marks a cold row, and no
    unsalted copy of a hot row is kept, since hot left rows are always
    salted) and the right bucket function that adds the salt offset."""
    import pyarrow.compute as pc

    hot = pa.array(sorted(hot_keys))

    def _is_hot(t: pa.Table) -> np.ndarray:
        k = t[key] if t[key].type.equals(hot.type) else pc.cast(t[key], hot.type)
        return pc.is_in(k, value_set=hot).to_numpy(zero_copy_only=False)

    def left_hash(t: pa.Table) -> np.ndarray:
        salt = np.arange(len(t), dtype=np.uint64) % np.uint64(salt_factor) + np.uint64(1)
        h = key_hash(t)
        with np.errstate(over="ignore"):
            return np.where(_is_hot(t), h + salt * _SALT_STEP, h)

    def _replicate(t: pa.Table) -> pa.Table:
        is_hot = _is_hot(t)
        cold, hot_rows = np.flatnonzero(~is_hot), np.flatnonzero(is_hot)
        salt = np.repeat(np.arange(salt_factor + 1, dtype=np.uint64),
                         [len(cold)] + [len(hot_rows)] * salt_factor)
        rows = np.concatenate([cold, np.tile(hot_rows, salt_factor)])
        return t.take(rows).append_column(_SALT_COL, pa.array(salt))

    def right_hash(t: pa.Table) -> np.ndarray:
        salt = t[_SALT_COL].to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            return key_hash(t) + salt * _SALT_STEP

    return left_hash, right.map_batches(_replicate, batch_format="pyarrow"), right_hash


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
    if how not in _BROADCASTABLE:
        raise ValueError(f"interval_join supports {_BROADCASTABLE}, got {how!r}")
    rt = _to_arrow(right)
    rdf = rt.to_pandas().sort_values(right_start, kind="stable").reset_index(drop=True)
    if len(rdf):
        max_len = (rdf[right_end] - rdf[right_start]).max()
    else:
        max_len = None
    ref = ray.put(rdf)

    def _out_schema(lschema: pa.Schema) -> pa.Schema:
        # explicit output schema: the batch's fields + right non-by
        # fields (suffix where names overlap) — every batch casts to
        # it, so a batch whose unmatched left rows NaN-promoted an
        # int/timestamp right column emits the same schema as an
        # all-matched batch
        overlap_names = (set(lschema.names) & set(rt.schema.names)) - set(by)
        return pa.schema(list(lschema) + [
            pa.field(f.name + right_suffix if f.name in overlap_names else f.name, f.type)
            for f in rt.schema if f.name not in by
        ])

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
            pa.Table.from_pandas(lpart, preserve_index=False).replace_schema_metadata(None),
            _out_schema(tbl.schema),
        )

    return left.map_batches(_join, batch_format="pyarrow")
