"""Grouped and windowed aggregation, two-phase (partial + final).

Semantics reproduced: the reference's Aggregate node with its 8
functions sum/count/mean/min/max/std/var/count_distinct per
``Aggregation(column, function, time_window, slide_interval)``
(feast/aggregation/__init__.py:15-138; local/nodes.py:160-180;
ray/nodes.py:318-556) and the sliding-window "sawtooth tiling" engine
(feast/aggregation/tiling/orchestrator.py:18-189): algebraic functions
aggregate via per-hop partial tiles that are merged, holistic ones
(mean/std/var) via intermediate representations (sum, count, sum_sq).

Ray-Data-first design — NOT the reference's driver-side
``dataset.to_pandas()`` fallback (ray/nodes.py:503-506, an anti-pattern
at scale):

1. **partial**: one ``map_batches`` pass computes per-(key, batch)
   partials with a vectorized pandas groupby — sum/count/min/max
   directly, mean→(sum,count), std/var→(sum,sum_sq,count). Output is ≤
   one row per key per block, so the shuffle that follows is tiny and
   skew-resistant (a hot key contributes one partial per block).
2. **final**: hash-bucket shuffle + one vectorized pandas reduce per
   bucket (Ray's native per-key aggregate pays per-group overhead) over
   the partials, then a finalize ``map_batches`` computing
   mean/std/var from the merged IRs.

``count_distinct`` is two-phase too: global distinct on (keys, col)
(itself per-block-deduped before the shuffle) then a grouped count.

Windowed aggregation assigns each row its ONE hop bucket in a
vectorized ``map_batches``; tumbling windows then run the two-phase
grouped aggregation on (keys, window_start) directly, while sliding
windows compose per-(key, hop) merged IR TILES into windows
(``_tiled_sliding_agg``) — the reference's tiling engine shape, with
O(1) rows per input row through the heavy phase.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

_ALGEBRAIC = {"sum", "count", "min", "max"}
_SUPPORTED = _ALGEBRAIC | {"mean", "avg", "std", "var", "count_distinct"}
_GLOBAL_KEY = "__global_group"


@dataclass(frozen=True)
class AggSpec:
    col: str | None
    fn: str
    alias: str

    def __post_init__(self):
        if self.fn not in _SUPPORTED:
            raise ValueError(f"unsupported agg fn {self.fn!r}")


def _partial_cols(spec: AggSpec, i: int) -> dict[str, str]:
    """partial column name → kind (sum|count|min|max|sumsq)."""
    fn = "avg" if spec.fn == "mean" else spec.fn
    p = f"__p{i}"
    if fn == "sum":
        return {f"{p}_sum": "sum"}
    if fn == "count":
        return {f"{p}_cnt": "count"}
    if fn == "min":
        return {f"{p}_min": "min"}
    if fn == "max":
        return {f"{p}_max": "max"}
    if fn == "avg":
        return {f"{p}_sum": "sum", f"{p}_cnt": "count"}
    if fn in ("std", "var"):
        return {f"{p}_sum": "sum", f"{p}_ssq": "sumsq", f"{p}_cnt": "count"}
    raise AssertionError(fn)


def _make_partial_fn(keys: list[str], specs: list[AggSpec]):
    sq_specs = [i for i, s in enumerate(specs) if s.fn in ("std", "var")]

    def _partial(tbl: pa.Table) -> "pa.Table | pd.DataFrame":
        # Arrow in/out; pandas used internally for the grouped partial.
        # Empty blocks flow through the SAME path (pandas groupby on an
        # empty frame yields an empty partial with the partial schema)
        # — returning the raw input table emitted schema-inconsistent
        # blocks into the merge shuffle
        df = tbl.to_pandas()
        if sq_specs:
            df = df.copy()
            for i in sq_specs:
                v = df[specs[i].col].to_numpy(dtype=np.float64)
                df[f"__sq{i}"] = v * v
        out: dict[str, pd.Series] = {}
        g = df.groupby(keys, sort=False, dropna=False)
        for i, spec in enumerate(specs):
            for pname, kind in _partial_cols(spec, i).items():
                if kind == "count":
                    s = g.size() if spec.col is None else g[spec.col].count()
                elif kind == "sum":
                    s = g[spec.col].sum()
                elif kind == "sumsq":
                    s = g[f"__sq{i}"].sum()
                elif kind == "min":
                    s = g[spec.col].min()
                elif kind == "max":
                    s = g[spec.col].max()
                out[pname] = s
        res = pd.DataFrame(out).reset_index()
        return pa.Table.from_pandas(res, preserve_index=False).replace_schema_metadata(None)

    return _partial


def _make_merge_ir_fn(keys: list[str], specs: list[AggSpec]):
    """Partial rows (``_make_partial_fn`` output, from any number of
    blocks) → one merged intermediate row per key."""
    kinds: dict[str, str] = {}
    for i, spec in enumerate(specs):
        kinds.update(_partial_cols(spec, i))

    def _merge_ir(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, dropna=False)
        out: dict[str, pd.Series] = {}
        for pname, kind in kinds.items():
            if kind in ("sum", "count", "sumsq"):
                out[pname] = g[pname].sum()
            elif kind == "min":
                out[pname] = g[pname].min()
            else:
                out[pname] = g[pname].max()
        return pd.DataFrame(out).reset_index()

    return _merge_ir


def _make_merge_fn(keys: list[str], specs: list[AggSpec]):
    """Partial rows → one final row per key (IR merge, then finalize):
    ``grouped_agg``'s exchange reducer and ``GroupedAgg.merge`` run
    this one function."""
    merge_ir = _make_merge_ir_fn(keys, specs)
    finalize = _make_finalize_fn(keys, specs)
    return lambda df: finalize(merge_ir(df))


def _make_finalize_fn(keys: list[str], specs: list[AggSpec]):
    def _finalize(df: pd.DataFrame) -> pd.DataFrame:
        out = df[keys].copy()
        for i, spec in enumerate(specs):
            fn = "avg" if spec.fn == "mean" else spec.fn
            p = f"__p{i}"
            if fn == "sum":
                out[spec.alias] = df[f"{p}_sum"]
            elif fn == "count":
                out[spec.alias] = df[f"{p}_cnt"].astype("int64")
            elif fn == "min":
                out[spec.alias] = df[f"{p}_min"]
            elif fn == "max":
                out[spec.alias] = df[f"{p}_max"]
            elif fn == "avg":
                out[spec.alias] = df[f"{p}_sum"] / df[f"{p}_cnt"]
            elif fn in ("std", "var"):
                n = df[f"{p}_cnt"].to_numpy(dtype=np.float64)
                s = df[f"{p}_sum"].to_numpy(dtype=np.float64)
                ss = df[f"{p}_ssq"].to_numpy(dtype=np.float64)
                with np.errstate(invalid="ignore", divide="ignore"):
                    var = (ss - s * s / n) / (n - 1)
                    var = np.where(n > 1, np.maximum(var, 0.0), np.nan)
                out[spec.alias] = np.sqrt(var) if fn == "std" else var
        return out

    return _finalize


def grouped_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    specs: list[AggSpec],
) -> ray.data.Dataset:
    """Two-phase grouped aggregation; ``keys=[]`` = global aggregate
    (the reference's dummy-entity / keyless view, feature_view.py:96-98)."""
    cd_specs = [s for s in specs if s.fn == "count_distinct"]
    main_specs = [s for s in specs if s.fn != "count_distinct"]

    result: ray.data.Dataset | None = None
    gkeys = keys if keys else [_GLOBAL_KEY]
    if main_specs:
        d = ds
        if not keys:
            d = d.map_batches(
                lambda t: t.append_column(_GLOBAL_KEY, [np.zeros(len(t), dtype=np.int8)]),
                batch_format="pyarrow",
            )
        partial = d.map_batches(_make_partial_fn(gkeys, main_specs), batch_format="pyarrow")
        # merge phase: shuffle the (small) partials by a hash BUCKET of
        # the keys and reduce each bucket with ONE vectorized pandas
        # groupby — Ray's native per-key aggregate pays per-group
        # overhead that dominates at high key cardinality (measured
        # 5.8 s vs 0.7 s for 147k groups over 600k rows at 32 CPUs)
        from feast_ray.stages.dedup import bucketed_group_reduce

        result = bucketed_group_reduce(partial, gkeys, _make_merge_fn(gkeys, main_specs))

    for spec in cd_specs:
        import pyarrow.compute as _pc

        from feast_ray.stages.relational import distinct

        dcols = (keys if keys else []) + [spec.col]
        # COUNT(DISTINCT) ignores NULL values (pandas nunique / SQL
        # semantics) — drop null-VALUED rows before the distinct
        # (null group KEYS stay; dropna=False downstream keeps them)
        nonnull = ds.select_columns(dcols).map_batches(
            lambda t, c=spec.col: t.filter(_pc.is_valid(t[c])),
            batch_format="pyarrow",
        )
        dist = distinct(nonnull, dcols)
        if not keys:
            cnt = dist.map_batches(
                lambda t: t.append_column(_GLOBAL_KEY, [np.zeros(len(t), dtype=np.int8)]),
                batch_format="pyarrow",
            )
        else:
            cnt = dist
        # count per key over the distinct rows — bucketed merge (same
        # high-cardinality-safe shape as the main path)
        from feast_ray.stages.dedup import bucketed_group_reduce

        def _cd_partial(tbl: pa.Table, alias=spec.alias) -> pa.Table:
            df = tbl.to_pandas()
            g = df.groupby(gkeys, sort=False, dropna=False)
            return pa.Table.from_pandas(
                pd.DataFrame({alias: g.size()}).reset_index(), preserve_index=False
            ).replace_schema_metadata(None)

        def _cd_merge(df: pd.DataFrame, alias=spec.alias) -> pd.DataFrame:
            g = df.groupby(gkeys, sort=False, dropna=False)
            return pd.DataFrame({alias: g[alias].sum()}).reset_index()

        cd = bucketed_group_reduce(
            cnt.map_batches(_cd_partial, batch_format="pyarrow"), gkeys, _cd_merge
        )
        if result is None:
            result = cd
        else:
            import ray as _ray

            # aggregate outputs are small — broadcast-merge them.
            # pandas merge (NOT the Arrow join): Arrow never matches
            # null join keys, which dropped the count for a null
            # group key that both sides had computed
            cd_df = cd.to_pandas()
            _ref = _ray.put(cd_df)
            result = result.map_batches(
                lambda df, r=_ref, k=tuple(gkeys): df.merge(
                    _ray.get(r), on=list(k), how="left"
                ),
                batch_format="pandas",
            )

    assert result is not None, "no agg specs given"
    if not keys:
        result = result.map_batches(
            lambda t: t.drop_columns([_GLOBAL_KEY]) if _GLOBAL_KEY in t.column_names else t,
            batch_format="pyarrow",
        )
    return result


@dataclass(frozen=True)
class GroupedAgg:
    """One grouped aggregate over ``prepare``-d rows, runnable two ways
    with one partial and one merge:

    - ``agg(ds)``: the distributed ``grouped_agg`` (partials per block,
      merged through the raw exchange), returning a Dataset;
    - ``agg.partial(tbl)`` in whatever task already holds the rows,
      then ``agg.merge(partials)`` once on the caller — no second pass
      over the rows and no exchange. The merge holds every partial at
      once: at most one row per (task, key).

    Keys must be non-empty and ``count_distinct`` is not supported:
    its distinct phase needs the shuffle."""

    keys: tuple[str, ...]
    specs: tuple[AggSpec, ...]
    prepare: Callable[[pa.Table], pa.Table]

    def __call__(self, ds: ray.data.Dataset) -> ray.data.Dataset:
        prepared = ds.map_batches(self.prepare, batch_format="pyarrow")
        return grouped_agg(prepared, list(self.keys), list(self.specs))

    def partial(self, tbl: pa.Table) -> pa.Table:
        return _make_partial_fn(list(self.keys), list(self.specs))(self.prepare(tbl))

    def merge(self, partials: list[pa.Table]) -> pa.Table:
        df = pa.concat_tables(partials, promote_options="permissive").to_pandas()
        out = _make_merge_fn(list(self.keys), list(self.specs))(df)
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)


_WINDOW_EPOCH = datetime(1970, 1, 1)


def windowed_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    ts_col: str,
    window: timedelta,
    specs: list[AggSpec],
    slide: timedelta | None = None,
    window_col: str = "window_start",
) -> ray.data.Dataset:
    """Tumbling (slide=None) or sliding windowed aggregation.

    Sliding windows follow the reference's sawtooth TILING
    (feast/aggregation/tiling/orchestrator.py:18-189,
    tiling/tile_subtraction.py:1-177): each row is assigned its ONE hop
    bucket (no row amplification), partial tiles are computed and
    merged per (key, hop), and windows are composed from the ≤
    |distinct (key, hop)| merged tiles — O(1) rows per input row
    through the heavy phase regardless of window//slide. (A naive
    sawtooth that explodes every raw row into window//slide hop copies
    is 60× row amplification for a 1 h window with a 1 min slide.)
    """
    win_us = int(window.total_seconds() * 1e6)
    slide_us = int(slide.total_seconds() * 1e6) if slide else win_us
    if win_us % slide_us != 0:
        raise ValueError("window must be a multiple of slide")
    n_hops = win_us // slide_us

    def _assign(tbl: pa.Table) -> pa.Table:
        # numpy floor-division straight on the timestamp column (the
        # old pandas round-trip copied the whole table per batch);
        # `//` FLOORS, matching SQL time_bucket for pre-epoch rows
        col = tbl[ts_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ts = pc.cast(col, pa.timestamp("us")).to_numpy(zero_copy_only=False)
        ts_i = ts.astype("datetime64[us]").astype(np.int64)
        win = ((ts_i // slide_us) * slide_us).astype("datetime64[us]")
        wcol = pa.array(win, pa.timestamp("us"))
        if window_col in tbl.column_names:
            return tbl.set_column(
                tbl.schema.get_field_index(window_col), window_col, wcol
            )
        return tbl.append_column(window_col, wcol)

    hopped = ds.map_batches(_assign, batch_format="pyarrow")
    if n_hops == 1:
        return grouped_agg(hopped, keys + [window_col], specs)
    return _tiled_sliding_agg(hopped, keys, window_col, slide_us, n_hops, specs)


def _make_window_compose(
    keys: list[str],
    window_col: str,
    slide_us: int,
    n_hops: int,
    kinds: "dict[str, str]",
    merge_ir,
    finalize,
):
    """Bucket-local window composition from merged per-(key, hop) IR
    tiles (round 4 — the extreme-window//slide fix).

    Per key the composer picks the cheaper of two exact strategies:

    - **grid** (dense keys): scatter the key's tiles onto its hop grid
      and compute every window in ONE rolling pass — cumsum-diff for
      the additive IR kinds (sum/count/sumsq), pandas ``rolling`` (C
      deque) for min/max. Cost O(hop-range + n_hops) per key,
      independent of window//slide. Keys are packed into one global
      array with (n_hops-1)-slot spacing so a single rolling pass
      serves every key without cross-key bleed.
    - **explode** (sparse keys, hop-range ≫ tiles): the classic
      ×n_hops tile explode + groupby merge — but LOCAL to the bucket,
      so the amplified rows never enter a shuffle.

    Emitted windows are exactly those containing ≥1 tile (identical
    to the explode path — parity-tested)."""

    def _sliding_extreme(scat: np.ndarray, k: int, use_min: bool) -> np.ndarray:
        """Exact sliding min/max of width-k backward windows via the
        two-stack (prefix/suffix per k-chunk) decomposition — O(G),
        works on int64 (no float53 corruption) and float64 alike.
        Missing slots hold the op's identity (the caller scattered
        sentinels); window(p) = op(suffix[p-k+1], prefix[p])."""
        op = np.minimum if use_min else np.maximum
        G = len(scat)
        pad = (-G) % k
        if pad:
            ident = scat.dtype.type(
                (np.inf if use_min else -np.inf)
                if scat.dtype.kind == "f"
                else (np.iinfo(np.int64).max if use_min else np.iinfo(np.int64).min)
            )
            scat = np.concatenate([scat, np.full(pad, ident, scat.dtype)])
        m = scat.reshape(-1, k)
        pref = op.accumulate(m, axis=1).reshape(-1)
        suff = op.accumulate(m[:, ::-1], axis=1)[:, ::-1].reshape(-1)
        idx = np.arange(G)
        lo = idx - k + 1
        res = pref[idx]
        v = lo >= 0
        res[v] = op(res[v], suff[lo[v]])
        return res

    def _to_work(col: pd.Series, use_min: bool):
        """(work array with per-dtype identity sentinels for missing
        slots, sentinel, restore_fn) — int64 stays int64 (exact beyond
        2^53, matching the explode path's integer groupby — code-review
        r4), datetimes ride int64, floats use ±inf with NaN treated as
        missing (groupby-skipna semantics)."""
        v = col.to_numpy()
        if np.issubdtype(v.dtype, np.datetime64):
            iv = v.astype("datetime64[us]").astype(np.int64)
            sent = np.iinfo(np.int64).max if use_min else np.iinfo(np.int64).min
            iv = np.where(pd.isna(col).to_numpy(), sent, iv)

            def _restore_dt(x: np.ndarray) -> np.ndarray:
                # all-missing windows → NaT (int64 min IS NaT)
                out = np.where(x == sent, np.iinfo(np.int64).min, x)
                return out.astype(np.int64).view("datetime64[us]")

            return iv, sent, _restore_dt
        if np.issubdtype(v.dtype, np.integer):
            sent = np.iinfo(np.int64).max if use_min else np.iinfo(np.int64).min
            return v.astype(np.int64), sent, lambda x: x.astype(v.dtype)
        sent = np.inf if use_min else -np.inf
        fv = np.where(np.isnan(v.astype(np.float64)), sent, v.astype(np.float64))

        def _restore_f(x: np.ndarray) -> np.ndarray:
            return np.where(x == sent, np.nan, x)

        return fv, sent, _restore_f

    def _compose_sparse(
        dfs: pd.DataFrame,
        srows: np.ndarray,
        sidx: np.ndarray,
        kid_s: np.ndarray,
        hop_s: np.ndarray,
        starts: np.ndarray,
        n_tiles: np.ndarray,
        minh: np.ndarray,
    ) -> pd.DataFrame:
        """Sparse arm — output-optimal sorted sweep (round 5; the
        README's monotonic-deque candidate, in vectorizable form).

        The old explode materialized tiles × n_hops IR rows and hash-
        groupby-merged them: O(t·K) rows copied through pandas per
        bucket. This sweep emits each of the W output windows directly
        — O(t·log t + W) with prefix-sum diffs for the additive IR
        kinds (the dense grid arm's doctrine) and a vectorized
        sparse-table (power-of-two range min/max; idempotent overlap)
        for extremes, replacing the sequential deque so the whole
        bucket stays in numpy. W ≤ t·K always, and ≪ t·K whenever
        per-tile window ranges overlap.

        Tiles arrive one-per-(key, hop) (the upstream bucketed reduce
        merged them) and sorted by (kid, hop). Windows of segment j
        search only segment j's tiles via a composite searchsorted key
        ``seg·stride + hop_offset``; falls back to the explode when the
        composite would overflow int64 (astronomical hop ranges)."""
        sh = hop_s[srows]
        s_tiles = n_tiles[sidx]
        S = len(sidx)
        T = len(srows)
        K = np.int64(n_hops)
        tseg = np.repeat(np.arange(S, dtype=np.int64), s_tiles)
        minh_s = minh[sidx]
        Lmax = int(((hop_s[starts[sidx] + s_tiles - 1] - minh_s) // slide_us).max()) + 1
        stride = np.int64(Lmax + 2 * n_hops)
        if S and stride > (2**62) // max(S, 1):
            return merge_ir(_explode_ir(dfs.iloc[srows]))

        # per-tile NEW window range: [max(h-(K-1)s, prev_h+s), h] —
        # consecutive same-segment tiles share overlapping ranges, the
        # union is emitted exactly once, in sorted order per segment
        w_start = sh - (K - 1) * slide_us
        prev = np.empty(T, np.int64)
        prev[1:] = sh[:-1] + slide_us
        first = np.concatenate([[True], tseg[1:] != tseg[:-1]])
        np.maximum(w_start, prev, out=w_start, where=~first)
        c = (sh - w_start) // slide_us + 1
        cum = np.zeros(T + 1, np.int64)
        np.cumsum(c, out=cum[1:])
        W = int(cum[-1])
        wi = np.repeat(np.arange(T), c)
        w = w_start[wi] + (np.arange(W) - cum[wi]) * slide_us
        eseg_w = tseg[wi]

        # composite search keys: offsets are hop-grid positions shifted
        # +(K-1) so the lowest window start stays non-negative
        t_off = (sh - minh_s[tseg]) // slide_us + (K - 1)
        comp_tile = tseg * stride + t_off
        comp_lo = eseg_w * stride + (w - minh_s[eseg_w]) // slide_us + (K - 1)
        lo = np.searchsorted(comp_tile, comp_lo, side="left")
        hi = np.searchsorted(comp_tile, comp_lo + (K - 1), side="right") - 1

        out_cols: dict[str, np.ndarray] = {}
        sdf = dfs.iloc[srows]
        for pname, kind in kinds.items():
            if kind in ("sum", "count", "sumsq"):
                vals = sdf[pname].to_numpy()
                if np.issubdtype(vals.dtype, np.integer):
                    pref = np.zeros(T + 1, np.int64)
                    pref[1:] = vals
                else:
                    pref = np.zeros(T + 1, np.float64)
                    pref[1:] = np.nan_to_num(vals.astype(np.float64))
                np.cumsum(pref, out=pref)
                out_cols[pname] = pref[hi + 1] - pref[lo]
            else:
                use_min = kind == "min"
                vals, sent, restore = _to_work(sdf[pname], use_min)
                op = np.minimum if use_min else np.maximum
                # sparse table: st[j][i] = op over tiles [i, i + 2^j)
                st = [vals]
                j, half = 0, 1
                while half * 2 <= T:
                    st.append(op(st[j][: T - half * 2 + 1], st[j][half : T - half + 1]))
                    j += 1
                    half *= 2
                ln = hi - lo + 1
                lev = np.floor(np.log2(ln)).astype(np.int64)
                res = np.full(W, sent, vals.dtype)
                for j in range(len(st)):
                    m = lev == j
                    if m.any():
                        p2 = 1 << j
                        res[m] = op(st[j][lo[m]], st[j][hi[m] + 1 - p2])
                out_cols[pname] = restore(res)

        frame = pd.DataFrame(out_cols)
        frame[window_col] = w.astype("datetime64[us]")
        key_rows = dfs.iloc[starts[sidx]][keys].reset_index(drop=True)
        for col in keys:
            frame[col] = key_rows[col].to_numpy()[eseg_w]
        return frame

    def _explode_ir(sparse_df: pd.DataFrame) -> pd.DataFrame:
        n = len(sparse_df)
        idx = np.repeat(np.arange(n), n_hops)
        shop = sparse_df[window_col].to_numpy(
            dtype="datetime64[us]"
        ).astype(np.int64)
        wv = (
            np.repeat(shop, n_hops)
            - np.tile(np.arange(n_hops, dtype=np.int64) * slide_us, n)
        )
        ex = sparse_df.iloc[idx].copy()
        ex[window_col] = wv.astype("datetime64[us]")
        return ex

    def _compose(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return finalize(merge_ir(df))
        if any(
            kind in ("min", "max") and df[pname].dtype == object
            for pname, kind in kinds.items()
        ):
            # object-dtype extremes (e.g. string min/max): neither the
            # grid roll nor the sparse sweep has a numeric kernel —
            # keep the bucket-local pandas-groupby explode path
            # (code-review r5; cost is the pre-round-5 O(tiles×hops))
            return finalize(merge_ir(_explode_ir(df)))
        hop = df[window_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        g = df.groupby(keys, sort=False, dropna=False)
        kid = g.ngroup().to_numpy()
        order = np.lexsort((hop, kid))
        dfs = df.iloc[order]
        kid_s = kid[order]
        hop_s = hop[order]
        seg_start = np.concatenate([[True], kid_s[1:] != kid_s[:-1]])
        starts = np.flatnonzero(seg_start)
        ends = np.append(starts[1:], len(dfs))
        minh = hop_s[starts]
        maxh = hop_s[ends - 1]
        n_tiles = ends - starts
        L = (maxh - minh) // slide_us + 1
        dense = (L + n_hops) < n_tiles * np.int64(n_hops)
        dense_rows = np.repeat(dense, n_tiles)
        parts: list[pd.DataFrame] = []

        sidx = np.flatnonzero(~dense)
        srows = np.flatnonzero(~dense_rows)
        if len(srows):
            part = _compose_sparse(
                dfs, srows, sidx, kid_s, hop_s, starts, n_tiles, minh
            )
            parts.append(finalize(part))

        didx = np.flatnonzero(dense)
        if len(didx):
            drows = np.flatnonzero(dense_rows)
            ddf = dfs.iloc[drows]
            dk = kid_s[drows]
            dh = hop_s[drows]
            seg_len = (L[didx] + n_hops - 1).astype(np.int64)
            bases = np.zeros(len(didx), np.int64)
            np.cumsum(seg_len[:-1], out=bases[1:])
            G = int(seg_len.sum())
            # position of each dense tile in the packed global array
            seg_of = {int(k): i for i, k in enumerate(kid_s[starts][didx])}
            seg_idx = np.array([seg_of[int(k)] for k in dk], np.int64)
            pos = bases[seg_idx] + (dh - minh[didx][seg_idx]) // slide_us

            pres = np.zeros(G + 1, np.int64)
            pres[pos + 1] = 1
            np.cumsum(pres, out=pres)
            lo = np.maximum(np.arange(G) - (n_hops - 1), 0)
            present = (pres[np.arange(G) + 1] - pres[lo]) > 0
            emit = np.flatnonzero(present)
            # windows roll WITHIN a segment: clamp each emitted
            # window's reach-back to its own segment start
            eseg = np.searchsorted(bases, emit, side="right") - 1
            elo = np.maximum(emit - (n_hops - 1), bases[eseg])

            out_cols: dict[str, np.ndarray] = {}
            for pname, kind in kinds.items():
                if kind in ("sum", "count", "sumsq"):
                    # integer IRs (counts, fixed-point cents) stay
                    # int64 — exact past 2^53, like the explode path's
                    # integer groupby sums (code-review r4)
                    vals = ddf[pname].to_numpy()
                    if np.issubdtype(vals.dtype, np.integer):
                        c = np.zeros(G + 1, np.int64)
                        c[pos + 1] = vals
                    else:
                        c = np.zeros(G + 1, np.float64)
                        c[pos + 1] = np.nan_to_num(vals.astype(np.float64))
                    np.cumsum(c, out=c)
                    res = c[emit + 1] - c[elo]
                else:
                    use_min = kind == "min"
                    vals, sent, restore = _to_work(ddf[pname], use_min)
                    scat = np.full(G, sent, vals.dtype)
                    scat[pos] = vals
                    res = restore(
                        _sliding_extreme(scat, n_hops, use_min)[emit]
                    )
                out_cols[pname] = res

            wts = (
                minh[didx][eseg]
                - (n_hops - 1) * slide_us
                + (emit - bases[eseg]) * slide_us
            )
            frame = pd.DataFrame(out_cols)
            frame[window_col] = wts.astype("datetime64[us]")
            # key values: one representative row per dense segment
            key_rows = dfs.iloc[starts[didx]][keys].reset_index(drop=True)
            for c in keys:
                frame[c] = key_rows[c].to_numpy()[eseg]
            parts.append(finalize(frame))

        out = pd.concat(parts, ignore_index=True) if parts else finalize(
            merge_ir(df.iloc[:0])
        )
        return out

    return _compose


def _tiled_sliding_agg(
    hopped: ray.data.Dataset,
    keys: list[str],
    window_col: str,
    slide_us: int,
    n_hops: int,
    specs: list[AggSpec],
) -> ray.data.Dataset:
    """Compose sliding windows from merged per-(key, hop) tiles.

    Three small stages after the one O(rows) partial pass:
    1. merge block tiles → one IR tile per (key, hop) (bucketed reduce,
       IR columns kept un-finalized so tiles stay combinable);
    2. explode each merged tile into the n_hops windows containing its
       hop — amplification applies to the TILE table (one row per key
       per slide period), never to raw rows;
    3. merge + finalize per (key, window_start).
    count_distinct can't compose from additive tiles: it runs
    distinct-(key, hop, value) → explode → distinct-(key, window,
    value) → grouped count, so the explode touches only per-hop
    DISTINCT values.
    """
    from feast_ray.stages.dedup import bucketed_group_reduce

    tkeys = keys + [window_col]
    cd_specs = [s for s in specs if s.fn == "count_distinct"]
    main_specs = [s for s in specs if s.fn != "count_distinct"]

    def _explode_to_windows(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        hop = df[window_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        # hop h is inside windows starting at h - j*slide, j in [0, n_hops)
        # (window covers [start, start + window))
        idx = np.repeat(np.arange(len(df)), n_hops)
        starts = (
            np.repeat(hop, n_hops)
            - np.tile(np.arange(n_hops, dtype=np.int64) * slide_us, len(df))
        )
        out = df.iloc[idx].copy()
        out[window_col] = starts.astype("datetime64[us]")
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    result: ray.data.Dataset | None = None
    if main_specs:
        kinds: dict[str, str] = {}
        for i, spec in enumerate(main_specs):
            kinds.update(_partial_cols(spec, i))

        _merge_ir = _make_merge_ir_fn(tkeys, main_specs)
        finalize = _make_finalize_fn(tkeys, main_specs)
        block_tiles = hopped.map_batches(
            _make_partial_fn(tkeys, main_specs), batch_format="pyarrow"
        )
        tiles = bucketed_group_reduce(block_tiles, tkeys, _merge_ir)
        if keys:
            # bucket-local composition (round 4): bucket the merged
            # tiles on the KEYS alone so each key's tiles co-locate,
            # then compose windows INSIDE the bucket — the ×n_hops
            # amplification never crosses the network (the old path
            # shipped the exploded tile table through a second
            # shuffle), and dense keys skip the explode entirely via
            # a rolling pass over the hop grid (O(grid) instead of
            # O(tiles × n_hops) — the extreme-window//slide fix).
            compose = _make_window_compose(
                keys, window_col, slide_us, n_hops, kinds, _merge_ir, finalize
            )
            result = bucketed_group_reduce(tiles, keys, compose)
        else:
            # keyless sliding windows: tiny tile table, keep the
            # explode + one bucketed reduce on the window column
            exploded = tiles.map_batches(
                _explode_to_windows, batch_format="pyarrow"
            )
            result = bucketed_group_reduce(
                exploded, tkeys, _make_merge_fn(tkeys, main_specs)
            )

    for spec in cd_specs:
        import pyarrow.compute as _pc

        from feast_ray.stages.relational import distinct

        dcols = tkeys + [spec.col]
        # COUNT(DISTINCT) ignores NULL values (grouped_agg semantics)
        nonnull = hopped.select_columns(dcols).map_batches(
            lambda t, c=spec.col: t.filter(_pc.is_valid(t[c])),
            batch_format="pyarrow",
        )
        hop_dist = distinct(nonnull, dcols)
        win_pairs = hop_dist.map_batches(_explode_to_windows, batch_format="pyarrow")
        win_dist = distinct(win_pairs, dcols)
        # count of distinct rows per (key, window) == count_distinct;
        # grouped_agg's count path is the two-phase bucketed shape
        cd = grouped_agg(win_dist, tkeys, [AggSpec(spec.col, "count", spec.alias)])
        if result is None:
            result = cd
        else:
            # bucketed (keys, window) join — NOT a driver to_pandas +
            # broadcast (VERDICT r3 #3): both sides hash-bucket on
            # tkeys and each bucket runs one pandas merge (pandas, not
            # the Arrow join, because merge matches NULL keys — the
            # dropna=False doctrine). Scales with (key, window)
            # cardinality instead of pinning the cd table on the driver.
            from feast_ray.stages.relational import union_align

            alias = spec.alias
            # Probe both schemas ONCE here (union_align would do the
            # same two probes internally) and record which output
            # columns are integers on the side that owns them.
            # union_align nulls each side's missing columns, so the
            # bucket's to_pandas upcasts every int count to float64;
            # values stay exact but the driver hashes the REPRESENTATION
            # ("1.0" vs "1") — the round-4 q73 regression. The merge
            # below restores the owner's integer dtypes.
            left_schema, cd_schema = result.schema(), cd.schema()

            def _pa_fields(s) -> list[pa.Field]:
                if s is None:  # empty side — no columns to restore
                    return []
                out = []
                for n, t in zip(s.names, s.types):
                    if not isinstance(t, pa.DataType):
                        t = (
                            pa.string()
                            if t == np.dtype("O")
                            else pa.from_numpy_dtype(t)
                        )
                    out.append(pa.field(n, t))
                return out

            lf, cf = _pa_fields(left_schema), _pa_fields(cd_schema)
            int_casts = {
                f.name: f.type.to_pandas_dtype()
                for f in lf
                if f.name != alias and pa.types.is_integer(f.type)
            }
            for f in cf:
                if f.name == alias and pa.types.is_integer(f.type):
                    int_casts[alias] = f.type.to_pandas_dtype()
            side8 = pa.field("__cdside", pa.int8())
            tagged = union_align(
                [
                    result.map_batches(
                        lambda t: t.append_column(
                            "__cdside", pa.array(np.zeros(len(t), np.int8))),
                        batch_format="pyarrow"),
                    cd.map_batches(
                        lambda t: t.append_column(
                            "__cdside", pa.array(np.ones(len(t), np.int8))),
                        batch_format="pyarrow"),
                ],
                schemas=[pa.schema([*lf, side8]), pa.schema([*cf, side8])],
            )

            def _bucket_join(
                df: pd.DataFrame, a=alias, k=tuple(tkeys), casts=int_casts
            ) -> pd.DataFrame:
                left = df[df["__cdside"] == 0].drop(columns=["__cdside", a])
                right = df[df["__cdside"] == 1][[*k, a]]
                out = left.merge(right, on=list(k), how="left")
                # a (key, window) absent from the cd side means every
                # value was NULL there → count_distinct is 0, and the
                # owner dtypes (int64 counts) come back from the
                # union_align float upcast
                for col, dt in casts.items():
                    out[col] = out[col].fillna(0).astype(dt)
                return out

            result = bucketed_group_reduce(tagged, tkeys, _bucket_join)

    assert result is not None, "no agg specs given"
    return result


def session_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    ts_col: str,
    gap: timedelta,
    specs: list[AggSpec],
    *,
    start_col: str = "session_start",
    end_col: str = "session_end",
) -> ray.data.Dataset:
    """Gap-based SESSION windows: per key, consecutive events closer
    than ``gap`` belong to one session; a strictly larger gap starts a
    new one. Emits one row per (keys, session) with ``start_col`` /
    ``end_col`` (min/max event ts) plus the requested aggregates.

    Neither the reference's tumbling/sliding windows nor Ray Data
    express data-driven windows — this is the SURVEY §2 extension
    shape for user-activity sessionization (web logs, crawl bursts).

    Scale design: a session is defined by ORDER within its key, so the
    operator is single-exchange/full-key-locality rather than
    two-phase — rows hash-bucket by key (``bucketed_group_reduce`` →
    the raw exchange), and each bucket runs ONE vectorized pandas
    pass: stable sort by (keys, ts), gap-split via a shifted diff,
    cumsum session ids, one grouped aggregate. Within a session every
    row is local, so mean/std/count_distinct are computed exactly — no
    IR needed. Partitioning assumption: one key-bucket fits a worker's
    heap (the exchange sizes its bucket count from the input's bytes);
    a single pathological key with more rows than a heap needs a
    time-coarse pre-split, which gap semantics forbid automating
    (sessions may cross any fixed boundary).
    """
    from feast_ray.stages.dedup import bucketed_group_reduce

    if not keys:
        raise ValueError("session_agg requires at least one key column")
    _PD_FN = {"mean": "mean", "avg": "mean", "count_distinct": "nunique",
              "sum": "sum", "min": "min", "max": "max", "std": "std",
              "var": "var", "count": "count"}

    def _sessions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([*keys, ts_col], kind="stable")
        # NULL keys form their own partition (grouped_agg's
        # dropna=False doctrine; SQL window PARTITION BY keeps NULLs):
        # NaN != NaN is True, so a plain shift-compare would split
        # every consecutive null-key pair — treat both-null as equal.
        cur, prev = df[keys], df[keys].shift()
        key_change = (cur.ne(prev) & ~(cur.isna() & prev.isna())).any(axis=1)
        dt = df[ts_col] - df[ts_col].shift()
        df = df.assign(__sid=(key_change | (dt > gap)).cumsum())
        agg_kwargs: dict = {
            start_col: (ts_col, "min"),
            end_col: (ts_col, "max"),
        }
        for s in specs:
            if s.fn == "count" and s.col is None:
                agg_kwargs[s.alias] = (ts_col, "size")
            else:
                agg_kwargs[s.alias] = (s.col, _PD_FN[s.fn])
        out = df.groupby(
            [*keys, "__sid"], as_index=False, sort=False, dropna=False
        ).agg(**agg_kwargs)
        return out.drop(columns="__sid")

    return bucketed_group_reduce(ds, keys, _sessions)


def rollup_agg(
    ds: "ray.data.Dataset",
    keys: list[str],
    specs: "list[AggSpec]",
) -> "ray.data.Dataset":
    """GROUP BY ROLLUP for ALGEBRAIC specs (sum/count/min/max): the
    finest level is ONE ``grouped_agg`` over the corpus; every coarser
    level re-aggregates that (small) result instead of re-scanning the
    input — count becomes a sum of counts, sum/min/max compose with
    themselves. Rolled-up key columns come back NULL (the SQL ROLLUP
    convention, so DuckDB's ``group by rollup`` is the oracle).

    Scale shape: the input is shuffled exactly once (the finest
    grouped_agg's combiner exchange); levels 0..n−1 run over the
    finest AGGREGATE, whose size is the group count, not the corpus.
    """
    import pyarrow as _pa

    for s in specs:
        if s.fn not in ("sum", "count", "min", "max"):
            raise ValueError(f"rollup_agg needs algebraic fns, got {s.fn!r}")
    finest = grouped_agg(ds, keys, specs).materialize()
    key_types = {
        f.name: f.type
        for f in _dataset_arrow_schema(finest)
        if f.name in keys
    }
    reagg = [AggSpec(s.alias, "sum" if s.fn in ("sum", "count") else s.fn,
                     s.alias) for s in specs]
    out_cols = keys + [s.alias for s in specs]

    def _pad(missing: list[str]):
        def _fn(t: _pa.Table) -> _pa.Table:
            for m in missing:
                t = t.append_column(m, _pa.nulls(len(t), key_types[m]))
            # restore count dtype lost to the re-sum
            cols = {}
            for s in specs:
                col = t[s.alias]
                if s.fn == "count":
                    col = col.cast(_pa.int64())
                cols[s.alias] = col
            arrays = [cols.get(c, t[c]) for c in out_cols]
            return _pa.table(dict(zip(out_cols, arrays)))
        return _fn

    levels = [finest.map_batches(_pad([]), batch_format="pyarrow")]
    for depth in range(len(keys) - 1, -1, -1):
        lvl = grouped_agg(finest, keys[:depth], reagg)
        levels.append(lvl.map_batches(_pad(keys[depth:]),
                                      batch_format="pyarrow"))
    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def _dataset_arrow_schema(ds: "ray.data.Dataset"):
    from feast_ray.stages.join import dataset_schema

    return dataset_schema(ds)


def cube_agg(
    ds: "ray.data.Dataset",
    keys: list[str],
    specs: "list[AggSpec]",
) -> "ray.data.Dataset":
    """GROUP BY CUBE for algebraic specs: every one of the 2^k key
    subsets, with rolled-up keys NULL (so DuckDB's ``group by cube``
    is the oracle verbatim).  Same doctrine as ``rollup_agg``: the
    corpus is shuffled exactly ONCE (the finest grouped_agg); all
    2^k − 1 coarser levels re-aggregate that small result — count
    composes as sum-of-counts, sum/min/max with themselves.

    Scale shape: coarser-level cost is O(2^k × |finest|); k is the
    report dimensionality (2–4), |finest| the group count — never the
    corpus.
    """
    for s in specs:
        if s.fn not in ("sum", "count", "min", "max"):
            raise ValueError(f"cube_agg needs algebraic fns, got {s.fn!r}")
    finest = grouped_agg(ds, keys, specs).materialize()
    key_types = {
        f.name: f.type
        for f in _dataset_arrow_schema(finest)
        if f.name in keys
    }
    reagg = [AggSpec(s.alias, "sum" if s.fn in ("sum", "count") else s.fn,
                     s.alias) for s in specs]
    out_cols = keys + [s.alias for s in specs]

    def _pad(missing: list[str]):
        def _fn(t: pa.Table) -> pa.Table:
            for m in missing:
                t = t.append_column(m, pa.nulls(len(t), key_types[m]))
            cols = {}
            for s in specs:
                col = t[s.alias]
                if s.fn == "count":
                    col = col.cast(pa.int64())
                cols[s.alias] = col
            arrays = [cols.get(c, t[c]) for c in out_cols]
            return pa.table(dict(zip(out_cols, arrays)))
        return _fn

    levels = [finest.map_batches(_pad([]), batch_format="pyarrow")]
    for mask in range((1 << len(keys)) - 2, -1, -1):
        subset = [k for i, k in enumerate(keys) if mask & (1 << i)]
        missing = [k for i, k in enumerate(keys) if not mask & (1 << i)]
        lvl = grouped_agg(finest, subset, reagg)
        levels.append(lvl.map_batches(_pad(missing), batch_format="pyarrow"))
    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def grouping_sets_agg(
    ds: "ray.data.Dataset",
    keys: list[str],
    sets: "list[list[str]]",
    specs: "list[AggSpec]",
) -> "ray.data.Dataset":
    """GROUP BY GROUPING SETS for algebraic specs — the general form
    ROLLUP and CUBE are special cases of: the caller names exactly the
    key subsets wanted. Same one-shuffle doctrine as ``rollup_agg`` /
    ``cube_agg``: ONE ``grouped_agg`` over the corpus at the finest
    level (the union of all requested keys), then every requested set
    re-aggregates that small result (count → sum of counts, sum/min/max
    compose with themselves); keys absent from a set come back NULL, so
    DuckDB's ``group by grouping sets (...)`` is the oracle verbatim.

    Scale shape: the input is shuffled exactly once; per-set cost is
    O(|finest|) = the finest group count, never the corpus. A set equal
    to ``keys`` reuses the finest aggregate directly.
    """
    for s in specs:
        if s.fn not in ("sum", "count", "min", "max"):
            raise ValueError(
                f"grouping_sets_agg needs algebraic fns, got {s.fn!r}")
    keyset = set(keys)
    for st in sets:
        extra = set(st) - keyset
        if extra:
            raise ValueError(
                f"grouping set {st!r} uses keys outside {keys}: {extra}")
        if len(set(st)) != len(st):
            raise ValueError(f"grouping set {st!r} repeats a key")
    finest = grouped_agg(ds, keys, specs).materialize()
    key_types = {
        f.name: f.type
        for f in _dataset_arrow_schema(finest)
        if f.name in keys
    }
    reagg = [AggSpec(s.alias, "sum" if s.fn in ("sum", "count") else s.fn,
                     s.alias) for s in specs]
    out_cols = keys + [s.alias for s in specs]

    def _pad(missing: list[str]):
        def _fn(t: pa.Table) -> pa.Table:
            for m in missing:
                t = t.append_column(m, pa.nulls(len(t), key_types[m]))
            cols = {}
            for s in specs:
                col = t[s.alias]
                if s.fn == "count":
                    col = col.cast(pa.int64())
                cols[s.alias] = col
            arrays = [cols.get(c, t[c]) for c in out_cols]
            return pa.table(dict(zip(out_cols, arrays)))
        return _fn

    levels = []
    for st in sets:
        missing = [k for k in keys if k not in st]
        lvl = finest if set(st) == keyset else grouped_agg(finest, list(st),
                                                           reagg)
        levels.append(lvl.map_batches(_pad(missing), batch_format="pyarrow"))
    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def _disc_quantile_index(n: int, q: float) -> int:
    """0-based index of the discrete quantile: the smallest i with
    cume_dist (i+1)/n >= q — SQL's PERCENTILE_DISC / DuckDB's
    quantile_disc definition, replicated with the same float64
    division so boundary cases (q*n an exact integer) agree
    bit-for-bit with the oracle."""
    import math

    i = min(max(int(math.ceil(q * n)) - 1, 0), n - 1)
    while i > 0 and i / n >= q:
        i -= 1
    while i < n - 1 and (i + 1) / n < q:
        i += 1
    return i


def grouped_quantile(
    ds: "ray.data.Dataset",
    keys: list[str],
    col: str,
    qs: "dict[str, float]",
    interpolate: bool = False,
) -> "ray.data.Dataset":
    """EXACT per-group discrete quantiles (SQL PERCENTILE_DISC WITHIN
    GROUP): groups co-locate via the auto-bucketed exchange, each
    group sorts its values once and reads every requested quantile
    from the sorted array — one shuffle, all quantiles.

    Partitioning assumption (same as every bucketed op): one KEY's
    rows fit a worker — keys are sources/hosts/languages, not the
    corpus. The global-exact path for corpus-wide quantiles is the
    q109 histogram-refinement selection (``functions/selection.py``),
    which never sorts; this is the per-group companion.

    ``qs``: {output_alias: quantile in (0, 1]}. Nulls in ``col`` are
    excluded (SQL semantics); a group with only nulls emits null.

    ``interpolate=True`` switches to PERCENTILE_CONT semantics
    (DuckDB quantile_cont): position q·(n−1) over the sorted values,
    linear interpolation ``(1−frac)·v_lo + frac·v_hi`` — the same
    float64 ops as DuckDB's implementation, verified bit-for-bit, so
    float outputs hash-match the oracle. Output dtype is float64.
    """
    import numpy as _np
    import pandas as _pd

    from feast_ray.stages.dedup import bucketed_group_reduce

    def _per_bucket(df: "_pd.DataFrame") -> "_pd.DataFrame":
        if not len(df):
            out = df[keys].copy()
            for a in qs:
                out[a] = _pd.Series([], dtype=df.dtypes.get(col, "float64"))
            return out
        rows = []
        for kv, g in df.groupby(keys, sort=False):
            vals = _np.sort(g[col].dropna().to_numpy())
            kv = kv if isinstance(kv, tuple) else (kv,)
            rec = dict(zip(keys, kv))
            for a, q in qs.items():
                if not len(vals):
                    rec[a] = None
                elif interpolate:
                    pos = q * (len(vals) - 1)
                    lo = int(_np.floor(pos))
                    hi = min(lo + 1, len(vals) - 1)
                    frac = pos - lo
                    # DuckDB interpolates (1−f)·lo + f·hi — NOT
                    # lo + f·(hi−lo); the two differ by an ulp on
                    # ~5% of integer inputs (verified over 2400
                    # random cases: this form matches exactly)
                    rec[a] = ((1.0 - frac) * float(vals[lo])
                              + frac * float(vals[hi]))
                else:
                    rec[a] = vals[_disc_quantile_index(len(vals), q)]
            rows.append(rec)
        return _pd.DataFrame(rows)

    return bucketed_group_reduce(ds, keys, _per_bucket)


def pivot_agg(
    ds: "ray.data.Dataset",
    index: str,
    pivot: str,
    spec: "AggSpec",
    max_pivot_values: int = 1000,
) -> "ray.data.Dataset":
    """PIVOT: one row per ``index`` value, one float64 column per
    distinct ``pivot`` value (named by the value), cells the
    aggregated ``spec`` — NULL where the (index, pivot) combination
    has no rows, matching DuckDB's ``PIVOT ... USING agg(...)``.

    Scale shape: the corpus is reduced by ONE grouped_agg on
    (index, pivot), then the reshape runs per bucket of index values
    over that small aggregate (``bucketed_group_reduce``). The
    pivot-value set is collected driver-side from the AGGREGATE (bounded by
    ``max_pivot_values``; a pivot is only meaningful when the column
    set fits a schema — wide fan-outs should stay long-format).
    """
    finest = grouped_agg(ds, [index, pivot], [spec]).materialize()
    vals = sorted({
        r[pivot]
        for r in finest.select_columns([pivot]).take_all()
    })
    if len(vals) > max_pivot_values:
        raise ValueError(
            f"pivot column {pivot!r} has {len(vals)} distinct values "
            f"(> {max_pivot_values}); keep long format at this fan-out")
    val_cols = [str(v) for v in vals]

    def _reshape(df: pd.DataFrame) -> pd.DataFrame:
        wide = df.pivot(index=index, columns=pivot, values=spec.alias)
        wide = wide.reindex(columns=vals)
        wide.columns = val_cols
        wide = wide.astype("float64").reset_index()
        return wide.astype({index: df[index].dtype})

    from feast_ray.stages.dedup import bucketed_group_reduce

    return bucketed_group_reduce(finest, [index], _reshape)


def grouped_string_agg(
    ds: "ray.data.Dataset",
    keys: list[str],
    val_col: str,
    order_by: list[str],
    sep: str = ",",
    alias: str = "agg",
) -> "ray.data.Dataset":
    """Ordered per-group concatenation — SQL's
    ``string_agg(val, sep ORDER BY ...)`` — the one HOLISTIC aggregate
    shape the two-phase partial/final path cannot express (the result
    depends on the total order of every element): groups co-locate
    through ONE bucketed exchange, each bucket sorts once by
    (keys, order_by) and joins vectorized per group. The user-journey /
    path-analysis primitive (per-user ordered event-type strings).

    Partitioning assumption (the standard bucketed-op contract): one
    KEY's rows fit a worker. ``order_by`` must be a total order within
    a key (add a unique id) or the concatenation is not well-defined.
    """
    import pandas as _pd

    from feast_ray.stages.dedup import bucketed_group_reduce

    def _agg(df: "_pd.DataFrame") -> "_pd.DataFrame":
        if not len(df):
            out = df[keys].copy()
            out[alias] = _pd.Series([], dtype=object)
            return out
        df = df.sort_values(keys + order_by, kind="stable")
        g = df.groupby(keys, sort=False)[val_col].agg(sep.join)
        return g.reset_index().rename(columns={val_col: alias})

    return bucketed_group_reduce(ds, keys, _agg)
