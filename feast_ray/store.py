"""Store — the FeatureStore entry-point surface, Ray-Data-native.

Reproduces the reference's three primary entry points (SURVEY.md §3):

- ``materialize(start, end)`` (feature_store.py:2788-2930 →
  ray/compute.py:92-139): per view, compile Source→[Transform]→
  [Filter]→(Agg|Dedup) as ONE lazy Dataset, keep latest row per
  entity, upsert into the online plane, record the watermark interval
  in the registry (feature_view.py:482-491). ``materialize_incremental``
  resumes from the last watermark (feature_store.py:2546-2630).
- ``get_historical_features(entity_df, features)``
  (feature_store.py:1942-2142; Dask spec dask.py:146-365): per view, a
  backward as-of join of features onto the entity frame with TTL
  window and (event_ts, created_ts) tie-breaks; keyless views cross
  join (dask.py:1093-1120); output columns optionally prefixed
  ``view__feature`` (ray_shared_utils.py:456-461).
- ``push(view, df)`` / ``get_online_features``
  (feature_store.py:3338-3404, :3622): ingest rows → latest-per-key
  upsert into the online plane; point lookups assemble values per key
  (online_store.py:107-155).

The "online store" here is the engine's KV analog per SURVEY §1.3: a
partitioned Parquet directory per view keyed by join key, rewritten by
latest-wins upsert — queryable both as a Dataset and by point lookup.
"""

from __future__ import annotations

import json
import os
import uuid
from datetime import datetime

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from feast_ray.sources.parquet import read_table
from feast_ray.stages.aggregate import grouped_agg, windowed_agg
from feast_ray.stages.dedup import _latest_per_key, add_hash_bucket
from feast_ray.stages.filters import filter_mask
from feast_ray.stages.join import asof_join, cross_join
from feast_ray.views import FeatureService, OnDemandView, TableSource, View


class OnlineParquetStore:
    """Latest-per-key KV plane as hash-partitioned Parquet (one dir per
    view, one subdirectory per key-hash bucket). Upsert APPENDS one
    sequence-numbered delta file to each touched bucket (worker tasks
    in parallel — the reference writes online batches worker-side the
    same way, ray/nodes.py:864-908), so write cost scales with the
    DELTA, never the bucket (the previous read-merge-rewrite paid the
    whole bucket per push). Buckets compact back to one base file when
    they exceed ``COMPACT_FILES`` — the LSM shape: bounded read fan-in
    (lookup latency flat under repeated pushes), bounded write
    amplification (one full-bucket rewrite per ``COMPACT_FILES``
    appends). Readers merge base+deltas with last-write-wins by
    (event_ts, created_ts) — the reference's online semantics
    (online_store.py:44-130) — with file sequence breaking exact ties
    (later upsert wins). Every last-write-wins step (delta thinning,
    merge-on-read, compaction, the latest-window pick in ``lookup``)
    runs ``keep_latest``'s Arrow kernel ``_latest_per_key``, so column
    types never pass through pandas. The merge recipe (keys, ordering)
    persists in ``_meta.json`` per view so name-only readers (``read``,
    the CLI) can merge."""

    NUM_BUCKETS = 16
    #: compact a bucket once it holds more than this many files
    COMPACT_FILES = 8

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _dir(self, view: str) -> str:
        return os.path.join(self.root, view)

    # ---------------------------------------------------------- LSM

    def _meta(self, view_name: str) -> "dict | None":
        p = os.path.join(self._dir(view_name), "_meta.json")
        if not os.path.exists(p):
            return None
        import json

        with open(p) as f:
            return json.load(f)

    @staticmethod
    def _view_meta(view: "View") -> dict:
        """The merge recipe upsert() persists as ``_meta.json``,
        derived from the View alone — the fallback for pre-LSM stores
        whose bucket dirs predate the meta file."""
        has_ts = view.timestamp_field is not None and not view.aggregations
        ts = view.timestamp_field if has_ts else "__mat_gen"
        created = view.created_timestamp_column if has_ts else None
        return {
            "upsert_keys": view.join_keys + (["window_start"] if view.window else []),
            "order_by": [ts] + ([created] if created else []),
            "has_ts": has_ts,
        }

    @staticmethod
    def _bucket_files(bdir: str) -> "list[tuple[int, str]]":
        """(seq, path) of a bucket's parquet files, merge order.
        Legacy single ``data.parquet`` (pre-LSM layout) reads as seq 0;
        ties (a compacted base beside the same-seq delta it merged)
        order base-first — their overlapping keys carry equal values,
        so the winner is immaterial."""
        out = []
        for f in sorted(os.listdir(bdir)):
            if not f.endswith(".parquet"):
                continue
            stem = f[: -len(".parquet")]
            if stem == "data":
                out.append((0, os.path.join(bdir, f)))
                continue
            # delta_{seq}[_{uuid}] / base_{seq}[_{uuid}]: the seq is
            # the first all-digit token (uuid suffix makes concurrent
            # same-seq writers collision-free; ordering stays seq-first)
            seq = next(
                (int(tok) for tok in stem.split("_")[1:] if tok.isdigit()), 0
            )
            out.append((seq, os.path.join(bdir, f)))
        out.sort(key=lambda t: (t[0], t[1]))
        return out

    @staticmethod
    def _merge_files(files: "list[tuple[int, str]]", meta: dict) -> pa.Table:
        """Merge-on-read: concat in sequence order, last-write-wins.
        ``permissive`` promotion lets files whose column types drifted
        (an int64 feature written as double by an older pandas-based
        writer) still merge. Raises FileNotFoundError if a listed file
        vanished (a concurrent compaction's os.remove) — the caller
        re-lists and retries; skipping here would silently drop the
        rows the compactor folded into a base written AFTER our
        listing."""
        tbls = []
        for seq, path in files:
            tbl = pq.read_table(path)
            if not meta["has_ts"]:
                # no event timestamp: the file sequence IS the ordering
                tbl = tbl.append_column("__mat_gen", pa.array(np.full(len(tbl), seq)))
            tbls.append(tbl)
        tbl = pa.concat_tables(tbls, promote_options="permissive")
        drop = () if meta["has_ts"] else ("__mat_gen",)
        return _latest_per_key(meta["upsert_keys"], meta["order_by"], drop=drop)(tbl)

    def _read_bucket(self, bdir: str, meta: dict) -> "pa.Table | None":
        # a concurrent compaction can remove a delta between our
        # listing and its read — re-list and retry (the fresh listing
        # holds the base the compactor wrote first)
        for _ in range(3):
            files = self._bucket_files(bdir)
            if not files:
                return None
            try:
                return self._merge_files(files, meta)
            except FileNotFoundError:
                continue
        files = self._bucket_files(bdir)
        if not files:  # bucket emptied while we retried (code-review r4)
            return None
        return self._merge_files(files, meta)

    def upsert(self, view: View, ds: ray.data.Dataset) -> int:
        out = self._dir(view.name)
        os.makedirs(out, exist_ok=True)
        # merge recipe (keys / ordering / has_ts) derives from the
        # View — see _view_meta; windowed views key on
        # (entities, window_start): each window is its own online row
        upsert_keys = view.join_keys + (["window_start"] if view.window else [])

        if not upsert_keys:
            # keyless global row set: replace wholesale
            tmp = out + ".tmp"
            import shutil

            shutil.rmtree(tmp, ignore_errors=True)
            ds.write_parquet(tmp)
            shutil.rmtree(out, ignore_errors=True)
            os.replace(tmp, out)
            return 1

        nb = self.NUM_BUCKETS
        bucketed = ds.map_batches(
            lambda t: add_hash_bucket(t, upsert_keys, nb, col="__ob"),
            batch_format="pyarrow",
        )
        meta = self._view_meta(view)
        order_by = meta["order_by"]
        import json

        with open(os.path.join(out, "_meta.json"), "w") as f:
            json.dump(meta, f)
        view_dir = out
        compact_files = self.COMPACT_FILES
        bucket_files = self._bucket_files
        merge_files = self._merge_files

        def _append_bucket(bucket: int, tbl: pa.Table) -> pa.Table:
            """One task per touched bucket: thin the delta to latest-
            per-key, APPEND it as the next sequence-numbered file
            (atomic tmp+rename), compact past the file threshold.
            Never reads the bucket on the append path — write cost is
            O(delta), a full-bucket rewrite happens once per
            COMPACT_FILES appends."""
            # no-timestamp views order by the FILE sequence (assigned
            # at read) — within a batch, row order breaks ties
            sort_cols = [c for c in order_by if c in tbl.column_names]
            tbl = _latest_per_key(upsert_keys, sort_cols)(tbl)
            n_new = len(tbl)
            bdir = os.path.join(view_dir, f"bucket={bucket}")
            os.makedirs(bdir, exist_ok=True)
            files = bucket_files(bdir)
            seq = (files[-1][0] + 1) if files else 0
            # uuid suffix: two concurrent upserts that list the same
            # tail compute the same seq — distinct names keep both
            # (merge order: seq, then path; equal-seq rows are
            # concurrent writes with no defined order between them)
            path = os.path.join(
                bdir, f"delta_{seq:012d}_{uuid.uuid4().hex[:8]}.parquet"
            )
            tmp = path + ".tmp"
            pq.write_table(tbl, tmp)
            os.replace(tmp, path)
            files.append((seq, path))
            if len(files) > compact_files:
                merged = merge_files(files, meta)
                base = os.path.join(
                    bdir, f"base_{seq:012d}_{uuid.uuid4().hex[:8]}.parquet"
                )
                tmp = base + ".tmp"
                pq.write_table(merged, tmp)
                os.replace(tmp, base)
                # a crash here leaves the merged base beside its inputs
                # — merge-on-read stays correct (equal values dedup)
                for _, p in files:
                    if p != base:
                        os.remove(p)
            return pa.table({"bucket": [bucket], "rows": [n_new]})

        from feast_ray.stages.exchange import bucket_exchange

        # raw bucketed exchange (round 5, VERDICT r4 #8): partition-only
        # — the per-bucket sort happens inside _append_bucket anyway, so
        # a sort shuffle would pay for an ordering the reducer redoes
        stats_schema = pa.schema([("bucket", pa.int64()), ("rows", pa.int64())])

        def _append_reduce(b: int, parts: list) -> pa.Table:
            tbls = [p for p in parts if len(p)]
            if not tbls:
                return stats_schema.empty_table()
            tbl = pa.concat_tables(tbls, promote_options="default")
            return _append_bucket(b, tbl).cast(stats_schema)

        stats = bucket_exchange(
            bucketed, "__ob", nb, _append_reduce,
            fallback=lambda: ray.data.from_arrow(_append_reduce(0, [])),
        ).to_pandas()
        if len(stats) == 0 or "rows" not in stats.columns:
            return 0  # empty input (e.g. incremental run with no new rows)
        return int(stats["rows"].sum())

    def read_ds(self, view_name: str) -> "ray.data.Dataset":
        """DISTRIBUTED merge-on-read: one Ray task per bucket directory
        runs ``_read_bucket`` — the driver reader's merge — inside the
        cluster, so the view never assembles on the driver (e.g. an
        embedding store behind ANN retrieval). Upsert routes every key
        to one bucket directory, so buckets merge independently; as in
        compaction, one bucket must fit in one task. Rows, columns and
        types equal ``read``'s."""
        d = self._dir(view_name)
        meta = self._meta(view_name)
        bdirs = sorted(
            os.path.join(d, f)
            for f in os.listdir(d)
            if f.startswith("bucket=") and os.path.isdir(os.path.join(d, f))
        )
        if meta is None or not bdirs:
            return ray.data.from_arrow(self.read(view_name))

        def _merge_bucket(bdir: str) -> pa.Table:
            tbl = self._read_bucket(bdir, meta)
            # a bucket emptied after the listing contributes no rows
            return pa.table({}) if tbl is None else tbl

        task = ray.remote(_merge_bucket)
        return ray.data.from_arrow_refs([task.remote(b) for b in bdirs])

    def read(self, view_name: str) -> pa.Table:
        d = self._dir(view_name)
        meta = self._meta(view_name)
        bdirs = sorted(
            f for f in os.listdir(d)
            if f.startswith("bucket=") and os.path.isdir(os.path.join(d, f))
        )
        if meta is None or not bdirs:
            # keyless wholesale-replaced view (or legacy layout)
            tbl = pq.read_table(d, ignore_prefixes=[".", "_"])
            drop = [c for c in ("bucket", "__mat_gen") if c in tbl.column_names]
            return tbl.drop_columns(drop) if drop else tbl
        tbls = [self._read_bucket(os.path.join(d, b), meta) for b in bdirs]
        return pa.concat_tables(
            [t for t in tbls if t is not None], promote_options="permissive"
        )

    def lookup(self, view: View, entity_rows: list[dict]) -> pd.DataFrame:
        """Point lookup: entity key dicts → latest feature values.
        Reads only the buckets the requested keys hash into. Keyless
        (global) views read the flat wholesale-replaced directory;
        windowed views are bucketed by (keys, window_start) — read
        every bucket, return the LATEST window row per key."""
        req = pd.DataFrame(entity_rows)
        if not view.join_keys:
            # keyless view: one global row set, broadcast onto requests
            d = self._dir(view.name)
            if not os.path.isdir(d) or not os.listdir(d):
                return req.reindex(columns=list(req.columns) + view.features)
            g = pq.read_table(d).to_pandas().tail(1).reset_index(drop=True)
            for c in g.columns:
                req[c] = g.loc[0, c]
            return req
        if view.window:
            # upsert bucketed on (keys, window_start) — probe all
            buckets = list(range(self.NUM_BUCKETS))
        else:
            # Arrow keeps a None key a null in an int64 column; pandas
            # would turn the whole column float64 and hash every int key
            # to another bucket than upsert wrote it to
            keyed = add_hash_bucket(
                pa.Table.from_pylist(entity_rows).select(view.join_keys),
                view.join_keys, self.NUM_BUCKETS, col="__ob",
            )
            buckets = sorted(set(keyed["__ob"].to_pylist()))
        # a store written before the LSM layout has bucket dirs but no
        # _meta.json — synthesize the merge recipe from the View (the
        # same derivation upsert() persists), mirroring read()'s
        # legacy fallback instead of returning all-null features
        meta = self._meta(view.name) or self._view_meta(view)
        tbls = []
        for b in buckets:
            bdir = os.path.join(self._dir(view.name), f"bucket={b}")
            if os.path.isdir(bdir):
                tbl = self._read_bucket(bdir, meta)
                if tbl is not None:
                    tbls.append(tbl)
        if not tbls:
            return req.reindex(columns=list(req.columns) + view.features)
        tbl = pa.concat_tables(tbls, promote_options="permissive")
        if view.window and "window_start" in tbl.column_names:
            tbl = _latest_per_key(view.join_keys, ["window_start"])(tbl)
        return req.merge(tbl.to_pandas(), on=view.join_keys, how="left")


class Store:
    """Registry + offline/online planes rooted at ``repo_dir``;
    source tables resolve against ``data_dir`` (an sf_dir)."""

    #: feature views whose source exceeds this are NOT pulled to the
    #: driver for historical retrieval — they go down the distributed
    #: co-partitioned as-of path instead (the reference's broadcast
    #: size gate, infra/compute_engines/ray/nodes.py:182-199, 100 MB)
    BROADCAST_THRESHOLD_BYTES = 100 * 1024 * 1024

    def __init__(
        self,
        repo_dir: str,
        data_dir: str,
        broadcast_threshold_bytes: int | None = None,
    ):
        self.repo_dir = repo_dir
        self.data_dir = data_dir
        os.makedirs(repo_dir, exist_ok=True)
        self.online = OnlineParquetStore(os.path.join(repo_dir, "online"))
        self.registry_path = os.path.join(repo_dir, "registry.json")
        self.views: dict[str, View] = {}
        self.services: dict[str, FeatureService] = {}
        self.on_demand_views: dict[str, OnDemandView] = {}
        from feast_ray.permissions import SecurityManager

        #: role-based enforcement (open until Permissions are applied)
        self.security = SecurityManager()
        if broadcast_threshold_bytes is not None:
            self.BROADCAST_THRESHOLD_BYTES = broadcast_threshold_bytes

    # ------------------------------------------------------------ apply

    def apply(self, objects: list) -> None:
        """Register views/services/permissions (the reference's
        `feast apply`, feature_store.py:1556 — declarative catalog
        update). Each object is authorized as CREATE or UPDATE against
        the permissions in force when the call started
        (feast/permissions/enforcer.py semantics)."""
        from feast_ray.permissions import (
            Action,
            Permission,
            current_user,
            enforce_policy,
        )

        # one apply() is atomic w.r.t. enforcement: every object —
        # including new Permission objects — is authorized against the
        # permissions in force when the call STARTED (otherwise the
        # first permission in a bootstrap batch would lock out the
        # second)
        snapshot = list(self.security.permissions)

        def guard(obj, act):
            if snapshot:
                enforce_policy(snapshot, current_user(), [obj], [act])

        for obj in objects:
            name = getattr(obj, "name", None)
            if isinstance(obj, Permission):
                registered = any(
                    q.name == name for q in self.security.permissions
                )
                guard(obj, Action.UPDATE if registered else Action.CREATE)
                self.security.permissions = [
                    q for q in self.security.permissions if q.name != name
                ] + [obj]
                continue
            registered = (
                name in self.views
                or name in self.services
                or name in self.on_demand_views
            )
            guard(obj, Action.UPDATE if registered else Action.CREATE)
            if isinstance(obj, View):
                self.views[obj.name] = obj
            elif isinstance(obj, OnDemandView):
                self.on_demand_views[obj.name] = obj
            elif isinstance(obj, FeatureService):
                self.services[obj.name] = obj
        self._save_registry()

    @staticmethod
    def _object_fingerprint(obj) -> str:
        """Stable content hash of a registry object's DEFINITION —
        schema, ttl, source, agg specs, udf bytecode — so plan() can
        tell a *changed* object from an unchanged one (the reference's
        object-level diff, diff/registry_diff.py:38,253 diff_between)."""
        import hashlib

        def _norm(v):
            if callable(v):
                code = getattr(v, "__code__", None)
                if code is None:
                    return "fn:" + repr(v)
                # bytecode alone misses constant/name/closure changes
                # (lambda t: t*2 vs t*3 share co_code) — hash those too
                payload = (
                    code.co_code
                    + repr(code.co_consts).encode()
                    + repr(code.co_names).encode()
                    + repr(getattr(v, "__defaults__", None)).encode()
                    + repr(getattr(v, "__kwdefaults__", None)).encode()
                    + repr(
                        tuple(
                            getattr(c, "cell_contents", None)
                            for c in (getattr(v, "__closure__", None) or ())
                        )
                    ).encode()
                )
                return "fn:" + hashlib.sha256(payload).hexdigest()[:16]
            if isinstance(v, (list, tuple)):
                return [_norm(x) for x in v]
            if isinstance(v, dict):
                return {k: _norm(x) for k, x in sorted(v.items())}
            if hasattr(v, "__dataclass_fields__"):
                return {
                    k: _norm(getattr(v, k)) for k in sorted(v.__dataclass_fields__)
                }
            return repr(v)

        return hashlib.sha256(
            json.dumps(_norm(obj), sort_keys=True, default=repr).encode()
        ).hexdigest()

    def plan(self, objects: list) -> dict:
        """Dry-run OBJECT-LEVEL diff against the registry (the
        reference's `feast plan`, feature_store.py:1370 +
        diff/registry_diff.py:253 `diff_between`): what apply() would
        add, UPDATE (definition changed — detected by content
        fingerprint, not just name), leave unchanged, or keep."""
        existing_objs: dict[str, object] = {
            **self.views, **self.services, **self.on_demand_views
        }
        to_add, to_update, unchanged = [], [], []
        for o in objects:
            if o.name not in existing_objs:
                to_add.append(o.name)
            elif self._object_fingerprint(o) != self._object_fingerprint(
                existing_objs[o.name]
            ):
                to_update.append(o.name)
            else:
                unchanged.append(o.name)
        incoming = {o.name for o in objects}
        return {
            "to_add": sorted(to_add),
            "to_update": sorted(to_update),
            "unchanged": sorted(unchanged),
            "untouched": sorted(set(existing_objs) - incoming),
        }

    def teardown(self) -> None:
        """Remove all materialized state (online plane + registry) —
        the reference's `feast teardown`."""
        import shutil

        from feast_ray.permissions import Action

        for view in self.views.values():
            self._guard(view, Action.DELETE)

        shutil.rmtree(self.online.root, ignore_errors=True)
        os.makedirs(self.online.root, exist_ok=True)
        if os.path.exists(self.registry_path):
            os.remove(self.registry_path)

    def _write_registry(self, reg: dict) -> None:
        """Atomic registry write (tmp + os.replace) — a crash mid-dump
        must never leave a truncated registry.json that bricks every
        subsequent load (code-review r2 finding)."""
        tmp = f"{self.registry_path}.{os.getpid()}.tmp"
        with open(tmp, "w") as f:
            json.dump(reg, f, indent=1, sort_keys=True, default=str)
        os.replace(tmp, self.registry_path)

    def _save_registry(self) -> None:
        from feast_ray.views import service_to_dict, view_to_dict

        reg = self._load_registry()
        reg["views"] = sorted(self.views)
        reg["services"] = sorted(self.services)
        # full object specs (the reference registry persists protos,
        # infra/registry/file.py; JSON specs here) — what the remote
        # registry serves and a fresh process rebuilds from
        reg["view_specs"] = {
            n: view_to_dict(v) for n, v in sorted(self.views.items())
        }
        reg["service_specs"] = {
            n: service_to_dict(s) for n, s in sorted(self.services.items())
        }
        self._write_registry(reg)

    def sync_from(self, remote) -> int:
        """Pull every view/service spec from a
        :class:`feast_ray.registry_server.RemoteRegistry` and apply it
        locally — the serving-replica bootstrap (replicas share the
        online plane on disk; the object catalog comes from the
        registry service). Returns the number of objects applied."""
        objs = [remote.get_view(n) for n in remote.list_views()]
        objs += [remote.get_service(n) for n in remote.list_services()]
        self.apply(objs)
        return len(objs)

    def load_applied(self) -> int:
        """Rebuild applied views/services from the registry specs —
        what a fresh process (a serving replica, the registry server's
        peer) does instead of re-running the apply script. Views whose
        spec recorded a Python ``udf`` come back with udf=None (the
        spec keeps ``udf_name``; sql/aggregation/window views rebuild
        fully — views.py serialization note). Returns the number of
        objects loaded."""
        from feast_ray.views import service_from_dict, view_from_dict

        reg = self._load_registry()
        n = 0
        for spec in (reg.get("view_specs") or {}).values():
            v = view_from_dict(spec)
            self.views[v.name] = v
            n += 1
        for spec in (reg.get("service_specs") or {}).values():
            s = service_from_dict(spec)
            self.services[s.name] = s
            n += 1
        return n

    def _load_registry(self) -> dict:
        if os.path.exists(self.registry_path):
            with open(self.registry_path) as f:
                return json.load(f)
        return {"views": [], "services": [], "watermarks": {}}

    # ----------------------------------------------------------- compile

    def build_view_ds(
        self,
        view: View,
        start: datetime | None = None,
        end: datetime | None = None,
    ) -> ray.data.Dataset:
        """Compile a view to a lazy Dataset: Source → [Transform] →
        [time Filter] → (Aggregate | passthrough). Derived views chain
        datasets directly (no disk round trip)."""
        src = view.source
        if isinstance(src, View):
            ds = self.build_view_ds(src, start, end)
        else:
            ts_range = (start, end) if (start or end) and src.timestamp_field else None
            if src.path:
                # explicit path overrides the {data_dir}/{table} layout
                ds = read_table(
                    src.path,
                    None,
                    field_mapping=src.field_mapping or None,
                    ts_col=src.timestamp_field,
                    ts_range=ts_range,
                )
            else:
                ds = read_table(
                    self.data_dir,
                    src.table or src.name,
                    field_mapping=src.field_mapping or None,
                    ts_col=src.timestamp_field,
                    ts_range=ts_range,
                )
        if view.udf is not None:
            from feast_ray.plugins import resolve_udf

            ds = ds.map_batches(resolve_udf(view.udf), batch_format="pyarrow")
        if view.sql is not None:
            # SQL transformation mode (reference sql_transformation.py)
            from feast_ray.stages.transform import sql_transform

            ds = sql_transform(ds, view.sql)
        if view.aggregations:
            ts = view.timestamp_field
            if view.window and ts:
                ds = windowed_agg(
                    ds, view.join_keys, ts, view.window, view.aggregations,
                    slide=view.slide,
                )
            else:
                ds = grouped_agg(ds, view.join_keys, view.aggregations)
        return ds

    def _view_source_bytes(self, view: View) -> int | None:
        """On-disk bytes of the view's base source — the cheap size
        estimate behind the broadcast-vs-distributed join gate (no
        execution triggered). None when not determinable."""
        src = view.source
        while isinstance(src, View):
            src = src.source
        p = src.path or os.path.join(
            self.data_dir, f"{src.table or src.name}.parquet"
        )
        if os.path.isfile(p):
            return os.path.getsize(p)
        if os.path.isdir(p):
            total = 0
            for root, _, files in os.walk(p):
                total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
            return total
        return None

    # -------------------------------------------------------- security

    def _guard(self, view_or_name, action) -> None:
        """Authorize ``action`` on a view (by object or registered
        name) for the contextvar current user — no-op until
        Permissions are applied (feast_ray.permissions docstring)."""
        if not self.security.permissions:
            return
        obj = (
            self.views.get(view_or_name)
            or self.on_demand_views.get(view_or_name)
            or self.services.get(view_or_name)
            or view_or_name
        ) if isinstance(view_or_name, str) else view_or_name
        self.security.assert_permissions(obj, action)

    def _guard_refs(self, features, action) -> None:
        """Authorize ``action`` on every view referenced by
        "view:feature" refs (or a FeatureService)."""
        if not self.security.permissions:
            return
        refs = list(features.features) if isinstance(
            features, FeatureService
        ) else features
        for vname in {r.split(":")[0] for r in refs}:
            self._guard(vname, action)

    # ------------------------------------------------------- materialize

    def write_to_offline_store(self, view_name: str, ds_or_df) -> str:
        """Append rows to the view's offline log (the reference's
        offline_write_batch / sink_source append,
        dask.py:572-610, feature_store.py:3796): one new parquet file
        per call in ``offline/<view>/`` — append-only, idempotent to
        replay at the file level."""
        from feast_ray.permissions import Action

        self._guard(view_name, Action.WRITE_OFFLINE)
        import uuid as _uuid

        path = os.path.join(self.repo_dir, "offline", view_name)
        os.makedirs(path, exist_ok=True)
        fname = os.path.join(path, f"batch_{_uuid.uuid4().hex[:12]}.parquet")
        if isinstance(ds_or_df, pd.DataFrame):
            pq.write_table(pa.Table.from_pandas(ds_or_df, preserve_index=False), fname)
        else:
            tbl = pa.Table.from_pandas(ds_or_df.to_pandas(), preserve_index=False)
            pq.write_table(tbl, fname)
        return fname

    def read_offline(self, view_name: str) -> ray.data.Dataset:
        """The view's offline log as a Dataset (derived views can chain
        from it — the sink_source read side)."""
        from feast_ray.permissions import Action

        self._guard(view_name, Action.READ_OFFLINE)
        return ray.data.read_parquet(os.path.join(self.repo_dir, "offline", view_name))

    def materialize(
        self,
        start: datetime | None = None,
        end: datetime | None = None,
        views: list[str] | None = None,
        offline: bool = False,
    ) -> dict[str, int]:
        """Offline→online load per view; records watermarks. With
        ``offline=True`` also appends each view's output to its offline
        log (sink_source materialization)."""
        from feast_ray.permissions import Action

        out = {}
        for name in views or list(self.views):
            view = self.views[name]
            if not view.online:
                continue
            self._guard(view, Action.WRITE_ONLINE)
            ds = self.build_view_ds(view, start, end)
            # upsert already returns the post-merge row count — re-reading
            # the whole online plane per view was O(store size) I/O
            out[name] = self.online.upsert(view, ds)
            if offline:
                self.write_to_offline_store(name, self.build_view_ds(view, start, end))
            reg = self._load_registry()
            reg.setdefault("watermarks", {}).setdefault(name, []).append(
                [str(start), str(end)]
            )
            self._write_registry(reg)
        return out

    def materialize_incremental(self, end: datetime, views: list[str] | None = None) -> dict[str, int]:
        """Resume each view from its most recent watermark end
        (feature_store.py:2546-2630)."""
        reg = self._load_registry()
        out = {}
        for name in views or list(self.views):
            marks = reg.get("watermarks", {}).get(name, [])
            start = None
            if marks:
                last_end = marks[-1][1]
                if last_end not in ("None", None):
                    start = datetime.fromisoformat(last_end)
            out.update(self.materialize(start, end, [name]))
        return out

    # --------------------------------------------- historical retrieval

    def get_historical_features(
        self,
        entity_df: pd.DataFrame | None,
        features: list[str] | FeatureService,
        entity_ts_col: str = "event_timestamp",
        full_feature_names: bool = False,
        start: datetime | None = None,
        end: datetime | None = None,
    ) -> ray.data.Dataset:
        """Point-in-time correct retrieval: for each referenced view,
        as-of join its rows (≤ entity ts, within ttl) onto the entity
        frame. ``features`` are "view:feature" refs or a FeatureService.

        Non-entity mode (entity_df=None): synthesize the entity frame
        from the referenced views' distinct keys in [start, end], each
        stamped with ``end`` (reference: dask.py:162-172,
        contrib/ray_offline_store/ray.py:2321-2345
        `_distinct_entities_for_feature_view_ray` + align/union)."""
        from feast_ray.permissions import Action

        self._guard_refs(features, Action.READ_OFFLINE)
        if isinstance(features, FeatureService):
            features = list(features.features)
        # resolve on-demand views: pull their source features in, run
        # their udfs after the joins (transform-at-collection,
        # on_demand_feature_view.py:1023-1099 transform_arrow/pandas)
        odfvs: list[OnDemandView] = []
        plain: list[str] = []
        for ref in features:
            vname = ref.split(":")[0]
            if vname in self.on_demand_views:
                odfv = self.on_demand_views[vname]
                if odfv not in odfvs:
                    odfvs.append(odfv)
                plain.extend(s for s in odfv.sources if s not in plain)
            else:
                plain.append(ref)
        features = plain
        if entity_df is None:
            if end is None:
                raise ValueError("non-entity mode requires end")
            frames = []
            for ref in features:
                view = self.views[ref.split(":")[0]]
                if not view.join_keys:
                    continue
                vds = self.build_view_ds(view, start, end)
                from feast_ray.stages.relational import distinct

                keys_df = distinct(
                    vds.select_columns(view.join_keys), view.join_keys
                ).to_pandas()
                frames.append(keys_df)
            if not frames:
                raise ValueError(
                    "non-entity retrieval needs at least one referenced view "
                    "with join keys (all referenced views are keyless/global; "
                    "pass an explicit entity_df instead)"
                )
            ent = pd.concat(frames, ignore_index=True).drop_duplicates().reset_index(drop=True)
            ent[entity_ts_col] = pd.Timestamp(end)
            entity_df = ent
        by_view: dict[str, list[str]] = {}
        for ref in features:
            v, f = ref.split(":")
            by_view.setdefault(v, []).append(f)

        result = ray.data.from_pandas(entity_df)
        for vname, feats in by_view.items():
            view = self.views[vname]
            # aggregation views collapse away the event timestamp —
            # their rows join as current state, not as-of
            has_ts = view.timestamp_field is not None and not view.aggregations
            ts = view.timestamp_field if has_ts else None
            created = view.created_timestamp_column if has_ts else None
            cols = [
                c
                for c in view.join_keys
                + ([ts] if ts else [])
                + ([created] if created else [])
                + feats
                if c is not None
            ]
            prefix = f"{vname}__" if full_feature_names else ""
            rename = {f: prefix + f for f in feats}
            src_bytes = self._view_source_bytes(view)
            big = (
                view.join_keys
                and src_bytes is not None
                and src_bytes > self.BROADCAST_THRESHOLD_BYTES
            )
            if big:
                # LARGE view: never materialize to the driver — stream
                # both sides down the distributed co-partitioned path
                # (reference gate: ray/nodes.py:182-199; windowed
                # distributed join ray_shared_utils.py:468-550)
                vds = self.build_view_ds(view).select_columns(cols)
                if any(k != v for k, v in rename.items()):
                    vds = vds.map_batches(
                        lambda t, m=dict(rename): t.rename_columns(
                            [m.get(c, c) for c in t.column_names]
                        ),
                        batch_format="pyarrow",
                    )
                if has_ts:
                    from feast_ray.stages.join import copartitioned_asof_join

                    result = copartitioned_asof_join(
                        result,
                        vds,
                        left_ts=entity_ts_col,
                        right_ts=ts,
                        by=view.join_keys,
                        ttl=view.ttl,
                        created_ts=created,
                        right_suffix=f"__{vname}_ts",
                    )
                    if ts != entity_ts_col:
                        result = result.map_batches(
                            lambda t, d=ts: t.drop_columns(
                                [c for c in (d,) if c in t.column_names]
                            ),
                            batch_format="pyarrow",
                        )
                else:
                    from feast_ray.stages.join import hash_join

                    result = hash_join(
                        result, vds, on=view.join_keys, how="left",
                        right_suffix=f"__{vname}_r",
                    )
                continue
            vds = self.build_view_ds(view)
            vdf = vds.to_pandas()[cols]
            vdf = vdf.rename(columns=rename)
            if view.join_keys and not has_ts:
                # keyed aggregation view: plain left join on the keys
                from feast_ray.stages.join import broadcast_join

                result = broadcast_join(result, vdf, on=view.join_keys, how="left")
            elif view.join_keys:
                result = asof_join(
                    result,
                    vdf,
                    left_ts=entity_ts_col,
                    right_ts=ts,
                    by=view.join_keys,
                    ttl=view.ttl,
                    created_ts=created,
                    right_suffix=f"__{vname}_ts",
                )
                drop = [ts] if ts != entity_ts_col else []
                if drop:
                    result = result.map_batches(
                        lambda t, d=tuple(drop): t.drop_columns(
                            [c for c in d if c in t.column_names]
                        ),
                        batch_format="pyarrow",
                    )
            else:
                # keyless/global view: cross join the (single-row) table
                result = cross_join(result, vdf.drop(columns=[c for c in [ts, created] if c]))
        for odfv in odfvs:
            fmt = "pandas" if odfv.mode == "pandas" else "pyarrow"
            result = result.map_batches(odfv.transform_fn(), batch_format=fmt)
        return result

    # -------------------------------------------- saved datasets / logs

    def create_saved_dataset(
        self, ds: ray.data.Dataset, name: str
    ) -> str:
        """Persist a retrieval result and register it (reference:
        saved_dataset.py, dask.py:105-140 persist path)."""
        path = os.path.join(self.repo_dir, "saved_datasets", name)
        import shutil

        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path, exist_ok=True)
        ds.write_parquet(path)
        reg = self._load_registry()
        reg.setdefault("saved_datasets", {})[name] = path
        self._write_registry(reg)
        return path

    def get_saved_dataset(self, name: str) -> ray.data.Dataset:
        reg = self._load_registry()
        return ray.data.read_parquet(reg["saved_datasets"][name])

    def log_features(
        self, ds: ray.data.Dataset, log_name: str, partition_col: str | None = None
    ) -> str:
        """Feature logging: append served features as partitioned
        parquet (reference: feast/feature_logging.py:28-170,
        dask.py:535-570 — date-partitioned log sink)."""
        path = os.path.join(self.repo_dir, "logs", log_name)
        os.makedirs(path, exist_ok=True)
        if partition_col:
            ds.write_parquet(path, partition_cols=[partition_col])
        else:
            ds.write_parquet(path)
        return path

    # ----------------------------------------------------- online plane

    def push(self, view_name: str, df: pd.DataFrame) -> None:
        """Stream/push ingest: latest-per-key upsert of new rows
        (feature_store.py:3338-3404 push path)."""
        from feast_ray.permissions import Action

        self._guard(view_name, Action.WRITE_ONLINE)
        view = self.views[view_name]
        self.online.upsert(view, ray.data.from_pandas(df))

    def retrieve_online_documents(
        self,
        view_name: str,
        query: "list[float]",
        top_k: int = 5,
        *,
        vec_col: str = "embedding",
        id_col: str | None = None,
        metric: str = "cosine",
    ) -> pd.DataFrame:
        """ANN retrieval over a view's vector column in the online
        plane (reference: feature_store.py:4044/4149
        `retrieve_online_documents(_v2)` over ``vector_index`` fields)
        — brute-force top-k via the similarity operators. ``metric``
        mirrors `_v2`'s configurable distance metrics:
        cosine | dot | l2 (l2 scores are negated distances)."""
        from feast_ray.permissions import Action

        self._guard(view_name, Action.READ_ONLINE)
        import numpy as np

        from feast_ray.functions.similarity import ann_topk_bruteforce

        view = self.views[view_name]
        id_col = id_col or view.join_keys[0]
        # DISTRIBUTED merge-on-read (delta files may carry superseded
        # rows a raw read_parquet over the dir would double); the
        # vector corpus never assembles on the driver
        ds = self.online.read_ds(view_name)
        res = ann_topk_bruteforce(
            ds, np.asarray([query]), k=top_k, id_col=id_col, vec_col=vec_col,
            round_to=None, metric=metric,
        ).to_pandas()
        return res.drop(columns=["query_id"]).reset_index(drop=True)

    def get_online_features(
        self, features: list[str], entity_rows: list[dict]
    ) -> pd.DataFrame:
        """Online point retrieval. On-demand feature view refs resolve
        exactly as in historical retrieval (the reference applies ODFV
        transforms at online read too — feature_store.py:3622 →
        on_demand_feature_view transform path): their source features
        are fetched from the online plane, then the udf runs over the
        assembled frame."""
        from feast_ray.permissions import Action

        self._guard_refs(features, Action.READ_ONLINE)
        if isinstance(features, FeatureService):
            features = list(features.features)
        odfvs: list[OnDemandView] = []
        plain: list[str] = []
        for ref in features:
            vname = ref.split(":")[0]
            if vname in self.on_demand_views:
                odfv = self.on_demand_views[vname]
                if odfv not in odfvs:
                    odfvs.append(odfv)
                plain.extend(s for s in odfv.sources if s not in plain)
            else:
                plain.append(ref)
        by_view: dict[str, list[str]] = {}
        for ref in plain:
            v, f = ref.split(":")
            by_view.setdefault(v, []).append(f)
        out = pd.DataFrame(entity_rows)
        for vname, feats in by_view.items():
            view = self.views[vname]
            looked = self.online.lookup(view, entity_rows)
            for f in feats:
                out[f] = looked[f].to_numpy()
        for odfv in odfvs:
            fn = odfv.transform_fn()
            if odfv.mode == "pandas":
                out = fn(out)
            else:
                out = fn(
                    pa.Table.from_pandas(out, preserve_index=False)
                ).to_pandas()
        return out
