"""Local replica of the driver's correctness gate: run every
``queries()`` entry and its ``oracle_sql()`` side by side on an sf dir,
compare row count + column set + order-insensitive values.

Usage: python scripts/check_correctness.py [sf_dir] [query ...]

The verdict is one ``SUMMARY <ok> OK, <fail> FAIL`` line; the exit
status is 1 when any query failed, 0 otherwise. It is printed before
``ray.shutdown()``, and a shutdown that hangs is cut short after
SHUTDOWN_TIMEOUT_S with the same status.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import warnings

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pandas as pd

SHUTDOWN_TIMEOUT_S = 60.0


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def canonicalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = pd.to_datetime(df[c]).astype("datetime64[us]")
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint", "Int", "UInt")):
            df[c] = df[c].astype("int64")
        elif str(df[c].dtype).startswith(("float", "Float")):
            df[c] = df[c].astype("float64")
        elif str(df[c].dtype) in ("bool", "boolean"):
            df[c] = df[c].astype(bool)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def dtype_family(dtype) -> str:
    s = str(dtype)
    if s.startswith("datetime64"):
        return "datetime"
    if s.startswith(("int", "uint", "Int", "UInt")):
        return "int"
    if s.startswith(("float", "Float")):
        return "float"
    if s in ("bool", "boolean"):
        return "bool"
    return "object"


def compare(name: str, got: pd.DataFrame, exp: pd.DataFrame) -> list[str]:
    problems = []
    if set(got.columns) != set(exp.columns):
        problems.append(f"columns differ: ray={sorted(got.columns)} sql={sorted(exp.columns)}")
        return problems
    # dtype-FAMILY check BEFORE canonicalize coerces both sides: the
    # driver hashes the textual representation, so an int64->float64
    # drift ("1" vs "1.0") fails its gate while numeric comparison
    # forgives it — exactly the round-4 q73 escape (VERDICT r4 #4).
    for c in got.columns:
        gf, ef = dtype_family(got[c].dtype), dtype_family(exp[c].dtype)
        if gf != ef and "object" not in (gf, ef):
            problems.append(
                f"column {c!r}: dtype family drift ray={got[c].dtype} ({gf})"
                f" vs sql={exp[c].dtype} ({ef}) — driver hash would fail"
            )
    if problems:
        return problems
    if len(got) != len(exp):
        problems.append(f"row count differs: ray={len(got)} sql={len(exp)}")
    g, e = canonicalize(got.copy()), canonicalize(exp.copy())
    if len(g) == len(e):
        for c in g.columns:
            gv, ev = g[c], e[c]
            if gv.dtype == np.float64:
                both_nan = gv.isna() & ev.isna()
                eq = (gv == ev) | both_nan
            else:
                eq = (gv.astype(str) == ev.astype(str))
            if not eq.all():
                bad = int((~eq).sum())
                i = int(np.flatnonzero(~eq.to_numpy())[0])
                problems.append(
                    f"column {c!r}: {bad} mismatches; first at row {i}: ray={gv.iloc[i]!r} sql={ev.iloc[i]!r}"
                )
    return problems


def main() -> int:
    warnings.filterwarnings("ignore")
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import duckdb

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.execute(f"create view {t} as select * from read_parquet('{sf_dir}/{t}.parquet')")

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    n_ok = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as exc:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(got)} cols={len(got.columns)} ({dt:.1f}s, rows-only)")
            n_ok += 1
            continue
        exp = con.execute(oracles[name]).fetchdf()
        problems = compare(name, got, exp)
        if problems:
            n_fail += 1
            print(f"FAIL {name} ({dt:.1f}s):")
            for p in problems:
                print(f"   - {p}")
        else:
            print(f"OK   {name}: rows={len(got)} ({dt:.1f}s)")
            n_ok += 1
    status = 1 if n_fail else 0
    print(f"SUMMARY {n_ok} OK, {n_fail} FAIL", flush=True)
    sys.stderr.flush()
    # the verdict is out; a hung shutdown must not swallow the status
    timer = threading.Timer(SHUTDOWN_TIMEOUT_S, os._exit, [status])
    timer.daemon = True
    timer.start()
    ray.shutdown()
    timer.cancel()
    return status


if __name__ == "__main__":
    raise SystemExit(main())
