"""Benchmark of feast_ray's production paths, end to end and per layer.

    python3 perfbench/run.py --workload flagship_job --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

Each workload is measured in its own child process with a fresh Ray
session (``harness.py``); this supervisor enforces a limit on every run
and on the whole workload, kills the child's process tree when one is
exceeded, and still reports whatever finished. It prints one line per
end-to-end metric (``--trace 0``) or per-layer metric (``--trace 1``)
with its unit, an OK/FAIL line per output check, and as its last line
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

It exits 2 without a result when the package under test is missing,
1 when a run failed, 0 otherwise. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
WORK = os.path.join(PERF, ".work")
sys.path[:0] = [ROOT, PERF]

END_TO_END = {"setup_s": "s", "wall_s": "s", "pages_per_s": "pages/s",
              "cpu_s": "s", "peak_rss_mb": "MB"}
NAMES = ("flagship_job", "flagship_audit", "pretrain_corpus")
WORKLOAD_BUDGET_S = 170.0  # the whole invocation must end within 180 s


def _read_events(path: str) -> list[dict]:
    events = []
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                try:
                    events.append(json.loads(line))
                except ValueError:
                    pass  # a line cut short by a kill
    return events


def _kill_tree(pid: int) -> None:
    import procstat

    pids = procstat.descendants(pid)
    try:
        os.killpg(pid, signal.SIGKILL)
    except OSError:
        pass
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass


def supervise(name: str, seed: int, seconds: int, trace: bool, budget: float) -> dict:
    """Run one workload in a child process; return its events and fate."""
    os.makedirs(WORK, exist_ok=True)
    tag = f"{name}-{os.getpid()}-t{int(trace)}"
    events_path = os.path.join(WORK, f"{tag}.events.jsonl")
    log_path = os.path.join(WORK, f"{tag}.log")
    for p in (events_path, log_path):
        if os.path.exists(p):
            os.remove(p)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([ROOT, PERF]), TMPDIR=tmp,
               RAY_DEDUP_LOGS="0", PYTHONWARNINGS="ignore")
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--events", events_path]
    t0 = time.monotonic()
    seen: dict = {}  # run number -> when the supervisor first saw it start
    killed = None
    with open(log_path, "w") as log:
        child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                 stderr=subprocess.STDOUT, start_new_session=True)
        while child.poll() is None:
            time.sleep(0.25)
            events = _read_events(events_path)
            ended = {e["run"] for e in events if e["ev"] == "run"}
            now = time.monotonic()
            for e in events:
                if e["ev"] == "start":
                    seen.setdefault(e["run"], now)
            open_runs = [e for e in events if e["ev"] == "start" and e["run"] not in ended]
            if now - t0 > budget:
                killed = f"workload exceeded its {budget:.0f} s budget"
            elif open_runs and now - seen[open_runs[-1]["run"]] > open_runs[-1]["limit"]:
                killed = (f"run {open_runs[-1]['run']} exceeded its "
                          f"{open_runs[-1]['limit']:.0f} s limit")
            if killed:
                break
        _kill_tree(child.pid)  # also reaps Ray processes a crashed child left
        child.wait()
    for d in os.listdir(WORK):  # run directories a killed child left
        if d.startswith(f"{name}-{child.pid}-run"):
            shutil.rmtree(os.path.join(WORK, d), ignore_errors=True)
    events = _read_events(events_path)
    fate = {"returncode": child.returncode, "killed": killed}
    if child.returncode != 0 and not killed:
        with open(log_path) as f:
            fate["log_tail"] = f.read()[-3000:]
    for p in (events_path, log_path):
        os.remove(p)
    return {"name": name, "events": events, "fate": fate}


def summarize(rec: dict, trace: bool) -> dict:
    """Metrics, attempted and failed runs of one supervised workload."""
    ev = rec["events"]
    runs = [e for e in ev if e["ev"] == "run"]
    starts = [e for e in ev if e["ev"] == "start"]
    attempted = len(starts)
    failed = sum(not r["ok"] for r in runs) + (len(starts) - len(runs))
    if not any(e["ev"] == "done" for e in ev) and len(starts) == len(runs):
        failed += 1  # died outside a run: count it as one more failed run
        attempted += 1
    corpus = next((e for e in ev if e["ev"] == "corpus"), {})
    metrics: dict = {}
    if trace:
        layer = next((e["metrics"] for e in ev if e["ev"] == "layers"), None)
        if layer:
            import layers

            for k, unit in layers.per_layer_units().items():
                if layer.get(k) is not None:
                    metrics[k] = {"value": layer[k], "unit": unit}
    else:
        from harness import trimmed_mean

        warm = [r for r in runs if r["kind"] == "warm" and r["ok"]]
        setups = [e["seconds"] for e in ev if e["ev"] == "setup"]
        if warm and setups:
            wall = trimmed_mean([r["wall"] for r in warm])
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": wall,
                "pages_per_s": corpus.get("pages", 0) / wall,
                "cpu_s": trimmed_mean([r["cpu"] for r in warm]),
                "peak_rss_mb": statistics.median(r["rss_mb"] for r in warm),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "warm_runs": sum(r["kind"] == "warm" for r in runs)}


def report(rec: dict, summary: dict, prefix: str) -> None:
    """Human-readable lines: corpus, environment, checks, metrics."""
    ev = rec["events"]
    name = rec["name"]
    for e in ev:
        if e["ev"] == "corpus":
            print(f"[{name}] corpus: " + json.dumps({k: v for k, v in e.items() if k != "ev"}))
        elif e["ev"] == "env":
            print(f"[{name}] env: " + json.dumps({k: v for k, v in e.items() if k != "ev"}))
    tally: dict = {}  # check -> [runs passed, runs checked]
    for e in ev:
        if e["ev"] != "run":
            continue
        if "output" in e:
            print(f"[{name}] output of run 1: {json.dumps(e['output'])}")
        if "error" in e:
            print(f"[{name}] FAIL run {e['run']} ({e['kind']}): {e['error'][:300]}")
        for check, ok, detail in e.get("checks", []):
            if not ok:
                print(f"[{name}] FAIL run {e['run']} check {check}: {detail}")
            t = tally.setdefault(check, [0, 0])
            t[0] += bool(ok)
            t[1] += 1
    for check, (n_ok, n) in tally.items():
        print(f"[{name}] {'OK' if n_ok == n else 'FAIL'} {check} ({n_ok}/{n} runs)")
    fate = rec["fate"]
    if fate["killed"]:
        print(f"[{name}] FAIL {fate['killed']}")
    elif fate["returncode"] != 0:
        print(f"[{name}] FAIL harness exited {fate['returncode']}: "
              + fate.get("log_tail", "")[-800:].replace("\n", " | "))
    walls = [f"{e['wall']:.3f}" for e in ev if e["ev"] == "run" and "wall" in e]
    print(f"[{name}] run walls (s, in order): {' '.join(walls)}")
    failed_frac = summary["failed"] / summary["attempted"]
    print(f"[{name}] failed_frac = {failed_frac:.4f} ratio "
          f"({summary['failed']}/{summary['attempted']} runs; "
          f"{summary['warm_runs']} warm)")
    for k, v in summary["metrics"].items():
        print(f"[{name}] {prefix}{k} = {v['value']:.6g} {v['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--events", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.child:
        import harness

        return harness.child(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.events)

    missing = [x for x in ("feast_ray/__init__.py", "tests/oracle_quality.py")
               if not os.path.exists(os.path.join(ROOT, x))]
    if missing:
        print(f"perfbench: program under test not found ({', '.join(missing)} "
              f"missing under {ROOT})", file=sys.stderr)
        return 2

    names = NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + WORKLOAD_BUDGET_S * len(names)
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        budget = min(WORKLOAD_BUDGET_S, deadline - time.monotonic())
        rec = supervise(name, args.seed, args.seconds, bool(args.trace), budget)
        summary = summarize(rec, bool(args.trace))
        prefix = f"{name}." if len(names) > 1 else ""
        report(rec, summary, prefix)
        attempted += summary["attempted"]
        failed += summary["failed"]
        metrics.update({prefix + k: v for k, v in summary["metrics"].items()})
        if not summary["metrics"]:
            failed = max(failed, 1)
    shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
