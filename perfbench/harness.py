"""One workload, measured in one process (started by ``run.py``).

Closed loop, single client: this process runs the workload's
production path, waits for it to finish and check out, then starts the
next run. Every run writes into its own directory under
``perfbench/.work``, removed after the run is checked. Progress goes to
an events file (one JSON object per line) that the supervising
``run.py`` reads, so a crash or hang still leaves every finished run on
record.

Untraced invocation (``--trace 0``):
  ``SETUPS`` times: start a Ray session (``num_cpus`` = ``nproc``, Ray's
  defaults otherwise), make the first, cold run; the set-up time is
  session start plus that run. Then warm runs until ``--seconds`` have
  passed (at least ``MIN_WARM``), each timed with ``time.perf_counter``,
  with CPU seconds and peak summed RSS of this process and every Ray
  process read from ``/proc``.
Traced invocation (``--trace 1``):
  one session, a cold run, untraced warm runs with Ray Data's execution
  summaries captured, then one traced run (spans around each stage) and
  the scorer sub-layer profile.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings

import corpus
import procstat
import workloads as wl

SETUPS = 2
MIN_WARM = 4  # warm runs per measurement, however long they take
PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
WORK = os.path.join(PERF, ".work")
# unix socket paths under the Ray temp dir are limited to 107 bytes;
# the session directory adds up to 64 to the temp dir's own length
_MAX_RAY_TMP = 42


class Events:
    def __init__(self, path: str):
        self.f = open(path, "a")
        self.t0 = time.perf_counter()

    def __call__(self, ev: str, **kw) -> None:
        kw["t"] = round(time.perf_counter() - self.t0, 3)
        self.f.write(json.dumps({"ev": ev, **kw}, default=str) + "\n")
        self.f.flush()


class _Benign(logging.Filter):
    NOISE = ("RefBundle with a different schema",
             "object store is configured to use only",
             "Truncating long operator name")

    def filter(self, record) -> bool:
        return not any(n in record.getMessage() for n in self.NOISE)


def nproc() -> int:
    """What ``nproc`` prints: usable CPUs, capped by OMP_NUM_THREADS."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def ray_temp_dir() -> str:
    """Inside the checkout, unless that path is too long for Ray's unix
    sockets; then Ray's usual ``/tmp/ray``."""
    path = os.path.join(WORK, "ray")
    return path if len(path) <= _MAX_RAY_TMP else "/tmp/ray"


def start_ray(stats_handler=None) -> None:
    import ray

    ray.init(
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 2**20,
        _temp_dir=ray_temp_dir(),
    )
    import ray.data
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_auto_log_stats = stats_handler is not None
    ctx.verbose_stats_logs = stats_handler is not None
    lg = logging.getLogger("ray.data")
    for h in lg.handlers:
        if type(h).__name__ == "PlainRayHandler":
            h.setLevel(logging.WARNING)
            h.addFilter(_Benign())
    if stats_handler is not None and stats_handler not in lg.handlers:
        stats_handler.log_whole_plans()
        lg.addHandler(stats_handler)


def environment() -> dict:
    import pyarrow
    import ray

    from feast_ray.pipelines.quality_filter import PIPELINE_VERSION

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": nproc(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": sys.version.split()[0],
        "exchange": os.environ.get("FEAST_RAY_EXCHANGE", "raw"),
        "pipeline_version": PIPELINE_VERSION,
        "commit": commit,
        "ray_temp_dir": ray_temp_dir(),
    }


class Runner:
    def __init__(self, workload, pages: str, info: dict, exp: dict, events: Events):
        self.w, self.pages, self.info, self.exp, self.events = (
            workload, pages, info, exp, events)
        self.n = 0
        self.state: dict = {}
        self.me = os.getpid()

    def once(self, kind: str, body=None, sample: bool = False, shm: bool = False,
             workload=None) -> dict:
        """One run in a fresh directory: time it, check it (as ``workload``'s
        output, by default the runner's), clean up."""
        w = workload or self.w
        body = body or (lambda o: wl.run(w, self.pages, o, self.info))
        self.n += 1
        out = os.path.join(WORK, f"{self.w.name}-{self.me}-run{self.n}")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        self.events("start", run=self.n, kind=kind, limit=w.run_limit_s)
        rec = {"run": self.n, "kind": kind, "ok": False}
        try:
            cpu0 = procstat.tree_cpu(self.me)
            t0 = time.perf_counter()
            if sample:
                with procstat.RssSampler(self.me, shm=shm) as rss:
                    body(out)
            else:
                body(out)
            rec["wall"] = time.perf_counter() - t0
            rec["cpu"] = procstat.cpu_delta(cpu0, procstat.tree_cpu(self.me))
            if sample:
                rec["rss_mb"] = rss.peak_rss / 2**20
                rec["shm_mb"] = rss.peak_shm / 2**20
            checks = wl.check(w, out, self.exp, self.state)
            rec["checks"] = checks
            rec["ok"] = all(ok for _, ok, _ in checks)
            if self.n == 1:
                rec["output"] = wl.output_summary(w, out)
        except Exception as exc:  # noqa: BLE001 - a failed run is a data point
            rec["error"] = f"{type(exc).__name__}: {exc}"[:2000]
            traceback.print_exc()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.events("run", **rec)
        return rec


def _median(values):
    return statistics.median(values) if values else None


def trimmed_mean(values: list) -> float:
    """Mean without the lowest and the highest value (once there are four).

    At ``num_cpus=1`` Ray kills a worker that idles for a second and
    starts a new one in a later run, so on a slow host consecutive warm
    runs alternate between a slow and a fast mode. A median then picks
    one mode or the midpoint depending on how many runs fit in the time;
    the mean carries that cost at its average rate, and trimming drops
    a lone stall."""
    v = sorted(values)
    if len(v) >= 4:
        v = v[1:-1]
    return statistics.fmean(v)


def measure(runner: Runner, seconds: float, events: Events) -> None:
    import ray

    for k in range(SETUPS):
        t0 = time.perf_counter()
        start_ray()
        init_s = time.perf_counter() - t0
        rec = runner.once("setup")
        if rec["ok"]:
            events("setup", seconds=init_s + rec["wall"], init=init_s)
        if k < SETUPS - 1:
            ray.shutdown()
    deadline = time.perf_counter() + seconds
    for i in itertools.count(1):
        runner.once("warm", sample=True)
        if i >= MIN_WARM and time.perf_counter() >= deadline:
            break
    ray.shutdown()


def measure_layers(runner: Runner, seconds: float, events: Events) -> None:
    import ray

    import layers

    stats = layers.RayDataStats()
    start_ray(stats)
    runner.once("setup")
    stats.take()
    walls, shm, agg = [], [], []
    deadline = time.perf_counter() + seconds
    for i in itertools.count(1):
        rec = runner.once("warm", sample=True, shm=True)
        agg.append(stats.take())
        if rec["ok"]:
            walls.append(rec["wall"])
            shm.append(rec["shm_mb"])
        if i >= MIN_WARM and time.perf_counter() >= deadline:
            break
    wall = trimmed_mean(walls) if walls else None
    m = {k: _median([a[k] for a in agg]) for k in agg[0] if k != "spilled_bytes"}
    m["ray.spilled_mb"] = max(a["spilled_bytes"] for a in agg) / 2**20
    m["ray.object_store_peak_mb"] = _median(shm)

    tracer = layers.Tracer(run_id=f"{runner.w.name}-{os.getpid()}")
    holder = {}

    def traced(out):
        if runner.w.name == "pretrain_corpus":
            holder["m"], holder["scorer_in"] = layers.traced_pretrain(
                tracer, runner.pages, out, runner.info)
        else:
            holder["m"], holder["scorer_in"] = layers.traced_flagship(
                tracer, runner.w, runner.pages, out)

    rec = runner.once("traced", body=traced)
    stats.take()
    if "m" in holder:
        m.update(holder["m"])
        m.update(layers.ScorerProfile().run(holder["scorer_in"]))
        if wall:
            m["trace.coverage_frac"] = sum(tracer.self_times().values()) / wall
            m["trace.overhead_s"] = rec["wall"] - wall
        events("spans", spans=tracer.spans)
    if runner.w.name == "flagship_job":
        # pretrain_corpus is not a gated workload (see README); its stage
        # layers are measured here, over the same flagship corpus. The
        # production pretraining_corpus runs first, so the rebuilt chain
        # must reproduce its output digest (workloads.check_pretrain).
        pretrain = wl.WORKLOADS["pretrain_corpus"]
        runner.once("pretrain", workload=pretrain)
        stats.take()
        pre_tracer = layers.Tracer(run_id=f"pretrain_corpus-{os.getpid()}")

        def traced_pretrain(out):
            holder["pre"], _ = layers.traced_pretrain(
                pre_tracer, runner.pages, out, runner.info)

        runner.once("traced_pretrain", body=traced_pretrain, workload=pretrain)
        stats.take()
        if "pre" in holder:
            m.update({k: holder["pre"][k] for k in layers.PRETRAIN_STAGES})
            events("spans", spans=pre_tracer.spans)
    events("layers", metrics=m)
    ray.shutdown()


def child(workload: str, seed: int, seconds: float, trace: bool, events_path: str) -> int:
    warnings.filterwarnings("ignore")
    events = Events(events_path)
    w = wl.WORKLOADS[workload]
    pages, info = corpus.pages_dir(w.profile, w.docs, seed)
    events("corpus", **{k: v for k, v in info.items() if k != "benchmark_texts"})
    exp = wl.oracle_expectations(pages, seed)
    events("env", **environment())
    # imports happen once per process, before any timing
    import feast_ray.pipelines.pretrain  # noqa: F401
    import feast_ray.state.registry  # noqa: F401
    import ray.data  # noqa: F401
    runner = Runner(w, pages, info, exp, events)
    (measure_layers if trace else measure)(runner, seconds, events)
    events("done")
    return 0
