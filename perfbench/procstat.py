"""CPU time and memory of a process tree, read from ``/proc``.

The benchmark's client process starts Ray, so every Ray process (GCS,
raylet, workers) is a descendant of it. ``cpu_seconds`` sums user and
system time over the tree (plus the reaped children's time each process
accounts for); ``RssSampler`` polls the summed resident set size in a
background thread and keeps the peak; optionally also the largest
resident shared memory of one process (the plasma object store pages
that process has mapped and touched).
"""

from __future__ import annotations

import os
import threading

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat(pid: int) -> "list[str] | None":
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # the command name may contain spaces; fields restart after ')'
    return raw[raw.rindex(")") + 2 :].split()


def descendants(root: int) -> list[int]:
    """``root`` and every live process below it."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        st = _stat(int(name))
        if st is not None:
            children.setdefault(int(st[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """utime + stime + cutime + cstime per pid, in seconds."""
    out = {}
    for pid in pids:
        st = _stat(pid)
        if st is not None:
            out[pid] = sum(int(x) for x in st[11:15]) / _TICK
    return out


def tree_cpu(root: int) -> dict[int, float]:
    return cpu_seconds(descendants(root))


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds spent between two ``tree_cpu`` readings; a process
    born in between counts from zero."""
    return sum(v - before.get(pid, 0.0) for pid, v in after.items())


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except OSError:
        return 0


def _shmem_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("RssShmem:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class RssSampler:
    """Peak summed RSS of the tree under ``root`` while active."""

    def __init__(self, root: int, interval: float = 0.1, shm: bool = False):
        self.root = root
        self.interval = interval
        self.shm = shm
        self.peak_rss = 0
        self.peak_shm = 0
        self._stop = threading.Event()
        self._thread = None
        self._pids: list[int] = []

    def _sample(self) -> None:
        self.peak_rss = max(self.peak_rss, sum(_rss_bytes(p) for p in self._pids))
        if self.shm:
            self.peak_shm = max(self.peak_shm, max(_shmem_bytes(p) for p in self._pids))

    def _loop(self) -> None:
        n = 0
        while not self._stop.wait(self.interval):
            if n % 10 == 0:  # new workers appear rarely; rescan every second
                self._pids = descendants(self.root)
            n += 1
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._pids = descendants(self.root)
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._pids = descendants(self.root)
        self._sample()
