"""Statistics and child-process timing for the benchmark (stdlib only)."""

from __future__ import annotations

import bisect
import gc
import math
import os
import re
import statistics
import subprocess
import threading
import time


def median_or_zero(values: list[float]) -> float:
    """Median, or 0 when every attempt failed (the run then reports
    ``correct: false``)."""
    return statistics.median(values) if values else 0.0


def tail_level(n_min: int) -> float:
    """Highest percentile, to 0.1, with at least 10 of ``n_min`` samples
    beyond it.  Fixed per workload from its guaranteed sample count, so the
    same percentile is reported on every run."""
    if n_min < 20:
        raise ValueError(f"{n_min} samples leave no tail with 10 beyond the median")
    return math.floor(1000.0 * (1.0 - 10.0 / n_min)) / 10.0


def percentile(values: list[float], level: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float], level: float) -> tuple[float, str]:
    """The ``level`` percentile, and a note with how many samples lie beyond it."""
    value = percentile(values, level)
    beyond = sum(1 for v in values if v > value)
    return value, f"p{level:g} n={len(values)}, {beyond} beyond"


def loglog_slope(sizes: list[float], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("all inputs have the same size; no slope to fit")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


# Reference work: fixed code, independent of slimdock, shaped like a
# linter's (split lines and commands, build a tree of small objects, walk
# it, join it back).  Its tree of ~3,000 objects outgrows the fastest caches
# as slimdock's trees do, so it slows down with the machine as slimdock
# does.  Over 3-second windows on a 2-vCPU host, slimdock's time divided by
# this probe's spread 0.03 (IQR/median); divided by a tenth-size probe's,
# 0.07; undivided, 0.10-0.14.  A probe runs it once.
_REF_LINES = [
    f"RUN apt-get update && apt-get install -y pkg{i} lib{i}-dev && "
    f"tar -xzf /tmp/a{i}.tgz -C /srv/{i} && rm -rf /var/lib/apt/lists/* /tmp/a{i}.tgz"
    if i % 3 else f"ENV K{i}=v{i} PATH=/opt/{i}/bin:$PATH"
    for i in range(240)
]
_REF_WORD = re.compile(r"\S+")
# Typical probe time on the machine the bounds were set on (2-vCPU
# container, Python 3.11.7).  Scaled times read as if on that machine.
REF_MS = 6.0


class _RefNode:
    __slots__ = ("kind", "text", "children")

    def __init__(self, kind: str, text: str, children: list):
        self.kind, self.text, self.children = kind, text, children


def reference_work() -> int:
    root = _RefNode("file", "", [])
    for line in _REF_LINES:
        kind, _, rest = line.partition(" ")
        inst = _RefNode(kind, rest, [])
        for cmd in rest.split(" && "):
            words = _REF_WORD.findall(cmd)
            inst.children.append(_RefNode("cmd", words[0], [
                _RefNode("flag" if w.startswith("-") else "word", w, []) for w in words[1:]]))
        root.children.append(inst)
    out, stack, seen = [], [root], {}
    while stack:
        node = stack.pop()
        seen[node.kind] = seen.get(node.kind, 0) + 1
        out.append(node.text)
        stack.extend(reversed(node.children))
    return len(" ".join(out)) + sum(seen.values())


class Speed:
    """How fast the machine runs the reference work, probed through a run.

    On a shared host the speed of a vCPU drifts by 20-30 % within a
    second and by 15-30 % between stretches of a few seconds to a minute;
    CPU time drifts with it.  So raw times of the same code spread more
    between runs than a 25 % bound allows.  The reference work drifts the
    same way while its own cost never changes.  ``scale`` multiplies a
    timed interval by ``REF_MS`` over the median of the probes within
    ``WINDOW_S`` of it (at least the ``NEAREST`` closest): a slower program
    still reads slower, a slower stretch of machine time does not.  The
    sub-second drift is not tracked; medians over many samples absorb it.
    Probes run between timed intervals, never inside one: a probe on one
    vCPU while a child runs on the other took about twice as long as with
    the other vCPU idle, and slowed the child.

    Only in-process calls are scaled: they run on the probing thread.  A
    child process runs on either vCPU and spends part of its time starting
    up and reading files; scaling its CPU time by these probes left the
    spread between runs about where it was, better in noisy hours and worse
    in quiet ones, so children are reported unscaled.
    """

    INTERVAL_S = 0.25
    WINDOW_S = 1.5
    NEAREST = 4

    def __init__(self) -> None:
        self.times: list[float] = []  # probe midpoints, ascending
        self.ms: list[float] = []

    def due(self) -> None:
        """Probe (CPU time of one reference run) if the last probe is old."""
        if self.times and time.perf_counter() - self.times[-1] <= self.INTERVAL_S:
            return
        t0, c0 = time.perf_counter(), time.thread_time()
        reference_work()
        t1, c1 = time.perf_counter(), time.thread_time()
        self.times.append((t0 + t1) / 2)
        self.ms.append((c1 - c0) * 1000.0)

    def factor(self, t0: float, t1: float) -> float:
        """``REF_MS`` / median of the probes within ``WINDOW_S`` of
        ``[t0, t1]``, and at least the ``NEAREST`` ones closest to it."""
        lo = bisect.bisect_left(self.times, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + self.WINDOW_S)
        picked = self.ms[lo:hi]
        while len(picked) < self.NEAREST and (lo > 0 or hi < len(self.times)):
            if hi >= len(self.times) or (lo > 0 and t0 - self.times[lo - 1] <= self.times[hi] - t1):
                lo -= 1
                picked.append(self.ms[lo])
            else:
                picked.append(self.ms[hi])
                hi += 1
        if not picked:
            raise ValueError("no speed probes taken")
        return REF_MS / statistics.median(picked)

    def scale(self, value: float, t0: float, t1: float) -> float:
        return value * self.factor(t0, t1)


def warm_up(cases: list) -> None:
    """A few untimed library calls, then move everything alive into the
    collector's permanent generation: the benchmark's own objects are
    long-lived and should not slow the collections the timed calls cause."""
    from slimdock import analyze_text, fix_text

    for _ in range(20):
        reference_work()
    for case in sorted(cases, key=lambda c: len(c.text))[:3]:
        try:
            analyze_text(case.text, case.path)
            fix_text(case.text, case.path)
        except Exception:
            pass  # the timed calls report it
    gc.collect()
    gc.freeze()


class Child:
    """Result of one child process: exit code, wall and CPU seconds, peak RSS."""

    def __init__(self, code: int, wall_s: float, cpu_s: float, maxrss_mb: float,
                 stdout: str, stderr: str):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.maxrss_mb = maxrss_mb
        self.stdout = stdout
        self.stderr = stderr


def run_child(argv: list[str], env: dict, cwd: str, out_path: str, timeout_s: float) -> Child:
    """Run ``argv`` to completion and measure it on its own.

    ``os.wait4`` gives the resource usage of this one child (and of any
    children it waited for), so its CPU time and peak RSS are not mixed
    with earlier children's.  Output goes to files, so a
    large report cannot fill a pipe while the wall clock runs.  A child
    still running after ``timeout_s`` is killed (exit code < 0).
    """
    err_path = out_path + ".err"
    with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, stdout, stderr)
