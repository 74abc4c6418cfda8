"""Shared machinery: run context, spans, statistics, RSS, set-up probes."""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Fresh set-ups per run; setup_s is their median.
SETUP_PROBES = 5
#: Seconds a set-up probe or the server may take before it counts as hung.
PROBE_TIMEOUT_S = 60.0

#: Every request pins these knobs, so no number depends on whether the
#: compiled tier was built or the host was ever calibrated.
PINNED_KERNEL = "numpy"
PINNED_TUNE = "off"


class RunContext:
    """What one benchmark invocation knows: its arguments and private dirs."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.spans_path = os.path.join(OUT, f"spans-{workload}-{seed}.json")
        self.env = dict(os.environ)

    def child_env(self) -> Dict[str, str]:
        env = dict(self.env)
        env["PYTHONPATH"] = SRC
        return env


class Outcome:
    """Attempted/failed accounting plus the metrics a workload reports.

    A failure is any operation that raised, was refused, came back on
    the wrong kernel tier, or disagreed with the oracle.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.detail: Dict[str, object] = {}

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def metric(self, name: str, value: float, unit: str) -> None:
        if name in self.metrics:
            raise ValueError(f"metric {name!r} reported twice")
        self.metrics[name] = {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


def tail(values: Sequence[float], beyond: int = 10) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ``beyond`` samples above it.

    Nearest-rank percentiles.  Returns ``None`` when even the 75th
    percentile has fewer than ``beyond`` samples beyond it: a tail read
    from fewer samples is noise.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        idx = max(0, math.ceil(p / 100.0 * n) - 1)
        if n - idx - 1 >= beyond:
            return {"percentile": p, "value": ordered[idx], "samples": n,
                    "beyond": n - idx - 1}
    return None


# ----------------------------------------------------------------------
# spans (traced runs only)
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans: name, start, end, parent and request id.

    Spans are recorded around calls into the program's public functions
    from the benchmark's own code; nothing inside the program changes.
    """

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self.request: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "request": self.request}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def record(self, name: str, start: float, end: float, request: int) -> None:
        """A root span timed by the caller (overlapping requests)."""
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": None, "request": request})

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """``request -> span name -> summed self time`` (seconds).

        A span's self time is its duration minus the part of it that its
        child spans cover.
        """
        children: Dict[int, List[Dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out: Dict[int, Dict[str, float]] = {}
        for s in self.spans:
            covered = _union_length(
                [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                 for c in children.get(s["id"], [])]
            )
            per = out.setdefault(s["request"], {})
            per[s["name"]] = per.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _union_length(intervals: List[tuple]) -> float:
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def layer_median(self_times: Dict[int, Dict[str, float]], name: str) -> float:
    """Median over traced requests of one span name's self time."""
    return median([per.get(name, 0.0) for req, per in self_times.items()
                   if req is not None])


@contextlib.contextmanager
def patched(obj, attr: str, value):
    """Rebind ``obj.attr`` for the duration of one traced operation."""
    old = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, old)


# ----------------------------------------------------------------------
# processes: RSS and set-up probes
# ----------------------------------------------------------------------
def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                kids.extend(int(x) for x in fh.read().split())
    except OSError:
        pass
    return kids


def process_tree(pid: int) -> List[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(_children(p))
    return out


def vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> float:
    """Peak RSS summed over this process and every live descendant: pool
    workers, or the server and its shards."""
    return sum(vm_hwm_mb(p) for p in process_tree(os.getpid()))


def run_probe(ctx: RunContext, argv: List[str], ready: Optional[Callable] = None) -> float:
    """Seconds from spawning a fresh interpreter to its ``ready`` line.

    ``ready(proc)`` may drive the child itself (the service probe sends
    a ``ping``); by default the child prints ``ready`` when set up.
    The child is always waited for.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable] + argv, cwd=ROOT, env=ctx.child_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        if ready is not None:
            elapsed = ready(proc, t0)
        else:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            if line.strip() != "ready":
                raise RuntimeError(
                    f"set-up probe failed: {line!r} {proc.stderr.read()[-2000:]}"
                )
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def setup_seconds(ctx: RunContext, argv: List[str], ready=None) -> List[float]:
    return [run_probe(ctx, argv, ready) for _ in range(SETUP_PROBES)]


def stop_helpers() -> None:
    """Stop and reap every helper process this interpreter started.

    The process backend leaves two kinds behind unless told otherwise:
    the shared pool workers (stopped at exit by an ``atexit`` hook) and
    the ``multiprocessing`` resource tracker that its shared-memory
    arenas start.  The tracker only exits once its parent has exited,
    so it would outlive the benchmark as an orphan.  Shutting the pools
    down first closes the workers' copies of the tracker's pipe; then
    the tracker is stopped and waited for here.
    """
    if "repro.parallel.lifecycle" in sys.modules:
        sys.modules["repro.parallel.lifecycle"].shutdown_pools()
    if "multiprocessing.resource_tracker" in sys.modules:
        tracker = sys.modules["multiprocessing.resource_tracker"]._resource_tracker
        tracker._stop()


# ----------------------------------------------------------------------
# host metadata
# ----------------------------------------------------------------------
def host_metadata() -> Dict[str, object]:
    import numpy

    from repro.kernels import registry

    return {
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiled_available": registry.compiled_available(),
        "pinned_kernel": PINNED_KERNEL,
        "pinned_tune": PINNED_TUNE,
    }
