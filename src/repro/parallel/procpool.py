"""Persistent process pool for the wavefront backend.

Architecture (see also :mod:`repro.parallel.shm`):

* ``P`` long-lived worker processes, each holding one end of a private
  :class:`multiprocessing.Pipe` for commands and sharing one result
  :class:`multiprocessing.Queue` back to the parent.
* Per alignment the parent **binds** a session: one broadcast message
  carrying the shared-memory arena name/spec, the substitution table and
  gap parameters, the active fault plan (if any) and whether to record
  observability — everything a worker needs, shipped exactly once.
* Per FillCache region the parent runs the tile DAG itself, sending bare
  coordinates (``("tile", r, c, a0, a1, b0, b1[, phase])``) to idle workers and
  advancing dependencies as ``("done", ...)`` replies drain.  Tile data
  never crosses the pipe; boundary rows/columns live in the arena.
* Worker crashes are detected by liveness-polling the result queue: a
  dead process surfaces as a typed, transient
  :class:`~repro.errors.WorkerCrashError` (never a hang) and marks the
  pool broken; :mod:`repro.parallel.lifecycle` respawns it on next use.

Workers honour the :mod:`repro.faults` tile sites and record their own
trace spans / metrics; :meth:`ProcessPool.drain_obs` merges the
per-worker buffers into the parent's instrumentation at session end.
"""

from __future__ import annotations

import builtins
import multiprocessing as mp
import queue as queue_mod
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import errors as _errors
from ..core import cancel
from ..errors import SchedulerError, WorkerCrashError
from ..faults import runtime as faults
from ..faults.plan import SITE_TILE_FINISH, SITE_TILE_START, FaultPlan
from ..kernels import registry
from ..obs import runtime as obs
from ..obs.runtime import Instrumentation
from .shm import SharedArena
from .tiles import TileGrid

__all__ = ["ProcessPool", "SessionSpec"]

#: Seconds between liveness polls while waiting on the result queue.
_POLL_S = 0.2


class SessionSpec:
    """Everything a worker needs for one alignment, shipped at bind time."""

    def __init__(
        self,
        arena_name: str,
        arena_fields: Dict,
        table: np.ndarray,
        gap_open: int,
        gap_extend: int,
        is_linear: bool,
        fault_plan: Optional[dict] = None,
        observe: bool = False,
        kernel: str = "numpy",
    ) -> None:
        self.arena_name = arena_name
        self.arena_fields = arena_fields
        self.table = np.asarray(table, dtype=np.int64)
        self.gap_open = int(gap_open)
        self.gap_extend = int(gap_extend)
        self.is_linear = bool(is_linear)
        self.fault_plan = fault_plan
        self.observe = bool(observe)
        #: Resolved kernel tier ("numpy"/"compiled"); workers degrade to
        #: numpy if the compiled extension is unavailable in their process.
        self.kernel = str(kernel)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _WorkerState:
    """A worker's bound session: arena views + kernel parameters."""

    def __init__(self, wid: int, spec: SessionSpec) -> None:
        self.wid = wid
        self.spec = spec
        self.arena = SharedArena.attach(spec.arena_name, spec.arena_fields)
        self.seq_a = self.arena["seq_a"]
        self.seq_b = self.arena["seq_b"]
        self.profile = self.arena["profile"]
        self.rows_h = self.arena["rows_h"]
        self.cols_h = self.arena["cols_h"]
        self.rows_f = self.arena["rows_f"] if not spec.is_linear else None
        self.cols_e = self.arena["cols_e"] if not spec.is_linear else None
        tier = spec.kernel if registry.compiled_available() else "numpy"
        self.provider = registry.get_kernel(
            "linear" if spec.is_linear else "affine", tier
        )
        self.inst: Optional[Instrumentation] = None
        if spec.observe:
            self.inst = obs.enable(Instrumentation())
        else:
            obs.disable()
        if spec.fault_plan is not None:
            faults.enable(FaultPlan.from_dict(spec.fault_plan))
        else:
            faults.disable()

    def compute_tile(
        self, r: int, c: int, a0: int, a1: int, b0: int, b1: int,
        phase: Optional[str] = None,
    ) -> None:
        faults.inject(SITE_TILE_START)
        sp = obs.span(
            "wavefront.tile", category="tile", r=r, c=c,
            cells=(a1 - a0) * (b1 - b0), worker=self.wid, backend="processes",
            region="fill", phase=phase,
        )
        with sp:
            spec = self.spec
            prof = self.profile[:, b0:b1]
            sub_a = self.seq_a[a0:a1]
            sub_b = self.seq_b[b0:b1]
            top_h = self.rows_h[r, b0 : b1 + 1]
            left_h = self.cols_h[c, a0 : a1 + 1]
            if spec.is_linear:
                bot_h, right_h = self.provider.sweep_last_row_col(
                    sub_a, sub_b, spec.table, spec.gap_open, top_h, left_h,
                    profile=prof,
                )
                self.rows_h[r + 1, b0 : b1 + 1] = bot_h
                self.cols_h[c + 1, a0 : a1 + 1] = right_h
            else:
                top_f = self.rows_f[r, b0 : b1 + 1]
                left_e = self.cols_e[c, a0 : a1 + 1]
                bot_h, bot_f, right_h, right_e = self.provider.sweep_last_row_col(
                    sub_a, sub_b, spec.table, spec.gap_open, spec.gap_extend,
                    top_h, top_f, left_h, left_e, profile=prof,
                )
                self.rows_h[r + 1, b0 : b1 + 1] = bot_h
                self.cols_h[c + 1, a0 : a1 + 1] = right_h
                # Skip the corner sentinel — the up-left neighbour owns it
                # (same contract as Grid.store_row_segment).
                if b1 > b0:
                    self.rows_f[r + 1, b0 + 1 : b1 + 1] = bot_f[1:]
                if a1 > a0:
                    self.cols_e[c + 1, a0 + 1 : a1 + 1] = right_e[1:]
        if phase is not None:
            obs.counter_add(f"wavefront.{phase}_tiles", 1)
        faults.inject(SITE_TILE_FINISH)

    def drain_obs(self) -> Tuple[list, dict]:
        if self.inst is None:
            return [], {}
        rows = self.inst.tracer.to_rows()
        snap = self.inst.metrics.snapshot()
        self.inst.reset()
        return rows, snap

    def close(self) -> None:
        self.seq_a = self.seq_b = self.profile = None
        self.rows_h = self.cols_h = self.rows_f = self.cols_e = None
        self.arena.close()
        obs.disable()
        faults.disable()


def _worker_main(wid: int, conn, results) -> None:
    """Worker process entry point: serve bind/tile/flush/stop commands."""
    # Under "fork" this process inherits the parent's instrumented()/
    # chaos() context-variable scopes; drop them so only what the bound
    # SessionSpec enables is observed.
    obs.reset_scope()
    faults.reset_scope()
    state: Optional[_WorkerState] = None
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "stop":
            break
        try:
            if kind == "bind":
                if state is not None:
                    state.close()
                state = _WorkerState(wid, msg[1])
                results.put(("bound", wid))
            elif kind == "unbind":
                if state is not None:
                    state.close()
                    state = None
                results.put(("unbound", wid))
            elif kind == "flush":
                rows, snap = state.drain_obs() if state is not None else ([], {})
                results.put(("stats", wid, rows, snap))
            elif kind == "tile":
                key = (msg[1], msg[2])
                state.compute_tile(*msg[1:])
                results.put(("done", wid, key))
        except BaseException as exc:  # report, keep serving
            key = (msg[1], msg[2]) if kind == "tile" else None
            results.put((
                "error", wid, key, type(exc).__name__, str(exc),
                getattr(exc, "transient", None), getattr(exc, "site", None),
                traceback.format_exc(),
            ))
    if state is not None:
        state.close()


def _rebuild_error(cls_name, message, transient, site) -> BaseException:
    """Reconstruct a worker exception from its wire form."""
    cls = getattr(_errors, cls_name, None) or getattr(builtins, cls_name, None)
    if cls is _errors.InjectedFaultError:
        return cls(site or "worker", message, bool(transient))
    exc: BaseException
    if isinstance(cls, type) and issubclass(cls, BaseException):
        try:
            exc = cls(message)
        except Exception:  # pragma: no cover - exotic constructors
            exc = SchedulerError(f"{cls_name}: {message}")
    else:
        exc = SchedulerError(f"{cls_name}: {message}")
    if transient is not None:
        try:
            exc.transient = transient
        except Exception:  # pragma: no cover
            pass
    return exc


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ProcessPool:
    """``P`` persistent workers + the parent-side tile DAG dispatcher."""

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise SchedulerError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        ctx = mp.get_context()
        self._results: mp.Queue = ctx.Queue()
        self._conns = []
        self._procs = []
        self._broken = False
        self._bound = False
        for wid in range(n_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(wid, child_conn, self._results),
                daemon=True,
                name=f"fastlsa-worker-{wid}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    # ------------------------------------------------------------------
    @property
    def broken(self) -> bool:
        """True once a worker died; the pool must be replaced."""
        return self._broken

    def _fail(self, wid: int) -> None:
        self._broken = True
        code = self._procs[wid].exitcode
        self.close()
        raise WorkerCrashError(
            f"wavefront worker {wid} died (exit code {code})", worker=wid
        )

    def _recv(self):
        """Next worker reply, liveness-polling so a crash never hangs us."""
        if self._broken:
            raise WorkerCrashError("process pool is broken; create a new one")
        while True:
            try:
                return self._results.get(timeout=_POLL_S)
            except queue_mod.Empty:
                for wid, proc in enumerate(self._procs):
                    if not proc.is_alive():
                        self._fail(wid)

    def _broadcast(self, msg, ack: str) -> None:
        for wid, conn in enumerate(self._conns):
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):
                self._fail(wid)
        seen = 0
        while seen < self.n_workers:
            reply = self._recv()
            if reply[0] == "error":
                raise _rebuild_error(*reply[3:7])
            if reply[0] == ack:
                seen += 1

    # ------------------------------------------------------------------
    def bind(self, spec: SessionSpec) -> None:
        """Warm-start every worker with one session (blocks until bound)."""
        if self._broken:
            raise WorkerCrashError("process pool is broken; create a new one")
        self._broadcast(("bind", spec), ack="bound")
        self._bound = True

    def unbind(self) -> None:
        """Detach every worker from the current session's arena."""
        if self._bound and not self._broken:
            self._broadcast(("unbind",), ack="unbound")
        self._bound = False

    def drain_obs(self) -> List[Tuple[list, dict]]:
        """Collect and reset every worker's span/metric buffers."""
        if self._broken:
            return []
        out: List[Tuple[list, dict]] = []
        for wid, conn in enumerate(self._conns):
            try:
                conn.send(("flush",))
            except (BrokenPipeError, OSError):
                self._fail(wid)
        seen = 0
        while seen < self.n_workers:
            reply = self._recv()
            if reply[0] == "stats":
                out.append((reply[2], reply[3]))
                seen += 1
        return out

    # ------------------------------------------------------------------
    def run_region(self, tg: TileGrid, phases: Optional[List[str]] = None) -> None:
        """Execute one region's tile DAG across the workers.

        Coordinates-only dispatch: ready tiles go to idle workers (one in
        flight per worker — the parent is the scheduler, so faster
        workers naturally steal more of the wavefront).  The first worker
        error aborts the region after draining in-flight tiles, keeping
        the result queue clean for the next region.  ``phases`` (from
        :func:`~repro.parallel.wavefront.line_phases`, by wavefront line)
        tags each tile with its Figure-13 phase.
        """
        ids = [(t.r, t.c) for t in tg.tiles()]
        if not ids:
            return
        token = cancel.current()
        indeg: Dict[Tuple[int, int], int] = {
            tid: len(tg.dependencies(tid)) for tid in ids
        }
        ready = [tid for tid in ids if indeg[tid] == 0]
        if not ready:
            raise SchedulerError("tile DAG has no roots: cyclic dependencies")
        idle = list(range(self.n_workers))
        busy = 0
        pending = len(ids)
        error: Optional[BaseException] = None

        def dispatch() -> None:
            nonlocal busy
            while ready and idle:
                tid = ready.pop()
                wid = idle.pop()
                tile = tg[tid]
                msg = ("tile", tile.r, tile.c, tile.a0, tile.a1, tile.b0, tile.b1)
                if phases is not None:
                    msg += (phases[tile.r + tile.c],)
                try:
                    self._conns[wid].send(msg)
                except (BrokenPipeError, OSError):
                    self._fail(wid)
                busy += 1

        dispatch()
        while pending > 0:
            if error is None and token is not None:
                try:
                    token.check()
                except BaseException as exc:
                    error = exc
                    ready.clear()
            if error is not None and busy == 0:
                break
            reply = self._recv()
            kind = reply[0]
            if kind == "done":
                _, wid, key = reply
                idle.append(wid)
                busy -= 1
                pending -= 1
                for dep in tg.dependents(key):
                    indeg[dep] -= 1
                    if indeg[dep] == 0:
                        ready.append(dep)
                if error is None:
                    dispatch()
            elif kind == "error":
                idle.append(reply[1])
                busy -= 1
                pending -= 1
                if error is None:
                    error = _rebuild_error(*reply[3:7])
                ready.clear()
        if error is not None:
            raise error

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker; terminate stragglers (idempotent)."""
        if not self._procs and not self._conns:
            return
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._results.close()
        self._results.join_thread()
        self._conns = []
        self._procs = []
        self._bound = False
