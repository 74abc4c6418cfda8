"""Persistent process pool for the wavefront backend.

Architecture (see also :mod:`repro.parallel.shm`):

* ``P`` long-lived worker processes, each holding one end of a private
  duplex :class:`multiprocessing.Pipe`: commands in, replies out.  A
  reply is written by the worker's main thread before it starts its next
  tile (a ``multiprocessing.Queue`` would hand it to a feeder thread that
  waits for the GIL behind the running sweep, delaying the neighbour
  strip by up to a switch interval per tile).
* Per alignment the parent **binds** a session: one broadcast message
  carrying the shared-memory arena name/spec, the substitution table and
  gap parameters, the active fault plan (if any) and whether to record
  observability — everything a worker needs, shipped exactly once.
* Per FillCache region the parent runs a **strip wavefront**: the
  region is cut into ``C ≤ P`` full-width column strips and ``R`` row
  tiles, and worker ``c`` always owns strip ``c``.  The parent sends bare
  coordinates (``("strip", c, r, a0, a1, b0, b1, q0, cols, phase)``):
  all of strip 0 at once, then tile ``(r, c+1)`` as soon as ``(r, c)``
  replies ``("done", ...)``.  Each worker's pipe is FIFO, so a tile's
  upper neighbour (same strip, same worker) is always finished before it
  starts.  Tile data never crosses the pipe; boundary rows and grid
  columns live in the arena.
* Worker crashes are detected by end-of-file on the worker's pipe or by
  liveness-polling while waiting: a dead process surfaces as a typed,
  transient :class:`~repro.errors.WorkerCrashError` (never a hang) and
  marks the pool broken; :mod:`repro.parallel.lifecycle` respawns it on
  next use.

Workers honour the :mod:`repro.faults` tile sites and record their own
trace spans / metrics; :meth:`ProcessPool.drain_obs` merges the
per-worker buffers into the parent's instrumentation at session end.
"""

from __future__ import annotations

import builtins
import multiprocessing as mp
import traceback
from collections import deque
from multiprocessing.connection import wait as wait_ready
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

__all__ = ["ProcessPool", "SessionSpec"]

#: Seconds between liveness polls while waiting for a worker reply.
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

    def compute_strip_tile(
        self, c: int, r: int, a0: int, a1: int, b0: int, b1: int,
        q0: int, cols: Tuple[int, ...], phase: Optional[str] = None,
    ) -> None:
        """Sweep tile ``(r, c)``: rows ``a0..a1`` of the strip ``b0..b1``.

        The tile runs the same full-width band kernel as serial
        :func:`~repro.core.fillcache.fill_grid`.  It reads its top row
        from ``rows_h[r]`` and its left column from grid column ``q0``;
        it writes its bottom row to ``rows_h[r + 1]`` and the H (and E)
        values at the grid columns ``cols`` (indices ``q0 + 1, ...``)
        into ``cols_h``.  Entry 0 of each output is the corner another
        tile owns, so it is written only on the region's top row or left
        column: every arena cell has exactly one writer.
        """
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
            left_h = self.cols_h[q0, a0 : a1 + 1]
            sample = np.asarray(cols, dtype=np.int64) - b0
            qs = slice(q0 + 1, q0 + 1 + len(cols))
            row0 = 0 if c == 0 else 1
            col0 = 0 if r == 0 else 1
            if spec.is_linear:
                bot_h, samp_h = self.provider.sweep_band(
                    sub_a, sub_b, spec.table, spec.gap_open, top_h, left_h,
                    sample, profile=prof,
                )
            else:
                top_f = self.rows_f[r, b0 : b1 + 1]
                left_e = self.cols_e[q0, a0 : a1 + 1]
                bot_h, bot_f, samp_h, samp_e = self.provider.sweep_band(
                    sub_a, sub_b, spec.table, spec.gap_open, spec.gap_extend,
                    top_h, top_f, left_h, left_e, sample, profile=prof,
                )
                # F at column 0 and E at row 0 are sentinels, never the
                # corner's true value (same contract as Grid.store_*).
                self.rows_f[r + 1, b0 + 1 : b1 + 1] = bot_f[1:]
                self.cols_e[qs, a0 + 1 : a1 + 1] = samp_e[:, 1:]
            self.rows_h[r + 1, b0 + row0 : b1 + 1] = bot_h[row0:]
            self.cols_h[qs, a0 + col0 : a1 + 1] = samp_h[:, col0:]
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


def _worker_main(wid: int, conn) -> None:
    """Worker process entry point: serve bind/strip/flush/stop commands."""
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
                conn.send(("bound", wid))
            elif kind == "unbind":
                if state is not None:
                    state.close()
                    state = None
                conn.send(("unbound", wid))
            elif kind == "flush":
                rows, snap = state.drain_obs() if state is not None else ([], {})
                conn.send(("stats", wid, rows, snap))
            elif kind == "strip":
                state.compute_strip_tile(*msg[1:])
                conn.send(("done", wid, (msg[2], msg[1])))
        except BaseException as exc:  # report, keep serving
            key = (msg[2], msg[1]) if kind == "strip" else None
            conn.send((
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
    """``P`` persistent workers + the parent-side strip dispatcher."""

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise SchedulerError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        ctx = mp.get_context()
        self._replies: deque = deque()
        self._conns = []
        self._procs = []
        self._broken = False
        self._bound = False
        for wid in range(n_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(wid, child_conn),
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
        proc = self._procs[wid]
        self.close()  # joins, so the exit code is known
        raise WorkerCrashError(
            f"wavefront worker {wid} died (exit code {proc.exitcode})", worker=wid
        )

    def _recv(self):
        """Next worker reply, liveness-polling so a crash never hangs us."""
        if self._broken:
            raise WorkerCrashError("process pool is broken; create a new one")
        while not self._replies:
            ready = wait_ready(self._conns, timeout=_POLL_S)
            for conn in ready:
                try:
                    self._replies.append(conn.recv())
                except (EOFError, OSError):
                    self._fail(self._conns.index(conn))
            if not ready:
                for wid, proc in enumerate(self._procs):
                    if not proc.is_alive():
                        self._fail(wid)
        return self._replies.popleft()

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
    def run_strips(
        self, strips: List[List[tuple]], phases: Optional[List[str]] = None
    ) -> None:
        """Execute one region's strip wavefront across the workers.

        ``strips[c]`` lists strip ``c``'s tiles top to bottom, each
        ``(r, a0, a1, b0, b1, q0, cols)``; worker ``c`` runs all of them.
        Tile ``(r, c)`` needs ``(r − 1, c)`` (earlier in the same worker's
        FIFO pipe) and ``(r, c − 1)`` (sent on that tile's reply), so
        strip 0 is queued whole and every other tile one reply after its
        left neighbour.  The first worker error or cancellation stops
        further sends; the tiles already sent are drained before raising,
        keeping the reply stream clean for the next region.  ``phases``
        (from :func:`~repro.parallel.wavefront.line_phases`, by
        wavefront line) tags each tile with its Figure-13 phase.
        """
        token = cancel.current()
        sent = [0] * len(strips)
        in_flight = 0
        error: Optional[BaseException] = None

        def send(c: int) -> None:
            nonlocal in_flight
            tile = strips[c][sent[c]]
            phase = phases[tile[0] + c] if phases is not None else None
            try:
                self._conns[c].send(("strip", c) + tile + (phase,))
            except (BrokenPipeError, OSError):
                self._fail(c)
            sent[c] += 1
            in_flight += 1

        while strips and sent[0] < len(strips[0]):
            send(0)
        while in_flight:
            if error is None and token is not None:
                try:
                    token.check()
                except BaseException as exc:
                    error = exc
            reply = self._recv()
            kind = reply[0]
            if kind == "done":
                in_flight -= 1
                r, c = reply[2]
                nxt = c + 1
                if error is None and nxt < len(strips) and r < len(strips[nxt]):
                    send(nxt)
            elif kind == "error":
                in_flight -= 1
                if error is None:
                    error = _rebuild_error(*reply[3:7])
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
        self._replies.clear()
        self._conns = []
        self._procs = []
        self._bound = False
