"""Backend resolution: ``AlignConfig.backend`` → FastLSA hooks.

:func:`repro.core.fastlsa.fastlsa` calls :func:`backend_hooks` (lazily,
to keep ``core`` import-clean of the parallel package) whenever a config
selects a non-serial backend and no explicit hooks were passed.  Every
entry point that forwards ``config=`` — ``repro.align``, the ends-free
modes, :func:`~repro.core.batch.batch_align`, the service scheduler and
the CLI — therefore routes through here with no extra plumbing.

``processes`` is the one physical parallel backend: a
:class:`~repro.parallel.procpool.ProcessPool` session around a
:class:`~repro.parallel.shm.SharedArena` — sequences encoded once to
uint8 and published, strip boundaries exchanged zero-copy,
coordinates-only dispatch.

Each FillCache region runs as a **strip wavefront**
(:func:`strip_tiles`): cut on grid lines into ``C = min(P, k)``
full-width column strips and ``R = k·u`` row tiles (``u`` from
:func:`~repro.core.planner.strip_rows`), worker ``c`` owning strip ``c``
and sweeping each tile with the tier's ``sweep_band`` — the kernel
serial :func:`~repro.core.fillcache.fill_grid` runs, so a tile row pays
the numpy per-call overhead once per strip rather than once per block.
The paper's ``u × v`` tile model (:func:`~repro.parallel.pfastlsa.build_fill_tiles`)
stays the simulator's.

Regions under :data:`STRIP_CUTOFF_CELLS` are filled in the parent with
``fill_grid``: below it, dispatch costs more than the second core saves.
An alignment whose regions all fall under it never binds the pool.  The
dense base case also stays serial in-parent: base regions are
cache-sized by construction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.fastlsa import FastLSAHooks
from ..core.fillcache import fill_grid
from ..core.planner import arena_cells, resolve_backend, strip_rows
from ..faults import runtime as faults
from ..kernels import registry
from ..kernels.linear import score_profile
from ..obs import runtime as obs
from ..scoring.scheme import ScoringScheme
from . import lifecycle
from .procpool import SessionSpec
from .shm import SharedArena, arena_spec
from .tiles import refine_bounds
from .wavefront import line_phases

__all__ = ["backend_hooks", "ProcessSession", "strip_tiles", "STRIP_CUTOFF_CELLS"]

#: FillCache regions with fewer cells than this are filled in the parent
#: (serial ``fill_grid``) instead of dispatched as strips: on a 2-CPU
#: host, numpy tier, P = 2, strips broke even with serial at a 4000²
#: top-level region and lost below it (docs/PERFORMANCE.md).
STRIP_CUTOFF_CELLS = 16_000_000


def backend_hooks(
    config,
    scheme: ScoringScheme,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    m: int,
    n: int,
) -> "Tuple[Optional[FastLSAHooks], Optional[callable]]":
    """Hooks (and a finisher) for ``config.backend``, or ``(None, None)``.

    The finisher must run after the alignment completes (success or not):
    it merges worker observability buffers and releases the shared arena.
    """
    backend, workers = resolve_backend(config)
    if backend == "serial":
        return None, None
    kernel_tier = registry.resolve_tier(getattr(config, "kernel", None))
    session = ProcessSession(
        scheme, a_codes, b_codes, m, n, config.k, workers, kernel=kernel_tier,
    )
    return FastLSAHooks(fill=session.fill, base_matrix=None), session.finish


def strip_tiles(
    grid, u: int, workers: int, skip_bottom_right: bool = True
) -> Tuple[List[int], List[List[tuple]]]:
    """The strip wavefront of one FillCache region.

    Returns ``(row_bounds, strips)``: the ``R + 1`` global row-tile
    bounds (each grid block row refined into ``u``), and ``strips[c]``,
    strip ``c``'s tiles top to bottom as ``(r, a0, a1, b0, b1, q0, cols)``
    — global rows ``a0..a1`` and columns ``b0..b1``, ``q0`` the grid
    column index of ``b0`` and ``cols`` the interior grid columns in
    ``(b0, b1]`` (indices ``q0 + 1, ...``) the tile samples.  The
    ``C = min(workers, block columns)`` strips are cut on grid lines.
    With ``skip_bottom_right`` the last block row stops at
    ``col_bounds[-2]``: the strip holding the bottom-right block is
    truncated there, and a strip starting there has no tiles in that
    block row.
    """
    rows = refine_bounds(grid.row_bounds, u)
    cb = grid.col_bounds
    Q = len(cb) - 1
    C = max(1, min(workers, Q))
    edges = [c * Q // C for c in range(C + 1)]
    last_row_a0 = grid.row_bounds[-2]
    stop = cb[-2] if skip_bottom_right else cb[-1]
    strips: List[List[tuple]] = []
    for c in range(C):
        q0, q1 = edges[c], edges[c + 1]
        b0 = cb[q0]
        tiles = []
        for r in range(len(rows) - 1):
            a0, a1 = rows[r], rows[r + 1]
            b1 = cb[q1] if a0 < last_row_a0 else min(cb[q1], stop)
            if b1 <= b0:
                break
            cols = tuple(x for x in cb[q0 + 1 : min(q1, Q - 1) + 1] if x <= b1)
            tiles.append((r, a0, a1, b0, b1, q0, cols))
        strips.append(tiles)
    return rows, strips


class ProcessSession:
    """One alignment's binding of the shared process pool + arena.

    Lazily bound: the arena is allocated and broadcast on the first
    region at or above :data:`STRIP_CUTOFF_CELLS`, so alignments filled
    wholly in the parent pay nothing.  :meth:`finish` is idempotent and
    must always run.
    """

    def __init__(
        self,
        scheme: ScoringScheme,
        a_codes: np.ndarray,
        b_codes: np.ndarray,
        m: int,
        n: int,
        k: int,
        workers: int,
        kernel: Optional[str] = None,
    ) -> None:
        self.scheme = scheme
        self.a_codes = a_codes
        self.b_codes = b_codes
        self.m, self.n, self.k = m, n, k
        self.workers = workers
        self.u = strip_rows(workers, k)
        # Kernel tier shipped to the workers in the SessionSpec.  Resolved
        # from the config at hook-build time (so a tuned/explicit
        # ``config.kernel`` wins); ``None`` falls back to the ambient
        # contextvar tier at bind time, as before.
        self.kernel = kernel
        self.arena: Optional[SharedArena] = None
        self.pool = None
        self._observe = False

    #: Predicted arena size in DP cells (what the governor accounts for).
    @property
    def predicted_arena_cells(self) -> int:
        return arena_cells(
            self.m, self.n, self.k, self.workers,
            affine=not self.scheme.is_linear,
            alphabet=self.scheme.matrix.table.shape[0],
        )

    # ------------------------------------------------------------------
    def _bind(self) -> None:
        scheme = self.scheme
        table = scheme.matrix.table
        affine = not scheme.is_linear
        spec = arena_spec(
            self.m, self.n, self.k * self.u, self.k,
            alphabet=table.shape[0], affine=affine,
        )
        self.arena = SharedArena.create(spec)
        self.arena["seq_a"][: self.m] = self.a_codes.astype(np.uint8)
        self.arena["seq_b"][: self.n] = self.b_codes.astype(np.uint8)
        if self.n:
            self.arena["profile"][:, : self.n] = score_profile(table, self.b_codes)
        plan = faults.current()
        self._observe = obs.current() is not None
        self.pool = lifecycle.get_process_pool(self.workers)
        try:
            self.pool.bind(
                SessionSpec(
                    arena_name=self.arena.name,
                    arena_fields=spec,
                    table=table,
                    gap_open=scheme.gap_open,
                    gap_extend=scheme.gap_extend if affine else 0,
                    is_linear=scheme.is_linear,
                    fault_plan=plan.to_dict() if plan is not None else None,
                    observe=self._observe,
                    kernel=self.kernel or registry.current_tier(),
                )
            )
        except BaseException:
            self.arena.destroy()
            self.arena = None
            raise

    # ------------------------------------------------------------------
    def fill(self, grid, a_codes, b_codes, scheme, counter, skip_bottom_right=True):
        """Strip-wavefront FillCache for one region (FastLSAHooks.fill)."""
        problem = grid.problem
        if problem.nrows * problem.ncols < STRIP_CUTOFF_CELLS:
            fill_grid(grid, a_codes, b_codes, scheme, counter, skip_bottom_right)
            return
        if self.arena is None:
            self._bind()
        rows, strips = strip_tiles(grid, self.u, self.workers, skip_bottom_right)
        i0, j0 = problem.i0, problem.j0
        i1, j1 = problem.i1, problem.j1
        affine = not scheme.is_linear
        rows_h = self.arena["rows_h"]
        cols_h = self.arena["cols_h"]
        # Region boundary caches in, globally indexed (row tile 0 and
        # strip 0 read these; the rest read other tiles' outputs).
        rows_h[0, j0 : j1 + 1] = problem.cache_row.h
        cols_h[0, i0 : i1 + 1] = problem.cache_col.h
        if affine:
            self.arena["rows_f"][0, j0 : j1 + 1] = problem.cache_row.f
            self.arena["cols_e"][0, i0 : i1 + 1] = problem.cache_col.e

        # Drop the view locals before dispatching: if run_strips raises,
        # the exception's traceback pins this frame, and any live numpy
        # views would block the arena's mmap from closing in finish().
        del rows_h, cols_h

        tiles = [(t[0] + c, t) for c, strip in enumerate(strips) for t in strip]
        with obs.span(
            "wavefront.run", category="wavefront",
            n_tiles=len(tiles), n_threads=self.workers, backend="processes",
        ):
            phases = None
            if self._observe:
                # Figure-13 phase per anti-diagonal, shipped with each
                # tile only while observing: no per-tile cost otherwise.
                sizes = [0] * (len(rows) + len(strips) - 2)
                for d, _ in tiles:
                    sizes[d] += 1
                phases = line_phases(sizes, self.workers)
            self.pool.run_strips(strips, phases)
        if counter is not None:
            counter.add_cells(sum((t[2] - t[1]) * (t[4] - t[3]) for _, t in tiles))

        # Copy the interior grid lines out of the arena (the only
        # per-region copy; everything else stayed in shared memory).
        # Every interior line is computed full length.
        rows_h = self.arena["rows_h"]
        cols_h = self.arena["cols_h"]
        rows_f = self.arena["rows_f"] if affine else None
        cols_e = self.arena["cols_e"] if affine else None
        for p in range(1, len(grid.row_bounds) - 1):
            r = rows.index(grid.row_bounds[p])
            grid.store_row_segment(
                p, j0, rows_h[r, j0 : j1 + 1],
                rows_f[r, j0 : j1 + 1] if affine else None,
            )
        for q in range(1, len(grid.col_bounds) - 1):
            grid.store_col_segment(
                q, i0, cols_h[q, i0 : i1 + 1],
                cols_e[q, i0 : i1 + 1] if affine else None,
            )

    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Merge worker obs buffers and release the arena (idempotent)."""
        if self.arena is None:
            return
        try:
            if self.pool is not None and not self.pool.broken:
                if self._observe:
                    inst = obs.current()
                    buffers = self.pool.drain_obs()
                    if inst is not None:
                        for rows, snap in buffers:
                            inst.tracer.adopt_rows(rows)
                            inst.metrics.merge(snap)
                self.pool.unbind()
        finally:
            self.arena.destroy()
            self.arena = None
