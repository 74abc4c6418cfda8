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
uint8 and published, tile boundaries exchanged zero-copy,
coordinates-only dispatch.  The dense base case stays serial in-parent:
base regions are cache-sized by construction, so process dispatch
overhead would dominate any win.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.fastlsa import FastLSAHooks
from ..core.planner import arena_cells, resolve_backend
from ..faults import runtime as faults
from ..kernels import registry
from ..kernels.linear import score_profile
from ..obs import runtime as obs
from ..scoring.scheme import ScoringScheme
from . import lifecycle
from .pfastlsa import build_fill_tiles
from .procpool import SessionSpec
from .shm import SharedArena, arena_spec
from .tiles import default_uv
from .wavefront import line_phases

__all__ = ["backend_hooks", "ProcessSession"]


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
    u, v = _tile_shape(config, workers, m, n, affine=not scheme.is_linear)
    kernel_tier = registry.resolve_tier(getattr(config, "kernel", None))
    session = ProcessSession(
        scheme, a_codes, b_codes, m, n, config.k, workers, u, v,
        kernel=kernel_tier,
    )
    return FastLSAHooks(fill=session.fill, base_matrix=None), session.finish


def _tile_shape(config, workers: int, m: int, n: int, affine: bool):
    """Tile ``(u, v)``: calibration-shaped when the config carries an
    active ``tune`` profile, else :func:`default_uv`."""
    if getattr(config, "tune", None) not in (None, "off"):
        from ..tune.decision import tile_uv
        from ..tune.profile import load_profile

        profile = load_profile(config.tune)
        if profile is not None:
            return tile_uv(profile, workers, config.k, m, n, affine)
    return default_uv(workers, config.k)


class ProcessSession:
    """One alignment's binding of the shared process pool + arena.

    Lazily bound: the arena is allocated and broadcast on the first
    :meth:`fill` call, so tiny alignments that never leave the base case
    pay nothing.  :meth:`finish` is idempotent and must always run.
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
        u: int,
        v: int,
        kernel: Optional[str] = None,
    ) -> None:
        self.scheme = scheme
        self.a_codes = a_codes
        self.b_codes = b_codes
        self.m, self.n, self.k = m, n, k
        self.workers, self.u, self.v = workers, u, v
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
            affine=not self.scheme.is_linear, u=self.u, v=self.v,
        )

    # ------------------------------------------------------------------
    def _bind(self) -> None:
        scheme = self.scheme
        table = scheme.matrix.table
        affine = not scheme.is_linear
        spec = arena_spec(
            self.m, self.n, self.k * self.u, self.k * self.v,
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
        """Process-parallel FillCache for one region (FastLSAHooks.fill)."""
        if self.arena is None:
            self._bind()
        tg = build_fill_tiles(grid, self.u, self.v, skip_bottom_right)
        if len(tg) == 0:
            return
        problem = grid.problem
        i0, j0 = problem.i0, problem.j0
        i1, j1 = problem.i1, problem.j1
        affine = not scheme.is_linear
        rows_h = self.arena["rows_h"]
        cols_h = self.arena["cols_h"]
        # Region boundary caches in, globally indexed (tile row/col 0 reads
        # these; deeper rows/cols read the previous tile's outputs).
        rows_h[0, j0 : j1 + 1] = problem.cache_row.h
        cols_h[0, i0 : i1 + 1] = problem.cache_col.h
        if affine:
            self.arena["rows_f"][0, j0 : j1 + 1] = problem.cache_row.f
            self.arena["cols_e"][0, i0 : i1 + 1] = problem.cache_col.e

        # Drop the view locals before dispatching: if run_region raises,
        # the exception's traceback pins this frame, and any live numpy
        # views would block the arena's mmap from closing in finish().
        del rows_h, cols_h

        with obs.span(
            "wavefront.run", category="wavefront",
            n_tiles=len(tg), n_threads=self.workers, backend="processes",
        ):
            # Figure-13 phase per anti-diagonal, shipped with each tile
            # only while observing: no per-tile cost otherwise.
            phases = line_phases(tg, self.workers) if self._observe else None
            self.pool.run_region(tg, phases)
        if counter is not None:
            counter.add_cells(tg.total_cells())

        # Copy interior grid lines out of the arena (the only per-region
        # copy; everything else stayed in shared memory).
        rows_h = self.arena["rows_h"]
        cols_h = self.arena["cols_h"]
        rows_f = self.arena["rows_f"] if affine else None
        cols_e = self.arena["cols_e"] if affine else None
        row_tiles: dict = {}
        col_tiles: dict = {}
        for t in tg.tiles():
            row_tiles[t.r] = max(row_tiles.get(t.r, j0), t.b1)
            col_tiles[t.c] = max(col_tiles.get(t.c, i0), t.a1)
        for p in range(1, len(grid.row_bounds) - 1):
            gp = grid.row_bounds[p]
            r = tg.row_bounds.index(gp) - 1
            hi = row_tiles.get(r, j0)
            grid.store_row_segment(
                p, j0, rows_h[r + 1, j0 : hi + 1],
                rows_f[r + 1, j0 : hi + 1] if affine else None,
            )
        for q in range(1, len(grid.col_bounds) - 1):
            gq = grid.col_bounds[q]
            c = tg.col_bounds.index(gq) - 1
            hi = col_tiles.get(c, i0)
            grid.store_col_segment(
                q, i0, cols_h[c + 1, i0 : hi + 1],
                cols_e[c + 1, i0 : hi + 1] if affine else None,
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
