"""Parallel FastLSA: wavefront tile grids + the simulated-machine driver.

The paper's decomposition: each grid block is refined into ``u × v``
tiles (``R = k·u`` tile rows, ``C = k·v`` tile columns), the
bottom-right block's tiles are skipped during FillCache, and recursion
along the path is sequential while each region is wavefront-parallel
(Equation 28's structure).

* :func:`build_fill_tiles` / :func:`build_base_tiles` — the tile DAGs of
  one FillCache / Base-Case region.  The process backend
  (:mod:`repro.parallel.backends`) runs FillCache tiles on real cores;
  physical parallel execution is ``fastlsa(...,
  config=AlignConfig(backend="processes", max_workers=P))``.
* :func:`simulated_parallel_fastlsa` — runs the real alignment once while
  feeding every FillCache / Base-Case tile DAG through the deterministic
  ``P``-processor simulator, reproducing the paper's speedup and
  efficiency experiments on any hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..align.alignment import Alignment
from ..align.sequence import as_sequence
from ..core.config import DEFAULT_BASE_CELLS, DEFAULT_K, FastLSAConfig
from ..core.fastlsa import FastLSAHooks, fastlsa
from ..core.fillcache import fill_grid
from ..core.grid import Grid, split_bounds
from ..errors import ConfigError
from ..kernels.fullmatrix import compute_full
from ..scoring.scheme import ScoringScheme
from .simmachine import ScheduleReport, simulate_schedule
from .tiles import TileGrid, default_uv, refine_bounds

__all__ = [
    "build_fill_tiles",
    "build_base_tiles",
    "SimulationReport",
    "simulated_parallel_fastlsa",
]


# ----------------------------------------------------------------------
# tile-grid construction
# ----------------------------------------------------------------------
def build_fill_tiles(grid: Grid, u: int, v: int, skip_bottom_right: bool = True) -> TileGrid:
    """Tile decomposition of a FillCache region, grid-line aligned.

    Refines each block into ``u × v`` tiles and (optionally) skips the
    tiles covered by the bottom-right block.
    """
    row_bounds = refine_bounds(grid.row_bounds, u)
    col_bounds = refine_bounds(grid.col_bounds, v)
    skip = set()
    if skip_bottom_right and len(grid.row_bounds) >= 2 and len(grid.col_bounds) >= 2:
        br_a0 = grid.row_bounds[-2]
        br_b0 = grid.col_bounds[-2]
        for r in range(len(row_bounds) - 1):
            for c in range(len(col_bounds) - 1):
                if row_bounds[r] >= br_a0 and col_bounds[c] >= br_b0:
                    skip.add((r, c))
    return TileGrid(row_bounds, col_bounds, skip=skip)


def build_base_tiles(M: int, N: int, k: int, u: int, v: int) -> TileGrid:
    """Tile decomposition of a Base Case region (paper's ``PBaseCaseT``).

    Uses the same nominal ``R = k·u`` / ``C = k·v`` refinement as a
    FillCache region; short dimensions degrade to fewer tiles.
    """
    return TileGrid(split_bounds(0, M, k * u), split_bounds(0, N, k * v))


# ----------------------------------------------------------------------
# simulated machine driver
# ----------------------------------------------------------------------
@dataclass
class SimulationReport:
    """Aggregate of every region's simulated schedule for one alignment.

    Times are in cell-units.  ``seq_time`` is the sequential program's
    cost (pure DP work, no dispatch overhead); ``par_time`` the sum of the
    ``P``-worker makespans (tile costs + per-tile overhead) along the
    inherently-sequential recursion chain — Equation 28's structure.
    """

    P: int
    k: int
    u: int
    v: int
    overhead: float
    m: int = 0
    n: int = 0
    regions: List[ScheduleReport] = field(default_factory=list)

    def add(self, report: ScheduleReport) -> None:
        """Record one FillCache / Base-Case region."""
        self.regions.append(report)

    @property
    def seq_time(self) -> float:
        """Sequential-program time: pure DP work, no dispatch overhead."""
        return sum(r.work for r in self.regions)

    @property
    def par_time(self) -> float:
        """Total ``P``-worker time (sum of region makespans)."""
        return sum(r.makespan for r in self.regions)

    @property
    def speedup(self) -> float:
        """``seq_time / par_time``."""
        return self.seq_time / self.par_time if self.par_time > 0 else 1.0

    @property
    def efficiency(self) -> float:
        """``speedup / P``."""
        return self.speedup / self.P

    @property
    def n_regions(self) -> int:
        """Number of simulated wavefront regions."""
        return len(self.regions)

    def wt_bound(self) -> float:
        """Theorem 4's bound for this configuration (Eq. 36)."""
        from .model import wt_bound

        return wt_bound(max(self.m, 1), max(self.n, 1), self.k, self.P, self.u, self.v)


def simulated_parallel_fastlsa(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    P: int,
    k: Optional[int] = None,
    base_cells: Optional[int] = None,
    u: Optional[int] = None,
    v: Optional[int] = None,
    overhead: float = 0.0,
    config: Optional[FastLSAConfig] = None,
) -> Tuple[Alignment, SimulationReport]:
    """Run a real alignment while simulating its parallel execution.

    Every FillCache and Base-Case region is computed sequentially (for
    correctness) and its tile DAG is fed to the deterministic
    ``P``-processor simulator.  Returns the (exact) alignment together
    with the :class:`SimulationReport`.

    ``overhead`` adds a fixed per-tile cost (cells) modelling dispatch and
    synchronisation — the knob that makes efficiency grow with sequence
    size, as the paper observes.
    """
    if P < 1:
        raise ConfigError(f"P must be >= 1, got {P}")
    # The simulator keeps plain k/base_cells keywords: it is a modelling
    # API sweeping parameters, not a serving entry point.
    cfg = config or FastLSAConfig(
        k=k if k is not None else DEFAULT_K,
        base_cells=base_cells if base_cells is not None else DEFAULT_BASE_CELLS,
    )
    if u is None or v is None:
        du, dv = default_uv(P, cfg.k)
        u = u or du
        v = v or dv
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    report = SimulationReport(
        P=P, k=cfg.k, u=u, v=v, overhead=overhead, m=len(a), n=len(b)
    )

    def fill(grid, a_codes, b_codes, sch, counter, skip_bottom_right=True):
        fill_grid(grid, a_codes, b_codes, sch, counter, skip_bottom_right)
        tg = build_fill_tiles(grid, u, v, skip_bottom_right)
        if len(tg):
            report.add(simulate_schedule(tg, P, overhead=overhead))

    def base_matrix(a_codes, b_codes, sch, *args, **kwargs):
        mats = compute_full(a_codes, b_codes, sch, *args, **kwargs)
        M, N = len(a_codes), len(b_codes)
        if M > 0 and N > 0:
            tg = build_base_tiles(M, N, cfg.k, u, v)
            report.add(simulate_schedule(tg, P, overhead=overhead))
        return mats

    hooks = FastLSAHooks(fill=fill, base_matrix=base_matrix)
    alignment = fastlsa(a, b, scheme, config=cfg, hooks=hooks)
    alignment.algorithm = f"simulated-parallel-fastlsa(P={P})"
    return alignment, report
