"""Wavefront schedule structure and the paper's three-phase decomposition.

Section 5.1 / Figure 13 of the paper divides the wavefront execution of a
Fill Cache sub-problem on ``P`` processors into three phases:

1. **ramp-up** — wavefront lines with fewer than ``P`` tiles at the start
   (the first ``P − 1`` lines, totalling ``P(P−1)/2`` tiles in the square
   case), each bounded by one tile-time ``T``;
2. **steady state** — "the true parallel phase": enough tiles per line to
   keep all processors busy; at most ``(R·C − P² + P)/P`` tile-times;
3. **ramp-down** — trailing lines with fewer than ``P`` tiles, again at
   most ``P − 1`` stages.

:func:`three_phases` reproduces that decomposition for any tile grid
(including FillCache grids with the bottom-right block skipped, which is
why phase 3 lines "may not consist of contiguous tiles");
:func:`wavefront_stage_schedule` computes the idealised stage-synchronous
makespan the paper's upper bounds describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .tiles import TileGrid, TileId

__all__ = [
    "PhaseBreakdown",
    "line_phases",
    "three_phases",
    "wavefront_stage_schedule",
]

#: Phase tags, in execution order (used on trace spans).
PHASE_NAMES = ("ramp_up", "steady", "ramp_down")


@dataclass
class PhaseBreakdown:
    """Tile counts and stage counts of the three wavefront phases."""

    ramp_up_tiles: int
    steady_tiles: int
    ramp_down_tiles: int
    ramp_up_stages: int
    steady_stages: int
    ramp_down_stages: int

    @property
    def total_tiles(self) -> int:
        """All computed tiles across the three phases."""
        return self.ramp_up_tiles + self.steady_tiles + self.ramp_down_tiles


def _split_sizes(sizes: List[int], P: int) -> Tuple[List[int], List[int], List[int]]:
    """Partition wavefront-line sizes into (ramp-up, steady, ramp-down)."""
    first_full = next((i for i, s in enumerate(sizes) if s >= P), None)
    if first_full is None:
        # No steady state: split at the peak.
        peak = max(range(len(sizes)), key=sizes.__getitem__) if sizes else 0
        return sizes[: peak + 1], [], sizes[peak + 1 :]
    last_full = max(i for i, s in enumerate(sizes) if s >= P)
    return (
        sizes[:first_full],
        sizes[first_full : last_full + 1],
        sizes[last_full + 1 :],
    )


def line_phases(sizes: List[int], P: int) -> List[str]:
    """The Figure-13 phase tag of each wavefront line, by line index.

    ``sizes[d]`` is the number of tiles on wavefront line ``d``; a tile
    on line ``r + c`` executes in ``line_phases(sizes, P)[r + c]`` — the
    tag the tracer attaches to wavefront tile spans so a trace can be
    cut along the paper's three-phase model.
    """
    up, steady, down = _split_sizes(list(sizes), P)
    return (
        [PHASE_NAMES[0]] * len(up)
        + [PHASE_NAMES[1]] * len(steady)
        + [PHASE_NAMES[2]] * len(down)
    )


def three_phases(grid: TileGrid, P: int) -> PhaseBreakdown:
    """Split a tile grid's wavefront lines into the paper's three phases.

    A line belongs to the ramp-up phase while every line seen so far has
    had fewer than ``P`` tiles; lines after the last full line form the
    ramp-down phase; everything in between is steady state.  When no line
    reaches ``P`` tiles there is no steady state and the split point
    between ramp-up and ramp-down is the widest line.
    """
    sizes = [len(line) for line in grid.wavefront_lines()]
    up, steady, down = _split_sizes(sizes, P)
    return PhaseBreakdown(
        ramp_up_tiles=sum(up),
        steady_tiles=sum(steady),
        ramp_down_tiles=sum(down),
        ramp_up_stages=len(up),
        steady_stages=len(steady),
        ramp_down_stages=len(down),
    )


def wavefront_stage_schedule(
    grid: TileGrid,
    P: int,
    cost: Optional[Callable[[TileId], float]] = None,
) -> Tuple[float, List[float]]:
    """Stage-synchronous makespan: each wavefront line is a barrier.

    Every line of ``s`` tiles takes ``ceil(s / P)`` rounds; a round lasts
    as long as its slowest tile.  This is the schedule the paper's
    analytical bounds model (each line "solved in a parallel stage").
    :mod:`repro.parallel.simmachine` relaxes the per-line barrier.

    Returns ``(makespan, per_line_times)``.
    """
    cost_fn = cost or (lambda tid: float(grid[tid].cells))
    per_line: List[float] = []
    for line in grid.wavefront_lines():
        costs = sorted((cost_fn(tid) for tid in line), reverse=True)
        line_time = 0.0
        for start in range(0, len(costs), P):
            line_time += costs[start]  # slowest tile of the round
        per_line.append(line_time)
    return sum(per_line), per_line
