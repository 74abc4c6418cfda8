"""Ablation experiments A1–A5 — the design choices DESIGN.md calls out.

Not paper figures; these benches justify the reproduction's own
implementation decisions and quantify the parameter interactions the
paper discusses qualitatively:

* **A1** — FillCache formulation: full-width band sweeps vs the literal
  per-block walk (identical grid lines; bands avoid ``k×`` numpy per-row
  overhead).
* **A2** — kernel formulation: prefix-max row scan vs anti-diagonal
  wavefront vs pure-Python reference (why the scan kernel exists).
* **A3** — parallel tile shape: speedup vs ``u = v`` at fixed P and k
  (the paper's R·C ≫ P² requirement).
* **A4** — Base Case buffer ``BM``: wall time and operations vs
  ``base_cells``.
* **A5** — scheduler: greedy list scheduling vs the stage-synchronous
  barrier schedule the paper's bounds model.
"""

import time

import numpy as np
import pytest

from repro.core import AlignConfig, Grid, fastlsa, fill_grid
from repro.core.fastlsa import initial_problem
from repro.core.fillcache import fill_grid_blocks
from repro.kernels import antidiag_matrix, boundary_vectors, sweep_matrix
from repro.kernels.reference import ref_matrix_linear
from repro.parallel import (
    build_fill_tiles,
    simulate_schedule,
    simulated_parallel_fastlsa,
    wavefront_stage_schedule,
)

from common import bench_pair, default_scheme, report, scale

N = scale(1024, 8192)


@pytest.fixture(scope="module")
def setup():
    a, b = bench_pair(N)
    scheme = default_scheme()
    return scheme.encode(a.text), scheme.encode(b.text), scheme, a, b


# ----------------------------------------------------------------------
# A1: band vs block FillCache
# ----------------------------------------------------------------------
def test_report_a1_fill_formulation(setup):
    ac, bc, scheme, a, b = setup
    m, n = len(ac), len(bc)
    rows = []
    for k in (4, 8, 16):
        grids = {}
        for label, fill in (("band", fill_grid), ("block", fill_grid_blocks)):
            grid = Grid(initial_problem(m, n, scheme), k, affine=False)
            t0 = time.perf_counter()
            fill(grid, ac, bc, scheme)
            dt = time.perf_counter() - t0
            grids[label] = grid
            rows.append({"k": k, "formulation": label, "wall_s": round(dt, 4)})
        # The two formulations must produce identical grid lines.
        gb, gk = grids["band"], grids["block"]
        for p in range(1, len(gb.row_bounds) - 1):
            assert np.array_equal(
                gb.row_line(p, 0, n).h, gk.row_line(p, 0, n).h
            ), f"grid row {p} differs at k={k}"
        for q in range(1, len(gb.col_bounds) - 1):
            assert np.array_equal(
                gb.col_line(q, 0, m).h, gk.col_line(q, 0, m).h
            ), f"grid col {q} differs at k={k}"
    report("a1_fill_formulation", rows,
           title=f"A1: FillCache band vs block sweeps, {m}x{n}")
    by = {(r["k"], r["formulation"]): r["wall_s"] for r in rows}
    # The band formulation wins, increasingly so at larger k.
    assert by[(16, "band")] < by[(16, "block")]


# ----------------------------------------------------------------------
# A2: kernel formulation
# ----------------------------------------------------------------------
def test_report_a2_kernel_formulation(setup):
    ac, bc, scheme, *_ = setup
    n_small = scale(384, 1024)
    ac, bc = ac[:n_small], bc[:n_small]
    table = scheme.matrix.table
    fr, fc = boundary_vectors(len(ac), len(bc), -6)
    rows = []

    def best_of(fn, repeats=5):
        fn()  # warm-up (table/codes caches)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        return out, min(times)

    h_scan, t_scan = best_of(lambda: sweep_matrix(ac, bc, table, -6, fr, fc))
    rows.append({"kernel": "prefix-scan rows", "wall_s": round(t_scan, 4),
                 "mcells_per_s": round(len(ac) * len(bc) / t_scan / 1e6, 1)})
    h_diag, t_diag = best_of(lambda: antidiag_matrix(ac, bc, table, -6, fr, fc))
    rows.append({"kernel": "anti-diagonal", "wall_s": round(t_diag, 4),
                 "mcells_per_s": round(len(ac) * len(bc) / t_diag / 1e6, 1)})
    n_ref = 160  # the pure-Python loop is ~1000x slower; keep it tiny
    t0 = time.perf_counter()
    h_ref = ref_matrix_linear(ac[:n_ref], bc[:n_ref], table, -6)
    t_ref = (time.perf_counter() - t0) * (len(ac) * len(bc)) / (n_ref * n_ref)
    rows.append({"kernel": "pure-python (extrapolated)", "wall_s": round(t_ref, 2),
                 "mcells_per_s": round(len(ac) * len(bc) / t_ref / 1e6, 3)})
    report("a2_kernel_formulation", rows,
           title=f"A2: DP kernel formulations, {len(ac)}x{len(bc)}")
    assert np.array_equal(h_scan, h_diag)
    assert np.array_equal(h_scan[: n_ref + 1, : n_ref + 1], h_ref)
    # Timing claims with slack for a shared, single-core box: the scan
    # beats per-diagonal dispatch (typically 4-5x) and is orders of
    # magnitude faster than pure Python (typically ~1000x).
    assert t_scan < t_diag * 1.05
    assert t_scan < t_ref / 20


# ----------------------------------------------------------------------
# A3: tile shape (u = v sweep)
# ----------------------------------------------------------------------
def test_report_a3_tile_shape(setup):
    *_, a, b = setup
    scheme = default_scheme()
    P, k = 8, 4
    rows = []
    for u in (1, 2, 3, 4, 6):
        _, rep = simulated_parallel_fastlsa(
            a, b, scheme, P=P, k=k, u=u, v=u, base_cells=16 * 1024, overhead=0
        )
        rows.append({"u=v": u, "R*C": (k * u) ** 2,
                     "speedup": round(rep.speedup, 2),
                     "efficiency": round(rep.efficiency, 3)})
    report("a3_tile_shape", rows,
           title=f"A3: tile shape sweep, {len(a)}x{len(b)}, P={P}, k={k}")
    sp = [r["speedup"] for r in rows]
    # More tiles -> closer to P, with diminishing returns (R*C >> P^2).
    assert sp[-1] > sp[0]
    assert sp == sorted(sp)


# ----------------------------------------------------------------------
# A4: Base Case buffer sweep
# ----------------------------------------------------------------------
def test_report_a4_base_cells(setup):
    *_, a, b = setup
    scheme = default_scheme()
    mn = len(a) * len(b)
    rows = []
    for bm in (1024, 16 * 1024, 256 * 1024, 4 * 1024 * 1024):
        al = fastlsa(a, b, scheme, config=AlignConfig(k=4, base_cells=bm))
        rows.append({
            "base_cells": bm,
            "wall_s": round(al.stats.wall_time, 4),
            "cells_ratio": round(al.stats.cells_computed / mn, 3),
            "peak_cells": al.stats.peak_cells_resident,
            "subproblems": al.stats.subproblems,
        })
    report("a4_base_cells", rows, title=f"A4: Base Case buffer sweep, {len(a)}x{len(b)}")
    # A bigger buffer terminates recursion earlier: fewer sub-problems,
    # more memory.
    subs = [r["subproblems"] for r in rows]
    assert subs == sorted(subs, reverse=True)
    peaks = [r["peak_cells"] for r in rows]
    assert peaks[-1] > peaks[0]


# ----------------------------------------------------------------------
# A5: greedy vs stage-synchronous scheduling
# ----------------------------------------------------------------------
def test_report_a5_scheduler(setup):
    ac, bc, scheme, *_ = setup
    m, n = len(ac), len(bc)
    grid = Grid(initial_problem(m, n, scheme), 6, affine=False)
    tg = build_fill_tiles(grid, 2, 3)
    rows = []
    for P in (2, 4, 8, 16):
        greedy = simulate_schedule(tg, P).makespan
        barrier, _ = wavefront_stage_schedule(tg, P)
        rows.append({
            "P": P,
            "greedy_makespan": int(greedy),
            "barrier_makespan": int(barrier),
            "barrier_penalty": round(barrier / greedy, 3),
        })
    report("a5_scheduler", rows,
           title=f"A5: greedy list scheduling vs per-line barriers, {m}x{n} fill")
    for row in rows:
        assert row["barrier_makespan"] >= row["greedy_makespan"]
    # At mid-range P the barriers cost real time (ramp phases repeat per
    # line); at very large P both schedules converge to the critical path.
    assert max(r["barrier_penalty"] for r in rows) > 1.1


def test_bench_fill_band(benchmark, setup):
    ac, bc, scheme, *_ = setup
    m, n = len(ac), len(bc)

    def run():
        grid = Grid(initial_problem(m, n, scheme), 8, affine=False)
        fill_grid(grid, ac, bc, scheme)

    benchmark.pedantic(run, rounds=2, iterations=1)


def test_bench_fill_blocks(benchmark, setup):
    ac, bc, scheme, *_ = setup
    m, n = len(ac), len(bc)

    def run():
        grid = Grid(initial_problem(m, n, scheme), 8, affine=False)
        fill_grid_blocks(grid, ac, bc, scheme)

    benchmark.pedantic(run, rounds=2, iterations=1)
