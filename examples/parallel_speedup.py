#!/usr/bin/env python
"""Parallel FastLSA: wavefront execution, simulated speedups, Theorem 4.

Demonstrates the two parallel front-ends:

1. the **process backend** (bit-identical results; physical speedup on
   long pairs with spare cores), and
2. the **simulated machine**, which schedules the real alignment's tile
   DAGs on P virtual processors and reproduces the paper's speedup and
   efficiency curves on any host — checked against Theorem 4's bound.

Run:  python examples/parallel_speedup.py
"""

from repro import ScoringScheme, dna_simple, linear_gap
from repro import AlignConfig
from repro.analysis import format_rows
from repro.core import fastlsa
from repro.parallel import ideal_speedup, simulated_parallel_fastlsa
from repro.workloads import dna_pair


def main() -> None:
    scheme = ScoringScheme(dna_simple(), linear_gap(-6))
    n = 2048
    k = 6
    a, b = dna_pair(n, divergence=0.25, seed=11)

    # ------------------------------------------------------------------
    # 1. Process backend: same answer as the sequential algorithm.
    # ------------------------------------------------------------------
    seq = fastlsa(a, b, scheme, config=AlignConfig(k=k, base_cells=64 * 1024))
    par_cfg = AlignConfig(k=k, base_cells=64 * 1024, max_workers=2, backend="processes")
    par = fastlsa(a, b, scheme, config=par_cfg)
    assert par.score == seq.score and par.gapped_a == seq.gapped_a
    print(f"Process backend (P=2): score {par.score} — identical to sequential.\n")

    # ------------------------------------------------------------------
    # 2. Simulated machine: the paper's speedup experiment.
    # ------------------------------------------------------------------
    rows = []
    for P in (1, 2, 4, 8, 16):
        al, rep = simulated_parallel_fastlsa(
            a, b, scheme, P=P, k=k, base_cells=64 * 1024, overhead=0
        )
        R, C = k * rep.u, k * rep.v
        rows.append(
            {
                "P": P,
                "speedup": round(rep.speedup, 2),
                "efficiency": round(rep.efficiency, 3),
                "model_ideal": round(ideal_speedup(P, R, C), 2),
                "par_Mcells": round(rep.par_time / 1e6, 2),
                "WT_bound_Mcells": round(rep.wt_bound() / 1e6, 2),
                "bound_holds": rep.par_time <= rep.wt_bound(),
            }
        )
    print(format_rows(rows, title=f"Simulated Parallel FastLSA, {n}x{n}, k={k}"))
    print("\n'almost linear for 8 processors or less' — and every run is")
    print("within Theorem 4's closed-form bound (Eq. 36).")
    assert all(r["bound_holds"] for r in rows)

    # ------------------------------------------------------------------
    # 3. The wavefront itself: a Gantt view of one FillCache region on
    #    4 workers (ramp-up, steady state, ramp-down — paper Figure 13).
    # ------------------------------------------------------------------
    from repro.core import Grid
    from repro.core.fastlsa import initial_problem
    from repro.parallel import build_fill_tiles, schedule_gantt

    grid = Grid(initial_problem(600, 600, scheme), k, affine=False)
    tiles = build_fill_tiles(grid, 2, 2)
    print(f"\nFillCache wavefront schedule ({tiles.R}x{tiles.C} tiles on 4 workers):")
    print(schedule_gantt(tiles, 4, width=92))


if __name__ == "__main__":
    main()
