"""Experiment F5 — sequential FastLSA vs its ``k`` parameter (Section 4).

Sweeps ``k`` at fixed problem size, reporting wall time, recomputation
ratio, and peak memory: the paper's space/operations dial.  Expected
shape: cells-ratio falls monotonically toward 1 as ``k`` grows, memory
rises roughly linearly in ``k``, wall time improves until per-level
overhead catches up.
"""

import pytest

from repro.core import AlignConfig, fastlsa

from common import bench_pair, default_scheme, report, scale

N = scale(1024, 8192)
K_VALUES = (2, 3, 4, 6, 8, 12, 16)


@pytest.fixture(scope="module")
def setup():
    a, b = bench_pair(N)
    return a, b, default_scheme()


@pytest.mark.parametrize("k", K_VALUES)
def test_bench_k(benchmark, setup, k):
    a, b, scheme = setup
    benchmark.pedantic(fastlsa, args=(a, b, scheme),
                       kwargs={"config": AlignConfig(k=k, base_cells=4096)}, rounds=2, iterations=1)


def test_report_f5(setup):
    a, b, scheme = setup
    mn = len(a) * len(b)
    rows = []
    for k in K_VALUES:
        al = fastlsa(a, b, scheme, config=AlignConfig(k=k, base_cells=4096))
        rows.append(
            {
                "k": k,
                "wall_s": round(al.stats.wall_time, 4),
                "cells_ratio": round(al.stats.cells_computed / mn, 4),
                "peak_cells": al.stats.peak_cells_resident,
                "subproblems": al.stats.subproblems,
                "depth": al.stats.recursion_depth,
            }
        )
    report("f5_k_sweep", rows, title=f"F5: FastLSA k sweep, {len(a)}x{len(b)}")
    ratios = [r["cells_ratio"] for r in rows]
    assert ratios == sorted(ratios, reverse=True), "ratio must fall with k"
    peaks = [r["peak_cells"] for r in rows]
    # Memory grows with k overall; at very small k the deeper recursion can
    # hold slightly more simultaneous grid levels, so only require the
    # trend from k >= 3 plus a clear end-to-end increase.
    assert peaks[1:] == sorted(peaks[1:]), "memory must grow with k (k >= 3)"
    assert peaks[-1] > 2 * peaks[0]
