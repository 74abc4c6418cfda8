"""Experiment F6 — memory adaptivity (paper Sections 1/3).

FastLSA "can effectively adapt to use either linear or quadratic space":
this bench measures peak resident DP cells per algorithm and shows the
planner walking the whole trade-off as the budget grows, with measured
peaks staying inside every budget.
"""

import pytest

from repro.baselines import hirschberg, needleman_wunsch
from repro.core import AlignConfig, fastlsa
from repro.core.planner import plan_alignment

from common import bench_pair, default_scheme, report, scale

N = scale(1024, 8192)


@pytest.fixture(scope="module")
def setup():
    a, b = bench_pair(N)
    return a, b, default_scheme()


def test_report_f6_algorithms(setup):
    a, b, scheme = setup
    mn = (len(a) + 1) * (len(b) + 1)
    rows = []
    nw = needleman_wunsch(a, b, scheme)
    rows.append({"algorithm": "full-matrix", "k": "-", "peak_cells": nw.stats.peak_cells_resident,
                 "vs_dense": round(nw.stats.peak_cells_resident / mn, 4)})
    hb = hirschberg(a, b, scheme, base_cells=1024)
    rows.append({"algorithm": "hirschberg", "k": "-", "peak_cells": hb.stats.peak_cells_resident,
                 "vs_dense": round(hb.stats.peak_cells_resident / mn, 4)})
    for k in (2, 4, 8, 16):
        fl = fastlsa(a, b, scheme, config=AlignConfig(k=k, base_cells=1024))
        rows.append({"algorithm": "fastlsa", "k": k, "peak_cells": fl.stats.peak_cells_resident,
                     "vs_dense": round(fl.stats.peak_cells_resident / mn, 4)})
    report("f6_memory_algorithms", rows,
           title=f"F6a: peak resident DP cells, {len(a)}x{len(b)} (dense = {mn})")
    assert rows[0]["peak_cells"] == mn
    for row in rows[1:]:
        assert row["peak_cells"] < mn / 10


def test_report_f6_planner(setup):
    a, b, scheme = setup
    m, n = len(a), len(b)
    rows = []
    # Budgets scale with the problem: from "barely linear space" (a small
    # multiple of m + n) up to "dense matrix fits".
    budgets = [8 * (m + n), 25 * (m + n), 90 * (m + n), 2 * (m + 1) * (n + 1)]
    for budget in budgets:
        plan = plan_alignment(m, n, budget)
        al = fastlsa(a, b, scheme, config=plan.config)
        rows.append(
            {
                "budget_cells": budget,
                "method": plan.method,
                "k": plan.config.k,
                "base_cells": plan.config.base_cells,
                "predicted_peak": plan.predicted_peak_cells,
                "measured_peak": al.stats.peak_cells_resident,
                "within_budget": al.stats.peak_cells_resident <= budget,
                "cells_ratio": round(al.stats.cells_computed / (m * n), 3),
            }
        )
    report("f6_memory_planner", rows,
           title="F6b: planner adaptivity (budget -> k -> measured peak)")
    for row in rows:
        assert row["within_budget"], row
    # More memory -> fewer recomputations.
    ratios = [r["cells_ratio"] for r in rows]
    assert ratios == sorted(ratios, reverse=True)


def test_bench_linear_space_mode(benchmark, setup):
    a, b, scheme = setup
    benchmark.pedantic(fastlsa, args=(a, b, scheme),
                       kwargs={"config": AlignConfig(k=2, base_cells=1024)}, rounds=2, iterations=1)
