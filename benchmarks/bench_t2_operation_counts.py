"""Experiment T2 — operations / space comparison (paper Sections 1–3).

Measures DP cells computed and peak resident cells for the FM algorithm,
Hirschberg, and FastLSA across ``k``, against the analytic claims:

* FM: exactly ``m·n`` cells, quadratic space;
* Hirschberg: ≈ ``2·m·n`` cells, linear space;
* FastLSA: between ``m·n`` and the worst-case bound ``m·n·(k+1)/(k−1)``;
  ≈ ``1.5·m·n`` in the linear-space extreme (``k = 2``).
"""

import pytest

from repro.baselines import hirschberg, needleman_wunsch
from repro.core import AlignConfig, fastlsa
from repro.core.planner import ops_ratio_bound

from common import bench_pair, default_scheme, report, scale

N = scale(1024, 8192)
K_VALUES = (2, 3, 4, 8, 16)


@pytest.fixture(scope="module")
def pair():
    return bench_pair(N)


@pytest.fixture(scope="module")
def scheme():
    return default_scheme()


def test_report_t2(pair, scheme):
    a, b = pair
    mn = len(a) * len(b)
    rows = []
    nw = needleman_wunsch(a, b, scheme)
    rows.append(
        {
            "algorithm": "full-matrix",
            "k": "-",
            "cells_ratio": nw.stats.cells_computed / mn,
            "bound": 1.0,
            "peak_cells": nw.stats.peak_cells_resident,
            "score": nw.score,
        }
    )
    hb = hirschberg(a, b, scheme, base_cells=1024)
    rows.append(
        {
            "algorithm": "hirschberg",
            "k": "-",
            "cells_ratio": hb.stats.cells_computed / mn,
            "bound": 2.0,
            "peak_cells": hb.stats.peak_cells_resident,
            "score": hb.score,
        }
    )
    for k in K_VALUES:
        al = fastlsa(a, b, scheme, config=AlignConfig(k=k, base_cells=1024))
        rows.append(
            {
                "algorithm": "fastlsa",
                "k": k,
                "cells_ratio": al.stats.cells_computed / mn,
                "bound": ops_ratio_bound(k),
                "peak_cells": al.stats.peak_cells_resident,
                "score": al.score,
            }
        )
    report(
        "t2_operation_counts",
        rows,
        title=f"T2: operations & space, {len(a)}x{len(b)} "
        "(bound = analytic worst case)",
    )
    # Shape assertions matching the paper's claims.
    by_algo = {(r["algorithm"], r["k"]): r for r in rows}
    assert by_algo[("full-matrix", "-")]["cells_ratio"] == pytest.approx(1.0)
    assert 1.8 <= by_algo[("hirschberg", "-")]["cells_ratio"] <= 3.1
    assert 1.3 <= by_algo[("fastlsa", 2)]["cells_ratio"] <= 1.7  # paper's ~1.5x
    for k in K_VALUES:
        r = by_algo[("fastlsa", k)]
        assert 1.0 <= r["cells_ratio"] <= r["bound"] + 0.05
    scores = {r["score"] for r in rows}
    assert len(scores) == 1  # everyone optimal


@pytest.mark.parametrize("k", [2, 8])
def test_bench_fastlsa_ops(benchmark, pair, scheme, k):
    """Wall time of FastLSA at the two k extremes."""
    a, b = pair
    benchmark.pedantic(fastlsa, args=(a, b, scheme), kwargs={"config": AlignConfig(k=k, base_cells=1024)},
                       rounds=scale(2, 3), iterations=1)
