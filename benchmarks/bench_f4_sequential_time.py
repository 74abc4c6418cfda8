"""Experiment F4 — sequential wall-time comparison (paper Section 4).

The paper's headline sequential result: FastLSA is as fast or faster than
both Hirschberg (which recomputes ≈ 2×) and the FM algorithm (which
thrashes memory for large problems).  On this substrate all three share
the same numpy kernels, so wall time tracks cells-computed plus working-set
effects; the *ordering* — FastLSA ≤ Hirschberg, FastLSA competitive with
FM — is the reproduced shape.  (The cache-level effect FM suffers on real
hardware is reproduced machine-independently in F8.)
"""

import pytest

from repro.baselines import hirschberg, needleman_wunsch
from repro.core import AlignConfig, fastlsa

from common import bench_pair, default_scheme, report, scale

SIZES = scale((512, 1024, 2048), (2048, 8192, 16384))


@pytest.fixture(scope="module")
def scheme():
    return default_scheme()


@pytest.mark.parametrize("n", SIZES)
def test_bench_full_matrix(benchmark, scheme, n):
    a, b = bench_pair(n)
    benchmark.pedantic(needleman_wunsch, args=(a, b, scheme), rounds=2, iterations=1)


@pytest.mark.parametrize("n", SIZES)
def test_bench_hirschberg(benchmark, scheme, n):
    a, b = bench_pair(n)
    benchmark.pedantic(hirschberg, args=(a, b, scheme),
                       kwargs={"base_cells": 64 * 1024}, rounds=2, iterations=1)


@pytest.mark.parametrize("n", SIZES)
def test_bench_fastlsa(benchmark, scheme, n):
    a, b = bench_pair(n)
    benchmark.pedantic(fastlsa, args=(a, b, scheme),
                       kwargs={"config": AlignConfig(k=4, base_cells=64 * 1024)}, rounds=2, iterations=1)


def test_report_f4(scheme):
    rows = []
    for n in SIZES:
        a, b = bench_pair(n)

        def best_of(fn, repeats=3):
            runs = [fn() for _ in range(repeats)]
            return min(runs, key=lambda r: r.stats.wall_time)

        nw = best_of(lambda: needleman_wunsch(a, b, scheme))
        hb = best_of(lambda: hirschberg(a, b, scheme, base_cells=64 * 1024))
        fl = best_of(lambda: fastlsa(a, b, scheme, config=AlignConfig(k=4, base_cells=64 * 1024)))
        assert nw.score == hb.score == fl.score
        rows.append(
            {
                "n": n,
                "fm_s": round(nw.stats.wall_time, 4),
                "hirschberg_s": round(hb.stats.wall_time, 4),
                "fastlsa_s": round(fl.stats.wall_time, 4),
                "fastlsa_vs_hirschberg": round(
                    hb.stats.wall_time / fl.stats.wall_time, 2
                ),
            }
        )
    report(
        "f4_sequential_time",
        rows,
        title="F4: sequential wall time (paper: FastLSA always >= as fast as Hirschberg)",
    )
    # Shape: FastLSA beats Hirschberg on every size (it computes ~1.2x mn
    # cells vs ~2x).  The margin absorbs scheduler noise on a shared box.
    for row in rows:
        assert row["fastlsa_s"] <= row["hirschberg_s"] * 1.2, row
