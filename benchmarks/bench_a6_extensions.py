"""Ablation A6 — the extension features vs the core algorithms.

Quantifies what each extension buys on a realistic homologous pair:

* **banded** alignment vs full-width FastLSA (cells and wall time, same
  optimal score once the band converges);
* **score-only** sweeps vs full alignments (ranking workloads);
* **local / semiglobal / overlap** modes vs global (cost of the two
  bracketing sweeps);
* the **two-level cache hierarchy** view of F8.
"""

import pytest

from repro.core import (
    AlignConfig,
    align_score,
    banded_align_auto,
    fastlsa,
    fastlsa_local,
    overlap_align,
    semiglobal_align,
)
from repro.kernels import KernelInstruments
from repro.memsim import CacheConfig, CacheHierarchy, HierarchyConfig, trace_fastlsa, trace_full_matrix, trace_hirschberg
from repro.workloads import dna_pair

from common import default_scheme, report, scale

N = scale(1500, 12000)

CONFIG = AlignConfig(k=8, base_cells=16 * 1024)


@pytest.fixture(scope="module")
def setup():
    a, b = dna_pair(N, divergence=0.08, seed=77)
    return a, b, default_scheme()


def test_report_a6_modes_cost(setup):
    a, b, scheme = setup
    mn = len(a) * len(b)
    rows = []

    def run(label, fn):
        inst = KernelInstruments()
        out = fn(inst)
        score = out if isinstance(out, int) else getattr(out, "score", out.score)
        rows.append(
            {
                "variant": label,
                "score": score,
                "cells_ratio": round(inst.ops.cells / mn, 3),
                "peak_cells": inst.mem.peak,
            }
        )
        return score

    s_global = run("global fastlsa(k=8)",
                   lambda inst: fastlsa(a, b, scheme, config=CONFIG,
                                        instruments=inst))
    s_score = run("score-only sweep",
                  lambda inst: align_score(a, b, scheme, instruments=inst))
    s_band = run("banded auto(w0=16)",
                 lambda inst: banded_align_auto(a, b, scheme, initial_width=16,
                                                instruments=inst).alignment)
    run("local", lambda inst: fastlsa_local(a, b, scheme, config=CONFIG,
                                            instruments=inst))
    run("semiglobal", lambda inst: semiglobal_align(a, b, scheme, config=CONFIG,
                                                    instruments=inst))
    run("overlap", lambda inst: overlap_align(a, b, scheme, config=CONFIG,
                                              instruments=inst))
    report("a6_extension_modes", rows,
           title=f"A6a: extension features on a {len(a)}x{len(b)} homologous pair")
    assert s_score == s_global
    assert s_band == s_global          # band converged on this similar pair
    banded_ratio = next(r for r in rows if r["variant"].startswith("banded"))["cells_ratio"]
    global_ratio = rows[0]["cells_ratio"]
    assert banded_ratio < global_ratio / 3  # the point of banding


def test_report_a6_hierarchy(setup):
    cfg = HierarchyConfig(
        l1=CacheConfig(512, line_cells=8, assoc=8),
        l2=CacheConfig(8192, line_cells=8, assoc=8),
    )
    rows = []
    for n in scale((64, 128, 256), (128, 256, 512, 1024)):
        for label, tracer in (
            ("full-matrix", lambda h: trace_full_matrix(h, n, n)),
            ("hirschberg", lambda h: trace_hirschberg(h, n, n, base_cells=400)),
            ("fastlsa", lambda h: trace_fastlsa(h, n, n, k=4, base_cells=400)),
        ):
            h = CacheHierarchy(cfg)
            tracer(h)
            rows.append(
                {
                    "n": n,
                    "algorithm": label,
                    "l1_hit_rate": round(h.stats.l1_hit_rate, 4),
                    "l2_miss_rate": round(h.stats.l2_miss_rate, 4),
                    "time": round(h.time_estimate(), 0),
                }
            )
    report("a6_hierarchy", rows,
           title="A6b: two-level hierarchy view of F8 (L1=512, L2=8192 cells)")
    by = {(r["algorithm"], r["n"]): r for r in rows}
    n_big = max(r["n"] for r in rows)
    assert by[("fastlsa", n_big)]["time"] <= by[("full-matrix", n_big)]["time"]
    assert by[("fastlsa", n_big)]["l2_miss_rate"] < by[("full-matrix", n_big)]["l2_miss_rate"]


def test_bench_banded_auto(benchmark, setup):
    a, b, scheme = setup
    benchmark.pedantic(banded_align_auto, args=(a, b, scheme),
                       kwargs={"initial_width": 16}, rounds=2, iterations=1)


def test_bench_score_only(benchmark, setup):
    a, b, scheme = setup
    benchmark.pedantic(align_score, args=(a, b, scheme), rounds=2, iterations=1)
