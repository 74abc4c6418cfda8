"""Experiment F14 — process-backend sanity (real worker processes, this host).

Physical speedup needs more cores than the wavefront has workers, and the
process backend only wins on long pairs (docs/PERFORMANCE.md); what this
experiment must show on any host is (a) bit-identical results to the
sequential algorithm, and (b) bounded dispatch overhead.
"""

import pytest

from repro.core import AlignConfig, fastlsa

from common import bench_pair, default_scheme, report, scale

N = scale(768, 4096)


def _config(P=None):
    backend = "processes" if P else None
    return AlignConfig(k=4, base_cells=16 * 1024, max_workers=P, backend=backend)


@pytest.fixture(scope="module")
def setup():
    a, b = bench_pair(N)
    return a, b, default_scheme()


def test_report_f14(setup):
    a, b, scheme = setup
    seq = fastlsa(a, b, scheme, config=_config())
    rows = [
        {
            "variant": "sequential",
            "P": 1,
            "wall_s": round(seq.stats.wall_time, 4),
            "score": seq.score,
            "identical": True,
        }
    ]
    for P in (1, 2, 4):
        par = fastlsa(a, b, scheme, config=_config(P))
        rows.append(
            {
                "variant": "processes",
                "P": P,
                "wall_s": round(par.stats.wall_time, 4),
                "score": par.score,
                "identical": par.gapped_a == seq.gapped_a and par.score == seq.score,
            }
        )
    report("f14_processes", rows,
           title=f"F14: process backend on this host, {N}x{N}")
    assert all(r["identical"] for r in rows)
    # Dispatch overhead stays within an order of magnitude of sequential.
    seq_t = rows[0]["wall_s"]
    for row in rows[1:]:
        assert row["wall_s"] < 10 * seq_t + 0.5, row


@pytest.mark.parametrize("P", [1, 4])
def test_bench_processes(benchmark, setup, P):
    a, b, scheme = setup
    benchmark.pedantic(
        fastlsa, args=(a, b, scheme),
        kwargs={"config": _config(P)}, rounds=2, iterations=1,
    )
