"""Experiment T3 — the benchmark suite (Table 3 stand-in).

The paper's Table 3 lists the real sequence pairs used in its
experiments; those data are unpublished, so this reproduction uses seeded
synthetic homologous pairs spanning the same length range (DESIGN.md §3).
This bench prints the realised suite — pair names, actual lengths of both
sequences, divergence and alignment identity — and times pair generation.
"""

from repro.core import AlignConfig, fastlsa
from repro.workloads import load_pair, suite_entries

from common import default_scheme, report, scale

def test_report_t3():
    scheme = default_scheme()
    rows = []
    for entry in suite_entries(("tiny", "small")):
        a, b = load_pair(entry.name)
        al = fastlsa(a, b, scheme, config=AlignConfig(k=4)) if entry.family == "dna" else None
        rows.append(
            {
                "pair": entry.name,
                "family": entry.family,
                "len_a": len(a),
                "len_b": len(b),
                "divergence": entry.divergence,
                "seed": entry.seed,
                "identity": round(al.identity, 3) if al else "-",
            }
        )
    report("t3_suite", rows, title="T3: benchmark suite (synthetic Table-3 stand-in)")
    assert len(rows) >= 5

def test_suite_lengths_deterministic():
    a1, b1 = load_pair("dna-1k")
    a2, b2 = load_pair("dna-1k")
    assert a1.text == a2.text and b1.text == b2.text

def test_bench_pair_generation(benchmark):
    """Time to synthesise a medium suite pair (generation is not the
    bottleneck of any experiment)."""
    from repro.workloads import dna_pair

    n = scale(4096, 32768)
    benchmark.pedantic(dna_pair, args=(n,), kwargs={"seed": 1}, rounds=3, iterations=1)
