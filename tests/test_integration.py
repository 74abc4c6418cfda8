"""Cross-algorithm integration tests.

Every global aligner in the library must produce the same optimal score on
the same input, and every alignment must survive the independent
re-scorer.  These are the end-to-end guarantees the benchmark harness
relies on.
"""

import pytest

from repro import ALGORITHMS, align
from repro import AlignConfig
from repro.align import check_alignment
from repro.baselines import hirschberg, needleman_wunsch
from repro.core import fastlsa
from repro.errors import ConfigError
from repro.workloads import dna_pair, protein_pair
from repro.scoring import ScoringScheme, blosum62, linear_gap


class TestAllAlgorithmsAgree:
    def test_on_suite_pair(self, dna_scheme):
        a, b = dna_pair(300, divergence=0.2, seed=9)
        results = {
            "nw": needleman_wunsch(a, b, dna_scheme),
            "hirschberg": hirschberg(a, b, dna_scheme),
            "fastlsa-k2": fastlsa(a, b, dna_scheme, config=AlignConfig(k=2, base_cells=256)),
            "fastlsa-k8": fastlsa(a, b, dna_scheme, config=AlignConfig(k=8, base_cells=1024)),
            "processes-p2": fastlsa(
                a, b, dna_scheme,
                config=AlignConfig(k=4, base_cells=256, max_workers=2, backend="processes"),
            ),
        }
        scores = {name: r.score for name, r in results.items()}
        assert len(set(scores.values())) == 1, scores
        for name, r in results.items():
            ok, msg = check_alignment(r, dna_scheme)
            assert ok, (name, msg)

    def test_on_protein_pair(self):
        scheme = ScoringScheme(blosum62(), linear_gap(-8))
        a, b = protein_pair(250, divergence=0.3, seed=4)
        s1 = needleman_wunsch(a, b, scheme).score
        s2 = hirschberg(a, b, scheme).score
        s3 = fastlsa(a, b, scheme, config=AlignConfig(k=4, base_cells=512)).score
        assert s1 == s2 == s3

    def test_highly_divergent_pair(self, dna_scheme):
        a, b = dna_pair(200, divergence=0.8, seed=13)
        s1 = needleman_wunsch(a, b, dna_scheme).score
        s2 = fastlsa(a, b, dna_scheme, config=AlignConfig(k=3, base_cells=64))
        assert s2.score == s1


class TestAlignDispatcher:
    def test_default_is_fastlsa(self, dna_scheme):
        r = align("ACGT", "ACGA", dna_scheme)
        assert r.algorithm == "fastlsa"

    def test_method_selection(self, dna_scheme):
        r = align("ACGT", "ACGA", dna_scheme, method="hirschberg")
        assert r.algorithm == "hirschberg"

    def test_kwargs_forwarded(self, dna_scheme):
        r = align("ACGTACGT", "ACGTTCGT", dna_scheme, method="fastlsa", config=AlignConfig(k=2, base_cells=16))
        assert r.algorithm == "fastlsa"

    def test_unknown_method(self, dna_scheme):
        with pytest.raises(ConfigError):
            align("A", "C", dna_scheme, method="banana")

    def test_registry_contents(self):
        assert {"fastlsa", "hirschberg", "needleman-wunsch"} <= set(ALGORITHMS)


class TestFastaToAlignmentPipeline:
    def test_roundtrip(self, tmp_path, dna_scheme):
        from repro.align import read_fasta, write_fasta

        a, b = dna_pair(120, seed=2)
        write_fasta(tmp_path / "pair.fasta", [a, b])
        ra, rb = read_fasta(tmp_path / "pair.fasta")
        r1 = fastlsa(ra, rb, dna_scheme, config=AlignConfig(k=4, base_cells=128))
        r2 = fastlsa(a, b, dna_scheme, config=AlignConfig(k=4, base_cells=128))
        assert r1.score == r2.score


class TestStatsConsistency:
    def test_fastlsa_cells_at_least_mn(self, dna_scheme):
        a, b = dna_pair(150, seed=5)
        al = fastlsa(a, b, dna_scheme, config=AlignConfig(k=3, base_cells=64))
        assert al.stats.cells_computed >= len(a) * len(b)

    def test_wall_time_recorded(self, dna_scheme):
        a, b = dna_pair(100, seed=6)
        al = fastlsa(a, b, dna_scheme)
        assert al.stats.wall_time > 0
