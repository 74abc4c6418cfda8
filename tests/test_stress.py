"""Heavier consistency stress tests (still seconds-scale).

Structured inputs that historically break alignment implementations —
long homopolymers, tandem repeats, near-duplicate sequences with single
edits at the recursion split points — checked across every algorithm and
both parallel drivers.
"""

import pytest

from repro.align import check_alignment
from repro import AlignConfig
from repro.baselines import hirschberg, needleman_wunsch
from repro.core import banded_align_auto, fastlsa
from tests.conftest import random_dna

def adversarial_pairs(rng):
    """Inputs that stress tie-breaking, gap runs and split boundaries."""
    base = random_dna(rng, 200)
    yield "homopolymers", "A" * 173, "A" * 131
    yield "tandem vs shifted", "ACGT" * 40, "CGTA" * 40
    yield "repeat expansion", "ACG" * 50, "ACG" * 65
    yield "single edit at middle", base, base[:100] + "T" + base[101:]
    yield "deletion at split", base, base[:97] + base[103:]
    yield "duplicated block", base, base[:120] + base[60:120] + base[120:]
    yield "reversed", base, base[::-1]
    yield "empty vs long", "", base
    yield "one vs long", "G", base


class TestAdversarialInputs:
    def test_all_algorithms_agree(self, rng, dna_scheme):
        for label, a, b in adversarial_pairs(rng):
            scores = {
                "nw": needleman_wunsch(a, b, dna_scheme).score,
                "hb": hirschberg(a, b, dna_scheme, base_cells=64).score,
                "fl2": fastlsa(a, b, dna_scheme, config=AlignConfig(k=2, base_cells=64)).score,
                "fl8": fastlsa(a, b, dna_scheme, config=AlignConfig(k=8, base_cells=256)).score,
            }
            assert len(set(scores.values())) == 1, (label, scores)

    def test_alignments_all_valid(self, rng, dna_scheme):
        for label, a, b in adversarial_pairs(rng):
            al = fastlsa(a, b, dna_scheme, config=AlignConfig(k=3, base_cells=128))
            ok, msg = check_alignment(al, dna_scheme)
            assert ok, (label, msg)

    def test_banded_auto_converges(self, rng, dna_scheme):
        for label, a, b in adversarial_pairs(rng):
            res = banded_align_auto(a, b, dna_scheme, initial_width=4)
            nw = needleman_wunsch(a, b, dna_scheme)
            assert res.alignment.score == nw.score, label

    @pytest.mark.usefixtures("worker_strips")
    def test_processes_parity(self, rng, dna_scheme):
        par_cfg = AlignConfig(k=3, base_cells=128, max_workers=2, backend="processes")
        for label, a, b in adversarial_pairs(rng):
            seq = fastlsa(a, b, dna_scheme, config=AlignConfig(k=3, base_cells=128))
            par = fastlsa(a, b, dna_scheme, config=par_cfg)
            assert par.score == seq.score, label
            assert par.gapped_a == seq.gapped_a, label


@pytest.mark.usefixtures("worker_strips")
class TestProcessesRepeatability:
    def test_many_runs_identical(self, rng, dna_scheme):
        """Races would show up as run-to-run divergence."""
        a, b = random_dna(rng, 400), random_dna(rng, 400)
        baseline = fastlsa(a, b, dna_scheme, config=AlignConfig(k=4, base_cells=1024))
        par_cfg = AlignConfig(k=4, base_cells=1024, max_workers=2, backend="processes")
        for _ in range(5):
            par = fastlsa(a, b, dna_scheme, config=par_cfg)
            assert par.score == baseline.score
            assert par.gapped_a == baseline.gapped_a
            assert par.gapped_b == baseline.gapped_b

    def test_affine_many_runs_identical(self, rng, affine_scheme):
        from tests.conftest import random_protein

        a = random_protein(rng, 250)
        b = random_protein(rng, 260)
        baseline = fastlsa(a, b, affine_scheme, config=AlignConfig(k=3, base_cells=512))
        par_cfg = AlignConfig(k=3, base_cells=512, max_workers=2, backend="processes")
        for _ in range(3):
            par = fastlsa(a, b, affine_scheme, config=par_cfg)
            assert par.score == baseline.score
            assert par.gapped_a == baseline.gapped_a
