"""Tests for Parallel FastLSA: the process backend and the simulated machine."""

import pytest

from repro.align import check_alignment
from repro import AlignConfig
from repro.core import fastlsa
from repro.errors import ConfigError
from repro.parallel import simulated_parallel_fastlsa
from tests.conftest import random_dna, random_protein


def _processes(k: int, base_cells: int, P: int) -> AlignConfig:
    return AlignConfig(k=k, base_cells=base_cells, max_workers=P, backend="processes")


class TestProcesses:
    @pytest.mark.parametrize("P", [1, 2])
    def test_identical_to_sequential_linear(self, request, rng, dna_scheme, P):
        if P > 1:  # P = 1 resolves to the serial backend: no workers
            request.getfixturevalue("worker_strips")
        for _ in range(4):
            a = random_dna(rng, int(rng.integers(0, 120)))
            b = random_dna(rng, int(rng.integers(0, 120)))
            seq = fastlsa(a, b, dna_scheme, config=AlignConfig(k=4, base_cells=64))
            par = fastlsa(a, b, dna_scheme, config=_processes(4, 64, P))
            assert par.score == seq.score
            assert par.gapped_a == seq.gapped_a and par.gapped_b == seq.gapped_b

    @pytest.mark.usefixtures("worker_strips")
    def test_identical_to_sequential_affine(self, rng, affine_scheme):
        for _ in range(3):
            a = random_protein(rng, int(rng.integers(10, 90)))
            b = random_protein(rng, int(rng.integers(10, 90)))
            seq = fastlsa(a, b, affine_scheme, config=AlignConfig(k=3, base_cells=100))
            par = fastlsa(a, b, affine_scheme, config=_processes(3, 100, 2))
            assert par.score == seq.score
            assert check_alignment(par, affine_scheme)[0]

    @pytest.mark.usefixtures("worker_strips")
    def test_cells_computed_matches_sequential(self, rng, dna_scheme):
        a, b = random_dna(rng, 100), random_dna(rng, 100)
        seq = fastlsa(a, b, dna_scheme, config=AlignConfig(k=4, base_cells=64))
        par = fastlsa(a, b, dna_scheme, config=_processes(4, 64, 2))
        assert par.stats.cells_computed == seq.stats.cells_computed

    def test_invalid_p(self):
        with pytest.raises(ConfigError):
            _processes(4, 64, 0)


class TestSimulated:
    def test_alignment_still_exact(self, rng, dna_scheme):
        a, b = random_dna(rng, 150), random_dna(rng, 150)
        seq = fastlsa(a, b, dna_scheme, config=AlignConfig(k=4, base_cells=256))
        al, rep = simulated_parallel_fastlsa(a, b, dna_scheme, P=4, k=4, base_cells=256)
        assert al.score == seq.score

    def test_speedup_bounds(self, rng, dna_scheme):
        a, b = random_dna(rng, 400), random_dna(rng, 400)
        for P in (1, 2, 4, 8):
            _, rep = simulated_parallel_fastlsa(a, b, dna_scheme, P=P, k=4)
            assert 1.0 <= rep.speedup <= P + 1e-9
            assert 0.0 < rep.efficiency <= 1.0

    def test_p1_speedup_is_one(self, rng, dna_scheme):
        a, b = random_dna(rng, 200), random_dna(rng, 200)
        _, rep = simulated_parallel_fastlsa(a, b, dna_scheme, P=1, k=3)
        assert rep.speedup == pytest.approx(1.0)

    def test_speedup_monotone_in_p(self, rng, dna_scheme):
        a, b = random_dna(rng, 500), random_dna(rng, 500)
        prev = 0.0
        for P in (1, 2, 4, 8):
            _, rep = simulated_parallel_fastlsa(a, b, dna_scheme, P=P, k=6)
            assert rep.speedup >= prev - 1e-9
            prev = rep.speedup

    def test_almost_linear_up_to_8(self, rng, dna_scheme):
        """Paper abstract: 'good speedups, almost linear for 8 processors
        or less'."""
        a, b = random_dna(rng, 800), random_dna(rng, 800)
        _, rep = simulated_parallel_fastlsa(a, b, dna_scheme, P=8, k=6)
        assert rep.speedup >= 0.8 * 8

    def test_efficiency_increases_with_size(self, rng, dna_scheme):
        """Paper abstract: 'the efficiency of Parallel FastLSA increases
        with the size of the sequences'."""
        effs = []
        for n in (200, 600, 1600):
            a, b = random_dna(rng, n), random_dna(rng, n)
            _, rep = simulated_parallel_fastlsa(
                a, b, dna_scheme, P=8, k=6, base_cells=16 * 1024, overhead=100
            )
            effs.append(rep.efficiency)
        # Larger problems amortise per-tile overhead (the paper's trend);
        # intermediate sizes may wobble as the recursion structure shifts.
        assert effs[2] > effs[0]
        assert effs[2] > effs[1]

    def test_wt_bound_holds_without_overhead(self, rng, dna_scheme):
        """Theorem 4 (Eq. 36) upper-bounds the simulated time."""
        a, b = random_dna(rng, 600), random_dna(rng, 600)
        for P in (2, 4, 8):
            _, rep = simulated_parallel_fastlsa(
                a, b, dna_scheme, P=P, k=6, base_cells=16 * 1024, overhead=0
            )
            assert rep.par_time <= rep.wt_bound(), (P, rep.par_time, rep.wt_bound())

    def test_overhead_reduces_speedup(self, rng, dna_scheme):
        a, b = random_dna(rng, 400), random_dna(rng, 400)
        _, r0 = simulated_parallel_fastlsa(a, b, dna_scheme, P=8, k=6, overhead=0)
        _, r1 = simulated_parallel_fastlsa(a, b, dna_scheme, P=8, k=6, overhead=2000)
        assert r1.speedup < r0.speedup
