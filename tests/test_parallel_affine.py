"""Affine-gap coverage of the parallel machinery.

The affine grid caches carry gap-state vectors across tile boundaries;
these tests make sure the process backend and the simulated machine
handle them at scales that force multi-level recursion and every tile
topology (interior, edge, corner, skipped-neighbour).  Grid-line parity
of the process backend's affine FillCache is covered bit-for-bit by
``tests/test_backend_parity.py``.
"""

import pytest

from repro.align import check_alignment
from repro import AlignConfig
from repro.core import fastlsa
from repro.parallel import simulated_parallel_fastlsa
from tests.conftest import random_protein


def _processes(k: int, base_cells: int, P: int = 2) -> AlignConfig:
    return AlignConfig(k=k, base_cells=base_cells, max_workers=P, backend="processes")


@pytest.mark.usefixtures("worker_strips")
class TestParallelFillAffine:
    def test_tile_edges_carry_gap_state(self, rng, affine_scheme):
        """A gap run longer than a tile must survive tile hand-off."""
        scheme = affine_scheme
        a = "A" * 50  # forces a 40-residue vertical run somewhere
        b = "A" * 10
        seq = fastlsa(a, b, scheme, config=AlignConfig(k=2, base_cells=36))
        par = fastlsa(a, b, scheme, config=_processes(2, 36))
        assert par.score == seq.score
        assert par.gapped_a == seq.gapped_a


class TestParallelDriversAffine:
    @pytest.mark.usefixtures("worker_strips")
    def test_processes_multi_level_recursion(self, rng, affine_scheme):
        a = random_protein(rng, 200)
        b = random_protein(rng, 190)
        seq = fastlsa(a, b, affine_scheme, config=AlignConfig(k=3, base_cells=200))
        par = fastlsa(a, b, affine_scheme, config=_processes(3, 200))
        assert par.score == seq.score
        assert check_alignment(par, affine_scheme)[0]
        assert seq.stats.recursion_depth >= 3  # multi-level exercised

    def test_simulated_affine_speedup_shape(self, rng, affine_scheme):
        a = random_protein(rng, 300)
        b = random_protein(rng, 300)
        prev = 0.0
        for P in (1, 2, 4, 8):
            al, rep = simulated_parallel_fastlsa(
                a, b, affine_scheme, P=P, k=4, base_cells=2048
            )
            assert check_alignment(al, affine_scheme)[0]
            assert rep.speedup >= prev - 1e-9
            prev = rep.speedup
        assert prev >= 0.7 * 8

    @pytest.mark.usefixtures("worker_strips")
    def test_affine_parity_with_tiny_tiles(self, rng, affine_scheme):
        """Tiles of a few cells stress the corner-sentinel conventions."""
        a = random_protein(rng, 40)
        b = random_protein(rng, 37)
        seq = fastlsa(a, b, affine_scheme, config=AlignConfig(k=2, base_cells=36))
        par = fastlsa(a, b, affine_scheme, config=_processes(2, 36))
        assert par.score == seq.score
