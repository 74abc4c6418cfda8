"""The process backend's strip wavefront.

Each FillCache region is cut on grid lines into ``C = min(P, k)``
full-width column strips and ``R = k·u`` row tiles; worker ``c`` sweeps
strip ``c`` with the band kernel.  These tests pin the layout (coverage,
grid-line cuts, the truncated last block row), bit-identity with the
serial backend on every kernel tier, the in-parent cutoff, and the
arena size the governor bills.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import AlignConfig, fastlsa
from repro.core import overlap_align, semiglobal_align
from repro.core.fastlsa import initial_problem
from repro.core.fillcache import fill_grid
from repro.core.grid import Grid
from repro.core.planner import arena_cells, strip_rows
from repro.kernels import registry
from repro.parallel import backends, lifecycle, procpool
from repro.parallel.backends import ProcessSession, strip_tiles
from repro.parallel.shm import active_arenas
from repro.workloads import dna_pair, protein_pair


def _grid(m: int, n: int, k: int) -> Grid:
    scheme = repro.ScoringScheme(repro.dna_simple(), repro.linear_gap(-6))
    return Grid(initial_problem(m, n, scheme), k, affine=False)


class TestLayout:
    @pytest.mark.parametrize("skip", [True, False])
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    @pytest.mark.parametrize("P", [1, 2, 3])
    def test_strips_tile_the_region_once(self, P, k, skip):
        m, n = 61, 47
        grid = _grid(m, n, k)
        rows, strips = strip_tiles(grid, strip_rows(P, k), P, skip)
        cb = grid.col_bounds
        Q = len(cb) - 1
        assert len(strips) == min(P, Q)  # k < P: one strip per block column
        assert set(grid.row_bounds) <= set(rows)
        covered = np.zeros((m, n), dtype=np.int64)
        for c, strip in enumerate(strips):
            assert [t[0] for t in strip] == list(range(len(strip)))
            for r, a0, a1, b0, b1, q0, cols in strip:
                assert (a0, a1) == (rows[r], rows[r + 1])
                assert cb[q0] == b0 and b1 in cb  # cut on grid lines
                assert b0 == strip[0][3]
                assert cols == tuple(x for x in cb[1:-1] if b0 < x <= b1)
                covered[a0:a1, b0:b1] += 1
        want = np.ones((m, n), dtype=np.int64)
        if skip:
            want[grid.row_bounds[-2] :, cb[-2] :] = 0
        assert np.array_equal(covered, want)

    def test_strip_truncates_to_zero_width(self):
        # k = P: the last strip is exactly the bottom-right block's column,
        # so it has no tile in the last block row.
        grid = _grid(40, 40, 2)
        rows, strips = strip_tiles(grid, 2, 2)
        last_row_a0 = grid.row_bounds[-2]
        assert [t[1] for t in strips[1]] == [a for a in rows[:-1] if a < last_row_a0]
        assert strips[0][-1][2] == grid.row_bounds[-1]
        assert strips[0][-1][4] == grid.col_bounds[-2]

    def test_strip_truncates_at_last_split(self):
        # k > P: the last strip is cut short at col_bounds[-2] and still
        # samples that grid column.
        grid = _grid(80, 80, 4)
        _, strips = strip_tiles(grid, 1, 2)
        *_, b0, b1, _, cols = strips[1][-1]
        assert (b0, b1) == (grid.col_bounds[2], grid.col_bounds[3])
        assert cols == (grid.col_bounds[3],)

    def test_strip_rows_keeps_theorem4_factor(self):
        for P, k in [(2, 8), (2, 4), (4, 8), (8, 8), (2, 2)]:
            u = strip_rows(P, k)
            R, C = k * u, min(P, k)
            assert 1 + (C * C - C) / (R * C) <= 1.0625 + 1e-12
            assert u == 1 or k * (u - 1) < 16 * (C - 1)  # smallest such u
        assert strip_rows(2, 8) == 2


@pytest.mark.usefixtures("worker_strips")
class TestBitIdentity:
    @pytest.mark.parametrize("tier", registry.available_tiers())
    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_global_linear_and_affine(self, tier, k):
        dna = repro.ScoringScheme(repro.dna_simple(), repro.linear_gap(-6))
        aff = repro.ScoringScheme(repro.blosum62(), repro.affine_gap(-10, -1))
        for scheme, pair in [(dna, dna_pair), (aff, protein_pair)]:
            a, b = pair(170, divergence=0.3, seed=k)
            cfg = AlignConfig(k=k, base_cells=256, kernel=tier)
            par = AlignConfig(k=k, base_cells=256, kernel=tier,
                              backend="processes", max_workers=2)
            ref = fastlsa(a, b, scheme, config=cfg)
            got = fastlsa(a, b, scheme, config=par)
            assert (got.score, got.gapped_a, got.gapped_b) == (
                ref.score, ref.gapped_a, ref.gapped_b
            )
            assert got.stats.cells_computed == ref.stats.cells_computed

    @pytest.mark.parametrize("tier", registry.available_tiers())
    def test_ends_free_linear_and_affine(self, tier):
        schemes = [
            repro.ScoringScheme(repro.dna_simple(), repro.linear_gap(-6)),
            repro.ScoringScheme(repro.dna_simple(), repro.affine_gap(-8, -1)),
        ]
        a, b = dna_pair(160, divergence=0.25, seed=7)
        cfg = AlignConfig(k=4, base_cells=128, kernel=tier)
        par = AlignConfig(k=4, base_cells=128, kernel=tier,
                          backend="processes", max_workers=2)
        for scheme in schemes:
            for fn in (semiglobal_align, overlap_align):
                ref = fn(a, b, scheme, config=cfg)
                got = fn(a, b, scheme, config=par)
                assert got.score == ref.score
                assert got.alignment.gapped_a == ref.alignment.gapped_a
                assert got.alignment.gapped_b == ref.alignment.gapped_b


@pytest.mark.usefixtures("worker_strips")
@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("affine", [False, True])
def test_grid_lines_identical_to_fill_grid(affine, k):
    """Every interior grid line, F and E included, equals serial fill_grid's."""
    gap = repro.affine_gap(-10, -1) if affine else repro.linear_gap(-6)
    scheme = repro.ScoringScheme(repro.dna_simple(), gap)
    a, b = dna_pair(150, divergence=0.3, seed=k)
    ac, bc = scheme.encode(a), scheme.encode(b)
    m, n = len(a), len(b)
    serial = Grid(initial_problem(m, n, scheme), k, affine=affine)
    strips = Grid(initial_problem(m, n, scheme), k, affine=affine)
    fill_grid(serial, ac, bc, scheme)
    session = ProcessSession(scheme, ac, bc, m, n, k, workers=2)
    try:
        session.fill(strips, ac, bc, scheme, None)
    finally:
        session.finish()
    for p in range(1, len(serial.row_bounds) - 1):
        want, got = serial.row_line(p, 0, n), strips.row_line(p, 0, n)
        assert np.array_equal(want.h, got.h)
        assert not affine or np.array_equal(want.f[1:], got.f[1:])
    for q in range(1, len(serial.col_bounds) - 1):
        want, got = serial.col_line(q, 0, m), strips.col_line(q, 0, m)
        assert np.array_equal(want.h, got.h)
        assert not affine or np.array_equal(want.e[1:], got.e[1:])


def test_below_cutoff_never_binds_the_pool(dna_scheme, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the process pool was bound below the cutoff")

    monkeypatch.setattr(lifecycle, "get_process_pool", refuse)
    monkeypatch.setattr(procpool.ProcessPool, "bind", refuse)
    a, b = dna_pair(600, divergence=0.2, seed=3)
    assert len(a) * len(b) < backends.STRIP_CUTOFF_CELLS
    cfg = AlignConfig(k=4, base_cells=1024)
    ref = fastlsa(a, b, dna_scheme, config=cfg)
    got = fastlsa(a, b, dna_scheme, config=AlignConfig(
        k=4, base_cells=1024, backend="processes", max_workers=2))
    assert (got.score, got.gapped_a, got.gapped_b) == (
        ref.score, ref.gapped_a, ref.gapped_b
    )
    assert active_arenas() == set()


@pytest.mark.parametrize("affine", [False, True])
def test_predicted_arena_equals_created_arena(affine):
    gap = repro.affine_gap(-10, -1) if affine else repro.linear_gap(-8)
    scheme = repro.ScoringScheme(repro.blosum62(), gap)
    a, b = protein_pair(300, divergence=0.3, seed=1)
    m, n, k = len(a), len(b), 8
    session = ProcessSession(
        scheme, scheme.encode(a), scheme.encode(b), m, n, k, workers=2
    )
    session._bind()
    try:
        spec = session.arena.spec
        int64 = sum(int(np.prod(s)) for s, dt in spec.values() if dt == "int64")
        uint8 = sum(int(np.prod(s)) for s, dt in spec.values() if dt == "uint8")
        created = int64 + -(-uint8 // 8)
        assert session.predicted_arena_cells == created
        assert spec["rows_h"][0] == (k * strip_rows(2, k) + 1, n + 1)
        assert spec["cols_h"][0] == (k + 1, m + 1)
        alphabet = scheme.matrix.table.shape[0]
        assert arena_cells(m, n, k, 2, affine=affine, alphabet=alphabet) == created
    finally:
        session.finish()
