"""The numpy linear-gap sweeps against the pure-Python double loop.

``sweep_band``, ``sweep_last_row_col`` and ``sweep_matrix`` work on the
offset score ``K = H − g·(i + j)`` in int32 or int64 rows (see
``repro.kernels.linear``).  The oracle here is
``kernels.reference.ref_matrix_linear``, which shares no code with them:
the benchmark's own score check (``align_score``) runs the same kernel it
would be checking.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.kernels import boundary_vectors, linear
from repro.kernels.reference import ref_matrix_linear
from repro.scoring import blosum62, dna_simple

TABLES = {"dna": dna_simple().table, "protein": blosum62().table}

#: Boundary levels straddling int32's range: their sweeps need int64 rows.
HUGE = (-(2**31) - 500, -(2**31) + 500, 2**31 - 500, 2**31 + 500)


@st.composite
def sweeps(draw):
    table = TABLES[draw(st.sampled_from(sorted(TABLES)))]
    A = table.shape[0]
    M = draw(st.integers(0, 9))
    N = draw(st.integers(0, 9))
    gap = draw(st.integers(-12, -1))
    a = np.array(draw(st.lists(st.integers(0, A - 1), min_size=M, max_size=M)), dtype=np.int16)
    b = np.array(draw(st.lists(st.integers(0, A - 1), min_size=N, max_size=N)), dtype=np.int16)
    huge = draw(st.booleans())
    base = draw(st.sampled_from(HUGE)) if huge else 0
    noise = st.integers(-60, 60)
    first_row = base + np.array(draw(st.lists(noise, min_size=N + 1, max_size=N + 1)), np.int64)
    first_col = base + np.array(draw(st.lists(noise, min_size=M + 1, max_size=M + 1)), np.int64)
    first_col[0] = first_row[0]
    # Columns 0 and N always, plus random ones, with a repeat.
    cols = [0, N] + draw(st.lists(st.integers(0, N), max_size=4))
    cols.append(cols[-1])
    with_profile = draw(st.booleans())
    return table, gap, a, b, first_row, first_col, np.array(cols), with_profile, huge


@settings(max_examples=150, deadline=None)
@given(sweeps())
def test_sweeps_match_reference(case):
    table, gap, a, b, first_row, first_col, cols, with_profile, huge = case
    M, N = len(a), len(b)
    H = ref_matrix_linear(a, b, table, gap, first_row, first_col)
    profile = linear.score_profile(table, b) if with_profile else None

    with obs.instrumented() as inst:
        got_h = linear.sweep_matrix(a, b, table, gap, first_row, first_col, profile=profile)
        last_row, last_col = linear.sweep_last_row_col(
            a, b, table, gap, first_row, first_col, profile=profile
        )
        band_row, samples = linear.sweep_band(
            a, b, table, gap, first_row, first_col, cols, profile=profile
        )

    assert got_h.dtype == np.int64 and np.array_equal(got_h, H)
    assert np.array_equal(last_row, H[M]) and np.array_equal(last_col, H[:, N])
    assert np.array_equal(band_row, H[M])
    assert samples.shape == (len(cols), M + 1)
    assert np.array_equal(samples, H[:, cols].T)
    # Huge boundaries must take the int64 rows, and say so.
    swept = M > 0 and N > 0
    wide = inst.metrics.snapshot().get("kernels.wide_rows", 0)
    assert wide == (3 if huge and swept else 0)


def test_huge_boundaries_pick_int64():
    row, col = boundary_vectors(3, 3, -6)
    table = TABLES["dna"]
    assert linear.row_dtype(row, col, table, -6, 3, 3) == np.int32
    for base in HUGE:
        assert linear.row_dtype(row + base, col + base, table, -6, 3, 3) == np.int64


def test_pair_long_shape_is_narrow():
    """8 kbp DNA pairs under dna_simple with gap −6 sweep in int32."""
    M = N = 8000
    row, col = boundary_vectors(M, N, -6)
    assert linear.row_dtype(row, col, TABLES["dna"], -6, M, N) == np.int32

