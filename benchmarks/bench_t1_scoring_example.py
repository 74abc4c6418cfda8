"""Experiment T1/F1 — Table 1 scoring and the Figure 1 worked example.

Reproduces the paper's worked example exactly: aligning ``TLDKLLKD``
against ``TDVLKAD`` under the Table 1 fragment of the scaled Dayhoff
matrix with a linear gap of −10 must give the optimal score **82**, the
Figure 1 DPM values, and 5 identically aligned letters.
"""

import numpy as np

from repro.align import format_dpm
from repro.baselines import needleman_wunsch, nw_score_matrix
from repro.core import AlignConfig, fastlsa
from repro.scoring import paper_scheme

from common import emit, report

ROWS_SEQ = "TLDKLLKD"    # left side of Figure 1
COLS_SEQ = "TDVLKAD"     # top of Figure 1

#: Figure 1's printed DPM — the paper's exact values (subscripts in the
#: paper mark the optimal path; here we keep just the scores).
FIGURE1 = np.array(
    [
        [0, -10, -20, -30, -40, -50, -60, -70],
        [-10, 20, 10, 0, -10, -20, -30, -40],
        [-20, 10, 20, 22, 20, 10, 0, -10],
        [-30, 0, 30, 20, 22, 20, 10, 20],
        [-40, -10, 20, 30, 20, 42, 32, 22],
        [-50, -20, 10, 32, 50, 40, 42, 32],
        [-60, -30, 0, 22, 52, 50, 40, 42],
        [-70, -40, -10, 12, 42, 72, 62, 52],
        [-80, -50, -20, 2, 32, 62, 72, 82],
    ],
    dtype=np.int64,
)


def test_figure1_matrix_reproduced():
    """Every entry of Figure 1 must match our DPM."""
    mats = nw_score_matrix(ROWS_SEQ, COLS_SEQ, paper_scheme())
    assert np.array_equal(mats.H, FIGURE1)


def test_optimal_score_is_82():
    scheme = paper_scheme()
    assert needleman_wunsch(ROWS_SEQ, COLS_SEQ, scheme).score == 82
    assert fastlsa(ROWS_SEQ, COLS_SEQ, scheme, config=AlignConfig(k=2, base_cells=16)).score == 82


def test_five_identities():
    al = needleman_wunsch(ROWS_SEQ, COLS_SEQ, paper_scheme())
    assert al.num_matches == 5


def test_bench_worked_example(benchmark):
    """Timing of the worked example (FM algorithm)."""
    scheme = paper_scheme()
    result = benchmark(needleman_wunsch, ROWS_SEQ, COLS_SEQ, scheme)
    assert result.score == 82


def test_report_t1():
    """Print the reproduced Figure 1 matrix and the T1 summary row."""
    scheme = paper_scheme()
    al = needleman_wunsch(ROWS_SEQ, COLS_SEQ, scheme)
    mats = nw_score_matrix(ROWS_SEQ, COLS_SEQ, scheme)
    emit("")
    emit("== F1: Figure 1 DPM (reproduced; '*' marks the optimal path) ==")
    emit(format_dpm(mats.H, ROWS_SEQ, COLS_SEQ, path=al.path))
    report(
        "t1_scoring_example",
        [
            {
                "pair": f"{ROWS_SEQ}/{COLS_SEQ}",
                "paper_score": 82,
                "measured_score": al.score,
                "identities": al.num_matches,
                "matrix_matches_figure1": bool(np.array_equal(mats.H, FIGURE1)),
            }
        ],
        title="T1: worked example (paper score 82)",
    )
    assert al.score == 82
