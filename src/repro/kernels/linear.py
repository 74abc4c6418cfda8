"""Vectorised linear-gap DP sweeps.

The Needleman–Wunsch recurrence with a linear gap penalty ``g`` is

    H[i, j] = max(H[i−1, j−1] + S(aᵢ, bⱼ),  H[i−1, j] + g,  H[i, j−1] + g).

The first two terms vectorise trivially across a row, but the third is a
serial in-row dependency.  Because the gap is linear, every move adds
``g`` to the score except a DIAG, and each move advances ``i + j`` by
one (DOWN, RIGHT) or two (DIAG).  So the *offset score*

    K[i, j] = H[i, j] − g·(i + j)        (``i``, ``j`` local to the sweep)

absorbs the gap constants.  Substituting ``H = K + g·(i + j)``:

    H[i−1, j−1] + S = K[i−1, j−1] + g·(i+j) + (S − 2g)
    H[i−1, j]   + g = K[i−1, j]   + g·(i+j)
    H[i, j−1]   + g = K[i, j−1]   + g·(i+j)

and the common ``g·(i + j)`` drops out of the max:

    K[i, j] = max(K[i−1, j−1] + (S(aᵢ, bⱼ) − 2g),  K[i−1, j],  K[i, j−1]).

The in-row term is now a plain running maximum: a row is
``V[j] = max(K[i−1, j−1] + S − 2g, K[i−1, j])`` followed by one
``np.maximum.accumulate`` seeded with the left boundary ``K[i, 0]`` —
three numpy passes per row instead of an :math:`O(n)` Python loop.  This
is the trick that makes a pure-Python reproduction of the paper feasible
(cf. the repro-band note: "pure-Python DP too slow; needs numpy tricks").
The shifted profile ``S − 2g`` is built once per sweep, and the offsets
are added back once, on the outputs only (last row, last column,
samples, matrix).

Rows are int32 whenever :func:`row_dtype` proves no offset score of the
sweep can leave that range, halving the memory traffic of every pass;
otherwise int64.  Inputs and outputs are int64 either way.

All functions operate on a *sub-problem* of the logical DPM: the caller
supplies the boundary row and column values, which is exactly the interface
FastLSA's grid cache needs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..obs import runtime as obs
from .ops import OpCounter

__all__ = [
    "sweep_last_row_col",
    "sweep_matrix",
    "sweep_band",
    "best_cell_local",
    "boundary_vectors",
    "score_profile",
    "row_dtype",
]

#: Offset scores of an int32 sweep stay below this magnitude (a 2× margin
#: under int32's range).
NARROW_LIMIT = 1 << 30


def score_profile(table: np.ndarray, b_codes: np.ndarray) -> np.ndarray:
    """Per-symbol similarity rows for a column segment, gathered once.

    ``profile[a, j] = table[a, b_codes[j]]`` with shape ``(A, N)``: row
    ``a`` is the similarity profile a sweep needs for any row whose symbol
    encodes to ``a``.  Materialising it hoists the per-row fancy-index
    gather (``table[a_i][b_codes]`` — one full indexed pass per row) out
    of the sweep's inner loop: after this, fetching a row's profile is a
    contiguous O(1) view.  Shared by the sequential kernels and both
    wavefront backends, which slice one full-width profile per region
    instead of re-gathering per tile.
    """
    return np.ascontiguousarray(table[:, b_codes])


def _auto_profile(profile, table, b_codes, rows):
    """Build the score profile unless the sweep is too short to pay it off."""
    if profile is not None:
        return profile
    if rows >= table.shape[0] // 2:
        return score_profile(table, b_codes)
    return None


def boundary_vectors(m: int, n: int, gap: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row-0 / column-0 boundary values of a fresh global problem.

    ``row[j] = g·j`` and ``col[i] = g·i`` — the leading-gap scores of
    Figure 1's first row and column.
    """
    row = np.arange(n + 1, dtype=np.int64) * int(gap)
    col = np.arange(m + 1, dtype=np.int64) * int(gap)
    return row, col


def _absmax(x: np.ndarray) -> int:
    return max(-int(x.min()), int(x.max())) if x.size else 0


def row_dtype(
    first_row: np.ndarray, first_col: np.ndarray, table: np.ndarray, gap: int, m: int, n: int
):
    """Row dtype of an ``m × n`` offset-domain sweep: int32 if provably safe.

    Every ``H`` in the sweep is a boundary value plus at most ``m + n``
    moves, each worth at most ``max|S|`` or ``|g|``; ``K`` shifts that by
    ``|g|·(i + j) ≤ |g|·(m + n)`` and a row pass adds one ``S − 2g``.  So
    all values stay within ``max|boundary| + (m+n+2)·(max|S| + 2|g|)``;
    below :data:`NARROW_LIMIT` the rows are int32, otherwise int64 (and
    the ``kernels.wide_rows`` counter records the wide sweep).  ``max|S|``
    is taken over ``table``, which bounds any score profile gathered from it.
    """
    edge = max(_absmax(first_row), _absmax(first_col))
    step = _absmax(np.asarray(table)) + 2 * abs(int(gap))
    if edge + (m + n + 2) * step < NARROW_LIMIT:
        return np.int32
    obs.counter_add("kernels.wide_rows")
    return np.int64


def _check_boundaries(first_row, first_col, m: int, n: int):
    first_row = np.asarray(first_row, dtype=np.int64)
    first_col = np.asarray(first_col, dtype=np.int64)
    if first_row.shape != (n + 1,):
        raise ValueError(f"first_row must have length {n + 1}, got {first_row.shape}")
    if first_col.shape != (m + 1,):
        raise ValueError(f"first_col must have length {m + 1}, got {first_col.shape}")
    return first_row, first_col


def _offset_sweep(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    first_row: np.ndarray,
    first_col: np.ndarray,
    profile: Optional[np.ndarray],
    sample_cols: Optional[np.ndarray],
    keep_rows: bool,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The offset-domain row loop shared by every linear sweep (module doc).

    Returns ``(K, ks)`` in the row dtype: ``K`` holds rows ``0..M`` when
    ``keep_rows``, else two rolling rows with row ``M`` at ``K[M & 1]``;
    ``ks[i, t] = K[i, sample_cols[t]]`` (``None`` without sample columns).
    Requires ``M, N ≥ 1``.
    """
    M, N = len(a_codes), len(b_codes)
    dt = row_dtype(first_row, first_col, table, gap, M, N)
    g2 = 2 * gap
    if profile is not None:
        kprof = np.subtract(profile, g2, dtype=np.int64).astype(dt, copy=False)
    else:
        ktable = np.subtract(table, g2, dtype=np.int64).astype(dt, copy=False)
        kprof = _auto_profile(None, ktable, b_codes, M)
    kcol = (first_col - np.arange(M + 1, dtype=np.int64) * gap).tolist()
    K = np.empty((M + 1 if keep_rows else 2, N + 1), dtype=dt)
    np.subtract(first_row, np.arange(N + 1, dtype=np.int64) * gap, out=K[0], casting="unsafe")
    ks = None
    if sample_cols is not None and sample_cols.size:
        ks = np.empty((M + 1, len(sample_cols)), dtype=dt)
        ks[0] = K[0][sample_cols]
    # Each row with its shifted views, built once: the loop makes none.
    views = [(r, r[:-1], r[1:]) for r in K]
    _, prev_lo, prev_hi = views[0]
    for i, a in enumerate(np.asarray(a_codes).tolist(), 1):
        cur, cur_lo, cur_hi = views[i if keep_rows else i & 1]
        np.add(prev_lo, kprof[a] if kprof is not None else ktable[a][b_codes], out=cur_hi)
        np.maximum(cur_hi, prev_hi, out=cur_hi)
        cur[0] = kcol[i]
        np.maximum.accumulate(cur, out=cur)
        if ks is not None:
            ks[i] = cur[sample_cols]
        prev_lo, prev_hi = cur_lo, cur_hi
    return K, ks


def sweep_last_row_col(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    first_row: np.ndarray,
    first_col: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Hirschberg-style sweep: compute only the last row and last column.

    Parameters
    ----------
    a_codes:
        Encoded row-sequence segment, length ``M`` (local rows ``1..M``).
    b_codes:
        Encoded column-sequence segment, length ``N``.
    table:
        ``(A, A)`` int64 substitution table.
    gap:
        Linear gap penalty (negative).
    first_row:
        ``H`` values along local row 0, length ``N + 1``.
    first_col:
        ``H`` values along local column 0, length ``M + 1``; must satisfy
        ``first_col[0] == first_row[0]``.
    counter:
        Optional cell counter; incremented by ``M·N``.
    profile:
        Optional precomputed :func:`score_profile` of ``(table, b_codes)``
        (possibly a column slice of a wider one); built on the fly when
        omitted and the sweep is tall enough to amortise it.

    Returns
    -------
    (last_row, last_col):
        ``H`` along local row ``M`` (length ``N + 1``) and local column
        ``N`` (length ``M + 1``).  ``last_row[0] == first_col[M]`` and
        ``last_col[0] == first_row[N]``.

    Space: two rows of width ``N + 1`` — linear, independent of ``M``.
    """
    last_row, samples = sweep_band(
        a_codes, b_codes, table, gap, first_row, first_col, [len(b_codes)], counter,
        profile=profile,
    )
    return last_row, samples[0]


def sweep_band(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    first_row: np.ndarray,
    first_col: np.ndarray,
    sample_cols: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Full-width band sweep with column sampling.

    Like :func:`sweep_last_row_col`, but additionally records the ``H``
    value of every row at the (relative) column positions ``sample_cols``
    — the FillCache access pattern: one pass over a whole block-row band
    captures all grid-column segments, keeping each numpy row operation
    full-width (crucial for throughput; narrow per-block sweeps pay the
    numpy call overhead ``k×`` over).

    Returns ``(last_row, samples)`` where ``samples[t, i] =
    H[i, sample_cols[t]]`` with shape ``(len(sample_cols), M + 1)``.
    """
    M = len(a_codes)
    N = len(b_codes)
    gap = int(gap)
    first_row, first_col = _check_boundaries(first_row, first_col, M, N)
    sample_cols = np.asarray(sample_cols, dtype=np.int64)
    if sample_cols.size and (sample_cols.min() < 0 or sample_cols.max() > N):
        raise ValueError("sample_cols out of range")

    if counter is not None:
        counter.add_cells(M * N)

    samples = np.empty((len(sample_cols), M + 1), dtype=np.int64)
    if M == 0:
        samples[:, 0] = first_row[sample_cols]
        return first_row.copy(), samples
    if N == 0:
        samples[:, :] = first_col[np.newaxis, :]
        return first_col[-1:].copy(), samples

    K, ks = _offset_sweep(
        a_codes, b_codes, table, gap, first_row, first_col, profile, sample_cols, False
    )
    # Back from K to H: + g·(M + j) on the last row, + g·(i + c) on samples.
    last_row = np.arange(M, M + N + 1, dtype=np.int64) * gap
    last_row += K[M & 1]
    if ks is not None:
        np.add(ks.T, sample_cols[:, np.newaxis] * gap, out=samples)
        samples += np.arange(M + 1, dtype=np.int64) * gap
    return last_row, samples


def best_cell_local(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    counter: Optional[OpCounter] = None,
) -> Tuple[int, int, int]:
    """Rolling clamped (Smith–Waterman) sweep; returns ``(score, i, j)``.

    The best local score and its end cell, preferring the first row-major
    maximum (ties broken by smallest ``i``, then smallest ``j``) — the
    scoring tier behind :func:`repro.core.local.local_best_cell`.
    """
    gap = int(gap)
    M, N = len(a_codes), len(b_codes)
    if counter is not None:
        counter.add_cells(M * N)
    best, bi, bj = 0, 0, 0
    if M == 0 or N == 0:
        return best, bi, bj
    gj = np.arange(N + 1, dtype=np.int64) * gap
    prev = np.zeros(N + 1, dtype=np.int64)
    t = np.empty(N + 1, dtype=np.int64)
    for i in range(1, M + 1):
        s = table[a_codes[i - 1]][b_codes]
        v = np.maximum(prev[:-1] + s, prev[1:] + gap)
        np.maximum(v, 0, out=v)
        t[0] = 0
        np.subtract(v, gj[1:], out=t[1:])
        np.maximum.accumulate(t, out=t)
        cur = t + gj
        cur[0] = 0
        rm = int(np.argmax(cur))
        if cur[rm] > best:
            best, bi, bj = int(cur[rm]), i, rm
        prev = cur
    return best, bi, bj


def sweep_matrix(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    first_row: np.ndarray,
    first_col: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Full-matrix sweep: compute and return all ``(M+1) × (N+1)`` H values.

    Same contract as :func:`sweep_last_row_col` but stores every row — the
    base-case (full matrix) algorithm of FastLSA and the FM baselines.
    """
    M = len(a_codes)
    N = len(b_codes)
    gap = int(gap)
    first_row, first_col = _check_boundaries(first_row, first_col, M, N)

    if counter is not None:
        counter.add_cells(M * N)

    if N == 0 or M == 0:
        H = np.empty((M + 1, N + 1), dtype=np.int64)
        H[0, :] = first_row
        H[:, 0] = first_col
        return H

    K, _ = _offset_sweep(
        a_codes, b_codes, table, gap, first_row, first_col, profile, None, True
    )
    # Back from K to H: + g·(i + j).
    H = np.add(K, np.arange(N + 1, dtype=np.int64) * gap)
    H += np.arange(M + 1, dtype=np.int64)[:, np.newaxis] * gap
    return H
