"""Measured-curve plan selection: profile + Theorem-4 model → concrete knobs.

The planner's historical failure mode (BENCH_pr5, ROADMAP item 5) is
choosing a parallel backend that a 1-CPU host runs *slower* than serial.
This module makes that structurally impossible: a parallel candidate is
only considered when its **measured** throughput curve strictly beats the
measured serial throughput, and the winner among survivors is picked by a
predicted-time model that combines the measured cells/s with the paper's
Theorem-4 wavefront-inefficiency factor (Eq. 32, via
:func:`repro.parallel.model.alpha`) and the measured per-tile handoff
overhead.

Entry points
------------
* :func:`choose` — full decision for an ``m × n`` problem: backend,
  workers, kernel tier, ``k`` / ``base_cells`` (via the memory planner)
  and the ``band="auto"`` threshold.
* :func:`autotune_config` — apply a decision to an
  :class:`~repro.core.config.AlignConfig`, filling **only** the knobs the
  caller left unset (explicit choices always win; idempotent).
* :func:`beats_serial` — the degradation re-consult: does a backend point
  still beat serial for a (re-planned, smaller) problem?
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..core.config import DEFAULT_BASE_CELLS, DEFAULT_K, AlignConfig
from ..core.planner import ops_ratio_bound, plan_alignment, strip_rows
from ..parallel.model import alpha
from .profile import CalibrationProfile, load_profile

__all__ = [
    "TunedChoice",
    "choose",
    "predict_seconds",
    "strip_grid",
    "autotune_config",
    "beats_serial",
    "DEFAULT_BATCH_LANES",
    "batch_lanes",
    "use_batch",
]

#: ``k`` the calibration probe ran its backend sweeps with; the Eq. 32
#: inefficiency of the probe geometry normalises measured parallel curves
#: before extrapolating them to a different tile grid.
PROBE_K = 4

#: ``band="auto"`` is only worth enabling when the measured band-fill
#: throughput beats the serial kernel by at least this factor (the
#: verify-or-widen certificate may cost a second fill on dissimilar
#: pairs, so the headroom must be real) ...
BAND_MIN_ADVANTAGE = 1.5
#: ... and the problem is big enough for the fixed certificate overhead.
BAND_MIN_DIM = 256

#: Lane count used for the batch kernels when no calibration exists.
#: Uncalibrated hosts still batch — the lane-packed sweep amortises
#: per-pair dispatch overhead on every host we have measured — but a
#: *measured* curve always overrides this guess (including down to 0,
#: disabling batching, when the curve shows per-pair winning).
DEFAULT_BATCH_LANES = 32


@dataclass(frozen=True)
class TunedChoice:
    """One auto-selection outcome (everything the planner can set)."""

    backend: str
    workers: int
    kernel: Optional[str]
    k: int
    base_cells: int
    band: "None | str"
    predicted_s: float
    notes: Tuple[str, ...] = ()
    batch_lanes: int = DEFAULT_BATCH_LANES


def batch_lanes(
    profile: Optional[CalibrationProfile],
    tier: str,
    kind: str,
    default: int = DEFAULT_BATCH_LANES,
) -> int:
    """Lane count for the lane-packed batch kernels at ``(tier, kind)``.

    Mirrors :func:`choose`'s never-below-serial rule for backends: a batch
    lane count is only selected from a measured curve when its cells/s
    **strictly beats** the ``lanes == 1`` per-pair baseline measured by
    the same probe.  Outcomes:

    * no profile, or the profile predates the batch probe — ``default``
      (batching stays on with a fixed lane count; nothing was measured
      to contradict it);
    * curve measured and some ``lanes > 1`` point beats the baseline —
      the fastest such point (largest lane count on ties);
    * curve measured and **no** batch point beats per-pair — ``0``,
      disabling batching: the decision layer can never select batch
      where its own curve loses.
    """
    if profile is None:
        return default
    curve = profile.batch_curve(tier, kind)
    if not curve:
        return default
    baseline = curve.get(1, 0.0)
    winners = [(cps, b) for b, cps in curve.items() if b > 1 and cps > baseline]
    if winners:
        return max(winners)[1]
    return 0


def use_batch(
    profile: Optional[CalibrationProfile], tier: str, kind: str
) -> bool:
    """``True`` when the decision layer would route through the batch
    kernels at all (``batch_lanes(...) > 1``)."""
    return batch_lanes(profile, tier, kind) > 1


def strip_grid(workers: int, k: int) -> Tuple[int, int]:
    """``(R, C)`` of the process backend's top-level strip wavefront:
    ``R = k·u`` row tiles (``u`` from
    :func:`~repro.core.planner.strip_rows`) by ``C = min(P, k)`` strips."""
    return k * strip_rows(workers, k), max(1, min(workers, k))


def predict_seconds(
    profile: CalibrationProfile,
    m: int,
    n: int,
    *,
    k: int,
    backend: str,
    workers: int,
    affine: bool = False,
) -> Optional[float]:
    """Predicted wall time of one alignment under a candidate plan.

    ``effective cells / measured cells-per-second``, where effective cells
    carry the FastLSA recomputation bound ``(k+1)/(k−1)``; parallel
    candidates are additionally scaled by the ratio of Eq. 32
    inefficiencies between the target strip grid and the probe's
    (:func:`strip_grid`, normalising the measured curve to its geometry
    before extrapolating), plus the measured per-tile handoff cost over
    the top-level tile count ``R·C``.  The backend curves are measured on
    a linear scheme, so ``affine`` does not change the prediction.
    Returns ``None`` for a point the profile never measured.
    """
    cps = profile.cells_per_s(backend, workers)
    if not cps:
        return None
    eff = float(m) * float(n) * ops_ratio_bound(max(2, k))
    if backend == "serial":
        return eff / cps
    R, C = strip_grid(workers, k)
    R0, C0 = strip_grid(workers, PROBE_K)
    ineff = workers * alpha(workers, R, C)
    ineff0 = workers * alpha(workers, R0, C0)
    handoff = float(profile.handoff_s.get(backend, 0.0))
    return (eff / cps) * (ineff / ineff0) + handoff * R * C


def choose(
    profile: CalibrationProfile,
    m: int,
    n: int,
    *,
    memory_cells: Optional[int] = None,
    affine: bool = False,
    kernels: Optional[Tuple[str, ...]] = None,
) -> TunedChoice:
    """Pick the full plan for an ``m × n`` problem from measured curves.

    The candidate set is serial plus every measured parallel point whose
    curve **strictly beats** the measured serial throughput — points at
    or below serial are excluded before costing, so no cost-model quirk
    can ever select a backend the calibration showed to be a regression.
    Points probed with more workers than the calibrated host has CPUs are
    skipped too (they could only have been measured oversubscribed).
    """
    notes = []
    if memory_cells is not None:
        plan = plan_alignment(m, n, memory_cells, affine=affine, profile=profile)
        k, base_cells = plan.config.k, plan.config.base_cells
    else:
        k = DEFAULT_K
        base_cells = profile.best_base_cells() or DEFAULT_BASE_CELLS
    serial_cps = profile.serial_cells_per_s()
    serial_s = predict_seconds(
        profile, m, n, k=k, backend="serial", workers=1, affine=affine
    )
    best = ("serial", 1, serial_s if serial_s is not None else float("inf"))
    cpus = profile.cpu_count()
    for backend, workers, cps in profile.backend_points():
        if workers > cpus or cps <= serial_cps:
            continue
        t = predict_seconds(
            profile, m, n, k=k, backend=backend, workers=workers, affine=affine,
        )
        if t is not None and t < best[2]:
            best = (backend, workers, t)
    backend, workers, predicted_s = best
    if backend != "serial":
        notes.append(f"tuned:backend={backend}@{workers}")

    kernel = None
    if kernels:
        kernel = profile.best_kernel(tuple(kernels))
        if kernel is not None:
            notes.append(f"tuned:kernel={kernel}")

    kind = "affine" if affine else "linear"
    lanes = batch_lanes(profile, kernel or "numpy", kind)
    if profile.batch_curve(kernel or "numpy", kind):
        notes.append(f"tuned:batch_lanes={lanes}")

    band: "None | str" = None
    kernel_cps = (profile.kernels.get(kernel or "numpy") or {}).get(
        "linear_cells_per_s", serial_cps
    )
    if (
        min(m, n) >= BAND_MIN_DIM
        and profile.band_fill_cells_per_s
        >= BAND_MIN_ADVANTAGE * float(kernel_cps or 0.0)
    ):
        band = "auto"
        notes.append("tuned:band=auto")

    return TunedChoice(
        backend=backend,
        workers=workers,
        kernel=kernel,
        k=k,
        base_cells=base_cells,
        band=band,
        predicted_s=predicted_s,
        notes=tuple(notes),
        batch_lanes=lanes,
    )


def beats_serial(
    profile: CalibrationProfile,
    backend: str,
    workers: int,
    m: int,
    n: int,
    k: int,
    affine: bool = False,
) -> bool:
    """Degradation re-consult: is ``(backend, workers)`` still predicted
    to beat serial for this (typically smaller, re-planned) problem?"""
    if backend == "serial":
        return True
    cps = profile.cells_per_s(backend, workers)
    if not cps or cps <= profile.serial_cells_per_s():
        return False
    serial_s = predict_seconds(
        profile, m, n, k=k, backend="serial", workers=1, affine=affine
    )
    par_s = predict_seconds(
        profile, m, n, k=k, backend=backend, workers=workers, affine=affine
    )
    return serial_s is None or (par_s is not None and par_s < serial_s)


def autotune_config(
    config: AlignConfig,
    m: int,
    n: int,
    affine: bool = False,
    profile: Optional[CalibrationProfile] = None,
) -> Tuple[AlignConfig, Tuple[str, ...]]:
    """Fill the unset knobs of ``config`` from a calibration decision.

    Resolves the profile from ``config.tune`` when not supplied (so a
    plain ``AlignConfig(tune="auto")`` works end-to-end); with no profile
    available the config is returned unchanged — an uncalibrated host
    degrades to current defaults, it never errors.  Only ``None`` fields
    are filled (backend + workers, kernel, band): explicit caller choices
    always win, which also makes this idempotent — re-applying to an
    already-tuned config is a no-op.
    """
    if profile is None:
        profile = load_profile(getattr(config, "tune", None))
    if profile is None:
        return config, ()
    from ..kernels import registry

    choice = choose(
        profile, m, n, affine=affine, kernels=registry.available_tiers()
    )
    updates = {}
    notes = []
    if config.backend is None:
        updates["backend"] = choice.backend
        if config.max_workers is None and choice.backend != "serial":
            updates["max_workers"] = choice.workers
        notes.append(f"tuned:backend={choice.backend}@{choice.workers}")
    if config.kernel is None and choice.kernel is not None:
        updates["kernel"] = choice.kernel
        notes.append(f"tuned:kernel={choice.kernel}")
    if config.band is None and choice.band is not None:
        updates["band"] = choice.band
        notes.append("tuned:band=auto")
    if not updates:
        return config, ()
    return replace(config, **updates), tuple(notes)
