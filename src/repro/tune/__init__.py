"""Hardware-adaptive autotuning (ROADMAP item 5).

``repro.tune`` turns the planner from assuming into measuring:

* :mod:`~repro.tune.probe` — ``fastlsa calibrate``: a one-time, seeded
  measurement suite producing a host-fingerprinted
  :class:`~repro.tune.profile.CalibrationProfile`;
* :mod:`~repro.tune.profile` — the versioned on-disk schema and cache
  (``~/.cache/fastlsa/calibration.json``, ``$FASTLSA_CACHE_DIR``);
* :mod:`~repro.tune.decision` — measured curves + the paper's Theorem-4
  model → backend, workers, kernel tier, ``k``/``BM`` and the
  ``band="auto"`` threshold, with the structural guarantee that a
  backend whose measured curve loses to serial is never selected;
* :mod:`~repro.tune.synthetic` — frozen fake-host fixtures
  (``slow-1cpu``, ``fast-8cpu``) so decision tests are deterministic on
  any CI machine.

The knob is ``AlignConfig.tune = "auto" | "off" | <profile-path>``; the
alignment service defaults to ``"auto"`` (inert, with a one-line warning,
on hosts that never calibrated).
"""

from .decision import TunedChoice, autotune_config, beats_serial, choose
from .profile import (
    SCHEMA_VERSION,
    CalibrationProfile,
    default_cache_dir,
    default_cache_path,
    host_fingerprint,
    host_info,
    load_cached,
    load_profile,
)
from .synthetic import SYNTHETIC_KINDS, synthetic_profile

__all__ = [
    "SCHEMA_VERSION",
    "CalibrationProfile",
    "TunedChoice",
    "autotune_config",
    "beats_serial",
    "calibrate",
    "choose",
    "default_cache_dir",
    "default_cache_path",
    "host_fingerprint",
    "host_info",
    "load_cached",
    "load_profile",
    "synthetic_profile",
    "SYNTHETIC_KINDS",
]


def __getattr__(name):
    # Lazy: the probe pulls in the full alignment stack; importing
    # repro.tune for a decision must stay light.
    if name == "calibrate":
        from .probe import calibrate

        return calibrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
