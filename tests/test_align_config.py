"""Tests for the unified AlignConfig surface and the legacy-keyword gate.

The API-redesign contract: ``config=AlignConfig(...)`` is the one way to
parameterize alignment across every entry point.  The loose ``k=`` /
``base_cells=`` / ``max_workers=`` keywords warned for one release line
and now raise :class:`~repro.errors.ConfigError` naming the
:class:`AlignConfig` field to use instead.  The wire-protocol schema
(``from_dict``) rejects typos loudly.
"""

import warnings

import pytest

import repro
from repro import AlignConfig, ConfigError, FastLSAConfig, batch_align, fastlsa
from repro.core.config import resolve_config
from repro.core.modes import EndsFree, ends_free_align

from tests.conftest import random_dna


class TestAlignConfig:
    def test_defaults_and_inheritance(self):
        cfg = AlignConfig()
        assert isinstance(cfg, FastLSAConfig)
        assert cfg.k >= 2 and cfg.max_workers is None
        assert cfg.band is None and cfg.kernel is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            AlignConfig(k=1)
        with pytest.raises(ConfigError):
            AlignConfig(base_cells=2)
        with pytest.raises(ConfigError):
            AlignConfig(max_workers=0)
        with pytest.raises(ConfigError):
            AlignConfig(max_workers=-3)
        with pytest.raises(ConfigError, match="backend"):
            AlignConfig(backend="threads")  # deleted backend

    def test_band_validation(self):
        assert AlignConfig(band=16).band == 16
        assert AlignConfig(band="auto").band == "auto"
        for bad in (0, -4, "wide", True, 2.5):
            with pytest.raises(ConfigError, match="band"):
                AlignConfig(band=bad)

    def test_kernel_validation(self):
        assert AlignConfig(kernel="numpy").kernel == "numpy"
        assert AlignConfig(kernel="auto").kernel == "auto"
        with pytest.raises(ConfigError, match="kernel"):
            AlignConfig(kernel="fortran")

    def test_from_dict_roundtrip(self):
        cfg = AlignConfig.from_dict(
            {"k": 4, "base_cells": 4096, "max_workers": 2,
             "band": 32, "kernel": "numpy"}
        )
        assert (cfg.k, cfg.base_cells, cfg.max_workers) == (4, 4096, 2)
        assert (cfg.band, cfg.kernel) == (32, "numpy")
        assert AlignConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_partial_and_null(self):
        cfg = AlignConfig.from_dict({"k": 3, "max_workers": None})
        assert cfg.k == 3
        assert cfg.base_cells == AlignConfig().base_cells
        assert cfg.max_workers is None

    def test_from_dict_band_auto(self):
        assert AlignConfig.from_dict({"band": "auto"}).band == "auto"
        with pytest.raises(ConfigError, match="band"):
            AlignConfig.from_dict({"band": True})
        with pytest.raises(ConfigError, match="band"):
            AlignConfig.from_dict({"band": "narrow"})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            AlignConfig.from_dict({"kay": 4})

    def test_from_dict_rejects_non_mapping_and_bool(self):
        with pytest.raises(ConfigError):
            AlignConfig.from_dict([("k", 4)])
        with pytest.raises(ConfigError, match="must be an integer"):
            AlignConfig.from_dict({"k": True})
        with pytest.raises(ConfigError, match="must be an integer"):
            AlignConfig.from_dict({"base_cells": "big"})
        with pytest.raises(ConfigError, match="must be a string"):
            AlignConfig.from_dict({"kernel": 3})


class TestResolveConfig:
    def test_legacy_keyword_raises_even_with_config(self):
        with pytest.raises(ConfigError, match="k keyword"):
            resolve_config(AlignConfig(k=5), k=9)

    def test_plain_fastlsa_config_is_wrapped(self):
        cfg = resolve_config(FastLSAConfig(k=3, base_cells=1024))
        assert isinstance(cfg, AlignConfig)
        assert (cfg.k, cfg.base_cells) == (3, 1024)

    def test_no_args_is_silent_defaults(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = resolve_config()
        assert cfg == AlignConfig()

    def test_error_names_call_site_keywords_and_fields(self):
        with pytest.raises(
            ConfigError,
            match=r"batch_align: the k keyword\(s\) were removed.*AlignConfig\(k=\.\.\.\)",
        ):
            resolve_config(k=4, where="batch_align")
        with pytest.raises(
            ConfigError, match=r"fastlsa: the k, base_cells keyword\(s\) were removed"
        ):
            resolve_config(k=4, base_cells=256, where="fastlsa")


class TestEntryPointsAcceptConfig:
    """Every FastLSA-backed entry point takes config= without warning,
    and the removed legacy keywords raise ConfigError."""

    def test_fastlsa(self, rng, dna_scheme):
        a, b = random_dna(rng, 120), random_dna(rng, 130)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            via_config = fastlsa(a, b, dna_scheme, config=AlignConfig(k=3, base_cells=512))
        assert via_config.score is not None
        with pytest.raises(ConfigError, match="fastlsa: the k, base_cells"):
            fastlsa(a, b, dna_scheme, k=3, base_cells=512)

    def test_batch_align(self, rng, dna_scheme):
        q = random_dna(rng, 60)
        targets = [random_dna(rng, 60) for _ in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            via_config = batch_align(
                q, targets, dna_scheme,
                config=AlignConfig(k=3, base_cells=512, max_workers=2),
            )
        assert [h.score for h in via_config]
        with pytest.raises(ConfigError, match="max_workers"):
            batch_align(q, targets, dna_scheme, k=3, base_cells=512, max_workers=2)

    def test_fastlsa_local(self, rng, dna_scheme):
        from repro import fastlsa_local

        a, b = random_dna(rng, 100), random_dna(rng, 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            via_config = fastlsa_local(a, b, dna_scheme, config=AlignConfig(k=3))
        assert via_config.score >= 0
        with pytest.raises(ConfigError, match="fastlsa_local"):
            fastlsa_local(a, b, dna_scheme, k=3)

    def test_ends_free_align(self, rng, dna_scheme):
        a, b = random_dna(rng, 90), random_dna(rng, 110)
        free = EndsFree(a_start=True, a_end=True, b_start=False, b_end=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            via_config = ends_free_align(a, b, dna_scheme, free,
                                         config=AlignConfig(k=3))
        assert via_config.score is not None
        with pytest.raises(ConfigError, match="ends_free_align"):
            ends_free_align(a, b, dna_scheme, free, k=3)

    def test_batch_align_rejects_bad_max_workers(self, dna_scheme):
        with pytest.raises(ConfigError):
            batch_align("ACGT", ["ACGA"], dna_scheme,
                        config=AlignConfig(max_workers=0))


class TestTopLevelAlign:
    def test_align_routes_config_to_fastlsa(self, rng, dna_scheme):
        a, b = random_dna(rng, 80), random_dna(rng, 80)
        result = repro.align(a, b, dna_scheme, config=AlignConfig(k=3, base_cells=512))
        assert result.algorithm == "fastlsa"
        baseline = repro.align(a, b, dna_scheme, method="needleman-wunsch")
        assert result.score == baseline.score

    def test_align_rejects_config_for_other_methods(self, dna_scheme):
        for method in ("needleman-wunsch", "hirschberg"):
            with pytest.raises(ConfigError, match="takes no alignment config"):
                repro.align("ACGT", "ACGA", dna_scheme, method=method,
                            config=AlignConfig())

    def test_simulator_keeps_plain_keywords(self, rng, dna_scheme):
        # simulated_parallel_fastlsa is a modelling API: its k/base_cells
        # sweep parameters are plain keywords, not routed through
        # resolve_config, so they keep working.
        a, b = random_dna(rng, 80), random_dna(rng, 80)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, _report = repro.simulated_parallel_fastlsa(
                a, b, dna_scheme, P=2, k=3, base_cells=512
            )
        assert result.score == fastlsa(
            a, b, dna_scheme, config=AlignConfig(k=3, base_cells=512)
        ).score


class TestTuneField:
    """PR 9: the ``tune`` knob rides the NDJSON wire schema."""

    def test_tune_roundtrip(self):
        cfg = AlignConfig.from_dict({"tune": "auto"})
        assert cfg.tune == "auto"
        assert AlignConfig.from_dict(cfg.to_dict()) == cfg
        assert AlignConfig.from_dict({"tune": None}).tune is None

    def test_tune_validation(self):
        with pytest.raises(ConfigError):
            AlignConfig(tune="")
        with pytest.raises(ConfigError):
            AlignConfig.from_dict({"tune": 7})
