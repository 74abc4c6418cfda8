"""Service-level autotuning wiring (PR 9 tentpole).

``tune="auto"`` is the service default: unpinned jobs consult the
calibration profile at admission, so the governor sees (and bills) the
tuned backend.  These tests drive the precedence chain — explicit job
config > operator ``default_backend`` > tuned choice > serial — and the
inert fallback on uncalibrated hosts, against real job execution.
"""

from __future__ import annotations

import asyncio

from repro import align
from repro.core.config import AlignConfig
from repro.service import AlignmentService
from repro.tune import choose, synthetic_profile
from repro.workloads import dna_pair


def _run(coro):
    return asyncio.run(coro)


def _pair(n=600, seed=7):
    return dna_pair(n, divergence=0.2, seed=seed)


class TestTunedAdmission:
    def test_auto_without_cache_is_inert(self, dna_scheme):
        async def run():
            async with AlignmentService(memory_cells=50_000_000) as svc:
                assert svc.tune == "auto"
                assert svc.tune_profile is None
                a, b = _pair()
                job = await svc.submit(a, b, dna_scheme)
                result = await job.future
                return job, result

        job, result = _run(run())
        # No profile: nothing was pinned, the job ran as before PR 9.
        assert getattr(job.plan.config, "backend", None) is None
        a, b = _pair()
        assert result.score == align(a, b, dna_scheme).score

    def test_profile_pins_tuned_backend_at_admission(self, dna_scheme):
        profile = synthetic_profile("fast-8cpu")
        a, b = _pair()
        expected = choose(profile, len(a), len(b))

        async def run():
            async with AlignmentService(
                memory_cells=50_000_000, tune=profile
            ) as svc:
                job = await svc.submit(a, b, dna_scheme)
                return job, await job.future

        job, result = _run(run())
        assert job.plan.config.backend == expected.backend
        if expected.backend != "serial":
            assert job.plan.config.max_workers == expected.workers
        assert result.score == align(a, b, dna_scheme).score

    def test_slow_host_profile_stays_serial(self, dna_scheme):
        async def run():
            async with AlignmentService(
                memory_cells=50_000_000, tune=synthetic_profile("slow-1cpu")
            ) as svc:
                a, b = _pair()
                job = await svc.submit(a, b, dna_scheme)
                await job.future
                return job

        job = _run(run())
        assert job.plan.config.backend == "serial"
        assert job.plan.config.max_workers is None

    def test_explicit_job_backend_beats_tune(self, dna_scheme):
        async def run():
            async with AlignmentService(
                memory_cells=50_000_000, tune=synthetic_profile("fast-8cpu")
            ) as svc:
                a, b = _pair()
                job = await svc.submit(
                    a, b, dna_scheme,
                    config=AlignConfig(backend="serial"),
                )
                await job.future
                return job

        job = _run(run())
        assert job.plan.config.backend == "serial"

    def test_operator_default_backend_beats_tune(self, dna_scheme):
        async def run():
            async with AlignmentService(
                memory_cells=50_000_000,
                default_backend="processes",
                backend_workers=2,
                tune=synthetic_profile("slow-1cpu"),  # says: serial!
            ) as svc:
                a, b = _pair()
                job = await svc.submit(a, b, dna_scheme)
                await job.future
                return job

        job = _run(run())
        # The operator pinned processes explicitly; tuning must not undo it.
        assert job.plan.config.backend == "processes"

    def test_per_job_tune_off_opts_out(self, dna_scheme):
        async def run():
            async with AlignmentService(
                memory_cells=50_000_000, tune=synthetic_profile("fast-8cpu")
            ) as svc:
                a, b = _pair()
                job = await svc.submit(
                    a, b, dna_scheme, config=AlignConfig(tune="off")
                )
                await job.future
                return job

        job = _run(run())
        assert getattr(job.plan.config, "backend", None) is None

    def test_stats_surface_tune_state(self):
        async def run():
            async with AlignmentService(
                memory_cells=50_000_000, tune=synthetic_profile("fast-8cpu")
            ) as svc:
                return svc.stats()

        stats = _run(run())
        assert stats["tune"] == "profile"
        assert stats["tune_profile_loaded"] is True

        async def run_off():
            async with AlignmentService(
                memory_cells=50_000_000, tune="off"
            ) as svc:
                return svc.stats()

        stats = _run(run_off())
        assert stats["tune"] == "off"
        assert stats["tune_profile_loaded"] is False
