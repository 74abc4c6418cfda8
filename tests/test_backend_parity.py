"""Backend parity: serial vs processes, bit-for-bit.

The wavefront backend is a pure execution strategy — it must produce
the *identical* optimal score AND the identical traceback path as the
serial recursion for the same inputs and FastLSA parameters.  This suite
sweeps the differential harness's ``k`` / base-case configurations across
both backends (linear and affine schemes, plus the ends-free modes), and
exercises the process backend's failure surface: a killed worker must
come back as a typed, transient :class:`~repro.errors.WorkerCrashError`
(never a hang), injected faults must propagate with their site, and
worker trace spans must merge into the parent's instrumentation.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import WorkerCrashError, fastlsa, faults, obs
from repro.core import AlignConfig, overlap_align, semiglobal_align
from repro.errors import InjectedFaultError, MemoryBudgetError
from repro.faults.plan import SITE_TILE_START, FaultPlan, FaultSpec
from repro.parallel import active_shm_names, get_process_pool
from repro.service.governor import MemoryGovernor
from repro.service.resilience import is_transient
from repro.workloads import dna_pair, protein_pair

from .test_differential import SWEEP, _assert_optimal

BACKENDS = ["processes"]


def _with_backend(config: AlignConfig, backend: str, workers: int = 2) -> AlignConfig:
    return AlignConfig(
        config.k, config.base_cells, max_workers=workers, backend=backend
    )


@pytest.mark.usefixtures("worker_strips")
class TestScoreAndPathParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("config", SWEEP, ids=lambda c: f"k{c.k}b{c.base_cells}")
    def test_linear_dna(self, dna_scheme, config, backend):
        a, b = dna_pair(120, divergence=0.25, seed=1)
        ref = fastlsa(a, b, dna_scheme, config=config)
        got = fastlsa(a, b, dna_scheme, config=_with_backend(config, backend))
        assert got.score == ref.score
        assert got.path.points == ref.path.points
        _assert_optimal(got, dna_scheme, ref.score)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("config", SWEEP, ids=lambda c: f"k{c.k}b{c.base_cells}")
    def test_affine_protein(self, affine_scheme, config, backend):
        a, b = protein_pair(90, divergence=0.3, seed=2)
        ref = fastlsa(a, b, affine_scheme, config=config)
        got = fastlsa(a, b, affine_scheme, config=_with_backend(config, backend))
        assert got.score == ref.score
        assert got.path.points == ref.path.points
        _assert_optimal(got, affine_scheme, ref.score)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_linear_seeds_deep_recursion(self, dna_scheme, backend, seed):
        a, b = dna_pair(150, divergence=0.2, seed=seed)
        config = AlignConfig(k=3, base_cells=64)
        ref = fastlsa(a, b, dna_scheme, config=config)
        got = fastlsa(a, b, dna_scheme, config=_with_backend(config, backend, 3))
        assert got.score == ref.score
        assert got.path.points == ref.path.points

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ends_free_modes(self, dna_scheme, backend):
        # config= routes through the same backend resolution, so the
        # ends-free drivers get wavefront FillCache for free.
        a, b = dna_pair(130, divergence=0.25, seed=5)
        config = AlignConfig(k=4, base_cells=256)
        bcfg = _with_backend(config, backend)
        for fn in (semiglobal_align, overlap_align):
            ref = fn(a, b, dna_scheme, config=config)
            got = fn(a, b, dna_scheme, config=bcfg)
            assert got.score == ref.score
            assert got.alignment.path.points == ref.alignment.path.points


@pytest.mark.usefixtures("worker_strips")
class TestProcessFailureSurface:
    CFG = AlignConfig(k=4, base_cells=64, max_workers=2, backend="processes")

    def test_killed_worker_raises_typed_error_not_hang(self, dna_scheme):
        a, b = dna_pair(150, divergence=0.25, seed=9)
        want = fastlsa(a, b, dna_scheme, config=AlignConfig(k=4, base_cells=64)).score
        pool = get_process_pool(2)
        os.kill(pool._procs[0].pid, signal.SIGKILL)
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashError) as info:
            fastlsa(a, b, dna_scheme, config=self.CFG)
        assert time.monotonic() - t0 < 30.0  # liveness polling, not a hang
        assert is_transient(info.value)  # the service retry policy applies
        # lifecycle replaces the broken pool: a plain retry succeeds.
        assert fastlsa(a, b, dna_scheme, config=self.CFG).score == want
        assert active_shm_names() == set()

    def test_injected_fault_propagates_from_worker(self, dna_scheme):
        a, b = dna_pair(150, divergence=0.25, seed=9)
        plan = FaultPlan(
            [FaultSpec(SITE_TILE_START, kind="raise", p=1.0, max_fires=1)], seed=1
        )
        with faults.chaos(plan):
            with pytest.raises(InjectedFaultError) as info:
                fastlsa(a, b, dna_scheme, config=self.CFG)
        assert info.value.site == SITE_TILE_START
        assert info.value.transient
        assert active_shm_names() == set()
        # The pool survives an injected fault (no worker died).
        ok = fastlsa(a, b, dna_scheme, config=self.CFG)
        ref = fastlsa(a, b, dna_scheme, config=AlignConfig(k=4, base_cells=64))
        assert ok.score == ref.score


@pytest.mark.usefixtures("worker_strips")
class TestObservabilityAcrossProcesses:
    def test_worker_spans_and_metrics_merge(self, dna_scheme):
        a, b = dna_pair(150, divergence=0.25, seed=4)
        cfg = AlignConfig(k=4, base_cells=64, max_workers=2, backend="processes")
        with obs.instrumented() as inst:
            fastlsa(a, b, dna_scheme, config=cfg)
        tiles = inst.tracer.find("wavefront.tile")
        assert tiles, "no wavefront.tile spans recorded"
        assert all(s.attrs.get("adopted") for s in tiles)
        assert all(s.attrs.get("backend") == "processes" for s in tiles)
        runs = inst.tracer.find("wavefront.run")
        assert runs and not any(s.attrs.get("adopted") for s in runs)


class TestGovernorArenaAccounting:
    def test_processes_config_billed_for_arena(self):
        async def go():
            gov = MemoryGovernor(total_cells=200_000, max_workers=1)
            serial_cfg = AlignConfig(k=2, base_cells=1024)
            plan = gov.admit(5000, 5000, config=serial_cfg)
            proc_cfg = AlignConfig(
                k=2, base_cells=1024, max_workers=4, backend="processes"
            )
            with pytest.raises(MemoryBudgetError):
                gov.admit(5000, 5000, config=proc_cfg)
            return plan

        plan = asyncio.run(go())
        assert plan.predicted_peak_cells <= 200_000


@pytest.mark.slow
def test_bench_harness_full_path(tmp_path):
    """The non-smoke benchmark path: parity + the 1.3x kernel bar enforced."""
    repo_root = Path(__file__).resolve().parents[1]
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(repo_root / "benchmarks" / "bench_pr5_backends.py"),
            "--lengths", "1000", "--workers", "2", "--repeats", "3",
            "--out", str(out),
        ],
        cwd=repo_root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(out.read_text())
    assert data["kernel_fastpath"]["parity"]
    assert data["kernel_fastpath"]["speedup"] >= 1.3
    assert all(row["parity"] for row in data["sweep"])
    assert data["meta"]["cpu_count"] == os.cpu_count()


@pytest.mark.usefixtures("worker_strips")
class TestServiceBackend:
    def test_default_backend_jobs_match_serial(self, dna_scheme):
        pairs = [dna_pair(100, divergence=0.3, seed=s) for s in range(3)]
        cfg = AlignConfig(k=4, base_cells=256)

        async def go():
            from repro.service import AlignmentService

            async with AlignmentService(
                memory_cells=4_000_000,
                default_backend="processes",
                backend_workers=2,
            ) as svc:
                results = [
                    await svc.align(a, b, dna_scheme, config=cfg) for a, b in pairs
                ]
                stats = svc.stats()
            return results, stats

        results, stats = asyncio.run(go())
        assert stats["default_backend"] == "processes"
        for (a, b), res in zip(pairs, results):
            assert res.score == fastlsa(a, b, dna_scheme, config=cfg).score
        assert active_shm_names() == set()
