"""Unit tests for the fault-injection layer and resilience primitives.

Covers :mod:`repro.faults` (plans, determinism, runtime scoping, no-op
overhead), :mod:`repro.core.cancel` (tokens + checkpoints) and
:mod:`repro.service.resilience` (retry policy, circuit breaker).
"""

from __future__ import annotations

import time
from random import Random

import pytest

from repro.core import CancelToken, cancel_scope, checkpoint
from repro.errors import (
    ConfigError,
    InjectedFaultError,
    JobTimeoutError,
    MemoryBudgetError,
)
from repro.faults import runtime as faults
from repro.faults.plan import (
    NAMED_PLANS,
    SITE_BASE_KERNEL,
    SITE_CACHE_GET,
    SITE_CACHE_PUT,
    SITE_TILE_FINISH,
    SITE_TILE_START,
    SITES,
    FaultPlan,
    FaultSpec,
    named_plan,
)
from repro.service.resilience import CircuitBreaker, RetryPolicy, is_transient


@pytest.fixture(autouse=True)
def _no_global_plan():
    """Chaos tests must never leak a process-global plan into each other."""
    faults.disable()
    yield
    faults.disable()


def _fire_log(plan, site, hits):
    """Drive `hits` perturbs through `site`, recording which hits fired."""
    fired = []
    for i in range(hits):
        try:
            plan.perturb(site)
        except InjectedFaultError:
            fired.append(i)
    return fired


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec("not.a.site")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(SITE_TILE_START, kind="explode")

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(SITE_TILE_START, p=1.5)

    def test_unknown_error_class_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(SITE_TILE_START, error="NoSuchError")

    def test_default_error_is_transient_injected_fault(self):
        exc = FaultSpec(SITE_TILE_START).build_error()
        assert isinstance(exc, InjectedFaultError)
        assert is_transient(exc)

    def test_non_transient_flag_respected(self):
        exc = FaultSpec(SITE_TILE_START, transient=False).build_error()
        assert not is_transient(exc)

    def test_named_error_class(self):
        exc = FaultSpec(SITE_CACHE_GET, error="MemoryBudgetError").build_error()
        assert isinstance(exc, MemoryBudgetError)


class TestFaultPlanDeterminism:
    def test_same_seed_same_fires(self):
        spec = FaultSpec(SITE_BASE_KERNEL, p=0.3, max_fires=None)
        a = _fire_log(FaultPlan([spec], seed=42), SITE_BASE_KERNEL, 200)
        b = _fire_log(FaultPlan([spec], seed=42), SITE_BASE_KERNEL, 200)
        assert a and a == b

    def test_different_seed_different_fires(self):
        spec = FaultSpec(SITE_BASE_KERNEL, p=0.3, max_fires=None)
        a = _fire_log(FaultPlan([spec], seed=1), SITE_BASE_KERNEL, 200)
        b = _fire_log(FaultPlan([spec], seed=2), SITE_BASE_KERNEL, 200)
        assert a != b

    def test_reset_replays_identically(self):
        plan = FaultPlan(
            [FaultSpec(SITE_BASE_KERNEL, p=0.4, max_fires=None)], seed=9
        )
        first = _fire_log(plan, SITE_BASE_KERNEL, 100)
        plan.reset()
        assert _fire_log(plan, SITE_BASE_KERNEL, 100) == first

    def test_max_fires_caps_injections(self):
        plan = FaultPlan([FaultSpec(SITE_TILE_START, max_fires=3)], seed=0)
        fired = _fire_log(plan, SITE_TILE_START, 50)
        assert fired == [0, 1, 2]
        assert plan.total_fired() == 3

    def test_after_skips_warmup_hits(self):
        plan = FaultPlan([FaultSpec(SITE_TILE_START, after=5, max_fires=1)], seed=0)
        assert _fire_log(plan, SITE_TILE_START, 20) == [5]

    def test_sites_isolated(self):
        plan = FaultPlan([FaultSpec(SITE_TILE_START)], seed=0)
        plan.perturb(SITE_TILE_FINISH)  # other site: no fault
        with pytest.raises(InjectedFaultError):
            plan.perturb(SITE_TILE_START)

    def test_delay_kind_sleeps(self):
        plan = FaultPlan(
            [FaultSpec(SITE_TILE_FINISH, kind="delay", delay=0.05)], seed=0
        )
        t0 = time.perf_counter()
        plan.perturb(SITE_TILE_FINISH)  # fires: sleeps, no raise
        assert time.perf_counter() - t0 >= 0.04
        plan.perturb(SITE_TILE_FINISH)  # max_fires=1 default: no-op now

    def test_corrupt_kind_mutates_via_mutator(self):
        plan = FaultPlan([FaultSpec(SITE_CACHE_PUT, kind="corrupt")], seed=0)
        assert plan.corrupt_value(SITE_CACHE_PUT, 10, lambda v: v + 1) == 11
        # spent its one fire: identity afterwards
        assert plan.corrupt_value(SITE_CACHE_PUT, 10, lambda v: v + 1) == 10

    def test_stats_counts_hits_and_fires(self):
        plan = FaultPlan([FaultSpec(SITE_TILE_START, max_fires=2)], seed=0)
        _fire_log(plan, SITE_TILE_START, 10)
        stats = plan.stats()
        assert stats[SITE_TILE_START] == {"hits": 10, "fired": 2}

    def test_round_trip_through_dict(self):
        plan = named_plan("everything", seed=13)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.seed == 13 and clone.name == "everything"
        assert clone.to_dict() == plan.to_dict()
        site = SITE_BASE_KERNEL
        assert _fire_log(plan, site, 150) == _fire_log(clone, site, 150)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_dict(
                {"faults": [{"site": SITE_TILE_START, "flavor": "spicy"}]}
            )

    def test_from_dict_rejects_empty(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_dict({"faults": []})

    def test_every_named_plan_instantiates(self):
        for name in NAMED_PLANS:
            plan = named_plan(name, seed=3)
            assert plan.name == name
            for spec in plan.specs:
                assert spec.site in SITES

    def test_unknown_named_plan(self):
        with pytest.raises(ConfigError):
            named_plan("gremlins")


class TestRuntimeScoping:
    def test_inject_noop_without_plan(self):
        assert faults.current() is None
        faults.inject(SITE_TILE_START)  # must not raise

    def test_corrupt_identity_without_plan(self):
        sentinel = object()
        assert faults.corrupt(SITE_CACHE_PUT, sentinel, lambda v: None) is sentinel

    def test_chaos_scopes_and_restores(self):
        plan = FaultPlan([FaultSpec(SITE_TILE_START)], seed=0)
        with faults.chaos(plan):
            assert faults.current() is plan
            with pytest.raises(InjectedFaultError):
                faults.inject(SITE_TILE_START)
        assert faults.current() is None
        faults.inject(SITE_TILE_START)  # plan gone: no-op

    def test_chaos_sets_global_for_worker_threads(self):
        """Worker threads see the plan via the process-global fallback."""
        import threading

        plan = FaultPlan([FaultSpec(SITE_TILE_START)], seed=0)
        seen = []
        with faults.chaos(plan):
            t = threading.Thread(target=lambda: seen.append(faults.current()))
            t.start()
            t.join()
        assert seen == [plan]
        assert faults.current() is None

    def test_nested_chaos_restores_outer(self):
        outer = FaultPlan([FaultSpec(SITE_TILE_START)], seed=0)
        inner = FaultPlan([FaultSpec(SITE_TILE_FINISH)], seed=0)
        with faults.chaos(outer):
            with faults.chaos(inner):
                assert faults.current() is inner
            assert faults.current() is outer

    def test_enable_disable_global(self):
        plan = FaultPlan([FaultSpec(SITE_TILE_START)], seed=0)
        faults.enable(plan)
        assert faults.current() is plan
        faults.disable()
        assert faults.current() is None

    def test_inject_off_has_no_measurable_overhead(self):
        """Acceptance: the fault runtime is effectively free when off.

        Compares a loop of inject() calls (no plan) against the same loop
        doing a bare no-argument function call; the ratio bound is very
        generous so the assertion only catches a real regression (e.g.
        someone adding a lock or RNG draw to the off path).
        """

        def nop():
            return None

        n = 50_000
        best_base = min(
            _time_loop(nop, n) for _ in range(3)
        )
        best_inject = min(
            _time_loop(lambda: faults.inject(SITE_TILE_START), n) for _ in range(3)
        )
        assert best_inject < best_base * 20 + 0.05


def _time_loop(fn, n):
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return time.perf_counter() - t0


class TestCancelToken:
    def test_no_deadline_never_raises(self):
        token = CancelToken()
        token.check()
        assert token.remaining() is None and not token.expired

    def test_after_deadline_raises(self):
        token = CancelToken.after(0.0)
        time.sleep(0.002)
        assert token.expired
        with pytest.raises(JobTimeoutError):
            token.check()

    def test_manual_cancel(self):
        token = CancelToken.after(60.0)
        token.cancel("operator said stop")
        with pytest.raises(JobTimeoutError, match="operator said stop"):
            token.check()

    def test_remaining_counts_down(self):
        token = CancelToken.after(10.0)
        rem = token.remaining()
        assert rem is not None and 9.0 < rem <= 10.0

    def test_checkpoint_uses_scoped_token(self):
        checkpoint()  # no token: no-op
        token = CancelToken.after(0.0)
        time.sleep(0.002)
        with cancel_scope(token):
            with pytest.raises(JobTimeoutError):
                checkpoint()
        checkpoint()  # scope exited: no-op again

    def test_cancel_scope_nests(self):
        outer = CancelToken()
        inner = CancelToken()
        inner.cancel()
        with cancel_scope(outer):
            with cancel_scope(inner):
                with pytest.raises(JobTimeoutError):
                    checkpoint()
            checkpoint()  # outer token is healthy

    def test_fastlsa_honours_cancel_token(self, dna_scheme):
        """A cancelled token stops the recursion at the next checkpoint."""
        from repro.core import AlignConfig, fastlsa
        from repro.workloads import dna_pair

        a, b = dna_pair(200, seed=1)
        token = CancelToken()
        token.cancel("test cancel")
        with cancel_scope(token):
            with pytest.raises(JobTimeoutError):
                fastlsa(a, b, dna_scheme, config=AlignConfig(k=2, base_cells=256))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)

    def test_should_retry_transient_within_budget(self):
        policy = RetryPolicy(max_retries=2)
        exc = InjectedFaultError("x", transient=True)
        assert policy.should_retry(exc, 0)
        assert policy.should_retry(exc, 1)
        assert not policy.should_retry(exc, 2)

    def test_should_not_retry_permanent(self):
        policy = RetryPolicy(max_retries=5)
        assert not policy.should_retry(ValueError("nope"), 0)
        assert not policy.should_retry(
            InjectedFaultError("x", transient=False), 0
        )

    def test_connection_errors_are_transient(self):
        assert is_transient(ConnectionResetError())
        assert is_transient(BrokenPipeError())
        assert not is_transient(OSError("disk on fire"))

    def test_delay_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5)
        a = [policy.delay(i, Random(7)) for i in range(5)]
        b = [policy.delay(i, Random(7)) for i in range(5)]
        assert a == b  # deterministic under a pinned RNG
        for i, d in enumerate(a):
            assert 0.0 <= d <= min(0.5, 0.1 * 2.0 ** i)

    def test_zero_retries_disables(self):
        policy = RetryPolicy(max_retries=0)
        assert not policy.should_retry(InjectedFaultError("x"), 0)


class TestCircuitBreaker:
    def _make(self, threshold=3, reset_after=10.0):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=threshold,
            reset_after=reset_after,
            clock=lambda: clock["t"],
        )
        return breaker, clock

    def test_opens_after_threshold(self):
        breaker, _ = self._make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.fast_fails == 1

    def test_success_resets_streak(self):
        breaker, _ = self._make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_trial_success_closes(self):
        breaker, clock = self._make(threshold=1, reset_after=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock["t"] = 10.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the trial
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_trial_failure_reopens(self):
        breaker, clock = self._make(threshold=5, reset_after=10.0)
        for _ in range(5):
            breaker.record_failure()
        clock["t"] = 10.0
        assert breaker.allow()  # half-open trial
        breaker.record_failure()  # single failure reopens from half-open
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2

    def test_stats_shape(self):
        breaker, _ = self._make()
        stats = breaker.stats()
        assert set(stats) == {
            "state", "consecutive_failures", "opens", "fast_fails",
            "trial_inflight",
        }


class TestFaultsInCorePaths:
    """The instrumented core paths actually consult the plan."""

    def test_base_kernel_site_fires_in_fastlsa(self, dna_scheme):
        from repro.core import AlignConfig, fastlsa
        from repro.workloads import dna_pair

        a, b = dna_pair(80, seed=2)
        plan = FaultPlan([FaultSpec(SITE_BASE_KERNEL)], seed=0)
        with faults.chaos(plan):
            with pytest.raises(InjectedFaultError):
                fastlsa(a, b, dna_scheme, config=AlignConfig(k=2, base_cells=256))
        assert plan.total_fired() == 1

    @pytest.mark.usefixtures("worker_strips")
    def test_tile_sites_fire_in_wavefront(self, dna_scheme):
        from repro.core import AlignConfig, fastlsa
        from repro.workloads import dna_pair

        a, b = dna_pair(120, seed=3)
        plan = FaultPlan([FaultSpec(SITE_TILE_START, max_fires=1)], seed=0)
        cfg = AlignConfig(k=4, base_cells=64, max_workers=2, backend="processes")
        with faults.chaos(plan):
            # The site fires inside a worker process (which holds its own
            # copy of the plan); the typed error crosses back with its site.
            with pytest.raises(InjectedFaultError) as info:
                fastlsa(a, b, dna_scheme, config=cfg)
        assert info.value.site == SITE_TILE_START

    @pytest.mark.usefixtures("worker_strips")
    def test_wavefront_correct_after_transient_tile_fault(self, dna_scheme):
        from repro.baselines import needleman_wunsch
        from repro.core import AlignConfig, fastlsa
        from repro.workloads import dna_pair

        a, b = dna_pair(120, seed=3)
        want = needleman_wunsch(a, b, dna_scheme).score
        plan = FaultPlan([FaultSpec(SITE_TILE_START, max_fires=1)], seed=0)
        cfg = AlignConfig(k=4, base_cells=64, max_workers=2, backend="processes")
        with faults.chaos(plan):
            with pytest.raises(InjectedFaultError):
                fastlsa(a, b, dna_scheme, config=cfg)
        # The retry on the same (warm) pool succeeds with the optimal
        # answer — no state leaked from the aborted run.  It runs outside
        # the chaos scope: each alignment ships workers a fresh copy of
        # the plan, so inside it the fault would fire again.
        result = fastlsa(a, b, dna_scheme, config=cfg)
        assert result.score == want

    def test_clean_run_after_plan_exhausted(self, dna_scheme):
        """Once max_fires is spent, the same plan lets work succeed."""
        from repro.baselines import needleman_wunsch
        from repro.core import AlignConfig, fastlsa
        from repro.workloads import dna_pair

        a, b = dna_pair(80, seed=4)
        want = needleman_wunsch(a, b, dna_scheme).score
        plan = FaultPlan([FaultSpec(SITE_BASE_KERNEL, max_fires=1)], seed=0)
        with faults.chaos(plan):
            with pytest.raises(InjectedFaultError):
                fastlsa(a, b, dna_scheme, config=AlignConfig(k=2, base_cells=256))
            result = fastlsa(a, b, dna_scheme, config=AlignConfig(k=2, base_cells=256))
        assert result.score == want
