"""Deterministic fault plans: what breaks, where, and when.

A :class:`FaultPlan` is a seeded list of :class:`FaultSpec` entries, each
bound to a named injection **site** (see :data:`SITES`).  Every time
instrumented code passes a site, the plan deterministically decides — from
the seed and the per-site hit counter alone, never from wall-clock state —
whether a fault fires there.  Three kinds of fault exist:

``raise``
    Raise an exception at the site.  By default a *transient*
    :class:`~repro.errors.InjectedFaultError` (the retry policy's bread
    and butter); ``error=`` selects another class by name, e.g.
    ``"MemoryBudgetError"`` to exercise degradation or
    ``"ConnectionResetError"`` to sever a socket.
``delay``
    Sleep ``delay`` seconds at the site (stragglers, slow cache backends,
    deadline pressure).
``corrupt``
    Hand the site's value to a site-supplied mutator and return the
    corrupted copy (bit rot in the result cache; detected downstream by
    the cache's fingerprint check).

Determinism is the point: two runs with the same plan, seed and workload
inject the same faults, so a chaos failure reproduces.  Hit counters are
lock-protected because sites fire from service and search pool threads.
"""

from __future__ import annotations

import builtins
import threading
import time
from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from .. import errors as _errors
from ..errors import ConfigError, InjectedFaultError
from ..obs import runtime as obs

__all__ = [
    "SITES",
    "SITE_TILE_START",
    "SITE_TILE_FINISH",
    "SITE_BASE_KERNEL",
    "SITE_CACHE_GET",
    "SITE_CACHE_PUT",
    "SITE_GOVERNOR_ADMIT",
    "SITE_SERVER_READ",
    "SITE_SERVER_WRITE",
    "SITE_INDEX_LOAD",
    "SITE_CANDIDATE_SCORE",
    "SITE_SHARD_DISPATCH",
    "SITE_SHARD_CRASH",
    "FaultSpec",
    "FaultPlan",
    "named_plan",
    "NAMED_PLANS",
]

#: Wavefront executor: a tile is about to run on a worker thread.
SITE_TILE_START = "wavefront.tile.start"
#: Wavefront executor: a tile's worker returned, results about to publish.
SITE_TILE_FINISH = "wavefront.tile.finish"
#: Dense base-case kernel entry (sequential and parallel drivers).
SITE_BASE_KERNEL = "kernel.base_case"
#: Result-cache lookup (backend outage → treated as a miss).
SITE_CACHE_GET = "service.cache.get"
#: Result-cache store (outage, or value corruption post-fingerprint).
SITE_CACHE_PUT = "service.cache.put"
#: Memory-governor admission decision.
SITE_GOVERNOR_ADMIT = "service.governor.admit"
#: Server socket/pipe read (connection drops mid-request).
SITE_SERVER_READ = "server.read"
#: Server socket/pipe write (connection drops mid-response).
SITE_SERVER_WRITE = "server.write"
#: Corpus-index load: header/payload read and the payload bytes themselves
#: (``corrupt`` faults rot the bytes; the fingerprint check must catch it).
SITE_INDEX_LOAD = "search.index.load"
#: Corpus-search candidate scoring (one hit per candidate sweep/alignment).
SITE_CANDIDATE_SCORE = "search.candidate.score"
#: Shard router: a request is about to be written to a shard's pipe
#: (``delay`` faults model slow pipes; ``raise`` a failed dispatch).
SITE_SHARD_DISPATCH = "shard.dispatch"
#: Shard process: request intake in a scheduler shard; a fired fault makes
#: the shard process exit hard (SIGKILL-shaped) mid-burst.
SITE_SHARD_CRASH = "shard.crash"

#: Every site the library instruments, in stack order.
SITES = (
    SITE_TILE_START,
    SITE_TILE_FINISH,
    SITE_BASE_KERNEL,
    SITE_CACHE_GET,
    SITE_CACHE_PUT,
    SITE_GOVERNOR_ADMIT,
    SITE_SERVER_READ,
    SITE_SERVER_WRITE,
    SITE_INDEX_LOAD,
    SITE_CANDIDATE_SCORE,
    SITE_SHARD_DISPATCH,
    SITE_SHARD_CRASH,
)

_KINDS = ("raise", "delay", "corrupt")


def _resolve_error(name: str) -> Callable[[str], BaseException]:
    """Map an exception-class name to a one-message-argument constructor."""
    cls = getattr(_errors, name, None) or getattr(builtins, name, None)
    if cls is None or not (isinstance(cls, type) and issubclass(cls, BaseException)):
        raise ConfigError(f"unknown fault error class {name!r}")
    return cls


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault rule bound to a site.

    Attributes
    ----------
    site:
        One of :data:`SITES`.
    kind:
        ``"raise"``, ``"delay"`` or ``"corrupt"``.
    p:
        Per-hit firing probability (decided by the plan's seeded RNG).
    after:
        Skip this many hits of the site before the rule becomes eligible.
    max_fires:
        Stop firing after this many injections (``None`` = unlimited).
    delay:
        Sleep duration in seconds (``delay`` kind only).
    error:
        Exception class name for ``raise`` faults; resolved against
        :mod:`repro.errors` then builtins.  Default: a transient
        :class:`~repro.errors.InjectedFaultError`.
    transient:
        Whether a default injected error should be treated as retryable.
    """

    site: str
    kind: str = "raise"
    p: float = 1.0
    after: int = 0
    max_fires: Optional[int] = 1
    delay: float = 0.0
    error: Optional[str] = None
    transient: bool = True

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigError(f"unknown fault site {self.site!r}; choose from {SITES}")
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}; choose from {_KINDS}")
        if not (0.0 <= self.p <= 1.0):
            raise ConfigError(f"fault probability must be in [0, 1], got {self.p}")
        if self.after < 0:
            raise ConfigError(f"after must be >= 0, got {self.after}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigError(f"max_fires must be >= 1 or None, got {self.max_fires}")
        if self.delay < 0:
            raise ConfigError(f"delay must be >= 0, got {self.delay}")
        if self.error is not None:
            _resolve_error(self.error)  # fail loudly at plan construction

    def build_error(self) -> BaseException:
        """The exception this spec raises when it fires."""
        if self.error is None:
            return InjectedFaultError(self.site, transient=self.transient)
        return _resolve_error(self.error)(f"injected fault at {self.site}")


class FaultPlan:
    """A seeded, deterministic collection of fault specs.

    The plan keeps one :class:`random.Random` and one hit/fire counter per
    spec, all derived from ``seed`` — replaying the same workload under
    the same plan injects the same faults at the same hits.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0, name: str = "") -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.seed = int(seed)
        self.name = name
        self._lock = threading.Lock()
        self._rngs = [Random((self.seed * 1_000_003) ^ (i + 1)) for i in range(len(self.specs))]
        self._hits: Dict[str, int] = {}
        self._spec_fires = [0] * len(self.specs)
        self._site_fires: Dict[str, int] = {}

    # -- decision ------------------------------------------------------
    def _fire(self, site: str, kinds: Sequence[str]) -> Optional[FaultSpec]:
        """Deterministically pick the spec (if any) firing at this hit."""
        with self._lock:
            hit = self._hits.get(site, 0)
            self._hits[site] = hit + 1
            for i, spec in enumerate(self.specs):
                if spec.site != site or spec.kind not in kinds:
                    continue
                if hit < spec.after:
                    continue
                if spec.max_fires is not None and self._spec_fires[i] >= spec.max_fires:
                    continue
                if spec.p < 1.0 and self._rngs[i].random() >= spec.p:
                    continue
                self._spec_fires[i] += 1
                self._site_fires[site] = self._site_fires.get(site, 0) + 1
                return spec
            return None

    def perturb(self, site: str) -> None:
        """Raise or delay at ``site`` if a spec fires there; else no-op."""
        spec = self._fire(site, ("raise", "delay"))
        if spec is None:
            return
        obs.counter_add(f"faults.fired.{site}")
        if spec.kind == "delay":
            time.sleep(spec.delay)
            return
        raise spec.build_error()

    def corrupt_value(self, site: str, value, mutator: Callable):
        """Return ``mutator(value)`` if a corrupt spec fires, else ``value``."""
        spec = self._fire(site, ("corrupt",))
        if spec is None:
            return value
        obs.counter_add(f"faults.fired.{site}")
        return mutator(value)

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-site hit and fire counts (for the chaos CLI report)."""
        with self._lock:
            return {
                site: {"hits": hits, "fired": self._site_fires.get(site, 0)}
                for site, hits in sorted(self._hits.items())
            }

    def total_fired(self) -> int:
        """Faults injected so far, across every site."""
        with self._lock:
            return sum(self._site_fires.values())

    def reset(self) -> None:
        """Restart counters and RNG streams (same seed → same decisions)."""
        with self._lock:
            self._rngs = [
                Random((self.seed * 1_000_003) ^ (i + 1)) for i in range(len(self.specs))
            ]
            self._hits.clear()
            self._site_fires.clear()
            self._spec_fires = [0] * len(self.specs)

    # -- (de)serialisation ---------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping, seed: Optional[int] = None) -> "FaultPlan":
        """Build a plan from ``{"seed": ..., "faults": [{...}, ...]}``."""
        if not isinstance(data, Mapping):
            raise ConfigError(f"fault plan must be an object/dict, got {data!r}")
        raw_specs = data.get("faults")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise ConfigError("fault plan needs a non-empty 'faults' list")
        specs = []
        for raw in raw_specs:
            if not isinstance(raw, Mapping):
                raise ConfigError(f"each fault must be an object, got {raw!r}")
            unknown = sorted(set(raw) - set(FaultSpec.__dataclass_fields__))
            if unknown:
                raise ConfigError(f"unknown fault keys {unknown}")
            specs.append(FaultSpec(**dict(raw)))
        plan_seed = seed if seed is not None else int(data.get("seed", 0))
        return cls(specs, seed=plan_seed, name=str(data.get("name", "")))

    def to_dict(self) -> Dict:
        """The :meth:`from_dict`-round-trippable representation."""
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [
                {
                    "site": s.site, "kind": s.kind, "p": s.p, "after": s.after,
                    "max_fires": s.max_fires, "delay": s.delay, "error": s.error,
                    "transient": s.transient,
                }
                for s in self.specs
            ],
        }


# ----------------------------------------------------------------------
# named plans (the chaos CLI's menu)
# ----------------------------------------------------------------------
def _flaky_tiles(seed: int) -> FaultPlan:
    return FaultPlan(
        [
            FaultSpec(SITE_TILE_START, kind="raise", p=0.05, max_fires=3),
            FaultSpec(SITE_BASE_KERNEL, kind="raise", p=0.1, max_fires=3),
        ],
        seed=seed, name="flaky-tiles",
    )


def _straggler(seed: int) -> FaultPlan:
    return FaultPlan(
        [
            FaultSpec(SITE_TILE_FINISH, kind="delay", delay=0.01, p=0.2, max_fires=None),
            FaultSpec(SITE_BASE_KERNEL, kind="delay", delay=0.02, p=0.2, max_fires=None),
        ],
        seed=seed, name="straggler",
    )


def _cache_outage(seed: int) -> FaultPlan:
    return FaultPlan(
        [
            FaultSpec(SITE_CACHE_GET, kind="raise", p=0.5, max_fires=None),
            FaultSpec(SITE_CACHE_PUT, kind="raise", p=0.5, max_fires=None),
        ],
        seed=seed, name="cache-outage",
    )


def _bitrot(seed: int) -> FaultPlan:
    return FaultPlan(
        [FaultSpec(SITE_CACHE_PUT, kind="corrupt", p=0.5, max_fires=None)],
        seed=seed, name="bitrot",
    )


def _memory_pressure(seed: int) -> FaultPlan:
    return FaultPlan(
        [FaultSpec(SITE_GOVERNOR_ADMIT, kind="raise", error="MemoryBudgetError",
                   p=0.3, max_fires=None)],
        seed=seed, name="memory-pressure",
    )


def _flaky_network(seed: int) -> FaultPlan:
    return FaultPlan(
        [
            FaultSpec(SITE_SERVER_WRITE, kind="raise", error="ConnectionResetError",
                      p=0.1, max_fires=2),
            FaultSpec(SITE_SERVER_READ, kind="raise", error="ConnectionResetError",
                      p=0.05, max_fires=2),
        ],
        seed=seed, name="flaky-network",
    )


def _flaky_search(seed: int) -> FaultPlan:
    return FaultPlan(
        [
            FaultSpec(SITE_CANDIDATE_SCORE, kind="raise", p=0.15, max_fires=None),
            FaultSpec(SITE_CANDIDATE_SCORE, kind="delay", delay=0.002, p=0.1,
                      max_fires=None),
        ],
        seed=seed, name="flaky-search",
    )


def _index_rot(seed: int) -> FaultPlan:
    """Rot the corpus-index payload on load; the fingerprint must catch it."""
    return FaultPlan(
        [FaultSpec(SITE_INDEX_LOAD, kind="corrupt", p=1.0, max_fires=None)],
        seed=seed, name="index-rot",
    )


def _shard_kill(seed: int) -> FaultPlan:
    """Kill one scheduler shard mid-burst, with slow dispatch pipes.

    The crash spec fires once, after the shard has already served a couple
    of requests — the router must detect the death, reroute the pending
    requests to the survivors, and still return bit-identical results.
    """
    return FaultPlan(
        [
            FaultSpec(SITE_SHARD_DISPATCH, kind="delay", delay=0.002, p=0.2,
                      max_fires=None),
            FaultSpec(SITE_SHARD_CRASH, kind="raise", after=2, max_fires=1),
        ],
        seed=seed, name="shard-kill",
    )


def _everything(seed: int) -> FaultPlan:
    """A little of everything: one plan covering every site."""
    return FaultPlan(
        [
            FaultSpec(SITE_TILE_START, kind="raise", p=0.05, max_fires=2),
            FaultSpec(SITE_TILE_FINISH, kind="delay", delay=0.005, p=0.1, max_fires=5),
            FaultSpec(SITE_BASE_KERNEL, kind="raise", p=0.05, max_fires=2),
            FaultSpec(SITE_CACHE_GET, kind="raise", p=0.2, max_fires=5),
            FaultSpec(SITE_CACHE_PUT, kind="corrupt", p=0.3, max_fires=5),
            FaultSpec(SITE_GOVERNOR_ADMIT, kind="raise", error="MemoryBudgetError",
                      p=0.1, max_fires=3),
            FaultSpec(SITE_SERVER_WRITE, kind="raise", error="ConnectionResetError",
                      p=0.05, max_fires=1),
            FaultSpec(SITE_CANDIDATE_SCORE, kind="raise", p=0.05, max_fires=3),
        ],
        seed=seed, name="everything",
    )


#: Plan name → factory(seed); the ``fastlsa chaos --plan`` menu.
NAMED_PLANS: Dict[str, Callable[[int], FaultPlan]] = {
    "flaky-tiles": _flaky_tiles,
    "straggler": _straggler,
    "cache-outage": _cache_outage,
    "bitrot": _bitrot,
    "memory-pressure": _memory_pressure,
    "flaky-network": _flaky_network,
    "flaky-search": _flaky_search,
    "index-rot": _index_rot,
    "shard-kill": _shard_kill,
    "everything": _everything,
}


def named_plan(name: str, seed: int = 0) -> FaultPlan:
    """Instantiate one of :data:`NAMED_PLANS` with a seed."""
    try:
        factory = NAMED_PLANS[name]
    except KeyError:
        raise ConfigError(
            f"unknown fault plan {name!r}; choose from {sorted(NAMED_PLANS)}"
        ) from None
    return factory(seed)
