"""Shared executor lifecycle: one wavefront process pool, reused.

The process backend borrows its pool from here: the pool is created on
first use, replaced when a caller asks for a different worker count,
reused across alignments and service jobs, and shut down
deterministically — via :func:`shutdown_pools` (tests, service close)
or the ``atexit`` hook.

A broken process pool (a worker died — see
:class:`~repro.errors.WorkerCrashError`) is replaced on the next
:func:`get_process_pool` call, which is what makes worker crashes
retryable at the service layer.
"""

from __future__ import annotations

import atexit
import threading

__all__ = [
    "get_process_pool",
    "shutdown_pools",
    "active_shm_names",
]

_lock = threading.Lock()
_process_pool = None  # type: ignore[var-annotated]


def get_process_pool(n_workers: int):
    """The shared wavefront process pool with exactly ``n_workers`` workers.

    Replaces the pool when the size changes or a worker has died; the
    replacement is what retries after a :class:`WorkerCrashError` rely on.
    """
    global _process_pool
    from .procpool import ProcessPool  # deferred: multiprocessing import cost

    n_workers = max(1, int(n_workers))
    with _lock:
        pool = _process_pool
        if pool is not None and (pool.broken or pool.n_workers != n_workers):
            pool.close()
            pool = None
        if pool is None:
            pool = ProcessPool(n_workers)
            _process_pool = pool
        return pool


def shutdown_pools() -> None:
    """Tear down the shared pool (idempotent; used by tests and atexit)."""
    global _process_pool
    with _lock:
        if _process_pool is not None:
            _process_pool.close()
            _process_pool = None


def active_shm_names() -> "set[str]":
    """Shared-memory segments currently held by this process's arenas."""
    from .shm import active_arenas

    return active_arenas()


atexit.register(shutdown_pools)
