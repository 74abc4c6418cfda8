"""Cooperative cancellation: deadlines enforced at tile boundaries.

A :class:`CancelToken` carries an optional absolute deadline (on the
:func:`time.monotonic` clock) and a manual cancel flag.  Long-running
compute paths call :func:`checkpoint` at natural tile boundaries — each
FastLSA sub-problem, each FillCache band, each wavefront tile — so a job
whose deadline passes mid-run stops within one tile instead of running to
completion (the service's deadline guarantee; see ``docs/ROBUSTNESS.md``).

Scoping uses a :class:`contextvars.ContextVar` only (no process-global):
concurrent jobs on different worker threads each see their own token,
because every thread owns a private context.  Code that fans work out to
*further* workers (the process backend's region dispatcher) captures the
token once at entry and checks it explicitly, the same pattern the obs
layer uses for its instrumentation handle.

Free when off: :func:`checkpoint` is one context-variable read.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

from ..errors import JobTimeoutError

__all__ = ["CancelToken", "cancel_scope", "checkpoint", "current"]


class CancelToken:
    """A deadline plus a manual cancel flag, checked cooperatively.

    Parameters
    ----------
    deadline:
        Absolute :func:`time.monotonic` timestamp after which
        :meth:`check` raises; ``None`` disables the deadline.
    """

    __slots__ = ("deadline", "_cancelled", "reason")

    def __init__(self, deadline: Optional[float] = None) -> None:
        self.deadline = deadline
        self._cancelled = False
        self.reason = ""

    @classmethod
    def after(cls, seconds: Optional[float]) -> "CancelToken":
        """A token expiring ``seconds`` from now (``None`` → no deadline)."""
        return cls(None if seconds is None else time.monotonic() + seconds)

    def cancel(self, reason: str = "") -> None:
        """Flip the manual cancel flag; the next checkpoint raises."""
        self._cancelled = True
        self.reason = reason

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancelled

    @property
    def expired(self) -> bool:
        """True once the deadline (if any) has passed."""
        return self.deadline is not None and time.monotonic() > self.deadline

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (never negative); ``None`` if unset."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())

    def check(self) -> None:
        """Raise :class:`~repro.errors.JobTimeoutError` if cancelled/expired."""
        if self._cancelled:
            raise JobTimeoutError(self.reason or "job cancelled")
        if self.deadline is not None:
            over = time.monotonic() - self.deadline
            if over > 0:
                raise JobTimeoutError(
                    f"deadline exceeded by {over:.3f}s (cooperative cancellation)"
                )


_scoped: ContextVar[Optional[CancelToken]] = ContextVar("repro_cancel", default=None)


def current() -> Optional[CancelToken]:
    """The token governing this context, or ``None`` (no deadline)."""
    return _scoped.get()


@contextmanager
def cancel_scope(token: Optional[CancelToken]):
    """Install ``token`` for a ``with`` block (``None`` is a no-op scope)."""
    cv_token = _scoped.set(token)
    try:
        yield token
    finally:
        _scoped.reset(cv_token)


def checkpoint() -> None:
    """Raise if the scoped token is cancelled or past its deadline.

    Called between tiles/bands/sub-problems; one context-variable read
    when no token is installed.
    """
    token = _scoped.get()
    if token is not None:
        token.check()
