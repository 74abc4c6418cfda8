"""Shared-memory tile arena for the process-parallel wavefront backend.

The process backend's whole point is that nothing numpy-sized crosses the
process boundary on the hot path: workers receive tile *coordinates* over
a pipe and exchange tile *data* through one preallocated
:class:`multiprocessing.shared_memory.SharedMemory` segment — the
**arena** — that both sides map as numpy views.

One arena serves one alignment session.  Its fields (see
:func:`arena_spec`) are sized for the *top-level* problem, which bounds
every recursive FillCache region: any region has at most ``k·u`` row
tiles and ``k`` grid columns (the strip layout of
:mod:`repro.parallel.backends`), and its boundary rows/columns are
indexed by **global** DPM coordinates, so deeper (smaller) regions simply
use a prefix of the same buffers.  Every arena cell a region computes has
exactly one writing tile.

Layout per field is a 64-byte-aligned block; the spec (a plain dict of
``name → (shape, dtype)``) is what travels to workers at bind time, so
both sides derive identical offsets from it.

Leak discipline: every created segment is tracked in a module-level
registry (:func:`active_arenas`) until :meth:`SharedArena.destroy` — the
test suite's leak-check fixture asserts the registry drains.  Workers
attach by name and must *not* unlink; Python's ``resource_tracker`` would
otherwise double-unlink on interpreter exit, so attachment unregisters
the segment from the tracker (the owner is responsible for cleanup).
"""

from __future__ import annotations

import os
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Tuple

import numpy as np

__all__ = ["SharedArena", "arena_spec", "active_arenas"]

_ALIGN = 64

_registry_lock = threading.Lock()
_active: set = set()
_seq = 0


def active_arenas() -> "set[str]":
    """Names of arena segments created by this process and not yet destroyed."""
    with _registry_lock:
        return set(_active)


def _field_offsets(spec: Dict[str, Tuple[tuple, str]]) -> "tuple[dict, int]":
    offsets = {}
    off = 0
    for name in sorted(spec):
        shape, dtype = spec[name]
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        offsets[name] = off
        off += (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
    return offsets, max(off, _ALIGN)


def arena_spec(
    m: int,
    n: int,
    tile_rows: int,
    grid_cols: int,
    alphabet: int,
    affine: bool,
) -> Dict[str, Tuple[tuple, str]]:
    """Field spec for an ``m × n`` alignment whose FillCache regions are
    cut into at most ``tile_rows`` row tiles (``k·u``) and ``grid_cols``
    grid columns (``k``).

    ``seq_a`` / ``seq_b`` hold the uint8-encoded sequences (encoded once,
    reused by every sub-problem); ``profile`` the full-width
    :func:`~repro.kernels.linear.score_profile`; ``rows_h[r]`` the H
    boundary *below* row tile ``r − 1`` (``rows_h[0]`` is a region's
    incoming top cache), globally column-indexed; ``cols_h[q]`` the H
    values along grid column ``q`` (``cols_h[0]`` is the region's
    incoming left cache), globally row-indexed.  Affine schemes add F
    rows and E columns.
    """
    spec: Dict[str, Tuple[tuple, str]] = {
        "seq_a": ((max(m, 1),), "uint8"),
        "seq_b": ((max(n, 1),), "uint8"),
        "profile": ((max(alphabet, 1), max(n, 1)), "int64"),
        "rows_h": ((tile_rows + 1, n + 1), "int64"),
        "cols_h": ((grid_cols + 1, m + 1), "int64"),
    }
    if affine:
        spec["rows_f"] = ((tile_rows + 1, n + 1), "int64")
        spec["cols_e"] = ((grid_cols + 1, m + 1), "int64")
    return spec


class SharedArena:
    """A named shared-memory segment carved into numpy fields.

    Create in the owning (parent) process with :meth:`create`; workers
    :meth:`attach` by name with the same spec.  Field views are exposed
    via ``arena["rows_h"]`` etc.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        spec: Dict[str, Tuple[tuple, str]],
        owner: bool,
    ) -> None:
        self._shm = shm
        self.spec = dict(spec)
        self.owner = owner
        self.name = shm.name
        offsets, self.nbytes = _field_offsets(self.spec)
        self._views: Dict[str, np.ndarray] = {}
        for fname, (shape, dtype) in self.spec.items():
            count = int(np.prod(shape, dtype=np.int64))
            view = np.frombuffer(
                shm.buf, dtype=dtype, count=count, offset=offsets[fname]
            ).reshape(shape)
            self._views[fname] = view

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, spec: Dict[str, Tuple[tuple, str]]) -> "SharedArena":
        """Allocate a fresh zero-filled arena (owner side)."""
        global _seq
        _, nbytes = _field_offsets(spec)
        with _registry_lock:
            _seq += 1
            name = f"fastlsa_{os.getpid()}_{_seq}"
        shm = shared_memory.SharedMemory(create=True, size=nbytes, name=name)
        with _registry_lock:
            _active.add(name)
        return cls(shm, spec, owner=True)

    @classmethod
    def attach(cls, name: str, spec: Dict[str, Tuple[tuple, str]]) -> "SharedArena":
        """Map an existing arena by name (worker side; never unlinks)."""
        shm = shared_memory.SharedMemory(name=name)
        # Under "spawn" the worker runs its own resource tracker, which
        # would unlink the segment again at worker exit; unregister it —
        # only the owner may unlink.  Under "fork" the tracker fd is
        # inherited from the parent, so unregistering here would strip
        # the *owner's* registration (and trip a tracker KeyError when
        # the owner unlinks); leave it alone.  (Python 3.13 spells all
        # this ``track=False``.)
        import multiprocessing as _mp

        if _mp.get_start_method(allow_none=True) != "fork":
            try:
                resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
            except Exception:  # pragma: no cover - tracker internals shifted
                pass
        return cls(shm, spec, owner=False)

    # ------------------------------------------------------------------
    def __getitem__(self, field: str) -> np.ndarray:
        return self._views[field]

    def close(self) -> None:
        """Drop this process's mapping (both sides; idempotent).

        If numpy views escaped and are still alive (e.g. pinned by an
        exception traceback), the mmap cannot be closed yet; the mapping
        is kept and a later ``close()`` retries.
        """
        if self._shm is None:
            return
        self._views.clear()
        try:
            self._shm.close()
        except BufferError:  # exported views still alive somewhere
            return
        self._shm = None

    def destroy(self) -> None:
        """Unlink and close (owner side); removes the segment for good."""
        if self.owner and self._shm is not None:
            self.owner = False
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            finally:
                with _registry_lock:
                    _active.discard(self.name)
        self.close()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.destroy() if self.owner else self.close()
