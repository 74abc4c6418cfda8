"""``pair-long`` and ``pair-par``: global DNA alignment of ~8 kbp pairs.

Both align the same seeded pairs through ``repro.fastlsa``, one caller,
one pair at a time; ``pair-long`` on the serial backend, ``pair-par`` on
the process backend with two workers.  The traced run passes wrapped
``FastLSAHooks``: the core FillCache and base-case functions for
``pair-long``, and the hooks ``repro.parallel.backends.backend_hooks``
builds for ``pair-par``.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import inputs
from common import (
    HERE,
    PINNED_KERNEL,
    PINNED_TUNE,
    Outcome,
    RunContext,
    Tracer,
    layer_median,
    median,
    peak_rss_mb,
    setup_seconds,
)

import repro
from repro.core.fastlsa import FastLSAHooks
from repro.core.fillcache import fill_grid
from repro.kernels import registry
from repro.kernels.fullmatrix import compute_full
from repro.parallel.backends import backend_hooks

PAR_WORKERS = 2


def _summary(al):
    return (al.score, al.gapped_a, al.gapped_b)


def run(ctx: RunContext, out: Outcome) -> None:
    par = ctx.workload == "pair-par"
    backend = "processes" if par else "serial"
    layer = "parallel" if par else "core"
    pairs = inputs.dna_pairs(ctx.seed)
    scheme = repro.ScoringScheme(repro.dna_simple(), repro.linear_gap(-6))
    cfg = repro.AlignConfig(kernel=PINNED_KERNEL, tune=PINNED_TUNE, backend=backend,
                            max_workers=PAR_WORKERS if par else None)
    serial_cfg = repro.AlignConfig(kernel=PINNED_KERNEL, tune=PINNED_TUNE,
                                   backend="serial")

    setups = setup_seconds(ctx, [os.path.join(HERE, "probe.py"), ctx.workload,
                                 str(ctx.seed)])
    tracer = Tracer() if ctx.trace else None

    def align(p: int, traced: bool):
        a, b = pairs[p]
        if not traced:
            return repro.fastlsa(a, b, scheme, config=cfg)
        with tracer.span("align"):
            fill, base, finish = fill_grid, compute_full, None
            if par:
                inner, finish = backend_hooks(
                    cfg, scheme, scheme.encode(a), scheme.encode(b), len(a), len(b)
                )
                fill, base = inner.fill, inner.base_matrix or compute_full
            hooks = FastLSAHooks(fill=tracer.wrap(f"{layer}.fill", fill),
                                 base_matrix=tracer.wrap(f"{layer}.base", base))
            try:
                return repro.fastlsa(a, b, scheme, config=cfg, hooks=hooks)
            finally:
                if finish is not None:
                    finish()

    # Warm-up, untimed: the first call pays lazy imports and, on pair-par,
    # the worker-pool spawn.
    t0 = time.perf_counter()
    first = {0: align(0, False)}
    first_call_s = time.perf_counter() - t0

    # A traced run aligns each pair twice in a row, untraced then traced,
    # so both halves see every pair equally often.
    untraced, traced_s, steady0, records = [], [], [], []
    i = 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < ctx.seconds:
        p = (i // 2 if ctx.trace else i) % len(pairs)
        traced = ctx.trace and i % 2 == 1
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            al = align(p, traced)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            al = None
            out.fail(f"pair {p}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        (traced_s if traced else untraced).append(dt)
        if p == 0 and not traced:
            steady0.append(dt)
        if al is not None:
            first.setdefault(p, al)
            records.append((p, al.stats.kernel, _summary(al)))
        i += 1
    elapsed = time.perf_counter() - t_start
    out.attempted += i
    rss = peak_rss_mb()

    # Oracle, untimed: the score equals a score-only sweep and re-scoring
    # agrees; pair-par must also be bit-identical to the serial backend.
    pair_ok, sweep_rates, serial_s = {}, [], []
    for p, al in sorted(first.items()):
        a, b = pairs[p]
        with registry.use(PINNED_KERNEL):
            if registry.current_tier() != PINNED_KERNEL:
                raise RuntimeError("numpy scope did not take effect")
            t0 = time.perf_counter()
            ref = repro.align_score(a, b, scheme)
            sweep_rates.append(len(a) * len(b) / (time.perf_counter() - t0))
        ok, msg = repro.check_alignment(al, scheme)
        if al.score != ref:
            ok, msg = False, f"score {al.score} != align_score {ref}"
        if par:
            t0 = time.perf_counter()
            serial = repro.fastlsa(a, b, scheme, config=serial_cfg)
            serial_s.append(time.perf_counter() - t0)
            if ok and _summary(serial) != _summary(al):
                ok, msg = False, "differs from the serial backend"
        pair_ok[p] = ok
        if not ok:
            out.detail.setdefault("oracle_mismatch", []).append(f"pair {p}: {msg}")
    for p, kernel, summary in records:
        if kernel != PINNED_KERNEL:
            out.fail(f"pair {p}: ran on kernel {kernel!r}")
        elif not pair_ok[p] or summary != _summary(first[p]):
            out.fail(f"pair {p}: wrong alignment")

    out.detail.update(
        pairs=len(pairs), pair_length=inputs.PAIR_LENGTH, samples=len(untraced),
        warmup_ops=1, first_call_s=first_call_s, backend=backend,
    )
    if not ctx.trace:
        out.metric("setup_s", median(setups), "s")
        out.metric("peak_rss_mb", rss, "MB")
        out.metric("op_p50_s", median(untraced), "s")
        out.metric("ops_per_s", len(untraced) / elapsed, "1/s")
        out.detail["setup_samples_s"] = setups
        return

    selfs = tracer.self_times()
    per_pair = [first[p].stats for p in sorted(first)]
    cells = [len(pairs[p][0]) * len(pairs[p][1]) for p in sorted(first)]
    base_cases = [
        sum(1 for s in tracer.spans if s["request"] == req and s["name"] == f"{layer}.base")
        for req in selfs if req is not None
    ]
    out.metric(f"{layer}.fill_s", layer_median(selfs, f"{layer}.fill"), "s")
    out.metric(f"{layer}.base_s", layer_median(selfs, f"{layer}.base"), "s")
    out.metric("core.rest_s", layer_median(selfs, "align"), "s")
    out.metric("core.cells_ratio",
               median([s.cells_computed / c for s, c in zip(per_pair, cells)]), "ratio")
    out.metric("core.subproblems", median([s.subproblems for s in per_pair]), "count")
    out.metric("core.base_cases", median(base_cases), "count")
    out.metric("core.peak_cells", median([s.peak_cells_resident for s in per_pair]),
               "cells")
    out.metric("kernels.sweep_cells_per_s", median(sweep_rates), "cells/s")
    out.metric("trace.overhead_s", median(traced_s) - median(untraced), "s")
    if par:
        out.metric("parallel.speedup", median(serial_s) / median(untraced), "ratio")
        out.metric("parallel.spawn_s", first_call_s - median(steady0), "s")
    else:
        a, b = pairs[0]
        tracemalloc.start()
        try:
            repro.fastlsa(a, b, scheme, config=cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out.metric("core.alloc_peak_mb", peak / 2**20, "MB")
    out.detail["speedup_base"] = "serial backend, numpy tier, same pairs"
    tracer.dump(ctx.spans_path)
