"""``search``: exact top-10 local search of a seeded protein corpus.

The corpus is written as FASTA, indexed, saved and loaded back through
``repro.CorpusIndex``; queries go through ``repro.search`` on the serial
backend.  The traced run times the three tiers from outside: it rebinds
``candidate_bounds`` and ``fastlsa_local`` in ``repro.search.engine``,
and ``get_batch_kernel`` in ``repro.kernels.registry`` so the engine
receives a wrapped batch provider, for the duration of each traced query.
"""

from __future__ import annotations

import contextlib
import os
import time

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
    patched,
    peak_rss_mb,
    setup_seconds,
)

import repro
from repro.align.validate import score_gapped
from repro.kernels import registry
from repro.search import engine

TOP_K = 10


class _TracedBatchProvider:
    """A batch provider whose sweeps record a span and the cells offered."""

    def __init__(self, inner, tracer: Tracer, cells: list) -> None:
        self._inner = inner
        self._tracer = tracer
        self._cells = cells

    def __getattr__(self, name):
        fn = getattr(self._inner, name)
        if not callable(fn):
            return fn

        def traced(q_codes, pack, lens, *args, **kwargs):
            with self._tracer.span("search.tier2") as rec:
                result = fn(q_codes, pack, lens, *args, **kwargs)
            self._cells.append((len(q_codes) * int(lens.sum()),
                                rec["end"] - rec["start"]))
            return result
        return traced


def _compact(res):
    """What the oracle needs from a result, without the alignment objects
    (keeping those would make peak RSS grow with the number of passes)."""
    hits = tuple(
        (h.corpus_index, h.score, h.local.a_start, h.local.a_end, h.local.b_start,
         h.local.b_end, h.local.alignment.gapped_a, h.local.alignment.gapped_b,
         h.local.alignment.stats.kernel)
        for h in res.hits
    )
    return hits, res.stats


def run(ctx: RunContext, out: Outcome) -> None:
    records, queries = inputs.protein_corpus(ctx.seed)
    scheme = repro.ScoringScheme(repro.blosum62(), repro.affine_gap(-11, -1))
    cfg = repro.AlignConfig(kernel=PINNED_KERNEL, tune=PINNED_TUNE, backend="serial")
    corpus = os.path.join(ctx.workdir, "corpus.fasta")
    path = os.path.join(ctx.workdir, "corpus.flsa")
    inputs.write_fasta(records, corpus)

    setups = setup_seconds(ctx, [os.path.join(HERE, "probe.py"), "search",
                                 str(ctx.seed), corpus, path])
    repro.CorpusIndex.from_fasta(corpus, scheme.alphabet).save(path)
    t0 = time.perf_counter()
    index = repro.CorpusIndex.load(path)
    index_load_s = time.perf_counter() - t0

    tracer = Tracer() if ctx.trace else None
    batch_cells: list = []
    get_batch_kernel = registry.get_batch_kernel

    def query(q: str, traced: bool):
        if not traced:
            return repro.search(q, index, scheme, top_k=TOP_K, config=cfg)
        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(
                engine, "candidate_bounds",
                tracer.wrap("search.bounds", engine.candidate_bounds)))
            stack.enter_context(patched(
                engine, "fastlsa_local",
                tracer.wrap("search.tier3", engine.fastlsa_local)))
            stack.enter_context(patched(
                registry, "get_batch_kernel",
                lambda tier="auto": _TracedBatchProvider(
                    get_batch_kernel(tier), tracer, batch_cells)))
            with tracer.span("search.query"):
                return repro.search(q, index, scheme, top_k=TOP_K, config=cfg)

    # Warm-up, untimed: one query.
    query(queries[0], False)

    # Whole passes over the fixed query set, so the set total is what
    # queries_per_s divides by.  A traced run sends each query twice in a
    # row, untraced then traced.
    schedule = [(qi, traced) for qi in range(len(queries))
                for traced in ((False, True) if ctx.trace else (False,))]
    untraced, traced_s, results = [], [], []
    n_pass = 0
    t_start = time.perf_counter()
    while n_pass == 0 or time.perf_counter() - t_start < ctx.seconds:
        for qi, traced in schedule:
            q = queries[qi]
            if tracer is not None:
                tracer.request = len(results)
            t0 = time.perf_counter()
            try:
                res = query(q, traced)
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                res = None
                out.fail(f"query {qi}: {type(exc).__name__}: {exc}")
            (traced_s if traced else untraced).append(time.perf_counter() - t0)
            results.append((qi, None if res is None else _compact(res)))
        n_pass += 1
    elapsed = time.perf_counter() - t_start
    out.attempted += len(results)
    rss = peak_rss_mb()

    # Oracle, untimed.  Every returned alignment is re-scored and must
    # spell the aligned ranges; every repeat of a query returns the same
    # hits; one query per run, rotating with the seed, is checked against
    # brute-force Smith-Waterman over the whole corpus.
    checked = ctx.seed % len(queries)
    q = queries[checked]
    brute = sorted(
        ((repro.smith_waterman(q, index.sequence(i), scheme).score, i)
         for i in range(len(index))),
        key=lambda si: (-si[0], si[1]),
    )
    expect = [(i, s) for s, i in brute[:TOP_K] if s >= 1]
    reference = {}
    for qi, res in results:
        if res is None:
            continue
        hits = res[0]
        why = _check(hits, queries[qi], index, scheme)
        if why is None and reference.setdefault(qi, hits) != hits:
            why = "hits differ from an earlier pass"
        if why is None and qi == checked and [h[:2] for h in hits] != expect:
            why = "top-K differs from brute-force Smith-Waterman"
        if why is not None:
            out.fail(f"query {qi}: {why}")

    stats = [res[1] for _qi, res in results if res is not None]
    out.detail.update(
        corpus=len(index), queries=len(queries), passes=n_pass,
        samples=len(untraced), warmup_ops=1, brute_force_query=checked,
    )
    if not ctx.trace:
        out.metric("setup_s", median(setups), "s")
        out.metric("peak_rss_mb", rss, "MB")
        out.metric("op_p50_s", median(untraced), "s")
        out.metric("ops_per_s", len(untraced) / elapsed, "1/s")
        out.detail["setup_samples_s"] = setups
        return

    selfs = tracer.self_times()
    cells = sum(c for c, _t in batch_cells)
    seconds = sum(t for _c, t in batch_cells)
    out.metric("search.bounds_s", layer_median(selfs, "search.bounds"), "s")
    out.metric("search.tier2_s", layer_median(selfs, "search.tier2"), "s")
    out.metric("search.tier3_s", layer_median(selfs, "search.tier3"), "s")
    out.metric("search.rest_s", layer_median(selfs, "search.query"), "s")
    out.metric("search.prune_rate",
               sum(s.pruned for s in stats) / sum(s.candidates for s in stats), "ratio")
    out.metric("search.scored", median([s.scored for s in stats]), "count")
    out.metric("search.index_load_s", index_load_s, "s")
    out.metric("kernels.batch_cells_per_s", cells / seconds if seconds else 0.0,
               "cells/s")
    out.metric("trace.overhead_s", median(traced_s) - median(untraced), "s")
    tracer.dump(ctx.spans_path)


def _check(hits, query: str, index, scheme):
    """``None`` when every hit is consistent, else what is wrong."""
    if len(hits) != min(TOP_K, len(index)):
        return f"{len(hits)} hits"
    for idx, score, a0, a1, b0, b1, gapped_a, gapped_b, kernel in hits:
        if kernel != PINNED_KERNEL:
            return f"hit {idx} ran on kernel {kernel!r}"
        if gapped_a.replace("-", "") != query[a0:a1]:
            return f"hit {idx}: gapped query misspells its range"
        if gapped_b.replace("-", "") != index.sequence(idx).text[b0:b1]:
            return f"hit {idx}: gapped target misspells its range"
        if score_gapped(gapped_a, gapped_b, scheme) != score:
            return f"hit {idx}: re-scored alignment disagrees"
    return None
