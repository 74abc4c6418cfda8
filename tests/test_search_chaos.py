"""Chaos tests for the search fault sites.

Two properties, proved under injected faults:

* ``search.index.load`` — a corrupted index is a typed
  :class:`CorruptIndexError`, never a silently wrong corpus.
* ``search.candidate.score`` — transient candidate failures retry (or
  degrade, with ``allow_partial``) without ever corrupting the top-K:
  whatever hits come back are exactly the brute-force answer over the
  candidates that scored.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.align import Sequence
from repro.errors import CandidateFailedError, CorruptIndexError
from repro.faults import (
    SITE_CANDIDATE_SCORE,
    FaultPlan,
    FaultSpec,
    chaos,
    named_plan,
)
from repro.search import CorpusIndex, search
from repro.workloads import evolve

from tests.conftest import random_dna
from tests.test_search_engine import assert_hits_match, brute_force, make_corpus


@pytest.fixture
def corpus(rng):
    base = Sequence(random_dna(rng, 70), name="base")
    records = make_corpus(rng, base, n_homologs=5, n_decoys=12, n_randoms=5)
    query = evolve(base, sub_rate=0.08, indel_rate=0.02, rng=rng,
                   alphabet="ACGT", name="query")
    return records, CorpusIndex.build(records, "ACGT"), query


class TestIndexRot:
    def test_rotten_index_is_typed_error(self, corpus, tmp_path):
        _, index, _ = corpus
        path = tmp_path / "corpus.flsa"
        index.save(path)
        with chaos(named_plan("index-rot", seed=3)):
            with pytest.raises(CorruptIndexError, match="fingerprint"):
                CorpusIndex.load(path)

    def test_rot_does_not_poison_the_cache(self, corpus, tmp_path):
        """A failed load must not leave a cache entry behind."""
        from repro.search import load_index

        _, index, _ = corpus
        path = tmp_path / "corpus.flsa"
        index.save(path)
        cache = {}
        with chaos(named_plan("index-rot", seed=3)):
            with pytest.raises(CorruptIndexError):
                load_index(path, cache)
        assert cache == {}
        # and a fault-free load through the same cache succeeds
        assert load_index(path, cache).fingerprint() == index.fingerprint()


class TestFlakyScoring:
    @pytest.mark.parametrize("pool", [None, "threads"])
    def test_retries_preserve_exact_topk(self, corpus, pool):
        records, index, query = corpus
        # "threads": tier 2 on an injected thread pool, whose workers see
        # the parent's fault plan, so the pool path's retries are exercised.
        executor = ThreadPoolExecutor(max_workers=2) if pool else None
        try:
            with chaos(named_plan("flaky-search", seed=7)):
                res = search(query, index, _scheme(), top_k=5,
                             executor=executor, retries=6)
        finally:
            if executor is not None:
                executor.shutdown()
        assert res.complete and not res.stats.failed
        assert res.stats.retries > 0, "the plan should actually have fired"
        assert_hits_match(res.hits, brute_force(query, records, _scheme(), 5),
                          records)

    def test_strict_mode_raises_after_exhaustion(self, corpus):
        records, index, query = corpus
        plan = FaultPlan(
            [FaultSpec(SITE_CANDIDATE_SCORE, kind="raise", p=1.0, max_fires=None)],
            seed=1, name="always-fail",
        )
        with chaos(plan):
            with pytest.raises(CandidateFailedError) as exc:
                search(query, index, _scheme(), top_k=3, retries=2)
        assert 0 <= exc.value.candidate < len(records)
        assert exc.value.name == records[exc.value.candidate].name

    def test_non_transient_errors_are_not_retried(self, corpus):
        records, index, query = corpus
        plan = FaultPlan(
            [FaultSpec(SITE_CANDIDATE_SCORE, kind="raise", error="ValueError",
                       p=1.0, max_fires=1)],
            seed=1, name="hard-fail",
        )
        with chaos(plan):
            with pytest.raises(CandidateFailedError) as exc:
                search(query, index, _scheme(), top_k=3, retries=5)
        assert isinstance(exc.value.__cause__, ValueError)

    def test_allow_partial_degrades_exactly(self, corpus):
        """Failed candidates are reported, and the hits are the exact
        brute-force answer over everything that did score."""
        records, index, query = corpus
        plan = FaultPlan(
            [FaultSpec(SITE_CANDIDATE_SCORE, kind="raise", p=1.0, max_fires=3)],
            seed=5, name="three-fail",
        )
        with chaos(plan):
            res = search(query, index, _scheme(), top_k=5, retries=0,
                         allow_partial=True)
        assert not res.complete
        failed = {idx for idx, _name in res.stats.failed}
        assert len(failed) == 3
        for idx, name in res.stats.failed:
            assert records[idx].name == name
        survivors = [r if i not in failed else Sequence("", name=r.name)
                     for i, r in enumerate(records)]
        expected = [(i, loc) for i, loc in
                    brute_force(query, survivors, _scheme(), 5)]
        assert [(h.corpus_index, h.score) for h in res.hits] == [
            (i, loc.score) for i, loc in expected
        ]


def _scheme():
    from repro import ScoringScheme, dna_simple, linear_gap

    return ScoringScheme(dna_simple(), linear_gap(-6))
