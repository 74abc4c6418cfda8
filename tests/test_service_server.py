"""Tests for the NDJSON protocol layer and the end-to-end acceptance run."""

import asyncio
import json

import repro
from repro.service import AlignmentService, ProtocolHandler, serve_tcp

def run_requests(service_kwargs, requests, handler_kwargs=None, waves=1):
    """Drive request dicts through one in-process service.

    ``waves > 1`` splits the requests into sequential groups; within a
    group everything is concurrent (gathered), like bursts of traffic.
    """

    async def go():
        svc = AlignmentService(**service_kwargs)
        handler = ProtocolHandler(svc, **(handler_kwargs or {}))
        per_wave = max(1, (len(requests) + waves - 1) // waves)
        responses = []
        async with svc:
            for start in range(0, len(requests), per_wave):
                burst = requests[start:start + per_wave]
                responses += await asyncio.gather(
                    *(handler.handle(r) for r in burst)
                )
            return responses, svc

    return asyncio.run(go())


class TestProtocolHandler:
    def test_ping(self):
        responses, _ = run_requests({"memory_cells": 100_000}, [{"op": "ping", "id": 7}])
        assert responses[0] == {
            "id": 7, "ok": True, "version": repro.__version__, "result": "pong",
        }

    def test_align_roundtrip(self):
        req = {"op": "align", "id": 1, "a": "ACGTACGT", "b": "ACGTTCGT",
               "gap_open": -6}
        responses, _ = run_requests({"memory_cells": 100_000}, [req])
        resp = responses[0]
        assert resp["ok"] and resp["id"] == 1
        result = resp["result"]
        assert result["score"] == 31
        assert len(result["gapped_a"]) == len(result["gapped_b"])
        assert result["plan"]["k"] >= 2

    def test_named_sequences(self):
        req = {"op": "align", "id": 2,
               "a": {"text": "ACGT", "name": "query1"},
               "b": {"text": "ACGA", "name": "target9"}}
        responses, _ = run_requests({"memory_cells": 100_000}, [req])
        result = responses[0]["result"]
        assert result["a_name"] == "query1" and result["b_name"] == "target9"

    def test_score_only_omits_alignment(self):
        req = {"op": "align", "id": 3, "a": "ACGT", "b": "ACGA",
               "score_only": True}
        responses, _ = run_requests({"memory_cells": 100_000}, [req])
        assert "gapped_a" not in responses[0]["result"]

    def test_batch_op_sorted_hits(self):
        req = {"op": "batch", "id": 4, "a": "ACGTACGTAC",
               "targets": ["GGGG", "ACGTACGTAC", "ACGTTCGTAC"], "mode": "local"}
        responses, svc = run_requests(
            {"memory_cells": 400_000, "max_workers": 1, "max_batch": 8}, [req]
        )
        hits = responses[0]["result"]["hits"]
        scores = [h["score"] for h in hits]
        assert scores == sorted(scores, reverse=True)
        assert svc.stats()["batches"] >= 1  # coalesced into one batch_align

    def test_stats_op(self):
        responses, _ = run_requests({"memory_cells": 100_000},
                                    [{"op": "stats", "id": 5}])
        result = responses[0]["result"]
        assert "queue_depth" in result and "cache_hits" in result

    def test_unknown_op_is_protocol_error(self):
        responses, _ = run_requests({"memory_cells": 100_000},
                                    [{"op": "explode", "id": 6}])
        assert not responses[0]["ok"]
        assert responses[0]["error"]["type"] == "ProtocolError"

    def test_unknown_matrix_rejected(self):
        responses, _ = run_requests(
            {"memory_cells": 100_000},
            [{"op": "align", "id": 8, "a": "AC", "b": "AC", "matrix": "nope"}],
        )
        assert responses[0]["error"]["type"] == "ProtocolError"

    def test_bad_sequence_rejected(self):
        responses, _ = run_requests(
            {"memory_cells": 100_000},
            [{"op": "align", "id": 9, "a": 12, "b": "AC"}],
        )
        assert not responses[0]["ok"]

    def test_every_response_carries_version(self):
        requests = [{"op": "ping", "id": 1},
                    {"op": "stats", "id": 2},
                    {"op": "align", "id": 3, "a": "ACGT", "b": "ACGA"},
                    {"op": "explode", "id": 4}]
        responses, _ = run_requests({"memory_cells": 100_000}, requests)
        assert all(r["version"] == repro.__version__ for r in responses)

    def test_align_with_pinned_config(self):
        req = {"op": "align", "id": 11, "a": "ACGTACGT" * 8, "b": "ACGTTCGT" * 8,
               "gap_open": -6, "config": {"k": 4, "base_cells": 4096}}
        responses, _ = run_requests({"memory_cells": 100_000}, [req])
        resp = responses[0]
        assert resp["ok"]
        assert resp["result"]["plan"]["k"] == 4
        assert resp["result"]["plan"]["base_cells"] == 4096

    def test_batch_with_pinned_config(self):
        req = {"op": "batch", "id": 12, "a": "ACGTACGTAC",
               "targets": ["ACGTACGTAC", "ACGTTCGTAC"], "mode": "local",
               "config": {"k": 3, "base_cells": 2048}}
        responses, _ = run_requests({"memory_cells": 400_000}, [req])
        assert responses[0]["ok"]
        assert all(h["plan"]["k"] == 3 for h in responses[0]["result"]["hits"])

    def test_bad_config_is_protocol_error(self):
        bads = ({"kay": 4}, {"k": "four"}, {"k": 1}, "k=4", {"backend": "threads"})
        for bad in bads:
            responses, _ = run_requests(
                {"memory_cells": 100_000},
                [{"op": "align", "id": 13, "a": "AC", "b": "AC", "config": bad},
                 {"op": "align", "id": 14, "a": "AC", "b": "AC"}],
                waves=2,
            )
            resp = responses[0]
            assert not resp["ok"]
            assert resp["error"]["type"] == "ProtocolError"
            assert "config" in resp["error"]["message"]
            assert responses[1]["ok"]  # the server keeps serving

    def test_over_budget_pinned_config_rejected(self):
        # k=2, huge base_cells: the pinned config's peak exceeds the
        # governor's per-job share → typed backpressure, not silent replan.
        req = {"op": "align", "id": 14, "a": "A" * 400, "b": "C" * 400,
               "gap_open": -6, "config": {"k": 2, "base_cells": 200_000}}
        responses, _ = run_requests({"memory_cells": 50_000}, [req])
        resp = responses[0]
        assert not resp["ok"]
        assert resp["error"]["type"] == "MemoryBudgetError"
        assert resp["error"]["backpressure"] is True

    def test_blosum_and_affine_requests(self):
        req = {"op": "align", "id": 10, "a": "HEAGAWGHEE", "b": "PAWHEAE",
               "matrix": "blosum62", "gap_open": -11, "gap_extend": -1}
        responses, _ = run_requests({"memory_cells": 200_000}, [req])
        assert responses[0]["ok"]


class TestTcpServer:
    def test_tcp_roundtrip_and_shutdown(self):
        async def go():
            svc = AlignmentService(memory_cells=200_000, max_workers=2)
            ready = asyncio.Event()
            server = asyncio.ensure_future(serve_tcp(svc, port=0, ready=ready))
            await ready.wait()
            host, port = serve_tcp.bound[:2]
            reader, writer = await asyncio.open_connection(host, port)
            for req in (
                {"op": "align", "id": 1, "a": "ACGTACGT", "b": "ACGTTCGT",
                 "gap_open": -6},
                {"op": "align", "id": 2, "a": "ACGTACGT", "b": "ACGTTCGT",
                 "gap_open": -6},
                "this is not json",
            ):
                line = req if isinstance(req, str) else json.dumps(req)
                writer.write(line.encode() + b"\n")
            await writer.drain()
            got = [json.loads(await reader.readline()) for _ in range(3)]
            writer.write(b'{"op": "shutdown", "id": 99}\n')
            await writer.drain()
            bye = json.loads(await reader.readline())
            writer.close()
            await asyncio.wait_for(server, 10)
            return got, bye

        got, bye = asyncio.run(go())
        by_id = {g["id"]: g for g in got}
        assert by_id[1]["ok"] and by_id[2]["ok"]
        # The identical request never recomputes: served from the cache if
        # request 1 already finished, deduplicated onto its in-flight
        # computation otherwise.
        assert by_id[2]["result"]["cached"] or by_id[2]["result"]["deduped"]
        assert by_id[None]["error"]["type"] == "ProtocolError"
        assert bye == {"id": 99, "ok": True, "version": repro.__version__,
                       "result": "draining"}
        assert all(g["version"] == repro.__version__ for g in got)


class TestAcceptance:
    """The ISSUE's end-to-end bar: ≥100 mixed-mode requests, one process,
    fixed global budget, cache verified by counters, typed backpressure."""

    def test_hundred_mixed_requests_under_fixed_budget(self):
        modes = ["global", "local", "semiglobal", "overlap"]
        bases = ["ACGTACGTACGTACGT", "ACGAACGTTCGTACGA", "GGGGCCCCAAAATTTT",
                 "ACGTACGTAC", "TTTTACGTACGTAAAA"]
        requests = []
        for i in range(110):  # 5 queries x 4 modes x ... → guaranteed repeats
            requests.append({
                "op": "align", "id": i,
                "a": bases[i % 5], "b": bases[(i + 1) % 5],
                "mode": modes[i % 4],
                "score_only": (i % 7 == 0),
                "gap_open": -6,
            })
        # one deliberately over-budget submission
        requests.append({"op": "align", "id": 999,
                         "a": "A" * 3000, "b": "C" * 3000, "gap_open": -6})

        responses, svc = run_requests(
            {"memory_cells": 50_000, "max_workers": 4, "cache_size": 256,
             "max_batch": 8},
            requests,
            waves=3,  # bursts: later waves repeat earlier waves' work
        )

        by_id = {r["id"]: r for r in responses}
        ok = [r for r in responses if r["ok"]]
        assert len(ok) == 110  # every sane request served

        # Typed backpressure for the over-budget job.
        rejected = by_id[999]
        assert not rejected["ok"]
        assert rejected["error"]["type"] == "MemoryBudgetError"
        assert rejected["error"]["backpressure"] is True

        stats = svc.stats()
        # Recomputation was skipped, verified by counters: the 110
        # requests cover only 5x4x2 = 40 distinct (pair, mode,
        # score-only) keys — repeats across waves hit the LRU cache,
        # repeats within a wave piggyback on the in-flight primary.
        assert stats["cache_hits"] > 0
        assert stats["cache_short_circuits"] == stats["cache_hits"]
        assert stats["jobs_completed"] == 110
        distinct = len({(r["a"], r["b"], r["mode"], r.get("score_only", False))
                        for r in requests[:110]})
        recomputed = (stats["jobs_completed"] - stats["cache_hits"]
                      - stats["dedup_hits"])
        assert recomputed == distinct

        # No job ever planned above the governor's per-job allocation,
        # and the global budget was never exceeded.
        share = svc.governor.per_job_cells
        assert share == 50_000 // 4
        rows = svc.stats_rows()
        assert len(rows) == 110
        assert all(0 < row["reserved_cells"] <= share for row in rows)
        assert svc.governor.peak_cells_in_flight <= 50_000

        # Cached and deduplicated responses carry *distinct* flags
        # end-to-end: "cached" means served from the LRU, "deduped" means
        # piggybacked on an identical in-flight computation.
        cached = [r for r in ok if r["result"]["cached"]]
        deduped = [r for r in ok if r["result"]["deduped"]]
        assert not (set(map(id, cached)) & set(map(id, deduped)))
        assert len(cached) == stats["cache_hits"]
        assert len(deduped) == stats["dedup_hits"]


class TestSearchOp:
    """The NDJSON ``search`` op: index loading, exactness, streaming."""

    @staticmethod
    def _index_file(tmp_path):
        from repro.align import Sequence
        from repro.search import CorpusIndex

        records = [
            Sequence("ACGTACGTACGTACGT", name="self"),
            Sequence("ACGTACGAACGTACGA", name="near"),
            Sequence("TTTTGGGG", name="far"),
        ]
        path = tmp_path / "corpus.flsa"
        CorpusIndex.build(records, "ACGT").save(path)
        return str(path), records

    def test_search_roundtrip(self, tmp_path):
        path, records = self._index_file(tmp_path)
        req = {"op": "search", "id": 21, "a": "ACGTACGTACGTACGT",
               "index": path, "top_k": 2, "gap_open": -6}
        responses, svc = run_requests({"memory_cells": 200_000}, [req])
        resp = responses[0]
        assert resp["ok"] and resp["id"] == 21
        result = resp["result"]
        assert [h["name"] for h in result["hits"]] == ["self", "near"]
        assert result["hits"][0]["score"] == 5 * 16  # exact self-hit
        assert result["hits"][0]["a"] == "ACGTACGTACGTACGT"
        assert result["complete"] is True
        stats = result["stats"]
        assert stats["candidates"] == 3
        assert stats["pruned"] + stats["scored"] == 3
        assert svc.stats()["searches"] == 1
        assert svc.stats()["search_candidates"] == 3

    def test_search_repeats_hit_index_cache(self, tmp_path):
        path, _ = self._index_file(tmp_path)
        reqs = [{"op": "search", "id": i, "a": "ACGTACGT", "index": path,
                 "top_k": 1, "gap_open": -6} for i in range(3)]
        responses, svc = run_requests({"memory_cells": 200_000}, reqs, waves=3)
        assert all(r["ok"] for r in responses)
        assert svc.stats()["searches"] == 3

    def test_search_missing_index_key(self):
        responses, _ = run_requests(
            {"memory_cells": 100_000},
            [{"op": "search", "id": 1, "a": "ACGT"}],
        )
        assert not responses[0]["ok"]
        assert responses[0]["error"]["type"] == "ProtocolError"
        assert "index" in responses[0]["error"]["message"]

    def test_search_unreadable_index_path(self, tmp_path):
        responses, _ = run_requests(
            {"memory_cells": 100_000},
            [{"op": "search", "id": 1, "a": "ACGT",
              "index": str(tmp_path / "nope.flsa")}],
        )
        assert not responses[0]["ok"]
        assert responses[0]["error"]["type"] == "ProtocolError"

    def test_search_corrupt_index_is_typed(self, tmp_path):
        path, _ = self._index_file(tmp_path)
        blob = bytearray((tmp_path / "corpus.flsa").read_bytes())
        blob[-2] ^= 0xFF
        (tmp_path / "corpus.flsa").write_bytes(bytes(blob))
        responses, _ = run_requests(
            {"memory_cells": 100_000},
            [{"op": "search", "id": 1, "a": "ACGT", "index": path}],
        )
        assert not responses[0]["ok"]
        assert responses[0]["error"]["type"] == "CorruptIndexError"

    def test_search_streaming_partial_frames(self, tmp_path):
        path, _ = self._index_file(tmp_path)
        req = {"op": "search", "id": 33, "a": "ACGTACGTACGTACGT",
               "index": path, "top_k": 2, "stream": True, "gap_open": -6}

        async def go():
            svc = AlignmentService(memory_cells=200_000)
            handler = ProtocolHandler(svc)
            frames = []

            async def emit(frame):
                frames.append(frame)

            async with svc:
                final = await handler.handle(req, emit=emit)
            return frames, final

        frames, final = asyncio.run(go())
        assert frames, "top-K membership changed: expected partial frames"
        for frame in frames:
            assert frame["id"] == 33 and frame["ok"] and frame["partial"]
            for hit in frame["result"]["hits"]:
                assert "a" not in hit  # snapshots carry no alignments
        assert "partial" not in final
        assert [h["name"] for h in final["result"]["hits"]] == ["self", "near"]
        assert "a" in final["result"]["hits"][0]
