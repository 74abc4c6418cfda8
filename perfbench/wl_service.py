"""``service``: a closed loop against ``fastlsa serve --shards 2`` over stdio.

One client process keeps exactly ``OUTSTANDING`` align requests in
flight: each response releases the next request.  A closed loop fixes
no offered rate, so throughput and latency are both measured, not set.
Latency is timed from writing a request to reading its response.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

import inputs
from common import (
    PINNED_KERNEL,
    PINNED_TUNE,
    PROBE_TIMEOUT_S,
    ROOT,
    Outcome,
    RunContext,
    Tracer,
    median,
    peak_rss_mb,
    setup_seconds,
    tail,
)

import repro
from repro.align.validate import score_gapped

OUTSTANDING = 2
SHARDS = 2
WARMUP_JOBS = 16
#: Share of completed jobs whose score the client recomputes itself.
RECOMPUTE_SHARE = 0.03
SERVER_ARGV = ["-m", "repro.cli", "-q", "serve", "--shards", str(SHARDS),
               "--tune", PINNED_TUNE]
CONFIG = {"kernel": PINNED_KERNEL, "tune": PINNED_TUNE, "backend": "serial"}
MATRIX, GAP_OPEN, GAP_EXTEND = "blosum62", -11, -1


class Server:
    """The ``fastlsa serve`` child process and its NDJSON pipes."""

    def __init__(self, ctx: RunContext) -> None:
        self.proc = subprocess.Popen(
            [sys.executable] + SERVER_ARGV, cwd=ROOT, env=ctx.child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, bufsize=1,
        )

    def send(self, req: dict) -> None:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()

    def recv(self) -> dict:
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited with {self.proc.poll()}")
            if line.startswith("{"):
                resp = json.loads(line)
                if not resp.get("partial"):
                    return resp

    def call(self, req: dict) -> dict:
        self.send(req)
        while True:
            resp = self.recv()
            if resp.get("id") == req["id"]:
                return resp

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.send({"op": "shutdown", "id": "shutdown"})
                self.proc.stdin.close()
                self.proc.wait(timeout=PROBE_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def _ping_ready(proc, t0) -> float:
    """Set-up probe: time to the first ``pong``, then shut the server down."""
    proc.stdin.write(json.dumps({"op": "ping", "id": 0}) + "\n")
    proc.stdin.flush()
    while True:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited before answering ping")
        if line.startswith("{") and json.loads(line).get("result") == "pong":
            elapsed = time.perf_counter() - t0
            proc.stdin.write(json.dumps({"op": "shutdown", "id": 1}) + "\n")
            proc.stdin.flush()
            return elapsed


def _request(rid, job) -> dict:
    return {"op": "align", "id": rid, "a": job["a"], "b": job["b"],
            "mode": job["mode"], "matrix": MATRIX, "gap_open": GAP_OPEN,
            "gap_extend": GAP_EXTEND, "config": CONFIG}


def run(ctx: RunContext, out: Outcome) -> None:
    setups = setup_seconds(ctx, SERVER_ARGV, ready=_ping_ready)
    scheme = repro.ScoringScheme(repro.blosum62(), repro.affine_gap(GAP_OPEN, GAP_EXTEND))
    jobs = inputs.ServiceJobs(ctx.seed)
    warm = inputs.ServiceJobs(ctx.seed, stream="warmup")
    tracer = Tracer() if ctx.trace else None

    server = Server(ctx)
    try:
        if server.call({"op": "ping", "id": "ping"}).get("result") != "pong":
            raise RuntimeError("server did not answer ping")
        # Warm-up, untimed: shard imports, scheme memo, first kernels.
        for w in range(WARMUP_JOBS):
            server.call(_request(f"w{w}", warm[w]))

        sent, latency, responses = {}, {}, {}
        next_job = 0

        def submit() -> None:
            nonlocal next_job
            i = next_job
            next_job += 1
            sent[i] = time.perf_counter()
            server.send(_request(i, jobs[i]))

        t_start = time.perf_counter()
        for _ in range(OUTSTANDING):
            submit()
        while len(responses) < next_job:
            resp = server.recv()
            t = time.perf_counter()
            i = resp.get("id")
            if i not in sent or i in responses:
                raise RuntimeError(f"unexpected response id {i!r}")
            latency[i] = t - sent[i]
            responses[i] = resp
            if tracer is not None and i % 2 == 1:
                tracer.record("service.request", sent[i], t, i)
            if t - t_start < ctx.seconds:
                submit()
        elapsed = time.perf_counter() - t_start
        rss = peak_rss_mb()
        stats = server.call({"op": "stats", "id": "stats"}).get("result", {})
    finally:
        server.close()
    out.attempted += len(responses)

    # Oracle, untimed.  Every returned alignment is re-scored and must
    # spell its sequences; repeats return their original's score; a
    # seeded sample of scores is recomputed in the client.
    rng = random.Random(f"{ctx.seed}:recompute")
    first_score = {}
    for i in sorted(responses):
        why = _check(responses[i], jobs[i], scheme)
        if why is None:
            key = jobs[i].get("repeat_of", i)
            score = responses[i]["result"]["score"]
            if first_score.setdefault(key, score) != score:
                why = "repeat returned a different score"
            elif rng.random() < RECOMPUTE_SHARE and score != _recompute(jobs[i], scheme):
                why = "score differs from the client's recomputation"
        if why is not None:
            out.fail(f"job {i}: {why}")

    ok = [responses[i]["result"] for i in sorted(responses) if responses[i].get("ok")]
    untraced = [latency[i] for i in latency if tracer is None or i % 2 == 0]
    out.detail.update(jobs=len(responses), warmup_ops=WARMUP_JOBS,
                      outstanding=OUTSTANDING, shards=SHARDS,
                      repeat_share=1 / inputs.REPEAT_EVERY)
    if not ctx.trace:
        out.metric("setup_s", median(setups), "s")
        out.metric("peak_rss_mb", rss, "MB")
        out.metric("op_p50_s", median(untraced), "s")
        out.metric("ops_per_s", len(ok) / elapsed, "1/s")
        out.detail["setup_samples_s"] = setups
        out.detail["latency_tail"] = tail(untraced)
        return

    traced = [latency[i] for i in latency if i % 2 == 1]
    qwait = [r["queue_wait"] for r in ok]
    run_t = [r["run_time"] for r in ok]
    transport = [latency[i] - r["result"]["queue_wait"] - r["result"]["run_time"]
                 for i, r in responses.items() if r.get("ok")]
    router = stats.get("router", {})
    tail_all = tail(list(latency.values()))
    out.metric("service.queue_wait_s", median(qwait), "s")
    out.metric("service.run_s", median(run_t), "s")
    out.metric("service.transport_s", median(transport), "s")
    out.metric("service.cache_hit_rate",
               sum(1 for r in ok if r["cached"] or r["deduped"]) / len(ok), "ratio")
    out.metric("service.batch_size_mean", sum(r["batch_size"] for r in ok) / len(ok),
               "count")
    out.metric("service.latency_tail_s", tail_all["value"] if tail_all else 0.0, "s")
    out.metric("router.reroutes", router.get("reroutes", 0), "count")
    out.metric("router.shard_deaths", router.get("shard_deaths", 0), "count")
    out.metric("trace.overhead_s", median(traced) - median(untraced), "s")
    out.detail["latency_tail"] = tail_all
    tracer.dump(ctx.spans_path)


def _check(resp: dict, job: dict, scheme):
    if not resp.get("ok"):
        err = resp.get("error", {})
        return f"{err.get('type')}: {err.get('message')}"
    r = resp["result"]
    if r.get("kernel") != PINNED_KERNEL:
        return f"ran on kernel {r.get('kernel')!r}"
    a0, a1 = r["a_range"]
    b0, b1 = r["b_range"]
    if job["mode"] == "global" and (a0, a1, b0, b1) != (0, len(job["a"]), 0, len(job["b"])):
        return "global alignment does not span both sequences"
    if r["gapped_a"].replace("-", "") != job["a"][a0:a1]:
        return "gapped a misspells its range"
    if r["gapped_b"].replace("-", "") != job["b"][b0:b1]:
        return "gapped b misspells its range"
    if score_gapped(r["gapped_a"], r["gapped_b"], scheme) != r["score"]:
        return "re-scored alignment disagrees"
    return None


def _recompute(job: dict, scheme) -> int:
    if job["mode"] == "global":
        return repro.align_score(job["a"], job["b"], scheme)
    return repro.smith_waterman(job["a"], job["b"], scheme).score
