"""The benchmark's own checks: ``python3 -m pytest perfbench -q``.

They close the noise sources by construction: no number under two
names, no metric that the workload definition fixes, a tail only where
at least 10 samples lie beyond it, a warm-up before timing, and inputs
that come only from the seed.  The smoke runs take a few minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import common  # noqa: E402
import inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"] for m in SPEC["end_to_end"]}
LAYER = {m["name"] for m in SPEC["per_layer"]}

#: Per-layer metrics each workload must measure (non-zero) when traced.
LOADED = {
    "pair-long": {"core.fill_s", "core.base_s", "core.rest_s", "core.cells_ratio",
                  "core.subproblems", "core.base_cases", "core.peak_cells",
                  "core.alloc_peak_mb", "kernels.sweep_cells_per_s"},
    "pair-par": {"parallel.fill_s", "parallel.base_s", "parallel.speedup",
                 "core.rest_s", "core.cells_ratio", "kernels.sweep_cells_per_s"},
    "search": {"search.bounds_s", "search.tier2_s", "search.tier3_s",
               "search.rest_s", "search.prune_rate", "search.scored",
               "search.index_load_s", "kernels.batch_cells_per_s"},
    "service": {"service.queue_wait_s", "service.run_s", "service.transport_s",
                "service.latency_tail_s", "service.cache_hit_rate",
                "service.batch_size_mean"},
}


def _run(workload, seed, trace, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


# ----------------------------------------------------------------------
# static checks
# ----------------------------------------------------------------------
def test_spec_names_units_and_bounds():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert SPEC["paths"] == ["perfbench"]


def test_inputs_depend_only_on_the_seed():
    assert inputs.dna_pairs(3) == inputs.dna_pairs(3)
    assert inputs.dna_pairs(3) != inputs.dna_pairs(4)
    assert inputs.protein_corpus(3) == inputs.protein_corpus(3)
    assert inputs.protein_corpus(3) != inputs.protein_corpus(4)
    jobs_a, jobs_b = inputs.ServiceJobs(3), inputs.ServiceJobs(3)
    assert [jobs_a[i] for i in range(50)] == [jobs_b[i] for i in range(50)]
    # Sizes are fixed ladders: only residues move with the seed.
    sizes = [sorted(len(t) // 50 for _n, t in inputs.protein_corpus(s)[0])
             for s in (1, 2)]
    assert sizes[0][:150] == sizes[1][:150]
    assert all(len(a) == inputs.PAIR_LENGTH for a, _b in inputs.dna_pairs(5))


def test_inputs_never_import_the_program():
    code = "import sys, inputs; inputs.protein_corpus(1); print('repro' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_repeats_share_their_originals_content():
    jobs = inputs.ServiceJobs(7)
    repeats = [jobs[i] for i in range(200) if "repeat_of" in jobs[i]]
    assert len(repeats) == 200 // inputs.REPEAT_EVERY
    for job in repeats:
        src = jobs[job["repeat_of"]]
        assert (job["a"], job["b"], job["mode"]) == (src["a"], src["b"], src["mode"])


def test_tail_needs_ten_samples_beyond_it():
    assert common.tail([float(i) for i in range(39)]) is None
    t = common.tail([float(i) for i in range(50)])
    assert t["percentile"] == 80.0 and t["beyond"] == 10
    t = common.tail([float(i) for i in range(1000)])
    assert t["percentile"] == 99.0 and t["beyond"] >= 10


def test_self_time_excludes_children():
    tr = common.Tracer()
    tr.request = 1
    with tr.span("outer") as outer:
        with tr.span("child") as child:
            pass
        with tr.span("child"):
            with tr.span("grandchild"):
                pass
    selfs = tr.self_times()[1]
    outer_d = outer["end"] - outer["start"]
    children = sum(s["end"] - s["start"] for s in tr.spans if s["name"] == "child")
    assert selfs["outer"] == pytest.approx(outer_d - children)
    assert selfs["child"] < children
    assert child["parent"] == outer["id"]


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    runs = [_result(_run(workload, seed, 0)) for seed in (1, 2)]
    for detail, res in runs:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == E2E
        values = [m["value"] for m in res["metrics"].values()]
        assert all(v > 0 for v in values)
        # One number, one name.
        assert len(set(values)) == len(values)
        assert detail["warmup_ops"] >= 1
        assert detail["host"]["pinned_kernel"] == "numpy"
        assert "cpu_count" in detail["host"]
    # Nothing echoes a value the workload definition fixes: every timing
    # and rate moves between two runs.
    for name in ("setup_s", "op_p50_s", "ops_per_s"):
        assert runs[0][1]["metrics"][name] != runs[1][1]["metrics"][name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    detail, res = _result(_run(workload, 1, 1, seconds=2))
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == LAYER
    zero = {n for n, m in res["metrics"].items() if m["value"] == 0}
    assert not (LOADED[workload] & zero), sorted(LOADED[workload] & zero)
    assert os.path.exists(os.path.join(HERE, "out", f"spans-{workload}-1.json"))


#: Runs the benchmark as a child subreaper, so any process the run leaves
#: behind (even an orphaned grandchild) becomes this wrapper's child, and
#: prints the pids of the children left once the run has exited.
_REAPER = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
left = []
for tid in os.listdir("/proc/self/task"):
    with open(f"/proc/self/task/{tid}/children") as fh:
        left += fh.read().split()
print(" ".join(left))
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_process_outlives_a_run(workload):
    proc = subprocess.run(
        [sys.executable, "-c", _REAPER, sys.executable, "perfbench/run.py",
         "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip() == ""


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("pair-long", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
