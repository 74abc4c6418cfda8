"""Smoke tests: the example scripts must run end-to-end.

Each example self-asserts its claims internally (scores, budgets,
placements), so a clean exit is a meaningful check.  The heavyweight
genome example runs in its FAST mode.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")


def run_example(name, cwd, env_extra=None, timeout=240):
    """Run one example from ``cwd`` (a temp directory), so the files it
    writes under ``results/`` never land in the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    env.update(env_extra or {})
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=cwd,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stdout}\n{proc.stderr}"
    return proc.stdout


class TestExamples:
    def test_quickstart(self, tmp_path):
        out = run_example("quickstart.py", tmp_path)
        assert "score=82" in out

    def test_protein_homology(self, tmp_path):
        out = run_example("protein_homology.py", tmp_path)
        assert "Best local alignment" in out

    def test_multiple_alignment(self, tmp_path):
        out = run_example("multiple_alignment.py", tmp_path)
        assert "Multiple alignment" in out
        assert "conserved columns" in out

    def test_parallel_speedup(self, tmp_path):
        out = run_example("parallel_speedup.py", tmp_path)
        assert "identical to sequential" in out
        assert "Theorem 4" in out

    def test_memory_tuning(self, tmp_path):
        out = run_example("memory_tuning.py", tmp_path)
        assert "Adaptive space/time trade-off" in out

    def test_read_mapping(self, tmp_path):
        out = run_example("read_mapping.py", tmp_path)
        assert "dovetail overlaps detected" in out

    def test_genome_alignment_fast(self, tmp_path):
        out = run_example("genome_alignment.py", tmp_path, env_extra={"FAST": "1"}, timeout=400)
        assert "within budget     : True" in out

    def test_service_throughput(self, tmp_path):
        out = run_example("service_throughput.py", tmp_path)
        assert "over-budget job rejected as expected" in out
        assert "requests in" in out
