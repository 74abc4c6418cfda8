"""The repo benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pair-long --seed 1 --seconds 20 --trace 0

Workloads: ``pair-long``, ``pair-par``, ``search``, ``service`` (see
``perfbench/DESIGN.md``).  With ``--trace 0`` the result carries every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` every
per-layer metric, zero for the layers the workload does not load.
The last line of standard output is the result object; the line before
it holds host metadata and run details.  Exit status is 0 when the
workload ran, whatever its failure count, and non-zero when it could
not run at all (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pair-long", "pair-par", "search", "service")


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no program source at src/repro", file=sys.stderr)
        return 2
    spec = _load_spec()

    # The kernel-tier calibration cache points at an empty private
    # directory, so no run reads what an earlier `fastlsa calibrate` left.
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "out"))
    os.environ["FASTLSA_CACHE_DIR"] = os.path.join(workdir, "cache")
    os.makedirs(os.environ["FASTLSA_CACHE_DIR"])
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from common import Outcome, RunContext, host_metadata, stop_helpers

    ctx = RunContext(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    out = Outcome()
    try:
        if args.workload in ("pair-long", "pair-par"):
            import wl_pairs as wl
        elif args.workload == "search":
            import wl_search as wl
        else:
            import wl_service as wl
        wl.run(ctx, out)
        host = host_metadata()
    except Exception:  # noqa: BLE001 - the run could not complete
        traceback.print_exc()
        return 1
    finally:
        stop_helpers()
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    unknown = sorted(set(out.metrics) - set(names))
    if unknown:
        print(f"error: metrics not declared in BENCHMARK.json: {unknown}", file=sys.stderr)
        return 1
    for name, unit in names.items():
        got = out.metrics.get(name)
        if got is not None and got["unit"] != unit:
            print(f"error: {name} measured in {got['unit']}, declared {unit}",
                  file=sys.stderr)
            return 1
    not_loaded = [n for n in names if n not in out.metrics]
    if not args.trace and not_loaded:
        print(f"error: end-to-end metrics missing: {not_loaded}", file=sys.stderr)
        return 1
    metrics = {n: out.metrics.get(n, {"value": 0.0, "unit": names[n]}) for n in names}

    print(json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "not_loaded": not_loaded,
                      "failures": out.failures, **out.detail}))
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
