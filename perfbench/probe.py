"""One fresh set-up, run in its own interpreter; prints ``ready`` when done.

    python3 perfbench/probe.py pair-long SEED
    python3 perfbench/probe.py pair-par SEED
    python3 perfbench/probe.py search SEED CORPUS.fasta INDEX.flsa

What it times is what a user pays before the first result: interpreter
start and ``import repro`` for every workload, plus the worker-pool spawn
and bind for ``pair-par`` and the index build, save and load for
``search``.  (The ``service`` set-up is the server itself; see
``wl_service.py``.)
"""

from __future__ import annotations

import sys

import repro


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    if workload == "pair-par":
        import inputs

        a, b = inputs.dna_probe_pair(seed)
        scheme = repro.ScoringScheme(repro.dna_simple(), repro.linear_gap(-6))
        cfg = repro.AlignConfig(kernel="numpy", tune="off", backend="processes",
                                max_workers=2)
        repro.fastlsa(a, b, scheme, config=cfg)
    elif workload == "search":
        corpus, path = argv[2], argv[3]
        alphabet = repro.blosum62().alphabet
        repro.CorpusIndex.from_fasta(corpus, alphabet).save(path)
        repro.CorpusIndex.load(path)
    elif workload != "pair-long":
        raise SystemExit(f"no set-up probe for {workload!r}")
    print("ready", flush=True)
    from common import stop_helpers

    stop_helpers()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
