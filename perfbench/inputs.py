"""Seeded input generators for every workload.

Everything the program receives comes from here, and everything here is
a pure function of the ``seed`` argument.  This module deliberately
imports nothing from ``repro``: a change to the program cannot change
the inputs it is measured on.

Sizes (lengths, counts, divergence) are fixed ladders, not random draws.
The seed only picks residues, mutation sites and orderings, so the work a
run does is nearly the same for every seed and the spread across seeds
measures the program, not the generator.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

DNA = "ACGT"
#: The 20 standard amino acids and their background frequencies (%).
AMINO = "ARNDCQEGHILKMFPSTWYV"
AMINO_FREQ = (8.25, 5.53, 4.06, 5.45, 1.37, 3.93, 6.75, 7.07, 2.27, 5.96,
              9.66, 5.84, 2.42, 3.86, 4.70, 6.56, 5.34, 1.08, 2.92, 6.87)
#: Low-complexity skew: these residues are over-represented 12x.
SKEWED_RESIDUES = "PGSQEK"

# pair-long / pair-par
PAIR_COUNT = 4
PAIR_LENGTH = 8000
PAIR_DIVERGENCE = 0.25

# search
FAMILIES = 12
MEMBERS = 8
BACKGROUND = 100
FRAGMENTS = 60
SKEWED = 40
QUERY_DIVERGENCE = 0.30

# service
SERVICE_MIN_LEN = 100
SERVICE_MAX_LEN = 400
SERVICE_DIVERGENCE = 0.30
#: Every REPEAT_EVERY-th job repeats an earlier one exactly.
REPEAT_EVERY = 4
REPEAT_WINDOW = 64


def _rng(seed: int, stream: str) -> random.Random:
    # One independent stream per (seed, purpose): adding a generator never
    # shifts the inputs of another.
    return random.Random(f"{int(seed)}:{stream}")


def _mutate(rng: random.Random, text: str, divergence: float, alphabet: str,
            weights=None) -> str:
    """Substitute, delete or insert at ``divergence`` of the sites.

    Deletions and insertions are equally likely, so lengths stay close to
    the ancestor's.
    """
    out = []
    for ch in text:
        r = rng.random()
        if r < divergence * 0.8:
            if weights is None:
                out.append(rng.choice(alphabet.replace(ch, "")))
            else:
                out.append(rng.choices(alphabet, weights=weights)[0])
        elif r < divergence * 0.9:
            continue
        elif r < divergence:
            out.append(ch)
            out.append(rng.choice(alphabet))
        else:
            out.append(ch)
    return "".join(out)


def _random_protein(rng: random.Random, length: int, skewed: bool = False) -> str:
    weights = AMINO_FREQ
    if skewed:
        weights = tuple(
            w * (12.0 if aa in SKEWED_RESIDUES else 0.3)
            for aa, w in zip(AMINO, AMINO_FREQ)
        )
    return "".join(rng.choices(AMINO, weights=weights, k=length))


def _ladder(lo: int, hi: int, count: int) -> List[int]:
    """``count`` lengths evenly spaced over ``[lo, hi]``."""
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


def dna_pairs(seed: int) -> List[Tuple[str, str]]:
    """Homologous ~8 kbp DNA pairs at 25% divergence with indels."""
    rng = _rng(seed, "dna-pairs")
    pairs = []
    for _ in range(PAIR_COUNT):
        a = "".join(rng.choices(DNA, k=PAIR_LENGTH))
        pairs.append((a, _mutate(rng, a, PAIR_DIVERGENCE, DNA)))
    return pairs


def dna_probe_pair(seed: int) -> Tuple[str, str]:
    """A 600 bp pair: just past one base case, so a FillCache region runs
    and the process backend has to bind its worker pool."""
    rng = _rng(seed, "dna-probe")
    a = "".join(rng.choices(DNA, k=600))
    return a, _mutate(rng, a, PAIR_DIVERGENCE, DNA)


def protein_corpus(seed: int) -> Tuple[List[Tuple[str, str]], List[str]]:
    """``(records, queries)`` for the search workload.

    The corpus mixes homolog families of varied length (the hits), random
    background, short fragments and low-complexity sequences of skewed
    composition.  The last two give the composition bounds something to
    prune; an equal-composition corpus leaves all pruning to the lanes.
    Each query is a diverged copy of one family's ancestor.
    """
    rng = _rng(seed, "corpus")
    texts: List[str] = []
    queries: List[str] = []
    for length in _ladder(120, 300, FAMILIES):
        ancestor = _random_protein(rng, length)
        for m in range(MEMBERS):
            texts.append(_mutate(rng, ancestor, 0.2 + 0.3 * m / MEMBERS, AMINO,
                                 AMINO_FREQ))
        queries.append(_mutate(rng, ancestor, QUERY_DIVERGENCE, AMINO, AMINO_FREQ))
    for length in _ladder(80, 320, BACKGROUND):
        texts.append(_random_protein(rng, length))
    for length in _ladder(20, 80, FRAGMENTS):
        texts.append(_random_protein(rng, length))
    for length in _ladder(80, 320, SKEWED):
        texts.append(_random_protein(rng, length, skewed=True))
    rng.shuffle(texts)
    records = [(f"s{i:04d}", t) for i, t in enumerate(texts)]
    # Interleave short and long queries so every prefix of the set is a
    # fair sample of its cost.
    order = [i // 2 if i % 2 == 0 else len(queries) - 1 - i // 2
             for i in range(len(queries))]
    return records, [queries[i] for i in order]


def write_fasta(records: List[Tuple[str, str]], path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for name, text in records:
            fh.write(f">{name}\n")
            for i in range(0, len(text), 60):
                fh.write(text[i:i + 60] + "\n")


class ServiceJobs:
    """The seeded, unbounded job stream of the service workload.

    Job ``i`` is a protein pair of 100-400 aa, global when ``i`` is even
    and local when odd.  Every ``REPEAT_EVERY``-th job is an exact repeat
    of one of the previous ``REPEAT_WINDOW`` jobs, so the result cache is
    read at a fixed share while fresh jobs keep writing it.  ``stream``
    separates the warm-up jobs from the timed ones.
    """

    def __init__(self, seed: int, stream: str = "timed") -> None:
        self._rng = _rng(seed, f"service-{stream}")
        self._jobs: List[Dict] = []

    def __getitem__(self, i: int) -> Dict:
        while len(self._jobs) <= i:
            self._jobs.append(self._next(len(self._jobs)))
        return self._jobs[i]

    def _next(self, i: int) -> Dict:
        rng = self._rng
        if i % REPEAT_EVERY == REPEAT_EVERY - 1:
            lo = max(0, i - REPEAT_WINDOW)
            src = self._jobs[rng.randrange(lo, i)]
            return dict(src, repeat_of=src.get("repeat_of", src["index"]), index=i)
        a = _random_protein(rng, rng.randint(SERVICE_MIN_LEN, SERVICE_MAX_LEN))
        b = _mutate(rng, a, SERVICE_DIVERGENCE, AMINO, AMINO_FREQ)
        return {"index": i, "a": a, "b": b,
                "mode": "global" if i % 2 == 0 else "local"}
