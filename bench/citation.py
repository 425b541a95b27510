"""Cora-shaped citation fixture: a `.content`/`.cites` pair written from a seed.

2,708 papers in 7 classes with Cora's class sizes, 1,433 binary word
features drawn at class-dependent rates, and ~5.4k citations of which ~80%
join papers of the same class. The first seven content lines hold one paper
of each class in size order, so label ids (first-appearance order) and
therefore the task split are the same for every seed; only the papers,
words and citations change.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

CLASS_SIZES = (818, 426, 418, 351, 298, 217, 180)
CLASS_NAMES = ("Neural_Networks", "Probabilistic_Methods", "Genetic_Algorithms",
               "Theory", "Case_Based", "Reinforcement_Learning", "Rule_Learning")
WORDS = 1433
CITATIONS = 5429
HOMOPHILY = 0.8
BACKGROUND_RATE = 0.0085   # ~12 background words per paper
TOPIC_WORDS = 80           # words a class uses more often
TOPIC_RATE = 0.08          # ~6.4 topic words per paper


def write_citation_fixture(directory: Path, seed: int) -> tuple[Path, Path, str]:
    """Write `cora.content` and `cora.cites` under ``directory``.

    Returns both paths and the SHA-256 of their concatenated bytes, so runs
    on other machines can check that they parse the same input.
    """
    rng = np.random.default_rng([seed, 0xC0A])
    labels = np.repeat(np.arange(len(CLASS_SIZES)), CLASS_SIZES)
    n = labels.size
    firsts = np.cumsum((0,) + CLASS_SIZES[:-1])
    rest = np.setdiff1d(np.arange(n), firsts)
    order = np.concatenate([firsts, rng.permutation(rest)])
    paper_ids = rng.choice(np.arange(1_000, 2_000_000), size=n, replace=False)

    rates = np.full((len(CLASS_SIZES), WORDS), BACKGROUND_RATE)
    for c in range(len(CLASS_SIZES)):
        rates[c, rng.choice(WORDS, size=TOPIC_WORDS, replace=False)] = TOPIC_RATE
    words = (rng.random((n, WORDS)) < rates[labels]).astype(np.int8)

    # Cited papers are drawn with heavy-tailed popularity, like real citations.
    popularity = rng.pareto(2.0, size=n) + 1.0
    members = [np.flatnonzero(labels == c) for c in range(len(CLASS_SIZES))]
    citing = rng.integers(0, n, size=CITATIONS)
    same = rng.random(CITATIONS) < HOMOPHILY
    cites = []
    for u, keep_class in zip(citing.tolist(), same.tolist()):
        if keep_class:
            pool = members[labels[u]]
        else:
            other = rng.choice([c for c in range(len(CLASS_SIZES)) if c != labels[u]])
            pool = members[other]
        weights = popularity[pool] / popularity[pool].sum()
        v = int(rng.choice(pool, p=weights))
        if v != u:
            cites.append((v, u))

    digits = np.array([b"0", b"1"])
    content_lines = []
    for u in order.tolist():
        row = b" ".join(digits[words[u]].tolist())
        content_lines.append(b"%d %s %s\n" % (paper_ids[u], row,
                                             CLASS_NAMES[labels[u]].encode()))
    content = b"".join(content_lines)
    cites_bytes = b"".join(b"%d %d\n" % (paper_ids[v], paper_ids[u]) for v, u in cites)

    directory.mkdir(parents=True, exist_ok=True)
    content_path = directory / "cora.content"
    cites_path = directory / "cora.cites"
    content_path.write_bytes(content)
    cites_path.write_bytes(cites_bytes)
    return content_path, cites_path, hashlib.sha256(content + cites_bytes).hexdigest()
