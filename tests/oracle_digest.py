"""The homology oracle's results on seeded random word pairs, pinned as one digest.

    PYTHONPATH=src python -W error tests/oracle_digest.py

draws 1,000 word pairs with ``sweeps.random_word`` on each of S(16), S(17),
Jacob's Ladder and Loch Ness, runs ``verify_identity_homology`` on each pair
at windows 20 and 6, and compares the sha256 of the ``str(result)`` lines
and the count of each status with ``tests/data/oracle-digest.json``. It
prints both and exits 1 when they differ. The right word of a pair is an
independent word, a conjugate, the left word with one letter dropped, or the
left word times a cancelling pair, so every status occurs.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

from mcg import load_model
from mcg.homology import verify_identity_homology
from mcg.sweeps import random_word
from mcg.words import Word, invert

MODELS = (("sn", 16), ("sn", 17), ("jacob", None), ("lochness", None))
PAIRS = 1000
WINDOWS = (20, 6)
COMMITTED = Path(__file__).resolve().parent / "data" / "oracle-digest.json"


def _pairs(model, rng: random.Random):
    for _ in range(PAIRS):
        w1 = random_word(model, rng, rng.randint(0, 8))
        pick = rng.random()
        if pick < 0.4:
            w2 = random_word(model, rng, rng.randint(0, 8))
        elif pick < 0.6:
            g = random_word(model, rng, rng.randint(1, 3))
            w2 = g * w1 * invert(g)
        elif pick < 0.8 and w1.letters:
            i = rng.randrange(len(w1.letters))
            w2 = Word(model, w1.letters[:i] + w1.letters[i + 1 :])
        else:
            g = random_word(model, rng, rng.randint(1, 3))
            w2 = w1 * g * invert(g)
        yield w1, w2


def oracle_digest() -> dict:
    """The sha256 of the result lines and the count of each status."""
    sha = hashlib.sha256()
    counts: Counter[str] = Counter()
    for seed, (kind, n) in enumerate(MODELS):
        model = load_model(kind, n)
        for w1, w2 in _pairs(model, random.Random(seed)):
            for window in WINDOWS:
                res = verify_identity_homology(w1, w2, window)
                sha.update(f"{res}\n".encode())
                counts[res.status] += 1
    return {"sha256": sha.hexdigest(), "counts": dict(sorted(counts.items()))}


def main() -> int:
    got = oracle_digest()
    want = json.loads(COMMITTED.read_text(encoding="utf-8"))
    same = got == want
    print(f"oracle digest {got['sha256']} {got['counts']}: {'same as' if same else 'DIFFERS from'} {COMMITTED.name}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
