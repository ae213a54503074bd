"""The script parser's outcomes on seeded mutated scripts, pinned as one digest.

    PYTHONPATH=src python -W error tests/parse_digest.py

draws 2,000 mutations of the four shipped scripts and
``tests/data/refutations.mcg``, each with one to three single-character
edits over ``test_fuzz``'s alphabet plus a tab and the characters ``²٣é$_``,
parses each, and compares the sha256 of the outcome lines and the count of
each outcome kind with ``tests/data/parse-digest.json``. It prints both and
exits 1 when they differ. A script that parses is recorded by its structural
key and its statement lines; one that fails by its error class, message,
line and column, so a change to any error's text or position changes the
digest.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

from mcg.errors import McgError, ScriptError
from mcg.script import parse

MUTATIONS = 2000
ALPHABET = "0123456789 \n#[](){},;=~^+-*/ABCHhn'\t²٣é$_"
HERE = Path(__file__).resolve().parent
COMMITTED = HERE / "data" / "parse-digest.json"


def _texts() -> dict[str, str]:
    scripts = resources.files("mcg.data.scripts")
    texts = {f"thm{x}.mcg": scripts.joinpath(f"thm{x}.mcg").read_text(encoding="utf-8") for x in "ABCD"}
    texts["refutations.mcg"] = (HERE / "data" / "refutations.mcg").read_text(encoding="utf-8")
    return texts


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        c = rng.choice(ALPHABET)
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert":
            text = text[:i] + c + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + c + text[i + 1 :]
    return text


def _outcome(text: str, name: str) -> tuple[str, str]:
    """The outcome kind and the line the digest hashes for one script."""
    try:
        script = parse(text, name)
    except ScriptError as e:
        return type(e).__name__, f"{type(e).__name__} {e.message!r} {e.line} {e.column}"
    except McgError as e:
        return type(e).__name__, f"{type(e).__name__} {e}"
    lines = [s.line for s in script.statements]
    return "parsed", f"parsed {hashlib.sha256(repr(script.key()).encode()).hexdigest()} {lines}"


def parse_digest() -> dict:
    """The sha256 of the outcome lines and the count of each outcome kind."""
    texts = _texts()
    names = sorted(texts)
    rng = random.Random(0)
    sha = hashlib.sha256()
    counts: Counter[str] = Counter()
    for _ in range(MUTATIONS):
        name = rng.choice(names)
        kind, line = _outcome(_mutate(texts[name], rng), name)
        sha.update(f"{line}\n".encode())
        counts[kind] += 1
    return {"sha256": sha.hexdigest(), "counts": dict(sorted(counts.items()))}


def main() -> int:
    got = parse_digest()
    want = json.loads(COMMITTED.read_text(encoding="utf-8"))
    same = got == want
    print(f"parse digest {got['sha256']} {got['counts']}: {'same as' if same else 'DIFFERS from'} {COMMITTED.name}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
