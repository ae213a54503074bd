"""Show that the benchmark's known-answer checks count failures.

    python3 perfbench/selftest.py

Feeds the checks two deliberately wrong expectations and the matching
correct ones:

* verify: thmA with the right side of line 28 bumped by one end
  (``B[6]`` -> ``B[7]``), so the script claims a false identity;
* cross-oracle: the thmA pair of line 28 with one twist letter bumped by
  ``sweeps.mutate_assert_words``, handed to the oracle checks with a forged
  ``ProvedEqual`` verdict.

Exits 0 when each wrong expectation gives a nonzero failed share and each
correct one gives zero. Run from the root of a checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import workloads

SRC = str(Path(__file__).resolve().parent.parent / "src")
LINE = 28
TRUE_RIGHT = "= A'[9] C[8] B[6]"
FALSE_RIGHT = "= A'[9] C[8] B[7]"


def verify_share(state) -> tuple[int, int]:
    res = workloads.verify_pass(state, 0)
    return res.failed, res.attempted


def thmA_pair(mcg, model, text: str):
    script = mcg.script.parse(text, "thmA.mcg")
    ctx = mcg.script.EvalContext(model, model.n)
    for stmt in script.statements:
        if isinstance(stmt, mcg.script.SLet):
            ctx.env[stmt.name] = mcg.script.eval_word(stmt.expr, ctx)
        elif stmt.line == LINE:
            return mcg.script.eval_word(stmt.left, ctx), mcg.script.eval_word(stmt.right, ctx)
    raise LookupError(f"thmA has no statement at line {LINE}")


def cross_share(mcg, pairs) -> tuple[int, int]:
    forged = mcg.rewrite.ProvedEqual(("forged",), 0)
    real = mcg.rewrite.equivalent
    mcg.rewrite.equivalent = lambda *args, **kwargs: forged
    try:
        res = workloads.cross_pass(SimpleNamespace(mcg=mcg, pairs=pairs), 0)
    finally:
        mcg.rewrite.equivalent = real
    return res.failed, res.attempted


def main() -> int:
    state = workloads.verify_setup(SRC, (("thmA", 17),))
    text = state.texts["thmA"]
    line = text.splitlines()[LINE - 1]
    if not line.endswith(TRUE_RIGHT):
        sys.exit(f"thmA line {LINE} changed: {line!r}")
    results = {"verify, shipped thmA": (verify_share(state), False)}
    state.texts["thmA"] = text.replace(line, line.replace(TRUE_RIGHT, FALSE_RIGHT))
    results["verify, thmA line 28 bumped"] = (verify_share(state), True)

    mcg = state.mcg
    model = mcg.modelfile.load_model("sn", 17)
    left, right = thmA_pair(mcg, model, text)
    seed = 0
    while (mutated := mcg.sweeps.mutate_assert_words(model, left, right, seed)) is None:
        seed += 1
    results["cross-oracle, forged ProvedEqual on the true pair"] = (cross_share(mcg, [(left, right)]), False)
    results["cross-oracle, forged ProvedEqual on the mutated pair"] = (cross_share(mcg, [mutated]), True)

    ok = True
    for title, ((failed, attempted), should_fail) in results.items():
        good = (failed > 0) == should_fail
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {title}: failed_share {failed}/{attempted}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
