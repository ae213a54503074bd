"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole file is also exercised by a plain ``pytest`` run.
"""

import json
import math
import time
from importlib import resources

import pytest

from mcg import load_model, validate_model
from mcg.homology import verify_identity_homology
from mcg.permgroup import Permutation, certify_full_symmetric
from mcg.replay import replay
from mcg.script import CONVENTIONS_ID, EvalContext, SAssertEq, eval_word, parse
from mcg.shiftmap import check_shift_properties, handle_shift_point, strip_point
from mcg.sweeps import (
    cross_oracle_random_pairs,
    homology_property_sweep,
    mutate_assert_words,
    pairing_preservation_sweep,
)

RUNS = (("thmA", 17), ("thmA", 19), ("thmB", 16), ("thmB", 18), ("thmC", None), ("thmD", None))


def _script(name):
    text = resources.files("mcg.data.scripts").joinpath(name + ".mcg").read_text()
    return parse(text, name)


@pytest.fixture(scope="module")
def replays():
    out = {}
    t0 = time.perf_counter()
    for name, n in RUNS:
        out[(name, n)] = replay(_script(name), n=n)
    out["wall"] = time.perf_counter() - t0
    return out


def _ok(criterion: str):
    print(f"ACCEPTANCE PASS - {criterion}")


def test_criterion_1_script_replay(replays):
    """All four theorem scripts replay green at the stated n values within
    the default budget, under 60 s, and every identity in the coverage
    manifest is ProvedEqual."""
    for key, rep in replays.items():
        if key == "wall":
            continue
        assert rep.passed, (key, [s.statement for s in rep.failures])
        assert rep.budget == 100_000
    assert replays["wall"] < 60.0, f"replays took {replays['wall']:.1f}s"

    manifest = json.loads(resources.files("mcg.data").joinpath("coverage.json").read_text())
    by_script: dict[str, dict[int, str]] = {}
    for name, n in RUNS:
        rep = replays[(name, n)]
        by_script.setdefault(name, {})
        for st in rep.statements:
            by_script[name][st.line] = st.verdict
    seen = 0
    for entry in manifest["entries"]:
        verdict = by_script[entry["script"]].get(entry["line"])
        assert verdict is not None, f"manifest points at a missing line: {entry}"
        assert verdict == "ProvedEqual", (entry, verdict)
        seen += 1
    assert seen >= 80
    displayed = [e for e in manifest["entries"] if e["kind"] in ("displayed", "corrected")]
    assert len(displayed) >= 50
    _ok(f"criterion 1: six replays green in {replays['wall']:.1f}s, {seen} manifest identities ProvedEqual")


def test_criterion_2_involution_certificates(replays):
    """The involution certificates hold for all four theorem
    words, with the conjugation identities verified as intermediates."""
    for key, rep in replays.items():
        if key == "wall":
            continue
        st = next(s for s in rep.statements if s.kind == "AssertInvolution")
        assert st.ok and st.verdict == "ProvedEqual", (key, st.statement, st.verdict)
    # the displayed intermediate on the odd-ended surface
    rep = replays[("thmA", 17)]
    inter = next(s for s in rep.statements if "CONJ(A[1] C[1] B[4], rho3)" in s.statement)
    assert inter.verdict == "ProvedEqual"
    _ok("criterion 2: involution certificates ProvedEqual for thmA/thmB/thmC/thmD words")


def test_criterion_3_cross_oracle_soundness(replays):
    """No shipped-script assertion and no randomized pair has the engine
    proving equality while homology refutes; seeded single-letter mutations
    of the odd-case script are each refuted by the homology oracle."""
    for key, rep in replays.items():
        if key == "wall":
            continue
        for st in rep.statements:
            if st.verdict == "ProvedEqual" and st.oracle:
                assert "Refuted" not in st.oracle, (key, st.statement)

    total_proved = 0
    for kind, n in (("sn", 16), ("sn", 17), ("jacob", None), ("lochness", None)):
        model = load_model(kind, n)
        checked, proved, violations = cross_oracle_random_pairs(model, 1000, seed=1234)
        assert checked == 1000 and not violations, violations
        total_proved += proved
    assert total_proved > 100  # the random pairs do exercise ProvedEqual

    # the asserted words as replay sees them: LET names bound to the
    # reduced words replay made
    script = _script("thmA")
    model = load_model("sn", 17)
    rep = replay(script, n=17, model=model)
    ctx = EvalContext(model, 17, dict(rep.env))
    pairs = [
        (eval_word(stmt.left, ctx), eval_word(stmt.right, ctx))
        for stmt in script.statements
        if isinstance(stmt, SAssertEq)
    ]
    refuted = 0
    seed = 0
    while refuted < 10:
        left, right = pairs[seed % len(pairs)]
        mutated = mutate_assert_words(model, left, right, seed=seed)
        seed += 1
        if mutated is None:
            continue
        res = verify_identity_homology(mutated[0], mutated[1], 40)
        assert res.status == "Refuted", (seed - 1, str(res))
        refuted += 1
    _ok(f"criterion 3: cross-oracle sound on scripts + 4x1000 random pairs ({total_proved} proved), 10 mutations refuted")


def test_criterion_4_symmetric_group_certification():
    """BSGS computes |<R-image, transposition>| = n! exactly for n=16,17
    within a second."""
    t0 = time.perf_counter()
    for n in (16, 17):
        ncyc = Permutation.from_cycles(n, "(" + " ".join(map(str, range(1, n + 1))) + ")")
        ok, order = certify_full_symmetric([ncyc, Permutation.from_cycles(n, "(1 2)")], n)
        assert ok and order == math.factorial(n)
        if n == 16:
            assert order == 20922789888000
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"BSGS took {elapsed:.2f}s"
    _ok(f"criterion 4: Sym_16 and Sym_17 certified exactly in {elapsed*1000:.0f} ms")


def test_criterion_5_model_validation():
    """Shipped models validate clean at window 20: equivariance, orders,
    shift conjugation signs."""
    for kind, n in (("sn", 16), ("sn", 17), ("jacob", None), ("lochness", None)):
        model = load_model(kind, n)
        report = validate_model(model, 20)
        assert report.ok, str(report)
    _ok("criterion 5: S(16), S(17), ladder and one-ended models validate clean at window 20")


def test_criterion_6_homology_property_sweep():
    """Window-20 sweep: twist matrices commute exactly for disjoint pairs and
    satisfy the braid identity exactly for once-intersecting pairs, except on
    the characterized same-handle A/A' family whose classes necessarily
    coincide; every generator matrix preserves the symplectic form."""
    for kind, n in (("sn", 16), ("sn", 17), ("jacob", None), ("lochness", None)):
        model = load_model(kind, n)
        sweep = homology_property_sweep(model, 20)
        assert sweep.ok, str(sweep)
        if kind != "lochness":
            assert sweep.degenerate_pairs > 0  # the A/A' family is present and flagged
        else:
            assert sweep.degenerate_pairs == 0  # no primed family on one end
        psweep = pairing_preservation_sweep(model, 20)
        assert psweep.ok, str(psweep)
    _ok("criterion 6: homology sweep matches the intersection table at window 20 (A/A' degeneracy characterized)")


def test_criterion_7_shift_map_exact():
    """Exact rational checks of the strip formula: seams, boundary, core."""
    report = check_shift_properties()
    assert report.ok, str(report)
    from fractions import Fraction

    assert handle_shift_point(strip_point(0, 0)) == strip_point(1, 0)
    assert handle_shift_point(strip_point(0, 1)) == strip_point(0, 1)
    assert handle_shift_point(strip_point(0, Fraction(3, 4))) == strip_point(Fraction(1, 2), Fraction(3, 4))
    # seam agreement is exact, zero tolerance
    for x in (Fraction(0), Fraction(7, 3), Fraction(-5, 2)):
        up = handle_shift_point(strip_point(x, Fraction(1, 2)))
        assert up.x - x == 1
        down = handle_shift_point(strip_point(x, Fraction(-1, 2)))
        assert down.x - x == 1
    _ok(f"criterion 7: shift-map formula exact ({report.checks_run} checks, zero tolerance)")


def test_criterion_8_parser_robustness():
    """Round-trip print-parse identity on the shipped scripts; the documented
    error classes carry positions."""
    from mcg.errors import ParseError, Redefinition, UndefinedName

    for name in ("thmA", "thmB", "thmC", "thmD"):
        s1 = _script(name)
        s2 = parse(s1.text(), name)
        assert s1.key() == s2.key()

    header = f"MODEL sn\nPARAM n DEFAULT 17\nCONVENTIONS {CONVENTIONS_ID}\n"
    with pytest.raises(UndefinedName) as u:
        parse(header + "LET F2 = CONJ(F9, R)\n")
    assert u.value.line == 4 and u.value.column > 0
    with pytest.raises(Redefinition) as r:
        parse(header + "LET F1 = A[1]\nLET F1 = B[1]\n")
    assert r.value.line == 5
    with pytest.raises(ParseError) as p:
        parse(header + "LET F1 = A[1\n")
    assert p.value.line == 4
    _ok("criterion 8: print/parse round-trip on all scripts; error positions reported")
