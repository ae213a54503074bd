import json
from importlib import resources
from pathlib import Path

import pytest

import mcg.homology
import mcg.replay
import mcg.rewrite
from mcg.cli import main
from mcg.errors import McgError
from mcg.homology import HomologyResult
from mcg.replay import replay
from mcg.rewrite import GoalIndex, reduce_word
from mcg.script import CONVENTIONS_ID, parse
from mcg.words import Word


def load(name):
    text = resources.files("mcg.data.scripts").joinpath(name + ".mcg").read_text()
    return parse(text, name + ".mcg")


def test_thmA_passes_both_default_n():
    script = load("thmA")
    for n in (17, 19):
        rep = replay(script, n=n)
        assert rep.passed, [str(s.statement) for s in rep.failures]


def test_thmD_passes_including_zero_skip_steps():
    rep = replay(load("thmD"))
    assert rep.passed, [s.statement for s in rep.failures]
    skip_step = next(s for s in rep.statements if "b1b2 = B[1] B~[2]" in s.statement)
    assert skip_step.verdict == "ProvedEqual"


def test_parity_guard():
    with pytest.raises(McgError):
        replay(load("thmA"), n=16)
    with pytest.raises(McgError):
        replay(load("thmB"), n=15)
    with pytest.raises(McgError):
        replay(load("thmA"), n=15)


def test_perturbed_formula_fails_with_homology_witness():
    # corrupt the F2 formula (B[6] -> B[7]) and replay: the statement must
    # fail and the perturbed identity must be refuted by the homology oracle
    text = resources.files("mcg.data.scripts").joinpath("thmA.mcg").read_text()
    needle = "ASSERT_EQ F2 = A[3] C[3] B[6]"
    assert needle in text
    bad = text.replace(needle, "ASSERT_EQ F2 = A[3] C[3] B[7]")
    rep = replay(parse(bad, "thmA-perturbed"), n=17)
    assert not rep.passed
    failing = [s for s in rep.statements if not s.ok]
    assert any("B[7]" in s.statement for s in failing)
    bad_stmt = next(s for s in failing if "B[7]" in s.statement)
    assert bad_stmt.verdict in ("ProvedDistinct", "Unknown")
    assert "Refuted" in bad_stmt.oracle


def wrap_oracle(monkeypatch, window=None):
    """Wrap the homology oracle replay calls: record each pair it compares
    and, given ``window``, cap the columns compared at it."""
    calls = []
    real = mcg.replay.verify_identity_homology

    def wrapped(w1, w2, fixed):
        calls.append((w1, w2))
        return real(w1, w2, fixed if window is None else window)

    monkeypatch.setattr(mcg.replay, "verify_identity_homology", wrapped)
    return calls


def test_oracle_runs_once_per_statement(monkeypatch):
    # the judge runs the oracle once per identity row, whatever the engine
    # found; replay runs it nowhere else
    calls = wrap_oracle(monkeypatch)
    text = resources.files("mcg.data.scripts").joinpath("thmA.mcg").read_text()
    bad = text.replace("ASSERT_EQ F2 = A[3] C[3] B[6]", "ASSERT_EQ F2 = A[3] C[3] B[7]")
    rep = replay(parse(bad, "thmA-perturbed"), n=17)
    bad_stmt = next(s for s in rep.statements if "B[7]" in s.statement)
    assert bad_stmt.verdict == "ProvedDistinct" and bad_stmt.oracle.startswith("Refuted")
    checked = [s for s in rep.statements if s.oracle]
    assert len(calls) == len(checked) == len(set(calls))


def test_refuted_involution_is_an_oracle_conflict(monkeypatch):
    # an involution the engine proves shows its rewrite trace, and one that
    # homology refutes must fail and name the conflict, as ASSERT_EQ does
    def involution(rep):
        return next(s for s in rep.statements if s.kind == "AssertInvolution")

    proved = involution(replay(load("thmC")))
    assert (proved.verdict, proved.ok, proved.witness) == ("ProvedEqual", True, "canonical")
    forged = HomologyResult("Refuted", "forged witness", 1, 1)
    monkeypatch.setattr(mcg.replay, "verify_identity_homology", lambda *args: forged)
    conflict = involution(replay(load("thmC")))
    assert (conflict.verdict, conflict.ok) == ("ProvedEqual", False)
    assert conflict.witness == "ORACLE CONFLICT: forged witness"


def test_execution_continues_past_failures():
    text = (
        f"MODEL sn\nPARAM n DEFAULT 17\nCONVENTIONS {CONVENTIONS_ID}\n"
        "ASSERT_EQ A[1] = B[1]\n"
        "ASSERT_EQ A[1] = A[1]\n"
    )
    rep = replay(parse(text))
    assert [s.ok for s in rep.statements] == [False, True]


def test_starved_budget_gives_unknowns():
    rep = replay(load("thmA"), n=17, budget=1)
    assert not rep.passed
    assert rep.unknowns


def test_starved_let_reduction_says_it_kept_the_word():
    # a binding whose reduction runs out of the run's budget keeps its
    # unreduced word and says so, instead of passing silently
    text = "MODEL jacob\nLET x = A[1] B[1] A[1] B[1] A~[1] B~[1]\nLET y = A[1] A~[1]\n"
    rep = replay(parse(text, "starved.mcg"), budget=1)
    x, y = rep.statements
    assert x.verdict == y.verdict == "bound" and x.ok and y.ok
    assert x.witness == "reduction budget exhausted; kept unreduced (6 letters)"
    assert len(rep.env["x"]) == 6
    assert y.witness == "" and len(rep.env["y"]) == 0


def test_a_let_past_index_40_binds_and_its_uses_are_judged(tmp_path, capsys):
    # the oracle compares each pair as far as its own displacement bound
    # reaches, so a LET word at index 41 binds and every row that uses it
    # gets its verdict and an oracle column over the columns to index 44
    script, out = tmp_path / "far.mcg", tmp_path / "r.json"
    script.write_text(
        "MODEL jacob\nLET X = A[41] B[41] A[41]\nASSERT_EQ X = B[41] A[41] B[41]\nASSERT_EQ X = A[41] B[41]\n"
        "ASSERT_INVOLUTION X tau2 INV(X)\nASSERT_INVOLUTION X\nASSERT_EQ A[1] = A[1]\n"
    )
    assert main(["verify", str(script), "--format", "json", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "")
    doc = json.loads(out.read_text())["scripts"][0]
    assert "window" not in doc
    assert [(r["line"], r["verdict"], r["oracle"]) for r in doc["statements"]] == [
        (2, "bound", ""),
        (3, "ProvedEqual", "Consistent(178/178 columns)"),
        (4, "ProvedDistinct", "Refuted(172/178 columns) [B[41]-class maps to -A[41] vs -A[41]+B[41]]"),
        (5, "ProvedEqual", "Consistent(186/186 columns)"),
        (6, "ProvedDistinct", "Refuted(171/178 columns) [A[41]-class maps to B[41] vs -B[41]]"),
        (7, "ProvedEqual", "Consistent(18/18 columns)"),
    ]


def test_thmC_rows_do_not_depend_on_the_window(monkeypatch):
    # the oracle's images are exact at every index, so capping the columns
    # at window 1000, past every pair's own bound, changes no row: thmC's
    # tau3 conjugation checks all 122 columns either way
    fixed = [s.json_fields() for s in replay(load("thmC")).statements]
    wrap_oracle(monkeypatch, 1000)
    assert [s.json_fields() for s in replay(load("thmC")).statements] == fixed
    assert [s["oracle"] for s in fixed if s["line"] in (23, 24)] == ["Consistent(122/122 columns)"] * 2


def test_a_pair_past_window_40_is_compared_to_its_own_bound():
    # the judged pair r x r of this involution reaches index 41 although
    # its word reaches only 24: every column up to the pair's bound counts
    text = "MODEL jacob\nASSERT_INVOLUTION tau2 H^20 B[1] H^-20\n"
    (row,) = replay(parse(text, "far-involution.mcg")).statements
    assert row.verdict == "ProvedDistinct"
    assert row.oracle == "Refuted(9/174 columns) [A[-39]-class maps to A[-19]+B[-19] vs A[-19]]"


def test_genus_a_billion_is_judged_without_enumerating_the_basis(monkeypatch):
    # on S(17) at genus 10^9 the oracle's columns number 3.4 * 10^10: it
    # finds its witness, its first live column and its counts by rank
    # arithmetic, never by listing the basis
    def unlisted(self):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(mcg.homology.TruncatedBasis, "keys", unlisted)
    g = 10**9
    text = (
        f"MODEL sn\nPARAM n DEFAULT 17\nCONVENTIONS {CONVENTIONS_ID}\n"
        f"ASSERT_EQ A[{g},1] = B[{g},1]\n"
        f"ASSERT_EQ R A[{g},5] = A[{g},6] R\n"
        f"ASSERT_EQ tau A[{g},1] tau = A[{g},1]\n"
        f"ASSERT_EQ R A[{g},1] = A[{g},1]\n"
    )
    rows = replay(parse(text, "far.mcg")).statements
    assert [(r.verdict, r.oracle) for r in rows] == [
        (
            "ProvedDistinct",
            f"Refuted({2 * g - 1}/{34 * (g + 3)} columns)"
            f" [A[{g},1]-class maps to A[{g},1] vs A[{g},1]+B[{g},1]]",
        ),
        ("ProvedEqual", f"Consistent({34 * (g + 3)}/{34 * (g + 3)} columns)"),
        ("Unknown", "Inconclusive(0/0 columns) [tau acts on the ends only; it has no action on the standard labels]"),
        ("ProvedDistinct", f"Refuted(1/{34 * (g + 3)} columns) [A[1,1]-class maps to A[1,2] vs A[1,1]]"),
    ]
    # and a whole replay of thmC compares its pairs without the list too
    assert replay(load("thmC")).passed


def test_uses_of_a_failed_let_name_it_and_its_line():
    text = f"MODEL sn\nCONVENTIONS {CONVENTIONS_ID}\nLET Y = (A[1] B[1])^6000\nASSERT_EQ Y = Y\nASSERT_INVOLUTION Y\n"
    rep = replay(parse(text, "failed-let.mcg"), n=17)
    let, eq, inv = rep.statements
    assert (let.line, let.verdict) == (3, "error") and "12000 letters" in let.witness
    for row in (eq, inv):
        assert row.verdict == "error"
        assert row.witness == "name 'Y' has no value: LET Y at line 3 failed"


def test_every_passing_assert_is_oracle_consistent():
    for name, n in (("thmA", 17), ("thmB", 16), ("thmC", None), ("thmD", None)):
        rep = replay(load(name), n=n)
        for st in rep.statements:
            if st.kind == "AssertEq" and st.ok:
                assert "Refuted" not in st.oracle, st.statement


def test_goalset_reports_source_of_each_goal():
    rep = replay(load("thmC"))
    goal = next(s for s in rep.statements if s.kind == "Goalset")
    assert goal.ok
    assert "<=" in goal.witness


def test_chain_scripts_take_n_from_their_model():
    assert parse("MODEL jacob\nASSERT_EQ A[1] = A[1]\n").default_n() is None
    assert replay(parse("MODEL jacob\nASSERT_EQ A[n] = A[2]\n")).n == 2
    assert replay(parse("MODEL lochness\nASSERT_EQ A[n] = A[1]\n")).n == 1
    with pytest.raises(McgError, match=r"the Jacob's Ladder model has n=2, not 3$"):
        replay(parse("MODEL jacob\nASSERT_EQ A[1] = A[1]\n"), n=3)


def test_script_budget_line_applies_unless_overridden():
    text = "MODEL jacob\nBUDGET {}\nASSERT_EQ A[1] = A[1]\n"
    assert replay(parse(text.format(0))).budget == 0
    assert replay(parse(text.format(5))).budget == 5
    assert replay(parse(text.format(5)), budget=7).budget == 7
    assert replay(parse("MODEL jacob\nASSERT_EQ A[1] = A[1]\n")).budget == 100_000


GOLDEN_DEFAULT_JSON = Path(__file__).parent / "data" / "verify-default.json"


def test_goalset_matching_tries_only_provable_candidates(monkeypatch):
    # over the six default replays, goal-set matching made 949 engine calls
    # while it tried every proved word, 211 once it skipped repeats and words
    # with another symmetry part, and 146 (31 proofs, 115 misses) once the
    # exponent sums file each word too; it calls no ``equivalent``, and its
    # witnesses must not change
    decisions, calls = [], []
    real_pair, real_first, real_equivalent = mcg.rewrite._decide_pair, GoalIndex.first_equal, mcg.rewrite.equivalent
    matching = [False]

    def first_equal(self, w, budget):
        matching[0] = True
        try:
            return real_first(self, w, budget)
        finally:
            matching[0] = False

    def decide_pair(*args):
        v = real_pair(*args)
        if matching[0]:
            decisions.append(v.kind)
        return v

    def equivalent(*args, **kwargs):
        calls.append(matching[0])
        return real_equivalent(*args, **kwargs)

    monkeypatch.setattr(GoalIndex, "first_equal", first_equal)
    monkeypatch.setattr(mcg.rewrite, "_decide_pair", decide_pair)
    monkeypatch.setattr(mcg.rewrite, "equivalent", equivalent)
    monkeypatch.setattr(mcg.replay, "equivalent", equivalent)
    witnesses = []
    for name in ("thmA", "thmB", "thmC", "thmD"):
        script = load(name)
        for n in script.param.defaults if script.kind == "sn" else (None,):
            rep = replay(script, n=n)
            witnesses += [s.witness for s in rep.statements if s.kind == "Goalset"]
    assert len(decisions) <= 146
    assert decisions.count("ProvedEqual") == 31
    # none from goal matching; the 167 of the identity rows show the patch is live
    assert (calls.count(True), calls.count(False)) == (0, 167)
    golden = json.loads(GOLDEN_DEFAULT_JSON.read_text(encoding="utf-8"))
    assert witnesses == [s["witness"] for r in golden["scripts"] for s in r["statements"] if s["kind"] == "Goalset"]


DEFAULT_RUNS = (("thmA", 17), ("thmA", 19), ("thmB", 16), ("thmB", 18), ("thmC", None), ("thmD", None))


def _rows(runs, budget=None):
    return [[s.json_fields() for s in replay(load(name), n=n, budget=budget).statements] for name, n in runs]


def test_replay_normalizes_each_let_once(monkeypatch):
    # a passing ASSERT_EQ keeps its right side in commutation-canonical form,
    # so the full normalization (symmetry push, canonical form and braid
    # search) runs for the LETs alone
    calls = []
    real = mcg.rewrite.normalize

    def normalize(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(mcg.rewrite, "normalize", normalize)
    monkeypatch.setattr(mcg.replay, "normalize", normalize)
    lets = sum(row["kind"] == "Let" for rows in _rows(DEFAULT_RUNS) for row in rows)
    assert lets and len(calls) == lets


@pytest.mark.parametrize("budget", [0, 5, 50, 300, None])
def test_canonical_eq_words_give_the_rows_of_reduced_ones(monkeypatch, budget):
    # the reference stores ``reduce_word(right, budget)`` for each passing
    # ASSERT_EQ: goal matching must reach the same verdicts and witnesses
    runs = (("thmA", 17), ("thmC", None), ("thmD", None))
    rows = _rows(runs, budget)

    def reduced(model, letters, b):
        return reduce_word(Word(model, tuple(letters)), b.limit).letters

    monkeypatch.setattr(mcg.replay, "canonical", reduced)
    assert rows == _rows(runs, budget)


def test_involution_needs_no_involutive_prefix():
    # CONJ(rho1, R A[1]) spells R A[1] rho1 A~[1] R~, an involution whose
    # leading symmetry letter R is none; it is decided as r x r = x~ all the
    # same, and R A[1], which moves the ends, is refuted
    text = (
        f"MODEL sn\nPARAM n DEFAULT 17\nCONVENTIONS {CONVENTIONS_ID}\n"
        "ASSERT_INVOLUTION CONJ(rho1, R A[1])\n"
        "ASSERT_INVOLUTION R A[1] rho1 A~[1] R~\n"
        "ASSERT_INVOLUTION R A[1]\n"
    )
    conj, spelled, rotation = replay(parse(text, "involutions.mcg")).statements
    assert (conj.verdict, conj.ok) == (spelled.verdict, spelled.ok) == ("ProvedEqual", True)
    assert (rotation.verdict, rotation.ok) == ("ProvedDistinct", False)
    assert rotation.witness == "end 1 maps to 3 vs 1"


def test_rows_are_uniform_in_n():
    # the derivations do not depend on n past the scripts' minimum: each
    # script, parsed once, gives the same rows at the default n and far above
    for name, ns in (("thmA", (17, 21, 33, 69)), ("thmB", (16, 20, 32, 68))):
        script = load(name)
        rows = {
            n: [(s.kind, s.verdict, s.budget_used, s.witness) for s in replay(script, n=n).statements] for n in ns
        }
        assert all(rows[n] == rows[ns[0]] for n in ns), name
        assert all(verdict not in ("Unknown", "error") for _, verdict, _, _ in rows[ns[0]])


def without_minimum(script):
    return script._replace(param=script.param._replace(minimum=None))


@pytest.mark.parametrize(
    "name, n, rows, line, statement",
    [
        ("thmA", 15, 67, 46, "ASSERT_EQ F7 = A[1] C[1] C[3] C~[5] C~[8]"),
        ("thmB", 12, 71, 31, "ASSERT_EQ F3 = A[1] C[1] C[3] B~[5] B~[7]"),
    ],
    ids=["thmA-15", "thmB-12"],
)
def test_first_statement_that_breaks_below_the_minimum(name, n, rows, line, statement):
    # below MIN the replay runs to its end under a small budget, and the
    # first row that is not ok is an identity the homology oracle refutes
    rep = replay(without_minimum(load(name)), n=n, budget=100)
    assert len(rep.statements) == rows
    first = rep.failures[0]
    assert (first.line, first.verdict) == (line, "ProvedDistinct")
    assert first.statement.startswith(statement)
    assert first.oracle.startswith("Refuted")


def test_thmB_rows_at_n_14_are_those_at_16():
    script = without_minimum(load("thmB"))
    rows = {
        n: [(s.kind, s.verdict, s.budget_used, s.witness) for s in replay(script, n=n, budget=100).statements]
        for n in (14, 16)
    }
    assert rows[14] == rows[16]
