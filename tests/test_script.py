import hashlib
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcg.errors import McgError, ParseError, Redefinition, ScriptError, UndefinedName
from mcg.modelfile import builtin_model_text, parse_model_text
from mcg.script import (
    CONVENTIONS_ID,
    CONVENTIONS_TEXT,
    ECurve,
    EConj,
    EGroup,
    EId,
    EInv,
    EName,
    ESeq,
    EShift,
    EvalContext,
    INum,
    eval_word,
    parse,
)
from mcg.words import MAX_LETTERS, Shift, Sym, Twist, Word, invert, word

HEADER = f"MODEL sn\nPARAM n DEFAULT 17\nCONVENTIONS {CONVENTIONS_ID}\n"


def test_conventions_id_is_the_checksum_of_the_conventions_text():
    assert CONVENTIONS_ID == hashlib.sha256(CONVENTIONS_TEXT.encode()).hexdigest()[:8]


def test_parse_simple_let():
    s = parse(HEADER + "LET F1 = A[1] C~[0,1] h[1,2]\n")
    assert len(s.statements) == 1
    assert s.statements[0].name == "F1"


def test_single_index_means_base_genus(sn17):
    s = parse(HEADER + "LET w = A[4] C[4]\n")
    ctx = EvalContext(sn17, 17)
    w = eval_word(s.statements[0].expr, ctx)
    assert w.letters[0] == Twist(sn17.curve("A", 1, 4), 1)
    assert w.letters[1] == Twist(sn17.curve("C", 0, 4), 1)


def test_undefined_name_position():
    text = HEADER + "LET F1 = A[1]\nLET F2 = CONJ(F9, R)\n"
    with pytest.raises(UndefinedName) as err:
        parse(text)
    assert err.value.line == 5
    assert err.value.column == text.splitlines()[4].index("F9") + 1


def test_redefinition_rejected():
    with pytest.raises(Redefinition):
        parse(HEADER + "LET F1 = A[1]\nLET F1 = B[1]\n")
    with pytest.raises(Redefinition):
        parse(HEADER + "LET rho1 = A[1]\n")


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse(HEADER + "ASSERT_EQ A[1] = = B[1]\n")
    assert err.value.line == 4


def test_conventions_mismatch_rejected():
    with pytest.raises(ParseError):
        parse("MODEL sn\nCONVENTIONS deadbeef\n")


def test_unknown_statement_rejected():
    with pytest.raises(ParseError):
        parse(HEADER + "FROBNICATE x\n")


def test_index_arithmetic_and_wrapping(sn17):
    s = parse(HEADER + "LET w = B[(n+1)/2+4] h[n-1+4,2*2]\n")
    with pytest.raises(ParseError):
        parse(HEADER + "LET w = B[**]\n")
    ctx = EvalContext(sn17, 17)
    w = eval_word(s.statements[0].expr, ctx)
    assert w.letters[0] == Twist(sn17.curve("B", 1, 13), 1)
    # 17 - 1 + 4 = 20 wraps to end 3
    assert w.letters[1].label == sn17.shift(3, 4)[0]


def test_inexact_division_rejected(sn17):
    s = parse(HEADER + "LET w = B[n/2]\n")
    ctx = EvalContext(sn17, 17)
    from mcg.errors import InvalidLabel

    with pytest.raises(InvalidLabel):
        eval_word(s.statements[0].expr, ctx)


def test_round_trip_shipped_scripts():
    for name in ("thmA", "thmB", "thmC", "thmD"):
        text = resources.files("mcg.data.scripts").joinpath(name + ".mcg").read_text()
        s1 = parse(text, name)
        s2 = parse(s1.text(), name)
        assert s1.key() == s2.key()
        # printing is a fixpoint
        assert s1.text() == s2.text()


def test_key_tells_nested_node_types_apart():
    # INV(CONJ(X, R)) and X R hold the same values, nested differently
    inv = parse(HEADER + "LET X = A[1]\nLET F = INV(CONJ(X, R))\n")
    seq = parse(HEADER + "LET X = A[1]\nLET F = X R\n")
    assert inv.statements[1].expr == seq.statements[1].expr
    assert inv.key() != seq.key()
    assert inv.key() == parse(inv.text()).key()


def test_round_trip_preserves_statement_count():
    text = resources.files("mcg.data.scripts").joinpath("thmA.mcg").read_text()
    s = parse(text, "thmA")
    assert len(s.statements) >= 20


def test_eval_conj_and_powers(jacob):
    text = "MODEL jacob\nLET w = CONJ(A[1], H^2)\nLET v = (tau1 tau2)~^2\n"
    s = parse(text)
    ctx = EvalContext(jacob, 2)
    w = eval_word(s.statements[0].expr, ctx)
    ctx.env["w"] = w
    v = eval_word(s.statements[1].expr, ctx)
    assert len(v) == 4
    assert v.letters[0] == Sym("tau2", -1)


def test_id_literal(sn17):
    s = parse(HEADER + "ASSERT_EQ A[1] A~[1] = ID\n")
    ctx = EvalContext(sn17, 17)
    assert eval_word(s.statements[0].right, ctx).letters == ()


def test_budget_and_param_header_lines():
    s = parse(HEADER.replace("DEFAULT 17", "DEFAULT 17 19") + "BUDGET 5000\n")
    assert s.budget == 5000
    assert s.param.defaults == (17, 19)
    assert s.default_n() == 17


def test_budget_takes_only_what_int_reads():
    # a superscript two is a digit to str.isdigit, but int() cannot read it
    with pytest.raises(ParseError) as err:
        parse("MODEL jacob\nBUDGET \u00b2\n")
    assert (err.value.line, err.value.column, err.value.message) == (2, 8, "bad BUDGET '\u00b2'")


def test_any_whitespace_ends_a_statement_keyword():
    # a tab ends the keyword as a space does, and columns count each
    # whitespace character once
    s = parse("MODEL\tjacob\nLET\tx = A[1]\n")
    assert s.kind == "jacob" and [st.name for st in s.statements] == ["x"]
    for stmt, col, msg in (
        ("LET\tx = A[1] $", 14, "unexpected character '$'"),
        ("LET\tE = A[1]\nLET  E = B[1]", 6, "name 'E' is already defined"),
        ("BUDGET\t\t-1", 9, "bad BUDGET '-1'"),
    ):
        with pytest.raises(ScriptError) as err:
            parse("MODEL\tjacob\n" + stmt + "\n")
        assert (err.value.line, err.value.column, err.value.message) == (stmt.count("\n") + 2, col, msg)
    with pytest.raises(ParseError) as err:
        parse("MODEL \t sn2\n")
    assert (err.value.column, err.value.message) == (9, "unknown model kind 'sn2'")


def test_unexpected_character_is_positioned():
    # columns count from 1 on the whole line, LET head and binding included
    for stmt, col in (("LET w = A[1] $ B[1]", 14), ("ASSERT_EQ A[1] = B[1] $", 23)):
        with pytest.raises(ParseError) as err:
            parse(HEADER + stmt + "\n")
        assert (err.value.line, err.value.column) == (4, col)
        assert "unexpected character '$'" in str(err.value)


def test_overlong_decimal_is_positioned():
    for stmt, col in (
        ("LET w = A[1," + "9" * 4301 + "]", 13),
        ("ASSERT_PROJECTION R = (1 " + "9" * 4400 + ")", 26),
    ):
        with pytest.raises(ParseError) as err:
            parse(HEADER + stmt + "\n")
        assert (err.value.line, err.value.column) == (4, col)
        assert "-digit number is too long to read" in str(err.value)


def test_end_of_statement_is_the_column_past_its_last_character():
    # an error where the statement runs out points at the gap after it
    for stmt, col, msg in (
        ("ASSERT_EQ A[1]", 15, "unexpected end of statement"),
        ("ASSERT_EQ A[1] =", 17, "empty word"),
        ("ASSERT_EQ A[1] =   # trailing comment", 17, "empty word"),
        ("LET w =", 8, "empty word"),
        ("ASSERT_GOALSET { A[1] ;", 24, "empty word"),
    ):
        with pytest.raises(ParseError, match=msg) as err:
            parse(HEADER + stmt + "\n")
        assert (err.value.line, err.value.column) == (4, col), stmt


def test_statement_errors_point_at_an_indented_keyword():
    # an error about the statement as a whole points at its keyword, not at
    # the start of the line
    for text, pos, msg in (
        ("MODEL jacob\n   FROB x\n", (2, 4), "unknown statement 'FROB'"),
        ("MODEL jacob\n  MODEL sn\n", (2, 3), "duplicate MODEL line"),
        ("MODEL jacob\n\tmodel sn\n", (2, 2), "duplicate MODEL line"),
        ("    LET w = A[1]\nMODEL jacob\n", (1, 5), "MODEL must come before other statements"),
        ("MODEL jacob\nFROB\n", (2, 1), "unknown statement 'FROB'"),
    ):
        with pytest.raises(ParseError, match=msg) as err:
            parse(text)
        assert (err.value.line, err.value.column) == pos, text


def test_names_without_a_value_name_the_model(sn17):
    # a name the parser accepts (a primitive, or a LET whose evaluation
    # failed) but the model or the bindings cannot resolve
    model = sn17.replace(symmetries={k: v for k, v in sn17.symmetries.items() if k != "tau"})
    s = parse(HEADER + "ASSERT_EQ tau = ID\n")
    with pytest.raises(McgError, match=r"^name 'tau' has no value in the S\(17\) model$"):
        eval_word(s.statements[0].left, EvalContext(model, 17))
    s = parse(HEADER + "LET Y = A[1]\nASSERT_EQ Y = ID\n")
    with pytest.raises(McgError, match=r"^name 'Y' has no value in the S\(17\) model$"):
        eval_word(s.statements[1].left, EvalContext(sn17, 17))


@pytest.mark.parametrize(
    "body, count",
    [
        ("X^20000", 20000),
        ("X~^-10001", 10001),
        ("(X X)^5001", 10002),
        ("CONJ(B[1], X^5000)", 10001),
        ("X^5000 X^5000 X", 10001),
    ],
)
def test_overlong_word_is_refused_before_it_is_built(sn17, body, count):
    s = parse(HEADER + f"LET X = A[1]\nLET Y = {body}\n")
    ctx = EvalContext(sn17, 17, {"X": eval_word(s.statements[0].expr, EvalContext(sn17, 17))})
    with pytest.raises(McgError, match=f"has {count} letters, more than the {MAX_LETTERS}-letter bound"):
        eval_word(s.statements[1].expr, ctx)
    # the bound itself is allowed
    assert len(eval_word(parse(HEADER + "LET X = A[1]\nLET Y = X^10000\n").statements[1].expr, ctx)) == 10000


def test_any_power_of_an_empty_word_is_empty(jacob):
    huge = "9" * 30
    model = parse_model_text(builtin_model_text("jacob") + f"alias e = tau1^0\nalias f = e~^{huge}\n")
    assert model.aliases["e"] == model.aliases["f"] == ()
    s = parse(f"MODEL jacob\nLET E = ID\nASSERT_EQ E^{huge} E~^-{huge} (ID)^{huge} = ID\n")
    assert eval_word(s.statements[1].left, EvalContext(jacob, 2, {"E": Word(jacob, ())})).letters == ()


# ---------------------------------------------------------------------------
# the evaluator against the per-node reference it replaced


def _ref_free_reduce(letters):
    stack = []
    for g in letters:
        top = stack[-1] if stack else None
        if isinstance(g, Sym) and isinstance(top, Sym) and top.name == g.name:
            stack.pop()
            if top.exp + g.exp:
                stack.append(Sym(g.name, top.exp + g.exp))
        elif type(top) is type(g) and not isinstance(g, Sym) and top.label == g.label and top.exp + g.exp == 0:
            stack.pop()
        else:
            stack.append(g)
    return tuple(stack)


def _ref_power(w, k):
    """k - 1 concatenations of w, or of its inverse when k < 0."""
    if k == 0:
        return Word(w.model, ())
    base = w if k > 0 else invert(w)
    out = base
    for _ in range(abs(k) - 1):
        out = out * base
    return out


def _ref_eval(expr, ctx, sizes):
    """One ``Word`` per node; ``sizes`` collects the length of every word
    built, to tell which expressions pass the letter bound."""
    model, n = ctx.model, ctx.n
    if isinstance(expr, ESeq):
        out = Word(model, ())
        for part in expr.parts:
            out = out * _ref_eval(part, ctx, sizes)
    elif isinstance(expr, EId):
        out = Word(model, ())
    elif isinstance(expr, ECurve):
        vals = [i.eval(n) for i in expr.indices]
        if model.kind == "sn" and len(vals) == 1:
            vals = [0 if expr.family == "C" else 1, vals[0]]
        out = word(model, [Twist(model.curve(expr.family, *vals), -1 if expr.inverse else 1)])
    elif isinstance(expr, EShift):
        label, sign = model.shift(expr.ends[0].eval(n), expr.ends[1].eval(n))
        out = word(model, [Shift(label, -sign if expr.inverse else sign)])
    elif isinstance(expr, EName):
        exp = expr.power.eval(n) if expr.power is not None else 1
        exp = -exp if expr.inverse else exp
        if expr.name in ctx.env:
            out = _ref_power(ctx.env[expr.name], exp)
        elif expr.name in model.symmetries:
            out = word(model, [Sym(expr.name, exp)])
        else:
            out = _ref_power(word(model, [Sym(nm, e) for nm, e in model.aliases[expr.name]]), exp)
    elif isinstance(expr, EConj):
        w, g = _ref_eval(expr.body, ctx, sizes), _ref_eval(expr.by, ctx, sizes)
        out = Word(model, _ref_free_reduce((g * w * invert(g)).letters))
    elif isinstance(expr, EInv):
        out = invert(_ref_eval(expr.body, ctx, sizes))
    else:
        out = _ref_eval(expr.body, ctx, sizes)
        if expr.inverse:
            out = invert(out)
        if expr.power is not None:
            out = _ref_power(out, expr.power.eval(n))
            sizes.append(len(out))
        out = Word(model, _ref_free_reduce(out.letters))
    sizes.append(len(out))
    return out


_POWERS = st.one_of(st.none(), st.integers(-3, 3).map(INum))


def _expressions(kind):
    if kind == "sn":
        names = ["F", "E", "R", "rho1", "rho2", "tau", "rho3"]
        curve = st.builds(
            lambda fam, inv, genus, end, short: ECurve(
                fam, inv, (INum(end),) if short else (INum(genus if fam == "C" else genus + 1), INum(end))
            ),
            st.sampled_from(["A", "Ap", "B", "C"]),
            st.booleans(),
            st.integers(0, 1),
            st.sampled_from([-16, 1, 2, 18]),  # ends 1, 2 and their wrapped copies
            st.booleans(),
        )
        shift = st.builds(
            lambda inv, p, d: EShift(inv, (INum(p), INum(p + d))), st.booleans(), st.integers(1, 3), st.integers(1, 16)
        )
        leaves = st.one_of(curve, shift)
    else:
        names = ["F", "E", "tau1", "tau2", "H"]
        leaves = st.builds(
            lambda fam, inv, k: ECurve(fam, inv, (INum(k),)),
            st.sampled_from(["A", "Ap", "B", "C"]), st.booleans(), st.integers(-2, 2),
        )
    atoms = st.one_of(leaves, st.just(EId()), st.builds(EName, st.sampled_from(names), st.booleans(), _POWERS))
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(lambda ps: ESeq(tuple(ps)), st.lists(inner, min_size=2, max_size=4)),
            st.builds(EConj, inner, inner),
            st.builds(EInv, inner),
            st.builds(EGroup, inner, st.booleans(), _POWERS),
        ),
        max_leaves=12,
    )


def _contexts(sn17, jacob):
    sn = sn17.replace(aliases={"rho3": (Sym("R", 4), Sym("rho1", 1), Sym("R", -4))})
    f = parse(HEADER + "LET F = A[1] h[2,5] R~ B~[2,3] rho1^3\n").statements[0].expr
    jf = parse("MODEL jacob\nLET F = A[1] tau1 B~[-2] H^2\n").statements[0].expr
    return {
        "sn": EvalContext(sn, 17, {"F": eval_word(f, EvalContext(sn, 17)), "E": Word(sn, ())}),
        "jacob": EvalContext(jacob, 2, {"F": eval_word(jf, EvalContext(jacob, 2)), "E": Word(jacob, ())}),
    }


_R, _X = EName("R", False, None), ECurve("A", False, (INum(1),))


@settings(max_examples=100, deadline=None)
@given(case=st.one_of(*(_expressions(kind).map(lambda e, kind=kind: (kind, e)) for kind in ("sn", "jacob"))))
@example(case=("sn", EGroup(ESeq((_R, _R, _X, EInv(_X))), True, INum(-2))))  # merges and cancels in a group
@example(case=("sn", EConj(ESeq((_X, _R)), EName("F", True, INum(2)))))  # cancels across a CONJ
def test_letters_match_the_per_node_reference(sn17, jacob, case):
    kind, expr = case
    ctx = _contexts(sn17, jacob)[kind]
    sizes = []
    want = _ref_eval(expr, ctx, sizes)
    if max(sizes) > MAX_LETTERS:
        with pytest.raises(McgError, match="letter bound"):
            eval_word(expr, ctx)
    else:
        got = eval_word(expr, ctx)
        assert got == want and all(type(a) is type(b) for a, b in zip(got.letters, want.letters))
