import pytest
from importlib import resources

from mcg.errors import ParseError, Redefinition, UndefinedName
from mcg.script import (
    CONVENTIONS_ID,
    EvalContext,
    eval_word,
    parse,
    print_script,
)
from mcg.words import Sym, Twist

HEADER = f"MODEL sn\nPARAM n DEFAULT 17\nCONVENTIONS {CONVENTIONS_ID}\n"


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
        s2 = parse(print_script(s1), name)
        assert s1.key() == s2.key()
        # printing is a fixpoint
        assert print_script(s1) == print_script(s2)


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
