from mcg.script import EvalContext, eval_word, parse
from mcg.words import Shift, Sym, Twist, free_reduce, invert, word


def fw(model, *parts):
    return word(model, parts)


def tw(model, fam, *idx, exp=1):
    return Twist(model.curve(fam, *idx), exp)


def test_invert_reverses_and_flips(sn17):
    w = fw(sn17, tw(sn17, "A", 1, 1), tw(sn17, "C", 0, 1))
    assert invert(w).letters == (tw(sn17, "C", 0, 1, exp=-1), tw(sn17, "A", 1, 1, exp=-1))
    assert invert(fw(sn17)).letters == ()


def test_invert_matches_reversal_oracle(sn17):
    # independent oracle: reverse the letter list and negate exponents by hand
    h, s = sn17.shift(13, 14)
    f1 = fw(
        sn17,
        tw(sn17, "A", 1, 1),
        tw(sn17, "C", 0, 1),
        tw(sn17, "B", 1, 4),
        tw(sn17, "B", 1, 6, exp=-1),
        tw(sn17, "C", 0, 8, exp=-1),
        tw(sn17, "Ap", 1, 9, exp=-1),
        Shift(h, s),
    )
    expected = []
    for g in reversed(f1.letters):
        if isinstance(g, Twist):
            expected.append(Twist(g.label, -g.exp))
        else:
            expected.append(Shift(g.label, -g.exp))
    assert list(invert(f1).letters) == expected
    assert len(invert(f1)) == 7
    assert free_reduce((f1 * invert(f1)).letters) == ()
    assert free_reduce((invert(invert(f1)) * invert(f1)).letters) == ()


def conj(model, body, by):
    """``CONJ(body, by)`` as a script evaluates it."""
    script = parse(f"MODEL sn\nASSERT_INVOLUTION CONJ({body}, {by})\n")
    return eval_word(script.statements[0].expr, EvalContext(model, model.n))


def test_conjugate_identity_conjugator(sn17):
    assert conj(sn17, "A[1,1]", "ID") == fw(sn17, tw(sn17, "A", 1, 1))


def test_conjugate_is_g_w_ginv(sn17):
    got = conj(sn17, "A[1,1]", "B[1,1]")
    assert got.letters == (
        tw(sn17, "B", 1, 1),
        tw(sn17, "A", 1, 1),
        tw(sn17, "B", 1, 1, exp=-1),
    )


def test_free_reduce_cancels_through_merges(sn17):
    w = fw(
        sn17,
        Sym("R", 2),
        Sym("R", -1),
        Sym("R", -1),
        tw(sn17, "A", 1, 1),
        tw(sn17, "A", 1, 1, exp=-1),
    )
    assert free_reduce(w.letters) == ()


def test_word_powers_expand_to_unit_letters(sn17):
    w = word(sn17, [Twist(sn17.curve("A", 1, 1), 3)])
    assert len(w) == 3
    assert all(g.exp == 1 for g in w.letters)
