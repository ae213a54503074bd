"""Value semantics of the tuple-backed types: labels, letters, automorphisms
and parser tokens hash as their field tuples, refuse assignment, keep their
printed forms and order as their field tuples within one type."""

import pytest

from mcg.labels import CurveLabel, ShiftLabel
from mcg.models import Automorphism
from mcg.script import Token
from mcg.words import Shift, Sym, Twist

A = CurveLabel("Ap", 2, 5)
H = ShiftLabel(1, 2)

VALUES = [
    CurveLabel("A", 1, 3),
    CurveLabel("C", -3),
    ShiftLabel(4, 7),
    Twist(A, -1),
    Shift(H, 1),
    Sym("rho1", -2),
    Automorphism("sn", 17, -1, 2, True),
    Token("curve", "A[", 4, 9),
]


def _fields(x) -> tuple:
    return tuple(getattr(x, f) for f in x._fields)


@pytest.mark.parametrize("x", VALUES, ids=lambda x: type(x).__name__)
def test_hash_is_the_field_tuple_hash(x):
    # dict and set orders depend on these hashes; they equal the hashes of
    # the frozen dataclasses the types replaced
    assert hash(x) == hash(_fields(x))
    assert x == type(x)(*_fields(x))


@pytest.mark.parametrize("x", VALUES, ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned(x):
    with pytest.raises(AttributeError):
        setattr(x, x._fields[0], None)
    with pytest.raises(AttributeError):
        x.extra = 1


def test_printed_forms_are_unchanged():
    assert repr(A) == str(A) == f"{A}" == "A'[2,5]"
    assert repr(CurveLabel("C", -3)) == "C[-3]"
    assert repr(H) == "h[1,2]"
    assert repr(Twist(A, -1)) == "Twist(label=A'[2,5], exp=-1)"
    assert repr(Shift(H, 1)) == "Shift(label=h[1,2], exp=1)"
    assert repr(Sym("rho1", -2)) == "Sym(name='rho1', exp=-2)"
    assert repr(Automorphism("sn", 17, -1, 2, True)) == "Automorphism(kind='sn', n=17, u=-1, v=2, swap=True)"
    assert repr(Token("curve", "A[", 4, 9)) == "Token(kind='curve', value='A[', line=4, col=9)"


def test_defaults_and_properties():
    assert CurveLabel("B", 4).end is None
    assert H.ends == frozenset((1, 2))


def test_letters_of_different_types_never_compare_equal():
    c = CurveLabel("A", 1, 2)
    for exp in (1, -1):
        letters = [Twist(c, exp), Shift(ShiftLabel(1, 2), exp), Sym("R", exp)]
        for i, x in enumerate(letters):
            for y in letters[i + 1 :]:
                assert x != y and y != x
        assert len(set(letters)) == 3


def test_order_within_a_type_is_field_order():
    labels = [
        CurveLabel("C", 0, 2),
        CurveLabel("A", 2, 1),
        CurveLabel("Ap", 1, 3),
        CurveLabel("A", 1, 4),
        CurveLabel("B", 1, 1),
        CurveLabel("A", 1, 1),
    ]
    assert sorted(labels) == sorted(labels, key=_fields)
    assert sorted(labels)[0] == CurveLabel("A", 1, 1)
    shifts = [ShiftLabel(2, 3), ShiftLabel(1, 5), ShiftLabel(1, 2)]
    assert sorted(shifts) == [ShiftLabel(1, 2), ShiftLabel(1, 5), ShiftLabel(2, 3)]
    twists = [Twist(c, e) for c in labels for e in (1, -1)]
    assert sorted(twists) == sorted(twists, key=lambda t: (_fields(t.label), t.exp))
    assert Shift(H, -1) < Shift(H, 1) < Shift(ShiftLabel(1, 3), -1)
    assert Sym("R", 2) < Sym("rho1", -1) < Sym("rho1", 1)
