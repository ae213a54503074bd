"""Value semantics of the package's records. The tuple-backed types (labels,
letters, automorphisms, parser tokens, script nodes, verdicts and reports)
hash as their field tuples, refuse assignment, keep their printed forms and
order as their field tuples within one type. The slotted records keep the
semantics of the frozen and mutable dataclasses they replaced."""

import copy
import pickle
from fractions import Fraction

import pytest

from mcg import load_model
from mcg.errors import McgError, OutOfWindow
from mcg.homology import HomologyResult, IntMatrix, TruncatedBasis, _Pushed
from mcg.labels import CurveLabel, ShiftLabel
from mcg.models import Automorphism, ValidationIssue, ValidationReport
from mcg.permgroup import Permutation
from mcg.replay import ProvedDistinct, ReplayReport, StatementResult
from mcg.rewrite import NormalizeResult, ProvedEqual, Unknown
from mcg.script import (
    EConj,
    ECurve,
    EGroup,
    EId,
    EInv,
    EName,
    ESeq,
    EShift,
    EvalContext,
    INum,
    IOp,
    IVar,
    ParamSpec,
    PermSpec,
    ProofScript,
    SAssertEq,
    SAssertInvolution,
    SAssertProjection,
    SGoalset,
    SLet,
    Token,
)
from mcg.shiftmap import ShiftCheckReport, StripPoint, strip_point
from mcg.sweeps import SweepReport
from mcg.words import Shift, Sym, Twist, Word

A = CurveLabel("Ap", 2, 5)
H = ShiftLabel(1, 2)
JACOB = load_model("jacob")
WORD = Word(JACOB, (Twist(JACOB.curve("A", 1), 1),))
BASIS = TruncatedBasis(JACOB, 2)
R = EName("R", False, None)

# each record once, with its repr at the frozen dataclass it replaced;
# "<jacob>" stands for the model's own repr
RECORDS = {
    INum(3): "INum(value=3)",
    IVar(): "IVar()",
    IOp("+", IVar(), INum(1)): "IOp(op='+', left=IVar(), right=INum(value=1))",
    ECurve("A", True, (INum(1), INum(2))): "ECurve(family='A', inverse=True, indices=(INum(value=1), INum(value=2)))",
    EShift(False, (INum(1), IVar())): "EShift(inverse=False, ends=(INum(value=1), IVar()))",
    EName("R", False, INum(2)): "EName(name='R', inverse=False, power=INum(value=2))",
    EConj(EName("F", False, None), R): (
        "EConj(body=EName(name='F', inverse=False, power=None), by=EName(name='R', inverse=False, power=None))"
    ),
    EInv(EId()): "EInv(body=EId())",
    EGroup(ESeq((EId(), EId())), True, INum(-2)): "EGroup(body=ESeq(parts=(EId(), EId())), inverse=True, power=INum(value=-2))",
    EId(): "EId()",
    ESeq((EId(), R)): "ESeq(parts=(EId(), EName(name='R', inverse=False, power=None)))",
    PermSpec("ncycle"): "PermSpec(kind='ncycle', cycles=())",
    SLet(3, "F", EId()): "SLet(line=3, name='F', expr=EId())",
    SAssertEq(4, EId(), EInv(EId())): "SAssertEq(line=4, left=EId(), right=EInv(body=EId()))",
    SAssertInvolution(5, R): "SAssertInvolution(line=5, expr=EName(name='R', inverse=False, power=None))",
    SAssertProjection(6, EId(), PermSpec("cycles", ((1, 2),))): (
        "SAssertProjection(line=6, expr=EId(), perm=PermSpec(kind='cycles', cycles=((1, 2),)))"
    ),
    SGoalset(7, (EId(),)): "SGoalset(line=7, goals=(EId(),))",
    ParamSpec((17, 19), "odd", 17): "ParamSpec(defaults=(17, 19), parity='odd', minimum=17)",
    ProofScript("sn", ParamSpec((17,)), "57069111", None, "t", (SLet(3, "F", EId()),), "x.mcg"): (
        "ProofScript(kind='sn', param=ParamSpec(defaults=(17,), parity=None, minimum=None), conventions='57069111', "
        "budget=None, title='t', statements=(SLet(line=3, name='F', expr=EId()),), path='x.mcg')"
    ),
    ValidationIssue("symmetry", "d"): "ValidationIssue(check='symmetry', detail='d')",
    ValidationReport("S(17)", 20, 10, ()): "ValidationReport(model='S(17)', window=20, labels_checked=10, issues=())",
    ProvedDistinct("homology", "w"): "ProvedDistinct(oracle='homology', witness='w')",
    ProvedEqual(("a",), 3): "ProvedEqual(trace=('a',), budget_used=3)",
    Unknown("budget exhausted", 5): "Unknown(reason='budget exhausted', budget_used=5)",
    NormalizeResult(True, WORD, (), 0): "NormalizeResult(normalized=True, word=Word(A[1]), trace=(), budget_used=0)",
    HomologyResult("Refuted", "w", 3, 9): "HomologyResult(status='Refuted', witness='w', valid_columns=3, checked_columns=9)",
    BASIS: "TruncatedBasis(model=<jacob>, window=2)",
    strip_point(1, Fraction(1, 2)): "(1, 1/2)",
    ShiftCheckReport(3, ("f",)): "ShiftCheckReport(checks_run=3, findings=('f',))",
    Permutation((2, 1, 3)): "Permutation(images=(2, 1, 3))",
    SweepReport("s", 3, 0, ()): "SweepReport(name='s', checked=3, degenerate_pairs=0, issues=())",
}

VALUES = [
    CurveLabel("A", 1, 3),
    CurveLabel("C", -3),
    ShiftLabel(4, 7),
    Twist(A, -1),
    Shift(H, 1),
    Sym("rho1", -2),
    Automorphism("sn", 17, -1, 2, True),
    Token("curve", "A[", 4, 9),
    *RECORDS,
]
assert len(RECORDS) == 31  # no two records above are equal


def _fields(x) -> tuple:
    return tuple(getattr(x, f) for f in x._fields)


@pytest.mark.parametrize("x", VALUES, ids=lambda x: type(x).__name__)
def test_hash_is_the_field_tuple_hash(x):
    # dict and set orders depend on these hashes; they equal the hashes of
    # the frozen dataclasses the types replaced
    assert hash(x) == hash(_fields(x))
    assert x == type(x)(*_fields(x)) == copy.copy(x)


@pytest.mark.parametrize("x", [*VALUES, WORD, JACOB], ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned(x):
    for name in x._fields[:1]:  # IVar and EId have no fields
        with pytest.raises(AttributeError):
            setattr(x, name, None)
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
    for x, text in RECORDS.items():
        assert repr(x).replace(repr(JACOB), "<jacob>") == text
    assert repr(WORD) == "Word(A[1])"
    assert repr(JACOB).startswith("SurfaceModel(kind='jacob', n=2, adjacency={'A': (Adjacency(family='A', ")
    assert repr(JACOB).endswith(", aliases={'H': (Sym(name='tau2', exp=1), Sym(name='tau1', exp=1))}, removed=frozenset())")


def test_field_free_nodes_are_truthy_and_equal_only_to_their_own_type():
    assert IVar() and EId()
    assert IVar() != EId() and EId() != IVar()
    assert IVar() == IVar() and EId() == EId()
    assert len({IVar(), IVar(), EId()}) == 2


def test_models_and_words_compare_as_before():
    # a model equals only itself; a word, its model and letters
    twin = JACOB.replace()
    assert twin != JACOB and hash(JACOB) == object.__hash__(JACOB)
    assert twin.aliases == JACOB.aliases and twin.kind == "jacob"
    assert WORD == Word(JACOB, WORD.letters) != Word(twin, WORD.letters)


def test_mutable_records_compare_by_fields_and_do_not_hash():
    ctx = EvalContext(JACOB, 2, {"E": WORD})
    mutable = [
        (
            StatementResult(0, 3, "Let", "LET F = ID", "bound", True),
            "StatementResult(index=0, line=3, kind='Let', statement='LET F = ID', verdict='bound', ok=True, "
            "oracle='', budget_used=0, witness='', wall_ms=0.0)",
        ),
        (
            ReplayReport("x.mcg", "S(17)", 17, 100),
            "ReplayReport(script='x.mcg', model='S(17)', n=17, budget=100, statements=[], wall_s=0.0, env={})",
        ),
        (ctx, "EvalContext(model=<jacob>, n=2, env={'E': Word(A[1])}, failed={})"),
        (IntMatrix(BASIS, {}, frozenset()), "IntMatrix(basis=TruncatedBasis(model=<jacob>, window=2), cols={}, valid=frozenset())"),
        (_Pushed({}, set(), None, None), "_Pushed(cols={}, dead=set(), relabel=None, error=None)"),
    ]
    for x, text in mutable:
        assert repr(x).replace(repr(JACOB), "<jacob>") == text
        with pytest.raises(TypeError):
            hash(x)
        twin = type(x)(*(getattr(x, f) for f in x._fields))
        assert twin == x
        setattr(twin, x._fields[1], "changed")
        assert twin != x
    assert EvalContext(JACOB, 2).env == {} and EvalContext(JACOB, 2).env is not EvalContext(JACOB, 2).env


def test_checked_constructors_still_check():
    with pytest.raises(McgError, match=r"point 4 in '\(1 4\)' is above n=3"):
        Permutation.from_cycles(3, "(1 4)")
    with pytest.raises(McgError, match="lies outside the strip"):
        strip_point(0, Fraction(5, 4))
    with pytest.raises(McgError, match="lies outside the strip"):
        StripPoint(Fraction(0), Fraction(-3, 2))
    with pytest.raises(McgError, match="not a permutation"):
        Permutation((1, 1, 3))
    with pytest.raises(OutOfWindow):
        TruncatedBasis(JACOB, 1)
    assert strip_point(0, -1) == StripPoint(Fraction(0), Fraction(-1))
    assert TruncatedBasis(JACOB, 2).span == BASIS.span == range(-4, 6)
    for x in (Permutation((2, 1, 3)), strip_point(1, Fraction(1, 2)), IVar()):
        assert pickle.loads(pickle.dumps(x)) == x


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
