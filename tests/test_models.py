import time

import pytest

import mcg.homology
import mcg.sweeps
from mcg import intersection_number, load_model, validate_model
from mcg.errors import InvalidLabel, ModelFileError, UndefinedSymmetry
from mcg.labels import CurveLabel
from mcg.modelfile import builtin_model_text, parse_model_text
from mcg.models import Automorphism, ValidationIssue, ValidationReport
from mcg.sweeps import homology_property_sweep, pairing_preservation_sweep
from mcg.words import Sym


def test_loch_ness_adjacency_from_derivations(lochness):
    # the chain steps the one-ended derivation leans on
    assert intersection_number(lochness, lochness.curve("B", -3), lochness.curve("C", -2)) == 1
    assert intersection_number(lochness, lochness.curve("B", 3), lochness.curve("C", 2)) == 1
    assert intersection_number(lochness, lochness.curve("C", 2), lochness.curve("B", 2)) == 1
    assert intersection_number(lochness, lochness.curve("B", -3), lochness.curve("C", 3)) == 0


def test_different_ends_disjoint(sn17):
    a1 = sn17.curve("A", 1, 1)
    a2 = sn17.curve("A", 1, 2)
    assert intersection_number(sn17, a1, a2) == 0
    assert intersection_number(sn17, a1, a1) == 0


def test_gap_curve_meets_both_neighbour_strands(sn17):
    c0 = sn17.curve("C", 0, 3)
    assert intersection_number(sn17, c0, sn17.curve("B", 1, 3)) == 1
    assert intersection_number(sn17, c0, sn17.curve("B", 1, 4)) == 1
    assert intersection_number(sn17, c0, sn17.curve("B", 1, 5)) == 0
    # wraps around the last end
    cn = sn17.curve("C", 0, 17)
    assert intersection_number(sn17, cn, sn17.curve("B", 1, 1)) == 1


def test_star_pattern_within_one_strand(sn17):
    b = sn17.curve("B", 2, 5)
    for fam, idx in (("A", 2), ("Ap", 2), ("C", 1), ("C", 2)):
        assert intersection_number(sn17, sn17.curve(fam, idx, 5), b) == 1
    assert intersection_number(sn17, sn17.curve("A", 2, 5), sn17.curve("C", 2, 5)) == 0
    assert intersection_number(sn17, sn17.curve("A", 2, 5), sn17.curve("Ap", 2, 5)) == 0


def test_apply_symmetry_rho3(sn17):
    model = sn17.replace(aliases={"rho3": (("R", 4), ("rho1", 1), ("R", -4))})
    img = model.automorphism("rho3").act_curve(model.check_curve(sn17.curve("A", 1, 1)))
    assert img == sn17.curve("Ap", 1, 9)
    assert model.automorphism("rho3").act_curve(model.check_curve(sn17.curve("C", 0, 1))) == sn17.curve("C", 0, 8)
    assert model.automorphism("rho3").act_curve(model.check_curve(sn17.curve("B", 1, 4))) == sn17.curve("B", 1, 6)


def test_apply_symmetry_rotation_shifts_ends(sn17):
    model = sn17.replace(aliases={"R2": (("R", 2),)})
    assert model.automorphism("R2").act_curve(model.check_curve(sn17.curve("A", 1, 1))) == sn17.curve("A", 1, 3)


def test_apply_symmetry_chain_shift_inverse(lochness):
    model = lochness.replace(aliases={**lochness.aliases, "Hinv": (("H", -1),)})
    img = model.automorphism("Hinv").act_curve(model.check_curve(lochness.curve("B", 2)))
    assert img == lochness.curve("B", 1)


def test_apply_symmetry_shift_reflection_flips(sn17):
    model = sn17.replace(aliases={"rho3": (("R", 4), ("rho1", 1), ("R", -4))})
    h, _ = sn17.shift(13, 14)
    assert model.automorphism("rho3").act_shift(h, 1) == (h, -1)
    assert sn17.automorphism("R").act_shift(h, 1) == (sn17.shift(14, 15)[0], 1)


def test_identity_on_shift(sn16):
    model = sn16.replace(aliases={"e": ()})
    h, _ = sn16.shift(1, 2)
    assert model.automorphism("e").act_shift(h, 1) == (h, 1)


def test_tau_has_no_label_action(sn17):
    with pytest.raises(UndefinedSymmetry):
        sn17.automorphism("tau").act_curve(sn17.check_curve(sn17.curve("A", 1, 1)))


def test_invalid_labels_rejected(sn17, lochness):
    with pytest.raises(InvalidLabel):
        sn17.curve("A", 0, 1)  # genus starts at 1
    with pytest.raises(InvalidLabel):
        sn17.curve("B", 1)  # needs [genus, end]
    with pytest.raises(InvalidLabel):
        lochness.curve("A", 0)  # skipped index
    assert lochness.curve("C", 0) == CurveLabel("C", 0)
    with pytest.raises(InvalidLabel):
        sn17.shift(3, 3)


def test_validate_clean_models(sn17, jacob):
    assert validate_model(sn17, 8).ok
    assert validate_model(jacob, 8).ok


def test_validate_names_deleted_adjacency(sn17):
    broken = sn17.without_adjacency(sn17.curve("A", 2, 5), sn17.curve("B", 2, 5))
    report = validate_model(broken, 6)
    assert not report.ok
    assert any("equivariance" in str(i) for i in report.issues)
    joined = " ".join(map(str, report.issues))
    assert "5" in joined  # the violating strand is named


def test_equivariance_independently(sn17):
    # independent re-check: enumerate pairs in a small window and compare
    # intersection numbers under every labelled symmetry directly
    labels = sn17.labels_in_window(3)
    for name in ("R", "rho1", "rho2"):
        aut = sn17.automorphism(name)
        for c1 in labels[::7]:
            for c2 in labels[::11]:
                assert sn17.intersection(c1, c2) == sn17.intersection(
                    aut.act_curve(c1), aut.act_curve(c2)
                )


def test_order_relations_on_labels(sn16):
    labels = sn16.labels_in_window(3)
    r = sn16.automorphism("R")
    for c in labels:
        img = c
        for _ in range(sn16.n):
            img = r.act_curve(img)
        assert img == c
    for name in ("rho1", "rho2"):
        s = sn16.automorphism(name)
        for c in labels:
            assert s.act_curve(s.act_curve(c)) == c


def test_model_file_errors():
    with pytest.raises(ModelFileError) as err:
        parse_model_text("kind sn\nadj A[i,j] Q[i,j]\n", n=5, path="bad.model")
    assert "bad.model" in str(err.value) and "2" in str(err.value)
    with pytest.raises(ModelFileError):
        parse_model_text("adj A[i,j] B[i,j]\n", n=5)  # adj before kind
    with pytest.raises(ModelFileError):
        parse_model_text("kind sn\nsym R end j -> 2*j\n", n=5)  # not invertible affine


def test_unbalanced_adjacency_rule_reports_position():
    # a variable on one side only would leave the other side's index unbound
    for rule in ("adj A[i,j] B[3,j]", "adj C[0,j] B[1,4]"):
        with pytest.raises(ModelFileError) as err:
            parse_model_text(f"kind sn\n{rule}\n", n=5, path="bad.model")
        assert err.value.line == 2 and "both sides" in str(err.value)
    with pytest.raises(ModelFileError) as err:
        parse_model_text("kind jacob\nadj A[k] B[3]\n", path="bad.model")
    assert err.value.line == 2 and "genus" in str(err.value)



# a sym line each kind must reject, put in place of a shipped line, and the
# words of its error
SYM_MISFITS = [
    ("lochness", "sym tau2 chain k -> -k", "sym tau2 chain k -> -k swap", "no A' family"),
    ("jacob", "sym tau1 chain k -> 1-k", "sym tau1 end j -> 1-j", "sym end maps do not apply to kind jacob"),
    ("lochness", "sym tau1 chain k -> 1-k", "sym tau1 end j -> 1-j", "sym end maps do not apply to kind lochness"),
    ("sn", "sym R end j -> j+1", "sym R chain k -> k+1", "sym chain maps do not apply to kind sn"),
]


@pytest.mark.parametrize("kind, line, misfit, words", SYM_MISFITS)
def test_sym_line_must_fit_the_kind(kind, line, misfit, words):
    text = builtin_model_text(kind)
    lines = text.splitlines()
    at = lines.index(line) + 1
    parse_model_text(text, n=17, path=f"{kind}.model")
    with pytest.raises(ModelFileError) as err:
        parse_model_text(text.replace(line, misfit), n=17, path=f"{kind}.model")
    assert err.value.line == at and words in err.value.message
    assert str(err.value).startswith(f"{kind}.model:{at}: ")

# printed neighbour sets at the edges of the adjacency rules: the
# constant-genus gap rule across the end wrap and read backwards, the chain
# rules at index 0, and Loch Ness next to its skipped index
EDGE_NEIGHBOURS = [
    (("sn", 17), ("C", 0, 17), {"B[1,17]", "B[1,1]"}),
    (("sn", 17), ("B", 1, 1), {"A[1,1]", "A'[1,1]", "C[0,17]", "C[0,1]", "C[1,1]"}),
    (("jacob", None), ("B", 0), {"A[0]", "A'[0]", "C[-1]", "C[0]"}),
    (("jacob", None), ("C", -1), {"B[-1]", "B[0]"}),
    (("lochness", None), ("B", 1), {"A[1]", "C[0]", "C[1]"}),
]


@pytest.mark.parametrize("model_args, curve, expected", EDGE_NEIGHBOURS)
def test_neighbours_at_rule_edges(model_args, curve, expected):
    model = load_model(*model_args)
    assert {model.format_curve(x) for x in model.neighbors(model.curve(*curve))} == expected


@pytest.mark.parametrize(
    "kind, n, pairs", [("sn", 16, 400), ("sn", 17, 425), ("jacob", None, 51), ("lochness", None, 38)]
)
def test_neighbour_pairs_in_window_6(kind, n, pairs):
    model = load_model(kind, n)
    labels = set(model.labels_in_window(6))
    assert len({frozenset((c, x)) for c in labels for x in model.neighbors(c) if x in labels}) == pairs


def test_alias_resolves_to_primitive_symmetries(jacob):
    text = builtin_model_text("jacob") + "alias G = H~ tau1^3 H^2\nalias K = G^-2 H~ tau2^0\n"
    model = parse_model_text(text)
    assert model.aliases["H"] == (("tau2", 1), ("tau1", 1))
    assert model.aliases["G"] == (
        ("tau1", -1), ("tau2", -1), ("tau1", 3), ("tau2", 1), ("tau1", 1), ("tau2", 1), ("tau1", 1)
    )
    assert {name for word in model.aliases.values() for name, _ in word} == {"tau1", "tau2"}
    # Sym letters, equal to their (name, exp) pairs; tau2^0 is dropped
    assert model.aliases["K"][-1] == Sym("tau2", -1) == ("tau2", -1)
    assert all(type(g) is Sym and g.exp for word in model.aliases.values() for g in word)
    # the expansion acts as the word it was written as
    written = model.replace(
        aliases={
            "H": (("tau2", 1), ("tau1", 1)),
            "G": (("H", -1), ("tau1", 3), ("H", 2)),
            "K": (("G", -2), ("H", -1), ("tau2", 0)),
        },
    )
    for name in ("H", "G", "K"):
        assert model.automorphism(name) == written.automorphism_of_word(written.aliases[name])
    assert model.automorphism("H") == jacob.automorphism("H")


def test_alias_expansion_is_bounded():
    text = builtin_model_text("jacob")
    line = text.count("\n") + 1
    for alias in ("G = H^6000", "G = H~^-5000 tau1", "G = tau1 H^-5000"):
        with pytest.raises(ModelFileError) as err:
            parse_model_text(text + f"alias {alias}\n", path="big.model")
        assert str(err.value) == f"big.model:{line}: alias 'G' expands to more than 10000 letters"
    assert len(parse_model_text(text + "alias G = H^5000\n").aliases["G"]) == 10_000


def test_loch_ness_issues_name_printed_labels(monkeypatch, lochness):
    # internal chain coordinate 0 of A and B prints as -1 on the one-ended model
    broken = lochness.without_adjacency(lochness.curve("A", -1), lochness.curve("B", -1))
    assert homology_property_sweep(broken, 4).issues == ("i(A[-1],B[-1])=0 but |<.,.>|=1",)
    assert [str(i) for i in validate_model(broken, 4).issues] == [
        "equivariance: tau1: i(A[-1], x) not preserved near ['B[1]']",
        "equivariance: tau1: i(A[1], x) not preserved near ['B[-1]']",
        "equivariance: tau1: i(B[-1], x) not preserved near ['A[1]']",
        "equivariance: tau1: i(B[1], x) not preserved near ['A[-1]']",
    ]

    def double(v, cls, mates, exp):
        for k in v:
            v[k] *= 2
        return 1

    monkeypatch.setattr(mcg.sweeps, "_transvect", double)
    named = [i.split(" breaks the pairing at ")[0] for i in pairing_preservation_sweep(lochness, 1).issues]
    printed = ("A[-2]", "A[-1]", "A[1]", "B[-2]", "B[-1]", "B[1]", "C[-1]", "C[0]", "C[1]")
    assert named == [f"twist about {x}" for x in printed]


@pytest.mark.parametrize("kind, n", [("sn", 17), ("jacob", None)])
def test_pairing_sweep_carries_keys_by_the_oracle_relabel(monkeypatch, kind, n):
    model = load_model(kind, n)
    assert pairing_preservation_sweep(model, 2).issues == ()
    monkeypatch.setattr(mcg.homology._Relabel, "forward", lambda self, key: key ^ 1)
    issues = pairing_preservation_sweep(model, 2).issues
    assert issues and all(" mixes a/b kinds at " in i for i in issues)


def test_homology_sweep_flags_deleted_adjacency(sn17):
    broken = sn17.without_adjacency(sn17.curve("A", 2, 5), sn17.curve("B", 2, 5))
    assert homology_property_sweep(broken, 4).issues == ("i(A[2,5],B[2,5])=0 but |<.,.>|=1",)


# an added rule on S(5) and, in label order, the window-3 pairs it declares
ZERO_PAIRING_CROSSINGS = {
    "adj A[i,j] C[i,j]": [(f"A[{i},{j}]", f"C[{i},{j}]") for j in range(1, 6) for i in range(1, 4)],
    "adj A[i,j] B[i+1,j]": [(f"A[{i},{j}]", f"B[{i + 1},{j}]") for j in range(1, 6) for i in range(1, 3)],
}


@pytest.mark.parametrize("rule", sorted(ZERO_PAIRING_CROSSINGS))
def test_homology_sweep_flags_declared_crossing_with_zero_pairing(rule):
    # each added pair has pairing 0; A[i,j] and B[i+1,j] share no basis key
    # and no mate either, so only the declared neighbours bring them together
    model = parse_model_text(builtin_model_text("sn") + rule + "\n", n=5)
    pairs = ZERO_PAIRING_CROSSINGS[rule]
    assert homology_property_sweep(model, 3).issues == tuple(
        f"i({a},{b})=1 but |<.,.>|=0" for a, b in pairs
    ) + tuple(f"matrices of {a},{b} commute despite i=1" for a, b in pairs)


def test_degenerate_n_rejected():
    with pytest.raises(Exception):
        parse_model_text("kind sn\n", n=2)


def _power_by_composition(model, name, k):
    """The loop a closed-form power replaces: |k| compositions."""
    a = model.automorphism(name)
    if k < 0:
        a, k = a.inverse(), -k
    out = Automorphism.identity(model)
    for _ in range(k):
        out = a.compose(out)
    return out


@pytest.mark.parametrize(
    "kind, n, name",
    [("sn", 17, "R"), ("sn", 17, "rho1"), ("sn", 16, "rho2"), ("jacob", None, "H"), ("jacob", None, "tau1"), ("lochness", None, "tau2")],
)
def test_symmetry_powers_match_repeated_composition(kind, n, name):
    model = load_model(kind, n)
    for k in range(-40, 41):
        assert model.automorphism_of_word([(name, k)]) == _power_by_composition(model, name, k), k


def test_huge_exponent_is_closed_form(sn17):
    t0 = time.perf_counter()
    big = sn17.automorphism_of_word([("R", 10**9)])
    assert time.perf_counter() - t0 < 1.0  # the loop it replaces ran for minutes
    assert big == sn17.automorphism_of_word([("R", 10**9 % 17)])
    assert sn17.automorphism_of_word([("rho1", -(10**9) - 1)]) == sn17.automorphism("rho1")


def _validate_reference(model, window):
    """``SurfaceModel.validate`` label by label: each label's neighbours and
    each symmetry image are computed again wherever they are needed."""
    issues = []
    labels = model.labels_in_window(window)

    fmt = model.format_curve
    for c in labels:
        for x in model.neighbors(c):
            if c not in model.neighbors(x):
                a, b = fmt(c), fmt(x)
                issues.append(ValidationIssue("symmetry", f"i({a},{b})=1 but i({b},{a})=0"))

    affine = {nm: sym.action for nm, sym in model.symmetries.items() if sym.action is not None}
    for nm, aut in affine.items():
        for c in labels:
            img = aut.act_curve(c)
            want = {aut.act_curve(x) for x in model.neighbors(c)}
            got = set(model.neighbors(img))
            if want != got:
                diff = (want ^ got) or {img}
                detail = f"{nm}: i({fmt(c)}, x) not preserved near {sorted(map(fmt, diff))}"
                issues.append(ValidationIssue("equivariance", detail))
                if len(issues) > 40:
                    return ValidationReport(model.describe(), window, len(labels), tuple(issues))

    for nm, aut in affine.items():
        if nm == "R":
            if not aut.power(model.n).is_identity():
                issues.append(ValidationIssue("order", f"R^{model.n} is not the identity"))
        else:
            if not aut.compose(aut).is_identity():
                issues.append(ValidationIssue("order", f"{nm}^2 is not the identity on labels"))

    if model.kind == "sn":
        h, s = model.shift(1, 2)
        for nm, aut in affine.items():
            if aut.u != -1:
                continue
            h1, s1 = aut.act_shift(h, s)
            h2, s2 = aut.act_shift(h1, s1)
            if (h2, s2) != (h, s):
                issues.append(ValidationIssue("shift", f"{nm} applied twice moved {h}"))

    return ValidationReport(model.describe(), window, len(labels), tuple(issues))


SHIPPED = [("sn", 16), ("sn", 17), ("jacob", None), ("lochness", None)]
# one adjacency instance deleted from each shipped model, as printed indices
DELETED = {"sn": (("A", 1, 5), ("B", 1, 5)), "jacob": (("A", 1), ("B", 1)), "lochness": (("A", -1), ("B", -1))}
WINDOWS = [1, 2, 3, 4, 5, 6, 20]


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("kind, n", SHIPPED)
def test_validate_equals_the_label_by_label_reference(kind, n, window):
    model = load_model(kind, n)
    c1, c2 = DELETED[kind]
    broken = model.without_adjacency(model.curve(*c1), model.curve(*c2))
    for m, ok in ((model, True), (broken, False)):
        report = m.validate(window)
        assert report == _validate_reference(m, window) and report.ok == ok


# an added rule that only strand 1 obeys: every symmetry moving strand 1
# breaks equivariance there, 11 issues per genus until the cap from window 4
ONE_STRAND_RULE = "adj A[i,1] C[i,1]"


@pytest.mark.parametrize("window", WINDOWS)
def test_validate_equals_the_reference_up_to_the_issue_cap(window):
    model = parse_model_text(builtin_model_text("sn") + ONE_STRAND_RULE + "\n", n=17)
    report = model.validate(window)
    assert report == _validate_reference(model, window)
    assert len(report.issues) == {1: 11, 2: 22, 3: 33}.get(window, 41)
