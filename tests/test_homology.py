import ast
import json
import os
import random
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcg
from mcg.cli import main
from mcg.errors import UndefinedSymmetry
from mcg.homology import (
    HomologyResult,
    TruncatedBasis,
    _fmt_vec,
    _support_bound,
    key_of,
    key_tuple,
    pairing,
    transvection_selftest,
    verify_identity_homology,
    word_matrix,
)
from mcg.sweeps import random_word
from mcg.words import Shift, Sym, Twist, Word, invert, word
from oracle_digest import COMMITTED, oracle_digest


def tw(model, fam, *idx, exp=1):
    return Twist(model.curve(fam, *idx), exp)


def W(model, *parts):
    return word(model, parts)


def _twist_apply(v, cls, exp):
    """The transvection x -> x + exp <x, c> c on one vector, written
    independently of the kernel's ``_transvect``: the reference the kernel
    is checked against."""
    s = pairing(v, cls)
    if not s:
        return v
    out = dict(v)
    for key, c in cls.items():
        out[key] = out.get(key, 0) + exp * s * c
        if not out[key]:
            del out[key]
    return out


def test_selftest_passes():
    transvection_selftest()


def test_selftest_fails_when_out_of_window_columns_count_as_valid(monkeypatch):
    monkeypatch.setattr(TruncatedBasis, "in_window", lambda self, key: True)
    with pytest.raises(AssertionError, match=r"the twist about C\[2\] leaves b_2 valid"):
        transvection_selftest()


def test_selfcheck_fails_a_kernel_without_the_crossing_mask(monkeypatch, capsys):
    # without the mask, h[1,2] carries the repelling end's genus-1 column to
    # genus 0 instead of masking it; only the self test's shift looks there
    monkeypatch.setattr(mcg.homology, "_crossing", lambda model, repel: ())
    assert main(["selfcheck"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if not line.startswith("[ok]")] == [
        "[FAIL] transvection sign convention self-test: "
        "h[1,2] no longer masks the repelling end's genus-1 column on S(3)"
    ]


def test_selfcheck_runs_the_oracle_kernel(monkeypatch, capsys):
    calls = []
    push = mcg.homology._push

    def counted(*args, **kwargs):
        calls.append(args)
        return push(*args, **kwargs)

    monkeypatch.setattr(mcg.homology, "_push", counted)
    assert main(["selfcheck"]) == 0
    assert len(calls) > 0


def test_selfcheck_fails_with_every_twist_inverted(monkeypatch, capsys):
    # the braid identity and the pairing hold for either sign: only the
    # self test's image of b_1 under the twist about A[1] tells them apart
    step = mcg.homology._transvect

    def flipped(v, cls, mates, exp):
        return step(v, cls, mates, -exp)

    monkeypatch.setattr(mcg.homology, "_transvect", flipped)
    monkeypatch.setattr(mcg.sweeps, "_transvect", flipped)
    with pytest.raises(AssertionError, match=r"sends b_1 to A\[1\]\+B\[1\], not B\[1\]-A\[1\]"):
        transvection_selftest()
    assert main(["selfcheck"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if not line.startswith("[ok]")] == [
        "[FAIL] transvection sign convention self-test: "
        "the twist about A[1] sends b_1 to A[1]+B[1], not B[1]-A[1]"
    ]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_key_layout_round_trips_and_pairs_a_with_b(sn16, sn17, jacob, lochness, data):
    # keys at any genus or index, zero, negative and past every window
    # included, turn into their tuples and back
    model = data.draw(st.sampled_from((sn16, sn17, jacob, lochness)))
    kind = data.draw(st.sampled_from("ab"))
    if model.kind == "sn":
        position = (data.draw(st.integers(1, model.n)), data.draw(st.integers(-60, 60)))
    else:
        position = (data.draw(st.integers(-60, 60)),)
    key = key_of(model, kind, *position)
    assert key_tuple(model, key) == (kind, *position)
    assert key_of(model, *key_tuple(model, key)) == key
    # the mate is the other kind at the same position, and the low bit is
    # the sign of the pairing
    mate = key ^ 1
    assert key_tuple(model, mate) == ("b" if kind == "a" else "a", *position)
    assert pairing({key: 1}, {mate: 1}) == (1 if kind == "a" else -1)
    assert pairing({key: 1}, {key: 1}) == 0


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fmt_vec_orders_keys_as_their_tuples(sn16, jacob, lochness, data):
    model = data.draw(st.sampled_from((sn16, jacob, lochness)))
    if model.kind == "sn":
        tuples = st.tuples(st.sampled_from("ab"), st.integers(1, model.n), st.integers(-3, 45))
    else:
        tuples = st.tuples(st.sampled_from("ab"), st.integers(-45, 45))
    vec = data.draw(st.dictionaries(tuples, st.integers(-3, 3).filter(bool), max_size=6))
    basis = TruncatedBasis(model, 3)
    parts = []
    for t in sorted(vec):
        c = vec[t]
        lab = basis.key_label(key_of(model, *t)).removesuffix("-class")
        parts.append(("+" if c > 0 else "-") + (f"{abs(c)}*" if abs(c) != 1 else "") + lab)
    want = "".join(parts).removeprefix("+") or "0"
    assert _fmt_vec(basis, {key_of(model, *t): c for t, c in vec.items()}) == want


def test_fmt_vec_sorts_by_kind_then_end_then_genus(sn16):
    # key values run genus-major, the printed order end-major
    k = partial(key_of, sn16)
    v = {k("b", 1, 1): 1, k("a", 2, 1): 1, k("a", 1, 3): -2}
    assert sorted(v) == [k("b", 1, 1), k("a", 2, 1), k("a", 1, 3)]
    assert _fmt_vec(TruncatedBasis(sn16, 3), v) == "-2*A[3,1]+A[1,2]+B[1,1]"


def _identity_on_valid(m):
    return all(m.cols[k] == {k: 1} for k in m.valid)


def _preserves_pairing_on_valid(m):
    keys = [k for k in m.basis.keys() if k in m.valid]
    return all(
        pairing(m.cols[x], m.cols[y]) == pairing({x: 1}, {y: 1})
        for i, x in enumerate(keys)
        for y in keys[i:]
    )


def _agree_on_valid(m1, m2):
    """Number of columns valid in both matrices, after asserting that the
    two matrices agree on each of them."""
    common = m1.valid & m2.valid
    for key in common:
        assert m1.cols[key] == m2.cols[key], key
    return len(common)


def test_twist_is_transvection_on_symplectic_pair(lochness):
    basis = TruncatedBasis(lochness, 4)
    k = partial(key_of, lochness)
    m = word_matrix(basis, W(lochness, tw(lochness, "A", 1)))
    assert m.cols[k("a", 1)] == {k("a", 1): 1}
    assert m.cols[k("b", 1)] == {k("b", 1): 1, k("a", 1): -1}
    assert m.cols[k("b", 2)] == {k("b", 2): 1}
    assert _preserves_pairing_on_valid(m)


def test_twist_identity_on_disjoint_strand(sn16):
    basis = TruncatedBasis(sn16, 4)
    m = word_matrix(basis, W(sn16, tw(sn16, "A", 1, 1)))
    for key in basis.keys():
        if key_tuple(sn16, key)[1] != 1:
            assert m.cols[key] == {key: 1}


def test_braid_identity_at_matrix_level(lochness):
    basis = TruncatedBasis(lochness, 4)
    b, c = tw(lochness, "B", 1), tw(lochness, "C", 1)
    assert abs(pairing(basis.class_of(b.label), basis.class_of(c.label))) == 1
    assert _agree_on_valid(word_matrix(basis, W(lochness, b, c, b)), word_matrix(basis, W(lochness, c, b, c))) == 18


def test_out_of_window_twist_rejected(lochness):
    # C[3] has class a_3 - a_4; a_4 lies outside window 3, so exactly the
    # column pairing with it, b_3, is masked
    basis = TruncatedBasis(lochness, 3)
    k = partial(key_of, lochness)
    m = word_matrix(basis, W(lochness, tw(lochness, "C", 3)))
    assert set(basis.keys()) - m.valid == {k("b", 3)}


def test_symmetry_matrix_involution_and_rotation_order(sn16):
    basis = TruncatedBasis(sn16, 3)
    assert _preserves_pairing_on_valid(word_matrix(basis, W(sn16, Sym("rho1", 1))))
    for w in (W(sn16, Sym("rho1", 1), Sym("rho1", 1)), W(sn16, *[Sym("R", 1)] * sn16.n)):
        m = word_matrix(basis, w)
        assert len(m.valid) == 96
        assert _identity_on_valid(m)
        assert _preserves_pairing_on_valid(m)


def test_symmetry_conjugates_twist_matrix(sn17):
    model = sn17.replace(aliases={"rho3": (("R", 4), ("rho1", 1), ("R", -4))})
    basis = TruncatedBasis(model, 3)
    got = word_matrix(basis, W(model, Sym("rho3", 1), tw(sn17, "A", 1, 1), Sym("rho3", 1)))
    image = word_matrix(basis, W(model, tw(sn17, "Ap", 1, 9)))
    assert _agree_on_valid(got, image) == 102


def test_shift_matrix_interior_and_mask(lochness):
    # the distinguished shift is the alias H = tau1 tau2
    basis = TruncatedBasis(lochness, 4)
    k = partial(key_of, lochness)
    m = word_matrix(basis, W(lochness, Sym("H", 1)))
    assert m.cols[k("a", 0)] == {k("a", 1): 1}
    assert k("a", 4) not in m.valid  # image leaves the window
    assert k("b", 4) not in m.valid


def test_sn_shift_edges_masked(sn16):
    basis = TruncatedBasis(sn16, 4)
    k = partial(key_of, sn16)
    h, _ = sn16.shift(1, 2)
    m = word_matrix(basis, W(sn16, Shift(h, 1)))
    assert m.cols[k("a", 2, 2)] == {k("a", 2, 3): 1}  # attracting strand moves up
    assert m.cols[k("a", 1, 2)] == {k("a", 1, 1): 1}  # repelling strand moves down
    assert k("a", 1, 1) not in m.valid  # would cross the central region
    assert k("a", 2, 4) not in m.valid  # leaves the window
    assert m.cols[k("a", 3, 2)] == {k("a", 3, 2): 1}  # untouched strand


def test_shift_times_inverse_identity_on_interior(sn16):
    basis = TruncatedBasis(sn16, 5)
    k = partial(key_of, sn16)
    h, _ = sn16.shift(1, 2)
    w = word(sn16, [Shift(h, 1), Shift(h, -1)])
    m = word_matrix(basis, w)
    assert _identity_on_valid(m)
    # the inverse shift acts first: strand 2 moves toward the centre, and its
    # genus-1 column crosses the central region, the only mask. Strand 1
    # moves out past the window and back, and its top column comes back
    # valid with its exact image.
    assert set(basis.keys()) - m.valid == {k("a", 2, 1), k("b", 2, 1)}
    assert m.cols[k("a", 1, 5)] == {k("a", 1, 5): 1}
    assert m.cols[k("a", 2, 1)] == {}


def test_word_matrix_empty_word(sn16):
    basis = TruncatedBasis(sn16, 3)
    m = word_matrix(basis, Word(sn16, ()))
    assert m.valid == frozenset(basis.keys())
    assert _identity_on_valid(m)


def test_word_matrix_homomorphism_on_valid(sn16):
    # the matrix of a product is the composite of its letters' actions
    # (Farb-Margalit, Prop. 6.3), checked column by column
    w1 = W(sn16, tw(sn16, "A", 1, 1), Sym("R", 1))
    w2 = word(sn16, [tw(sn16, "B", 2, 2), Shift(sn16.shift(1, 2)[0], 1)])
    _assert_matches_reference(TruncatedBasis(sn16, 5), w1 * w2)


def test_involution_square_identity_matrix(sn17):
    m = (sn17.n + 1) // 2
    f1 = W(
        sn17,
        tw(sn17, "A", 1, 1), tw(sn17, "C", 0, 1), tw(sn17, "B", 1, 4),
        tw(sn17, "B", 1, 6, exp=-1), tw(sn17, "C", 0, 8, exp=-1), tw(sn17, "Ap", 1, 9, exp=-1),
        Shift(sn17.shift(m + 4, m + 5)[0], 1),
    )
    rho3 = W(sn17, Sym("R", 4), Sym("rho1", 1), Sym("R", -4))
    basis = TruncatedBasis(sn17, 18)
    sq = word_matrix(basis, rho3 * f1 * rho3 * f1)
    assert sq.valid
    assert _identity_on_valid(sq)


def test_verify_identity_thmC_window20(jacob):
    hh = [Sym("tau2", 1), Sym("tau1", 1)]
    tau3 = word(jacob, hh * 6 + [Sym("tau2", 1)] + [Sym(g.name, -g.exp) for g in reversed(hh * 6)])
    x = W(jacob, tw(jacob, "A", 1), tw(jacob, "Ap", 6), tw(jacob, "C", 1), tw(jacob, "B", 3))
    rhs = W(jacob, tw(jacob, "A", 13), tw(jacob, "Ap", 8), tw(jacob, "C", 12), tw(jacob, "B", 11))
    res = verify_identity_homology(tau3 * x * invert(tau3), rhs, 20)
    assert res.status == "Consistent"


def test_verify_refutes_single_twist(sn16):
    res = verify_identity_homology(W(sn16, tw(sn16, "A", 1, 1)), Word(sn16, ()), 6)
    assert res.status == "Refuted"
    assert "B[1,1]" in res.witness


def test_verify_refutes_a_translation_past_the_window(jacob):
    # the images are exact past the window, so the first column already
    # tells a translation by 7 from the identity
    w = word(jacob, [Sym("tau2", 1), Sym("tau1", 1)] * 7)
    res = verify_identity_homology(w, Word(jacob, ()), 3)
    assert str(res) == "Refuted(1/14 columns) [A[-3]-class maps to A[4] vs A[-3]]"


def test_conjugated_twist_is_transvection_about_image_class(sn17):
    # B1 A1 B1~ acts as the transvection about the image of the a-class
    # under the b-twist: computed directly as an independent check
    basis = TruncatedBasis(sn17, 4)
    k = partial(key_of, sn17)
    w = word(
        sn17,
        [tw(sn17, "B", 1, 1), tw(sn17, "A", 1, 1), tw(sn17, "B", 1, 1, exp=-1)],
    )
    got = word_matrix(basis, w)
    image_class = {k("a", 1, 1): 1, k("b", 1, 1): 1}  # T_b(a) = a + <a,b> b
    expected_cols = {}
    for key in basis.keys():
        expected_cols[key] = _twist_apply({key: 1}, image_class, 1)
    for key in basis.keys():
        assert got.cols[key] == expected_cols[key], key


def _aut_key(model, aut, key):
    """Basis key carried by a symmetry's label action."""
    key = key_tuple(model, key)
    if aut.kind == "sn":
        return key_of(model, key[0], aut._map_end(key[1]), key[2])
    return key_of(model, key[0], aut._map_index(key[1]))


def _shift_key(model, h, exp, key):
    """Basis key carried by the shift ``h^exp``; None when it would cross
    the central region."""
    kind, end, genus = key_tuple(model, key)
    if end not in (h.from_end, h.to_end):
        return key
    attract = h.to_end if exp > 0 else h.from_end
    genus = genus + 1 if end == attract else genus - 1
    if genus < 1:
        return None
    return key_of(model, kind, end, genus)


def _reference_column(basis, letters, start):
    """One column pushed exactly through a word on its own; None once a
    shift carries one of its keys across the central region."""
    v = {start: 1}
    for g in reversed(letters):
        if isinstance(g, Twist):
            v = _twist_apply(v, basis.class_of(g.label), g.exp)
        elif isinstance(g, Shift):
            v = {_shift_key(basis.model, g.label, g.exp, k): c for k, c in v.items()}
            if None in v:
                return None
        else:
            aut = basis.model.automorphism_of_word([(g.name, g.exp)])
            v = {_aut_key(basis.model, aut, k): c for k, c in v.items()}
    return v


def _assert_matches_reference(basis, w):
    try:
        cols = {k: _reference_column(basis, w.letters, k) for k in basis.keys()}
    except UndefinedSymmetry as e:
        with pytest.raises(UndefinedSymmetry, match=re.escape(str(e))):
            word_matrix(basis, w)
    else:
        m = word_matrix(basis, w)
        assert m.cols == {k: v or {} for k, v in cols.items()}
        # the window applies once, to the final image
        assert m.valid == {k for k, v in cols.items() if v is not None and all(map(basis.in_window, v))}


def _reference_verify(w1, w2, window):
    basis = TruncatedBasis(w1.model, window)
    depth = (lambda k: key_tuple(w1.model, k)[2]) if w1.model.kind == "sn" else (lambda k: abs(key_tuple(w1.model, k)[1]))
    bound = _support_bound((w1, w2))
    keys = [k for k in basis.keys() if depth(k) <= bound]
    valid = 0
    try:
        for key in keys:
            c1 = _reference_column(basis, w1.letters, key)
            c2 = _reference_column(basis, w2.letters, key)
            if c1 is None or c2 is None:
                continue
            valid += 1
            if c1 != c2:
                witness = f"{basis.key_label(key)} maps to {_fmt_vec(basis, c1)} vs {_fmt_vec(basis, c2)}"
                return HomologyResult("Refuted", witness, valid, len(keys))
    except UndefinedSymmetry as e:
        return HomologyResult("Inconclusive", str(e), 0, len(keys))
    if not valid:
        return HomologyResult("Inconclusive", "empty valid subspace", 0, len(keys))
    return HomologyResult("Consistent", "", valid, len(keys))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_batched_kernel_matches_per_column_reference(sn16, sn17, jacob, lochness, data):
    model = data.draw(st.sampled_from((sn16, sn17, jacob, lochness)))
    window = data.draw(st.integers(3, 8))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    w1 = random_word(model, rng, data.draw(st.integers(0, 12)))
    other = data.draw(st.sampled_from(("random", "same", "drop")))
    if other == "random":
        w2 = random_word(model, rng, data.draw(st.integers(0, 6)))
    elif other == "drop" and w1.letters:
        i = data.draw(st.integers(0, len(w1.letters) - 1))
        w2 = Word(model, w1.letters[:i] + w1.letters[i + 1 :])
    else:
        w2 = w1

    _assert_matches_reference(TruncatedBasis(model, window), w1)
    assert str(verify_identity_homology(w1, w2, window)) == str(_reference_verify(w1, w2, window))


@pytest.mark.parametrize("window", [2, 3, 7])
def test_rank_and_key_at_follow_the_key_order(sn16, sn17, jacob, lochness, window):
    for model in (sn16, sn17, jacob, lochness):
        basis = TruncatedBasis(model, window)
        keys = basis.keys()
        assert [basis.key_at(r) for r in range(basis.size())] == keys
        assert [basis.rank(k) for k in keys] == list(range(len(keys)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_uncapped_result_is_the_result_at_any_window_from_the_bound(sn16, sn17, jacob, lochness, data):
    # without a window the oracle compares the columns up to the pair's own
    # bound; a window at or above it compares the same columns, and the
    # per-column reference, which lists the basis, agrees with both
    model = data.draw(st.sampled_from((sn16, sn17, jacob, lochness)))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    w1 = random_word(model, rng, data.draw(st.integers(0, 10)))
    g = random_word(model, rng, data.draw(st.integers(0, 4)))
    w2 = data.draw(st.sampled_from((g, g * w1 * invert(g), w1 * g * invert(g), w1)))
    window = _support_bound((w1, w2)) + data.draw(st.integers(0, 30))
    uncapped = str(verify_identity_homology(w1, w2))
    assert uncapped == str(verify_identity_homology(w1, w2, window)) == str(_reference_verify(w1, w2, window))


def test_oracle_results_match_the_committed_digest():
    # 8,000 seeded calls on the four default models: any change to a result
    # line or to the count of a status changes the digest
    assert oracle_digest() == json.loads(COMMITTED.read_text(encoding="utf-8"))


def test_translation_out_and_back_comes_back_exact(lochness):
    # H^2 carries indices 2 and 3 off window 3 and H^-2 brings them back:
    # their columns come back valid with their exact images. The twist in
    # between is pulled back through the pending translation: A[3] meets the
    # image b_3 of b_1.
    basis = TruncatedBasis(lochness, 3)
    k = partial(key_of, lochness)
    w = W(lochness, Sym("H", -2), tw(lochness, "A", 3), Sym("H", 2))
    m = word_matrix(basis, w)
    assert m.valid == frozenset(basis.keys())
    assert m.cols[k("b", 1)] == {k("b", 1): 1, k("a", 1): -1}
    assert all(m.cols[k] == {k: 1} for k in m.valid - {k("b", 1)})
    _assert_matches_reference(basis, w)


def test_shift_edges_found_through_rotation(sn16):
    # R first, then h[1,2]: start end 1 now sits on the attracting end 2 and
    # start end 16 on the repelling end 1, so those are the masked edges
    basis = TruncatedBasis(sn16, 4)
    k = partial(key_of, sn16)
    h, _ = sn16.shift(1, 2)
    w = word(sn16, [Shift(h, 1), Sym("R", 1)])
    m = word_matrix(basis, w)
    assert set(basis.keys()) - m.valid == {k("a", 1, 4), k("b", 1, 4), k("a", 16, 1), k("b", 16, 1)}
    assert m.cols[k("a", 1, 2)] == {k("a", 2, 3): 1}
    assert m.cols[k("b", 16, 2)] == {k("b", 1, 1): 1}
    assert m.cols[k("a", 3, 2)] == {k("a", 4, 2): 1}
    _assert_matches_reference(basis, w)


def test_symmetry_error_fires_on_a_column_masked_on_the_other_side(sn17):
    # the shift masks a_{1,1} on the left before an unknown symmetry stops
    # that side; the right reaches tau with a_{1,1} live. a_{1,1} comes first
    # in basis order, so tau's message wins.
    with pytest.raises(UndefinedSymmetry) as tau:
        sn17.automorphism("tau")
    h, _ = sn17.shift(1, 2)
    left = word(sn17, [Sym("Q", 1), Shift(h, 1)])
    right = W(sn17, Sym("tau", 1))
    res = verify_identity_homology(left, right, 6)
    assert str(res) == f"Inconclusive(0/102 columns) [{tau.value}]"
    assert str(res) == str(_reference_verify(left, right, 6))


def test_symmetry_without_label_action_is_inconclusive(sn17):
    with pytest.raises(UndefinedSymmetry) as exc:
        sn17.automorphism("tau")
    w = W(sn17, tw(sn17, "A", 1, 1), Sym("tau", 1), tw(sn17, "B", 1, 2))
    res = verify_identity_homology(w, Word(sn17, ()), 6)
    assert res.status == "Inconclusive"
    assert str(res) == f"Inconclusive(0/136 columns) [{exc.value}]"
    with pytest.raises(UndefinedSymmetry, match=re.escape(str(exc.value))):
        word_matrix(TruncatedBasis(sn17, 3), w)


ENGINE_MODULES = {"rewrite", "replay", "script", "sweeps", "cli"}


def _imported_modules(path: Path) -> set[str]:
    """Last dotted part of every module a source file imports, ``from . import
    x`` naming x."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out |= {a.name.rsplit(".", 1)[-1] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                out.add(node.module.rsplit(".", 1)[-1])
            else:
                out |= {a.name for a in node.names}
    return out


@pytest.mark.parametrize("module", ["homology", "permgroup"])
def test_oracles_import_nothing_from_the_engine(module):
    # replay's judge calls the engine and the oracles; an oracle that reached
    # back into the engine could no longer check it independently
    path = Path(mcg.__file__).parent / f"{module}.py"
    assert not _imported_modules(path) & ENGINE_MODULES


def test_engine_imports_no_oracle():
    # the engine only proves; an engine that ran an oracle would compose
    # verdicts outside the judge
    assert not _imported_modules(Path(mcg.__file__).parent / "rewrite.py") & {"homology", "permgroup"}


def test_importing_the_engine_loads_no_homology():
    # permgroup cannot be pinned this way: mcg/__init__ loads modelfile,
    # which loads it
    src = str(Path(mcg.__file__).parent.parent)
    code = "import sys, mcg.rewrite; sys.exit('mcg.homology' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}).returncode == 0
