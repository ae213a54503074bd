import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcg import load_model
from mcg.homology import TruncatedBasis, word_matrix
from mcg.replay import StatementResult, judge
from mcg.rewrite import (
    DEFAULT_BUDGET,
    Budget,
    GoalIndex,
    _Ctx,
    _ctx,
    _index_key,
    _split,
    canonical,
    check_involution,
    equivalent,
    normalize,
    reduce_word,
    split_symmetries,
    strand_set,
)
from mcg.sweeps import random_word
from mcg.words import Shift, Sym, Twist, Word, invert, invert_letter, word


def tw(model, fam, *idx, exp=1):
    return Twist(model.curve(fam, *idx), exp)


def sh(model, p, q, exp=1):
    lab, s = model.shift(p, q)
    return Shift(lab, s * exp)


def W(model, *parts):
    return word(model, parts)


def thmA_f1(model):
    m = (model.n + 1) // 2
    return W(
        model,
        tw(model, "A", 1, 1),
        tw(model, "C", 0, 1),
        tw(model, "B", 1, 4),
        tw(model, "B", 1, 6, exp=-1),
        tw(model, "C", 0, 8, exp=-1),
        tw(model, "Ap", 1, 9, exp=-1),
        sh(model, m + 4, m + 5),
    )


def rho3(model):
    return W(model, Sym("R", 4), Sym("rho1", 1), Sym("R", -4))


def judged(w1, w2):
    """The verdict replay's judge gives an identity row w1 = w2."""
    return judge(StatementResult(0, 0, "", "", "", False), w1, w2, DEFAULT_BUDGET)


# -- normalize ---------------------------------------------------------------


def test_normalize_free_cancellation(sn17):
    w = W(sn17, tw(sn17, "A", 1, 1), tw(sn17, "A", 1, 1, exp=-1))
    assert normalize(w).word.letters == ()


def test_normalize_thmA_product(sn17):
    f3 = W(
        sn17,
        tw(sn17, "A", 1, 1), tw(sn17, "C", 0, 1), tw(sn17, "C", 0, 3),
        tw(sn17, "B", 1, 6, exp=-1), tw(sn17, "B", 1, 8, exp=-1),
        tw(sn17, "Ap", 1, 9, exp=-1), sh(sn17, 13, 14),
    )
    f5 = W(
        sn17,
        tw(sn17, "A", 1, 1), tw(sn17, "C", 0, 1), tw(sn17, "C", 0, 3),
        tw(sn17, "C", 0, 5, exp=-1), tw(sn17, "B", 1, 8, exp=-1),
        tw(sn17, "Ap", 1, 9, exp=-1), sh(sn17, 13, 14),
    )
    expected = W(sn17, tw(sn17, "B", 1, 6), tw(sn17, "C", 0, 5, exp=-1))
    got = normalize(invert(f3) * f5)
    assert got.normalized
    assert got.word == normalize(expected).word


def test_normalize_lochness_product(lochness):
    f5 = W(
        lochness,
        tw(lochness, "A", 8), tw(lochness, "C", 8), tw(lochness, "C", 10),
        tw(lochness, "B", 3, exp=-1), tw(lochness, "B", 5, exp=-1), tw(lochness, "A", 6, exp=-1),
    )
    f6 = W(
        lochness,
        tw(lochness, "A", 8), tw(lochness, "C", 8), tw(lochness, "C", 10),
        tw(lochness, "C", 2, exp=-1), tw(lochness, "B", 5, exp=-1), tw(lochness, "A", 6, exp=-1),
    )
    expected = W(lochness, tw(lochness, "B", 3, exp=-1), tw(lochness, "C", 2))
    assert normalize(f5 * invert(f6)).word == normalize(expected).word


def test_normalize_starved_budget(sn17):
    w = thmA_f1(sn17) * invert(thmA_f1(sn17))
    res = normalize(w, budget=1)
    assert not res.normalized


# -- equivalent ----------------------------------------------------------------


def test_equivalent_reflexive(sn17):
    w = thmA_f1(sn17)
    assert equivalent(w, w).kind == "ProvedEqual"


def test_equivalent_disjoint_commute_trivial_budget(sn17):
    a = W(sn17, tw(sn17, "A", 1, 1), tw(sn17, "B", 1, 5))
    b = W(sn17, tw(sn17, "B", 1, 5), tw(sn17, "A", 1, 1))
    v = equivalent(a, b, budget=10)
    assert v.kind == "ProvedEqual"


def test_equivalent_braid_pair(sn17):
    a, b = tw(sn17, "A", 1, 1), tw(sn17, "B", 1, 1)
    lhs = W(sn17, a, b, a)
    rhs = W(sn17, b, a, b)
    assert equivalent(lhs, rhs).kind == "ProvedEqual"


def test_equivalent_distinct_twists(sn17):
    # the engine only proves; homology refutes through the judge
    w1, w2 = W(sn17, tw(sn17, "A", 1, 1)), W(sn17, tw(sn17, "B", 1, 1))
    assert equivalent(w1, w2).kind == "Unknown"
    v = judged(w1, w2)
    assert v.kind == "ProvedDistinct"
    assert v.oracle == "homology"


def test_conjugated_twist_not_equal_to_plain_twist(sn17):
    # A B A~ is the twist about the image curve, not about b itself
    a, b = tw(sn17, "A", 1, 1), tw(sn17, "B", 1, 1)
    w1, w2 = W(sn17, a, b, Twist(a.label, -1)), W(sn17, b)
    assert equivalent(w1, w2).kind == "Unknown"
    v = judged(w1, w2)
    assert (v.kind, v.oracle) == ("ProvedDistinct", "homology")


def test_braid_move_blocked_by_interleaved_letter(sn17):
    # C[0,1] braids with B[1,1], so the transport over it must not fire;
    # a false identity built on that jump stays unproved
    b, c, a = tw(sn17, "B", 1, 1), tw(sn17, "C", 0, 1), tw(sn17, "A", 1, 1)
    w = W(sn17, b, c, a, Twist(b.label, -1))
    wrong = W(sn17, Twist(a.label, -1), c, a, a)  # what an unguarded jump would give
    v = equivalent(w, wrong)
    assert v.kind != "ProvedEqual"


def test_equivalent_distinct_by_projection(sn17):
    w1, w2 = W(sn17, Sym("R", 1)), Word(sn17, ())
    assert equivalent(w1, w2).kind == "Unknown"
    v = judged(w1, w2)
    assert v.kind == "ProvedDistinct"
    assert v.oracle == "projection"


def test_equivalent_runs_no_oracle(sn17):
    # the window is unread, and asking for oracles is an error, so no caller
    # loses them silently
    w = thmA_f1(sn17)
    assert equivalent(w, w, 4000, 20) == equivalent(w, w, 4000)
    with pytest.raises(TypeError):
        equivalent(w, w, oracles=True)


def test_equivalent_unknown_on_starved_budget(sn17):
    w = thmA_f1(sn17)
    v = equivalent(w, w, budget=1)
    assert v.kind == "Unknown"


def test_push_symmetries_moves_syms_right(sn17):
    w = W(sn17, Sym("R", 2), tw(sn17, "A", 1, 1), Sym("R", -1))
    core, aut = split_symmetries(w)
    assert core == [tw(sn17, "A", 1, 3)]
    assert not aut.is_identity()


def test_push_symmetries_cancels_identity_tail(sn17):
    # a conjugation sandwich leaves only the relabelled twist
    w = rho3(sn17) * W(sn17, tw(sn17, "A", 1, 1)) * invert(rho3(sn17))
    core, aut = split_symmetries(w)
    assert core == [tw(sn17, "Ap", 1, 9)]
    assert aut.is_identity()


def test_word_without_symmetries_unchanged_by_push(sn17):
    w = thmA_f1(sn17)
    core, aut = split_symmetries(w)
    assert tuple(core) == w.letters
    assert aut.is_identity()


def test_push_symmetries_preserves_matrix(sn17):
    basis = TruncatedBasis(sn17, 6)
    w = W(sn17, Sym("rho1", 1), tw(sn17, "A", 2, 3), sh(sn17, 4, 5), Sym("R", 3), tw(sn17, "B", 1, 2))
    core, _aut = split_symmetries(w)
    tail = [g for g in w.letters if isinstance(g, Sym)]
    before = word_matrix(basis, w)
    after = word_matrix(basis, Word(sn17, tuple(core + tail)))
    common = before.valid & after.valid
    assert common
    for key in common:
        assert before.cols[key] == after.cols[key], key


def _first_equal_reference(proved, goal, budget):
    """The loop ``GoalIndex`` replaces: every proved word, newest first,
    through ``equivalent``. The reference the index is checked against."""
    for name, w in reversed(proved):
        if equivalent(w, goal, budget).kind == "ProvedEqual":
            return name
    return None


def test_goal_index_finds_what_the_equivalent_loop_finds(sn16, sn17, jacob, lochness):
    # random proved lists with repeats; goals are conjugates of a proved
    # word, a proved word with a cancelling pair, a proved word and a random
    # word, with symmetries (tau and the other end maps) and shifts drawn too
    hits = 0
    for model in (sn16, sn17, jacob, lochness):
        rng = random.Random(22)
        for _ in range(60):
            proved = [(f"w{i}", random_word(model, rng, rng.randint(1, 6))) for i in range(rng.randint(1, 8))]
            proved += [(f"again{i}", w) for i, (_, w) in enumerate(rng.sample(proved, rng.randint(0, len(proved))))]
            rng.shuffle(proved)
            index = GoalIndex(proved)
            c = rng.choice(proved)[1]
            g, x = random_word(model, rng, rng.randint(1, 3)), random_word(model, rng, rng.randint(1, 3))
            for goal in (g * c * invert(g), c * x * invert(x), c, random_word(model, rng, rng.randint(1, 6))):
                for budget in (0, 1, 3, DEFAULT_BUDGET):
                    name = index.first_equal(goal, budget)
                    assert name == _first_equal_reference(proved, goal, budget), (model.describe(), goal, budget)
                    hits += name is not None
    assert hits > 500  # the draw does exercise proofs


def test_pair_core_is_the_product_core(sn17, jacob, lochness):
    # the pair decision's three facts about w1 w2~, read off the two splits
    for model in (sn17, jacob, lochness):
        ctx, rng = _ctx(model), random.Random(5)
        for _ in range(300):
            w1 = random_word(model, rng, rng.randint(0, 6))
            w2 = random_word(model, rng, rng.randint(0, 6))
            if rng.random() < 0.5:
                g = random_word(model, rng, rng.randint(1, 3))
                w2 = g * w1 * invert(g)
            s1, s2, product = _split(w1), _split(w2), _split(w1 * invert(w2))
            assert (product is None) == (s1 is None or s2 is None)
            if product is None:
                continue
            assert product[1].is_identity() == (s1[1] == s2[1])
            if s1[1] == s2[1]:
                assert product[0] == s1[0] + tuple(ctx.inv[g] for g in reversed(s2[0]))


def test_proved_pairs_of_criterion_3_share_an_index_key(sn16, sn17, jacob, lochness):
    # criterion 3's draw (cross_oracle_random_pairs, 1,000 pairs a model,
    # seed 1234): every pair the engine proves equal lies in one bucket
    proved = 0
    for model in (sn16, sn17, jacob, lochness):
        ctx, rng = _ctx(model), random.Random(1234)
        for _ in range(1000):
            w1 = random_word(model, rng, rng.randint(1, 7))
            if rng.random() < 0.5:
                g = random_word(model, rng, rng.randint(1, 3))
                w2 = g * w1 * invert(g)
            else:
                w2 = random_word(model, rng, rng.randint(1, 7))
            if equivalent(w1, w2, 4000).kind == "ProvedEqual":
                proved += 1
                assert _index_key(ctx, _split(w1)) == _index_key(ctx, _split(w2)), (w1, w2)
    assert proved == 636


def test_reduce_word_shrinks_without_changing_value(sn17):
    f1 = thmA_f1(sn17)
    blown = f1 * invert(f1) * f1
    red = reduce_word(blown)
    assert len(red) <= len(f1)
    assert equivalent(red, f1).kind == "ProvedEqual"


# -- rewrite caches ------------------------------------------------------------


def test_rewrite_cache_is_freed_with_its_model():
    model = load_model("sn", 17)
    canonical(model, [tw(model, "B", 1, 1), tw(model, "A", 1, 1)], Budget(100))
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_without_adjacency_copy_has_its_own_commutation_table(sn17):
    a, b = tw(sn17, "A", 1, 1), tw(sn17, "B", 1, 1)
    assert canonical(sn17, [b, a], Budget(100)) == (b, a)  # A and B meet once
    cut = sn17.without_adjacency(a.label, b.label)
    assert canonical(cut, [b, a], Budget(100)) == (a, b)


def commutes_by_definition(model, x, y):
    """Whether letters x and y commute, read off the model directly."""
    if isinstance(x, Sym) or isinstance(y, Sym):
        return False
    if isinstance(x, Twist) and isinstance(y, Twist):
        return model.intersection(x.label, y.label) == 0
    if isinstance(x, Shift) and isinstance(y, Shift):
        return x.label == y.label or not (x.label.ends & y.label.ends)
    t, h = (x, y) if isinstance(x, Twist) else (y, x)
    return not ({model._norm_end(e) for e in strand_set(t.label)} & h.label.ends)


def test_commutation_masks_match_the_definition_in_either_numbering(sn16, sn17, jacob, lochness):
    for model in (sn16, sn17, jacob, lochness):
        letters = [Twist(c, exp) for c in model.labels_in_window(3) for exp in (1, -1)]
        if model.kind == "sn":
            letters += [sh(model, p, p + 1) for p in range(1, model.n + 1)]
        letters += [Sym(name, 1) for name in (*sorted(model.symmetries), *sorted(model.aliases))]
        relations = []
        for order in (letters, letters[::-1]):
            ctx = _Ctx(model)
            for g in order:
                ctx.num[g]
            reps, nc = ctx._reps, ctx.nc
            assert len(nc) == len(reps) and all(m >> len(reps) == 0 for m in nc)
            for c, x in enumerate(reps):
                for d, y in enumerate(reps):
                    assert nc[c] >> d & 1 == (not commutes_by_definition(model, x, y)), (model.describe(), x, y)
            keys = [g.name if isinstance(g, Sym) else (type(g).__name__, g.label) for g in reps]
            classes = range(len(reps))
            relations.append({(keys[c], keys[d]) for c in classes for d in classes if nc[c] >> d & 1})
        assert relations[0] == relations[1]


def test_twists_fail_to_commute_when_either_curve_lists_the_other(jacob):
    # a model whose A curves list their B partner but not the other way round
    # (validate's symmetry check flags it): the pair fails to commute in
    # either numbering order
    one_way = jacob.replace(adjacency={**jacob.adjacency, "B": tuple(a for a in jacob.adjacency["B"] if a.partner != "A")})
    a, b = tw(one_way, "A", 1), tw(one_way, "B", 1)
    assert b.label in one_way.neighbors(a.label) and a.label not in one_way.neighbors(b.label)
    for order in ((a, b), (b, a)):
        ctx = _Ctx(one_way)
        x, y = (ctx.cid(g) for g in order)
        assert ctx.nc[x] >> y & 1 and ctx.nc[y] >> x & 1, order


def near_word(model, rng, length):
    """A random word over a few neighbouring curves, a handle shift on sn
    and the symmetries, so that braid, transport and shift moves fire."""
    if model.kind == "sn":
        curves = [model.curve(f, g, e) for f in ("A", "Ap", "B", "C") for g in (0, 1) for e in (1, 2) if g or f == "C"]
    else:
        fams = ("A", "B", "C") if model.kind == "lochness" else ("A", "Ap", "B", "C")
        curves = [model.curve(f, i) for f in fams for i in (1, 2)]
    letters = []
    for _ in range(length):
        r, exp = rng.random(), rng.choice((1, -1))
        if r < 0.85:
            letters.append(Twist(rng.choice(curves), exp))
        elif r < 0.95 and model.kind == "sn":
            letters.append(sh(model, 1, 2, exp))
        else:
            letters.append(Sym(rng.choice(sorted(model.symmetries)), exp))
    return Word(model, tuple(letters))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_results_do_not_depend_on_letter_numbering(data):
    # the engine numbers letters in the order it first sees them; a model
    # whose numbering was first warmed by other words must agree with a
    # freshly loaded one on forms, traces and budgets
    kind, n = data.draw(st.sampled_from((("sn", 16), ("sn", 17), ("jacob", None), ("lochness", None))))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    budget = data.draw(st.sampled_from((3, 40, 3000)))
    fresh, warmed = load_model(kind, n), load_model(kind, n)
    w1 = near_word(fresh, rng, rng.randint(0, 10))
    g = near_word(fresh, rng, rng.randint(1, 3))
    w2 = g * w1 * invert(g)

    def results(model):
        a, b = Word(model, w1.letters), Word(model, w2.letters)
        r = normalize(a, budget)
        return r.normalized, r.word.letters, r.trace, r.budget_used, equivalent(a, b, budget)

    want = results(fresh)
    for _ in range(rng.randint(1, 4)):
        normalize(near_word(warmed, rng, 12), 500)
    assert results(warmed) == want


# -- canonical form ---------------------------------------------------------------


def test_canonical_cancels_through_commutation_beyond_600_letters(sn17):
    # A[1,1] and A[1,3] are disjoint, so no inverse pair is ever adjacent:
    # every cancellation needs a commutation first
    a, b = tw(sn17, "A", 1, 1), tw(sn17, "A", 1, 3)
    letters = [a, b, invert_letter(a), invert_letter(b)] * 151
    budget = Budget(10**6)
    assert canonical(sn17, letters, budget) == ()
    assert budget.spent == len(letters) // 2


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_is_a_normal_form_of_the_reduced_trace(sn16, sn17, jacob, lochness, data):
    model = data.draw(st.sampled_from((sn16, sn17, jacob, lochness)))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    ctx = _ctx(model)
    letters = list(random_word(model, rng, data.draw(st.integers(0, 30))).letters)
    budget = Budget(10**6)
    out = canonical(model, letters, budget)
    assert 2 * budget.spent == len(letters) - len(out)
    def commutes(x, y):
        return not ctx.nc[ctx.cid(x)] >> ctx.cid(y) & 1

    for x, y in zip(out, out[1:]):
        assert not commutes(x, y) or ctx.keys[ctx.num[x]] <= ctx.keys[ctx.num[y]], (x, y)

    swaps = [i for i in range(len(letters) - 1) if commutes(letters[i], letters[i + 1])]
    if swaps:
        i = data.draw(st.sampled_from(swaps))
        swapped = letters[:i] + [letters[i + 1], letters[i]] + letters[i + 2 :]
        assert canonical(model, swapped, Budget(10**6)) == out

    pool = [g for g in random_word(model, rng, 12).letters if not isinstance(g, Sym)]
    if pool:
        x = data.draw(st.sampled_from(pool))
        i = data.draw(st.integers(0, len(letters)))
        padded = letters[:i] + [x, invert_letter(x)] + letters[i:]
        assert canonical(model, padded, Budget(10**6)) == out


# -- check_involution ----------------------------------------------------------


def test_check_involution_thmA(sn17):
    pair = check_involution(rho3(sn17) * thmA_f1(sn17))
    assert equivalent(*pair).kind == judged(*pair).kind == "ProvedEqual"


def test_check_involution_thmC(jacob):
    hh = [Sym("tau2", 1), Sym("tau1", 1)]
    tau3 = word(jacob, hh * 6 + [Sym("tau2", 1)] + [Sym(g.name, -g.exp) for g in reversed(hh * 6)])
    f = W(
        jacob,
        tw(jacob, "A", 1), tw(jacob, "Ap", 6), tw(jacob, "C", 1), tw(jacob, "B", 3),
        tw(jacob, "B", 11, exp=-1), tw(jacob, "C", 12, exp=-1),
        tw(jacob, "Ap", 8, exp=-1), tw(jacob, "A", 13, exp=-1),
    )
    pair = check_involution(tau3 * f)
    assert equivalent(*pair).kind == judged(*pair).kind == "ProvedEqual"


def test_check_involution_refuses_non_involution(sn17):
    # the rotation R is no involution, and (R F1)^2 moves the ends
    pair = check_involution(W(sn17, Sym("R", 1)) * thmA_f1(sn17))
    assert equivalent(*pair).kind == "Unknown"
    v = judged(*pair)
    assert (v.kind, v.oracle) == ("ProvedDistinct", "projection")


def test_check_involution_off_axis_twist_distinct(sn17):
    # conjugating a twist at end 3 by rho1 does not invert it
    rho1 = W(sn17, Sym("rho1", 1))
    x = W(sn17, tw(sn17, "A", 1, 3))
    pair = check_involution(rho1 * x)
    assert equivalent(*pair).kind == "Unknown"
    v = judged(*pair)
    assert (v.kind, v.oracle) == ("ProvedDistinct", "homology")


# -- properties ------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_free_reduction_confluent_under_random_orders(sn17, data):
    # build a random word, reduce via random adjacent cancellations, compare
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    letters = []
    pool = [
        tw(sn17, "A", 1, 1), tw(sn17, "B", 1, 1), tw(sn17, "C", 0, 2), tw(sn17, "A", 2, 3),
    ]
    for _ in range(data.draw(st.integers(0, 10))):
        g = rng.choice(pool)
        letters.append(Twist(g.label, rng.choice((1, -1))))
    w = Word(sn17, tuple(letters))

    def reduce_random(letters):
        letters = list(letters)
        while True:
            spots = [
                i
                for i in range(len(letters) - 1)
                if letters[i].label == letters[i + 1].label
                and letters[i].exp + letters[i + 1].exp == 0
            ]
            if not spots:
                return tuple(letters)
            i = rng.choice(spots)
            del letters[i : i + 2]

    from mcg.words import free_reduce

    expected = free_reduce(w.letters)
    for _ in range(5):
        assert reduce_random(w.letters) == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_normalization_sound_against_homology(sn16, jacob, lochness, seed):
    # the whole move machinery (push, commutation, braid transport, shift
    # relabelling) must produce a word the homology oracle cannot separate
    # from the input
    from mcg.homology import verify_identity_homology
    from mcg.sweeps import random_word

    rng = random.Random(seed)
    for model in (sn16, jacob, lochness):
        w = random_word(model, rng, rng.randint(1, 8))
        res = normalize(w, budget=3000)
        hom = verify_identity_homology(w, res.word, 20)
        assert hom.status != "Refuted", (str(w), str(res.word), hom.witness)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_proved_equal_stable_under_rotation(sn17, seed):
    from mcg.sweeps import random_word

    rng = random.Random(seed)
    w1 = random_word(sn17, rng, 4)
    g = random_word(sn17, rng, 2)
    w2 = g * w1 * invert(g)
    if equivalent(w1, w2, 4000).kind == "ProvedEqual":
        rotated = equivalent(invert(w2) * w1, Word(sn17, ()), 4000)
        assert rotated.kind == "ProvedEqual"
