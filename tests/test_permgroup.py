import math
import random
from hypothesis import given, settings
from hypothesis import strategies as st

from mcg.permgroup import Permutation, certify_full_symmetric, group_order, project
from mcg.words import Shift, Sym, Twist, word


def brute_force_order(gens: list[Permutation]) -> int:
    """Independent oracle: explicit closure enumeration."""
    if not gens:
        return 1
    seen = {Permutation.identity(gens[0].n).images}
    frontier = [Permutation.identity(gens[0].n)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = g * p
                if q.images not in seen:
                    seen.add(q.images)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def test_symmetric_group_five():
    gens = [Permutation.from_cycles(5, "(1 2 3 4 5)"), Permutation.from_cycles(5, "(1 2)")]
    assert brute_force_order(gens) == 120
    assert group_order(gens) == 120


def test_trivial_group():
    assert group_order([Permutation.identity(5)]) == 1
    assert group_order([], n=5) == 1


def test_klein_four_group():
    gens = [Permutation.from_cycles(4, "(1 2)(3 4)"), Permutation.from_cycles(4, "(1 3)(2 4)")]
    assert brute_force_order(gens) == 4
    assert group_order(gens) == 4


def test_alternating_group_from_three_cycles():
    gens = [Permutation.from_cycles(5, "(1 2 3)"), Permutation.from_cycles(5, "(3 4 5)")]
    assert group_order(gens) == brute_force_order(gens) == 60


def test_certify_full_symmetric_16_17():
    for n in (16, 17, 18, 19):
        ncyc = Permutation.from_cycles(n, "(" + " ".join(map(str, range(1, n + 1))) + ")")
        ok, order = certify_full_symmetric([ncyc, Permutation.from_cycles(n, "(1 2)")], n)
        assert ok and order == math.factorial(n)


def test_cycle_only_generator_fails_certification():
    six = Permutation.from_cycles(6, "(1 2 3 4 5 6)")
    ok, order = certify_full_symmetric([six], 6)
    assert not ok and order == 6


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_single_generator_order_is_cycle_lcm(seed):
    rng = random.Random(seed)
    images = list(range(1, 9))
    rng.shuffle(images)
    p = Permutation(tuple(images))
    assert group_order([p]) == math.lcm(*(len(c) for c in p.cycles()))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_group_order_matches_brute_force(data):
    # each generator moves at most its first k points, so sets whose k all
    # fall short of n fix point n and act intransitively
    n = data.draw(st.integers(2, 7))
    head = st.integers(1, n).flatmap(lambda k: st.permutations(range(1, k + 1)))
    perm = head.map(lambda images: Permutation(tuple(images) + tuple(range(len(images) + 1, n + 1))))
    gens = data.draw(st.lists(perm, min_size=1, max_size=3))
    assert group_order(gens) == brute_force_order(gens)


def test_projection_of_pure_words_is_identity(sn17):
    h, s = sn17.shift(3, 9)
    w = word(sn17, [Twist(sn17.curve("A", 1, 1), 1), Shift(h, s), Twist(sn17.curve("C", 0, 5), -1)])
    assert project(w).is_identity()


def test_projection_of_rotation_is_ncycle(sn17):
    p = project(word(sn17, [Sym("R", 1)]))
    assert p.cycles() == [tuple(range(1, 18))]


def test_projection_of_tau_is_transposition(sn17):
    p = project(word(sn17, [Sym("tau", 1)]))
    assert p.cycle_notation() == "(1 2)"


def test_projection_jacob_reflections_swap_ends(jacob):
    assert project(word(jacob, [Sym("tau1", 1)])).cycle_notation() == "(1 2)"
    assert project(word(jacob, [Sym("tau2", 1), Sym("tau1", 1)])).is_identity()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_projection_homomorphism(sn16, seed):
    from mcg.sweeps import random_word

    rng = random.Random(seed)
    w1 = random_word(sn16, rng, rng.randint(0, 5))
    w2 = random_word(sn16, rng, rng.randint(0, 5))
    assert project(w1 * w2) == project(w1) * project(w2)


def test_cycle_notation_round_trip():
    p = Permutation.from_cycles(7, "(1 3 5)(2 6)")
    assert Permutation.from_cycles(7, p.cycle_notation()) == p
    assert Permutation.identity(4).cycle_notation() == "()"
