import math
import random

import pytest
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
    assert group_order([]) == 1


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


def _ncycle(n: int, first: int = 1, last: int | None = None) -> Permutation:
    last = n if last is None else last
    return Permutation.from_cycles(n, "(" + " ".join(map(str, range(first, last + 1))) + ")")


def test_certify_full_symmetric_65_and_129():
    for n in (65, 129):
        ok, order = certify_full_symmetric([_ncycle(n), Permutation.from_cycles(n, "(1 2)")], n)
        assert ok and order == math.factorial(n)


def test_cycle_only_generator_fails_certification():
    six = Permutation.from_cycles(6, "(1 2 3 4 5 6)")
    ok, order = certify_full_symmetric([six], 6)
    assert not ok and order == 6


_HALVES = "".join(f"({i} {i + 8})" for i in range(1, 9))
PROPER_SUBGROUPS = {
    # an odd cycle and a 3-cycle are even permutations
    "A_17": ([_ncycle(17), Permutation.from_cycles(17, "(1 2 3)")], math.factorial(17) // 2),
    # the 16-cycle and the reflection i -> 2 - i mod 16
    "D_16": ([_ncycle(16), Permutation.from_cycles(16, "(2 16)(3 15)(4 14)(5 13)(6 12)(7 11)(8 10)")], 32),
    # Sym_8 on 1..8 and a swap of the two halves
    "S_8 wr S_2": (
        [_ncycle(16, 1, 8), Permutation.from_cycles(16, "(1 2)"), Permutation.from_cycles(16, _HALVES)],
        2 * math.factorial(8) ** 2,
    ),
    # intransitive
    "Sym_8 x Sym_8": (
        [_ncycle(16, 1, 8), Permutation.from_cycles(16, "(1 2)"), _ncycle(16, 9, 16), Permutation.from_cycles(16, "(9 10)")],
        math.factorial(8) ** 2,
    ),
}


@pytest.mark.parametrize("name", PROPER_SUBGROUPS)
def test_large_proper_subgroups_are_not_certified(name):
    # the stop at n! never fires, so these run to their exact order
    gens, order = PROPER_SUBGROUPS[name]
    n = gens[0].n
    assert group_order(gens) == order
    assert certify_full_symmetric(gens, n) == (False, order)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_certification_matches_brute_force(data):
    n = data.draw(st.integers(1, 7))
    perm = st.permutations(range(1, n + 1)).map(lambda images: Permutation(tuple(images)))
    gens = data.draw(st.lists(perm, min_size=1, max_size=3))
    order = brute_force_order(gens)
    assert certify_full_symmetric(gens, n) == (order == math.factorial(n), order)


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


# ---------------------------------------------------------------------------
# Jordan's theorem, a second certificate that shares no code with Schreier-Sims:
# a transitive, primitive group containing a transposition is Sym_n
# (Wielandt, *Finite Permutation Groups*, 1964, Thm 13.3). Permutations here
# are 0-based image tuples.


def _is_transitive(gens: list[tuple[int, ...]], n: int) -> bool:
    seen, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                todo.append(g[x])
    return len(seen) == n


def _is_primitive(gens: list[tuple[int, ...]], n: int) -> bool:
    """For a transitive group: the minimal block holding 0 and b is every
    point, for each b (Atkinson's algorithm, with union-find)."""
    for b in range(1, n):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        parent[b] = 0
        todo = [(0, b)]
        while todo:  # the merged pairs generate the relation; each generator must respect them
            x, y = todo.pop()
            for g in gens:
                rx, ry = find(g[x]), find(g[y])
                if rx != ry:
                    parent[ry] = rx
                    todo.append((g[x], g[y]))
        if any(find(x) != find(0) for x in range(n)):
            return False
    return True


def _has_transposition_power(g: tuple[int, ...]) -> bool:
    """One 2-cycle and every other cycle odd: g to the lcm of the odd
    lengths is a transposition."""
    lengths, seen = [], set()
    for start in range(len(g)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x, length = g[x], length + 1
        if length:
            lengths.append(length)
    return lengths.count(2) == 1 and all(k % 2 for k in lengths if k != 2)


def _jordan_cases(n: int, rng: random.Random) -> list[list[tuple[int, ...]]]:
    """<n-cycle, (1 2)> and a random relabelling of it; up to n = 25 also the
    n-cycle with a random transposition, and a random permutation beside one
    with a 2-cycle and odd cycles. Those two may give proper subgroups, which
    run to their exact order, at a cost that grows fast with n."""
    cycle, swap = tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))
    relabel = list(range(n))
    rng.shuffle(relabel)
    back = sorted(range(n), key=relabel.__getitem__)

    def conjugate(g: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(relabel[g[back[x]]] for x in range(n))

    cases = [[cycle, swap], [conjugate(cycle), conjugate(swap)]]
    if n > 25:
        return cases
    a, b = rng.sample(range(n), 2)
    other = list(range(n))
    other[a], other[b] = b, a
    cases.append([cycle, tuple(other)])
    points = rng.sample(range(n), n)
    images, start = list(range(n)), 2
    images[points[0]], images[points[1]] = points[1], points[0]
    while start < n:
        length = min(rng.choice((1, 3, 5)), n - start)
        length -= 1 - length % 2
        cyc = points[start : start + length]
        for x, y in zip(cyc, cyc[1:] + cyc[:1]):
            images[x] = y
        start += length
    wild = list(range(n))
    rng.shuffle(wild)
    cases.append([tuple(images), tuple(wild)])
    return cases


def test_jordan_agrees_with_schreier_sims():
    applied = refuted = 0
    for n in range(3, 41):
        for gens in _jordan_cases(n, random.Random(n)):
            ok, _ = certify_full_symmetric([Permutation(tuple(i + 1 for i in g)) for g in gens], n)
            if not (_is_transitive(gens, n) and _is_primitive(gens, n)):
                assert not ok, (n, gens)
                refuted += 1
            elif any(_has_transposition_power(g) for g in gens):
                assert ok, (n, gens)
                applied += 1
    # every n gives two pairs Jordan covers; some random pairs give proper subgroups
    assert applied >= 2 * 38 and refuted >= 10, (applied, refuted)
