"""Property sweeps: homology vs intersection data, pairing preservation,
randomized cross-oracle soundness, seeded mutation tests.

The homology shadow of the twist calculus is checked in two layers. First,
for every label pair in a window, the skew pairing of the classes must equal
the declared geometric intersection number, except on the documented
degenerate family: the two curves through one handle (A and A' at the same
position) necessarily carry the same class up to sign, because the
involution exchanging them preserves the symplectic form, so no faithful
assignment can separate them. Second, the transvection consequences
(commuting matrices for pairing zero, the braid identity exactly for pairing
one) are verified concretely on the support vectors of each adjacent pair.
Both sweeps twist through ``homology._transvect``, the step the oracle
kernel ``_push`` takes, and the sign self test runs ``_push`` itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from .homology import Key, TruncatedBasis, _mates, _Relabel, _transvect, key_tuple, pairing, verify_identity_homology
from .models import SurfaceModel
from .rewrite import equivalent
from .words import Letter, Shift, Sym, Twist, Word, word


@dataclass(frozen=True)
class SweepReport:
    name: str
    checked: int
    degenerate_pairs: int
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        head = f"{self.name}: {self.checked} checks"
        if self.degenerate_pairs:
            head += f" ({self.degenerate_pairs} same-handle A/A' pairs, classes coincide)"
        if self.ok:
            return head + ", all passed"
        return head + "\n" + "\n".join(f"  FAIL {i}" for i in self.issues)


def _neg(v: dict) -> dict:
    return {k: -c for k, c in v.items()}


def homology_property_sweep(model: SurfaceModel, window: int) -> SweepReport:
    """Criterion sweep: over every label pair in the window, commutation of
    the twist matrices must match intersection number 0 and the braid
    identity must match intersection number 1, modulo the degenerate
    same-handle A/A' family, which is reported and characterized exactly.

    A class pairs nonzero only with classes holding the mate of one of its
    keys, and coincides up to sign only with classes holding its keys. So
    the pairs compared are, for each label, the later labels whose class
    holds one of its keys or their mates, plus its declared neighbours in
    the window; every other pair passes by construction. ``checked``
    counts the pairs compared plus the matrix checks.
    """
    basis = TruncatedBasis(model, window + 2)
    labels = model.labels_in_window(window)
    cls = {c: basis.class_of(c) for c in labels}
    fmt = model.format_curve
    issues: list[str] = []
    degenerate = 0
    checked = 0

    position = {c: i for i, c in enumerate(labels)}
    holders: dict[Key, list[int]] = {}  # basis key -> positions of the labels whose class holds it
    for i, c in enumerate(labels):
        for key in cls[c]:
            holders.setdefault(key, []).append(i)

    for i, c1 in enumerate(labels):
        v1 = cls[c1]
        # any other c2 has pairing 0, is disjoint from c1 and holds a
        # different class, so the comparison below could only count it
        near = {position[x] for x in model.neighbors(c1) if x in position}
        for key in v1:
            near.update(holders[key], holders.get(key ^ 1, ()))
        for j in sorted(j for j in near if j > i):
            c2 = labels[j]
            v2 = cls[c2]
            inter = model.intersection(c1, c2)
            p = abs(pairing(v1, v2))
            checked += 1
            if v1 == v2 or v1 == _neg(v2):
                # identical classes: the matrices are equal, so they commute
                # and satisfy the braid identity vacuously
                same_handle_aa = (
                    {c1.family, c2.family} == {"A", "Ap"}
                    and c1.index == c2.index
                    and c1.end == c2.end
                )
                if not same_handle_aa:
                    issues.append(f"unexpected class collision {fmt(c1)} vs {fmt(c2)}")
                elif inter != 0:
                    issues.append(f"declared i({fmt(c1)},{fmt(c2)})={inter} but classes coincide")
                else:
                    degenerate += 1
                continue
            # independent classes: transvections commute iff the pairing is 0
            # and satisfy the braid identity iff it is +-1
            if (p == 0) != (inter == 0) or (p == 1) != (inter == 1):
                issues.append(f"i({fmt(c1)},{fmt(c2)})={inter} but |<.,.>|={p}")
            if p > 1:
                issues.append(f"pairing magnitude {p} > 1 for {fmt(c1)},{fmt(c2)}")
            if len(issues) > 25:
                return SweepReport("homology sweep", checked, degenerate, tuple(issues))

    # concrete matrix checks on every intersecting pair and a sample of
    # disjoint ones: apply both sides to each support vector
    adjacent = [
        (c1, c2)
        for c1 in labels
        for c2 in model.neighbors(c1)
        if c2 in cls and repr(c1) < repr(c2)
    ]
    sample_disjoint = [
        (c1, c2)
        for c1, c2 in zip(labels[::7], labels[5::11])
        if model.intersection(c1, c2) == 0
    ]

    mates = {c: _mates(v) for c, v in cls.items()}

    def t(key: Key, *labels) -> dict:
        """The unit vector at ``key`` twisted about ``labels``, rightmost first."""
        x = {key: 1}
        for c in reversed(labels):
            _transvect(x, cls[c], mates[c], 1)
        return x

    for c1, c2 in adjacent:
        v1, v2 = cls[c1], cls[c2]
        for key in set(v1) | set(v2):
            checked += 1
            if t(key, c1, c2, c1) != t(key, c2, c1, c2):
                issues.append(f"braid identity failed for {fmt(c1)},{fmt(c2)} at {key_tuple(model, key)}")
        if all(t(k, c2, c1) == t(k, c1, c2) for k in set(v1) | set(v2)):
            issues.append(f"matrices of {fmt(c1)},{fmt(c2)} commute despite i=1")
    for c1, c2 in sample_disjoint:
        v1, v2 = cls[c1], cls[c2]
        for key in set(v1) | set(v2):
            checked += 1
            if t(key, c2, c1) != t(key, c1, c2):
                issues.append(f"disjoint pair {fmt(c1)},{fmt(c2)} fails to commute at {key_tuple(model, key)}")

    return SweepReport("homology sweep", checked, degenerate, tuple(issues))


def pairing_preservation_sweep(model: SurfaceModel, window: int) -> SweepReport:
    """Every generator matrix preserves the symplectic form exactly.

    For a transvection about class c, columns away from c are untouched and
    the pairing of an untouched column with anything x changes by a multiple
    of <c, .>, so it suffices to check all pairs drawn from the keys pairing
    nontrivially with c together with c's support. Symmetry and shift
    matrices are (partial) position permutations: they preserve the form iff
    each handle block maps onto one handle block, checked per position.
    A twist that breaks the form is reported once, at its first broken pair.
    """
    basis = TruncatedBasis(model, window + 2)
    as_tuple = partial(key_tuple, model)
    issues: list[str] = []
    checked = 0

    for c in model.labels_in_window(window):
        cls = basis.class_of(c)
        mates = _mates(cls)
        # in the order of the printed tuples, which decides the pair reported
        keys = sorted({k for key in cls for k in (key, key ^ 1)}, key=as_tuple)
        images = [{x: 1} for x in keys]
        for image in images:
            _transvect(image, cls, mates, 1)
        for x, mx in zip(keys, images):
            # the unit pairing <x, y>: +1 at y = b_x for x = a_x, -1 at
            # y = a_x for x = b_x, 0 elsewhere
            unit = -1 if x & 1 else 1
            for y, my in zip(keys, images):
                checked += 1
                if pairing(mx, my) != (unit if y == x ^ 1 else 0):
                    break
            else:
                continue
            # one line per label: its first broken pair
            issues.append(f"twist about {model.format_curve(c)} breaks the pairing at ({as_tuple(x)},{as_tuple(y)})")
            if len(issues) > 25:
                return SweepReport("pairing preservation", checked, 0, tuple(issues))
            break

    for name, sym in model.symmetries.items():
        aut = sym.action
        if aut is None:
            continue
        relabel = _Relabel(model)
        relabel.then_symmetry(aut)
        seen = {}
        for key in basis.keys():
            img = relabel.forward(key)
            checked += 1
            if img in seen:
                issues.append(f"{name} maps two classes onto {as_tuple(img)}")
            seen[img] = key
            if (img ^ key) & 1:
                issues.append(f"{name} mixes a/b kinds at {as_tuple(key)}")
            if len(issues) > 25:
                return SweepReport("pairing preservation", checked, 0, tuple(issues))
        # per-handle block coherence gives <Px,Py> = <x,y> for all pairs
    return SweepReport("pairing preservation", checked, 0, tuple(issues))


# ---------------------------------------------------------------------------
# randomized cross-oracle soundness and mutation tests


def random_word(model: SurfaceModel, rng: random.Random, length: int = 6) -> Word:
    letters: list[Letter] = []
    for _ in range(length):
        kind = rng.random()
        if kind < 0.75:
            fam = rng.choice(["A", "Ap", "B", "C"] if model.kind != "lochness" else ["A", "B", "C"])
            if model.kind == "sn":
                genus = rng.randint(0 if fam == "C" else 1, 3)
                label = model.curve(fam, genus, rng.randint(1, model.n))
            else:
                idx = rng.choice([i for i in range(-4, 5) if i != 0 or fam == "C"])
                label = model.curve(fam, idx)
            letters.append(Twist(label, rng.choice((1, -1))))
        elif kind < 0.9 and model.symmetries:
            name = rng.choice(sorted(model.symmetries))
            letters.append(Sym(name, rng.choice((1, -1))))
        elif model.kind == "sn":
            p = rng.randint(1, model.n)
            q = p % model.n + 1
            lab, sg = model.shift(p, q)
            letters.append(Shift(lab, sg * rng.choice((1, -1))))
        else:
            letters.append(Sym("tau1", 1))
    return word(model, letters)


def cross_oracle_random_pairs(model: SurfaceModel, pairs: int, seed: int) -> tuple[int, int, list[str]]:
    """Generate random word pairs; whenever the engine proves equality, under
    a budget of 4000, neither oracle may disagree (homology at window 20 must
    not refute, projections must coincide). Returns (checked, proved_equal,
    violations)."""
    from .permgroup import project
    from .words import invert

    rng = random.Random(seed)
    violations: list[str] = []
    proved = 0
    for _ in range(pairs):
        w1 = random_word(model, rng, rng.randint(1, 7))
        if rng.random() < 0.5:
            # derive an equal pair by conjugation so ProvedEqual occurs
            g = random_word(model, rng, rng.randint(1, 3))
            w2 = g * w1 * invert(g)
        else:
            w2 = random_word(model, rng, rng.randint(1, 7))
        v = equivalent(w1, w2, 4000)
        if v.kind != "ProvedEqual":
            continue
        proved += 1
        if project(w1) != project(w2):
            violations.append(f"engine proved {w1} = {w2} but projections differ")
        hom = verify_identity_homology(w1, w2, 20)
        if hom.status == "Refuted":
            violations.append(f"engine proved {w1} = {w2} but homology refutes: {hom.witness}")
    return pairs, proved, violations


def mutate_assert_words(
    model: SurfaceModel, left: Word, right: Word, seed: int
) -> tuple[Word, Word] | None:
    """Perturb a single twist letter of the right-hand side (index bumped by
    one); None when the side has no twist letter."""
    rng = random.Random(seed)
    positions = [i for i, g in enumerate(right.letters) if isinstance(g, Twist)]
    if not positions:
        return None
    pos = rng.choice(positions)
    g: Twist = right.letters[pos]  # type: ignore[assignment]
    if model.kind == "sn":
        bumped = model.curve(g.label.family, g.label.index, g.label.end % model.n + 1)
    else:
        idx = model.printed_index(g.label) + 1
        if idx == 0 and g.label.family != "C":
            idx = 1
        bumped = model.curve(g.label.family, idx)
    letters = list(right.letters)
    letters[pos] = Twist(bumped, g.exp)
    return left, Word(model, tuple(letters))
