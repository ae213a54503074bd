"""Projection to the symmetric group on ends, and exact subgroup orders.

Twists and handle shifts fix every end, so a word's image in Sym_n is the
composite of its symmetry letters' end permutations. Orders of generated
subgroups come from the deterministic incremental Schreier-Sims algorithm
(Seress, *Permutation Group Algorithms*, 2003, ch. 4; Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005, sec. 4.4-4.5): each
Schreier generator is built and sifted only when its turn comes, and coset
representatives are read off Schreier trees as they are needed. Orders are
exact over Python's big integers.

Certifying that generators give all of Sym_n stops at the n! bound: the
product of the basic orbit lengths never exceeds the order of the group
built so far, so once it reaches n!, the largest order a subgroup of Sym_n
can have, the group is Sym_n. ``certify_full_symmetric`` therefore stops as
soon as the product reaches n!, which for an n-cycle and (1 2) takes about
n sifts; any other group runs to completion and gets its exact order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import McgError
from .words import Sym, Word


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, stored as the image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise McgError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @staticmethod
    def _raw(images: tuple[int, ...]) -> "Permutation":
        """Skip validation for images known to be permutations (products,
        inverses of validated ones)."""
        p = object.__new__(Permutation)
        object.__setattr__(p, "images", images)
        return p

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation._raw(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self after other (function composition)."""
        if other.n != self.n:
            raise McgError("permutation degrees differ")
        mine = self.images
        return Permutation._raw(tuple(mine[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            out[img - 1] = i
        return Permutation._raw(tuple(out))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        acc = Permutation.identity(self.n)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen or self(start) == start:
                seen.add(start)
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cyc))
        return out

    def cycle_notation(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    @staticmethod
    def from_cycles(n: int, text: str) -> "Permutation":
        """Parse cycle notation like ``(1 2)(3 4 5)``; ``()`` is the identity."""
        if not re.fullmatch(r"\s*(\(\s*(\d+(\s+\d+)*)?\s*\)\s*)*", text):
            raise McgError(f"bad cycle notation {text!r}")
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cyc in re.findall(r"\(([^()]*)\)", text):
            try:
                elems = [int(t) for t in cyc.split()]
            except ValueError:  # longer than the interpreter converts
                digits = max(map(len, cyc.split()))
                raise McgError(f"a {digits}-digit point in cycle notation is too long to read") from None
            for e in elems:
                if e < 1:
                    raise McgError(f"point {e} in {text!r}: points start at 1")
                if e > n:
                    raise McgError(f"point {e} in {text!r} is above n={n}")
                if e in seen:
                    raise McgError(f"point {e} repeated in {text!r}")
                seen.add(e)
            for a, b in zip(elems, elems[1:] + elems[:1]):
                images[a - 1] = b
        return Permutation(tuple(images))


def project(w: Word) -> Permutation:
    """Image of a word in the symmetric group on the ends of its model."""
    n = w.model.n
    perm = Permutation.identity(n)
    for g in w.letters:
        if isinstance(g, Sym):
            p = Permutation(w.model.end_permutation(g.name)) ** g.exp
            perm = perm * p
    return perm


# ---------------------------------------------------------------------------
# incremental Schreier-Sims


def _schreier_sims(gens: list[Permutation], n: int, bound: int | None = None) -> int:
    """Order of the subgroup generated by ``gens``, or ``bound`` once the
    product of the basic orbit lengths reaches it.

    Points are 0-based and permutations plain image tuples. Level l holds a
    base point b_l, strong generators S_l that fix b_0..b_(l-1), and the
    orbit of b_l under S_l, listed in the order its points were reached. A
    Schreier tree records how each orbit point p was reached; the inverse
    u_p^-1 of its coset representative (u_p(b_l) = p) is built from the tree
    when first needed and then kept, and so is u_p.

    An element is sifted through the chain from its start level; a
    non-identity residue that stopped at level ``stop`` becomes a strong
    generator at every level from its start to ``stop``, opening a new base
    point when it got through them all. Each orbit is closed at once. The
    (orbit point, strong generator) pairs that a new generator or new orbit
    points bring are pushed as one block on a stack, and the Schreier
    generator u_(s(p))^-1 s u_p of a pair is only built, and sifted from the
    next level, when the pair comes up. The newest block is taken first,
    and within it the latest reached point and the newest generator. On an
    n-cycle and a transposition this order meets short Schreier generators
    early and reaches n! in about n sifts: 31 for (1 2) and 39 for (1 6) at
    n = 31, where taking the blocks first in, first out needs 31 and 6,423.
    A pair along a tree edge is skipped, its Schreier generator being the
    identity. With the stack empty the chain is a base and strong generating
    set, and the product of the orbit lengths is the order (Schreier's
    lemma).

    The stop at ``bound`` is sound because the product is a lower bound on
    the order at every moment. Every strong generator is a product of the
    given generators and earlier strong generators, so each <S_l> lies in
    the group. Each element of S_(l+1) lies in <S_l>: it is in S_l too, or it
    is the residue of a Schreier generator of level l, a product of elements
    of S_l and coset representatives of later levels, which lie in <S_l> as
    this inclusion held before. S_(l+1) also fixes b_l, so <S_(l+1)> lies in
    the stabilizer of b_l in <S_l>, whose index is at least |orbit_l|; hence
    |<S_l>| >= |orbit_l| |<S_(l+1)>| and the product is at most |<S_0>|. A
    product equal to an upper bound on the order (n! for a subgroup of
    Sym_n) is therefore the order.
    """
    if any(g.n != n for g in gens):
        raise McgError("generator degrees differ")
    ident = tuple(range(n))
    base: list[int] = []
    points: list[list[int]] = []  # level: orbit of the base point, in the order reached
    strong: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []  # level: (s, s^-1)
    tree: list[dict[int, tuple[int, int]]] = []  # level: point p -> (q, j), p reached as s_j(q)
    cosets: list[dict[int, tuple[int, ...]]] = []  # level: p -> u_p^-1, filled as needed
    forward: list[dict[int, tuple[int, ...]]] = []  # level: p -> u_p, filled as needed
    stack: list[tuple[int, int, int, int, int]] = []  # (level, i0, i1, j0, j1): points[i0:i1] x strong[j0:j1]

    def coset_inv(level: int, p: int) -> tuple[int, ...]:
        known, edges, gens_here = cosets[level], tree[level], strong[level]
        path = []
        while p not in known:
            path.append(p)
            p = edges[p][0]
        u_inv = known[p]
        for p in reversed(path):
            u_inv = known[p] = tuple(map(u_inv.__getitem__, gens_here[edges[p][1]][1]))
        return u_inv

    def sift(g: tuple[int, ...], level: int) -> tuple[tuple[int, ...], int]:
        depth = len(base)
        while level < depth:
            b = base[level]
            point = g[b]
            if point != b:
                u_inv = cosets[level].get(point)
                if u_inv is None:
                    if point not in tree[level]:
                        break
                    u_inv = coset_inv(level, point)
                g = tuple(map(u_inv.__getitem__, g))
            level += 1
        return g, level

    def add(g: tuple[int, ...], start: int, stop: int) -> None:
        if stop == len(base):
            point = next(i for i in range(n) if g[i] != i)
            base.append(point)
            points.append([point])
            strong.append([])
            tree.append({point: (point, -1)})
            cosets.append({point: ident})
            forward.append({point: ident})
        pair = (g, _inverse(g))
        for level in range(start, stop + 1):
            orbit, gens_here, edges = points[level], strong[level], tree[level]
            j, old = len(gens_here), len(orbit)
            gens_here.append(pair)
            stack.append((level, 0, old, j, j + 1))
            # the orbit lies in the n - level points that S_level does not fix
            if old == n - level or set(map(g.__getitem__, orbit)).issubset(edges):
                continue
            i = 0  # close the orbit: old points under g, new points under all of S_level
            while i < len(orbit):
                q = orbit[i]
                for k in range(j if i < old else 0, j + 1):
                    img = gens_here[k][0][q]
                    if img not in edges:
                        edges[img] = (q, k)
                        orbit.append(img)
                i += 1
            stack.append((level, old, len(orbit), 0, j + 1))

    for p in gens:
        g, stop = sift(tuple(i - 1 for i in p.images), 0)
        if g != ident:
            add(g, 0, stop)
    limit = math.inf if bound is None else bound
    order = math.prod(map(len, points))
    while stack and order < limit:
        level, i0, i1, j0, j1 = stack.pop()
        orbit, gens_here, edges = points[level], strong[level], tree[level]
        for i in range(i1 - 1, i0 - 1, -1):
            p = orbit[i]
            u = forward[level].get(p)
            for j in range(j1 - 1, j0 - 1, -1):
                s = gens_here[j][0]
                img = s[p]
                if edges[img] == (p, j):  # the edge that reached img: u_img = s u_p
                    continue
                if u is None:
                    u = forward[level][p] = _inverse(coset_inv(level, p))
                g, stop = sift(tuple(map(coset_inv(level, img).__getitem__, map(s.__getitem__, u))), level + 1)
                if g != ident:
                    add(g, level + 1, stop)
                    order = math.prod(map(len, points))
                    if order >= limit:
                        return order
    return order


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def group_order(gens: list[Permutation]) -> int:
    """Exact order of the subgroup generated by ``gens``."""
    if not gens:
        return 1
    return _schreier_sims(gens, gens[0].n)


def certify_full_symmetric(gens: list[Permutation], n: int) -> tuple[bool, int]:
    """(True, n!) when the generators give all of Sym_n, else (False, order).

    Schreier-Sims stops as soon as the product of its orbit lengths reaches
    n!, a lower bound on the order meeting the upper bound of Sym_n; any
    other group runs to completion and gets its exact order.
    """
    full = math.factorial(n)
    order = _schreier_sims(gens, n, full)
    return order == full, order
