"""Projection to the symmetric group on ends, and exact subgroup orders.

Twists and handle shifts fix every end, so a word's image in Sym_n is the
composite of its symmetry letters' end permutations. Orders of generated
subgroups come from the deterministic incremental Schreier-Sims algorithm
(Seress, *Permutation Group Algorithms*, 2003, ch. 4; Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005, sec. 4.4), run as
one worklist in which every Schreier generator is sifted once. Orders are
exact over Python's big integers.
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


def group_order(gens: list[Permutation], n: int | None = None) -> int:
    """Exact order of the subgroup generated by ``gens``.

    One worklist of (element, level) pairs. Each element is sifted through
    the chain from its level; a non-identity residue becomes a strong
    generator at every level from there down to where it stopped, opening
    a new base point when it got through them all. An orbit grows only
    along (orbit point, strong generator) pairs it has not seen, and each
    such pair that leads back into the orbit gives one Schreier generator,
    queued at the next level. The order is the product of the orbit lengths.
    """
    if not gens:
        return 1
    n = gens[0].n if n is None else n
    if any(g.n != n for g in gens):
        raise McgError("generator degrees differ")
    ident = Permutation.identity(n)
    base: list[int] = []
    strong: list[list[Permutation]] = []  # level i: generators fixing base[:i]
    orbits: list[dict[int, tuple[Permutation, Permutation]]] = []  # point -> (u, u^-1), u(base[i]) = point
    work = [(g, 0) for g in gens]
    while work:
        g, start = work.pop()
        stop = start
        while stop < len(base) and (entry := orbits[stop].get(g(base[stop]))) is not None:
            g = entry[1] * g
            stop += 1
        if g == ident:
            continue
        if stop == len(base):
            point = next(i for i in range(1, n + 1) if g(i) != i)
            base.append(point)
            strong.append([])
            orbits.append({point: (ident, ident)})
        for level in range(start, stop + 1):
            strong[level].append(g)
            orbit = orbits[level]
            pairs = [(pt, g) for pt in orbit]
            while pairs:
                pt, s = pairs.pop()
                img, moved = s(pt), s * orbit[pt][0]
                if img not in orbit:
                    orbit[img] = (moved, moved.inverse())
                    pairs.extend((img, t) for t in strong[level])
                elif moved != orbit[img][0]:
                    work.append((orbit[img][1] * moved, level + 1))
    return math.prod(len(orbit) for orbit in orbits)


def certify_full_symmetric(gens: list[Permutation], n: int) -> tuple[bool, int]:
    """(True, n!) when the generators give all of Sym_n, else (False, order)."""
    order = group_order(gens, n)
    return order == math.factorial(n), order
