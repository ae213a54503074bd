"""Projection to the symmetric group on ends, and exact subgroup orders.

Twists and handle shifts fix every end, so a word's image in Sym_n is the
composite of its symmetry letters' end permutations. Orders of generated
subgroups are computed with a deterministic (no randomization) incremental
Schreier-Sims base-and-strong-generating-set construction, exact over
Python's big integers; desk-scale degrees need nothing fancier.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

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

    def order(self) -> int:
        return reduce(math.lcm, (len(c) for c in self.cycles()), 1)

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
        for cyc in re.findall(r"\(([^()]*)\)", text):
            elems = [int(t) for t in cyc.split()]
            if any(not 1 <= e <= n for e in elems):
                raise McgError(f"cycle {cyc!r} leaves 1..{n}")
            if len(set(elems)) != len(elems):
                raise McgError(f"repeated point in cycle {cyc!r}")
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
# deterministic Schreier-Sims


class PermGroup:
    """Base and strong generating set for a finite permutation group."""

    def __init__(self, gens: list[Permutation], n: int | None = None):
        if n is None:
            if not gens:
                raise McgError("degree required for the trivial group")
            n = gens[0].n
        self.n = n
        self.base: list[int] = []
        self._level_gens: list[list[Permutation]] = []
        self._transversal: list[dict[int, Permutation]] = []
        for g in gens:
            if g.n != n:
                raise McgError("generator degrees differ")
            self._add(g, 0)

    # -- chain plumbing ------------------------------------------------------

    def _gens_at(self, level: int) -> list[Permutation]:
        return [g for lv in range(level, len(self.base)) for g in self._level_gens[lv]]

    def _strip(self, p: Permutation, level: int) -> tuple[Permutation, int]:
        for j in range(level, len(self.base)):
            pt = p(self.base[j])
            pair = self._transversal[j].get(pt)
            if pair is None:
                return p, j
            p = pair[1] * p
        return p, len(self.base)

    def _rebuild_orbit(self, level: int) -> None:
        # transversal maps an orbit point to (rep, rep inverse)
        b = self.base[level]
        gens = self._gens_at(level)
        ident = Permutation.identity(self.n)
        trans = {b: (ident, ident)}
        queue = [b]
        head = 0
        while head < len(queue):
            pt = queue[head]
            head += 1
            rep = trans[pt][0]
            for g in gens:
                img = g(pt)
                if img not in trans:
                    moved = g * rep
                    trans[img] = (moved, moved.inverse())
                    queue.append(img)
        self._transversal[level] = trans

    def _add(self, g: Permutation, level: int) -> None:
        residue, j = self._strip(g, level)
        if residue.is_identity():
            return
        if j == len(self.base):
            moved = next(i for i in range(1, self.n + 1) if residue(i) != i)
            ident = Permutation.identity(self.n)
            self.base.append(moved)
            self._level_gens.append([])
            self._transversal.append({moved: (ident, ident)})
        self._level_gens[j].append(residue)
        for lv in range(j, level - 1, -1):
            self._close(lv)

    def _close(self, level: int) -> None:
        """Rebuild the orbit at one level and sift every Schreier generator
        one level down, repeating until the sweep adds nothing new."""
        while True:
            self._rebuild_orbit(level)
            size_before = self._chain_size()
            gens = self._gens_at(level)
            for pt, (rep, _) in list(self._transversal[level].items()):
                for g in gens:
                    img_inv = self._transversal[level][g(pt)][1]
                    schreier = img_inv * g * rep
                    if not schreier.is_identity():
                        self._add(schreier, level + 1)
            if self._chain_size() == size_before:
                return

    def _chain_size(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self._transversal)

    # -- queries --------------------------------------------------------------

    def order(self) -> int:
        out = 1
        for t in self._transversal:
            out *= len(t)
        return out


def group_order(gens: list[Permutation], n: int | None = None) -> int:
    """Exact order of the subgroup generated by ``gens``."""
    if not gens:
        return 1
    return PermGroup(gens, n).order()


def certify_full_symmetric(gens: list[Permutation], n: int) -> tuple[bool, int]:
    """(True, n!) when the generators give all of Sym_n, else (False, order)."""
    order = group_order(gens, n)
    return order == math.factorial(n), order
