"""Surface models: curve label systems, intersection data, symmetry actions.

A model is immutable data, compiled once from its model file: a label system
(which families exist, which index ranges are legal), ``Adjacency`` records
giving geometric intersection numbers in {0, 1}, and a ``Symmetry`` record per
primitive symmetry, with its exact action on labels and its end permutation.

The three shipped models:

``sn``
    n >= 3 ends arranged around a circle, each carrying an outgoing chain of
    handles. Rotation ``R`` advances the end index by one; ``rho1``/``rho2``
    are half-turns whose end maps are reflections ``j -> 2-j`` and
    ``j -> n+1-j`` exchanging the ``A`` and ``A'`` families; ``tau`` swaps two
    neighbouring ends and has no action on the standard label set (its only
    role is its image in the symmetric group on ends).

``jacob``
    one bi-infinite chain of handles, two ends; two half-turns ``tau1``
    (about the gap between handles 0 and 1) and ``tau2`` (about handle 1),
    whose product ``tau2 tau1`` translates the chain by one handle.

``lochness``
    one chain, one end; half-turns ``tau1``/``tau2`` with ``tau1 tau2`` the
    translation. Printed ``A``/``B`` indices skip 0.

Symmetry actions are affine maps on the index line (or end circle) plus an
optional A/A' exchange. The genus-0 ``C`` curve of an ``sn`` strand sits in
the gap between two neighbouring strands, so an orientation-reversing end map
sends the gap ``(j, j+1)`` to the gap ``(s(j)-1, s(j))``; the reindexing is
derived from the end map rather than stored.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import InvalidLabel, McgError, UndefinedSymmetry
from .labels import FAMILIES, CurveLabel, ShiftLabel, family_print
from .records import Frozen, set_slot


# ---------------------------------------------------------------------------
# model records


class Adjacency(NamedTuple):
    """One direction of an ``adj`` line: a ``family`` curve meets the ``partner``
    curve at the images of its indices. An index map is ``(None, d)``, index
    plus d, or ``(a, b)``, a to b; ``end`` is None on chain models."""

    family: str
    partner: str
    genus: tuple[int | None, int]
    end: tuple[int | None, int] | None = None


def _step(rule: tuple[int | None, int], x: int) -> int | None:
    a, b = rule
    return x + b if a is None else (b if x == a else None)


class Automorphism(NamedTuple):
    """The label action of a product of affine symmetries.

    Composition is closed: the end (or chain) maps stay affine with
    ``u = +-1`` and the family exchanges accumulate modulo 2. Models whose
    label action is declared here represent their symmetry subgroups
    faithfully, so a product acting as the identity on every label *is* the
    identity mapping class. An immutable tuple, like the labels it acts on.
    """

    kind: str  # model kind
    n: int
    u: int
    v: int
    swap: bool

    @staticmethod
    def identity(model: "SurfaceModel") -> "Automorphism":
        return Automorphism(model.kind, model.n, 1, 0, False)

    def _norm(self, v: int) -> int:
        return v % self.n if self.kind == "sn" else v

    def is_identity(self) -> bool:
        return self.u == 1 and self._norm(self.v) == 0 and not self.swap

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other (``other`` is applied first)."""
        u = self.u * other.u
        v = self._norm(self.u * other.v + self.v)
        return Automorphism(self.kind, self.n, u, v, self.swap ^ other.swap)

    def inverse(self) -> "Automorphism":
        #  x -> u x + v  inverts to  x -> u x - u v   (u in {1,-1})
        return Automorphism(self.kind, self.n, self.u, self._norm(-self.u * self.v), self.swap)

    def power(self, k: int) -> "Automorphism":
        """self composed k times, the inverse -k times when k < 0, in closed
        form: x -> x + v has k-th power x -> x + k v, and x -> -x + v is an
        involution, so its powers alternate with the parity of k, as the
        family exchange does."""
        odd = k % 2 == 1
        if self.u == 1:
            return Automorphism(self.kind, self.n, 1, self._norm(k * self.v), self.swap and odd)
        if not odd:
            return Automorphism(self.kind, self.n, 1, 0, False)
        return Automorphism(self.kind, self.n, -1, self._norm(self.v), self.swap)

    def _map_index(self, x: int) -> int:
        return self.u * x + self.v

    def _map_end(self, e: int) -> int:
        return (self.u * e + self.v - 1) % self.n + 1

    def act_curve(self, c: CurveLabel) -> CurveLabel:
        fam = c.family
        if self.swap and fam in ("A", "Ap"):
            fam = "Ap" if fam == "A" else "A"
        if self.kind == "sn":
            if c.family == "C" and c.index == 0:
                # gap curve: (j, j+1) -> (s(j), s(j+1)) as an unordered gap
                j = c.end
                m = self._map_end(j) if self.u == 1 else self._map_end(j) - 1
                m = (m - 1) % self.n + 1
                return CurveLabel("C", 0, m)
            return CurveLabel(fam, c.index, self._map_end(c.end))  # type: ignore[arg-type]
        # chain models
        if c.family == "C":
            k = c.index + self.v if self.u == 1 else self.v - c.index - 1
            return CurveLabel("C", k)
        return CurveLabel(fam, self._map_index(c.index))

    def act_shift(self, h: ShiftLabel, exp: int) -> tuple[ShiftLabel, int]:
        if self.kind != "sn":
            raise McgError("shift labels between ends exist only on sn models")
        p, q = self._map_end(h.from_end), self._map_end(h.to_end)
        if p < q:
            return ShiftLabel(p, q), exp
        return ShiftLabel(q, p), -exp

    def end_permutation(self) -> tuple[int, ...]:
        if self.kind != "sn":  # a chain reflection swaps Jacob's two ends; translations fix them
            return (2, 1) if self.n == 2 and self.u == -1 else tuple(range(1, self.n + 1))
        return tuple(self._map_end(e) for e in range(1, self.n + 1))


class Symmetry(NamedTuple):
    """A primitive symmetry: its label action (None for a ``perm`` symmetry,
    which acts on the ends only) and its end permutation as an image tuple."""

    action: Automorphism | None
    perm: tuple[int, ...]


# ---------------------------------------------------------------------------
# the model proper


class ValidationIssue(NamedTuple):
    check: str
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


class ValidationReport(NamedTuple):
    model: str
    window: int
    labels_checked: int
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        head = f"validate {self.model} window={self.window}: {self.labels_checked} labels"
        if self.ok:
            return head + ", no violations"
        lines = [head] + [f"  VIOLATION {i}" for i in map(str, self.issues)]
        return "\n".join(lines)


class SurfaceModel(Frozen):
    """Immutable surface model: label ranges, adjacency, symmetry actions; equal only to itself."""

    _fields = ("kind", "n", "adjacency", "symmetries", "aliases", "removed")
    # neighbour, symmetry-word, homology-class and rewrite-context memos:
    # idempotent values, filled on first use
    __slots__ = _fields + ("_ncache", "_acache", "_hcache", "_rewrite_ctx", "__weakref__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        kind: str,  # "sn" | "jacob" | "lochness"
        n: int,  # number of ends (sn: >=3, jacob: 2, lochness: 1)
        adjacency: dict[str, tuple[Adjacency, ...]],  # by family: both directions of every adj line
        symmetries: dict[str, Symmetry],
        aliases: dict[str, tuple[tuple[str, int], ...]] | None = None,  # words.Sym letters
        removed: frozenset[frozenset[CurveLabel]] = frozenset(),
    ):
        fields = (kind, n, adjacency, symmetries, {} if aliases is None else aliases, removed)
        for name, value in zip(self.__slots__, fields + ({}, {}, {}, None)):
            set_slot(self, name, value)

    def replace(self, **changes) -> "SurfaceModel":
        """A new model with ``changes`` to its fields and empty memos."""
        return SurfaceModel(**{**{f: getattr(self, f) for f in self._fields}, **changes})

    # -- label plumbing ----------------------------------------------------

    def _norm_end(self, e: int) -> int:
        return (e - 1) % self.n + 1

    def is_valid_curve(self, c: CurveLabel) -> bool:
        if c.family not in FAMILIES:
            return False
        if self.kind == "sn":
            if c.end is None or not (1 <= c.end <= self.n):
                return False
            return c.index >= (0 if c.family == "C" else 1)
        if c.end is not None:
            return False
        if self.kind == "lochness" and c.family == "Ap":
            return False
        return True

    def check_curve(self, c: CurveLabel) -> CurveLabel:
        if not self.is_valid_curve(c):
            raise InvalidLabel(f"{c!r} is not a curve of the {self.describe()} model")
        return c

    def curve(self, family: str, *index: int) -> CurveLabel:
        """Build a curve from printed indices (skip-aware on lochness)."""
        if self.kind == "sn":
            if len(index) != 2:
                raise InvalidLabel(f"{family}{list(index)}: sn curves need [genus,end]")
            g, e = index
            return self.check_curve(CurveLabel(family, g, self._norm_end(e)))
        if len(index) != 1:
            raise InvalidLabel(f"{family}{list(index)}: chain curves take one index")
        (k,) = index
        if self.kind == "lochness" and family in ("A", "B"):
            if k == 0:
                raise InvalidLabel(f"{family}[0]: index 0 is skipped on the one-ended model")
            k = k if k > 0 else k + 1
        return self.check_curve(CurveLabel(family, k))

    def printed_index(self, c: CurveLabel) -> int:
        """Inverse of the skip mapping, for display."""
        if self.kind == "lochness" and c.family in ("A", "B"):
            return c.index if c.index >= 1 else c.index - 1
        return c.index

    def format_curve(self, c: CurveLabel, exp: int = 1) -> str:
        inv = "~" if exp < 0 else ""
        if self.kind == "sn":
            return f"{family_print(c.family)}{inv}[{c.index},{c.end}]"
        return f"{family_print(c.family)}{inv}[{self.printed_index(c)}]"

    def shift(self, p: int, q: int) -> tuple[ShiftLabel, int]:
        """Canonical (label, sign) for the shift from end p to end q."""
        if self.kind != "sn":
            raise InvalidLabel("h[p,q] shifts exist only on sn models")
        p, q = self._norm_end(p), self._norm_end(q)
        if p == q:
            raise InvalidLabel(f"h[{p},{q}]: repelling and attracting end coincide")
        return (ShiftLabel(p, q), 1) if p < q else (ShiftLabel(q, p), -1)

    def describe(self) -> str:
        return {"sn": f"S({self.n})", "jacob": "Jacob's Ladder", "lochness": "Loch Ness"}[self.kind]

    # -- intersection numbers ---------------------------------------------

    def neighbors(self, c: CurveLabel) -> frozenset[CurveLabel]:
        self.check_curve(c)
        cache: dict = self._ncache  # type: ignore[attr-defined]
        hit = cache.get(c)
        if hit is None:
            hit = cache[c] = self._neighbors_uncached(c)
        return hit

    def _neighbors_uncached(self, c: CurveLabel) -> frozenset[CurveLabel]:
        out: set[CurveLabel] = set()
        for adj in self.adjacency.get(c.family, ()):
            genus = _step(adj.genus, c.index)
            if genus is None:
                continue
            if adj.end is None:
                p = CurveLabel(adj.partner, genus)
            else:
                end = _step(adj.end, c.end)  # type: ignore[arg-type]
                if end is None:
                    continue
                p = CurveLabel(adj.partner, genus, self._norm_end(end))
            if p != c and self.is_valid_curve(p) and not (self.removed and frozenset((c, p)) in self.removed):
                out.add(p)
        return frozenset(out)

    def intersection(self, c1: CurveLabel, c2: CurveLabel) -> int:
        near = self.neighbors(c1)  # checks c1, which is not its own neighbour
        self.check_curve(c2)
        return 1 if c2 in near else 0

    def without_adjacency(self, c1: CurveLabel, c2: CurveLabel) -> "SurfaceModel":
        """Copy of the model with one adjacency instance deleted (for tests)."""
        pair = frozenset((self.check_curve(c1), self.check_curve(c2)))
        return self.replace(removed=self.removed | {pair})

    # -- symmetries ---------------------------------------------------------

    def automorphism(self, name: str) -> Automorphism:
        sym = self.symmetries.get(name)
        if sym is not None:
            if sym.action is None:
                msg = f"{name} acts on the ends only; it has no action on the standard labels"
                raise UndefinedSymmetry(msg)
            return sym.action
        word = self.aliases.get(name)
        if word is None:
            raise UndefinedSymmetry(f"unknown symmetry {name!r} in {self.describe()}")
        return self.automorphism_of_word(word)

    def automorphism_of_word(self, letters: Sequence[tuple[str, int]]) -> Automorphism:
        """Compose the actions of ``(name, exponent)`` letters, leftmost applied last."""
        cache: dict = self._acache  # type: ignore[attr-defined]
        key = tuple(letters)
        aut = cache.get(key)
        if aut is None:
            aut = Automorphism.identity(self)
            for name, exp in key:
                aut = aut.compose(self.automorphism(name).power(exp))
            cache[key] = aut
        return aut

    def end_permutation(self, name: str) -> tuple[int, ...]:
        sym = self.symmetries.get(name)
        if sym is None:
            raise UndefinedSymmetry(f"unknown symmetry {name!r} in {self.describe()}")
        return sym.perm

    # -- enumeration and validation -----------------------------------------

    def labels_in_window(self, window: int) -> list[CurveLabel]:
        out: list[CurveLabel] = []
        if self.kind == "sn":
            for e in range(1, self.n + 1):
                for fam in FAMILIES:
                    lo = 0 if fam == "C" else 1
                    for i in range(lo, window + 1):
                        out.append(CurveLabel(fam, i, e))
        else:
            fams = [f for f in FAMILIES if not (self.kind == "lochness" and f == "Ap")]
            for fam in fams:
                for k in range(-window, window + 1):
                    out.append(CurveLabel(fam, k))
        return out

    def validate(self, window: int) -> ValidationReport:
        """Exhaustively police the model data inside a genus window.

        Checks, for every label in the window, that the intersection table
        is symmetric (each neighbour of the label has the label as a
        neighbour; values in {0, 1} and zero self intersection hold by
        construction) and that every label-acting symmetry carries the
        label's neighbours onto the neighbours of its image. Then the
        declared orders (R to the n-th power, squares of the half-turns) and
        the sign bookkeeping of shift conjugation. Issues come in that
        order, and the report returns as soon as an equivariance issue
        makes them more than 40.

        Each call reads ``neighbors`` once per label into one neighbour
        table (the window's labels and their neighbours, plus images outside
        it as they come up) and builds one image map per label-acting
        symmetry over the window's labels and their neighbours.
        """
        issues: list[ValidationIssue] = []
        labels = self.labels_in_window(window)

        fmt = self.format_curve
        near = {c: self.neighbors(c) for c in labels}
        for c in labels:
            for x in near[c]:
                back = near.get(x)
                if back is None:
                    back = near[x] = self.neighbors(x)
                if c not in back:
                    a, b = fmt(c), fmt(x)
                    issues.append(ValidationIssue("symmetry", f"i({a},{b})=1 but i({b},{a})=0"))

        domain = tuple(near)  # the window's labels and their neighbours
        affine = {nm: sym.action for nm, sym in self.symmetries.items() if sym.action is not None}
        for nm, aut in affine.items():
            # equivariance: the neighbour relation is carried onto itself
            image = {c: aut.act_curve(c) for c in domain}
            for c in labels:
                img = image[c]
                want = {image[x] for x in near[c]}
                got = near.get(img)
                if got is None:
                    got = near[img] = self.neighbors(img)
                if want != got:
                    diff = (want ^ got) or {img}
                    detail = f"{nm}: i({fmt(c)}, x) not preserved near {sorted(map(fmt, diff))}"
                    issues.append(ValidationIssue("equivariance", detail))
                    if len(issues) > 40:
                        return ValidationReport(self.describe(), window, len(labels), tuple(issues))

        # orders on labels
        for nm, aut in affine.items():
            if nm == "R":
                if not aut.power(self.n).is_identity():
                    issues.append(ValidationIssue("order", f"R^{self.n} is not the identity"))
            else:
                if not aut.compose(aut).is_identity():
                    issues.append(ValidationIssue("order", f"{nm}^2 is not the identity on labels"))

        # reflection-type symmetries invert shifts and double back cleanly
        if self.kind == "sn":
            h, s = self.shift(1, 2)
            for nm, aut in affine.items():
                if aut.u != -1:
                    continue
                h1, s1 = aut.act_shift(h, s)
                h2, s2 = aut.act_shift(h1, s1)
                if (h2, s2) != (h, s):
                    issues.append(ValidationIssue("shift", f"{nm} applied twice moved {h}"))

        return ValidationReport(self.describe(), window, len(labels), tuple(issues))
