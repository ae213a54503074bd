"""Exact-integer homology oracle on a finite-genus truncation.

Every handle position carries a symplectic pair of first-homology classes
``a`` (through the handle) and ``b`` (around it) with ``<a, b> = +1``;
distinct positions are orthogonal. Curve classes in this basis:

* ``A``/``A'`` curves map to the ``a`` class of their handle. The two curves
  through one handle are exchanged by an involutive symmetry that preserves
  the pairing, which forces their classes to agree up to sign, so the oracle
  cannot separate them (a necessary-condition checker, not a complete one).
* ``B`` curves map to the ``b`` class.
* The linking curve ``C`` at position k maps to ``a_k - a_{k+1}``; the
  genus-0 ``C`` of an ``sn`` strand links the first handles of two
  neighbouring strands.

A right-handed twist about a curve with class c acts as the transvection
``x -> x + <x, c> c`` (Farb-Margalit, *A Primer on Mapping Class Groups*,
Prop. 6.3); the sign convention is pinned by a startup self test (braid
identity on a symplectic pair). Symmetries act by permuting basis
positions; handle shifts translate one or two strands by a genus step and
carry a validity mask excluding columns whose trajectory leaves the window.
A verdict is always relative to the common valid subspace: ``Consistent`` is
a necessary condition, not a proof.

One kernel, ``_push``, applies a word right to left to all start columns
at once. A transvection moves only the columns that pair with c, so the
kernel keeps a row index (basis key -> live columns nonzero there) and, at
each twist, pairs only the columns listed under the mates of c's keys.
Symmetry and shift letters relabel every live column and rebuild the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from .errors import OutOfWindow, UndefinedSymmetry
from .labels import CurveLabel, ShiftLabel
from .models import Automorphism, SurfaceModel
from .words import Letter, Shift, Twist, Word

# basis keys: ("a"|"b", end, genus) on sn, ("a"|"b", k) on the chain models
Key = tuple
Vec = dict[Key, int]


@dataclass(frozen=True)
class TruncatedBasis:
    """Ordered symplectic basis of a finite-genus truncation."""

    model: SurfaceModel
    window: int

    def __post_init__(self):
        if self.window < 2:
            raise OutOfWindow("window must be at least 2")

    def keys(self, reach: int | None = None) -> list[Key]:
        """Keys in basis order; with ``reach``, only those whose genus (sn)
        or index magnitude (chain models) is at most ``reach``."""
        top = self.window if reach is None else min(self.window, reach)
        out: list[Key] = []
        if self.model.kind == "sn":
            for e in range(1, self.model.n + 1):
                for i in range(1, top + 1):
                    out.extend((("a", e, i), ("b", e, i)))
        else:
            for k in range(-top, top + 1):
                out.extend((("a", k), ("b", k)))
        return out

    def in_window(self, key: Key) -> bool:
        if self.model.kind == "sn":
            return 1 <= key[2] <= self.window
        return -self.window <= key[1] <= self.window

    def key_label(self, key: Key) -> str:
        fam = "A" if key[0] == "a" else "B"
        if self.model.kind == "sn":
            return f"{fam}[{key[2]},{key[1]}]-class"
        c = CurveLabel(fam, key[1])
        return f"{self.model.format_curve(c)}-class"

    def class_of(self, c: CurveLabel) -> Vec:
        """Homology class of a curve; positions may lie outside the window
        (callers mask columns whose images do)."""
        m = self.model
        if m.kind == "sn":
            if c.family in ("A", "Ap"):
                return {("a", c.end, c.index): 1}
            if c.family == "B":
                return {("b", c.end, c.index): 1}
            if c.index == 0:
                return {("a", c.end, 1): 1, ("a", m._norm_end(c.end + 1), 1): -1}
            return {("a", c.end, c.index): 1, ("a", c.end, c.index + 1): -1}
        if c.family in ("A", "Ap"):
            return {("a", c.index): 1}
        if c.family == "B":
            return {("b", c.index): 1}
        return {("a", c.index): 1, ("a", c.index + 1): -1}


def _mate(key: Key) -> Key:
    """The key pairing with ``key``: a_x <-> b_x at the same position."""
    return ("b" if key[0] == "a" else "a",) + key[1:]


def pairing(u: Vec, v: Vec) -> int:
    """The skew form: <a_x, b_x> = 1 position-wise."""
    total = 0
    for key, cu in u.items():
        cv = v.get(_mate(key))
        if cv:
            total += cu * cv if key[0] == "a" else -cu * cv
    return total


def _twist_apply(v: Vec, cls: Vec, exp: int) -> Vec:
    s = pairing(v, cls)
    if not s:
        return v
    out = dict(v)
    for key, c in cls.items():
        out[key] = out.get(key, 0) + exp * s * c
        if not out[key]:
            del out[key]
    return out


def _aut_key(aut: Automorphism, key: Key) -> Key:
    """Basis key carried by a symmetry's label action."""
    if aut.kind == "sn":
        return (key[0], aut._map_end(key[1]), key[2])
    return (key[0], aut._map_index(key[1]))


def _shift_key(h: ShiftLabel, exp: int, key: Key) -> Key | None:
    """Basis key carried by the shift ``h^exp``; None when it would cross
    the central region."""
    end = key[1]
    if end not in (h.from_end, h.to_end):
        return key
    attract = h.to_end if exp > 0 else h.from_end
    genus = key[2] + 1 if end == attract else key[2] - 1
    if genus < 1:
        return None
    return (key[0], end, genus)


def _push(
    basis: TruncatedBasis, letters: Sequence[Letter], starts: Iterable[Key]
) -> dict[Key, Vec | UndefinedSymmetry]:
    """Apply a word, right to left, to the unit columns at ``starts`` at once.

    Returns the surviving columns by start key; a masked column is absent.
    When live columns reach a symmetry without a label action, the word
    stops there and each of them maps to that error instead.
    """
    inside = basis.in_window
    cols: dict[Key, Vec] = {k: {k: 1} for k in starts}
    rows: dict[Key, set[Key]] = {k: {k} for k in cols}  # key -> columns nonzero there
    classes: dict[CurveLabel, tuple[Vec, list[tuple[Key, int]], bool]] = {}
    for g in reversed(letters):
        if not cols:
            break
        if isinstance(g, Twist):
            hit = classes.get(g.label)
            if hit is None:
                cls = basis.class_of(g.label)
                # <v, cls> is the sum of weight * v[mate] over the class's keys
                mates = [(_mate(k), -c if k[0] == "a" else c) for k, c in cls.items()]
                hit = classes[g.label] = (cls, mates, all(inside(k) for k in cls))
            cls, mates, fits = hit
            for start in set().union(*(rows.get(m, ()) for m, _ in mates)):
                v = cols[start]
                s = g.exp * sum(w * v.get(m, 0) for m, w in mates)
                if not s:
                    continue
                if not fits:  # the image gains a key outside the window
                    for k in cols.pop(start):
                        rows[k].discard(start)
                    continue
                for k, c in cls.items():
                    x = v.get(k, 0) + s * c
                    if x:
                        v[k] = x
                        rows.setdefault(k, set()).add(start)
                    else:
                        del v[k]
                        rows[k].discard(start)
            continue
        if isinstance(g, Shift):
            move = partial(_shift_key, g.label, g.exp)
        else:
            try:
                aut = basis.model.automorphism_of_word([(g.name, g.exp)])
            except UndefinedSymmetry as e:
                return dict.fromkeys(cols, e)
            move = partial(_aut_key, aut)
        moved: dict[Key, Vec] = {}
        for start, v in cols.items():
            out: Vec = {}
            for k, c in v.items():
                nk = move(k)
                if nk is None or not inside(nk):
                    break
                out[nk] = c
            else:
                moved[start] = out
        cols = moved
        rows = {}
        for start, v in cols.items():
            for k in v:
                rows.setdefault(k, set()).add(start)
    return cols


# ---------------------------------------------------------------------------
# identity verification


@dataclass(frozen=True)
class HomologyResult:
    status: str  # "Consistent" | "Refuted" | "Inconclusive"
    witness: str = ""
    valid_columns: int = 0
    checked_columns: int = 0

    def __str__(self) -> str:
        tail = f" [{self.witness}]" if self.witness else ""
        return f"{self.status}({self.valid_columns}/{self.checked_columns} columns){tail}"


def _support_bound(words: Iterable[Word]) -> tuple[int, int]:
    """(max index magnitude touched, max displacement a column can see).

    The displacement is the number of shift letters (each moves a strand
    position by one) plus, on the chain models, the largest translation part
    of any suffix-composite of the symmetry letters (a column's trajectory
    under the applied prefix is affine, so that maximum bounds how far it
    wanders).
    """
    top, disp = 0, 1
    for w in words:
        shifts = 0
        maxv = 0
        aut = Automorphism.identity(w.model)
        for g in reversed(w.letters):
            if isinstance(g, Twist):
                top = max(top, abs(g.label.index) + 1)
            elif isinstance(g, Shift):
                shifts += 1
            elif w.model.kind != "sn":
                try:
                    step = w.model.automorphism_of_word([(g.name, g.exp)])
                except UndefinedSymmetry:
                    step = None
                if step is not None:
                    aut = step.compose(aut)
                    maxv = max(maxv, abs(aut.v))
                else:
                    maxv = max(maxv, abs(g.exp))
        disp = max(disp, shifts + maxv + 1)
    return top, disp


def verify_identity_homology(
    w1: Word,
    w2: Word,
    window: int,
) -> HomologyResult:
    """Compare the homology matrices of two words column by column on the
    common valid subspace.

    Columns provably fixed by both words are skipped: on ``sn`` models a
    column whose genus exceeds every touched genus plus the total shift
    displacement never meets a twist class or a shifted strand edge; on the
    chain models the same holds beyond the touched positions plus the total
    translation distance.
    """
    if w1.model is not w2.model:
        return HomologyResult("Inconclusive", "model mismatch")
    basis = TruncatedBasis(w1.model, window)
    top, disp = _support_bound((w1, w2))
    keys = basis.keys(top + disp + 1)
    out1 = _push(basis, w1.letters, keys)
    out2 = _push(basis, w2.letters, keys)

    valid = 0
    for key in keys:
        c1, c2 = out1.get(key), out2.get(key)
        for c in (c1, c2):
            if isinstance(c, UndefinedSymmetry):
                return HomologyResult("Inconclusive", str(c))
        if c1 is None or c2 is None:
            continue
        valid += 1
        if c1 != c2:
            witness = (
                f"{basis.key_label(key)} maps to "
                f"{_fmt_vec(basis, c1)} vs {_fmt_vec(basis, c2)}"
            )
            return HomologyResult("Refuted", witness, valid, len(keys))
    if valid == 0:
        return HomologyResult("Inconclusive", "empty valid subspace", 0, len(keys))
    return HomologyResult("Consistent", "", valid, len(keys))


def _fmt_vec(basis: TruncatedBasis, v: Vec) -> str:
    if not v:
        return "0"
    parts = []
    for key in sorted(v):
        c = v[key]
        lab = basis.key_label(key).removesuffix("-class")
        parts.append(("+" if c > 0 else "-") + (f"{abs(c)}*" if abs(c) != 1 else "") + lab)
    s = "".join(parts)
    return s[1:] if s.startswith("+") else s


# ---------------------------------------------------------------------------
# explicit matrices: word_matrix and its grid (small windows, for display)


@dataclass
class IntMatrix:
    """Sparse exact-integer matrix over a truncated basis with a validity
    mask: only columns in ``valid`` are asserted."""

    basis: TruncatedBasis
    cols: dict[Key, Vec]
    valid: frozenset[Key]

    def grid(self) -> str:
        """Plain-text integer grid (row-major over the basis order)."""
        keys = self.basis.keys()
        lines = []
        for row in keys:
            lines.append(" ".join(str(self.cols[col].get(row, 0)) for col in keys))
        return "\n".join(lines)


def word_matrix(basis: TruncatedBasis, w: Word) -> IntMatrix:
    """Matrix of a word over the whole truncation, masked columns dropped
    as their trajectories leave the window."""
    keys = basis.keys()
    out = _push(basis, w.letters, keys)
    for v in out.values():
        if isinstance(v, UndefinedSymmetry):
            raise v
    return IntMatrix(basis, {k: out.get(k, {}) for k in keys}, frozenset(out))


def transvection_selftest() -> None:
    """Pin the sign convention: the braid identity must hold exactly on a
    symplectic pair, and transvections must preserve the pairing."""
    a: Vec = {("a", 1): 1}
    b: Vec = {("b", 1): 1}

    def tw(cls: Vec):
        return lambda v: _twist_apply(v, cls, 1)

    ta, tb = tw(a), tw(b)
    for start in (a, b, {("a", 1): 2, ("b", 1): -3}):
        lhs = ta(tb(ta(dict(start))))
        rhs = tb(ta(tb(dict(start))))
        if lhs != rhs:
            raise AssertionError(f"braid identity failed at {start}: {lhs} != {rhs}")
    u, v = ta(a), ta(b)
    if pairing(u, v) != pairing(a, b):
        raise AssertionError("transvection does not preserve the pairing")
