"""Exact-integer homology oracle on the first homology of the infinite-genus surface.

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
Prop. 6.3), one step, ``_transvect``, for the kernel and the sweeps. The
braid identity holds for either sign, so the self test pins the sign
itself: the twist about A[1] sends b_1 to b_1 - a_1. Symmetries act by
permuting basis positions, and handle shifts translate one or two strands
by a genus step. Every image is exact at every genus and index. The one
mask is the crossing: a shift carries its repelling end's first handle
across the central region, where the label system gives it no image, so a
column holding that handle is masked. ``Consistent`` is a necessary
condition, not a proof.

This module owns the window, which bounds only which columns are compared:
its default ``DEFAULT_WINDOW``, its floor ``check_window`` (every
``TruncatedBasis`` runs it) and the displacement rule ``check_displacement``
(replay runs it on each word it sends to the oracle, so no word reaches past
the columns compared).

One kernel, ``_push``, applies a word right to left to all start columns
at once, at a cost that follows the columns twists touch rather than the
size of the basis. Columns stay in start coordinates: only a column that a
twist has changed is stored, with a row index (key -> stored columns
nonzero there), and its keys may lie at any genus or index; every other
live column is the unit vector at its own start key, and its row entry is
implicit. Symmetry and shift letters compose into one pending relabel, the
end or index map of an ``Automorphism`` plus, on ``sn``, a genus offset per
end for the shifts. A twist pulls its class back through that relabel and
pairs only the columns holding the mates of its keys; a shift looks up its
two crossing keys in the row index. Images are built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import OutOfWindow, UndefinedSymmetry
from .labels import CurveLabel
from .modelfile import load_model
from .models import Automorphism, SurfaceModel
from .words import Letter, Shift, Twist, Word

# basis keys: ("a"|"b", end, genus) on sn, ("a"|"b", k) on the chain models
Key = tuple
Vec = dict[Key, int]
DEFAULT_WINDOW = 40  # genus (sn) or index magnitude (chain models) of the columns a replay compares


def check_window(window: int) -> None:
    """The floor of every window: a linking class, C[1] = a_1 - a_2, spans two positions."""
    if window < 2:
        raise OutOfWindow("window must be at least 2")


@dataclass(frozen=True)
class TruncatedBasis:
    """The basis columns up to genus (sn) or index magnitude (chain models)
    ``window``, in order: the columns a check compares. Their images are
    exact at every genus and index."""

    model: SurfaceModel
    window: int

    def __post_init__(self):
        check_window(self.window)

    def keys(self) -> list[Key]:
        """Keys in basis order."""
        w = self.window
        if self.model.kind == "sn":
            return [(f, e, i) for e in range(1, self.model.n + 1) for i in range(1, w + 1) for f in "ab"]
        return [(f, k) for k in range(-w, w + 1) for f in "ab"]

    def size(self) -> int:
        """``len(self.keys())``, without building the keys."""
        w = self.window
        return 2 * self.model.n * w if self.model.kind == "sn" else 2 * (2 * w + 1)

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
        """Homology class of a curve, at any position."""
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


def _mates(cls: Vec) -> list[tuple[Key, int]]:
    """<v, cls> is the sum of weight * v[mate] over these (mate, weight)."""
    return [(_mate(k), -c if k[0] == "a" else c) for k, c in cls.items()]


def _transvect(v: Vec, cls: Vec, mates: list[tuple[Key, int]], exp: int) -> int:
    """Twist ``v`` in place about the class ``cls`` (with ``_mates(cls)``)
    ``exp`` times, x -> x + exp <x, c> c, and return the multiple of c added."""
    s = 0
    for m, w in mates:
        s += w * v.get(m, 0)
    s *= exp
    if s:
        for k, c in cls.items():
            x = v.get(k, 0) + s * c
            if x:
                v[k] = x
            else:
                del v[k]
    return s


class _Relabel:
    """The symmetry and shift letters applied so far, as one key map from
    start coordinates to current ones: the end (sn) or index (chain) map of
    an ``Automorphism``, and on ``sn`` a genus offset per start end."""

    def __init__(self, model: SurfaceModel):
        self.sn = model.kind == "sn"
        self.aut = self.inv = Automorphism.identity(model)
        self.lift: dict[int, int] = {}  # start end -> genus offset (sn)

    def forward(self, key: Key) -> Key:
        if self.sn:
            return (key[0], self.aut._map_end(key[1]), key[2] + self.lift.get(key[1], 0))
        return (key[0], self.aut._map_index(key[1]))

    def back(self, key: Key) -> Key:
        if self.sn:
            end = self.inv._map_end(key[1])
            return (key[0], end, key[2] - self.lift.get(end, 0))
        return (key[0], self.inv._map_index(key[1]))

    def then_symmetry(self, aut: Automorphism) -> None:
        self.aut = aut.compose(self.aut)
        self.inv = self.inv.compose(aut.inverse())

    def then_shift(self, attract: int, repel: int) -> None:
        """A shift moves its attracting end's strand out by one handle and
        the other end's strand in by one."""
        for end, step in ((attract, 1), (repel, -1)):
            start = self.inv._map_end(end)
            self.lift[start] = self.lift.get(start, 0) + step

    def signature(self) -> tuple:
        """Equal signatures mean equal key maps."""
        return self.aut.u, self.aut.v, frozenset((e, d) for e, d in self.lift.items() if d)


@dataclass
class _Pushed:
    """A word applied to the unit start columns, kept lazily.

    ``cols`` holds, in start coordinates, the columns a twist has changed;
    every other start outside ``dead`` (the columns a shift carried across
    the central region) is still its own unit vector. ``relabel`` carries
    start coordinates to the image's.
    ``error`` is set when live columns reached a symmetry without a label
    action; the word stopped there and each of them maps to that error.
    """

    cols: dict[Key, Vec]
    dead: set[Key]
    relabel: _Relabel
    error: UndefinedSymmetry | None

    def stored(self, start: Key) -> Vec:
        return self.cols.get(start) or {start: 1}

    def image(self, start: Key) -> Vec | None:
        """The column at ``start`` in current coordinates; None when masked."""
        if start in self.dead:
            return None
        move = self.relabel.forward
        return {move(k): c for k, c in self.stored(start).items()}


def _push(basis: TruncatedBasis, letters: Sequence[Letter]) -> _Pushed:
    """Apply a word, right to left, to the unit columns at ``basis.keys()``
    at once, exactly at every genus and index.

    A twist changes only the columns that pair with its class; symmetry and
    shift letters compose into the pending relabel. The only mask is the
    crossing: a shift masks the columns holding its repelling end's first
    handle, found through the row index.
    """
    live = basis.in_window
    cols: dict[Key, Vec] = {}
    rows: dict[Key, set[Key]] = {}  # start-coordinate key -> stored columns nonzero there
    dead: set[Key] = set()
    count = basis.size()
    relabel = _Relabel(basis.model)

    def holders(key: Key) -> set[Key]:
        found = set(rows.get(key, ()))
        if key not in cols and key not in dead and live(key):
            found.add(key)  # an untouched live start
        return found

    for g in reversed(letters):
        if len(dead) == count:
            break
        if isinstance(g, Twist):
            cls = {relabel.back(k): c for k, c in basis.class_of(g.label).items()}
            mates = _mates(cls)
            for start in set().union(*(holders(m) for m, _ in mates)):
                v = cols.get(start) or {start: 1}
                if not _transvect(v, cls, mates, g.exp):
                    continue
                if start not in cols:
                    cols[start] = v
                    rows.setdefault(start, set()).add(start)
                for k in cls:
                    if k in v:
                        rows.setdefault(k, set()).add(start)
                    else:
                        rows[k].discard(start)
        elif isinstance(g, Shift):
            h = g.label
            attract, repel = (h.to_end, h.from_end) if g.exp > 0 else (h.from_end, h.to_end)
            for f in "ab":
                for start in holders(relabel.back((f, repel, 1))):
                    for k in cols.pop(start, ()):
                        rows[k].discard(start)
                    dead.add(start)
            relabel.then_shift(attract, repel)
        else:
            try:
                aut = basis.model.automorphism_of_word([(g.name, g.exp)])
            except UndefinedSymmetry as e:
                return _Pushed(cols, dead, relabel, e)
            relabel.then_symmetry(aut)
    return _Pushed(cols, dead, relabel, None)


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


def check_displacement(w: Word, window: int) -> None:
    """Raise ``OutOfWindow`` when the displacement bound of ``w``, its
    touched positions plus how far a column can wander, exceeds ``window``."""
    top, disp = _support_bound((w,))
    if top + disp > window:
        text = str(w) if len(str(w)) <= 60 else str(w)[:57] + "..."
        raise OutOfWindow(
            f"window {window} is below the displacement bound {top + disp} of {text} ({len(w)} letters);"
            f" it needs a window of at least {top + disp}"
        )


def verify_identity_homology(
    w1: Word,
    w2: Word,
    window: int,
) -> HomologyResult:
    """Compare the exact homology images of two words column by column,
    over the columns of the window that the crossing masks on neither side.

    Columns provably fixed by both words are not compared: on ``sn`` models
    a column whose genus exceeds every touched genus plus the total shift
    displacement never meets a twist class or a shifted strand edge; on the
    chain models the same holds beyond the touched positions plus the total
    translation distance. Of the rest, only columns that a twist changed
    on either side are built, unless the two words end with different
    relabels.
    """
    if w1.model is not w2.model:
        return HomologyResult("Inconclusive", "model mismatch")
    top, disp = _support_bound((w1, w2))
    starts = TruncatedBasis(w1.model, min(window, top + disp + 1))
    checked = starts.size()
    p1 = _push(starts, w1.letters)
    p2 = _push(starts, w2.letters)
    if p1.error or p2.error:
        # the first start in basis order that was live at an error
        for key in starts.keys():
            for p in (p1, p2):
                if p.error and key not in p.dead:
                    return HomologyResult("Inconclusive", str(p.error))
    dead = p1.dead | p2.dead
    if p1.relabel.signature() == p2.relabel.signature():
        # a column untouched on both sides is one unit vector, relabelled alike
        differ = {k for k in p1.cols.keys() | p2.cols.keys() if k not in dead and p1.stored(k) != p2.stored(k)}
    else:
        differ = {k for k in starts.keys() if k not in dead and p1.image(k) != p2.image(k)}
    if differ:
        valid = 0
        for key in starts.keys():
            if key in dead:
                continue
            valid += 1
            if key in differ:
                witness = (
                    f"{starts.key_label(key)} maps to "
                    f"{_fmt_vec(starts, p1.image(key))} vs {_fmt_vec(starts, p2.image(key))}"
                )
                return HomologyResult("Refuted", witness, valid, checked)
    valid = checked - len(dead)
    if valid == 0:
        return HomologyResult("Inconclusive", "empty valid subspace", 0, checked)
    return HomologyResult("Consistent", "", valid, checked)


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
    """Sparse exact-integer matrix over a window's columns with a validity
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
    """Matrix of a word on the window's columns: each column is its exact
    image (empty when the crossing masks it), and it is valid when it was
    not masked and its image lies inside the window the grid displays."""
    keys = basis.keys()
    p = _push(basis, w.letters)
    if p.error:
        raise p.error
    cols = {k: p.image(k) or {} for k in keys}
    valid = frozenset(k for k in keys if k not in p.dead and all(map(basis.in_window, cols[k])))
    return IntMatrix(basis, cols, valid)


def transvection_selftest() -> None:
    """Pin the sign through ``word_matrix`` on Jacob's Ladder at window 2:
    the twist about A[1] sends b_1 to b_1 - a_1, A[1] and B[1] braid and
    preserve the pairing, and the twist about C[2] leaves b_2 invalid (its
    image holds a_3, outside the window)."""
    model = load_model("jacob")
    basis = TruncatedBasis(model, 2)
    a, b, c = (Twist(model.curve(f, i), 1) for f, i in (("A", 1), ("B", 1), ("C", 2)))

    def matrix(*letters: Letter) -> IntMatrix:
        return word_matrix(basis, Word(model, letters))

    got = matrix(a).cols[("b", 1)]
    if got != {("a", 1): -1, ("b", 1): 1}:
        raise AssertionError(f"the twist about A[1] sends b_1 to {_fmt_vec(basis, got)}, not B[1]-A[1]")
    if matrix(a, b, a).cols != matrix(b, a, b).cols:
        raise AssertionError("braid identity failed for A[1], B[1]")
    if ("b", 2) in matrix(c).valid:
        raise AssertionError("the twist about C[2] leaves b_2 valid, but its image leaves the window")
    for m in (matrix(a).cols, matrix(b).cols):
        if any(pairing(m[x], m[y]) != pairing({x: 1}, {y: 1}) for x in m for y in m):
            raise AssertionError("transvection does not preserve the pairing")
