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

This module owns the window, which bounds only which columns are compared.
Without one, the oracle compares a pair up to its own displacement bound,
and rank arithmetic (``TruncatedBasis.rank``/``key_at``) finds the columns
it reports without listing the basis. A ``TruncatedBasis`` needs a window
of at least 2, the two positions a linking class spans.

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

A basis class is one integer key, ``(position << 1) | kind``: ``kind`` is 0
for ``a`` and 1 for ``b``, and ``position`` is ``genus * n + end - 1`` on
``sn`` and the chain index on the chain models (floor division and the
arithmetic shift recover both at any genus or index, zero and negative
included). So a key's mate is ``key ^ 1`` and its pairing sign is its low
bit. A per-model class table, memoized on the model, holds the class of
each curve the kernel twists about, as key/coefficient pairs, with its
mates. Keys turn into the tuples
``("a"|"b", end, genus)`` and ``("a"|"b", k)`` only where text is printed
(``key_tuple``), which also fixes the order ``_fmt_vec`` prints them in.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Iterable, NamedTuple, Sequence

from .errors import OutOfWindow, UndefinedSymmetry
from .labels import CurveLabel
from .modelfile import load_model
from .models import Automorphism, SurfaceModel
from .records import Frozen, Record, set_slot
from .words import Letter, Shift, Twist, Word

Key = int  # (position << 1) | kind, see the module docstring
Vec = dict[Key, int]


def key_of(model: SurfaceModel, kind: str, *position: int) -> Key:
    """The key of the class ``kind`` ("a" or "b") at ``end, genus`` on sn
    or at chain index ``k`` on the chain models."""
    if model.kind == "sn":
        end, genus = position
        pos = genus * model.n + end - 1
    else:
        (pos,) = position
    return (pos << 1) | (kind == "b")


def key_tuple(model: SurfaceModel, key: Key) -> tuple:
    """``key`` as ``("a"|"b", end, genus)`` on sn or ``("a"|"b", k)`` on the
    chain models: the form printed text names and orders keys by."""
    kind = "ab"[key & 1]
    if model.kind == "sn":
        genus, end = divmod(key >> 1, model.n)
        return (kind, end + 1, genus)
    return (kind, key >> 1)


def _mates(cls: Vec) -> list[tuple[Key, int]]:
    """<v, cls> is the sum of weight * v[mate] over these (mate, weight)."""
    return [(k ^ 1, c if k & 1 else -c) for k, c in cls.items()]


def _class(model: SurfaceModel, c: CurveLabel) -> Vec:
    """The homology class of a curve, at any position."""
    a = partial(key_of, model, "a")
    if c.family in ("A", "Ap", "B"):
        pos = (c.end, c.index) if model.kind == "sn" else (c.index,)
        return {key_of(model, "b" if c.family == "B" else "a", *pos): 1}
    if model.kind != "sn":
        return {a(c.index): 1, a(c.index + 1): -1}
    if c.index == 0:
        return {a(c.end, 1): 1, a(model._norm_end(c.end + 1), 1): -1}
    return {a(c.end, c.index): 1, a(c.end, c.index + 1): -1}


def _class_entry(model: SurfaceModel, c: CurveLabel) -> tuple[Vec, list[tuple[Key, int]]]:
    """The class table of the kernel: the class of a twist's curve with its
    ``_mates``, memoized on the model. Callers do not mutate either."""
    table: dict = model._hcache  # type: ignore[attr-defined]
    hit = table.get(c)
    if hit is None:
        cls = _class(model, c)
        hit = table[c] = (cls, _mates(cls))
    return hit


class TruncatedBasis(Frozen):
    """The basis columns up to genus (sn) or index magnitude (chain models)
    ``window``, in order: the columns a check compares. Their images are
    exact at every genus and index."""

    _fields = ("model", "window")
    # the window's keys fill one range of key values: genus 1 to window at
    # every end (sn), index -window to window (chain models)
    __slots__ = _fields + ("span",)

    def __init__(self, model: SurfaceModel, window: int):
        if window < 2:  # the floor: a linking class, C[1] = a_1 - a_2, spans two positions
            raise OutOfWindow("window must be at least 2")
        w, n = window, model.n
        set_slot(self, "model", model)
        set_slot(self, "window", w)
        set_slot(self, "span", range(2 * n, 2 * n * (w + 1)) if model.kind == "sn" else range(-2 * w, 2 * w + 2))

    def keys(self) -> list[Key]:
        """Keys in basis order: by end, then genus, on sn; by index on the
        chain models; ``a`` before ``b`` at each position."""
        w = self.window
        if self.model.kind == "sn":
            n = self.model.n
            return [((i * n + e) << 1) | f for e in range(n) for i in range(1, w + 1) for f in (0, 1)]
        return list(self.span)

    def size(self) -> int:
        """``len(self.keys())``, without building the keys."""
        return len(self.span)

    def rank(self, key: Key) -> int:
        """The position of ``key`` in ``keys()``, without building the keys."""
        if self.model.kind == "sn":
            genus, end = divmod(key >> 1, self.model.n)
            return ((end * self.window + genus - 1) << 1) | (key & 1)
        return key - self.span.start

    def key_at(self, rank: int) -> Key:
        """``keys()[rank]``, without building the keys."""
        if self.model.kind == "sn":
            end, rest = divmod(rank, 2 * self.window)
            return ((((rest >> 1) + 1) * self.model.n + end) << 1) | (rank & 1)
        return self.span[rank]

    def in_window(self, key: Key) -> bool:
        return key in self.span

    def key_label(self, key: Key) -> str:
        kind, *pos = key_tuple(self.model, key)
        fam = "A" if kind == "a" else "B"
        if self.model.kind == "sn":
            end, genus = pos
            return f"{fam}[{genus},{end}]-class"
        return f"{self.model.format_curve(CurveLabel(fam, pos[0]))}-class"

    def class_of(self, c: CurveLabel) -> Vec:
        """Homology class of a curve, at any position."""
        return _class(self.model, c)


def pairing(u: Vec, v: Vec) -> int:
    """The skew form: <a_x, b_x> = 1 position-wise."""
    total = 0
    for key, cu in u.items():
        cv = v.get(key ^ 1)
        if cv:
            total += -cu * cv if key & 1 else cu * cv
    return total


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
    an ``Automorphism``, and on ``sn`` a genus offset per start end. Both
    keep a key's kind bit."""

    def __init__(self, model: SurfaceModel):
        self.n = model.n if model.kind == "sn" else 0  # 0 on the chain models
        self.aut = Automorphism.identity(model)
        self._inv: Automorphism | None = self.aut  # None until asked for after a symmetry
        self.lift: dict[int, int] = {}  # start end -> genus offset (sn)
        self.moved = False  # False while the map is the identity

    @property
    def inv(self) -> Automorphism:
        if self._inv is None:
            self._inv = self.aut.inverse()
        return self._inv

    def forward(self, key: Key) -> Key:
        n = self.n
        if n:
            genus, end = divmod(key >> 1, n)
            lift = self.lift.get(end + 1, 0)
            return (((genus + lift) * n + self.aut._map_end(end + 1) - 1) << 1) | (key & 1)
        return (self.aut._map_index(key >> 1) << 1) | (key & 1)

    def back(self, key: Key) -> Key:
        n = self.n
        if n:
            genus, end = divmod(key >> 1, n)
            start = self.inv._map_end(end + 1)
            return (((genus - self.lift.get(start, 0)) * n + start - 1) << 1) | (key & 1)
        return (self.inv._map_index(key >> 1) << 1) | (key & 1)

    def then_symmetry(self, aut: Automorphism) -> None:
        self.aut = aut.compose(self.aut)
        self._inv = None
        self.moved = True

    def then_shift(self, attract: int, repel: int) -> None:
        """A shift moves its attracting end's strand out by one handle and
        the other end's strand in by one."""
        for end, step in ((attract, 1), (repel, -1)):
            start = self.inv._map_end(end)
            self.lift[start] = self.lift.get(start, 0) + step
        self.moved = True

    def signature(self) -> tuple:
        """Equal signatures mean equal key maps."""
        return self.aut.u, self.aut.v, frozenset((e, d) for e, d in self.lift.items() if d)


class _Pushed(Record):
    """A word applied to the unit start columns, kept lazily.

    ``cols`` holds, in start coordinates, the columns a twist has changed;
    every other start outside ``dead`` (the columns a shift carried across
    the central region) is still its own unit vector. ``relabel`` carries
    start coordinates to the image's.
    ``error`` is set when live columns reached a symmetry without a label
    action; the word stopped there and each of them maps to that error.
    """

    __slots__ = _fields = ("cols", "dead", "relabel", "error")

    def __init__(self, cols: dict[Key, Vec], dead: set[Key], relabel: _Relabel, error: UndefinedSymmetry | None):
        self.cols, self.dead, self.relabel, self.error = cols, dead, relabel, error

    def stored(self, start: Key) -> Vec:
        return self.cols.get(start) or {start: 1}

    def image(self, start: Key) -> Vec | None:
        """The column at ``start`` in current coordinates; None when masked."""
        if start in self.dead:
            return None
        move = self.relabel.forward
        return {move(k): c for k, c in self.stored(start).items()}


def _crossing(model: SurfaceModel, repel: int) -> tuple[Key, ...]:
    """The keys, in current coordinates, that a shift with repelling end
    ``repel`` carries across the central region: that end's first handle."""
    a = key_of(model, "a", repel, 1)
    return a, a ^ 1


def _push(basis: TruncatedBasis, letters: Sequence[Letter]) -> _Pushed:
    """Apply a word, right to left, to the unit columns at ``basis.keys()``
    at once, exactly at every genus and index.

    A twist changes only the columns that pair with its class; symmetry and
    shift letters compose into the pending relabel. The only mask is the
    crossing: a shift masks the columns holding the ``_crossing`` keys,
    found through the row index.
    """
    model = basis.model
    live = basis.span
    cols: dict[Key, Vec] = {}
    rows: defaultdict[Key, set[Key]] = defaultdict(set)  # start-coordinate key -> stored columns nonzero there
    dead: set[Key] = set()
    count = basis.size()
    relabel = _Relabel(model)

    def holders(key: Key, found: set[Key]) -> None:
        """Add the starts whose column is nonzero at ``key`` to ``found``."""
        held = rows.get(key)
        if held:
            found |= held
        if key not in cols and key not in dead and key in live:
            found.add(key)  # an untouched live start

    for g in reversed(letters):
        if len(dead) == count:
            break
        t = type(g)
        if t is Twist:
            cls, mates = _class_entry(model, g.label)
            if relabel.moved:
                back = relabel.back
                cls = {back(k): c for k, c in cls.items()}
                mates = _mates(cls)
            found: set[Key] = set()
            for m, _ in mates:
                holders(m, found)
            for start in found:
                v = cols.get(start)
                if v is None:
                    v = {start: 1}
                    if not _transvect(v, cls, mates, g.exp):
                        continue
                    cols[start] = v
                    rows[start].add(start)
                elif not _transvect(v, cls, mates, g.exp):
                    continue
                for k in cls:
                    if k in v:
                        rows[k].add(start)
                    else:
                        rows[k].discard(start)
        elif t is Shift:
            h = g.label
            attract, repel = (h.to_end, h.from_end) if g.exp > 0 else (h.from_end, h.to_end)
            found = set()
            for key in _crossing(model, repel):
                holders(relabel.back(key), found)
            for start in found:
                for k in cols.pop(start, ()):
                    rows[k].discard(start)
                dead.add(start)
            relabel.then_shift(attract, repel)
        else:
            try:
                aut = model.automorphism_of_word((g,))
            except UndefinedSymmetry as e:
                return _Pushed(cols, dead, relabel, e)
            relabel.then_symmetry(aut)
    return _Pushed(cols, dead, relabel, None)


# ---------------------------------------------------------------------------
# identity verification


class HomologyResult(NamedTuple):
    status: str  # "Consistent" | "Refuted" | "Inconclusive"
    witness: str = ""
    valid_columns: int = 0
    checked_columns: int = 0

    def __str__(self) -> str:
        tail = f" [{self.witness}]" if self.witness else ""
        return f"{self.status}({self.valid_columns}/{self.checked_columns} columns){tail}"


def _support_bound(words: Iterable[Word]) -> int:
    """The window past which no column can move: the largest index magnitude
    touched, plus the largest displacement a column can see, plus one.

    The displacement is the number of shift letters (each moves a strand
    position by one) plus, on the chain models, the largest translation part
    of any suffix-composite of the symmetry letters (a column's trajectory
    under the applied prefix is affine, so that maximum bounds how far it
    wanders).
    """
    top, disp = 0, 1
    for w in words:
        model = w.model
        chain = model.kind != "sn"
        shifts = maxv = 0
        aut = None  # the symmetry letters so far, once there is one
        for g in reversed(w.letters):
            t = type(g)
            if t is Twist:
                top = max(top, abs(g.label.index) + 1)
            elif t is Shift:
                shifts += 1
            elif chain:
                try:
                    step = model.automorphism_of_word((g,))
                except UndefinedSymmetry:
                    maxv = max(maxv, abs(g.exp))
                    continue
                aut = step if aut is None else step.compose(aut)
                maxv = max(maxv, abs(aut.v))
        disp = max(disp, shifts + maxv + 1)
    return top + disp + 1


def _first_start(basis: TruncatedBasis, skip: set[Key], relabels: tuple[_Relabel, _Relabel] | None = None) -> int:
    """The rank of the first start outside ``skip``, of those that two different
    ``relabels`` send apart when given (``basis.size()`` if none). Relabels agree
    on all of an sn end or none of it, and distinct affine index maps at one
    chain position at most, so no search lists the basis."""
    rank, block = 0, 2 * basis.window if basis.model.kind == "sn" else 1  # the keys of one end, or one key
    while rank < basis.size():
        key = basis.key_at(rank)
        if relabels and relabels[0].forward(key) == relabels[1].forward(key):
            rank += block
        elif key in skip:
            rank += 1
        else:
            break
    return rank


def verify_identity_homology(w1: Word, w2: Word, window: int | None = None) -> HomologyResult:
    """Compare the exact homology images of two words column by column,
    over the columns that the crossing masks on neither side.

    Columns provably fixed by both words are not compared: on ``sn`` models
    a column whose genus exceeds every touched genus plus the total shift
    displacement never meets a twist class or a shifted strand edge; on the
    chain models the same holds beyond the touched positions plus the total
    translation distance. A ``window`` caps the columns below that bound.
    Only columns that a twist changed on either side are built.
    """
    if w1.model is not w2.model:
        return HomologyResult("Inconclusive", "model mismatch")
    bound = _support_bound((w1, w2))
    starts = TruncatedBasis(w1.model, bound if window is None else min(window, bound))
    checked = starts.size()
    p1 = _push(starts, w1.letters)
    # a replay often checks a word against itself: one push serves both sides
    p2 = p1 if w2.letters == w1.letters else _push(starts, w2.letters)
    stopped = [p for p in (p1, p2) if p.error]
    if stopped:
        # the error of the first start in basis order that was live at one
        error = min(stopped, key=lambda p: _first_start(starts, p.dead)).error
        return HomologyResult("Inconclusive", str(error), 0, checked)
    dead = p1.dead | p2.dead
    touched = (p1.cols.keys() | p2.cols.keys()) - dead
    if p1 is p2:
        ranks = []
    elif p1.relabel.signature() == p2.relabel.signature():
        # a column untouched on both sides is one unit vector, relabelled alike
        ranks = [starts.rank(k) for k in touched if p1.stored(k) != p2.stored(k)]
    else:
        ranks = [starts.rank(k) for k in touched if p1.image(k) != p2.image(k)]
        ranks.append(_first_start(starts, touched | dead, (p1.relabel, p2.relabel)))
    first = min(ranks, default=checked)  # the first start whose images differ
    if first < checked:
        key = starts.key_at(first)
        valid = first + 1 - sum(starts.rank(k) < first for k in dead)
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
    for key in sorted(v, key=partial(key_tuple, basis.model)):
        c = v[key]
        lab = basis.key_label(key).removesuffix("-class")
        parts.append(("+" if c > 0 else "-") + (f"{abs(c)}*" if abs(c) != 1 else "") + lab)
    s = "".join(parts)
    return s[1:] if s.startswith("+") else s


# ---------------------------------------------------------------------------
# explicit matrices: word_matrix and its grid (small windows, for display)


class IntMatrix(Record):
    """Sparse exact-integer matrix over a window's columns with a validity
    mask: only columns in ``valid`` are asserted."""

    __slots__ = _fields = ("basis", "cols", "valid")

    def __init__(self, basis: TruncatedBasis, cols: dict[Key, Vec], valid: frozenset[Key]):
        self.basis, self.cols, self.valid = basis, cols, valid

    def grid(self) -> str:
        """Plain-text integer grid (row-major over the basis order)."""
        keys = self.basis.keys()
        lines = []
        for row in keys:
            lines.append(" ".join(str(self.cols[col].get(row, 0)) for col in keys))
        return "\n".join(lines)

    def invalid_note(self) -> str:
        """One line naming each column that is not valid, in basis order, and
        why: a masked column has an empty image, any other leaves the window."""
        notes = [
            f"{self.basis.key_label(k)} ({'image leaves the window' if self.cols[k] else 'masked at the crossing'})"
            for k in self.basis.keys()
            if k not in self.valid
        ]
        return f"invalid columns: {', '.join(notes) or 'none'}"


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
    """Pin the sign and the crossing through ``word_matrix``. On Jacob's
    Ladder at window 2: the twist about A[1] sends b_1 to b_1 - a_1, A[1]
    and B[1] braid and preserve the pairing, and the twist about C[2] leaves
    b_2 invalid (its image holds a_3, outside the window). On S(3) at
    window 2, h[1,2] moves the attracting strand up and the repelling one
    down, masks the repelling end's genus-1 column and fixes strand 3."""
    model = load_model("jacob")
    basis = TruncatedBasis(model, 2)
    key = partial(key_of, model)
    a, b, c = (Twist(model.curve(f, i), 1) for f, i in (("A", 1), ("B", 1), ("C", 2)))

    def matrix(*letters: Letter) -> IntMatrix:
        return word_matrix(basis, Word(model, letters))

    ma, mb = matrix(a).cols, matrix(b).cols
    got = ma[key("b", 1)]
    if got != {key("a", 1): -1, key("b", 1): 1}:
        raise AssertionError(f"the twist about A[1] sends b_1 to {_fmt_vec(basis, got)}, not B[1]-A[1]")
    if matrix(a, b, a).cols != matrix(b, a, b).cols:
        raise AssertionError("braid identity failed for A[1], B[1]")
    if key("b", 2) in matrix(c).valid:
        raise AssertionError("the twist about C[2] leaves b_2 valid, but its image leaves the window")
    for m in (ma, mb):
        if any(pairing(m[x], m[y]) != pairing({x: 1}, {y: 1}) for x in m for y in m):
            raise AssertionError("transvection does not preserve the pairing")

    sn = load_model("sn", 3)
    a = partial(key_of, sn, "a")
    h, sign = sn.shift(1, 2)
    m = word_matrix(TruncatedBasis(sn, 2), Word(sn, (Shift(h, sign),)))
    for start, image, fact in (
        (a(2, 1), {a(2, 2): 1}, "moves the attracting strand up"),
        (a(1, 2), {a(1, 1): 1}, "moves the repelling strand down"),
        (a(1, 1), {}, "masks the repelling end's genus-1 column"),
        (a(3, 1), {a(3, 1): 1}, "fixes strand 3"),
    ):
        if m.cols[start] != image or (start in m.valid) != bool(image):
            raise AssertionError(f"h[1,2] no longer {fact} on S(3)")
