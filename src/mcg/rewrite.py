"""Deciding word identities by normalization plus bounded braid search.

The strategy is a deterministic loop:

1. *Symmetry pushing.* Every finite-order symmetry letter is moved to the
   right end of the word; each twist or shift it passes over is relabelled by
   the symmetry's exact label action (``f t_c f~ = t_{f(c)}``). The pushed-out
   tail composes into a single affine automorphism; the models represent
   their symmetry subgroups faithfully on labels, so an identity automorphism
   is the identity element and the tail may be dropped.

2. *Trace reduction and commutation sorting.* Twists about disjoint curves
   commute, so a word is a trace: cancellation works on the trace, where an
   inverse pair cancels whenever everything between the two commutes with
   them, and leaves the unique reduced trace. Its lexicographically least
   word under a fixed total letter order is read off in one topological
   pass (Cartier-Foata; Anisimov-Knuth), at any length. This alone settles
   most derivation steps.

3. *Braid moves.* For curves meeting once, the braid relation
   ``A B A = B A B`` and the transport rule ``A^s B^t A^-s = B^-s A^t B^s``
   (its conjugation form) are applied by a best-first search over
   commutation-canonical forms, shortest words first, until the empty word is
   reached or the rewrite budget runs out. Shift letters pass over twists by
   relabelling genus indices where the shift's action is defined.

Steps 2 and 3 run on letter numbers (see ``_Ctx``): the trace normal form
needs only each letter's inverse, commutation class and sort key, so it
works on small ints. No order depends on the numbers, only on sort keys.

A pair w1 = w2 is decided in one place (``_decide_pair``) from the two
words' splits: with equal symmetry parts, w1 w2~ pushes to core(w1)
core(w2)~, which steps 2 and 3 must empty. ``equivalent`` and goal
matching (``GoalIndex``) both go through it. Every move above keeps the
exponent sums of the twists and of the shifts, so the index files proved
words under (symmetry part, twist sum, shift sum) and tries a goal only
against its own bucket; skipping the others loses no proof.

The engine only proves: ``equivalent`` answers ProvedEqual or Unknown, and
failure to normalize is not a proof of distinctness. It runs no oracle and
imports none; ``replay.judge`` combines it with the homology and
end-permutation oracles, which may refute what it leaves Unknown. An
involution ``r x`` (r the leading symmetry letters) is checked as the
identity ``r x r = x~``, the pair ``check_involution`` builds.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import BudgetExhausted, ModelMismatch, UndefinedSymmetry
from .labels import CurveLabel, FAMILY_RANK
from .models import Automorphism, SurfaceModel
from .words import Letter, Shift, Sym, Twist, Word, invert, invert_letter

DEFAULT_BUDGET = 100_000


class Budget:
    """Counts rewrite applications against a hard limit."""

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise BudgetExhausted(self.spent)


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class ProvedEqual:
    kind = "ProvedEqual"
    trace: tuple[str, ...]
    budget_used: int


@dataclass(frozen=True)
class Unknown:
    kind = "Unknown"
    reason: str
    budget_used: int


# ---------------------------------------------------------------------------
# label geometry helpers


def strand_set(c: CurveLabel) -> frozenset[int]:
    """Ends whose strands the curve touches (sn labels only)."""
    if c.family == "C" and c.index == 0:
        return frozenset((c.end, c.end + 1))  # normalized on use
    return frozenset((c.end,))


def shift_relabel(model: SurfaceModel, h, exp: int, c: CurveLabel) -> CurveLabel | None:
    """Image of a curve under the shift ``h^exp``; None when it would cross
    the central region (the label system has no name for the image)."""
    p, q = h.from_end, h.to_end
    ends = {p, q}
    touched = {model._norm_end(e) for e in strand_set(c)}
    if not (touched & ends):
        return c
    if c.family == "C" and c.index == 0:
        return None
    attract = q if exp > 0 else p
    if c.end == attract:
        return CurveLabel(c.family, c.index + 1, c.end)
    moved = CurveLabel(c.family, c.index - 1, c.end)
    return moved if model.is_valid_curve(moved) and moved.index >= 1 else None


# ---------------------------------------------------------------------------
# rewrite context: letter numbers and per-model caches for the hot paths

TWIST, SHIFT, SYM = 0, 1, 2


class _Memo(dict):
    """A dict that computes a missing value as ``fill(key)`` and keeps it,
    so a hit is one C-level subscript."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Ctx:
    """Letter numbers and memo tables of one model; the model holds it (see
    ``_ctx``), so it is freed with the model.

    The first time the engine sees a letter, the letter and its inverse get
    numbers (``num``). Flat tables indexed by number hold each letter's
    inverse (-1 for a symmetry letter, which never cancels), commutation
    class, sort key, exponent and kind, so the search compares and hashes
    small ints. No order depends on the numbers: sorts and ranks compare
    sort keys.
    """

    def __init__(self, model: SurfaceModel):
        self.model = model
        self.letters: list[Letter] = []  # the letter of each number
        self.inv: list[int] = []
        self.cls: list[int] = []
        self.keys: list[tuple] = []
        self.exp: list[int] = []
        self.kind: list[int] = []
        self._ids: dict[tuple, int] = {}  # commutation class -> its number
        self._reps: list[Letter] = []  # one letter of each class, by number
        self.num = _Memo(self._number)  # letter -> number
        self.comm = _Memo(self._commutes_pair)  # (class, class) -> commute?
        self.twist = _Memo(self._twist)  # (class, exp) -> twist number
        self.shifted = _Memo(self._shifted)  # (shift, twist, sign) -> image number or -1

    def _number(self, g: Letter) -> int:
        i = self._add(g)
        if not isinstance(g, Sym):
            j = self._add(invert_letter(g))
            self.inv[i], self.inv[j] = j, i
        return i

    def _add(self, g: Letter) -> int:
        i = self.num[g] = len(self.letters)
        self.letters.append(g)
        self.inv.append(-1)
        self.cls.append(self.cid(g))
        self.keys.append(self._sort_key(g))
        self.exp.append(g.exp)
        self.kind.append(TWIST if isinstance(g, Twist) else SHIFT if isinstance(g, Shift) else SYM)
        return i

    def _twist(self, key: tuple[int, int]) -> int:
        c, exp = key
        return self.num[Twist(self._reps[c].label, exp)]

    def _shifted(self, key: tuple[int, int, int]) -> int:
        """Twist ``t`` carried across shift ``h`` to the power ``sign``; -1
        when its image has no label (see shift_relabel)."""
        h, t, sign = key
        sh, tw = self.letters[h], self.letters[t]
        img = shift_relabel(self.model, sh.label, sign * sh.exp, tw.label)
        return -1 if img is None else self.num[Twist(img, tw.exp)]

    def cid(self, g: Letter) -> int:
        """Number of the commutation class of ``g``: its letter type and
        label (a symmetry's name), which is all ``commutes`` reads."""
        k = (g.name, Sym) if isinstance(g, Sym) else (g.label, g.__class__)
        hit = self._ids.get(k)
        if hit is None:
            hit = self._ids[k] = len(self._reps)
            self._reps.append(g)
        return hit

    def _commutes_pair(self, key: tuple[int, int]) -> bool:
        i, j = key
        hit = self.comm[(j, i)] = self._commutes(self._reps[i], self._reps[j])
        return hit

    def _commutes(self, x: Letter, y: Letter) -> bool:
        if isinstance(x, Sym) or isinstance(y, Sym):
            return False  # blocked symmetry letters are opaque
        if isinstance(x, Twist) and isinstance(y, Twist):
            return self.model.intersection(x.label, y.label) == 0
        if isinstance(x, Shift) and isinstance(y, Shift):
            return x.label == y.label or not (x.label.ends & y.label.ends)
        tw, sh = (x, y) if isinstance(x, Twist) else (y, x)
        touched = {self.model._norm_end(e) for e in strand_set(tw.label)}
        return not (touched & sh.label.ends)

    def _sort_key(self, g: Letter) -> tuple:
        if isinstance(g, Twist):
            c = g.label
            if self.model.kind == "sn":
                return (0, c.end, c.index, FAMILY_RANK[c.family], -g.exp)
            return (0, c.index, 0, FAMILY_RANK[c.family], -g.exp)
        if isinstance(g, Shift):
            return (1, g.label.from_end, g.label.to_end, 0, -g.exp)
        return (2, g.name, g.exp, 0, 0)


def _ctx(model: SurfaceModel) -> _Ctx:
    ctx = getattr(model, "_rewrite_ctx", None)
    if ctx is None:
        ctx = _Ctx(model)
        object.__setattr__(model, "_rewrite_ctx", ctx)
    return ctx


# ---------------------------------------------------------------------------
# symmetry pushing


def split_symmetries(w: Word) -> tuple[list[Letter], Automorphism]:
    """(relabelled twist/shift letters, composite automorphism). Raises
    UndefinedSymmetry when a symmetry without a label action (the end swap
    on sn) must pass over a letter."""
    model = w.model
    aut = Automorphism.identity(model)
    letters = w.letters
    first = next((i for i, g in enumerate(letters) if isinstance(g, Sym)), len(letters))
    core: list[Letter] = list(letters[:first])  # the identity relabels nothing
    for g in letters[first:]:
        if isinstance(g, Sym):
            step = model.automorphism_of_word([(g.name, g.exp)])
            aut = aut.compose(step)
        elif isinstance(g, Twist):
            core.append(Twist(aut.act_curve(g.label), g.exp))
        else:
            lab, exp = aut.act_shift(g.label, g.exp)
            core.append(Shift(lab, exp))
    return core, aut


# ---------------------------------------------------------------------------
# commutation-canonical form


def canonical(model: SurfaceModel, letters: Sequence[Letter], budget: Budget) -> tuple[Letter, ...]:
    """Lexicographically least word of the reduced trace of ``letters``."""
    ctx = _ctx(model)
    return tuple(ctx.letters[g] for g in _canonical(ctx, [ctx.num[g] for g in letters], budget))


def _canonical(ctx: _Ctx, w: Sequence[int], budget: Budget) -> tuple[int, ...]:
    """``canonical`` on letter numbers.

    Reduce: each letter cancels the nearest inverse it can commute back to
    (one budget unit per pair), which leaves the unique reduced trace.
    Sort: the least ready letter goes first, where a letter is ready once
    every earlier letter it does not commute with is placed.
    """
    inv, cls, keys, comm = ctx.inv, ctx.cls, ctx.keys, ctx.comm
    red: list[int] = []
    ids: list[int] = []  # commutation class of each letter of red
    for g in w:
        gi, gid = inv[g], cls[g]
        p = len(red) - 1
        while p >= 0 and red[p] != gi and comm[(ids[p], gid)]:
            p -= 1
        if p >= 0 and red[p] == gi:
            del red[p], ids[p]
            budget.spend()
        else:
            red.append(g)
            ids.append(gid)
    blockers = [0] * len(red)
    after: list[list[int]] = [[] for _ in red]
    for j, y in enumerate(ids):
        for i in range(j):
            if not comm[(ids[i], y)]:
                after[i].append(j)
                blockers[j] += 1
    ready = [(keys[g], p) for p, g in enumerate(red) if not blockers[p]]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        _, i = heapq.heappop(ready)
        out.append(red[i])
        for j in after[i]:
            blockers[j] -= 1
            if not blockers[j]:
                heapq.heappush(ready, (keys[red[j]], j))
    return tuple(out)


# ---------------------------------------------------------------------------
# braid and shift moves


def _neighbors(ctx: _Ctx, w: tuple[int, ...]) -> Iterator[tuple[str, list[int]]]:
    kind, cls, exp, comm, twist = ctx.kind, ctx.cls, ctx.exp, ctx.comm, ctx.twist
    ids = [cls[g] for g in w]
    n = len(w)
    for j in range(n):
        if kind[w[j]] != TWIST:
            continue
        b = ids[j]
        for i in range(j):
            a = ids[i]
            # twists meet once exactly when they do not commute
            if kind[w[i]] != TWIST or comm[(a, b)]:
                continue
            for k in range(j + 1, n):
                if ids[k] != a:  # a twist about the same curve as letter i
                    continue
                if not all(comm[(ids[p], a)] and comm[(ids[p], b)] for p in range(i + 1, k) if p != j):
                    continue
                s, t, u = exp[w[i]], exp[w[j]], exp[w[k]]
                out = list(w)
                if u == -s:
                    # A^s B^t A^-s = B^-s A^t B^s
                    out[i], out[j], out[k] = twist[(b, -s)], twist[(a, t)], twist[(b, s)]
                    yield (f"transport@{i}", out)
                elif u == s and t == s:
                    out[i], out[j], out[k] = twist[(b, s)], twist[(a, s)], twist[(b, s)]
                    yield (f"braid@{i}", out)
    if ctx.model.kind != "sn":
        return
    for i in range(n):
        g = w[i]
        if kind[g] != SHIFT:
            continue
        h = ids[i]
        for k in range(n):
            t = w[k]
            if k == i or kind[t] != TWIST or comm[(h, ids[k])]:
                continue
            c = ids[k]
            lo, hi = (i, k) if i < k else (k, i)
            if not all(comm[(ids[p], h)] and comm[(ids[p], c)] for p in range(lo + 1, hi)):
                continue
            img = ctx.shifted[(g, t, 1 if i < k else -1)]
            if img < 0:
                continue
            out = list(w)
            if i < k:
                out[i], out[k] = img, g
                yield (f"shift-right@{i}", out)
            else:
                out[k], out[i] = g, img
                yield (f"shift-left@{i}", out)


def _search(
    ctx: _Ctx, start: tuple[int, ...], budget: Budget
) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Best-first search over canonical forms. Returns the empty word as soon
    as it is reached, else the best form reached, and the move trace to it."""
    keys = ctx.keys
    counter = itertools.count()
    seen: dict[tuple[int, ...], tuple | None] = {start: None}
    best = start
    best_rank = (len(start), tuple(keys[g] for g in start))
    heap = [(len(start), next(counter), start)]
    while heap:
        _, _, cur = heapq.heappop(heap)
        for desc, raw in _neighbors(ctx, cur):
            budget.spend()
            new = _canonical(ctx, raw, budget)
            if new in seen:
                continue
            seen[new] = (cur, desc)
            if not new:
                return new, _trace(seen, new)
            if len(new) <= best_rank[0]:
                rank = (len(new), tuple(keys[g] for g in new))
                if rank < best_rank:
                    best, best_rank = new, rank
            heapq.heappush(heap, (len(new), next(counter), new))
    return best, _trace(seen, best)


def _trace(seen: dict, node: tuple) -> tuple[str, ...]:
    moves: list[str] = []
    while seen.get(node) is not None:
        node, desc = seen[node]
        moves.append(desc)
    return tuple(reversed(moves))


def _decide(ctx: _Ctx, w: Sequence[int], budget: Budget) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Commutation-canonical form, then the braid search from it: the form
    reached and its move trace, ``("canonical",)`` if the first is empty."""
    start = _canonical(ctx, w, budget)
    if not start:
        return (), ("canonical",)
    return _search(ctx, start, budget)


# ---------------------------------------------------------------------------
# pair decision: one for equivalent and goal matching

_Split = tuple[tuple[int, ...], Automorphism]  # pushed core as letter numbers, symmetry part


def _split(w: Word) -> _Split | None:
    """``split_symmetries`` of ``w`` on letter numbers; None when ``w`` holds
    a symmetry without a label action."""
    try:
        core, aut = split_symmetries(w)
    except UndefinedSymmetry:
        return None
    num = _ctx(w.model).num
    return tuple(num[g] for g in core), aut


def _decide_pair(ctx: _Ctx, s1: _Split | None, s2: _Split | None, budget: int) -> ProvedEqual | Unknown:
    """The engine's verdict on w1 = w2 from their splits:
    w1 w2~ fails to push exactly when either word does, and otherwise its
    core core(w1) core(w2)~ is decided under a fresh budget when the two
    symmetry parts agree. The move trace that empties it is the proof."""
    if s1 is None or s2 is None:
        return Unknown("word contains a symmetry without a label action", 0)
    if s1[1] != s2[1]:
        return Unknown("symmetry parts differ as label automorphisms", 0)
    b = Budget(budget)
    try:
        form, trace = _decide(ctx, [*s1[0], *(ctx.inv[g] for g in reversed(s2[0]))], b)
    except BudgetExhausted:
        return Unknown("budget exhausted", b.spent)
    return Unknown("not reduced to the empty word", b.spent) if form else ProvedEqual(trace, b.spent)


def _index_key(ctx: _Ctx, s: _Split) -> tuple:
    """What every engine move keeps: the symmetry part and the exponent sums
    of the twists and of the shifts."""
    kind, exp = ctx.kind, ctx.exp
    return s[1], sum(exp[g] for g in s[0] if kind[g] == TWIST), sum(exp[g] for g in s[0] if kind[g] == SHIFT)


class GoalIndex:
    """Proved words of one model, each distinct word split once and filed,
    newest first, under its ``_index_key``. A pair from two buckets never
    empties, so a goal tried against its own bucket gets the name that a
    newest-first ``equivalent`` loop over every word would."""

    def __init__(self, proved: Sequence[tuple[str, Word]]):
        self._buckets: dict[tuple, list[tuple[str, _Split]]] = {}
        seen: set = set()
        for name, w in reversed(proved):
            if w.letters in seen:
                continue  # the engine is deterministic: a repeat repeats a verdict
            seen.add(w.letters)
            s = _split(w)
            if s is not None:  # a word that cannot push is proved equal to nothing
                self._buckets.setdefault(_index_key(_ctx(w.model), s), []).append((name, s))

    def first_equal(self, w: Word, budget: int) -> str | None:
        """Name of the newest proved word that the engine proves equal to
        ``w``, each pair under its own ``budget``; None when there is none."""
        s = _split(w)
        if s is None:
            return None
        ctx = _ctx(w.model)
        for name, cand in self._buckets.get(_index_key(ctx, s), ()):
            if _decide_pair(ctx, cand, s, budget).kind == "ProvedEqual":
                return name
        return None


# ---------------------------------------------------------------------------
# public operations


@dataclass(frozen=True)
class NormalizeResult:
    normalized: bool
    word: Word
    trace: tuple[str, ...]
    budget_used: int


def reduce_word(w: Word, budget: int = DEFAULT_BUDGET) -> Word:
    """Shortest form of ``w`` found within the budget, or ``w`` itself when
    the budget runs out."""
    return normalize(w, budget).word


def normalize(w: Word, budget: int = DEFAULT_BUDGET) -> NormalizeResult:
    """Deterministic canonical-ish form of ``w`` within the budget: symmetry
    push, commutation canonical form, braid minimization."""
    ctx = _ctx(w.model)
    s = _split(w)
    b = Budget(budget)
    try:
        if s is None:
            form, trace = _canonical(ctx, [ctx.num[g] for g in w.letters], b), ("symmetry-blocked",)
        else:
            form, trace = _decide(ctx, s[0], b)
    except BudgetExhausted:
        return NormalizeResult(False, w, ("budget-exhausted",), b.spent)
    tail = () if s is None or s[1].is_identity() else tuple(g for g in w.letters if isinstance(g, Sym))
    return NormalizeResult(True, Word(w.model, tuple(ctx.letters[g] for g in form) + tail), trace, b.spent)


def equivalent(
    w1: Word,
    w2: Word,
    budget: int = DEFAULT_BUDGET,
    # unread; kept for perfbench's cross-oracle call until ROADMAP item 6 drops them
    window: int | None = None,
    oracles: bool = False,
) -> ProvedEqual | Unknown:
    """The engine's verdict on w1 = w2: ProvedEqual via normalization of
    w1 w2^-1 to the empty word, else Unknown. It runs no oracle."""
    if oracles:
        raise TypeError("equivalent runs no oracle; replay.judge runs them")
    if w1.model is not w2.model:
        raise ModelMismatch("words over different models")
    return _decide_pair(_ctx(w1.model), _split(w1), _split(w2), budget)


def check_involution(w: Word) -> tuple[Word, Word]:
    """The identity ``r x r = x~`` that says ``w`` squares to 1, where r is
    the leading run of symmetry letters of ``w`` and x the rest; either may
    be empty. In any group r x r = x^-1 exactly when (r x)^2 = 1, so r need
    not be an involution itself. The difference word is ``w w``.
    """
    k = next((i for i, g in enumerate(w.letters) if not isinstance(g, Sym)), len(w.letters))
    r, x = Word(w.model, w.letters[:k]), Word(w.model, w.letters[k:])
    return r * x * r, invert(x)
