"""Words in signed generators: twists, handle shifts, symmetries.

A word is a finite product of generators read left to right, composed as
functions with the rightmost factor applied first. The inverse of X is
written X~ in the literal syntax. Twist and shift letters carry exponent
+-1 (higher powers are spelled out); symmetry letters carry arbitrary
nonzero exponents since their powers collapse into one automorphism anyway.

Letters are immutable tuples (``typing.NamedTuple``) that hash as their
field tuples. The code compares a letter only with letters of its own type;
letters of different types never compare equal, since their labels differ
(a curve label, a shift label, a symmetry name). A ``Sym`` equals its
``(name, exp)`` pair, the form of a model-file alias letter. ``power`` builds
``X^k`` for scripts and aliases alike, each checking ``MAX_LETTERS`` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

from .errors import ModelMismatch
from .labels import CurveLabel, ShiftLabel
from .models import SurfaceModel


class Twist(NamedTuple):
    label: CurveLabel
    exp: int  # +1 right-handed, -1 its inverse


class Shift(NamedTuple):
    label: ShiftLabel
    exp: int


class Sym(NamedTuple):
    name: str
    exp: int


Letter = Union[Twist, Shift, Sym]
MAX_LETTERS = 10_000  # longest word a script or a model-file alias builds


@dataclass(frozen=True, eq=False)
class Word:
    """An immutable word over one model. Equality is syntactic."""

    model: SurfaceModel
    letters: tuple[Letter, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.model is other.model
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((id(self.model), self.letters))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if other.model is not self.model:
            raise ModelMismatch("cannot multiply words over different models")
        return Word(self.model, self.letters + other.letters)

    def __repr__(self) -> str:
        return f"Word({self})"

    def __str__(self) -> str:
        if not self.letters:
            return "id"
        return " ".join(format_letter(self.model, g) for g in self.letters)


def format_letter(model: SurfaceModel, g: Letter) -> str:
    if isinstance(g, Twist):
        return model.format_curve(g.label, g.exp)
    if isinstance(g, Shift):
        inv = "~" if g.exp < 0 else ""
        return f"h{inv}[{g.label.from_end},{g.label.to_end}]"
    tilde = "~" if g.exp < 0 else ""
    mag = abs(g.exp)
    return f"{g.name}{tilde}" + (f"^{mag}" if mag != 1 else "")


def word(model: SurfaceModel, parts: Iterable[Letter]) -> Word:
    """Build a word, expanding twist/shift powers into unit letters."""
    out: list[Letter] = []
    for g in parts:
        if isinstance(g, Sym):
            if g.exp != 0:
                out.append(g)
            continue
        if g.exp == 0:
            continue
        sign = 1 if g.exp > 0 else -1
        unit = type(g)(g.label, sign)
        out.extend([unit] * abs(g.exp))
    return Word(model, tuple(out))


def invert_letter(g: Letter) -> Letter:
    if isinstance(g, Twist):
        return Twist(g.label, -g.exp)
    if isinstance(g, Shift):
        return Shift(g.label, -g.exp)
    return Sym(g.name, -g.exp)


def invert(w: Word) -> Word:
    """Reverse the word and flip every exponent."""
    return Word(w.model, power(w.letters, -1))


def power(letters: tuple[Letter, ...], k: int) -> tuple[Letter, ...]:
    """The letters repeated k times; for k < 0, reversed with every exponent
    flipped and repeated -k times. The empty word is its own power at any k,
    even one too large for a repeat count."""
    if k < 0:
        letters, k = tuple(invert_letter(g) for g in reversed(letters)), -k
    return letters * k if letters else ()


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until none remain (stack pass)."""
    stack: list[Letter] = []
    for g in letters:
        if stack and _cancels(stack[-1], g):
            top = stack.pop()
            rest = _merge(top, g)
            if rest is not None:
                stack.append(rest)
            continue
        stack.append(g)
    return tuple(stack)


def _cancels(a: Letter, b: Letter) -> bool:
    if isinstance(a, Sym) and isinstance(b, Sym):
        return a.name == b.name
    if type(a) is type(b) and not isinstance(a, Sym):
        return a.label == b.label and a.exp + b.exp == 0
    return False


def _merge(a: Letter, b: Letter) -> Letter | None:
    if isinstance(a, Sym):
        e = a.exp + b.exp  # type: ignore[union-attr]
        return Sym(a.name, e) if e else None
    return None
