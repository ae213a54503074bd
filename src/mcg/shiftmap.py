"""The explicit handle-shift map on the model strip, checked exactly.

The model surface of a handle shift is the strip R x [-1, 1] with a handle
attached at every integer point of the core line. The shift translates the
core band by one unit and damps the translation linearly to zero at the two
boundary lines:

    h(x, y) = (x + 1,        y)   for |y| <= 1/2
    h(x, y) = (x + 2 - 2y,   y)   for  y in [ 1/2, 1]
    h(x, y) = (x + 2 + 2y,   y)   for  y in [-1, -1/2]

Everything here is exact rational arithmetic: the seam agreements at
y = +-1/2 and the pointwise-fixed boundary rows are algebraic identities and
are checked with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import McgError

Rational = Fraction | int
_HALF = Fraction(1, 2)
SAMPLES = 24  # the rows checked are y = k / SAMPLES for |k| <= SAMPLES


@dataclass(frozen=True)
class StripPoint:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        if abs(self.y) > 1:
            raise McgError(f"point ({self.x}, {self.y}) lies outside the strip")

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


def strip_point(x: Rational, y: Rational) -> StripPoint:
    return StripPoint(Fraction(x), Fraction(y))


def handle_shift_point(p: StripPoint) -> StripPoint:
    """One application of the shift, exact on rationals."""
    if -_HALF <= p.y <= _HALF:
        return StripPoint(p.x + 1, p.y)
    if p.y > _HALF:
        return StripPoint(p.x + 2 - 2 * p.y, p.y)
    return StripPoint(p.x + 2 + 2 * p.y, p.y)


@dataclass(frozen=True)
class ShiftCheckReport:
    checks_run: int
    findings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def __str__(self) -> str:
        if self.ok:
            return f"shift-map formula: {self.checks_run} exact checks, all passed"
        lines = [f"shift-map formula: {len(self.findings)} failures in {self.checks_run} checks"]
        lines += [f"  FAIL {f}" for f in self.findings]
        return "\n".join(lines)


def check_shift_properties() -> ShiftCheckReport:
    """Seam agreement of the evaluated branches, fixed boundary rows, unit
    displacement on the core band, strict monotonicity in x on every row."""
    findings: list[str] = []
    run = 0
    xs = [Fraction(k, 3) for k in range(-9, 10)]

    # the boundary rows are fixed, and the damped branch, affine in y, meets
    # the core at the seam: 2 h(x, 3/4) - h(x, 1) = h(x, 1/2), and below
    sides = ((_HALF, Fraction(3, 4), Fraction(1)), (-_HALF, Fraction(-3, 4), Fraction(-1)))
    for x in xs:
        for seam, near_y, edge_y in sides:
            run += 2
            core, near, edge = (handle_shift_point(StripPoint(x, y)) for y in (seam, near_y, edge_y))
            if edge != StripPoint(x, edge_y):
                findings.append(f"boundary row y={edge_y} moved: ({x},{edge_y}) -> {edge}")
            damp = 2 * near.x - edge.x
            if core.x != damp:
                findings.append(f"seam y={seam} at x={x}: {core.x} != {damp}")

    for y in (Fraction(k, SAMPLES) for k in range(-SAMPLES, SAMPLES + 1)):
        if abs(y) <= _HALF:
            run += 1
            img = handle_shift_point(StripPoint(Fraction(0), y))
            if img.x != 1:
                findings.append(f"core displacement at y={y}: {img.x} != 1")
        # strict monotonicity in x row-wise (the row map is x + c(y))
        run += 1
        imgs = [handle_shift_point(StripPoint(x, y)).x for x in xs]
        if any(b <= a for a, b in zip(imgs, imgs[1:])):
            findings.append(f"row y={y} is not strictly increasing in x")

    return ShiftCheckReport(run, tuple(findings))
