"""Curve and handle-shift labels.

Curves exist purely as labels: a family letter plus indices. Three families
of surface carry them:

* ``sn`` (n >= 3 ends, each accumulated by genus): labels carry a genus index
  and an end index. Family ``A``/``A'``/``B`` curves live at genus >= 1 on one
  end strand; family ``C`` curves live at genus >= 0, where the genus-0 curve
  of strand ``j`` sits in the central region between strand ``j`` and strand
  ``j+1`` (indices around the ends are cyclic).

* ``jacob`` (two ends): a single bi-infinite chain; one integer index.

* ``lochness`` (one end): a single chain as well, but the printed labels for
  the ``A``/``B`` families skip 0 (..., -2, -1, 1, 2, ...). Internally the
  chain coordinate is contiguous; the skip is applied only when converting to
  and from the printed form.

Handle shifts on ``sn`` are labelled by an ordered pair of distinct ends
(repelling, attracting); the inverse of ``h[p,q]`` is ``h[q,p]``. The
two-ended and one-ended models have a single distinguished shift, which the
engine treats as a defined product of the primitive involutions rather than a
generator in its own right.

Both label types are immutable tuples (``typing.NamedTuple``), as every
immutable value type of the package is (``records`` covers the rest):
construction, hashing, equality and ordering run in C, and a label hashes as
its field tuple. The code compares a label only with labels of its own type.
"""

from __future__ import annotations

from typing import NamedTuple

FAMILIES = ("A", "Ap", "B", "C")
FAMILY_RANK = {f: i for i, f in enumerate(FAMILIES)}

_PRINT = {"A": "A", "Ap": "A'", "B": "B", "C": "C"}
_PARSE = {v: k for k, v in _PRINT.items()}


def family_print(fam: str) -> str:
    return _PRINT[fam]


def family_parse(text: str) -> str | None:
    return _PARSE.get(text)


class CurveLabel(NamedTuple):
    """A named simple closed curve.

    ``index`` is the genus index on ``sn`` models and the internal chain
    coordinate on the one- and two-ended models. ``end`` is present exactly
    for ``sn`` models.
    """

    family: str
    index: int
    end: int | None = None

    def __repr__(self) -> str:
        if self.end is None:
            return f"{_PRINT[self.family]}[{self.index}]"
        return f"{_PRINT[self.family]}[{self.index},{self.end}]"


class ShiftLabel(NamedTuple):
    """A handle shift between two distinct ends of an ``sn`` model.

    Stored with ``from_end < to_end``; a shift written with the ends the
    other way round is this label with exponent -1.
    """

    from_end: int
    to_end: int

    def __repr__(self) -> str:
        return f"h[{self.from_end},{self.to_end}]"

    @property
    def ends(self) -> frozenset[int]:
        return frozenset((self.from_end, self.to_end))
