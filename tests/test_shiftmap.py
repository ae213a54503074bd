from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mcg.shiftmap
from mcg.errors import McgError
from mcg.shiftmap import StripPoint, check_shift_properties, handle_shift_point, strip_point


def test_core_band_translates_by_one():
    assert handle_shift_point(strip_point(0, 0)) == strip_point(1, 0)
    assert handle_shift_point(strip_point(-3, Fraction(1, 2))) == strip_point(-2, Fraction(1, 2))


def test_boundary_rows_fixed_pointwise():
    # at y = 1 the damped branch gives x + 2 - 2 = x
    assert handle_shift_point(strip_point(0, 1)) == strip_point(0, 1)
    assert handle_shift_point(strip_point(7, -1)) == strip_point(7, -1)


def test_damped_branch_value():
    assert handle_shift_point(strip_point(0, Fraction(3, 4))) == strip_point(Fraction(1, 2), Fraction(3, 4))


def test_outside_strip_rejected():
    with pytest.raises(McgError):
        strip_point(0, Fraction(5, 4))


def test_check_report_clean():
    report = check_shift_properties()
    assert report.ok, str(report)
    assert report.checks_run > 100


def test_seam_jump_is_caught(monkeypatch):
    # damping x + 4 - 4y on [1/2, 1] still fixes the boundary row and is
    # monotone, but jumps from x + 1 to x + 2 at y = 1/2
    def mutant(p):
        if p.y > Fraction(1, 2):
            return StripPoint(p.x + 4 - 4 * p.y, p.y)
        return handle_shift_point(p)

    monkeypatch.setattr(mcg.shiftmap, "handle_shift_point", mutant)
    report = check_shift_properties()
    assert report.checks_run == 150
    assert not report.ok
    assert all(f.startswith("seam y=1/2 at x=") for f in report.findings)


rationals = st.fractions(min_value=-5, max_value=5)
ys = st.fractions(min_value=-1, max_value=1)


@given(x=rationals, y=ys)
def test_displacement_piecewise_linear_in_y(x, y):
    img = handle_shift_point(strip_point(x, y))
    assert img.y == y
    d = img.x - x
    if abs(y) <= Fraction(1, 2):
        assert d == 1
    else:
        assert d == 2 - 2 * abs(y)
    assert 0 <= d <= 1


@given(x1=rationals, x2=rationals, y=ys)
def test_rows_strictly_monotone(x1, x2, y):
    if x1 == x2:
        return
    lo, hi = sorted((x1, x2))
    a = handle_shift_point(strip_point(lo, y))
    b = handle_shift_point(strip_point(hi, y))
    assert a.x < b.x
