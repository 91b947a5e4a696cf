"""Compact rectangles and grid maxima built on ``evaluate_on_grid``."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hilbertfield import CompactRectangle, WirtingerPolynomial, evaluate_on_grid, ONE, S, SBAR
from hilbertfield.grid import PowerTables

SQUARE = CompactRectangle(Fraction(-1), Fraction(1), Fraction(-1), Fraction(1), 17)


def sup_norm_on_grid(poly, rectangle):
    """Maximum of |poly| over the rectangle's grid points."""
    return float(np.max(np.abs(evaluate_on_grid(poly, rectangle.grid_points()))))


def test_corners_always_included():
    for n in (2, 3, 17, 64):
        rect = SQUARE.with_grid_n(n)
        pts = set(np.round(rect.grid_points(), 12))
        for x in (rect.re_min, rect.re_max):
            for y in (rect.im_min, rect.im_max):
                assert complex(np.round(complex(float(x), float(y)), 12)) in pts


def test_sup_of_identity_map():
    # |s| on the square is maximized at a corner; refining the grid never
    # changes the corner value
    coarse = sup_norm_on_grid(S, SQUARE.with_grid_n(8))
    fine = sup_norm_on_grid(S, SQUARE.with_grid_n(128))
    assert coarse == fine == pytest.approx(math.sqrt(2), abs=1e-12)


def test_sup_of_constant():
    assert sup_norm_on_grid(ONE, SQUARE) == 1.0
    assert sup_norm_on_grid(ONE, CompactRectangle(0, 5, -3, 9, 5)) == 1.0


def test_sup_of_modulus_squared():
    dense = sup_norm_on_grid(S * SBAR, SQUARE.with_grid_n(256))
    assert sup_norm_on_grid(S * SBAR, SQUARE) == dense == pytest.approx(2.0, abs=1e-12)


def test_zero_polynomial():
    from hilbertfield import ZERO

    assert sup_norm_on_grid(ZERO, SQUARE) == 0.0


def test_invalid_rectangle_rejected():
    with pytest.raises(ValueError):
        CompactRectangle(1, -1, 0, 1)
    with pytest.raises(ValueError):
        CompactRectangle(0, 1, 2, 1)
    with pytest.raises(ValueError):
        CompactRectangle(0, 1, 0, 1, grid_n=1)


def test_degenerate_rectangle_is_allowed():
    segment = CompactRectangle(0, 1, 0, 0, 9)
    assert sup_norm_on_grid(S, segment) == pytest.approx(1.0)


def test_refinement_stability():
    # doubling the resolution moves the sup by well under 5% for low-degree
    # polynomials on the unit square
    polys = [S, SBAR, S * SBAR, S**2 + SBAR**2, (S + SBAR) ** 2, S**3 * SBAR]
    for poly in polys:
        base = sup_norm_on_grid(poly, SQUARE.with_grid_n(33))
        refined = sup_norm_on_grid(poly, SQUARE.with_grid_n(66))
        assert abs(refined - base) <= 0.05 * max(base, 1e-12)


def test_vectorized_matches_scalar():
    poly = (S + 2 * SBAR) ** 2
    pts = SQUARE.grid_points()
    vals = evaluate_on_grid(poly, pts)
    for idx in (0, 57, len(pts) - 1):
        assert vals[idx] == pytest.approx(poly.evaluate(complex(pts[idx])))


def test_equal_polynomials_give_identical_values():
    # the same terms inserted in opposite orders: float sums in insertion
    # order differ at 55 of these 81 points
    terms = [((0, 0), Fraction(1, 3)), ((1, 0), Fraction(-2, 7)), ((0, 1), Fraction(5, 11)),
             ((1, 1), Fraction(1, 13)), ((2, 0), Fraction(-3, 5))]
    forward, backward = WirtingerPolynomial(dict(terms)), WirtingerPolynomial(dict(reversed(terms)))
    pts = SQUARE.with_grid_n(9).grid_points()
    assert forward == backward
    assert np.array_equal(evaluate_on_grid(forward, pts), evaluate_on_grid(backward, pts))


def per_call_evaluation(poly, points):
    """Grid evaluation building its own power tables, one multiply per exponent step."""
    values = np.zeros(points.shape, dtype=np.complex128)
    if poly.is_zero:
        return values
    pow_s = [np.ones_like(points)]
    for _ in range(max(p for p, _ in poly.terms)):
        pow_s.append(pow_s[-1] * points)
    pow_sbar = [np.ones_like(points)]
    for _ in range(max(q for _, q in poly.terms)):
        pow_sbar.append(pow_sbar[-1] * np.conj(points))
    for (p, q), coeff in sorted(poly.terms.items()):
        values += coeff.to_complex() * pow_s[p] * pow_sbar[q]
    return values


def test_shared_tables_are_bit_identical_to_per_call_tables():
    # rising and falling degrees, so the shared tables are extended between calls
    third = WirtingerPolynomial({(0, 0): Fraction(1, 3), (2, 1): Fraction(-5, 7)})
    polys = [S, third, (S + 2 * SBAR) ** 5, ONE, SBAR**7 * S, WirtingerPolynomial(), (ONE + S * SBAR) ** 4]
    pts = CompactRectangle(Fraction(-3, 2), Fraction(1, 3), Fraction(-1, 5), Fraction(2), 13).grid_points()
    tables = PowerTables(pts)
    for poly in polys:
        assert np.array_equal(evaluate_on_grid(poly, pts, tables), per_call_evaluation(poly, pts))
        assert np.array_equal(evaluate_on_grid(poly, pts), per_call_evaluation(poly, pts))


def test_tables_of_other_points_rejected():
    tables = PowerTables(SQUARE.grid_points())
    with pytest.raises(ValueError):
        evaluate_on_grid(S, SQUARE.grid_points(), tables)


def test_json_round_trip():
    rect = CompactRectangle(Fraction(-3, 2), Fraction(1, 2), Fraction(0), Fraction(2), 21)
    assert CompactRectangle.from_json(rect.to_json()) == rect
