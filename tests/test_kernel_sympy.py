"""Differential test of the polynomial kernel against sympy.

Every ring operation is checked coefficient by coefficient, exactly, with s
and sbar as independent sympy symbols.
"""

from fractions import Fraction

import sympy
from hypothesis import given

from conftest import from_records, gaussian_points, raw_records
from hilbertfield import Direction, GaussianRational, WirtingerPolynomial, laplacian

D, DBAR = Direction.D, Direction.DBAR

SYM_S, SYM_SBAR = sympy.symbols("s sbar")


def sympy_from_records(records):
    """The same records as a sympy expression in the independent symbols s and sbar."""
    total = sympy.Integer(0)
    for (p, q), re, im in records:
        coeff = sympy.Rational(str(re)) + (0 if im is None else sympy.I * sympy.Rational(str(im)))
        total += coeff * SYM_S**p * SYM_SBAR**q
    return total


def sympy_terms(expr) -> dict:
    """Nonzero coefficients of an expression in s and sbar, as exact (re, im) Fractions."""
    out = {}
    for key, coeff in sympy.Poly(sympy.expand(expr), SYM_S, SYM_SBAR).terms():
        re, im = (Fraction(int(part.p), int(part.q)) for part in coeff.as_real_imag())
        if re or im:
            out[key] = (re, im)
    return out


def kernel_terms(poly: WirtingerPolynomial) -> dict:
    return {key: (coeff.re, coeff.im) for key, coeff in poly.terms.items()}


def sympy_conjugate(expr):
    # conjugate the coefficients and swap the roles of s and sbar
    swap = {sympy.conjugate(SYM_S): SYM_SBAR, sympy.conjugate(SYM_SBAR): SYM_S}
    return sympy.conjugate(sympy.expand(expr)).xreplace(swap)


class TestSympyOracle:
    """Every ring operation against sympy, with s and sbar independent symbols."""

    @given(raw_records)
    def test_construction(self, records):
        assert kernel_terms(from_records(records)) == sympy_terms(sympy_from_records(records))

    @given(raw_records, raw_records)
    def test_add_sub_mul(self, a_records, b_records):
        a, b = from_records(a_records), from_records(b_records)
        x, y = sympy_from_records(a_records), sympy_from_records(b_records)
        assert kernel_terms(a + b) == sympy_terms(x + y)
        assert kernel_terms(a - b) == sympy_terms(x - y)
        assert kernel_terms(a * b) == sympy_terms(x * y)

    @given(raw_records)
    def test_conjugate_and_derivatives(self, records):
        a, x = from_records(records), sympy_from_records(records)
        assert kernel_terms(a.conjugate()) == sympy_terms(sympy_conjugate(x))
        assert kernel_terms(a.derivative(D)) == sympy_terms(sympy.diff(x, SYM_S))
        assert kernel_terms(a.derivative(DBAR)) == sympy_terms(sympy.diff(x, SYM_SBAR))
        assert kernel_terms(laplacian(a)) == sympy_terms(4 * sympy.diff(x, SYM_S, SYM_SBAR))

    @given(raw_records, gaussian_points)
    def test_evaluate_exact(self, records, z):
        point = sympy.Rational(str(z.re)) + sympy.I * sympy.Rational(str(z.im))
        value = sympy_from_records(records).subs(
            {SYM_S: point, SYM_SBAR: sympy.conjugate(point)}, simultaneous=True
        )
        re, im = (Fraction(int(part.p), int(part.q)) for part in sympy.expand(value).as_real_imag())
        assert from_records(records).evaluate_exact(z) == GaussianRational(re, im)
