"""Exact arithmetic, derivatives and evaluation of Wirtinger polynomials."""

import copy
import math
import pickle
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    coefficients,
    directions,
    exponent_pairs,
    from_records,
    gaussian_points,
    own_rows,
    polynomials,
    raw_rationals,
    raw_records,
)
from hilbertfield import (
    AnalyticityCertificate,
    CompactRectangle,
    Direction,
    FieldSection,
    GaussianRational,
    Splitting,
    WirtingerPolynomial,
    laplacian,
    ONE,
    S,
    SBAR,
    ZERO,
)
from hilbertfield.analyticity import _bounds_at
from hilbertfield.grid import evaluate_on_grid
from hilbertfield.symbolic import _Graded

D, DBAR = Direction.D, Direction.DBAR
I = GaussianRational(0, 1)

# five fixed sample points for evaluation cross-checks
SAMPLE_POINTS = [0.3 + 0.7j, -1.1 + 0.2j, 2.0 - 1.5j, -0.4 - 0.9j, 1.0 + 1.0j]


class TestDirection:
    def test_copies_are_the_member(self):
        # directions hash by identity, which needs every copy to be the member
        for d in (D, DBAR):
            assert copy.deepcopy(d) is d
            assert pickle.loads(pickle.dumps(d)) is d
            assert Direction(d.value) is d


class TestGaussianRational:
    def test_exact_division(self):
        value = GaussianRational(1, 2) / GaussianRational(3, -1)
        assert value == GaussianRational(Fraction(1, 10), Fraction(7, 10))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)

    def test_third_is_exact(self):
        third = GaussianRational(1) / GaussianRational(3)
        assert third * 3 == GaussianRational(1)

    @given(coefficients, coefficients)
    def test_mul_conjugate_homomorphism(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(coefficients)
    def test_conjugate_involution(self, a):
        assert a.conjugate().conjugate() == a

    @given(coefficients, coefficients)
    def test_division_inverts_multiplication(self, a, b):
        if b:
            assert (a * b) / b == a


class TestAddition:
    def test_sum_of_variables(self):
        total = S + SBAR
        assert total == WirtingerPolynomial({(1, 0): 1, (0, 1): 1})

    @given(polynomials)
    def test_additive_identity(self, p):
        assert p + ZERO == p

    def test_cancellation_gives_canonical_zero(self):
        p = S * SBAR
        assert (p + (-p)).is_zero
        assert not (p + (-p)).terms


class TestCombination:
    @given(st.lists(st.tuples(st.integers(-5, 5), polynomials), max_size=6))
    def test_equals_sequential_sum(self, pairs):
        # complex coefficients over denominators up to 6, in canonical form on
        # both sides; the reference sums Gaussian-rational coefficients per
        # exponent pair, not through the polynomial addition
        sums: dict = {}
        for count, poly in pairs:
            for key, coeff in poly.terms.items():
                sums[key] = sums.get(key, GaussianRational(0)) + GaussianRational(count) * coeff
        assert WirtingerPolynomial.combination(pairs) == WirtingerPolynomial(sums)

    @given(st.lists(st.tuples(st.integers(-5, 5), polynomials), max_size=4), st.randoms())
    def test_cancelling_sum_is_canonical_zero(self, pairs, random):
        both = pairs + [(-count, poly) for count, poly in pairs]
        random.shuffle(both)
        total = WirtingerPolynomial.combination(both)
        assert total == ZERO and total.denominator == 1 and not total.numerators

    def test_empty_sum_is_zero(self):
        assert WirtingerPolynomial.combination([]) == ZERO
        assert WirtingerPolynomial.combination(iter(())) == ZERO

    def test_complex_coefficients_over_different_denominators(self):
        a = WirtingerPolynomial({(1, 0): GaussianRational("1/2", "1/3"), (0, 0): Fraction(1, 5)})
        b = WirtingerPolynomial({(1, 0): GaussianRational("-1/4", "-1/6"), (0, 2): GaussianRational(0, "1/7")})
        # 2a + 4b cancels the s term; the rest keeps the denominator 35
        total = WirtingerPolynomial.combination([(2, a), (4, b)])
        assert total == WirtingerPolynomial({(0, 0): Fraction(2, 5), (0, 2): GaussianRational(0, "4/7")})
        assert total.denominator == 35
        assert total == 2 * a + 4 * b


class TestMultiplication:
    def test_basic_product(self):
        assert S * SBAR == WirtingerPolynomial({(1, 1): 1})

    @given(polynomials)
    def test_multiplicative_identity(self, p):
        assert p * ONE == p

    def test_square_of_sum(self):
        # hand expansion of (s + sbar)^2
        expected = WirtingerPolynomial({(2, 0): 1, (1, 1): 2, (0, 2): 1})
        square = (S + SBAR) ** 2
        assert square == expected
        for z in SAMPLE_POINTS:
            assert square.evaluate(z) == pytest.approx(((S + SBAR).evaluate(z)) ** 2)


class TestConjugate:
    def test_swaps_variables(self):
        assert SBAR.conjugate() == S

    def test_conjugates_coefficients(self):
        assert (I * S).conjugate() == GaussianRational(0, -1) * SBAR

    def test_real_fixed_point(self):
        g = S * SBAR
        assert g.conjugate() == g
        assert g.is_real_valued()

    def test_mixed_coefficients_not_real(self):
        assert not (I * S).is_real_valued()


class TestDerivatives:
    def test_product_variable(self):
        assert (S * SBAR).derivative(D) == SBAR

    def test_conjugate_variable_is_constant(self):
        assert SBAR.derivative(D).is_zero

    def test_power_rule(self):
        assert (S**2 * SBAR).derivative(DBAR) == S**2

    @given(polynomials)
    def test_derivatives_commute(self, p):
        assert p.derivative(D).derivative(DBAR) == p.derivative(DBAR).derivative(D)

    @given(polynomials, polynomials, directions)
    def test_scalar_leibniz(self, a, b, d):
        assert (a * b).derivative(d) == a.derivative(d) * b + a * b.derivative(d)

    @given(polynomials)
    def test_conjugate_swaps_derivative(self, p):
        assert p.derivative(D).conjugate() == p.conjugate().derivative(DBAR)

    @given(polynomials)
    def test_real_valued_derivative_identity(self, p):
        # for real-valued g: conj(dg/ds) equals dg/dsbar
        g = p + p.conjugate()
        assert g.derivative(D).conjugate() == g.derivative(DBAR)


class TestTwistedDerivative:
    # tests/test_field.py checks it against derivative plus product on random sections
    def test_zero_polynomial_and_zero_multiplier(self):
        mu = WirtingerPolynomial({(0, 0): GaussianRational(1, 1), (1, 2): GaussianRational("1/2", "-1/3")})
        for d in (D, DBAR):
            assert ZERO.twisted_derivative(d, mu) == ZERO
            assert (S * SBAR).twisted_derivative(d, ZERO) == (S * SBAR).derivative(d)

    def test_parts_that_cancel(self):
        # d/ds (s/2 + 1/4) = 1/2 cancels the constant of (-2)(s/2 + 1/4); the rest is -s
        poly = WirtingerPolynomial({(1, 0): "1/2", (0, 0): "1/4"})
        twisted = poly.twisted_derivative(D, WirtingerPolynomial.constant(-2))
        assert twisted == -S and twisted.denominator == 1


multi_term_polynomials = st.dictionaries(exponent_pairs, coefficients, min_size=2, max_size=4).map(
    WirtingerPolynomial
)


def gaussian_sum(pairs) -> WirtingerPolynomial:
    """The sum of count * poly, coefficient by coefficient in Gaussian rationals: no polynomial sum runs."""
    sums: dict = {}
    for count, poly in pairs:
        for key, coeff in poly.terms.items():
            sums[key] = sums.get(key, GaussianRational(0)) + GaussianRational(count) * coeff
    return WirtingerPolynomial(sums)


class TestGradedKernel:
    """``_Graded``: one coefficient for every basis index, read at lam = j + 1."""

    @settings(max_examples=100, deadline=None)
    @given(
        polynomials,
        multi_term_polynomials,
        multi_term_polynomials,
        st.lists(directions, max_size=6),
        st.sampled_from([1, 2, 5, 100]),
    )
    def test_reads_the_chain_of_lam_times_the_multiplier(self, f, a, b, dirs, lam):
        # as Connection.coefficient(j, d) is (j+1) times coefficient(0, d), the
        # chain at lam steps by twisted_derivative(d, lam * a_d)
        multiplier = {D: a, DBAR: b}
        graded, h = _Graded(f), f
        for d in dirs:
            graded = graded.twisted_derivative(d, multiplier[d])
            h = h.twisted_derivative(d, lam * multiplier[d])
            # the sums over grades at lam are h's coefficients, with no zero sum kept
            assert graded.at(lam) == h
            # canonical form, as WirtingerPolynomial's: nothing zero, nothing common to divide out
            assert graded.denominator > 0 and all(re or im for re, im in graded._num.values())
            assert math.gcd(graded.denominator, *(x for pair in graded._num.values() for x in pair)) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 4), polynomials), max_size=6),
        st.sampled_from([1, 2, 5, 100]),
    )
    def test_combination_reads_the_weighted_sum(self, triples, lam):
        # sum of count * lam^k * poly, canonical, with cancelling grades dropped
        graded = _Graded.combination(iter(triples))
        assert graded.at(lam) == gaussian_sum((count * lam**k, poly) for count, k, poly in triples)
        assert graded.denominator > 0 and all(re or im for re, im in graded._num.values())
        assert math.gcd(graded.denominator, *(x for pair in graded._num.values() for x in pair)) == 1
        # grade k holds the polynomials given grade k alone
        den = graded.denominator
        for k in range(5):
            grade = {
                (p, q): GaussianRational(Fraction(re, den), Fraction(im, den))
                for (p, q, g), (re, im) in graded._num.items()
                if g == k
            }
            assert WirtingerPolynomial(grade) == gaussian_sum((count, poly) for count, g, poly in triples if g == k)

    def test_equal_functions_of_lam_are_equal(self):
        # D and Dbar commute on a flat connection, and the graded steps with
        # constant multipliers agree along both orders
        f = S * S * SBAR + WirtingerPolynomial.constant(GaussianRational("1/3", 2))
        a = WirtingerPolynomial.constant(GaussianRational(1, -1))
        b = WirtingerPolynomial.constant(Fraction(2, 5))
        d_dbar = _Graded(f).twisted_derivative(D, a).twisted_derivative(DBAR, b)
        dbar_d = _Graded(f).twisted_derivative(DBAR, b).twisted_derivative(D, a)
        assert d_dbar == dbar_d and hash(d_dbar) == hash(dbar_d)
        assert d_dbar != _Graded(f).twisted_derivative(D, b).twisted_derivative(DBAR, a)

    def test_grades_that_cancel_at_one_lam_leave_the_bound(self):
        # D (s - 1/2) with a_D = 1 is 1 at grade 0 plus s - 1/2 at grade 1, so
        # its constant 1 - lam/2 cancels at lam = 2 only
        graded = _Graded(S - WirtingerPolynomial.constant(Fraction(1, 2))).twisted_derivative(D, ONE)
        assert len(graded._num) == 3
        # the constant's sum over grades is zero at lam = 2, and no zero term is kept
        assert graded.at(2) == 2 * S
        assert graded.at(3) == 3 * S - WirtingerPolynomial.constant(Fraction(1, 2))
        # the weights 1 and r + 1/2 = 2 keep the constant that cancels at lam = 2: the bound is
        # 1 + 2 lam = 5 there, no longer 2s's own 3, but finite and above every grid value of 2s
        points = CompactRectangle(Fraction(-3, 2), Fraction(3, 2), 0, 0, 9).grid_points()
        bound = _bounds_at(own_rows(graded, [1.0, 1.5]), 2)[0]
        assert 5.0 < bound < 5.0 + 1e-13
        assert abs(evaluate_on_grid(graded.at(2), points)).max() == 3.0 < bound


class TestLaplacian:
    def test_modulus_squared(self):
        p = S * SBAR
        oracle = 4 * p.derivative(D).derivative(DBAR)
        assert laplacian(p) == oracle == WirtingerPolynomial.constant(4)

    def test_harmonic(self):
        assert laplacian(S**2 + SBAR**2).is_zero

    def test_modulus_fourth(self):
        p = (S * SBAR) ** 2
        oracle = 4 * p.derivative(D).derivative(DBAR)
        assert laplacian(p) == oracle == 16 * (S * SBAR)


class TestEvaluate:
    def test_modulus_squared(self):
        assert (S * SBAR).evaluate(1 + 1j) == pytest.approx(2.0)

    def test_zero(self):
        assert ZERO.evaluate(3.7 - 2j) == 0

    def test_twice_real_part(self):
        assert (S + SBAR).evaluate(3 + 4j) == pytest.approx(6.0)

    def test_correctly_rounded(self):
        # the exact value at the binary point 0.1 + 0.2i rounds to 0.05, while
        # summing separately rounded terms gives 0.05000000000000001
        assert (S * SBAR).evaluate(0.1 + 0.2j) == 0.05

    @given(polynomials, polynomials)
    def test_ring_morphism(self, a, b):
        for z in SAMPLE_POINTS:
            scale = 1 + abs(a.evaluate(z)) + abs(b.evaluate(z))
            assert abs((a + b).evaluate(z) - (a.evaluate(z) + b.evaluate(z))) <= 1e-9 * scale
            assert abs((a * b).evaluate(z) - a.evaluate(z) * b.evaluate(z)) <= 1e-9 * scale**2

    def test_exact_values(self):
        assert (S * SBAR).evaluate_exact(GaussianRational(1, 1)) == 2
        assert (S**2).evaluate_exact(I) == -1
        assert (S - SBAR).evaluate_exact(GaussianRational("1/3", "-2/5")) == GaussianRational(0, "-4/5")
        assert ZERO.evaluate_exact(I) == 0

    @given(polynomials, polynomials)
    def test_exact_evaluation_is_a_ring_morphism(self, a, b):
        # the float value is the exact value at the same (binary-exact) point, rounded once
        for z in SAMPLE_POINTS:
            exact = GaussianRational(Fraction(z.real), Fraction(z.imag))
            value = a.evaluate_exact(exact)
            assert (a + b).evaluate_exact(exact) == value + b.evaluate_exact(exact)
            assert (a * b).evaluate_exact(exact) == value * b.evaluate_exact(exact)
            assert value.to_complex() == a.evaluate(z)


class TestCanonicalForm:
    def test_no_zero_coefficients_stored(self):
        p = WirtingerPolynomial({(1, 0): 1, (2, 2): 0})
        assert set(p.terms) == {(1, 0)}

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            WirtingerPolynomial({(-1, 0): 1})

    def test_total_degree(self):
        assert ZERO.total_degree() == -1
        assert ONE.total_degree() == 0
        assert (S**2 * SBAR).total_degree() == 3

    @given(polynomials, polynomials)
    def test_equality_is_term_map_equality(self, a, b):
        assert (a == b) == (a.terms == b.terms)

    @staticmethod
    def assert_canonical(poly):
        den, numerators = poly.denominator, poly.numerators
        assert den > 0
        assert all(pair != (0, 0) for pair in numerators.values())
        assert math.gcd(den, *(part for pair in numerators.values() for part in pair)) == 1

    @given(raw_records, raw_records, raw_rationals, gaussian_points, directions)
    def test_every_operation_returns_canonical_form(self, a_records, b_records, r, z, d):
        a, b = from_records(a_records), from_records(b_records)
        results = [a, b, a + b, a - b, a * b, -a, a.conjugate(), a.derivative(d), laplacian(a)]
        results += [6 * a, a * Fraction(r), a * z, a * 0]
        results += [WirtingerPolynomial.combination([(3, a), (-2, b)]), a.twisted_derivative(d, b)]
        for poly in results:
            self.assert_canonical(poly)

    @given(raw_records, raw_records, raw_records)
    def test_equal_by_different_routes(self, a_records, b_records, c_records):
        a, b, c = (from_records(records) for records in (a_records, b_records, c_records))
        left, right = (a + b) * c, a * c + b * c
        assert left == right and hash(left) == hash(right)
        assert (a - b) + b == a and hash((a - b) + b) == hash(a)

    def test_unreduced_input_is_equal(self):
        half, unreduced = WirtingerPolynomial({(1, 0): "1/2"}), WirtingerPolynomial({(1, 0): "2/4"})
        assert half == unreduced and hash(half) == hash(unreduced)
        assert (half.denominator, dict(half.numerators)) == (2, {(1, 0): (1, 0)})
        assert half * 2 == S and (half * 2).denominator == 1

    @given(raw_records, raw_records)
    def test_json_terms_match_a_fraction_reference(self, a_records, b_records):
        # a + a*b computed term by term in Fractions, independently of the kernel
        def reference_terms(records):
            out = {}
            for key, re, im in records:
                old = out.get(key, (Fraction(0), Fraction(0)))
                out[key] = (old[0] + Fraction(re), old[1] + Fraction(0 if im is None else im))
            return out

        ref_a, ref_b = reference_terms(a_records), reference_terms(b_records)
        expected = dict(ref_a)
        for (p1, q1), (re1, im1) in ref_a.items():
            for (p2, q2), (re2, im2) in ref_b.items():
                key = (p1 + p2, q1 + q2)
                old = expected.get(key, (Fraction(0), Fraction(0)))
                expected[key] = (old[0] + re1 * re2 - im1 * im2, old[1] + re1 * im2 + im1 * re2)
        records = [[p, q, str(re), str(im)] for (p, q), (re, im) in sorted(expected.items()) if re or im]
        a, b = from_records(a_records), from_records(b_records)
        assert (a + a * b).to_json_terms() == records


class TestSerialization:
    @given(polynomials)
    def test_round_trip_exact(self, p):
        assert WirtingerPolynomial.from_json_terms(p.to_json_terms()) == p

    def test_record_format(self):
        p = WirtingerPolynomial({(1, 2): GaussianRational(Fraction(1, 2), Fraction(-3, 7))})
        assert p.to_json_terms() == [[1, 2, "1/2", "-3/7"]]

    def test_parses_strings(self):
        p = WirtingerPolynomial.from_json_terms([[0, 0, "2/4", "0"]])
        assert p == WirtingerPolynomial.constant(Fraction(1, 2))

    @pytest.mark.parametrize("record", [[1.9, 0, "1", "0"], [True, 0, "1", "0"], [0, "2", "1", "0"]])
    def test_non_integer_exponent_rejected(self, record):
        # int() would read these as exponents 1, 1 and 2; each must be refused instead
        with pytest.raises(ValueError, match="JSON integers"):
            WirtingerPolynomial.from_json_terms([record])

    @pytest.mark.parametrize(
        "decode, data",
        [
            (FieldSection.from_json, [[1.9, [[0, 0, "1", "0"]]]]),
            (FieldSection.from_json, [["2", [[0, 0, "1", "0"]]]]),
            (FieldSection.from_json, [[True, [[0, 0, "1", "0"]]]]),
            (Splitting.from_json, {"m": 1.7, "blocks": [[1]], "markers": []}),
            (Splitting.from_json, {"m": 1, "blocks": [[1.2]], "markers": []}),
            (Splitting.from_json, {"m": 1, "blocks": [[], []], "markers": ["1"]}),
            (lambda data: AnalyticityCertificate.from_json(data, (ONE, ZERO, ZERO)), {"m_max": 2.9}),
            (lambda data: AnalyticityCertificate.from_json(data, (ONE, ZERO, ZERO)), {"m_max": True}),
        ],
    )
    def test_report_decoders_reject_non_integers(self, decode, data):
        # int() would read each of these as a valid integer; each must be refused instead
        if "m_max" in data:
            square = CompactRectangle(-1, 1, -1, 1).to_json()
            data = {"epsilon": "1/2", "M": "2", "delta": "1/8", "K": square, **data}
        with pytest.raises(ValueError, match="JSON integer"):
            decode(data)
