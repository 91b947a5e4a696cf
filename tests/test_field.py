"""Sections, the diagonal connection, the metric and the curvature."""

import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import connections, directions, polynomials, real_polynomials, sections
from hilbertfield import (
    Connection,
    CurvatureConsistencyError,
    Direction,
    FieldSection,
    GaussianRational,
    WirtingerPolynomial,
    check_leibniz,
    check_metric_compat,
    laplacian,
    metric_pair,
    ONE,
    S,
    SBAR,
    ZERO,
)

D, DBAR = Direction.D, Direction.DBAR
CONN = Connection(k=SBAR)  # k = sbar, the potential is |s|^2
FLAT = Connection.flat()


class TestFieldSection:
    def test_zero_coefficients_dropped(self):
        phi = FieldSection({0: S, 3: WirtingerPolynomial.zero()})
        assert phi.support == (0,)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            FieldSection({-1: ONE})

    @given(sections)
    def test_json_round_trip(self, phi):
        assert FieldSection.from_json(phi.to_json()) == phi

    @given(sections, sections)
    def test_addition_pointwise(self, phi, psi):
        total = phi + psi
        for index in set(phi.support) | set(psi.support):
            assert total.coefficient(index) == phi.coefficient(index) + psi.coefficient(index)


class TestConnection:
    def test_coefficient_holomorphic_direction(self):
        assert CONN.coefficient(0, D) == SBAR

    def test_coefficient_antiholomorphic_direction(self):
        assert CONN.coefficient(2, DBAR) == -3 * S

    def test_flat_coefficients_vanish(self):
        for j in (0, 1, 5):
            for d in (D, DBAR):
                assert FLAT.coefficient(j, d).is_zero

    def test_each_multiplier_built_once(self):
        conn = Connection(k=S * SBAR + SBAR)
        for j in (0, 3):
            for d in (D, DBAR):
                assert conn.coefficient(j, d) is conn.coefficient(j, d)
        assert conn.coefficient(3, DBAR) == -4 * (S * SBAR + S)
        with pytest.raises(ValueError):
            conn.coefficient(-1, D)

    def test_multiplier_cache_is_not_part_of_the_value(self):
        used, fresh = Connection(k=SBAR), Connection(k=SBAR)
        used.coefficient(2, DBAR)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert used != Connection(k=S)

    def test_potential_must_be_real(self):
        with pytest.raises(ValueError):
            Connection(k=ONE, potential=S)  # s is not real-valued

    def test_potential_must_differentiate_to_k(self):
        with pytest.raises(ValueError):
            Connection(k=S, potential=S * SBAR)

    def test_from_potential(self):
        conn = Connection.from_potential(S * SBAR)
        assert conn.k == SBAR

    def test_json_round_trip(self):
        conn = Connection.from_potential((S * SBAR) ** 2)
        again = Connection.from_json(conn.to_json())
        assert again == conn

    def test_json_potential_only(self):
        conn = Connection.from_json({"g": (S * SBAR).to_json_terms()})
        assert conn.k == SBAR


class TestCovariantDerivative:
    def test_basis_section_holomorphic(self):
        assert CONN.covariant_derivative(FieldSection.basis(0), D) == SBAR * FieldSection.basis(0)

    def test_flat_reduces_to_plain_derivative(self):
        phi = S * FieldSection.basis(1)
        assert FLAT.covariant_derivative(phi, D) == FieldSection.basis(1)

    def test_basis_section_antiholomorphic(self):
        expected = (-2 * S) * FieldSection.basis(1)
        assert CONN.covariant_derivative(FieldSection.basis(1), DBAR) == expected

    @given(st.one_of(st.just(ZERO), polynomials), sections, directions)
    def test_fused_coefficients_against_derivative_plus_product(self, k, phi, d):
        # complex multi-term k and the flat k = 0; zero coefficients are dropped
        conn = Connection(k=k)
        expected = {}
        for index in phi.support:
            poly = phi.coefficient(index)
            expected[index] = poly.derivative(d) + conn.coefficient(index, d) * poly
        assert conn.covariant_derivative(phi, d) == FieldSection(expected)

    def test_coefficient_that_vanishes_leaves_the_support(self):
        # D(c phi_0) = 0 for a constant c under the flat connection
        phi = FieldSection({0: WirtingerPolynomial.constant(GaussianRational("1/2", "1/3")), 1: S})
        image = FLAT.covariant_derivative(phi, D)
        assert image.support == (1,) and image == FieldSection.basis(1)

    def test_iterated_empty_sequence(self):
        phi = (S + SBAR) * FieldSection.basis(2)
        assert CONN.iterated(phi, ()) == phi

    def test_iterated_two_holomorphic_steps(self):
        # single-step recursion oracle: D then D on phi_0 picks up sbar twice
        phi = FieldSection.basis(0)
        oracle = CONN.covariant_derivative(CONN.covariant_derivative(phi, D), D)
        assert CONN.iterated(phi, (D, D)) == oracle == (SBAR**2) * phi

    def test_iterated_mixed_steps(self):
        # D then DBAR: dbar(sbar) + (-s)(sbar) = 1 - s sbar
        phi = FieldSection.basis(0)
        oracle = CONN.covariant_derivative(CONN.covariant_derivative(phi, D), DBAR)
        assert CONN.iterated(phi, (D, DBAR)) == oracle == (ONE - S * SBAR) * phi


class TestMetric:
    def test_orthonormality(self):
        for i in range(4):
            for j in range(4):
                pairing = metric_pair(FieldSection.basis(i), FieldSection.basis(j))
                assert pairing == (ONE if i == j else WirtingerPolynomial.zero())

    def test_linear_in_first_slot(self):
        assert metric_pair(S * FieldSection.basis(0), FieldSection.basis(0)) == S

    def test_conjugate_linear_in_second_slot(self):
        assert metric_pair(FieldSection.basis(0), S * FieldSection.basis(0)) == SBAR

    def test_norm_of_basis(self):
        phi = FieldSection.basis(0)
        assert metric_pair(phi, phi).evaluate(2.3 - 0.7j) == pytest.approx(1.0)

    def test_norm_scales_with_coefficient(self):
        phi = S * FieldSection.basis(0)
        assert metric_pair(phi, phi).evaluate(1 + 1j) == pytest.approx(2.0)

    def test_norm_of_two_term_section(self):
        phi = SBAR * FieldSection.basis(0) + S * FieldSection.basis(1)
        assert metric_pair(phi, phi).evaluate(2.0) == pytest.approx(8.0)


class TestSmoothStructureAxioms:
    def test_leibniz_constant_function(self):
        assert check_leibniz(CONN, ONE, S * FieldSection.basis(2), D)

    def test_leibniz_example(self):
        assert check_leibniz(CONN, S, FieldSection.basis(0), D)

    def test_leibniz_higher_degree(self):
        conn = Connection(k=S * SBAR)
        assert check_leibniz(conn, SBAR**2, FieldSection.basis(3), DBAR)

    @settings(max_examples=60)
    @given(connections, polynomials, sections, directions)
    def test_leibniz_random(self, conn, f, phi, d):
        assert check_leibniz(conn, f, phi, d)

    def test_metric_compat_basis(self):
        for j in (0, 1, 4):
            phi = FieldSection.basis(j)
            assert check_metric_compat(CONN, phi, phi, D)

    def test_metric_compat_flat(self):
        phi = (S + SBAR) * FieldSection.basis(0)
        psi = (S**2) * FieldSection.basis(0) + SBAR * FieldSection.basis(2)
        assert check_metric_compat(FLAT, phi, psi, D)
        assert check_metric_compat(FLAT, phi, psi, DBAR)

    def test_metric_compat_example(self):
        assert check_metric_compat(
            CONN, S * FieldSection.basis(0), SBAR * FieldSection.basis(0), D
        )

    @settings(max_examples=60)
    @given(connections, sections, sections, directions)
    def test_metric_compat_random(self, conn, phi, psi, d):
        assert check_metric_compat(conn, phi, psi, d)


class TestCurvature:
    def test_flat_curvature_vanishes(self):
        phi = (S**2 + SBAR) * FieldSection.basis(3)
        assert FLAT.curvature(phi).is_zero
        assert FLAT.curvature_eigenvalue(5).is_zero

    def test_eigenvalue_for_modulus_squared_potential(self):
        conn = Connection.from_potential(S * SBAR)
        for j in range(6):
            image = conn.curvature(FieldSection.basis(j))
            expected = GaussianRational(-2 * (j + 1)) * FieldSection.basis(j)
            assert image == expected
            assert conn.curvature_eigenvalue(j) == WirtingerPolynomial.constant(-2 * (j + 1))

    def test_eigenvalue_matches_laplacian_closed_form(self):
        conn = Connection.from_potential((S * SBAR) ** 2)
        for j in range(5):
            closed = laplacian(conn.potential) * GaussianRational(Fraction(-(j + 1), 2))
            assert conn.curvature_eigenvalue(j) == closed

    def test_harmonic_potential_is_flat(self):
        conn = Connection.from_potential(S**2 + SBAR**2)
        for j in range(5):
            assert conn.curvature_eigenvalue(j).is_zero

    @settings(max_examples=40)
    @given(real_polynomials())
    def test_random_potential_eigenvalue_closed_form(self, g):
        conn = Connection.from_potential(g)
        for j in (0, 3):
            closed = laplacian(g) * GaussianRational(Fraction(-(j + 1), 2))
            assert conn.curvature_eigenvalue(j) == closed

    def test_inconsistent_potential_detected(self):
        # bypass construction-time validation to prove the guard trips
        conn = Connection(k=SBAR)
        object.__setattr__(conn, "potential", 2 * (S * SBAR))
        with pytest.raises(CurvatureConsistencyError):
            conn.curvature_eigenvalue(0)

    def test_tensoriality_explicit(self):
        conn = Connection.from_potential(S * SBAR)
        f = S**2
        assert conn.curvature(f * FieldSection.basis(1)) == f * conn.curvature(
            FieldSection.basis(1)
        )

    @settings(max_examples=60)
    @given(polynomials, st.integers(0, 6))
    def test_tensoriality_random(self, f, j):
        conn = Connection.from_potential(S * SBAR)
        phi = FieldSection.basis(j)
        assert conn.curvature(f * phi) == f * conn.curvature(phi)

    @given(connections, sections)
    def test_curvature_diagonal_support(self, conn, phi):
        image = conn.curvature(phi)
        assert set(image.support) <= set(phi.support)

    def test_unboundedness_witness(self):
        # |eigenvalue_j(s0)| = (j+1) |laplacian(g)(s0)| / 2 grows linearly in j
        conn = Connection.from_potential(S * SBAR)
        lap_at_zero = abs(laplacian(conn.potential).evaluate(0))
        assert lap_at_zero == pytest.approx(4.0)
        values = [abs(conn.curvature_eigenvalue(j).evaluate(0)) for j in range(10)]
        assert all(a < b for a, b in zip(values, values[1:]))
        for bound in (10.0, 100.0, 1000.0):
            j = math.ceil(2 * bound / lap_at_zero)
            value = abs(conn.curvature_eigenvalue(j).evaluate(0))
            assert value == pytest.approx((j + 1) * lap_at_zero / 2)
            assert value > bound
