"""Certificates, the audit, the decay rows and the factorial bounds."""

import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import hilbertfield.analyticity
from hilbertfield.analyticity import _MOMENTS, _bounds_at, _children, _section_bound, _section_sup, _Steps, _Tree
from hilbertfield.grid import PowerTables
from hilbertfield.symbolic import _Graded
from conftest import directions, exponent_pairs, own_rows, polynomials
from hilbertfield import (
    AnalyticityCertificate,
    CompactRectangle,
    Connection,
    Direction,
    FieldSection,
    GaussianRational,
    LevelSup,
    Splitting,
    WirtingerPolynomial,
    all_splittings,
    audit_certificate,
    covariant_level_sups,
    decay_row,
    decay_witness,
    delta_from,
    derivative_bound,
    direction_sequences,
    estimate_certificate,
    evaluate_on_grid,
    metric_pair,
    scaled_level_bound,
    verify_term_type_bound,
    ONE,
    S,
    SBAR,
    ZERO,
)

D, DBAR = Direction.D, Direction.DBAR
SQUARE = CompactRectangle(Fraction(-1), Fraction(1), Fraction(-1), Fraction(1), 33)
CONN = Connection(k=SBAR)
TINY = CompactRectangle(Fraction(-1, 100), Fraction(1, 100), Fraction(-1, 100), Fraction(1, 100), 5)


def hand_certificate(f, conn, j, rect, epsilon, M):
    """Certificate with chosen constants, for example-driven tests."""
    h_polys = (f, conn.coefficient(j, D), conn.coefficient(j, DBAR))
    m_max = max(0, 1 + max(h.total_degree() for h in h_polys))
    return AnalyticityCertificate(
        Fraction(epsilon), Fraction(M), delta_from(Fraction(epsilon), Fraction(M)), m_max, rect, h_polys
    )


class TestDerivativeSup:
    """``derivative_bound``: an exact upper bound of a derivative's sup on the rectangle."""

    def test_constants_annihilated(self):
        for a, b in ((1, 0), (0, 1), (3, 2)):
            assert derivative_bound(ONE, a, b, SQUARE) == 0

    def test_order_zero_is_plain_sup(self):
        # |sbar| peaks at the corners, so the bound is sqrt(2) rounded up
        bound = derivative_bound(SBAR, 0, 0, SQUARE)
        assert bound**2 > 2
        assert float(bound) == pytest.approx(math.sqrt(2), rel=1e-9)

    def test_first_derivatives_of_modulus_squared(self):
        # both first derivatives of s*sbar are coordinate monomials
        for a, b in ((1, 0), (0, 1)):
            assert float(derivative_bound(S * SBAR, a, b, SQUARE)) == pytest.approx(math.sqrt(2), rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(polynomials)
    def test_vanishing_tail(self, h):
        m = h.total_degree() + 1
        for a in range(m + 2):
            assert derivative_bound(h, a, m + 1 - a, SQUARE) == 0

    def test_refinement_stability(self):
        # the bound reads the rectangle's corners, never its grid
        polys = [S, S * SBAR, S**2 + SBAR**2, (S + SBAR) ** 2, S**3 * SBAR]
        for poly in polys:
            for a, b in ((0, 0), (1, 0), (1, 1), (0, 2)):
                assert derivative_bound(poly, a, b, SQUARE) == derivative_bound(
                    poly, a, b, SQUARE.with_grid_n(66)
                )

    @settings(max_examples=40, deadline=None)
    @given(polynomials)
    def test_bounds_every_grid_value(self, h):
        # soundness oracle: the derivative is built here by .derivative in
        # both orders and evaluated on a 17 x 17 grid; float evaluation may
        # round up by a few ulps, hence the 1e-12
        lopsided = CompactRectangle(Fraction(-3, 2), Fraction(1, 2), Fraction(-1, 4), Fraction(1), 17)
        for rect in (SQUARE.with_grid_n(17), CompactRectangle(0, 1, 0, 1, 17), lopsided):
            points = rect.grid_points()
            for m in range(h.total_degree() + 2):
                for a in range(m + 1):
                    bound = float(derivative_bound(h, a, m - a, rect))
                    for order in ((D,) * a + (DBAR,) * (m - a), (DBAR,) * (m - a) + (D,) * a):
                        poly = h
                        for d in order:
                            poly = poly.derivative(d)
                        peak = np.max(np.abs(evaluate_on_grid(poly, points)))
                        assert peak <= bound * (1 + 1e-12), (str(h), a, m - a, order)

    def test_tight_for_monomials(self):
        # c s^p sbar^q peaks at the corners of the unit square, at |c| 2^((p+q)/2)
        for c in (GaussianRational(1), GaussianRational("-3/2", 2), GaussianRational(0, "1/7")):
            for p in range(4):
                for q in range(4 - p):
                    bound = derivative_bound(WirtingerPolynomial({(p, q): c}), 0, 0, SQUARE)
                    exact = abs(c.to_complex()) * 2 ** ((p + q) / 2)
                    assert exact <= float(bound) <= exact * (1 + 1e-9), (c, p, q)


class TestDeltaFrom:
    def test_reference_value(self):
        assert delta_from(Fraction(1, 2), Fraction(2)) == Fraction(1, 8)

    def test_always_below_half_epsilon(self):
        for epsilon in (Fraction(1, 2), Fraction(1, 7), Fraction(99, 100)):
            for M in (Fraction(9, 8), Fraction(3), Fraction(1000)):
                delta = delta_from(epsilon, M)
                assert 0 < delta < epsilon / 2
                assert delta < Fraction(1, 4)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            delta_from(Fraction(1, 2), Fraction(1))
        with pytest.raises(ValueError):
            delta_from(Fraction(1), Fraction(2))
        with pytest.raises(ValueError):
            delta_from(Fraction(0), Fraction(2))


class TestCertificates:
    def test_hand_certificate_from_worked_example(self):
        # f = 1, k = sbar, j = 0: order-0 sup is sqrt(2) < 2, order-1 value
        # is 1/2 < 2, everything above vanishes, so (1/2, 2) is valid
        cert = hand_certificate(ONE, CONN, 0, SQUARE, Fraction(1, 2), Fraction(2))
        assert cert.delta == Fraction(1, 8)
        assert audit_certificate(cert)

    def test_estimate_returns_audited_certificate(self):
        cert = estimate_certificate(ONE, CONN, 0, SQUARE)
        assert cert.epsilon == Fraction(1, 2)
        assert cert.m_max == 2
        assert float(cert.M) == pytest.approx(2 * math.sqrt(2))
        assert audit_certificate(cert)

    def test_flat_connection_certificate(self):
        cert = estimate_certificate(ONE, Connection.flat(), 0, SQUARE)
        assert cert.M > 1
        assert audit_certificate(cert)

    def test_estimate_on_shifted_rectangle(self):
        rect = CompactRectangle(0, 1, 0, 1, 17)
        cert = estimate_certificate(S, CONN, 2, rect)
        assert audit_certificate(cert)

    def test_bound_scales_with_basis_index(self):
        # the certified multipliers scale by (j+1), so the searched bound does too
        cert0 = estimate_certificate(ONE, CONN, 0, SQUARE)
        cert4 = estimate_certificate(ONE, CONN, 4, SQUARE)
        assert float(cert4.M) == pytest.approx(5 * float(cert0.M))
        assert audit_certificate(cert4)

    def test_m_max_below_degree_rejected(self):
        # (1/2)^2 / 2! * |d^2 (100 s^2)| = 25 > M, but an order cap of 0 would hide it
        h_polys = (100 * S**2, ZERO, ZERO)
        delta = delta_from(Fraction(1, 2), Fraction(2))
        with pytest.raises(ValueError, match="m_max"):
            AnalyticityCertificate(Fraction(1, 2), Fraction(2), delta, 0, TINY, h_polys)
        cert = AnalyticityCertificate(Fraction(1, 2), Fraction(2), delta, 3, TINY, h_polys)
        assert not audit_certificate(cert)

    def test_mixed_derivative_audited(self):
        # only d dbar (100 s sbar) = 100 breaks M = 2 (scaled: 25/2); every
        # pure derivative of order 1 or 2 stays below 1 on the tiny square
        delta = delta_from(Fraction(1, 2), Fraction(2))
        h_polys = (100 * S * SBAR, ZERO, ZERO)
        cert = AnalyticityCertificate(Fraction(1, 2), Fraction(2), delta, 3, TINY, h_polys)
        assert not audit_certificate(cert)

    def test_halved_bound_fails_audit(self):
        cert = estimate_certificate(ONE, CONN, 0, SQUARE)
        assert not audit_certificate(cert.with_bound(cert.M / 2))

    def test_shared_bounds_table_decides_as_a_fresh_one(self):
        # one table across indices, functions and two rectangles of different radius: every certificate,
        # audit and decay row is the one a fresh table gives, and the audit of a
        # halved bound still fails on the shared table
        bounds = {}
        for rect in (SQUARE, CompactRectangle(0, 1, 0, Fraction(1, 2), 17)):
            for j in (0, 4):
                for f in (ONE, S, S * SBAR):
                    cert = estimate_certificate(f, CONN, j, rect, bounds=bounds)
                    assert cert == estimate_certificate(f, CONN, j, rect)
                    assert audit_certificate(cert, bounds=bounds)
                    assert not audit_certificate(cert.with_bound(cert.M / 2), bounds=bounds)
                    for m, sup in enumerate((1.0, 2.0, 1e6, 0.5)):
                        assert decay_row(cert, m, sup, bounds=bounds) == decay_row(cert, m, sup)
                        assert decay_witness(cert, m, sup, bounds=bounds) == decay_witness(cert, m, sup)
        # a bound read at another epsilon is another bound: (epsilon^2 / 2!) |d^2 (100 s^2)| is 25
        # at epsilon 1/2 and 81 at 9/10, so M = 50 passes the first audit and fails the second
        h_polys = (100 * S**2, ZERO, ZERO)
        for epsilon, audited in ((Fraction(1, 2), True), (Fraction(9, 10), False)):
            cert = AnalyticityCertificate(epsilon, Fraction(50), delta_from(epsilon, Fraction(50)), 3, TINY, h_polys)
            assert audit_certificate(cert, bounds=bounds) is audited
            assert decay_row(cert, 3, 1.0, bounds=bounds) == decay_row(cert, 3, 1.0)

    def test_invalid_constants_rejected(self):
        with pytest.raises(ValueError):
            hand_certificate(ONE, CONN, 0, SQUARE, Fraction(1, 2), Fraction(1))
        with pytest.raises(ValueError):
            hand_certificate(ONE, CONN, 0, SQUARE, Fraction(2), Fraction(3))
        with pytest.raises(ValueError):
            AnalyticityCertificate(
                Fraction(1, 2), Fraction(2), Fraction(1, 9), 2, SQUARE, (ONE, ONE, ONE)
            )

    def test_json_round_trip_revalidates(self):
        cert = estimate_certificate(ONE, CONN, 4, SQUARE)
        data = cert.to_json()
        again = AnalyticityCertificate.from_json(data, cert.h_polys)
        assert again == cert
        assert audit_certificate(again)

    @pytest.mark.parametrize("key", ["epsilon", "M", "delta"])
    @pytest.mark.parametrize("value", ["1/0", "0/0"])
    def test_json_zero_denominator_is_a_value_error(self, key, value):
        cert = estimate_certificate(ONE, CONN, 0, SQUARE)
        data = {**cert.to_json(), key: value}
        with pytest.raises(ValueError, match=f"zero denominator in '{value}'"):
            AnalyticityCertificate.from_json(data, cert.h_polys)


def decay_rows(conn, j, f, cert, m_max, full_cap=10):
    """``decay_row`` of every level of the covariant sweep, m = 0..m_max."""
    [sweeps] = covariant_level_sups(conn, [j], [f], cert.rectangle, m_max, full_cap)
    levels = sweeps[j]
    return [decay_row(cert, level.m, level.sup) for level in levels]


class TestDecayProfile:
    def test_order_zero_entry_is_one(self):
        cert = estimate_certificate(ONE, CONN, 0, SQUARE)
        [(scaled, _, ok)] = decay_rows(CONN, 0, ONE, cert, 0)
        assert scaled == pytest.approx(1.0)
        assert ok

    def test_flat_connection_decays_to_zero_immediately(self):
        flat = Connection.flat()
        cert = estimate_certificate(ONE, flat, 0, SQUARE)
        rows = decay_rows(flat, 0, ONE, cert, 6)
        assert rows[0][0] == pytest.approx(1.0)
        assert all(scaled == 0.0 for scaled, _, _ in rows[1:])
        assert all(ok for _, _, ok in rows)

    def test_profile_respects_final_bound(self):
        cert = hand_certificate(ONE, CONN, 0, SQUARE, Fraction(1, 2), Fraction(2))
        for m, (scaled, bound, ok) in enumerate(decay_rows(CONN, 0, ONE, cert, 12, full_cap=8)):
            assert ok, m
            assert Fraction(scaled) <= scaled_level_bound(cert, m) <= Fraction(bound), m

    def test_decay_row_against_hand_certificate(self):
        # delta = 1/8: at m = 2 the scale is 1/128, the bound 3 * 2 / 4 and
        # U_2 = 2 / 4 * (2 / 2) * (3 / 4) = 3/8, so 64 scales to 1/2 > U_2
        cert = hand_certificate(ONE, CONN, 0, SQUARE, Fraction(1, 2), Fraction(2))
        assert scaled_level_bound(cert, 2) == Fraction(3, 8)
        assert decay_row(cert, 2, 48.0) == (0.375, 1.5, True)
        assert decay_row(cert, 2, 64.0) == (0.5, 1.5, False)
        assert decay_row(cert, 2, 200.0) == (1.5625, 1.5, False)

    def test_level_sups_metadata(self):
        levels = covariant_level_sups(CONN, [0], [ONE], SQUARE.with_grid_n(9), 6, full_cap=4)[0][0]
        assert [level.m for level in levels] == list(range(7))
        # past full_cap = 4 each level extends the sequence of the level before it
        assert levels[5].dirs[:4] == levels[4].dirs and levels[6].dirs[:5] == levels[5].dirs
        assert len(levels[6].dirs) == 6


def grid_max(section, points):
    """Vectorized grid max of the fiber norm and the first grid point attaining it."""
    squares = np.zeros(points.shape)
    for index in section.support:
        squares += np.abs(evaluate_on_grid(section.coefficient(index), points)) ** 2
    best = int(np.argmax(squares))
    return math.sqrt(squares[best]), complex(points[best])


def exact_norm(section, point):
    """Fiber norm at a grid point, from the exact squared norm (grid points are binary-exact)."""
    square = metric_pair(section, section).evaluate_exact(
        GaussianRational(Fraction(point.real), Fraction(point.imag))
    )
    assert square.im == 0 and square.re >= 0
    return math.sqrt(square.re)


class TestLevelSupOracle:
    def test_matches_confirm_everything_reference(self):
        # every section of every level is rebuilt and valued exactly at its
        # grid argmax; the grid path may differ from that by float rounding only
        complex_k = Connection(
            k=WirtingerPolynomial.from_json_terms([[1, 2, "1/2", "-1/3"], [0, 0, "1", "1"]])
        )
        rect = SQUARE.with_grid_n(9)
        points = rect.grid_points()
        ties = 0
        cases = [(CONN, ONE, (0, 2)), (CONN, S, (2, 5)), (complex_k, ONE, (1, 3)), (complex_k, S * SBAR, (0, 1))]
        for conn, f, indices in cases:
            [sweeps] = covariant_level_sups(conn, indices, [f], rect, 6, full_cap=4)
            assert list(sweeps) == list(indices)
            for j, levels in sweeps.items():
                assert [level.m for level in levels] == list(range(7))
                ties += self.confirm_levels(conn, j, f, levels, points)
        # some level has two sections with equal grid maxima, so the tie rule is exercised
        assert ties

    @staticmethod
    def confirm_levels(conn, j, f, levels, points):
        """Check each level of one index against its rebuilt sections; the number of tied levels."""
        ties = 0
        for level in levels:
            if level.m <= 4:
                frontier = list(direction_sequences(level.m))
            else:
                frontier = [levels[level.m - 1].dirs + (d,) for d in (D, DBAR)]
            sections = {dirs: conn.iterated(f * FieldSection.basis(j), dirs) for dirs in frontier}
            grid = {dirs: grid_max(sections[dirs], points) for dirs in frontier}
            exact = {dirs: exact_norm(sections[dirs], grid[dirs][1]) for dirs in frontier}
            top = max(exact.values())
            assert abs(level.sup - top) <= 1e-12 * top, (j, level.m, level.sup, top)
            assert abs(exact[level.dirs] - top) <= 1e-12 * top, (j, level.m, level.dirs)
            # the reported value is the grid maximum, and the first section attaining it wins
            assert level.sup == max(value for value, _ in grid.values())
            assert level.dirs == next(dirs for dirs in frontier if grid[dirs][0] == level.sup)
            ties += sum(value == level.sup for value, _ in grid.values()) >= 2
        return ties

    def test_merged_sweep_matches_brute_force(self):
        # every sequence rebuilt and valued on its own, at each index of one
        # sweep: merging equal sections, reading every index from one graded
        # coefficient and skipping those whose bound is below the level maximum
        # must leave every field of every level as the full sweep has it.  On the default
        # model the maxima sit at unmerged words; for the flat connection D and
        # Dbar commute, and at m = 2 the merged sequences (d, dbar) and
        # (dbar, d) tie for the maximum of s^2 sbar^2.  For the complex
        # multi-term k on a rectangle off the origin the bounds are loose, so
        # some levels evaluate several sections and skip others.  With
        # full_cap = 0 the greedy walk starts at level 1, which still holds
        # both sequences and so is exhaustive.  On the real segment [-1, 1],
        # f = 2s + sbar^3/3 - 2 sbar has D f = 2 and Dbar f = sbar^2 - 2, tied
        # at 2 on the grid, and the later Dbar f, with the larger bound, is
        # evaluated first: the first sequence must still win the tie, also
        # with full_cap = 1 or 2, where level 1 is read from the root's moments
        # and Dbar f, whose read is the larger, is built first.  So must
        # (D, D) win the tie of s^2 - sbar^2 + sbar^4/12 at level 2, two steps
        # below the root, against the later (Dbar, Dbar) with its larger
        # bound.  The last three exhaustive levels are read from the moments
        # of the level above them, node by node: on the default model with
        # full_cap = 6 their nodes repeat, the levels may lie below the cap
        # (m_max < full_cap) or start at the root (full_cap 1 to 3), and the
        # indices sharing their built nodes may come in any order
        complex_k = Connection(
            k=WirtingerPolynomial.from_json_terms([[1, 2, "1/2", "-1/3"], [0, 0, "1", "1"]])
        )
        off_origin = CompactRectangle(Fraction(1, 4), Fraction(1), Fraction(-1, 2), Fraction(1, 4), 9)
        segment = CompactRectangle(Fraction(-1), Fraction(1), Fraction(0), Fraction(0), 9)
        tie = 2 * S + WirtingerPolynomial({(0, 3): Fraction(1, 3), (0, 1): -2})
        tie_two_down = S * S + WirtingerPolynomial({(0, 4): Fraction(1, 12), (0, 2): -1})
        evaluated = []
        section_sup = hilbertfield.analyticity._section_sup

        def recorded(h, tables):
            evaluated.append(h)
            return section_sup(h, tables)

        merged_ties = partial_levels = repeated_deepest = 0
        cases = [
            (CONN, ONE, SQUARE.with_grid_n(9), 9, 8, (0, 3)),
            (Connection.flat(), S * S * SBAR * SBAR, SQUARE.with_grid_n(9), 9, 8, (0, 1)),
            (complex_k, ONE, off_origin, 7, 6, (0, 2, 7)),
            (complex_k, S, off_origin, 5, 0, (1, 4)),
            (Connection.flat(), tie, segment, 2, 2, (0,)),
            (Connection.flat(), tie, segment, 2, 1, (0,)),
            (CONN, ONE, SQUARE.with_grid_n(9), 8, 6, (0, 3)),
            (complex_k, S * SBAR, off_origin, 4, 6, (1, 3)),
            (CONN, S, SQUARE.with_grid_n(9), 4, 1, (0, 2)),
            (complex_k, ONE, SQUARE.with_grid_n(9), 7, 5, (4, 1, 0)),
            (complex_k, ONE, SQUARE.with_grid_n(9), 7, 5, (0, 1, 4)),
            (Connection.flat(), tie_two_down, segment, 3, 2, (0,)),
            (Connection.flat(), tie_two_down, segment, 3, 3, (0,)),
            (CONN, S, SQUARE.with_grid_n(9), 5, 3, (2, 0)),
            (complex_k, S, off_origin, 5, 3, (0, 2, 7)),
            (complex_k, ONE, SQUARE.with_grid_n(9), 4, 2, (1, 0)),
            (CONN, ONE, SQUARE.with_grid_n(9), 5, 8, (0, 3)),
            (complex_k, S * SBAR, off_origin, 5, 9, (4, 1)),
        ]
        for conn, f, rect, m_max, full_cap, indices in cases:
            points = rect.grid_points()
            evaluated.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(hilbertfield.analyticity, "_section_sup", recorded)
                [sweeps] = covariant_level_sups(conn, indices, [f], rect, m_max, full_cap=full_cap)
            assert list(sweeps) == list(indices)
            if f == tie_two_down:
                # (Dbar, Dbar) f = sbar^2 - 2, with the larger bound, is evaluated before (D, D) f = 2
                assert evaluated.index(SBAR * SBAR - 2 * ONE) < evaluated.index(2 * ONE)
                assert sweeps[0][2] == LevelSup(2, 2.0, (D, D))
            for j, levels in sweeps.items():
                assert [level.m for level in levels] == list(range(m_max + 1))
                for m, level in enumerate(levels):
                    if m <= full_cap:
                        frontier = list(direction_sequences(m))
                    else:
                        frontier = [levels[m - 1].dirs + (d,) for d in (D, DBAR)]
                    sections = [conn.iterated(f * FieldSection.basis(j), dirs) for dirs in frontier]
                    sups = [grid_max(section, points)[0] for section in sections]
                    # the sweep carries the coefficient of phi_j, the whole of each section
                    coefficients = [section.coefficient(j) for section in sections]
                    assert all(set(section.support) <= {j} for section in sections)
                    top = max(sups)
                    winners = [i for i, value in enumerate(sups) if value == top]
                    assert level == LevelSup(m, top, frontier[winners[0]]), (j, m)
                    merged_ties += top > 0 and any(
                        sections[a] == sections[b] for a, b in itertools.combinations(winners, 2)
                    )
                    distinct = set(coefficients)
                    partial_levels += 1 < len(distinct & set(evaluated)) < len(distinct)
                    repeated_deepest += m == min(full_cap, m_max) and len(distinct) < len(coefficients)
        assert merged_ties
        assert partial_levels
        assert repeated_deepest

    def test_one_derivative_and_one_grid_evaluation_per_distinct_section(self, monkeypatch):
        # k = sbar has constant curvature, so D and Dbar form a Heisenberg pair
        # and these are the numbers of distinct sections of the levels 0..7;
        # one graded coefficient per distinct section of the levels 0..6 is
        # differentiated once per direction, and each of the levels 0..7 is
        # weighted once, for all three indices, as are the two multipliers.
        # Levels 8..10, the last three exhaustive ones, are not built: level
        # 7's derivative moments bound the 720 nodes up to three steps below
        # it, and these bounds, tight on this model, leave 24 nodes to build
        # and weigh, once for all three indices, each from its parent.  Each
        # index evaluates 29 coefficients on the grid, best bound first, as
        # fully built levels did.  The sweep builds no section and takes
        # no per-index twisted derivative: each greedy level steps the
        # index's graded winner twice, weights both children and evaluates one
        distinct = [1, 2, 4, 8, 15, 28, 50, 90]
        calls = Counter()

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(
            WirtingerPolynomial,
            "twisted_derivative",
            counted("derivative", WirtingerPolynomial.twisted_derivative),
        )
        monkeypatch.setattr(_Graded, "twisted_derivative", counted("graded", _Graded.twisted_derivative))
        monkeypatch.setattr(
            Connection, "covariant_derivative", counted("section", Connection.covariant_derivative)
        )
        for name in ("_section_bound", "_section_sup"):
            monkeypatch.setattr(
                hilbertfield.analyticity, name, counted(name, getattr(hilbertfield.analyticity, name))
            )
        for m_max in (10, 12):
            greedy = m_max - 10
            calls.clear()
            [sweeps] = covariant_level_sups(CONN, (0, 1, 4), [ONE], SQUARE.with_grid_n(9), m_max, full_cap=10)
            assert calls["_section_bound"] == sum(distinct) + 2 + 24 + 2 * 3 * greedy == 224 + 6 * greedy
            assert calls["graded"] == 2 * sum(distinct[:-1]) + 24 + 2 * 3 * greedy == 240 + 6 * greedy
            assert calls["derivative"] == 0
            assert calls["section"] == 0
            assert calls["_section_sup"] == 3 * (29 + greedy)
            # each greedy level past full_cap = 10 extends the sequence of the level before it
            assert all(sweeps[0][m].dirs[:-1] == sweeps[0][m - 1].dirs for m in range(11, m_max + 1))
            calls.clear()
            # no level of an index depends on the indices sharing its sweep
            assert covariant_level_sups(CONN, [0], [ONE], SQUARE.with_grid_n(9), m_max, full_cap=10) == [{0: sweeps[0]}]
            assert calls["_section_sup"] == 29 + greedy
            assert calls["_section_bound"] == 224 + 2 * greedy
        # a complex multi-term k merges nothing and its reads from level 3's moments are loose: the
        # last three levels build every node, and each, visited again at its own read, keeps the
        # grid evaluations to the 353 that fully built levels need
        complex_k = Connection(k=WirtingerPolynomial.from_json_terms([[0, 0, "1", "1"], [1, 2, "1/2", "-1/3"]]))
        calls.clear()
        covariant_level_sups(complex_k, (0, 2, 7), [ONE], SQUARE.with_grid_n(9), 6, full_cap=6)
        assert calls["graded"] == 2 * (2**6 - 1)
        assert calls["_section_sup"] == 353

    @pytest.mark.parametrize("full_cap", [4, 10])
    @pytest.mark.parametrize("model", ["default", "complex-k"])
    def test_one_call_over_the_functions_is_each_function_on_its_own(self, model, full_cap):
        # the functions share the grid, the multipliers and the steps' moment maps, which grow with the
        # sweep: no level of a function may depend on the functions swept before it, also where one
        # repeats or is zero.  Complex k builds thousands of nodes below level 7 on the unit square
        # (about 4 s for three functions), so at the cap 10 it sweeps the small square, still to level 12
        conn, rect = CONN, SQUARE.with_grid_n(9)
        if model == "complex-k":
            conn = Connection(k=WirtingerPolynomial.from_json_terms([[0, 0, "1", "1"], [1, 2, "1/2", "-1/3"]]))
            rect = TINY if full_cap == 10 else rect
        alone = {
            f: covariant_level_sups(conn, (0, 2), [f], rect, full_cap + 2, full_cap) for f in (ONE, S, S * SBAR, ZERO)
        }
        for functions in ((ONE, S, S * SBAR), (S, ZERO, S, ONE)):
            runs = covariant_level_sups(conn, (0, 2), functions, rect, full_cap + 2, full_cap)
            assert runs == [alone[f][0] for f in functions]
        # the last level, past full_cap, is greedy
        assert runs[1][0][-1].m > full_cap and runs[0][2][-1].sup > 0

    def test_one_grid_and_one_set_of_steps_serve_every_function(self, monkeypatch):
        # the model, functions, indices, grid and caps of the default run: the work of one call over the
        # three functions is that of three one-function calls less two _Steps and PowerTables builds
        built, calls = {}, Counter()

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                result = function(*args)
                built[name] = result
                return result

            return wrapper

        for name in ("_Steps", "PowerTables", "_section_bound", "_section_sup"):
            monkeypatch.setattr(hilbertfield.analyticity, name, counted(name, getattr(hilbertfield.analyticity, name)))
        monkeypatch.setattr(_Graded, "twisted_derivative", counted("graded", _Graded.twisted_derivative))
        conn = Connection.from_potential(S * SBAR)
        covariant_level_sups(conn, (0, 1, 4), (ONE, S, S * SBAR), SQUARE, 12, full_cap=10)
        assert calls["_Steps"] == calls["PowerTables"] == 1
        assert len(built["_Steps"].operators) == 22
        assert calls["_section_bound"] == 890
        assert calls["_section_sup"] == 270
        assert calls["graded"] == 942

    @pytest.mark.parametrize("m_max", [3, 5])
    def test_negative_index_is_rejected(self, m_max):
        # with full_cap = 3, m_max = 3 has only exhaustive levels and m_max = 5 greedy ones too
        with pytest.raises(ValueError, match="basis index must be nonnegative"):
            covariant_level_sups(CONN, [-1], [ONE], SQUARE.with_grid_n(9), m_max, full_cap=3)
        with pytest.raises(ValueError, match="basis index must be nonnegative"):
            covariant_level_sups(CONN, [0, -1], [ONE], SQUARE.with_grid_n(9), m_max, full_cap=3)

    def test_negative_full_cap_is_rejected(self):
        with pytest.raises(ValueError, match="full_cap"):
            covariant_level_sups(CONN, [0], [ONE], SQUARE.with_grid_n(9), 3, full_cap=-1)

    # m_max = 3 past full_cap = 1 meets the overflow in a greedy level, full_cap = 3 in an exhaustive one
    @pytest.mark.parametrize("full_cap", [1, 3])
    @pytest.mark.parametrize("indices", [[0, 99], [99, 0]])
    def test_overflow_raises_whichever_index_meets_it(self, indices, full_cap):
        # k = 10^50 sbar: the levels of j = 0 fit a float, and a level of j = 99 overflows when squared
        conn = Connection(k=WirtingerPolynomial.constant(10**50) * SBAR)
        rect = SQUARE.with_grid_n(9)
        for f in (ONE, S):
            with pytest.raises(OverflowError, match="^the squared fiber norm of a section on the grid does not fit"):
                covariant_level_sups(conn, indices, [f], rect, 3, full_cap=full_cap)
            levels = covariant_level_sups(conn, [0], [f], rect, 3, full_cap=full_cap)[0][0]
            assert [level.m for level in levels] == [0, 1, 2, 3]
            assert all(math.isfinite(level.sup) for level in levels)
        # and so does one call over both functions
        with pytest.raises(OverflowError, match="^the squared fiber norm of a section on the grid does not fit"):
            covariant_level_sups(conn, indices, [ONE, S], rect, 3, full_cap=full_cap)

    def test_worst_sequences_up_to_order_ten(self):
        rect = SQUARE.with_grid_n(9)
        cert = estimate_certificate(ONE, CONN, 0, rect)
        levels = covariant_level_sups(CONN, [0], [ONE], rect, 10, full_cap=10)[0][0]
        for level in levels:
            assert decay_row(cert, level.m, level.sup)[2]
            # the section rebuilt from its directions gives the reported sup on the grid
            section = CONN.iterated(ONE * FieldSection.basis(0), level.dirs)
            assert grid_max(section, rect.grid_points())[0] == level.sup


def edge_polynomial(base, terms):
    """A coefficient whose terms have modulus about 2^(base + shift)."""
    return WirtingerPolynomial(
        [(pq, c * GaussianRational(Fraction(2) ** (base + shift))) for pq, c, shift in terms]
    )


def edge_polynomials(coefficients):
    # complex or real multi-term coefficients; the exponent base runs from below the smallest
    # subnormal float to above the largest float, weighted where squares leave the range
    return st.builds(
        edge_polynomial,
        st.one_of(st.integers(-1090, 1030), st.sampled_from([-1074, -1022, -537, -511, 511, 512])),
        st.lists(st.tuples(exponent_pairs, coefficients, st.integers(-8, 8)), min_size=1, max_size=5),
    )


small_fractions = st.builds(Fraction, st.integers(-64, 64), st.integers(1, 12))
small_coefficients = st.builds(GaussianRational, small_fractions, small_fractions)


def sorted_rectangle(re, im, grid_n):
    return CompactRectangle(min(re), max(re), min(im), max(im), grid_n)


def rectangles_within(numerator, denominator):
    coordinate = st.builds(Fraction, st.integers(-numerator, numerator), st.just(denominator))
    pair = st.tuples(coordinate, coordinate)
    return st.builds(sorted_rectangle, pair, pair, st.integers(2, 9))


# inside the unit disc (r <= 0.7 * sqrt(2) < 1) or reaching past it, mostly off the origin
rectangles = st.one_of(rectangles_within(84, 120), rectangles_within(24, 12))


def beyond_float_range(h):
    return any(max(abs(re), abs(im)) >= 2**1024 * h.denominator for re, im in h.numerators.values())


def grid_radii(points):
    return [1.0, float(np.abs(points).max())]


def graded_bound(graded, radii, lam):
    """The weights of one coefficient read at lam, as ``_reader`` reads a level's."""
    with np.errstate(over="ignore"):
        return _bounds_at(own_rows(graded, radii), lam)[0]


def section_bound(h, radii):
    """The bound of a polynomial, grade 0, so every lam reads the same."""
    return graded_bound(_Graded(h), radii, 1)


def hypot_bound(h, radii):
    """``section_bound`` with ``math.hypot`` for every coefficient, real or not."""
    if not h:
        # h*phi_j = 0 has an empty support and a fiber norm of 0
        return 0.0
    degree = h.total_degree()
    while len(radii) <= degree:
        radii.append(radii[-1] * radii[1])
    den = h.denominator
    bound = 0.0
    for (p, q), (re, im) in h.numerators.items():
        try:
            modulus = math.hypot(re / den, im / den)
        except OverflowError:
            return math.inf
        bound += modulus * radii[p + q]
    if min(1 / den, radii[degree]) < 2.0**-510:
        return math.inf
    bound *= 1 + (2 * len(h.numerators) + 9 * degree + 7) * sys.float_info.epsilon
    return math.sqrt(bound * bound)


def grid_values(h, points):
    """The fiber norm |h| at every grid point, computed as _section_sup computes it."""
    return np.sqrt(np.abs(evaluate_on_grid(h, points)) ** 2)


multipliers = st.dictionaries(exponent_pairs, small_coefficients, min_size=2, max_size=4).map(WirtingerPolynomial)


class TestSectionBound:
    """``_section_bound``: per-grade weights, read at lam, bounding every grid value of a coefficient of phi_j."""

    @settings(max_examples=200, deadline=None)
    @given(edge_polynomials(small_coefficients), rectangles)
    def test_bounds_every_grid_value(self, h, rect):
        points = rect.grid_points()
        bound = section_bound(h, grid_radii(points))
        if beyond_float_range(h):
            assert bound == math.inf
        if bound == math.inf:
            return
        assert grid_values(h, points).max() <= bound

    @settings(max_examples=150, deadline=None)
    @given(
        edge_polynomials(small_coefficients),
        multipliers,
        multipliers,
        st.lists(directions, max_size=6),
        st.sampled_from([1, 2, 5, 100]),
        rectangles,
    )
    def test_weights_read_at_lam_bound_every_grid_value_of_a_chain(self, f, a, b, dirs, lam, rect):
        # a graded chain of twisted derivatives, as the sweep builds it, weighted once and read at
        # lam: at or above every grid value of its coefficient at lam, and infinite where that
        # coefficient leaves the float range
        points = rect.grid_points()
        radii = grid_radii(points)
        multiplier = {D: a, DBAR: b}
        chain = [_Graded(f)]
        for d in dirs:
            chain.append(chain[-1].twisted_derivative(d, multiplier[d]))
        for graded in chain:
            h = graded.at(lam)
            bound = graded_bound(graded, radii, lam)
            if beyond_float_range(h):
                assert bound == math.inf
            if bound < math.inf:
                assert grid_values(h, points).max() <= bound

    @settings(max_examples=200, deadline=None)
    @given(edge_polynomials(st.builds(GaussianRational, small_fractions)), rectangles)
    def test_real_coefficients_skip_hypot_bit_for_bit(self, h, rect):
        # C99 hypot(x, +-0) is |x|, so the real path changes no bit of the bound
        radii = grid_radii(rect.grid_points())
        bound = section_bound(h, list(radii))
        assert bound.hex() == hypot_bound(h, list(radii)).hex()
        if beyond_float_range(h):
            assert bound == math.inf

    def test_coefficient_beyond_float_range_gives_infinite_bound(self):
        fits = WirtingerPolynomial({(0, 0): GaussianRational(1)})
        huge = WirtingerPolynomial({(1, 2): GaussianRational(1, 10**400)})
        assert section_bound(fits + huge, [1.0, 0.5]) == math.inf
        with pytest.raises(OverflowError, match="the coefficient of s\\^1 sbar\\^2"):
            evaluate_on_grid(huge, TINY.grid_points())

    def test_holds_where_grid_powers_underflow(self):
        # at points of modulus about 2^-268 the grid's s^4, s^2 sbar^2 and
        # s^3 sbar fall among the subnormals, whose rounding is absolute, and
        # 2^1000 lifts the term back to the normal range: a relative pad
        # alone misses some of these (and where r^4 underflows to 0 it bounds
        # a positive value by 0), so the bound must give up here
        lift = GaussianRational(Fraction(2) ** 1000)
        for a, b in itertools.product(range(1, 16), repeat=2):
            re, im = Fraction(a, 2**269), Fraction(b, 2**269)
            points = CompactRectangle(re, re, im, im, 2).grid_points()
            for p, q in ((4, 0), (3, 1), (2, 2)):
                h = WirtingerPolynomial({(p, q): lift})
                bound = section_bound(h, grid_radii(points))
                assert grid_max(h * FieldSection.basis(0), points)[0] <= bound, (a, b, p, q)

    def test_tight_on_monomials_at_a_corner(self):
        # |c s^p sbar^q| peaks at the corner 1+i of the unit square, where it is |c| r^(p+q)
        points = SQUARE.with_grid_n(9).grid_points()
        c = GaussianRational("-3/2", 2)
        for p, q in ((0, 0), (2, 1), (0, 3)):
            h = WirtingerPolynomial({(p, q): c})
            bound = section_bound(h, grid_radii(points))
            top = grid_max(h * FieldSection.basis(1), points)[0]
            assert top <= bound <= 2.5 * 2 ** ((p + q) / 2) * (1 + 1e-12)


def row_reads(rows, lam):
    """Bound rows read at lam, as ``_reader`` reads a level's."""
    with np.errstate(over="ignore"):
        return _bounds_at(rows, lam)


# complex, never an integer: an odd numerator over an even denominator in each part
non_integers = st.builds(lambda n, d: Fraction(2 * n + 1, 2 * d), st.integers(-16, 15), st.integers(1, 4))
non_integer_polynomials = st.dictionaries(
    exponent_pairs, st.builds(GaussianRational, non_integers, non_integers), min_size=1, max_size=2
).map(WirtingerPolynomial)


class TestParentRead:
    """``_Tree.rows``: the reads of every node 1-3 steps below a level, from the level's derivative
    moments, bound the node's grid values."""

    LAMS = (1, 2, 5, 1000)

    def descendant_reads(self, conn, f, rect, depth=5, bare=False):
        """(grid value, read) of every node 1-3 steps below each node of the levels 0..depth, at each lam."""
        tables = PowerTables(rect.grid_points())
        radii = grid_radii(tables.points)
        a = {d: conn.coefficient(0, d) for d in (D, DBAR)}
        steps = _Steps(a, radii)
        if bare:
            # the negative control: no |eta^b a|_r term, so no read sees the lam a h part of a step
            steps.maps = {n: (select, 0 * lift) for n, (select, lift) in steps.maps.items()}
        level, found, children, values = {_Graded(f): ()}, [], {}, {}
        with np.errstate(over="ignore"):
            for m in range(depth + 1):
                level = _children(level, a) if m else level
                tree, nodes = _Tree(level, m, 3, steps), list(level)
                for t in (1, 2, 3):
                    # row (i, path) is node i stepped along path, its first step in the highest bit; a node
                    # lies below up to three levels, so its children and grid values are kept
                    for node in nodes:
                        if node not in children:
                            children[node] = [node.twisted_derivative(d, h) for d, h in a.items()]
                    nodes = [child for node in nodes for child in children[node]]
                    rows = tree.rows(t)[0]
                    for lam in self.LAMS:
                        for node in nodes:
                            if (node, lam) not in values:
                                values[node, lam] = _section_sup(node.at(lam), tables)
                        found.extend(zip([values[node, lam] for node in nodes], row_reads(rows, lam), strict=True))
        return found

    @pytest.mark.parametrize(
        "conn, f",
        [
            (CONN, ONE),
            (Connection(k=WirtingerPolynomial.from_json_terms([[0, 0, "1", "1"], [1, 2, "1/2", "-1/3"]])), S),
        ],
        ids=["default", "complex-k"],
    )
    def test_bounds_every_child_and_the_control_does_not(self, conn, f):
        rect = SQUARE.with_grid_n(9)
        assert all(value <= read < math.inf for value, read in self.descendant_reads(conn, f, rect))
        # without |eta^b a|_r the read falls below some descendant's grid value: the check above can fail
        assert any(read < value for value, read in self.descendant_reads(conn, f, rect, bare=True))

    @settings(max_examples=6, deadline=None)
    @given(non_integer_polynomials, non_integer_polynomials, rectangles_within(84, 120))
    def test_bounds_every_child_of_a_drawn_model(self, f, k, rect):
        for value, read in self.descendant_reads(Connection(k=k), f, rect.with_grid_n(5)):
            assert value <= read

    def test_range_guard_gives_an_infinite_read(self):
        # 1/den and 1/den(a) are each 2^-200: one step down 2^-400 is within the guard, two steps 2^-600 are not
        f = WirtingerPolynomial({(2, 1): GaussianRational(Fraction(3, 2**200))})
        conn = Connection(k=WirtingerPolynomial({(0, 1): GaussianRational(Fraction(1, 2**200))}))
        radii = grid_radii(SQUARE.with_grid_n(9).grid_points())
        a = {d: conn.coefficient(0, d) for d in (D, DBAR)}
        tree = _Tree({_Graded(f): ()}, 0, 3, _Steps(a, radii))
        assert all(read < math.inf for t in (0, 1) for read in row_reads(tree.rows(t)[0], 2))
        assert row_reads(tree.rows(2)[0], 2) == [math.inf] * 4
        assert row_reads(tree.rows(3)[0], 2) == [math.inf] * 8

    def test_map_beyond_float_range_gives_an_infinite_read(self):
        # |a|_r of the multiplier 2^1100 sbar does not fit a float, so no map through it does: a node's
        # own read stays finite and every read one or more steps down is inf, so it is never pruned
        conn = Connection(k=WirtingerPolynomial({(0, 1): 2**1100}))
        radii = grid_radii(SQUARE.with_grid_n(9).grid_points())
        steps = _Steps({d: conn.coefficient(0, d) for d in (D, DBAR)}, radii)
        tree = _Tree({_Graded(S * SBAR): ()}, 0, 3, steps)
        assert row_reads(tree.rows(0)[0], 2)[0] < math.inf
        for t in (1, 2, 3):
            assert steps.operator((None,) * t, 1) is None
            assert row_reads(tree.rows(t)[0], 2) == [math.inf] * 2**t

    @pytest.mark.parametrize("rows", [1, 3])
    def test_lam_beyond_float_range_gives_an_infinite_read(self, rows):
        # lam = j + 1 of an index beyond the float range: each read is inf, so no row is pruned
        assert _bounds_at(np.ones((rows, 2)), 10**400) == [math.inf] * rows
        assert _bounds_at(np.ones((rows, 2)), 2) == [3.0] * rows

    def test_level_moments_match_each_coefficient_bit_for_bit(self):
        # the base's moments above order 0, summed by numpy for the whole level, are each coefficient's own
        complex_k = Connection(k=WirtingerPolynomial.from_json_terms([[0, 0, "1", "1"], [1, 2, "1/2", "-1/3"]]))
        for conn in (CONN, complex_k):
            radii = grid_radii(SQUARE.with_grid_n(9).grid_points())
            a = {d: conn.coefficient(0, d) for d in (D, DBAR)}
            steps, level = _Steps(a, radii), {_Graded(S * SBAR): ()}
            for m in range(1, 6):
                level = _children(level, a)
            tree = _Tree(level, 5, 3, steps)
            own = [_section_bound(graded, radii, steps.step, 3, 6)[0] for graded in level]
            assert tree.moments.shape == (len(level), len(_MOMENTS), 6)
            assert tree.moments.tolist() == own


class TestScaledLevelBound:
    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda e: 0 < e < 1),
        st.fractions(min_value=1, max_value=200, max_denominator=60).filter(lambda M: M > 1),
        st.integers(0, 40),
    )
    def test_tail_lemma(self, epsilon, M, m):
        # U_m is the rising-factorial sum of the certified term bounds, and
        # each of its factors is at most 1, so it never exceeds M (1/2)^m
        cert = hand_certificate(ONE, CONN, 0, SQUARE, epsilon, M)
        rising = Fraction(1)
        for i in range(m + 1):
            rising *= M * epsilon + i
        expected = cert.delta**m / math.factorial(m) * epsilon ** -(m + 1) * rising
        U = scaled_level_bound(cert, m)
        assert U == expected
        assert U <= M * Fraction(1, 2) ** m <= (m + 1) * M * Fraction(1, 2) ** m

    def test_matches_the_per_factor_product_on_the_default_certificates(self):
        # U_m = M (1/2)^m prod_{i=1..m} (x + i) / (i (1 + x)), x = M epsilon, one factor at a time
        conn = Connection.from_potential(S * SBAR)
        for j, f in itertools.product((0, 1, 4), (ONE, S, S * SBAR)):
            cert = estimate_certificate(f, conn, j, SQUARE)
            x = cert.M * cert.epsilon
            for m in range(13):
                shrink = math.prod((x + i) / (i * (1 + x)) for i in range(1, m + 1))
                assert scaled_level_bound(cert, m) == cert.M * Fraction(1, 2) ** m * shrink, (j, f, m)

    def test_at_most_M_halved_m_times_to_order_forty(self):
        # the lemma of scaled_level_bound: each factor (x+i)/(i(1+x)) is at most 1
        # as (i-1) x >= 0, so U_m <= M (1/2)^m at every m; exact, on the nine
        # default certificates and the hand certificate (1/2, 2)
        conn = Connection.from_potential(S * SBAR)
        certs = [estimate_certificate(f, conn, j, SQUARE) for j, f in itertools.product((0, 1, 4), (ONE, S, S * SBAR))]
        certs.append(hand_certificate(ONE, CONN, 0, SQUARE, Fraction(1, 2), Fraction(2)))
        for cert in certs:
            x = cert.M * cert.epsilon
            assert all((x + i) / (i * (1 + x)) <= 1 for i in range(1, 41))
            for m in range(41):
                assert scaled_level_bound(cert, m) <= cert.M * Fraction(1, 2) ** m, (cert.M, m)


class TestTermTypeBound:
    def test_empty_ground_set(self):
        cert = estimate_certificate(ONE, CONN, 0, SQUARE)
        assert verify_term_type_bound(Splitting(0, ((),), ()), (), CONN, 0, ONE, cert)

    def test_exhaustive_order_two(self):
        cert = estimate_certificate(ONE, CONN, 0, SQUARE)
        for spl in all_splittings(2):
            for dirs in direction_sequences(2):
                assert verify_term_type_bound(spl, dirs, CONN, 0, ONE, cert)

    def test_sampled_order_four_with_quadratic_multiplier(self):
        import random

        conn = Connection(k=S * SBAR)
        cert = estimate_certificate(ONE, conn, 3, SQUARE.with_grid_n(17))
        rng = random.Random(425)
        pool = list(all_splittings(4))
        for spl in rng.sample(pool, 20):
            dirs = tuple(rng.choice((D, DBAR)) for _ in range(4))
            assert verify_term_type_bound(spl, dirs, conn, 3, ONE, cert)

    def test_interior_peak_is_caught(self):
        # the order-0 term is f = 2 - s*sbar itself: 0 at every corner, all a
        # 2-point grid sees, but 2 > M = 9/8 at s = 0
        flat = Connection.flat()
        peak = WirtingerPolynomial.constant(2) - S * SBAR
        corners = SQUARE.with_grid_n(2)
        cert = hand_certificate(peak, flat, 0, corners, Fraction(1, 2), Fraction(9, 8))
        assert np.max(np.abs(evaluate_on_grid(peak, corners.grid_points()))) == 0
        assert not verify_term_type_bound(Splitting(0, ((),), ()), (), flat, 0, peak, cert)
