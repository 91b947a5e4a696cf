"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  Every verdict is exact: identities by equality of
term maps, certificates, decay rows and splitting-term bounds in rational
arithmetic.  Criterion 6 also re-checks the reported float decay values
against the float bound, with relative tolerance 1e-9.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from hilbertfield import (
    AnalyticityCertificate,
    Connection,
    Direction,
    FieldSection,
    GaussianRational,
    CompactRectangle,
    WirtingerPolynomial,
    all_splittings,
    audit_certificate,
    check_leibniz,
    check_metric_compat,
    check_splitting_recursion,
    covariant_level_sups,
    decay_row,
    delta_from,
    direction_sequences,
    enumerate_splittings,
    estimate_certificate,
    laplacian,
    type1_bijection,
    type2_correspondence,
    verify_expansion_identity,
    verify_term_type_bound,
    ONE,
    S,
    SBAR,
)

D, DBAR = Direction.D, Direction.DBAR

SWEEP_CONNECTIONS = (Connection(k=SBAR), Connection(k=S * SBAR**2))
SWEEP_INDICES = (0, 1, 4)
SWEEP_FUNCTIONS = (ONE, S, S * SBAR)


def _report(number: int, label: str, ok: bool, elapsed: float | None = None) -> None:
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}{timing}")
    assert ok, f"criterion {number} ({label}) failed"


def random_polynomial(rng: random.Random, max_degree: int = 4) -> WirtingerPolynomial:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        p = rng.randint(0, max_degree)
        q = rng.randint(0, max_degree - p)
        coeff = GaussianRational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        )
        terms[(p, q)] = coeff
    return WirtingerPolynomial(terms)


def random_section(rng: random.Random) -> FieldSection:
    return FieldSection(
        {rng.randint(0, 6): random_polynomial(rng) for _ in range(rng.randint(1, 3))}
    )


def test_criterion_1_expansion_identity():
    start = time.monotonic()
    ok = True
    for conn in SWEEP_CONNECTIONS:
        for m in range(7):
            for dirs in direction_sequences(m):
                for j in SWEEP_INDICES:
                    for f in SWEEP_FUNCTIONS:
                        ok = ok and verify_expansion_identity(m, dirs, conn, j, f)
    elapsed = time.monotonic() - start
    _report(1, "expansion identity", ok and elapsed < 60.0, elapsed)


def test_criterion_2_recursion_structure():
    start = time.monotonic()
    ok = True
    for conn in SWEEP_CONNECTIONS:
        for m in range(6):
            for dirs in direction_sequences(m + 1):
                for j in SWEEP_INDICES:
                    for f in SWEEP_FUNCTIONS:
                        ok = ok and check_splitting_recursion(m, dirs, conn, j, f)
    elapsed = time.monotonic() - start
    _report(2, "splitting recursion", ok, elapsed)


def test_criterion_3_splitting_combinatorics():
    start = time.monotonic()
    ok = len(enumerate_splittings(0, 1)) == 1
    for m in range(9):
        for k in range(1, m + 3):
            left = len(enumerate_splittings(m + 1, k))
            right = len(enumerate_splittings(m, k - 1)) + k * len(enumerate_splittings(m, k))
            ok = ok and left == right
    ok = ok and sum(len(enumerate_splittings(2, k)) for k in range(1, 4)) == 5
    ok = ok and sum(len(enumerate_splittings(3, k)) for k in range(1, 5)) == 15
    for m in range(7):
        for k in range(2, m + 3):
            type1_bijection(m, k)  # raises CorrespondenceError on failure
        for k in range(1, m + 2):
            type2_correspondence(m, k)
    elapsed = time.monotonic() - start
    _report(3, "splitting combinatorics", ok and elapsed < 30.0, elapsed)


def test_criterion_4_smooth_structure_axioms():
    rng = random.Random(1808)
    ok = True
    for _ in range(200):
        conn = Connection(k=random_polynomial(rng))
        f = random_polynomial(rng)
        phi = random_section(rng)
        psi = random_section(rng)
        d = rng.choice((D, DBAR))
        ok = ok and check_leibniz(conn, f, phi, d)
        ok = ok and check_metric_compat(conn, phi, psi, d)
    _report(4, "smooth-structure axioms", ok)


def test_criterion_5_curvature():
    conn = Connection.from_potential(S * SBAR)
    ok = True
    for j in range(10):
        eigen = conn.curvature_eigenvalue(j)  # commutator computation inside
        ok = ok and eigen == WirtingerPolynomial.constant(-2 * (j + 1))
        closed = laplacian(conn.potential) * GaussianRational(Fraction(-(j + 1), 2))
        ok = ok and eigen == closed
    magnitudes = [abs(conn.curvature_eigenvalue(j).evaluate(0)) for j in range(10)]
    ok = ok and all(a < b for a, b in zip(magnitudes, magnitudes[1:]))
    harmonic = Connection.from_potential(S**2 + SBAR**2)
    for j in range(10):
        ok = ok and harmonic.curvature_eigenvalue(j).is_zero
    rng = random.Random(1905)
    for _ in range(50):
        f = random_polynomial(rng)
        j = rng.randint(0, 6)
        phi = FieldSection.basis(j)
        ok = ok and conn.curvature(f * phi) == f * conn.curvature(phi)
    _report(5, "curvature spectrum and tensoriality", ok)


def test_criterion_6_analyticity_decay():
    start = time.monotonic()
    conn = Connection(k=SBAR)
    rect = CompactRectangle(Fraction(-1), Fraction(1), Fraction(-1), Fraction(1), 64)
    ok = True
    [sweeps] = covariant_level_sups(conn, (0, 4), [ONE], rect, 12, full_cap=10)
    for j in (0, 4):
        cert = estimate_certificate(ONE, conn, j, rect)
        ok = ok and audit_certificate(cert)
        levels = sweeps[j]
        for level in levels:
            ok = ok and decay_row(cert, level.m, level.sup)[2]
        for level in levels[:11]:
            scaled = float(cert.delta**level.m / math.factorial(level.m)) * level.sup
            bound = float((level.m + 1) * cert.M * Fraction(1, 2) ** level.m)
            ok = ok and scaled <= bound * (1 + 1e-9)
        tail = levels[12]
        tail_scaled = float(cert.delta**tail.m / math.factorial(tail.m)) * tail.sup
        ok = ok and tail_scaled < 0.1 * float(cert.M)
    elapsed = time.monotonic() - start
    _report(6, "analyticity decay", ok and elapsed < 120.0, elapsed)


def test_criterion_7_term_type_bound():
    conn = Connection(k=SBAR)
    rect = CompactRectangle(Fraction(-1), Fraction(1), Fraction(-1), Fraction(1), 33)
    cert = estimate_certificate(ONE, conn, 0, rect)
    ok = True
    for m in range(4):
        for spl in all_splittings(m):
            for dirs in direction_sequences(m):
                ok = ok and verify_term_type_bound(spl, dirs, conn, 0, ONE, cert)
    rng = random.Random(2014)
    pool = list(all_splittings(4))
    for spl in rng.sample(pool, 20):
        dirs = tuple(rng.choice((D, DBAR)) for _ in range(4))
        ok = ok and verify_term_type_bound(spl, dirs, conn, 0, ONE, cert)
    _report(7, "splitting-term factorial bound", ok)


def grid_audit(certificate) -> bool:
    """The certificate inequality checked at the rectangle's grid points only."""
    points = [complex(z) for z in certificate.rectangle.grid_points()]
    for h in certificate.h_polys:
        for m in range(certificate.m_max + 1):
            scale = certificate.epsilon**m / math.factorial(m)
            for sequence in itertools.product((D, DBAR), repeat=m):
                poly = h
                for d in sequence:
                    poly = poly.derivative(d)
                if any(Fraction(abs(poly.evaluate(s))) * scale >= certificate.M for s in points):
                    return False
    return True


def test_criterion_8_negative_controls():
    conn = Connection(k=SBAR)
    healthy = verify_expansion_identity(2, (D, DBAR), conn, 0, ONE)
    corrupted_fails = not verify_expansion_identity(2, (D, DBAR), conn, 0, ONE, corrupt=True)
    rect = CompactRectangle(Fraction(-1), Fraction(1), Fraction(-1), Fraction(1), 33)
    cert = estimate_certificate(ONE, conn, 0, rect)
    audit_ok = audit_certificate(cert)
    halved_fails = not audit_certificate(cert.with_bound(cert.M / 2))
    # 2 - s*sbar vanishes at the corners, all a 2-point grid sees, but is 2 > M at s = 0
    flat = Connection.flat()
    peak = WirtingerPolynomial.constant(2) - S * SBAR
    h_polys = (peak, flat.coefficient(0, D), flat.coefficient(0, DBAR))
    epsilon, M = Fraction(1, 2), Fraction(9, 8)
    corners = rect.with_grid_n(2)
    interior = AnalyticityCertificate(epsilon, M, delta_from(epsilon, M), 3, corners, h_polys)
    interior_fails = grid_audit(interior) and not audit_certificate(interior)
    ok = healthy and corrupted_fails and audit_ok and halved_fails and interior_fails
    _report(8, "negative controls", ok)
