"""Quantitative analyticity certificates and decay of covariant derivatives.

A certificate is a pair of rationals (epsilon, M) with epsilon in (0, 1)
and M > 1 such that

    (epsilon^m / m!) * |eta_1 ... eta_m h(s)|  <  M

for every derivative order m, every coordinate direction sequence, every h
in the triple (f, multiplier along d/ds, multiplier along d/dsbar), and
every grid point s of the compact rectangle.  For polynomial h all
derivatives beyond the total degree vanish, so the supremum over all m is
attained at some m <= 1 + max degree and a bounded search is sound.  From
a certificate the derived rate delta = epsilon / (2 (1 + M epsilon))
forces the scaled fiber norms of iterated covariant derivatives of f*phi_j
down to zero like (m+1) M (1/2)^m, which is the decay this module computes
and verifies.

Grid suprema are lower bounds of the true suprema; M carries a
configurable safety factor (default x2) on top of the observed worst
value.  The search returns its candidate unaudited: the caller re-verifies
it with an exhaustive audit that shares no logic with the search, and
reports that outcome.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .field import Connection, FieldSection, metric_norm_at
from .grid import CompactRectangle, evaluate_on_grid, sup_norm_on_grid, sup_with_argmax
from .splittings import Splitting, splitting_term
from .symbolic import Direction, WirtingerPolynomial

__all__ = [
    "AnalyticityCertificate",
    "LevelSup",
    "delta_from",
    "derivative_sup",
    "estimate_certificate",
    "audit_certificate",
    "covariant_level_sups",
    "decay_row",
    "decay_profile",
    "verify_bound_chain",
    "verify_term_type_bound",
]


def delta_from(epsilon: Fraction, M: Fraction) -> Fraction:
    """Exact decay rate epsilon / (2 (1 + M epsilon)); always in (0, 1/4)."""
    epsilon = Fraction(epsilon)
    M = Fraction(M)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if M <= 1:
        raise ValueError(f"M must exceed 1, got {M}")
    return epsilon / (2 * (1 + M * epsilon))


@dataclass(frozen=True)
class AnalyticityCertificate:
    """Constants (epsilon, M) with their derived decay rate delta.

    ``h_polys`` is the certified triple (f, multiplier along d/ds,
    multiplier along d/dsbar); ``m_max`` is the derivative-order cap past
    which all certified derivatives vanish identically.
    """

    epsilon: Fraction
    M: Fraction
    delta: Fraction
    m_max: int
    rectangle: CompactRectangle
    h_polys: tuple[WirtingerPolynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "M", Fraction(self.M))
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "h_polys", tuple(self.h_polys))
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.M <= 1:
            raise ValueError("M must exceed 1")
        if self.delta != delta_from(self.epsilon, self.M):
            raise ValueError("delta must equal epsilon / (2 (1 + M epsilon)) exactly")
        if self.m_max < 0:
            raise ValueError("m_max must be nonnegative")
        if len(self.h_polys) != 3:
            raise ValueError("certificate covers exactly three functions")

    def with_bound(self, M: Fraction) -> "AnalyticityCertificate":
        """Same certificate data with a replaced bound (delta recomputed)."""
        M = Fraction(M)
        return AnalyticityCertificate(
            self.epsilon, M, delta_from(self.epsilon, M), self.m_max, self.rectangle, self.h_polys
        )

    def to_json(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "M": str(self.M),
            "delta": str(self.delta),
            "m_max": self.m_max,
            "K": self.rectangle.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict, h_polys: Sequence[WirtingerPolynomial]) -> "AnalyticityCertificate":
        return cls(
            Fraction(str(data["epsilon"])),
            Fraction(str(data["M"])),
            Fraction(str(data["delta"])),
            int(data["m_max"]),
            CompactRectangle.from_json(data["K"]),
            tuple(h_polys),
        )


def derivative_sup(h: WirtingerPolynomial, m: int, rectangle: CompactRectangle) -> float:
    """Max of |m-fold coordinate derivative of h| over directions and grid points.

    Explores the binary tree of direction sequences, pruning branches whose
    derivative has already vanished.
    """
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    points = rectangle.grid_points()

    def walk(poly: WirtingerPolynomial, remaining: int) -> float:
        if poly.is_zero:
            return 0.0
        if remaining == 0:
            return sup_with_argmax(poly, points)[0]
        return max(
            walk(poly.derivative(Direction.D), remaining - 1),
            walk(poly.derivative(Direction.DBAR), remaining - 1),
        )

    return walk(h, m)


def estimate_certificate(
    f: WirtingerPolynomial,
    conn: Connection,
    j: int,
    rectangle: CompactRectangle,
    safety: Fraction = Fraction(2),
) -> AnalyticityCertificate:
    """Candidate certificate for (f, conn, j) on the rectangle, not yet audited.

    The derivative-order cap is one past the largest total degree, where
    the vanishing tail makes the all-orders supremum finite.  Epsilon is
    fixed at 1/2; M is the safety factor times the worst observed scaled
    derivative, floored at 9/8 to stay above 1.  The caller decides the
    certificate with ``audit_certificate``.

    A smaller epsilon cannot help: M is set from the same grid quantity the
    audit checks, at the same epsilon, so the audit's strict inequality
    holds whatever epsilon is, unless safety exceeds 1 by no more than the
    float rounding between the vectorized and the scalar evaluation.
    """
    if safety <= 1:
        raise ValueError("safety factor must exceed 1")
    h_polys = (
        f,
        conn.coefficient(j, Direction.D),
        conn.coefficient(j, Direction.DBAR),
    )
    m_max = max(0, 1 + max(h.total_degree() for h in h_polys))
    epsilon = Fraction(1, 2)
    worst = max(
        Fraction(derivative_sup(h, m, rectangle)) * epsilon**m / math.factorial(m)
        for h in h_polys
        for m in range(m_max + 1)
    )
    M = max(Fraction(safety) * worst, Fraction(9, 8))
    return AnalyticityCertificate(epsilon, M, delta_from(epsilon, M), m_max, rectangle, h_polys)


def audit_certificate(certificate: AnalyticityCertificate) -> bool:
    """Exhaustive, search-independent re-verification of a certificate.

    Walks every order m <= m_max, every direction sequence, every certified
    function and every grid point with plain scalar arithmetic, and checks
    the strict inequality against M exactly (float magnitudes are compared
    as exact fractions).
    """
    points = [complex(z) for z in certificate.rectangle.grid_points()]
    for h in certificate.h_polys:
        for m in range(certificate.m_max + 1):
            scale = certificate.epsilon**m / math.factorial(m)
            for sequence in itertools.product((Direction.D, Direction.DBAR), repeat=m):
                poly = h
                for d in sequence:
                    poly = poly.derivative(d)
                if poly.is_zero:
                    continue
                for s in points:
                    if Fraction(abs(poly.evaluate(s))) * scale >= certificate.M:
                        return False
    return True


@dataclass(frozen=True)
class LevelSup:
    """Largest fiber norm of an m-fold covariant derivative over the sweep.

    ``dirs`` attains the maximum; ``exhaustive`` records whether the level
    enumerated all 2^m sequences or extended a single greedily chosen one.
    """

    m: int
    sup: float
    dirs: tuple[Direction, ...]
    exhaustive: bool


def _section_sup(section: FieldSection, points: np.ndarray) -> tuple[float, complex]:
    """Vectorized grid max of the fiber norm and the first grid point attaining it."""
    squares = np.zeros(points.shape, dtype=float)
    for index in section.support:
        squares += np.abs(evaluate_on_grid(section.coefficient(index), points)) ** 2
    best = int(np.argmax(squares))
    return math.sqrt(squares[best]), complex(points[best])


def covariant_level_sups(
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
    rectangle: CompactRectangle,
    m_max: int,
    full_cap: int = 10,
) -> list[LevelSup]:
    """Per-order grid suprema of |iterated covariant derivative of f*phi_j|.

    Levels up to ``full_cap`` enumerate all direction sequences; beyond
    that the single worst sequence is extended greedily (each step keeps
    the child direction with the larger supremum), giving a lower-bound
    estimate of the level maximum.

    Only sections whose grid max is within relative 1e-9 of the level's top
    are confirmed through ``metric_norm_at``; the first largest confirmed
    value wins.  The two paths differ by float rounding alone (under 3e-13
    relative on the default data), so 1e-9 keeps every possible winner.
    """
    points = rectangle.grid_points()
    frontier: list[tuple[tuple[Direction, ...], FieldSection]] = [
        ((), f * FieldSection.basis(j))
    ]
    levels: list[LevelSup] = []
    for m in range(m_max + 1):
        grid_sups = [_section_sup(section, points) for _, section in frontier]
        top = max(value for value, _ in grid_sups)
        confirmed = [
            (metric_norm_at(section, point), dirs, section)
            for (dirs, section), (value, point) in zip(frontier, grid_sups)
            if value >= top * (1 - 1e-9)
        ]
        best_sup, best_dirs, best_section = max(confirmed, key=lambda item: item[0])
        levels.append(LevelSup(m, best_sup, best_dirs, exhaustive=len(frontier) == 2**m))
        if m == m_max:
            break
        parents = frontier if m < full_cap else [(best_dirs, best_section)]
        frontier = [
            (dirs + (d,), conn.covariant_derivative(section, d))
            for dirs, section in parents
            for d in (Direction.D, Direction.DBAR)
        ]
    return levels


def decay_row(certificate: AnalyticityCertificate, m: int, sup: float) -> tuple[float, float, bool]:
    """Decay check of one level: (delta^m / m!) * sup against (m+1) M (1/2)^m.

    Returns the scaled supremum, the bound and whether the first is at most
    the second, with relative tolerance 1e-9.
    """
    scaled = float(certificate.delta**m / math.factorial(m)) * sup
    bound = float((m + 1) * certificate.M * Fraction(1, 2) ** m)
    return scaled, bound, scaled <= bound * (1 + 1e-9)


def decay_profile(
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
    certificate: AnalyticityCertificate,
    m_max: int,
    full_cap: int = 10,
) -> list[float]:
    """Scaled decay sequence (delta^m / m!) * level supremum, m = 0..m_max."""
    levels = covariant_level_sups(conn, j, f, certificate.rectangle, m_max, full_cap)
    return [decay_row(certificate, level.m, level.sup)[0] for level in levels]


def verify_bound_chain(
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
    certificate: AnalyticityCertificate,
    m: int,
    dirs: Sequence[Direction],
) -> bool:
    """Check one direction sequence against the decay bound.

    The grid supremum of the fiber norm of the m-fold covariant derivative
    of f*phi_j is bounded by (m+1)! M ((1 + M epsilon)/epsilon)^m.  Scaled
    by delta^m/m!, that factorial bound is exactly (m+1) M (1/2)^m, so the
    two bounds are one inequality, checked once through ``decay_row``.
    """
    if len(dirs) != m:
        raise ValueError(f"direction sequence has length {len(dirs)}, expected {m}")
    section = conn.iterated(f * FieldSection.basis(j), dirs)
    sup = metric_norm_at(section, _section_sup(section, certificate.rectangle.grid_points())[1])
    return decay_row(certificate, m, sup)[2]


def verify_term_type_bound(
    spl: Splitting,
    dirs: Sequence[Direction],
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
    certificate: AnalyticityCertificate,
) -> bool:
    """Check one splitting term against its factorial bound.

    A term whose block-size composition is (l_1, ..., l_k) is bounded by
    M^k / epsilon^(m+1-k) * (l_1 - 1)! ... (l_k - 1)! on the certified
    rectangle, with relative tolerance 1e-9.
    """
    term = splitting_term(spl, dirs, conn, j, f)
    sup = sup_norm_on_grid(term, certificate.rectangle)
    composition = spl.term_type()
    k = len(composition)
    bound = certificate.M**k / certificate.epsilon ** (spl.m + 1 - k)
    for part in composition:
        bound *= math.factorial(part - 1)
    return sup <= float(bound) * (1 + 1e-9)
