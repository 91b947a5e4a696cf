"""Quantitative analyticity certificates and decay of covariant derivatives.

A certificate is a pair of rationals (epsilon, M) with epsilon in (0, 1)
and M > 1 such that

    (epsilon^m / m!) * |eta_1 ... eta_m h(s)|  <  M

for every derivative order m, every coordinate direction sequence, every h
in the triple (f, multiplier along d/ds, multiplier along d/dsbar), and
every point s of the compact rectangle.  For polynomial h all derivatives
beyond the total degree vanish, so only orders m <= 1 + max degree carry
information; and since the coordinate derivatives commute, an order-m
sequence matters only through its counts (a, b) of d and dbar.

Certificates are proved, not sampled: |d^a dbar^b h| is bounded on the
whole rectangle from the coefficients alone (each term c s^p sbar^q is at
most |c| R^(p+q), R the largest |s| there), in exact rational arithmetic
with square roots rounded up.  The estimate and the audit both use that
bound, so ``audit_certificate`` is an exact decision.

From a certificate the derived rate delta = epsilon / (2 (1 + M epsilon))
forces the scaled fiber norms of iterated covariant derivatives of f*phi_j
down to zero.  Summed over all splittings, the certified term bounds give
each scaled level the bound U_m = M (1/2)^m prod_{i=1..m} (x+i) / (i (1+x)),
x = M epsilon, which is at most M (1/2)^m.  The decay rows are decided from
U_m exactly.  Each level's grid supremum is reported beside it as a lower
bound: the largest vectorized grid value over the level's sections, the
first maximum winning.  The grid sums terms in sorted exponent order, so a
section rebuilt from the reported directions gives the same value bit for bit.

The level sweep (``covariant_level_sups``) carries only the coefficient h
of each section h*phi_j, as a polynomial in lam = j+1 (the multiplier at j
is lam times the one at j = 0, which ``TestIndexWeights`` checks), so one
sweep per f serves every j.  It merges equal coefficients, weights each
once by grade (|sum_k lam^k c_k| <= sum_k lam^k |c_k|), and evaluates on the
grid only those whose float bound read at lam can reach the level maximum,
so its values are the full sweep's, bit for bit.  The deepest exhaustive
level is never built whole: weighing its parents bounds every child as well,
and a child is built only when its bound comes first and can still reach
the level maximum; its own bound then takes its parent's place.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .field import Connection
from .grid import CompactRectangle, PowerTables, evaluate_on_grid
from .splittings import Splitting, splitting_term
from .symbolic import Direction, WirtingerPolynomial, _Graded, json_fraction, json_int

__all__ = [
    "AnalyticityCertificate",
    "LevelSup",
    "delta_from",
    "derivative_bound",
    "estimate_certificate",
    "audit_certificate",
    "covariant_level_sups",
    "scaled_level_bound",
    "decay_row",
    "decay_witness",
    "verify_term_type_bound",
]

# M is twice the largest scaled bound: the audit's inequality is strict, and
# halving M must still break it (the negative control)
_HEADROOM = 2

_DIRECTIONS = (Direction.D, Direction.DBAR)

# 1/den and r^d at least this keep _section_bound's products normal and its coefficients within range
_RANGE_GUARD = 2.0**-510


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
        if len(self.h_polys) != 3:
            raise ValueError("certificate covers exactly three functions")
        if self.m_max < 1 + max(h.total_degree() for h in self.h_polys):
            raise ValueError("m_max must be at least one past the largest total degree")

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
            json_fraction(data["epsilon"]),
            json_fraction(data["M"]),
            json_fraction(data["delta"]),
            json_int(data["m_max"], "m_max"),
            CompactRectangle.from_json(data["K"]),
            tuple(h_polys),
        )


def _sqrt_up(x: Fraction) -> Fraction:
    """Rational upper bound of sqrt(x) for x >= 0, within 2^-32 relative."""
    scaled = x.numerator * x.denominator * 4**32
    root = math.isqrt(scaled)
    if root * root != scaled:
        root += 1
    return Fraction(root, x.denominator * 2**32)


def derivative_bound(h: WirtingerPolynomial, a: int, b: int, rectangle: CompactRectangle) -> Fraction:
    """Exact upper bound of |d^a dbar^b h| everywhere on the rectangle.

    Each term c s^p sbar^q of the derivative has modulus |c| |s|^(p+q), and
    |s|^2 is at most R2 = max(re_min^2, re_max^2) + max(im_min^2, im_max^2)
    on the rectangle; the bound sums |c| R^(p+q) over the terms, with both
    square roots rounded up.  ``_scaled_bounds`` rounds R once for all its
    bounds through the same ``_radius_bound``.
    """
    return _radius_bound(h, a, b, _radius(rectangle))


def _radius(rectangle: CompactRectangle) -> Fraction:
    """R, the largest |s| on the rectangle, rounded up."""
    return _sqrt_up(max(rectangle.re_min**2, rectangle.re_max**2) + max(rectangle.im_min**2, rectangle.im_max**2))


def _radius_bound(h: WirtingerPolynomial, a: int, b: int, radius: Fraction) -> Fraction:
    """``derivative_bound`` with R, rounded up, given as ``radius``."""
    if a < 0 or b < 0:
        raise ValueError("derivative orders must be nonnegative")
    poly = h
    for d in (Direction.D,) * a + (Direction.DBAR,) * b:
        poly = poly.derivative(d)
    den_squared = poly.denominator**2
    return sum(
        (
            _sqrt_up(Fraction(re * re + im * im, den_squared)) * radius ** (p + q)
            for (p, q), (re, im) in poly.numerators.items()
        ),
        Fraction(0),
    )


def _scaled_bounds(
    h_polys: Sequence[WirtingerPolynomial], epsilon: Fraction, m_max: int, rectangle: CompactRectangle
) -> list[Fraction]:
    """(epsilon^m / m!) * derivative_bound for every h, every m <= m_max and a + b = m."""
    radius = _radius(rectangle)
    return [
        epsilon**m / math.factorial(m) * _radius_bound(h, a, m - a, radius)
        for h in h_polys
        for m in range(m_max + 1)
        for a in range(m + 1)
    ]


def estimate_certificate(
    f: WirtingerPolynomial,
    conn: Connection,
    j: int,
    rectangle: CompactRectangle,
) -> AnalyticityCertificate:
    """Candidate certificate for (f, conn, j) on the rectangle, not yet audited.

    The derivative-order cap is one past the largest total degree, where
    the vanishing tail makes the all-orders supremum finite.  Epsilon is
    fixed at 1/2; M is twice the largest scaled derivative bound, floored
    at 9/8 to stay above 1.  The caller decides the certificate with
    ``audit_certificate``.
    """
    h_polys = (
        f,
        conn.coefficient(j, Direction.D),
        conn.coefficient(j, Direction.DBAR),
    )
    m_max = 1 + max(h.total_degree() for h in h_polys)
    epsilon = Fraction(1, 2)
    M = max(_HEADROOM * max(_scaled_bounds(h_polys, epsilon, m_max, rectangle)), Fraction(9, 8))
    return AnalyticityCertificate(epsilon, M, delta_from(epsilon, M), m_max, rectangle, h_polys)


def audit_certificate(certificate: AnalyticityCertificate) -> bool:
    """Exact decision of the certificate inequality on the whole rectangle.

    Every scaled derivative bound, over every certified function, order
    m <= m_max and split a + b = m, must lie strictly below M.
    """
    return all(
        bound < certificate.M
        for bound in _scaled_bounds(
            certificate.h_polys, certificate.epsilon, certificate.m_max, certificate.rectangle
        )
    )


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


def _section_bound(
    graded: _Graded, radii: list[float], steps: Sequence[tuple] = (), grades: int | None = None
) -> tuple[list[float], list[tuple[float, list[float]]]]:
    """Per-grade weights of a graded coefficient, read at any lam = j+1 by ``_bounds_at``.

    The read bounds every grid value ``_section_sup`` can give
    ``graded.at(lam)``; a polynomial h is ``_Graded(h)``, grade 0.  ``radii``
    holds the powers 1, r, r^2, ... of r, the largest float |s| over the grid
    points, and is extended here as needed.  One pass over the T numerators
    (over den, largest p + q equal to d, largest grade K) gives
    w_k = sum |c_pqk| r^(p+q), c_pqk the coefficient of s^p sbar^q lam^k
    rounded part by part, scaled by the pad 1 + (2T + 9d + 3K + 7) eps and
    listed from grade ``grades`` - 1 (by default K) down.  A real c_pqk skips
    ``hypot``: C99 hypot(x, +-0) is |x|, so w_k is the same bit for bit.
    Each of ``steps`` adds what its children's parent read needs (below).

    Why the read b stays above the grid.  Let u = eps/2 and nu the smallest
    normal float.  Real operations round correctly: x(1 + delta) + eta with
    |delta| <= u, and |eta| <= u nu for products (eta = 0 for sums).  The C
    hypot behind numpy's complex abs, and ``math.hypot``, err by at most one
    ulp: 2u relative, or 2u nu absolute below nu.  A complex product, naive
    or fused, errs by at most 3u relative plus 3u nu absolute; a complex sum
    by at most u relative.  At lam the grid sums h = at(lam), of at most T
    terms and degree at most d; its c = sum_k lam^k c_pqk, rounded once per
    part, has |c| <= sum_k lam^k |c_pqk| by the triangle inequality, also
    where grades cancel at this lam (a cancelled term is absent from the grid
    and only adds to b).  A nonzero c, like each c_pqk, is a Gaussian integer
    over den, so |c| >= 1/den.  Suppose min(1, R)^d / den >= nu, R the
    largest true |s|.  Then every partial product of a grid term
    c s^p sbar^q has a bound >= nu, each absolute error is at most 3u of that
    bound, and with 1 + ku <= (1 - u)^-k the grid's |h(s)| is at most
    sum |c| R^(p+q) (1 - u)^-(6d + T + 4): u for rounding c, 6u per product,
    u per sum and 4u for abs.  On this side, with 1 - 2u >= (1 - u)^2, each
    |c_pqk| loses at most 3u (a division and hypot), r^n (1 - u)^(n-1), each
    product u, each weight's sum (1 - u)^(T-1) and the pad's product u;
    R <= r / (1 - 2u) adds (1 - u)^-2d.  Horner's rule in ``_bounds_at``
    works on positive terms and rounds lam once and each of its K steps
    above the top grade twice, (1 - u)^(3K); steps on a row's leading zeros
    are exact.  So the grid value is at most b over the pad times
    (1 - u)^-(2T + 9d + 3K + 7), and for N u <= 1/2 that power is at most
    1 + 2Nu = 1 + N eps, exact in floats.  Rounding is monotone, so the bound
    sqrt(b*b), taken as ``_section_sup`` takes it of |h(s)|^2, stays at or
    above the grid's own.

    The supposition is checked as min(1/den, r^d) >= 2^-510 in floats, r^d as
    ``radii`` holds it: the product of the two is then 4 nu, the 4 covering
    their roundings and R >= r / (1 + 2u).  A finite bound has b < 2^512, so
    every |c| <= b / min(1, r)^d < 2^1023 fits a float, as do the grid's
    powers and products.  Where the check fails or a part of some c_pqk does
    not fit a float, every weight is inf; where lam or b*b does not fit, the
    read is infinite: h is always evaluated.  Once the check passes every
    term adds a positive |c| r^n, so K is the last grade weighing above 0.

    The parent read.  A step (``_step``) is (|a|_r, #a, deg a, den(a)) for a
    multiplier a = A(d, 0) = sum a_ab s^a sbar^b, |a|_r being its own w_0.
    The child eta_d h + lam a h has at grade k the terms eta_d c_pqk s^p sbar^q,
    n_d c_pqk times a monomial of degree p + q - 1 (n_d is p along D, q along
    DBAR), and a_ab c_pq(k-1) s^(p+a) sbar^(q+b), so by the triangle
    inequality its weight at grade k, at R, is at most v_k + |a|_R W_(k-1):
    v_k = sum n_d |c_pqk| R^(p+q-1), W_k = sum |c_pqk| R^(p+q).  The same pass
    sums v_k in floats, n_d times |c_pqk| r^(p+q-1), and gives each step its
    pad and its v_k from the top grade down; ``_weighed`` makes the child's
    row (v_k + |a|_r w_(k-1)) times that pad, from grade K + 1 down, from the
    padded w_k (a larger input only raises the read: every term is positive
    and rounding is monotone).  The child has T' <= T (1 + #a) terms, degree
    at most D = d + deg a, top grade K + 1 and a denominator dividing
    den den(a); its pad 1 + (2T (1 + #a) + 9D + 3(K + 1) + 11) eps uses these
    bounds.

    Why that read stays above the child's grid.  The grid side is the
    child's own, (1 - u)^-(6D + T' + 4).  On this side w_(k-1) loses
    (1 - u)^(3d + T + 2) before its pad, as above, and |a|_r, made the same
    way, (1 - u)^(3 deg a + #a + 2); a term of v_k loses 3u for |c_pqk|,
    (1 - u)^(n-2) for r^(n-1), u for each of its two products and
    (1 - u)^(2n-2) for R, and its sum (1 - u)^(T-1), at most
    (1 - u)^(3d + T) in all.  The product by |a|_r, the sum with v_k and the
    pad take u each, and Horner's rule (1 - u)^(3(K + 1)): the read is at
    most (1 - u)^(3D + T + #a + 3(K + 1) + 7) below the exact sum.  As
    T + #a <= T' for T >= 1 (a zero parent has a zero child), the two sides
    come to at most N = 2T' + 9D + 3(K + 1) + 11, and (1 - u)^-N <= 1 + N eps.
    The supposition is checked as min(1/(den den(a)), r^D) >= 2^-510, r^D as
    ``radii`` holds it, which does not grow with n when r <= 1: the child's
    own check then holds, and every product on this side, |a|_r w_(k-1)
    included, stays at or above 4 nu.  A finite read again bounds every
    coefficient of the child below 2^1023.  Where the check fails, the
    parent's weights are infinite, or |a|_r times their sum is not below inf
    (which also catches 0 times inf), the pad is inf, the row reads inf and
    the child is built.
    """
    den, numerators = graded.denominator, graded.numerators
    if grades is None:
        grades = 1 + max((k for _, _, k in numerators), default=0)
    weights, degree = [0.0] * grades, 0
    slopes = ([0.0] * grades, [0.0] * grades) if steps else ()
    for (p, q, k), (re, im) in numerators.items():
        n = p + q
        if n > degree:
            degree = n
            while len(radii) <= n:
                radii.append(radii[-1] * radii[1])
        try:
            modulus = math.hypot(re / den, im / den) if im else abs(re / den)
        except OverflowError:
            return [math.inf] * grades, [(math.inf, [0.0] * grades)] * len(steps)
        weights[k] += modulus * radii[n]
        if steps and n:
            low = modulus * radii[n - 1]
            slopes[0][k] += p * low
            slopes[1][k] += q * low
    if min(1 / den, radii[degree]) < _RANGE_GUARD:
        return [math.inf] * grades, [(math.inf, [0.0] * grades)] * len(steps)
    top = grades - 1
    while top and not weights[top]:
        top -= 1
    eps, count, parts = sys.float_info.epsilon, len(numerators), []
    for (norm, size, lift, den_a), along in zip(steps, slopes):
        while len(radii) <= degree + lift:
            radii.append(radii[-1] * radii[1])
        if min(1 / (den * den_a), radii[degree + lift]) < _RANGE_GUARD or not norm * sum(weights) < math.inf:
            pad = math.inf
        else:
            pad = 1 + (2 * count * (1 + size) + 9 * (degree + lift) + 3 * (top + 1) + 11) * eps
        along.reverse()
        parts.append((pad, along))
    pad = 1 + (2 * count + 9 * degree + 3 * top + 7) * eps
    weights.reverse()
    return [w * pad for w in weights], parts


def _step(a: WirtingerPolynomial, radii: list[float]) -> tuple[float, int, int, int]:
    """A step of ``_section_bound``: the multiplier's weight |a|_r, term count, degree and denominator."""
    return _section_bound(_Graded(a), radii, (), 1)[0][0], len(a.numerators), max(a.total_degree(), 0), a.denominator


def _bounds_at(weights: np.ndarray, lam: int) -> list[float]:
    """Each row of weights read at lam by Horner's rule, squared and rooted as the grid's norm is."""
    try:
        x = float(lam)
    except OverflowError:
        return [math.inf] * len(weights)
    bounds = weights[:, 0]
    for column in weights.T[1:]:
        bounds = bounds * x + column
    return np.sqrt(bounds * bounds).tolist()


def _section_sup(h: WirtingerPolynomial, tables: PowerTables) -> float:
    """Vectorized grid max of |h|, the fiber norm of h*phi_j."""
    top = (np.abs(evaluate_on_grid(h, tables.points, tables)) ** 2).max()
    if not math.isfinite(top):
        raise OverflowError("the squared fiber norm of a section on the grid does not fit a float")
    return math.sqrt(top)


def _weighed(level: dict, m: int, radii: list[float], steps: Sequence = ()) -> tuple[np.ndarray, np.ndarray]:
    """The weights of a level of order m, one row each from grade m (the most m steps reach) down, and
    the parent reads of its children, row 2i + e for coefficient i stepped along the e-th step, from grade m + 1."""
    size = len(level)
    weights, slopes, pads = np.empty((size, m + 1)), np.empty((len(steps), size, m + 1)), np.empty((len(steps), size))
    for i, graded in enumerate(level):
        weights[i], parts = _section_bound(graded, radii, steps, m + 1)
        for e, (pad, along) in enumerate(parts):
            pads[e, i] = pad
            slopes[e, i] = along
    children = np.zeros((size, len(steps), m + 2))
    for e, (norm, *_) in enumerate(steps):
        rows = children[:, e]
        rows[:, :-1] = norm * weights
        rows[:, 1:] += slopes[e]
        rows *= pads[e][:, None]
        # an infinite pad marks a read that is inf, whatever 0 * inf gave
        rows[pads[e] == math.inf] = math.inf
    return weights, children.reshape(-1, m + 2)


# j's read of a level at lam = j+1: its grid maximum, the winning coefficient and its first sequence
_Read = Callable[[int], tuple[float, _Graded, tuple]]


def _reader(level: dict, weights: np.ndarray, tables: PowerTables, radii: list[float], a: dict | None = None) -> _Read:
    """The ``_Read`` of a level from its bound rows ``weights``, one per entry, shared by every index.

    Without ``a`` the entries are the coefficients of ``level``.  With the multipliers ``a`` they are
    the children of ``level``, row 2i + e for parent i stepped along the e-th direction as
    ``_children`` steps them, and a child's row is its parent's read of it (``_weighed``) until the
    child is built.  An index visits the entries in descending order of their reads at lam, ties
    (infinite reads first) to the least row, up to the first read below the largest grid value found,
    which no entry left could reach.  An unbuilt child is built when first visited, once for every
    index; its own weights replace its parent's read in ``weights`` and it is visited again at its own
    read.  Any other entry is evaluated.  Children are not merged: equal ones give bit-identical grid
    values, and every row attaining the maximum has its reads at or above it and is evaluated, so the
    least such row names the first sequence, as the merged level would.
    """
    graded, first = list(level), list(level.values())
    if a:
        parents, graded = graded, [None] * len(weights)

    def read(lam):
        queue = sorted(zip(_bounds_at(weights, lam), range(0, -len(weights), -1)))
        top, best = -math.inf, -1
        while queue and queue[-1][0] >= top:
            i = -queue.pop()[1]
            if graded[i] is None:
                d = _DIRECTIONS[i & 1]
                graded[i] = parents[i >> 1].twisted_derivative(d, a[d])
                weights[i] = _section_bound(graded[i], radii, (), weights.shape[1])[0]
                bisect.insort(queue, (_bounds_at(weights[i : i + 1], lam)[0], -i))
                continue
            sup = _section_sup(graded[i].at(lam), tables)
            # the least row attaining top has the first sequence attaining it
            if sup > top or (sup == top and i < best):
                top, best = sup, i
        return top, graded[best], (first[best >> 1] + (_DIRECTIONS[best & 1],) if a else first[best])

    return read


def _children(level: dict, multipliers: dict) -> dict:
    # parents in the order of their first sequences, so each child keeps its own first; level is
    # emptied and each parent dropped once stepped, so two whole levels are never held at once
    parents, children = list(level.items()), {}
    level.clear()
    for i, (h, dirs) in enumerate(parents):
        parents[i] = None
        for d, mu in multipliers.items():
            children.setdefault(h.twisted_derivative(d, mu), dirs + (d,))
    return children


def covariant_level_sups(
    conn: Connection,
    indices: Sequence[int],
    f: WirtingerPolynomial,
    rectangle: CompactRectangle,
    m_max: int,
    full_cap: int = 10,
) -> dict[int, list[LevelSup]]:
    """Per-order grid suprema of |iterated covariant derivative of f*phi_j| for each j in ``indices``.

    Levels up to ``full_cap`` enumerate all direction sequences; beyond,
    j's worst sequence is extended greedily, to the child with the larger
    supremum: a lower bound of the level maximum.  The first sequence, in
    ``direction_sequences`` order, attaining a level's largest grid value
    wins.  A value beyond the float range raises ``OverflowError`` at the
    first read that meets it: levels in order, each read by the indices in
    their given order.

    Every section is h*phi_j, and A(d, j) = (j+1) A(d, 0)
    (``TestIndexWeights::test_multiplier_is_linear_in_j_plus_one``), so one
    sweep of coefficients graded by lam = j+1 serves every j: a level maps
    each distinct one to the first sequence reaching it, each (parent,
    direction) takes one step eta_d + lam A(d, 0), and j reads the level at
    lam = j+1.  Equal coefficients give bit-identical grid values, so merging
    changes no result.  Each is weighted once for every j
    (``_section_bound``); j reads the weights at lam and builds only the
    coefficients ``_reader`` evaluates, best bound first.  The deepest
    exhaustive level, min(full_cap, m_max) when at least 1, is not built: its
    rows are first its parents' reads of its children (``_weighed``), and a
    child is built, once for every j, only when its row comes first and can
    still reach the level maximum.  On g = s*sbar with f = 1 the levels 0..9
    hold 628 distinct coefficients, not 1 023 per j, and the 274 of level 9
    leave 4 of their 548 children to build at level 10: 712 graded steps,
    and j = 0 evaluates 29 coefficients on the grid.  A greedy level is j's own:
    the graded children of j's graded winner, weighted and read at lam like
    every other level.
    """
    if full_cap < 0:
        raise ValueError(f"full_cap must be nonnegative, got {full_cap}")
    if any(j < 0 for j in indices):
        raise ValueError("basis index must be nonnegative")
    tables = PowerTables(rectangle.grid_points())
    radii = [1.0, float(np.abs(tables.points).max())]
    a = {d: conn.coefficient(0, d) for d in _DIRECTIONS}
    steps = [_step(h, radii) for h in a.values()]
    last = min(full_cap, m_max)
    sweeps = {j: [] for j in indices}
    winners: dict[int, _Graded] = {}
    level: dict = {_Graded(f): ()}
    # a squared norm beyond the float range becomes inf, which _section_sup reports
    with np.errstate(over="ignore"):
        for m in range(m_max + 1):
            if m > last:
                # past the cap the shared level is dropped and each index steps and weighs its own winner
                level.clear()
                readers = {}
                for j in indices:
                    own = _children({winners[j]: sweeps[j][-1].dirs}, a)
                    readers[j] = _reader(own, _weighed(own, m, radii)[0], tables, radii)
            elif m == last and m:
                # the deepest exhaustive level: its parents were weighed with steps one level up
                readers = dict.fromkeys(indices, _reader(level, children, tables, radii, a))
            else:
                level = _children(level, a) if m else level
                weights, children = _weighed(level, m, radii, steps if m + 1 == last else ())
                readers = dict.fromkeys(indices, _reader(level, weights, tables, radii))
            for j, read in readers.items():
                top, winners[j], dirs = read(j + 1)
                # a greedy level 1 still holds both sequences
                sweeps[j].append(LevelSup(m, top, dirs, exhaustive=m <= max(full_cap, 1)))
            readers.clear()
    return sweeps


def scaled_level_bound(certificate: AnalyticityCertificate, m: int) -> Fraction:
    """U_m: a proved bound of (delta^m / m!) |any m-fold covariant derivative of f*phi_j|.

    Equal to delta^m / m! * epsilon^-(m+1) * prod_{i=0..m} (M epsilon + i),
    the certified term bounds summed over every splitting of {1..m}.  With
    x = M epsilon = a/b that is M prod_{i=1..m} (a + i b) / (2^m m! (a + b)^m),
    built as one ``Fraction`` of two integer products.

    Lemma: U_m <= M (1/2)^m for every m and every certificate.  U_m is
    M (1/2)^m prod_{i=1..m} (x+i) / (i (1+x)), and x + i <= i (1 + x) holds
    exactly when (i-1) x >= 0, which it does for i >= 1 and x > 0.
    """
    M, x = certificate.M, certificate.M * certificate.epsilon
    a, b = x.numerator, x.denominator
    rising = math.prod(a + i * b for i in range(1, m + 1))
    return Fraction(M.numerator * rising, M.denominator * 2**m * math.factorial(m) * (a + b) ** m)


def _decay_bound(certificate: AnalyticityCertificate, m: int) -> Fraction:
    """(m+1) M (1/2)^m, the bound a decay row holds U_m to."""
    return (m + 1) * certificate.M * Fraction(1, 2) ** m


def decay_row(certificate: AnalyticityCertificate, m: int, sup: float) -> tuple[float, float, bool]:
    """Decay check of one level: (delta^m / m!) * sup against (m+1) M (1/2)^m.

    Returns the scaled supremum, the bound and the verdict, decided exactly:
    the scaled grid value (a lower bound of the level) must not exceed the
    proved U_m, and U_m must not exceed the bound.
    """
    scaled = float(certificate.delta**m / math.factorial(m)) * sup
    bound = _decay_bound(certificate, m)
    return scaled, float(bound), Fraction(scaled) <= scaled_level_bound(certificate, m) <= bound


def decay_witness(certificate: AnalyticityCertificate, m: int, scaled: float) -> dict:
    """What decided a failed decay row: its level, scaled value, U_m and bound as exact strings."""
    return {
        "m": m,
        "delta_scaled": scaled,
        "U_m": str(scaled_level_bound(certificate, m)),
        "decay_bound": str(_decay_bound(certificate, m)),
    }


def verify_term_type_bound(
    spl: Splitting,
    dirs: Sequence[Direction],
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
    certificate: AnalyticityCertificate,
) -> bool:
    """Exact check of one splitting term against its factorial bound.

    A term whose block-size composition is (l_1, ..., l_k) must not exceed
    M^k / epsilon^(m+1-k) * (l_1 - 1)! ... (l_k - 1)! on the whole certified
    rectangle; the term's ``derivative_bound`` decides it.
    """
    k = spl.num_blocks
    weight = math.prod(math.factorial(part - 1) for part in spl.term_type())
    bound = certificate.M**k * weight / certificate.epsilon ** (spl.m + 1 - k)
    return derivative_bound(splitting_term(spl, dirs, conn, j, f), 0, 0, certificate.rectangle) <= bound
