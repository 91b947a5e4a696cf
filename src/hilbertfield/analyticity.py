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
bound, so ``audit_certificate`` is an exact decision; a run shares one
table of these bounds (``bounds=``), so the audit reads the estimate's.

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
sweep per run serves every f and j.  It merges equal coefficients, weights each
once by grade (|sum_k lam^k c_k| <= sum_k lam^k |c_k|), and evaluates on the
grid only those whose float bound read at lam can reach the level maximum,
so its values are the full sweep's, bit for bit.  The last three exhaustive
levels are never built whole: the derivative moments of the level above
them bound every node up to three steps down, and a node is built only when
a row through it comes first and can still reach its level maximum; its own
moments then bound the rows below it.
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

_EPS = sys.float_info.epsilon

# the last _DEPTH exhaustive levels are read from the derivative moments of the level above them.
# Three: two builds one more level whole for no time gained on the default model, and four is
# slower (its reads from further up are looser) and needs the binomial 3, inexact in floats
_DEPTH = 3

# (i, j) of each moment D^i Dbar^j by order i + j, so the first _count(n) are those of order at most n
_MOMENTS = [(i, n - i) for n in range(_DEPTH + 1) for i in range(n, -1, -1)]


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
    h_polys: Sequence[WirtingerPolynomial],
    epsilon: Fraction,
    m_max: int,
    rectangle: CompactRectangle,
    bounds: dict | None,
) -> list[Fraction]:
    """(epsilon^m / m!) * derivative_bound for every h, every m <= m_max and a + b = m.

    Each is computed once into ``bounds`` (a fresh dict if None), keyed on (h, a, b, epsilon, R),
    and read from it after.
    """
    radius, bounds = _radius(rectangle), {} if bounds is None else bounds
    out = []
    for h in h_polys:
        for m in range(m_max + 1):
            for a in range(m + 1):
                key = (h, a, m - a, epsilon, radius)
                bound = bounds.get(key)
                if bound is None:
                    bound = bounds[key] = epsilon**m / math.factorial(m) * _radius_bound(h, a, m - a, radius)
                out.append(bound)
    return out


def estimate_certificate(
    f: WirtingerPolynomial,
    conn: Connection,
    j: int,
    rectangle: CompactRectangle,
    *,
    bounds: dict | None = None,
) -> AnalyticityCertificate:
    """Candidate certificate for (f, conn, j) on the rectangle, not yet audited.

    The derivative-order cap is one past the largest total degree, where
    the vanishing tail makes the all-orders supremum finite.  Epsilon is
    fixed at 1/2; M is twice the largest scaled derivative bound, floored
    at 9/8 to stay above 1.  The caller decides the certificate with
    ``audit_certificate``.  ``bounds``, a dict shared by the calls of one
    run, keeps every exact bound computed for the later calls: the
    functions of a run share each index's multipliers, and the audit reads
    the estimate's bounds.  A fresh one is used when omitted.
    """
    h_polys = (
        f,
        conn.coefficient(j, Direction.D),
        conn.coefficient(j, Direction.DBAR),
    )
    m_max = 1 + max(h.total_degree() for h in h_polys)
    epsilon = Fraction(1, 2)
    M = max(_HEADROOM * max(_scaled_bounds(h_polys, epsilon, m_max, rectangle, bounds)), Fraction(9, 8))
    return AnalyticityCertificate(epsilon, M, delta_from(epsilon, M), m_max, rectangle, h_polys)


def audit_certificate(certificate: AnalyticityCertificate, *, bounds: dict | None = None) -> bool:
    """Exact decision of the certificate inequality on the whole rectangle.

    Every scaled derivative bound, over every certified function, order
    m <= m_max and split a + b = m, must lie strictly below M.  ``bounds``
    is as for :func:`estimate_certificate`: it holds exact bounds, so the
    decision stays exact.
    """
    return all(
        bound < certificate.M
        for bound in _scaled_bounds(
            certificate.h_polys, certificate.epsilon, certificate.m_max, certificate.rectangle, bounds
        )
    )


@dataclass(frozen=True)
class LevelSup:
    """Largest fiber norm of an m-fold covariant derivative over the sweep.

    ``dirs`` attains the maximum.  A level past ``full_cap`` of
    :func:`covariant_level_sups` extends a single greedily chosen sequence.
    """

    m: int
    sup: float
    dirs: tuple[Direction, ...]


def _count(order: int) -> int:
    """The number of moments of order at most ``order``: the first this many of ``_MOMENTS``."""
    return (order + 1) * (order + 2) // 2


def _section_bound(
    graded: _Graded,
    radii: list[float],
    step: tuple = (0, 0, 1),
    order: int = 0,
    grades: int | None = None,
    terms: list | None = None,
) -> tuple[list[list[float]], list[float]]:
    """Derivative moments of a graded coefficient to ``order``, and the pads of its reads at each distance.

    A polynomial h is ``_Graded(h)``, grade 0.  ``radii`` holds the powers 1, r, r^2, ... of r, the
    largest float |s| over the grid points, and is extended here as needed.  One pass over the T
    numerators (over den, largest p + q equal to d, largest grade K) gives for each (i, j) of
    ``_MOMENTS`` of order at most ``order`` the row M_(i,j),k = sum p^(i) q^(j) |c_pqk| r^(p+q-i-j),
    grades 0 to ``grades`` - 1 (by default K): c_pqk is the coefficient of s^p sbar^q lam^k rounded
    part by part, p^(i) the falling factorial.  M_(0,0) is the weight row w; a real c_pqk skips
    ``hypot``: C99 hypot(x, +-0) is |x|, so w is the same bit for bit.  With ``terms`` only w is
    summed, and each term's k, p, q and |c_pqk| go to ``terms`` for ``_higher_moments``.
    ``pads[t]`` pads a read t steps down (``_descend``); ``step`` is ``_Steps.step``.

    Why a read b stays above the grid.  Let u = eps/2 and nu the smallest normal float.  Lemma: a
    float made from nonnegative floats by correctly rounded sums and products, fused or not, each
    product 0 or at least nu, is at least (1 - u)^L times the exact value of the same expression, L
    its depth: an input at least (1 - u)^l times its exact value has depth l, and an inexact
    operation adds 1 to the largest depth of a sum's operands or to the sum of a product's
    (induction, with fl(x) >= x(1 - u) and 1 - 2u >= (1 - u)^2).  Every read is such a float.
    |c_pqk| has depth 3 (a division and a hypot within one ulp), r^n depth n - 1, a term of M depth
    d + 4 and M depth d + T + 3 (w: d + T + 2).  A step eta_d + lam a maps grade k of h to
    eta_d G_k + a G_(k-1), so by Leibniz and |f g|_R <= |f|_R |g|_R, |h|_R = sum |c| R^(p+q), the
    child's moments at R are at most M_((i,j)+e_d),k + sum C(i,i') C(j,j') |eta^(i-i',j-j') a|_R M_(i',j'),k-1.
    An entry of one step's map (``_Steps``) is 0, 1 or C |eta^b a|_r, of depth deg a + #a + 3 as
    C <= 2 is exact; an entry of a product of maps sums at most 7 nonzero products (a parent moment
    feeds one child moment at its grade and at most 6 one grade up), so the map t steps down has
    depth at most t (deg a + #a + 10).  A read t >= 1 steps down sums at most 40 products of M and
    that map per grade (10 moments, t + 1 grades): depth d + T + 43 + t (deg a + #a + 10); its pad
    adds 1 and Horner's rule in ``_bounds_at``, rounding lam once and each step above the top twice,
    3(K + t).  The node there has T' <= T (1 + #a)^t terms, degree d' <= d + t deg a, top grade
    K + t and a denominator dividing den den(a)^t.  The grid sums h = at(lam), whose
    c = sum_k lam^k c_pqk has |c| <= sum_k lam^k |c_pqk| (a term cancelled at this lam only adds to
    b) and, if nonzero, |c| >= 1/(den den(a)^t).  Suppose min(1, R)^d' / (den den(a)^t) >= nu, R the
    largest true |s|: every partial product of a grid term has a bound >= nu, each absolute error is
    at most 3u of it, and the grid's |h(s)| is at most sum |c| R^(p+q) (1 - u)^-(6d' + T' + 4): u for
    rounding c, 6u per product (3u relative plus 3u nu absolute for a complex one), u per sum and 4u
    for abs.  R <= r / (1 - 2u) adds (1 - u)^-2d'.  Both sides come to
    N = 2T' + 9d' + 3(K + t) + 7 + t (deg a + #a + 51), and for N u <= 1/2, (1 - u)^-N <= 1 + 2Nu
    = 1 + N eps, exact in floats.  Rounding is monotone, so sqrt(b*b), taken as ``_section_sup``
    takes it of |h(s)|^2, stays at or above the grid's own.

    The supposition is checked as min(1/(den den(a)^t), r^(d + t deg a)) >= 2^-510 in floats, r^n
    as ``radii`` holds it: every nonzero product on either side is then at least their product,
    4 nu, the 4 covering roundings and R >= r / (1 + 2u).  A finite read has b < 2^512, so every
    |c| <= b / min(1, r)^d' < 2^1023 fits a float, as do the grid's powers and products.  Where the
    check fails the pad is inf, and where a part of some c_pqk does not fit a float every moment is:
    such a read, one through a map that does not fit and one where lam or b*b does not fit are inf
    (``_finite``, ``_descend``, ``_bounds_at``), and h is always evaluated.
    """
    den, numerators, perm = graded.denominator, graded.numerators, math.perm
    if grades is None:
        grades = 1 + max((k for _, _, k in numerators), default=0)
    weights, degree, top = [0.0] * grades, 0, 0
    higher = [] if terms is not None else [([0.0] * grades, i, j, i + j) for i, j in _MOMENTS[1 : _count(order)]]
    for (p, q, k), (re, im) in numerators.items():
        n = p + q
        if n > degree:
            degree = n
            while len(radii) <= n:
                radii.append(radii[-1] * radii[1])
        if k > top:
            top = k
        try:
            modulus = math.hypot(re / den, im / den) if im else abs(re / den)
        except OverflowError:
            return [[math.inf] * grades] * (1 + len(higher)), [math.inf] * (order + 1)
        weights[k] += modulus * radii[n]
        if terms is not None:
            terms += k, p, q, modulus
        for row, i, j, shift in higher:
            if i <= p and j <= q:
                row[k] += perm(p, i) * perm(q, j) * modulus * radii[n - shift]
    size, lift, den_a = step
    pads = []
    for t in range(order + 1):
        reach = degree + t * lift
        while len(radii) <= reach:
            radii.append(radii[-1] * radii[1])
        if min(1 / (den * den_a**t), radii[reach]) < _RANGE_GUARD:
            pads.append(math.inf)
        else:
            count = len(numerators) * (1 + size) ** t
            pads.append(1 + (2 * count + 9 * reach + 3 * (top + t) + 7 + t * (lift + size + 51)) * _EPS)
    return [weights, *(row for row, *_ in higher)], pads


def _higher_moments(weights: np.ndarray, terms: list, ends: list[int], radii: list[float], order: int) -> np.ndarray:
    """A level's moments to ``order`` from its ``weights`` (N, 1, grades) and ``terms`` from
    ``_section_bound``, those of coefficient x ending at ``ends[x]``: the same sums, term by term."""
    k, p, q, modulus = np.array(terms, dtype=float).reshape(-1, 4).T
    x = np.arange(len(ends)).repeat(np.diff(ends, prepend=0))
    count, grades = _count(order), weights.shape[2]
    i, j = np.array(_MOMENTS[1:count]).T
    falling = [[np.ones_like(p)], [np.ones_like(q)]]
    for s in range(order):
        for rows, n in zip(falling, (p, q)):
            rows.append(rows[-1] * (n - s))
    scale = np.array(falling[0])[i] * np.array(falling[1])[j]
    # the moment and the term of each product that is not 0, moments first, terms in order
    row, term = np.nonzero(scale)
    values = scale[row, term] * modulus[term] * np.array(radii)[(p + q)[term].astype(int) - (i + j)[row]]
    cells = (x[term] * (count - 1) + row) * grades + k[term].astype(int)
    higher = np.bincount(cells, weights=values, minlength=len(weights) * (count - 1) * grades)
    return np.concatenate([weights, higher.reshape(len(weights), count - 1, grades)], axis=1)


class _Steps:
    """The steps eta_d + lam a_d, a_d = A(d, 0), as maps of moments flattened moment by moment.

    Order-n moments over some grades give the child's of order n - 1: its (i, j) is the parent's
    (i, j) + e_d and, one grade up, the sum of C(i,i') C(j,j') |eta^(i-i',j-j') a_d|_r times the
    parent's (i', j').  ``step`` is (#a, deg a, den(a)), each the larger of the two directions.
    """

    def __init__(self, a: dict, radii: list[float]):
        norms = [_section_bound(_Graded(h), radii, (0, 0, 1), _DEPTH - 1, 1)[0] for h in a.values()]
        self.a, self.radii, self.maps, self.operators = a, radii, {}, {}
        for n in range(1, _DEPTH + 1):
            below, above = _MOMENTS[: _count(n - 1)], _MOMENTS[: _count(n)]
            select, lift = np.zeros((2, len(above), len(below))), np.zeros((2, len(above), len(below)))
            for e, norm in enumerate(norms):
                for row, (i, j) in enumerate(below):
                    select[e, _MOMENTS.index((i + 1 - e, j + e)), row] = 1
                    for column, (i2, j2) in enumerate(above[: _count(i + j)]):
                        if i2 <= i and j2 <= j:
                            binomial = math.comb(i, i2) * math.comb(j, j2)
                            lift[e, column, row] = binomial * norm[_MOMENTS.index((i - i2, j - j2))][0]
            self.maps[n] = select, lift
        a = list(a.values())
        self.step = (
            max(len(h.numerators) for h in a), max(max(h.total_degree(), 0) for h in a), max(h.denominator for h in a)
        )

    def operator(self, path: tuple, grades: int) -> np.ndarray | None:
        """The map from moments of order len(path) over ``grades`` grades to the weights ``path`` steps down.

        Each step is a direction's index, or None for both, D first; None where an entry does not fit a float.
        """
        if (path, grades) not in self.operators:
            if path[0] is None:
                parts = [self.operator((e, *path[1:]), grades) for e in (0, 1)]
                operator = None if any(part is None for part in parts) else np.hstack(parts)
            else:
                select, lift = (part[path[0]] for part in self.maps[len(path)])
                # axes: the parent's moment and grade, the child's moment and grade
                operator, grade = np.zeros((len(select), grades, select.shape[1], grades + 1)), np.arange(grades)
                operator[:, grade, :, grade] = select
                operator[:, grade, :, grade + 1] = lift
                operator = operator.reshape(len(select) * grades, -1)
                if len(path) > 1 and np.isfinite(operator).all():
                    rest = self.operator(path[1:], grades + 1)
                    operator = None if rest is None else operator @ rest
            self.operators[path, grades] = operator if operator is not None and np.isfinite(operator).all() else None
        return self.operators[path, grades]


def _finite(moments: np.ndarray, pads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moments and pads of N coefficients, one whose moments do not all fit a float zeroed with
    infinite pads: no product meets 0 * inf, and every read of it is inf."""
    if not moments.max() < math.inf:
        lost = ~np.isfinite(moments).all(axis=(1, 2))
        moments[lost], pads[lost] = 0.0, math.inf
    return moments, pads


def _descend(moments: np.ndarray, pads: np.ndarray, steps: _Steps, path: tuple) -> np.ndarray:
    """Padded weight rows, from the top grade down, of the nodes ``path`` steps below N coefficients.

    ``moments`` (N, ``_count(len(path))``, grades) and ``pads``, their pads at that distance, are
    ``_finite``'s; each None in ``path`` doubles the rows, row 2i + e stepping row i along the e-th
    direction.  A row reads inf where its pad or the map does not fit a float, or the product.
    """
    rows = moments[:, 0]
    if path:
        operator = steps.operator(path, moments.shape[2])
        if operator is None:
            return np.full((len(moments) << path.count(None), moments.shape[2] + len(path)), math.inf)
        rows = (moments.reshape(len(moments), -1) @ operator).reshape(-1, moments.shape[2] + len(path))
    pads = pads.repeat(len(rows) // len(pads))[:, None]
    return np.multiply(rows[:, ::-1], pads, out=np.full(rows.shape, math.inf), where=pads < math.inf)


def _bounds_at(weights: np.ndarray, lam: int) -> list[float]:
    """Each row of weights read at lam by Horner's rule, squared and rooted as the grid's norm is."""
    try:
        x = float(lam)
    except OverflowError:
        return [math.inf] * len(weights)
    if len(weights) == 1:
        # one row in floats: the same operations, so the same bits, without numpy's per-call cost
        bound, *rest = weights[0].tolist()
        for column in rest:
            bound = bound * x + column
        return [math.sqrt(bound * bound)]
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


class _Tree:
    """A built level of order m, the base, and the nodes up to ``depth`` steps below it, built on demand.

    Node (u, p), u steps down, is base coefficient p >> u stepped along the u low bits of p, highest
    first, bit 0 for D: the rows p of a level are in the order of their first sequences.  A node keeps
    its moments to order ``depth`` - u and their pads.
    """

    def __init__(self, level: dict, m: int, depth: int, steps: _Steps):
        self.first, self.m, self.depth, self.steps = list(level.values()), m, depth, steps
        terms, parts, ends, radii = [] if depth else None, [], [], steps.radii
        for graded in level:
            parts.append(_section_bound(graded, radii, steps.step, depth, m + 1, terms))
            ends.append(len(terms or ()) // 4)
        moments, pads = np.array([moments for moments, _ in parts]), np.array([pads for _, pads in parts])
        if depth:
            moments = _higher_moments(moments, terms, ends, radii, depth)
        self.moments, self.pads = _finite(moments, pads)
        self.nodes = {(0, i): (graded, self.moments[i], self.pads[i]) for i, graded in enumerate(level)}

    def rows(self, t: int) -> tuple[np.ndarray, list[int]]:
        """The rows of the level t steps down, read from the deepest node built on each path, and their steps to go."""
        rows = _descend(self.moments[:, : _count(t)], self.pads[:, t], self.steps, (None,) * t)
        togo = [t] * len(rows)
        for u in range(1, t):
            built = [p for v, p in self.nodes if v == u]
            if built:
                nodes = [self.nodes[u, p] for p in built]
                moments = np.array([moments[: _count(t - u)] for _, moments, _ in nodes])
                index = ((np.array(built)[:, None] << (t - u)) + np.arange(1 << (t - u))).ravel()
                pads = np.array([pads[t - u] for *_, pads in nodes])
                rows[index] = _descend(moments, pads, self.steps, (None,) * (t - u))
                for r in index.tolist():
                    togo[r] = t - u
        return rows, togo

    def node(self, u: int, p: int) -> tuple:
        """Node (u, p): its coefficient, moments and pads, built from its parent on first call."""
        if (u, p) not in self.nodes:
            d = _DIRECTIONS[p & 1]
            graded = self.node(u - 1, p >> 1)[0].twisted_derivative(d, self.steps.a[d])
            moments, pads = _section_bound(graded, self.steps.radii, self.steps.step, self.depth - u, self.m + u + 1)
            moments, pads = _finite(np.array([moments]), np.array([pads]))
            self.nodes[u, p] = graded, moments[0], pads[0]
        return self.nodes[u, p]

    def read(self, u: int, r: int, t: int) -> np.ndarray:
        """Row r of the level t steps down, read from the node u steps down on its path as ``_descend`` reads
        it, without its per-call array costs: a sweep rereads hundreds of single rows."""
        _, moments, pads = self.node(u, r >> (t - u))
        togo, grades = t - u, moments.shape[1]
        operator = self.steps.operator(tuple((r >> s) & 1 for s in reversed(range(togo))), grades) if togo else 1.0
        if operator is None or not pads[togo] < math.inf:
            return np.full(grades + togo, math.inf)
        return (moments[: _count(togo)].reshape(-1) @ operator if togo else moments[0])[::-1] * pads[togo]


# j's read of a level at lam = j+1: its grid maximum, the winning coefficient and its first sequence
_Read = Callable[[int], tuple[float, _Graded, tuple]]


def _reader(tree: _Tree, t: int, tables: PowerTables) -> _Read:
    """The ``_Read`` of the level t steps below ``tree``'s base, shared by every index.

    Row r is the node (t, r).  An index visits the rows in descending order of their reads at lam,
    ties (infinite reads first) to the least row, up to the first read below the largest grid value
    found, which no row left could reach: one queue, sorted by (read, -row), hands out the next row
    from its end.  A row read from a node above its own is read again, for every index, from the
    next node on its path, built once, and put back in the queue at its new read; a row read from
    its own node's weights is evaluated.  Rows are not merged: equal nodes give bit-identical grid
    values, and every row attaining the maximum is evaluated, so the least such row names the first
    sequence, as the merged level would.
    """
    rows, togo = tree.rows(t)

    def read(lam):
        # the rows left, ascending by read and then descending by row: the next one is the last
        reads = _bounds_at(rows, lam)
        queue = sorted(reversed(range(len(reads))), key=reads.__getitem__)
        top, best = -math.inf, -1
        while queue:
            r = queue.pop()
            if reads[r] < top:
                break
            if togo[r]:
                togo[r] -= 1
                rows[r] = tree.read(t - togo[r], r, t)
                reads[r] = _bounds_at(rows[r : r + 1], lam)[0]
                bisect.insort(queue, r, key=lambda x: (reads[x], -x))
                continue
            sup = _section_sup(tree.node(t, r)[0].at(lam), tables)
            # the least row attaining top has the first sequence attaining it
            if sup > top or (sup == top and r < best):
                top, best = sup, r
        steps = tuple(_DIRECTIONS[(best >> s) & 1] for s in reversed(range(t)))
        return top, tree.node(t, best)[0], tree.first[best >> t] + steps

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
    functions: Sequence[WirtingerPolynomial],
    rectangle: CompactRectangle,
    m_max: int,
    full_cap: int,
) -> list[dict[int, list[LevelSup]]]:
    """Per-order grid suprema of |iterated covariant derivative of f*phi_j|: one ``{j: levels}`` per f.

    Levels up to ``full_cap`` enumerate all direction sequences; beyond,
    j's worst sequence is extended greedily, to the child with the larger
    supremum: a lower bound of the level maximum.  The first sequence, in
    ``direction_sequences`` order, attaining a level's largest grid value
    wins.  A value beyond the float range raises ``OverflowError`` at the
    first read that meets it: functions in their given order, levels in
    order, each read by the indices in their given order.

    Every section is h*phi_j, and A(d, j) = (j+1) A(d, 0)
    (``TestIndexWeights::test_multiplier_is_linear_in_j_plus_one``), so one
    sweep of coefficients graded by lam = j+1 serves every j: a level maps each
    distinct one to the first sequence reaching it, each (parent, direction)
    takes one step eta_d + lam A(d, 0), and j reads the level at lam = j+1; the
    functions share the grid and the steps (``_Steps``), so one sweep per run
    serves every function and every j.  Equal coefficients give bit-identical
    grid values, so merging changes no result.  Each is weighted once for every
    j (``_section_bound``); j reads the weights at lam and builds only the
    coefficients ``_reader`` evaluates, best bound first.  The last ``_DEPTH``
    exhaustive levels are not built whole: their base, the level above them or
    the root, bounds every node up to ``_DEPTH`` steps down from its derivative
    moments (``_descend``), and a node is built, once for every j, only when a
    row through it comes first and can still reach its level maximum.  On
    g = s*sbar with f = 1 the levels 0..7 hold 198 distinct coefficients, not
    255 per j; the 90 of level 7 bound the 720 rows of level 10, the sweep
    takes 216 whole-level and 24 on-demand graded steps, and j = 0 evaluates
    29 coefficients on the grid.  A greedy level is j's own: the graded
    children of j's graded winner, weighted and read at lam like every other
    level.
    """
    if full_cap < 0:
        raise ValueError(f"full_cap must be nonnegative, got {full_cap}")
    if any(j < 0 for j in indices):
        raise ValueError("basis index must be nonnegative")
    tables = PowerTables(rectangle.grid_points())
    steps = _Steps({d: conn.coefficient(0, d) for d in _DIRECTIONS}, [1.0, float(np.abs(tables.points).max())])
    last = min(full_cap, m_max)
    base = max(last - _DEPTH, 0)
    runs = []
    # a squared norm beyond the float range becomes inf, which _section_sup reports
    with np.errstate(over="ignore"):
        for f in functions:
            sweeps = {j: [] for j in indices}
            winners: dict[int, _Graded] = {}
            level: dict = {_Graded(f): ()}
            for m in range(m_max + 1):
                if m > last:
                    # past the cap the shared levels are dropped and each index steps and weighs its own winner
                    level.clear()
                    tree, readers = None, {}
                    for j in indices:
                        own = _children({winners[j]: sweeps[j][-1].dirs}, steps.a)
                        readers[j] = _reader(_Tree(own, m, 0, steps), 0, tables)
                elif m > base:
                    readers = dict.fromkeys(indices, _reader(tree, m - base, tables))
                else:
                    # the previous level's tree goes before its children are made
                    tree = None
                    level = _children(level, steps.a) if m else level
                    tree = _Tree(level, m, last - base if m == base else 0, steps)
                    readers = dict.fromkeys(indices, _reader(tree, 0, tables))
                for j, read in readers.items():
                    top, winners[j], dirs = read(j + 1)
                    sweeps[j].append(LevelSup(m, top, dirs))
                readers.clear()
            runs.append(sweeps)
    return runs


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


def _level_bound(certificate: AnalyticityCertificate, m: int, bounds: dict | None) -> Fraction:
    """``scaled_level_bound``, computed once into ``bounds`` (a fresh dict if None), keyed on (M, epsilon, m)."""
    bounds = {} if bounds is None else bounds
    key = (certificate.M, certificate.epsilon, m)
    bound = bounds.get(key)
    if bound is None:
        bound = bounds[key] = scaled_level_bound(certificate, m)
    return bound


def _decay_bound(certificate: AnalyticityCertificate, m: int) -> Fraction:
    """(m+1) M (1/2)^m, the bound a decay row holds U_m to."""
    return (m + 1) * certificate.M * Fraction(1, 2) ** m


def decay_row(
    certificate: AnalyticityCertificate, m: int, sup: float, *, bounds: dict | None = None
) -> tuple[float, float, bool]:
    """Decay check of one level: (delta^m / m!) * sup against (m+1) M (1/2)^m.

    Returns the scaled supremum, the bound and the verdict, decided exactly:
    the scaled grid value (a lower bound of the level) must not exceed the
    proved U_m, and U_m must not exceed the bound.  ``bounds`` is as for
    :func:`estimate_certificate`, and keeps each U_m for the later rows.
    """
    scaled = float(certificate.delta**m / math.factorial(m)) * sup
    bound = _decay_bound(certificate, m)
    return scaled, float(bound), Fraction(scaled) <= _level_bound(certificate, m, bounds) <= bound


def decay_witness(
    certificate: AnalyticityCertificate, m: int, scaled: float, *, bounds: dict | None = None
) -> dict:
    """What decided a failed decay row: its level, scaled value, U_m and bound as exact strings."""
    return {
        "m": m,
        "delta_scaled": scaled,
        "U_m": str(_level_bound(certificate, m, bounds)),
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
