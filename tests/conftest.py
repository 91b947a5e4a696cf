"""Shared hypothesis strategies for the model's exact objects, and closed-form and brute-force oracles."""

import itertools
import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np

from hilbertfield import (
    Connection,
    Direction,
    FieldSection,
    GaussianRational,
    Splitting,
    WirtingerPolynomial,
)
from hilbertfield.analyticity import _descend, _finite, _section_bound

# every fraction in [-4, 4] with denominator at most 6, built from two integers:
# st.fractions draws the same values at several times the cost
rationals = st.integers(1, 6).flatmap(lambda d: st.integers(-4 * d, 4 * d).map(lambda n: Fraction(n, d)))

coefficients = st.builds(GaussianRational, rationals, rationals)

# total degree <= 4, a handful of terms
exponent_pairs = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
    lambda pq: pq[0] + pq[1] <= 4
)

polynomials = st.dictionaries(exponent_pairs, coefficients, max_size=4).map(WirtingerPolynomial)


@st.composite
def real_polynomials(draw):
    """Real-valued polynomials, built as p + conj(p)."""
    p = draw(polynomials)
    return p + p.conjugate()


directions = st.sampled_from([Direction.D, Direction.DBAR])

sections = st.dictionaries(st.integers(0, 6), polynomials, max_size=3).map(FieldSection)

connections = polynomials.map(lambda k: Connection(k=k))

# rational inputs as a caller writes them: ints, Fractions and unreduced strings such as "2/4"
small_ints = st.integers(-12, 12)
raw_rationals = st.one_of(
    small_ints,
    st.builds(Fraction, small_ints, st.integers(1, 12)),
    st.builds("{}/{}".format, small_ints, st.integers(1, 12)),
)
# (exponent pair, re, im or None for a real coefficient); repeated pairs add up
raw_records = st.lists(
    st.tuples(exponent_pairs, raw_rationals, st.one_of(st.none(), raw_rationals)), max_size=5
)
gaussian_points = st.builds(GaussianRational, raw_rationals, raw_rationals)


def from_records(records) -> WirtingerPolynomial:
    return WirtingerPolynomial(
        [(key, re if im is None else GaussianRational(re, im)) for key, re, im in records]
    )


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind by inclusion-exclusion."""
    total = sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))
    return total // math.factorial(k)


def brute_force_splittings(m: int, k: int) -> tuple[Splitting, ...]:
    """Independent validator: filter raw marker/block assignments by the invariants.

    Chooses every possible marker set, then every assignment of the
    remaining elements to the k blocks, keeping the assignments where each
    constrained block only receives elements above its marker.  Shares no
    code with ``hilbertfield.all_splittings``.
    """
    if m < 0:
        raise ValueError("ground-set size must be nonnegative")
    if k < 1 or k > m + 1:
        return ()
    universe = range(1, m + 1)
    found: list[Splitting] = []
    for marker_set in itertools.combinations(universe, k - 1):
        markers = tuple(sorted(marker_set, reverse=True))
        rest = [e for e in universe if e not in marker_set]
        for assignment in itertools.product(range(k), repeat=len(rest)):
            blocks: list[list[int]] = [[] for _ in range(k)]
            valid = True
            for element, position in zip(rest, assignment):
                if position < k - 1 and element <= markers[position]:
                    valid = False
                    break
                blocks[position].append(element)
            if valid:
                found.append(Splitting(m, tuple(tuple(b) for b in blocks), markers))
    return tuple(found)


def own_rows(graded, radii):
    """A coefficient's padded weight row, top grade first, as the analyticity sweep reads it from its own weights."""
    moments, pads = _section_bound(graded, radii)
    moments, pads = _finite(np.array([moments]), np.array([pads]))
    return _descend(moments, pads[:, 0], None, ())
