"""Splitting combinatorics behind the iterated covariant derivative expansion.

Applying m covariant derivatives along directions eta_1, ..., eta_m to a
section f*phi_j unfolds, by the product rule, into a sum of products
indexed by the following combinatorial structure on {1, ..., m}: ordered,
possibly empty blocks I_1, ..., I_k together with strictly decreasing
markers i_1 > ... > i_{k-1}, pairwise disjoint, jointly exhausting
{1, ..., m}, with every element of I_a larger than i_a for a < k.  We call
this a splitting into k blocks.  The unique splitting of the empty ground
set has a single empty block and no markers.

Each splitting contributes the product

    (eta_{I_1} a_{i_1}) * ... * (eta_{I_{k-1}} a_{i_{k-1}}) * eta_{I_k} f

where a_i is the connection multiplier picked up along eta_i and eta_I
applies the derivatives with indices in I (decreasing order; they commute,
the order is fixed for determinism).  Summing over all splittings of all
sizes reproduces the iterated covariant derivative exactly; the recursion
that proves it splits the structures on {1, ..., m+1} into those whose
blocks miss m+1 (so m+1 is the leading marker: "type 1", in bijection with
splittings of {1, ..., m} into one block fewer) and those whose blocks
contain m+1 ("type 2", a k-to-1 cover of the splittings of {1, ..., m}
obtained by dropping m+1).  Both correspondences are verified here by
explicit construction, and the enumerator is cross-checked against a
brute-force generator that filters raw assignments by the invariants.

The expansion sums walk the same growth tree depth first and cut every
branch in which a factor vanishes.  Whether eta_I x vanishes is read off
the support of x alone, so the expansion route never consults the direct
route (``Connection.iterated``); on the default model only about 6 % of
the level-6 terms are nonzero.  Leaves whose terms are equal for a
structural reason (the same factors up to order) share one product.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .field import Connection, FieldSection
from .symbolic import Direction, WirtingerPolynomial, json_int

__all__ = [
    "Splitting",
    "SplittingKind",
    "CorrespondenceError",
    "enumerate_splittings",
    "all_splittings",
    "brute_force_splittings",
    "count_splittings",
    "classify",
    "type1_bijection",
    "type2_correspondence",
    "splitting_term",
    "splitting_expansion",
    "verify_expansion_identity",
    "identity_witness",
    "check_splitting_recursion",
]


class CorrespondenceError(RuntimeError):
    """A claimed splitting correspondence failed to verify."""


class SplittingKind(enum.Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"


@dataclass(frozen=True)
class Splitting:
    """A splitting of {1, ..., m} into ordered blocks plus decreasing markers.

    ``blocks`` holds k tuples (sorted ascending, possibly empty) and
    ``markers`` the k-1 strictly decreasing marker indices.  Validity is
    checked on construction.
    """

    m: int
    blocks: tuple[tuple[int, ...], ...]
    markers: tuple[int, ...]

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("ground-set size must be nonnegative")
        if not self.blocks:
            raise ValueError("a splitting needs at least one block")
        if len(self.markers) != len(self.blocks) - 1:
            raise ValueError("need exactly one marker fewer than blocks")
        seen: set[int] = set()
        for block in self.blocks:
            if list(block) != sorted(block):
                raise ValueError(f"block {block!r} is not sorted ascending")
            for element in block:
                if element in seen:
                    raise ValueError(f"element {element} appears twice")
                seen.add(element)
        for marker in self.markers:
            if marker in seen:
                raise ValueError(f"marker {marker} collides with another element")
            seen.add(marker)
        if seen != set(range(1, self.m + 1)):
            raise ValueError("blocks and markers must exhaust the ground set exactly")
        if any(a <= b for a, b in zip(self.markers, self.markers[1:])):
            raise ValueError("markers must be strictly decreasing")
        for block, marker in zip(self.blocks, self.markers):
            if any(element <= marker for element in block):
                raise ValueError(f"block {block!r} has an element not above its marker {marker}")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def term_type(self) -> tuple[int, ...]:
        """Block-size composition (|I_1|+1, ..., |I_k|+1); sums to m+1."""
        return tuple(len(block) + 1 for block in self.blocks)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "blocks": [list(block) for block in self.blocks],
            "markers": list(self.markers),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Splitting":
        return cls(
            json_int(data["m"], "m"),
            tuple(tuple(json_int(e, "block element") for e in block) for block in data["blocks"]),
            tuple(json_int(e, "marker") for e in data["markers"]),
        )


@lru_cache(maxsize=None)
def all_splittings(m: int) -> tuple[Splitting, ...]:
    """Every splitting of {1, ..., m}, in the order of the growth tree's leaves."""
    if m < 0:
        raise ValueError("ground-set size must be nonnegative")
    return tuple(Splitting(m, blocks, markers) for blocks, markers in _grow(m))


def _grow(
    m: int, keep: Callable[[int, tuple[int, ...]], bool] | None = None
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
    """Depth-first walk of the growth tree, yielding raw (blocks, markers) leaves.

    A node at depth t is a splitting of {1, ..., t}.  Its children insert t+1
    into each block in turn (the type-2 moves), then adjoin a fresh empty
    leading block with marker t+1 (the type-1 move); the root is the
    splitting of the empty set.  The leaves of depth m are every splitting
    of {1, ..., m}, each once.

    ``keep(base, block)`` is asked about each factor a move creates or
    grows, with ``base`` the block's marker, or 0 for the last block (the
    root asks about (0, ())).  A false answer cuts the move and its whole
    subtree, which is sound when it means "this factor vanishes": blocks
    only grow, so a vanishing factor vanishes in every descendant.
    """
    if keep is not None and not keep(0, ()):
        return
    # explicit stack, children pushed in reverse so that they pop in order
    stack = [(1, ((),), ())]
    while stack:
        top, blocks, markers = stack.pop()
        if top > m:
            yield blocks, markers
            continue
        children = []
        last = len(markers)
        for position, block in enumerate(blocks):
            grown = block + (top,)
            if keep is None or keep(markers[position] if position < last else 0, grown):
                children.append((top + 1, blocks[:position] + (grown,) + blocks[position + 1 :], markers))
        if keep is None or keep(top, ()):
            children.append((top + 1, ((),) + blocks, (top,) + markers))
        stack.extend(reversed(children))


def _insert_top_element(spl: Splitting, position: int) -> Splitting:
    blocks = list(spl.blocks)
    blocks[position] = blocks[position] + (spl.m + 1,)
    return Splitting(spl.m + 1, tuple(blocks), spl.markers)


def _adjoin_leading_marker(spl: Splitting) -> Splitting:
    return Splitting(spl.m + 1, ((),) + spl.blocks, (spl.m + 1,) + spl.markers)


def enumerate_splittings(m: int, k: int) -> tuple[Splitting, ...]:
    """All splittings of {1, ..., m} into exactly k blocks.

    For k outside [1, m+1] no splittings exist and the result is empty.
    """
    if m < 0:
        raise ValueError("ground-set size must be nonnegative")
    if k < 1 or k > m + 1:
        return ()
    return tuple(spl for spl in all_splittings(m) if spl.num_blocks == k)


def brute_force_splittings(m: int, k: int) -> tuple[Splitting, ...]:
    """Independent validator: filter raw marker/block assignments by the invariants.

    Chooses every possible marker set, then every assignment of the
    remaining elements to the k blocks, keeping the assignments where each
    constrained block only receives elements above its marker.  Shares no
    code with :func:`all_splittings`.
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


def count_splittings(m: int, k: int) -> int:
    """Number of splittings of {1, ..., m} into k blocks (0 outside [1, m+1])."""
    return len(enumerate_splittings(m, k))


def classify(spl: Splitting) -> SplittingKind:
    """Type of a splitting of a nonempty ground set.

    Type 1: the top element is a marker (necessarily the leading one, with
    an empty leading block); type 2: the top element sits inside a block.
    """
    if spl.m < 1:
        raise ValueError("classification needs ground-set size >= 1")
    return SplittingKind.TYPE1 if spl.m in spl.markers else SplittingKind.TYPE2


def type1_bijection(m: int, k: int) -> tuple[tuple[Splitting, Splitting], ...]:
    """Verified pairing of type-1 k-block splittings of m+1 with (k-1)-block ones of m.

    Forward map: drop the (empty) leading block and the leading marker m+1.
    Inverse: adjoin them back.  Raises CorrespondenceError if either map
    fails to be total, valid, or mutually inverse.
    """
    if not 2 <= k <= m + 2:
        raise ValueError("type-1 splittings need 2 <= k <= m+2")
    sources = [s for s in enumerate_splittings(m + 1, k) if classify(s) is SplittingKind.TYPE1]
    targets = set(enumerate_splittings(m, k - 1))
    pairs: list[tuple[Splitting, Splitting]] = []
    images: set[Splitting] = set()
    for source in sources:
        if source.blocks[0] != () or source.markers[0] != m + 1:
            raise CorrespondenceError(f"type-1 splitting {source} lacks empty leading block/marker")
        try:
            image = Splitting(m, source.blocks[1:], source.markers[1:])
        except ValueError as exc:
            raise CorrespondenceError(f"dropping the leading pair broke invariants: {exc}") from exc
        if image in images:
            raise CorrespondenceError(f"image {image} reached twice; map is not injective")
        if image not in targets:
            raise CorrespondenceError(f"image {image} is not a valid splitting of {m}")
        if _adjoin_leading_marker(image) != source:
            raise CorrespondenceError(f"round trip failed for {source}")
        images.add(image)
        pairs.append((source, image))
    if images != targets:
        raise CorrespondenceError(
            f"type-1 map onto {len(images)} of {len(targets)} splittings; not surjective"
        )
    return tuple(pairs)


def type2_correspondence(m: int, k: int) -> tuple[tuple[Splitting, tuple[Splitting, ...]], ...]:
    """Verified k-fold cover of the type-2 k-block splittings of m+1.

    Each k-block splitting of m yields exactly k distinct type-2 splittings
    of m+1 by inserting m+1 into each block in turn; jointly these cover
    the type-2 class once.  Raises CorrespondenceError on overlap/omission.
    """
    if not 1 <= k <= m + 1:
        raise ValueError("type-2 correspondences need 1 <= k <= m+1")
    targets = {s for s in enumerate_splittings(m + 1, k) if classify(s) is SplittingKind.TYPE2}
    mapping: list[tuple[Splitting, tuple[Splitting, ...]]] = []
    covered: set[Splitting] = set()
    for source in enumerate_splittings(m, k):
        images = tuple(_insert_top_element(source, position) for position in range(k))
        if len(set(images)) != k:
            raise CorrespondenceError(f"insertions into {source} collided")
        for image in images:
            if image in covered:
                raise CorrespondenceError(f"image {image} covered twice")
            if image not in targets:
                raise CorrespondenceError(f"image {image} is not a type-2 splitting of {m + 1}")
            covered.add(image)
        mapping.append((source, images))
    if covered != targets:
        raise CorrespondenceError(
            f"type-2 cover reached {len(covered)} of {len(targets)} splittings"
        )
    return tuple(mapping)


# --- expansion of iterated covariant derivatives -------------------------

def _apply_indexed_derivatives(
    poly: WirtingerPolynomial, block: tuple[int, ...], dirs: Sequence[Direction]
) -> WirtingerPolynomial:
    # indices applied in decreasing order; coordinate derivatives commute,
    # the order is fixed for determinism only
    for index in reversed(block):
        poly = poly.derivative(dirs[index - 1])
    return poly


def _support_test(
    dirs: Sequence[Direction],
    multipliers: Sequence[WirtingerPolynomial],
    f: WirtingerPolynomial,
) -> Callable[[int, tuple[int, ...]], bool]:
    """The walk's ``keep``: whether eta_I of a base can be nonzero, read off supports.

    With nd D and nb DBAR directions in I, eta_I maps s^p sbar^q to a
    nonzero multiple of s^(p-nd) sbar^(q-nb) when p >= nd and q >= nb and
    to zero otherwise, and distinct monomials to distinct ones; so eta_I x
    vanishes exactly when no term of x has p >= nd and q >= nb.  (Separate
    maxima of p and q cannot decide it: d dbar (s^2 + sbar^2) = 0.)
    """
    supports = [tuple(f.numerators)] + [tuple(a.numerators) for a in multipliers]
    is_d = [d is Direction.D for d in dirs]
    verdicts: dict = {}

    def keep(base: int, block: tuple[int, ...]) -> bool:
        key = (base, block)
        verdict = verdicts.get(key)
        if verdict is None:
            nd, nb = _direction_counts(block, is_d)
            verdict = verdicts[key] = any(p >= nd and q >= nb for p, q in supports[base])
        return verdict

    return keep


def _direction_counts(block: tuple[int, ...], is_d: Sequence[bool]) -> tuple[int, int]:
    """Numbers of D and of DBAR directions among the indices in ``block``."""
    nd = sum(is_d[index - 1] for index in block)
    return nd, len(block) - nd


def _sum_terms(
    leaves: Iterable[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]],
    dirs: Sequence[Direction],
    multipliers: Sequence[WirtingerPolynomial],
    f: WirtingerPolynomial,
    cache: dict,
) -> WirtingerPolynomial:
    """Sum of the leaves' terms, each distinct term computed once times its multiplicity.

    A term depends on its splitting only through the multiset of its
    factors' signatures (base kind, D count, DBAR count): eta_I depends on I
    only through its direction counts, because the derivations commute, and
    a_i only through the direction of eta_i.  The base kind is 0 for f, 1
    for a DBAR multiplier and 2 for a D multiplier.
    """
    is_d = [d is Direction.D for d in dirs]
    factor_signatures: dict = {}
    groups: dict = {}
    for blocks, markers in leaves:
        signature = []
        for key in zip(markers + (0,), blocks):
            factor = factor_signatures.get(key)
            if factor is None:
                base, block = key
                factor = factor_signatures[key] = (
                    1 + is_d[base - 1] if base else 0, *_direction_counts(block, is_d)
                )
            signature.append(factor)
        signature.sort()
        group = groups.setdefault(tuple(signature), [0, blocks, markers])
        group[0] += 1
    total = WirtingerPolynomial.zero()
    for count, blocks, markers in groups.values():
        total = total + count * _term_for(blocks, markers, dirs, multipliers, f, cache)
    return total


def _term_for(
    blocks: tuple[tuple[int, ...], ...],
    markers: tuple[int, ...],
    dirs: Sequence[Direction],
    multipliers: Sequence[WirtingerPolynomial],
    f: WirtingerPolynomial,
    cache: dict,
) -> WirtingerPolynomial:
    """Product contributed by one splitting; factor results are memoized per sweep.

    ``multipliers[i-1]`` is the connection multiplier a_i for eta_i; cache
    keys are (base, block) where base is a marker index or 0 for f.
    """
    term = None
    for block, base in zip(blocks, markers + (0,)):
        key = (base, block)
        factor = cache.get(key)
        if factor is None:
            factor = _apply_indexed_derivatives(multipliers[base - 1] if base else f, block, dirs)
            cache[key] = factor
        term = factor if term is None else term * factor
    return term


def splitting_term(
    spl: Splitting,
    dirs: Sequence[Direction],
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
) -> WirtingerPolynomial:
    """The scalar product contributed by one splitting to the expansion."""
    if len(dirs) != spl.m:
        raise ValueError(f"direction sequence has length {len(dirs)}, splitting needs {spl.m}")
    multipliers = [conn.coefficient(j, d) for d in dirs]
    return _term_for(spl.blocks, spl.markers, dirs, multipliers, f, {})


def splitting_expansion(
    m: int,
    dirs: Sequence[Direction],
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
) -> WirtingerPolynomial:
    """Closed-form scalar coefficient of the m-fold covariant derivative of f*phi_j.

    Sums the splitting terms over the splittings of {1, ..., m} of every
    block count, walking the growth tree and cutting every branch in which
    a factor vanishes (read off the supports of f and the multipliers).
    Only zero terms are skipped, and equal terms are computed once: the
    result equals the sum over ``all_splittings(m)``.
    """
    if len(dirs) != m:
        raise ValueError(f"direction sequence has length {len(dirs)}, expected {m}")
    multipliers = [conn.coefficient(j, d) for d in dirs]
    leaves = _grow(m, _support_test(dirs, multipliers, f))
    return _sum_terms(leaves, dirs, multipliers, f, {})


def _identity_sides(
    m: int,
    dirs: Sequence[Direction],
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
    corrupt: bool,
) -> tuple[FieldSection, FieldSection]:
    # (direct route, expansion route), the expansion negated when corrupt
    direct = conn.iterated(f * FieldSection.basis(j), dirs)
    expanded = splitting_expansion(m, dirs, conn, j, f)
    return direct, (-expanded if corrupt else expanded) * FieldSection.basis(j)


def verify_expansion_identity(
    m: int,
    dirs: Sequence[Direction],
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
    *,
    corrupt: bool = False,
) -> bool:
    """Exact check: the splitting expansion equals the iterated covariant derivative.

    ``corrupt=True`` is the negative control: the expansion is negated
    before the comparison, so a working check must report a failure.
    """
    direct, expanded = _identity_sides(m, dirs, conn, j, f, corrupt)
    return direct == expanded


def identity_witness(
    m: int,
    dirs: Sequence[Direction],
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
    *,
    corrupt: bool = False,
) -> dict | None:
    """First coefficient where the two sides of the expansion identity differ.

    None when they agree.  Otherwise the basis index, the exponent pair
    (p, q) and both coefficients as exact strings, scanning basis indices
    and then exponent pairs in increasing order.
    """
    direct, expanded = _identity_sides(m, dirs, conn, j, f, corrupt)
    for index in sorted(set(direct.support) | set(expanded.support)):
        left, right = direct.coefficient(index), expanded.coefficient(index)
        for p, q in sorted(set(left.terms) | set(right.terms)):
            if left.coefficient(p, q) != right.coefficient(p, q):
                return {
                    "basis_index": index,
                    "p": p,
                    "q": q,
                    "direct": str(left.coefficient(p, q)),
                    "expansion": str(right.coefficient(p, q)),
                }
    return None


def check_splitting_recursion(
    m: int,
    dirs: Sequence[Direction],
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
    *,
    corrupt: bool = False,
) -> bool:
    """Exact check of the one-step growth of the expansion.

    With dirs of length m+1: the type-1 part of the level-(m+1) sum equals
    the new multiplier times the level-m sum, and the type-2 part equals
    the new derivative of the level-m sum.  Both parts come from one pruned
    walk of the level-(m+1) tree: a leaf is type 1 when its last move
    adjoined m+1 as the leading marker.  The full level-(m+1) sum is not
    compared with their total: both would sum the same leaves, so that
    comparison could never fail.
    ``corrupt=True`` is the negative control: the level-m sum is negated,
    so a working check must fail.
    """
    if len(dirs) != m + 1:
        raise ValueError(f"direction sequence has length {len(dirs)}, expected {m + 1}")
    multipliers = [conn.coefficient(j, d) for d in dirs]
    type1_leaves, type2_leaves = [], []
    for blocks, markers in _grow(m + 1, _support_test(dirs, multipliers, f)):
        # type 1 exactly when the leaf's last move adjoined m+1 as the leading marker
        leaves = type1_leaves if markers and markers[0] == m + 1 else type2_leaves
        leaves.append((blocks, markers))
    cache: dict = {}
    type1_sum = _sum_terms(type1_leaves, dirs, multipliers, f, cache)
    type2_sum = _sum_terms(type2_leaves, dirs, multipliers, f, cache)
    level_m = splitting_expansion(m, dirs[:m], conn, j, f)
    if corrupt:
        level_m = -level_m
    return type1_sum == multipliers[m] * level_m and type2_sum == level_m.derivative(dirs[m])


def direction_sequences(m: int) -> Iterable[tuple[Direction, ...]]:
    """All 2^m coordinate direction sequences of length m, in a fixed order."""
    return itertools.product((Direction.D, Direction.DBAR), repeat=m)
