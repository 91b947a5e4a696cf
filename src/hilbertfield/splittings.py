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
applies the derivatives with indices in I (they commute, so their order
does not matter).  Summing over all splittings of all
sizes reproduces the iterated covariant derivative exactly; the recursion
that proves it splits the structures on {1, ..., m+1} into those whose
blocks miss m+1 (so m+1 is the leading marker: "type 1", in bijection with
splittings of {1, ..., m} into one block fewer) and those whose blocks
contain m+1 ("type 2", a k-to-1 cover of the splittings of {1, ..., m}
obtained by dropping m+1).  Both correspondences are verified here by
explicit construction, and the enumerator is cross-checked against a
brute-force generator that filters raw assignments by the invariants.

The expansion sums walk the same growth tree depth first and cut every
branch in which a factor vanishes.  One factor table per sum holds every
factor eta_I h: it decides the cuts, groups the leaves whose terms have
the same factors up to order, and supplies the factors of each group's
single product.  It only differentiates f and the multipliers, so the
expansion route never consults the direct route (``Connection.iterated``);
on the default model only about 6 % of the level-6 terms are nonzero.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

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
    "direction_sequences",
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
    m: int, table: _FactorTable | None = None
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
    """Depth-first walk of the growth tree, yielding raw (blocks, markers) leaves.

    A node at depth t is a splitting of {1, ..., t}.  Its children insert t+1
    into each block in turn (the type-2 moves), then adjoin a fresh empty
    leading block with marker t+1 (the type-1 move); the root is the
    splitting of the empty set.  The leaves of depth m are every splitting
    of {1, ..., m}, each once.

    With a factor ``table``, each factor a move creates or grows is looked
    up under (base, block), with ``base`` the block's marker, or 0 for the
    last block (the root looks up (0, ())).  A None entry, a vanishing
    factor, cuts the move and its whole subtree: blocks only grow, so a
    vanishing factor vanishes in every descendant.
    """
    if table is not None and table[0, ()] is None:
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
            if table is None or table[markers[position] if position < last else 0, grown] is not None:
                children.append((top + 1, blocks[:position] + (grown,) + blocks[position + 1 :], markers))
        if table is None or table[top, ()] is not None:
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

class _FactorTable(dict):
    """The factors eta_I h of one expansion, keyed by (base, block), each computed on first lookup.

    ``base`` is a marker i, for h = a_i, or 0 for h = f.  An entry is
    (signature, eta_I h), or None when eta_I h = 0.  The signature is (base
    kind, D count, DBAR count), the kind 0 for f, 1 for a DBAR multiplier
    and 2 for a D multiplier, and it determines the factor: the derivations
    commute, so eta_I depends on I only through its direction counts, and
    a_i depends only on the direction of eta_i.  Each signature's factor
    is computed once.
    """

    def __init__(
        self, dirs: Sequence[Direction], conn: Connection, j: int, f: WirtingerPolynomial
    ):
        super().__init__()
        self.dirs = dirs
        # is_d[i]: whether eta_i is a D direction (index 0 unused)
        self.is_d = [False] + [d is Direction.D for d in dirs]
        # h by base: f, then the multiplier a_i picked up along eta_i
        self.bases = [f] + [conn.coefficient(j, d) for d in dirs]
        self.by_signature: dict = {}

    def __missing__(self, key: tuple[int, tuple[int, ...]]):
        base, block = key
        nd = sum(map(self.is_d.__getitem__, block))
        kind = 1 + self.is_d[base] if base else 0
        signature = (kind, nd, len(block) - nd)
        if signature not in self.by_signature:
            if block:
                # one derivation more than the factor of the block without its last index
                parent = self[base, block[:-1]]
                factor = None if parent is None else parent[1].derivative(self.dirs[block[-1] - 1])
            else:
                factor = self.bases[base]
            self.by_signature[signature] = None if factor is None or factor.is_zero else (signature, factor)
        entry = self[key] = self.by_signature[signature]
        return entry


def _product(entries: Sequence) -> WirtingerPolynomial:
    """The term whose factors have these table entries; zero if one of them is None."""
    if None in entries:
        return WirtingerPolynomial.zero()
    term = entries[0][1]
    for _, factor in entries[1:]:
        term = term * factor
    return term


def _sum_terms(
    leaves: Iterable[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]], table: _FactorTable
) -> WirtingerPolynomial:
    """Sum of the leaves' terms, each distinct term computed once times its multiplicity.

    A term depends on its splitting only through the multiset of its
    factors' signatures, so leaves are grouped by that multiset and each
    group's product is formed once, from the factors of its first leaf.
    """
    groups: dict = {}
    for blocks, markers in leaves:
        entries = [table[key] for key in zip(markers + (0,), blocks)]
        group = groups.setdefault(tuple(sorted([entry[0] for entry in entries])), [0, entries])
        group[0] += 1
    total = WirtingerPolynomial.zero()
    for count, entries in groups.values():
        total = total + count * _product(entries)
    return total


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
    table = _FactorTable(dirs, conn, j, f)
    return _product([table[key] for key in zip(spl.markers + (0,), spl.blocks)])


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
    a factor vanishes (a None entry of the sum's factor table).
    Only zero terms are skipped, and equal terms are computed once: the
    result equals the sum over ``all_splittings(m)``.
    """
    if len(dirs) != m:
        raise ValueError(f"direction sequence has length {len(dirs)}, expected {m}")
    table = _FactorTable(dirs, conn, j, f)
    return _sum_terms(_grow(m, table), table)


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
    table = _FactorTable(dirs, conn, j, f)
    type1_leaves, type2_leaves = [], []
    for blocks, markers in _grow(m + 1, table):
        # type 1 exactly when the leaf's last move adjoined m+1 as the leading marker
        leaves = type1_leaves if markers and markers[0] == m + 1 else type2_leaves
        leaves.append((blocks, markers))
    type1_sum = _sum_terms(type1_leaves, table)
    type2_sum = _sum_terms(type2_leaves, table)
    level_m = splitting_expansion(m, dirs[:m], conn, j, f)
    if corrupt:
        level_m = -level_m
    return type1_sum == table.bases[m + 1] * level_m and type2_sum == level_m.derivative(dirs[m])


def direction_sequences(m: int) -> Iterable[tuple[Direction, ...]]:
    """All 2^m coordinate direction sequences of length m, in a fixed order."""
    return itertools.product((Direction.D, Direction.DBAR), repeat=m)
