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
obtained by dropping m+1).  The enumerator is that induction, a growth
tree: level m+1 holds the children of level m, grown by the type-2 move
(insert m+1 into a block) or the type-1 move (adjoin m+1 as the leading
marker), and each splitting of {1, ..., m+1} has one parent, found by
deleting m+1.  The type-2 and type-1 correspondences verify the two moves
by explicit construction, and the enumerator is cross-checked against a
brute-force generator that filters raw assignments by the invariants.

The expansion sums never visit a splitting.  A term depends only on the
multiset of its factors' signatures (base, D count, DBAR count), and a
growth move acts on that multiset alone, so each sum advances a dictionary
{signature state: number of splittings} one direction at a time, dropping
every state with a vanishing factor.  One table per (j, f), ``_States``,
memoizes the states of each direction sequence, keyed on the sequence and
advanced from its prefix's by one step, and the moves of each state, its
children with their weights, keyed on (direction, state), since the same
state recurs under many prefixes.  A step only adds counts, and each sum
is one linear combination of its states' terms.  ``splitting_expansion``,
``check_splitting_recursion`` and ``IdentitySweep`` (both sides of the
identity for the cells of one (j, f), the direct side also taken from its
prefix's) each read one such table.  Only f and the multipliers are
differentiated: the expansion route never takes the direct route.
``all_splittings``, ``brute_force_splittings`` and ``splitting_term``
remain as small-m oracles.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .field import Connection, FieldSection
from .symbolic import Direction, WirtingerPolynomial, json_int

__all__ = [
    "Splitting",
    "SplittingKind",
    "CorrespondenceError",
    "enumerate_splittings",
    "all_splittings",
    "brute_force_splittings",
    "classify",
    "type1_bijection",
    "type2_correspondence",
    "splitting_term",
    "splitting_expansion",
    "IdentitySweep",
    "verify_expansion_identity",
    "identity_witness",
    "check_splitting_recursion",
    "direction_sequences",
]


class CorrespondenceError(RuntimeError):
    """A claimed splitting correspondence failed to verify; ``splitting`` is where."""

    def __init__(self, message: str, splitting: "Splitting"):
        super().__init__(message)
        self.splitting = splitting


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
    """Every splitting of {1, ..., m}: level m of the growth tree, built from level m-1.

    Each parent, in order, has the children that insert m into each of its
    blocks in turn (type-2 moves), then the one that adjoins m as the
    leading marker (type-1 move); deleting m recovers the one parent.
    """
    if m < 0:
        raise ValueError("ground-set size must be nonnegative")
    if m == 0:
        return (Splitting(0, ((),), ()),)
    grown = []
    for parent in all_splittings(m - 1):
        grown.extend(_insert_top_element(parent, position) for position in range(parent.num_blocks))
        grown.append(_adjoin_leading_marker(parent))
    return tuple(grown)


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
            raise CorrespondenceError(f"type-1 splitting {source} lacks empty leading block/marker", source)
        try:
            image = Splitting(m, source.blocks[1:], source.markers[1:])
        except ValueError as exc:
            raise CorrespondenceError(f"dropping the leading pair broke invariants: {exc}", source) from exc
        if image in images:
            raise CorrespondenceError(f"image {image} reached twice; map is not injective", image)
        if image not in targets:
            raise CorrespondenceError(f"image {image} is not a valid splitting of {m}", image)
        if _adjoin_leading_marker(image) != source:
            raise CorrespondenceError(f"round trip failed for {source}", source)
        images.add(image)
        pairs.append((source, image))
    if images != targets:
        raise CorrespondenceError(
            f"type-1 map onto {len(images)} of {len(targets)} splittings; not surjective",
            next(target for target in enumerate_splittings(m, k - 1) if target not in images),
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
            raise CorrespondenceError(f"insertions into {source} collided", source)
        for image in images:
            if image in covered:
                raise CorrespondenceError(f"image {image} covered twice", image)
            if image not in targets:
                raise CorrespondenceError(f"image {image} is not a type-2 splitting of {m + 1}", image)
            covered.add(image)
        mapping.append((source, images))
    if covered != targets:
        raise CorrespondenceError(
            f"type-2 cover reached {len(covered)} of {len(targets)} splittings",
            next(s for s in enumerate_splittings(m + 1, k) if s in targets and s not in covered),
        )
    return tuple(mapping)


# --- expansion of iterated covariant derivatives -------------------------


class _Terms(dict):
    """The term of each signature state for one (j, f), computed on first lookup; None if zero.

    A factor eta_I h has the signature (kind, nd, nb): the kind of h (0 for
    f, 1 for a multiplier along DBAR, 2 along D) and the D and DBAR counts
    of I, which fix eta_I, as the derivations commute.  A state is the
    sorted tuple of a term's factor signatures.  A one-signature state's
    term is one derivation of a factor with one count lower; a longer
    state's is its prefix's term times its last factor.
    """

    def __init__(self, conn: Connection, j: int, f: WirtingerPolynomial):
        super().__init__()
        self.bases = (f, conn.coefficient(j, Direction.DBAR), conn.coefficient(j, Direction.D))

    def __missing__(self, state: tuple[tuple[int, int, int], ...]):
        if len(state) > 1:
            prefix, last = self[state[:-1]], self[state[-1:]]
            term = prefix and last and prefix * last
        else:
            (kind, nd, nb), = state
            if nd or nb:
                parent = self[((kind, nd - 1, nb) if nd else (kind, nd, nb - 1),)]
                term = parent and parent.derivative(Direction.D if nd else Direction.DBAR)
            else:
                term = self.bases[kind]
        self[state] = term = term or None
        return term


class _Prefixes(dict):
    """A value per direction sequence, one step from its prefix's value, computed on first lookup."""

    def __init__(self, root, step):
        super().__init__({(): root})
        self.step = step

    def __missing__(self, dirs: tuple[Direction, ...]):
        self[dirs] = value = self.step(self[dirs[:-1]], dirs[-1])
        return value


def _moves(state: tuple, d: Direction, terms) -> tuple[tuple, tuple]:
    """The children of one state one direction d further: (type 1, type 2) pairs (child, weight).

    A splitting's type-1 child adjoins the new element as the leading
    marker, a factor (kind of d, 0, 0); its type-2 children insert it into
    each block in turn, bumping that factor's count of d, so a child that
    bumps a signature weighs the number of factors that carry it.  A child
    with a vanishing factor in ``terms`` is dropped: blocks only grow, so
    it vanishes in every descendant.
    """
    marker = (2 if d is Direction.D else 1, 0, 0)
    type1 = ((tuple(sorted(state + (marker,))), 1),) if terms[(marker,)] is not None else ()
    type2 = []
    for signature, multiplicity in Counter(state).items():
        kind, nd, nb = signature
        bumped = (kind, nd + 1, nb) if d is Direction.D else (kind, nd, nb + 1)
        if terms[(bumped,)] is not None:
            i = state.index(signature)
            type2.append((tuple(sorted(state[:i] + (bumped,) + state[i + 1 :])), multiplicity))
    return type1, tuple(type2)


class _States(dict):
    """The kept states of each direction sequence under one term table, computed on first lookup.

    Keyed on the sequence, the value is {state: count}: the signature
    states of its splittings whose term is nonzero, each with the number of
    such splittings, one ``step`` from its prefix's.  ``moves`` memoizes
    each state's moves, one dict per direction keyed on the state, so
    ``_moves`` runs once per (state, direction).  Dropped children depend
    on the table, so one table serves one (j, f).
    """

    def __init__(self, terms):
        # the root, the splitting of the empty set, has the one factor f
        super().__init__({(): {} if terms[((0, 0, 0),)] is None else {((0, 0, 0),): 1}})
        self.terms = terms
        self.moves = {d: {} for d in Direction}

    def __missing__(self, dirs: tuple[Direction, ...]) -> dict:
        children: dict = {}
        self.step(self[dirs[:-1]], dirs[-1], children, children)
        self[dirs] = children
        return children

    def step(self, states: dict, d: Direction, type1: dict, type2: dict) -> None:
        """Add to type1 and type2 the children one direction d further: parent count times move weight."""
        memo, terms = self.moves[d], self.terms
        for state, count in states.items():
            found = memo.get(state)
            if found is None:
                found = memo[state] = _moves(state, d, terms)
            ones, twos = found
            for child, weight in ones:
                type1[child] = type1.get(child, 0) + count * weight
            for child, weight in twos:
                type2[child] = type2.get(child, 0) + count * weight

    def sum(self, states: dict) -> WirtingerPolynomial:
        """The sum of each state's term times its count."""
        return WirtingerPolynomial.combination((count, self.terms[state]) for state, count in states.items())


def splitting_term(
    spl: Splitting,
    dirs: Sequence[Direction],
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
) -> WirtingerPolynomial:
    """The scalar product contributed by one splitting to the expansion, factor by factor."""
    if len(dirs) != spl.m:
        raise ValueError(f"direction sequence has length {len(dirs)}, splitting needs {spl.m}")
    term = WirtingerPolynomial.one()
    for base, block in zip(spl.markers + (0,), spl.blocks):
        factor = conn.coefficient(j, dirs[base - 1]) if base else f
        for index in block:
            factor = factor.derivative(dirs[index - 1])
        term = term * factor
    return term


def splitting_expansion(
    m: int,
    dirs: Sequence[Direction],
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
) -> WirtingerPolynomial:
    """Closed-form scalar coefficient of the m-fold covariant derivative of f*phi_j.

    Folds the signature states along ``dirs`` and sums each state's term
    times its count.  Only zero terms are dropped: the result equals the
    sum of ``splitting_term`` over ``all_splittings(m)``.
    """
    if len(dirs) != m:
        raise ValueError(f"direction sequence has length {len(dirs)}, expected {m}")
    states = _States(_Terms(conn, j, f))
    return states.sum(states[tuple(dirs)])


class IdentitySweep:
    """Both sides of the expansion identity for the cells of one (j, f), shared along prefixes.

    At each direction sequence looked up, the expansion route advances its
    prefix's signature states by one direction and the direct route takes
    one covariant derivative of its prefix's section.  Both are kept, so
    sweeping every sequence up to a length computes each factor, each
    state's term, each (state, direction) move and each covariant
    derivative once.  The expansion route never reads the direct one.
    """

    def __init__(self, conn: Connection, j: int, f: WirtingerPolynomial):
        self.key = (conn, j, f)
        self.j = j
        self.states = _States(_Terms(conn, j, f))
        self.direct = _Prefixes(FieldSection({j: f}), conn.covariant_derivative)

    def sides(
        self, dirs: Sequence[Direction], corrupt: bool = False
    ) -> tuple[FieldSection, FieldSection]:
        """(direct route, expansion route) at dirs, the expansion negated when corrupt."""
        dirs = tuple(dirs)
        expanded = self.states.sum(self.states[dirs])
        return self.direct[dirs], FieldSection({self.j: -expanded if corrupt else expanded})


def _identity_sides(
    m: int,
    dirs: Sequence[Direction],
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
    corrupt: bool,
    sweep: IdentitySweep | None,
) -> tuple[FieldSection, FieldSection]:
    if len(dirs) != m:
        raise ValueError(f"direction sequence has length {len(dirs)}, expected {m}")
    if sweep is None:
        sweep = IdentitySweep(conn, j, f)
    elif sweep.key != (conn, j, f):
        raise ValueError("the sweep was built for another (connection, j, f)")
    return sweep.sides(dirs, corrupt)


def verify_expansion_identity(
    m: int,
    dirs: Sequence[Direction],
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
    *,
    corrupt: bool = False,
    sweep: IdentitySweep | None = None,
) -> bool:
    """Exact check: the splitting expansion equals the iterated covariant derivative.

    ``corrupt=True`` is the negative control: the expansion is negated
    before the comparison, so a working check must report a failure.
    ``sweep``, an :class:`IdentitySweep` of the same (conn, j, f), shares
    both routes' work with the other cells it has seen.
    """
    direct, expanded = _identity_sides(m, dirs, conn, j, f, corrupt, sweep)
    return direct == expanded


def identity_witness(
    m: int,
    dirs: Sequence[Direction],
    conn: Connection,
    j: int,
    f: WirtingerPolynomial,
    *,
    corrupt: bool = False,
    sweep: IdentitySweep | None = None,
) -> dict | None:
    """First coefficient where the two sides of the expansion identity differ.

    None when they agree.  Otherwise the basis index, the exponent pair
    (p, q) and both coefficients as exact strings, scanning basis indices
    and then exponent pairs in increasing order.  ``sweep`` is as for
    :func:`verify_expansion_identity`.
    """
    direct, expanded = _identity_sides(m, dirs, conn, j, f, corrupt, sweep)
    for index in sorted(set(direct.support) | set(expanded.support)):
        left, right = direct.coefficient(index), expanded.coefficient(index)
        for p, q in sorted(set(left.numerators) | set(right.numerators)):
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
    the new derivative of the level-m sum.  Both parts come from the last
    step of one fold of the signature states.  The full level-(m+1) sum is
    not compared with their total: both would sum the same states, so that
    comparison could never fail.
    ``corrupt=True`` is the negative control: the level-m sum is negated,
    so a working check must fail.
    """
    if len(dirs) != m + 1:
        raise ValueError(f"direction sequence has length {len(dirs)}, expected {m + 1}")
    states = _States(_Terms(conn, j, f))
    level = states[tuple(dirs[:m])]
    type1, type2 = {}, {}
    states.step(level, dirs[m], type1, type2)
    level_m = states.sum(level)
    if corrupt:
        level_m = -level_m
    type1_ok = states.sum(type1) == conn.coefficient(j, dirs[m]) * level_m
    return type1_ok and states.sum(type2) == level_m.derivative(dirs[m])


def direction_sequences(m: int) -> Iterable[tuple[Direction, ...]]:
    """All 2^m coordinate direction sequences of length m, in a fixed order."""
    return itertools.product((Direction.D, Direction.DBAR), repeat=m)
