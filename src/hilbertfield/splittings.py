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
by explicit construction, and the tests cross-check the enumerator against
a brute-force generator that filters raw assignments by the invariants.

The expansion sums never visit a splitting.  A term depends only on the
multiset of its factors' signatures (base, D count, DBAR count), and a
growth move acts on that multiset alone, so each sum advances a dictionary
{signature state: number of splittings} one direction at a time, dropping
every state with a vanishing factor.  One table per f serves every basis
index j: the multiplier along d at j is (j+1) times the one at j = 0, and
the derivations are linear, so each of a term's b-1 multiplier factors
scales by j+1.  Which terms vanish therefore does not depend on j, and a
state's term at j is its j = 0 term times lam^(b-1), lam = j+1, with b the
number of factors in the state (exactly one of them is f's).  ``_States``
interns each distinct state once per table as a ``_State`` record that
carries its grade and its j = 0 term, and memoizes the states of each
direction sequence, keyed on the sequence, advanced from its prefix's by
one step and dropped once both of its children are stepped, and the moves
of each state, its children with their weights, keyed on (direction,
state), since the same state recurs under many prefixes.  A step only adds
counts, and the states of a sequence are summed once, graded by lam: grade
k is the sum of count times j = 0 term over the states with k multiplier
factors, built in one pass over one denominator, and index j reads the
graded sum at lam = j+1.  ``splitting_expansion``,
``check_splitting_recursion`` and ``IdentitySweep`` (both sides of the
identity for the cells of one f at every j, one graded sum per direction
sequence shared by every j, the direct side taken from its prefix's, and
one verdict call per cell) each read one such table.  Only f and the
multipliers are differentiated: the expansion route never takes the direct
route, which applies the multiplier of the real j at every step.
``all_splittings`` and ``splitting_term`` remain as small-m oracles.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .field import Connection, FieldSection
from .symbolic import Direction, WirtingerPolynomial, _Graded, json_int

__all__ = [
    "Splitting",
    "SplittingKind",
    "CorrespondenceError",
    "enumerate_splittings",
    "all_splittings",
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


def _grown(m: int, blocks: tuple[tuple[int, ...], ...], markers: tuple[int, ...]) -> Splitting:
    """A splitting built by a growth move, without ``Splitting.__post_init__``.

    Each move takes a valid splitting of {1..m-1} to a valid one of {1..m}.
    Inserting m at the end of a block keeps the block sorted and above its
    marker, as m exceeds every element; adjoining m as the leading marker
    before a new empty leading block keeps the markers strictly decreasing
    and one fewer than the blocks.  Either way m is used once and the ground
    set is exhausted again, so there is nothing to check.  The tests rebuild
    every splitting the tree makes through the public constructor.
    """
    spl = object.__new__(Splitting)
    # set in field order, as __init__ does, so the instances keep sharing one key table
    object.__setattr__(spl, "m", m)
    object.__setattr__(spl, "blocks", blocks)
    object.__setattr__(spl, "markers", markers)
    return spl


def _insert_top_element(spl: Splitting, position: int) -> Splitting:
    blocks = list(spl.blocks)
    blocks[position] = blocks[position] + (spl.m + 1,)
    return _grown(spl.m + 1, tuple(blocks), spl.markers)


def _adjoin_leading_marker(spl: Splitting) -> Splitting:
    return _grown(spl.m + 1, ((),) + spl.blocks, (spl.m + 1,) + spl.markers)


def enumerate_splittings(m: int, k: int) -> tuple[Splitting, ...]:
    """All splittings of {1, ..., m} into exactly k blocks.

    For k outside [1, m+1] no splittings exist and the result is empty.
    """
    if m < 0:
        raise ValueError("ground-set size must be nonnegative")
    if k < 1 or k > m + 1:
        return ()
    return tuple(spl for spl in all_splittings(m) if spl.num_blocks == k)


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
    """The term of each signature state for one f at j = 0, computed on first lookup; None if zero.

    A factor eta_I h has the signature (kind, nd, nb): the kind of h (0 for
    f, 1 for a multiplier along DBAR, 2 along D) and the D and DBAR counts
    of I, which fix eta_I, as the derivations commute.  A state is the
    sorted tuple of a term's factor signatures.  A one-signature state's
    term is one derivation of a factor with one count lower; a longer
    state's is its prefix's term times its last factor.
    """

    def __init__(self, conn: Connection, f: WirtingerPolynomial):
        super().__init__()
        self.bases = (f, conn.coefficient(0, Direction.DBAR), conn.coefficient(0, Direction.D))

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


class _State:
    """One signature state of a term table: its sorted signatures, grade and j = 0 term.

    ``_States`` makes one per distinct signature tuple, so a state is
    hashed by identity: the per-sequence dicts and the move memo hash a
    pointer, not a tuple of signature tuples.  ``grade`` is the number of
    multiplier factors, b-1 for b factors.
    """

    __slots__ = ("signatures", "grade", "term")

    def __init__(self, signatures: tuple[tuple[int, int, int], ...], term: WirtingerPolynomial):
        self.signatures = signatures
        self.grade = len(signatures) - 1
        self.term = term


class _States(dict):
    """The kept states of each direction sequence under one term table, computed on first lookup.

    Keyed on the sequence, the value is {state: count}: the interned
    ``_State`` of each signature state of its splittings whose term is
    nonzero, with the number of such splittings, one ``step`` from its
    prefix's.  ``records`` interns each signature tuple once, so ``moves``,
    one memo per direction keyed on the state, runs ``_moves`` once per
    (state, direction) and maps the state to its children's records.  A
    sequence's states are dropped once both of its children have been
    stepped, the root's excepted; a sequence asked for again is recomputed
    from its prefix's.  Dropped children depend on the table, so one table
    serves one f, at every j.
    """

    def __init__(self, terms):
        super().__init__()
        self.terms = terms
        self.records: dict[tuple, _State] = {}
        self.moves: dict[Direction, dict[_State, tuple]] = {d: {} for d in Direction}
        # the one child stepped so far of each sequence that has one
        self.stepped: dict[tuple[Direction, ...], Direction] = {}
        # the root, the splitting of the empty set, has the one factor f
        root = ((0, 0, 0),)
        self[()] = {} if terms[root] is None else {self.record(root): 1}

    def record(self, signatures: tuple[tuple[int, int, int], ...]) -> _State:
        """The one record of a signature tuple, made on first request."""
        found = self.records.get(signatures)
        if found is None:
            # setdefault: of two threads making the same record, both keep the first
            found = self.records.setdefault(signatures, _State(signatures, self.terms[signatures]))
        return found

    def __missing__(self, dirs: tuple[Direction, ...]) -> dict:
        prefix, d = dirs[:-1], dirs[-1]
        children: dict = {}
        self.step(self[prefix], d, children, children)
        self[dirs] = children
        if prefix and self.stepped.setdefault(prefix, d) is not d:
            # both children of the prefix are stepped: nothing reads its states again.  Threads
            # racing here can only drop a sequence early or keep it, and a dropped one is
            # recomputed to the same states
            self.stepped.pop(prefix, None)
            self.pop(prefix, None)
        return children

    def step(self, states: dict, d: Direction, type1: dict, type2: dict) -> None:
        """Add to type1 and type2 the children one direction d further: parent count times move weight."""
        memo = self.moves[d]
        for state, count in states.items():
            found = memo.get(state)
            if found is None:
                ones, twos = _moves(state.signatures, d, self.terms)
                record = self.record
                found = memo[state] = (
                    tuple((record(child), weight) for child, weight in ones),
                    tuple((record(child), weight) for child, weight in twos),
                )
            ones, twos = found
            for child, weight in ones:
                type1[child] = type1.get(child, 0) + count * weight
            for child, weight in twos:
                type2[child] = type2.get(child, 0) + count * weight

    def graded(self, states: dict) -> _Graded:
        """The sum of each state's term times its count, graded by lam = j+1.

        The table holds j = 0 terms, and at j each of a state's factors but
        f's is a multiplier factor scaled by j+1: a state goes to its grade,
        the number of its multiplier factors, so the graded sum read at
        lam = j+1 is the sum at j.
        """
        return _Graded.combination([(count, state.grade, state.term) for state, count in states.items()])


def _at(graded: _Graded, j: int) -> WirtingerPolynomial:
    """A graded sum of states read at index j, lam = j+1."""
    if j < 0:
        raise ValueError("basis index must be nonnegative")
    return graded.at(j + 1)


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

    Folds the signature states along ``dirs``, sums each state's term
    times its count graded by lam, and reads the sum at lam = j+1.  Only
    zero terms are dropped: the result equals the sum of ``splitting_term``
    over ``all_splittings(m)``.
    """
    if len(dirs) != m:
        raise ValueError(f"direction sequence has length {len(dirs)}, expected {m}")
    states = _States(_Terms(conn, f))
    return _at(states.graded(states[tuple(dirs)]), j)


class IdentitySweep:
    """Both sides of the expansion identity for the cells of one f, every j, shared along prefixes.

    At each direction sequence looked up, the expansion route advances its
    prefix's signature states by one direction and the direct route takes
    one covariant derivative of its prefix's section.  The states do not
    depend on j: ``sums`` keeps each sequence's graded sum of its states
    (``_States.graded``) for the life of the sweep, made on the first
    lookup and read at lam = j+1 by every index, while ``states`` drops a
    sequence's states once both its children are stepped.  The direct
    sections do depend on j, and are kept for the last j looked up only:
    sweeping one j after another computes each factor, each state's term,
    each (state, direction) move and each sequence's graded sum once, and
    each covariant derivative once per j.  ``verdict`` decides a cell and
    ``sides`` gives both sides as sections, for a witness.  The expansion
    route never reads the direct one.
    """

    def __init__(self, conn: Connection, f: WirtingerPolynomial):
        self.key = (conn, f)
        self.states = _States(_Terms(conn, f))
        self.sums: dict[tuple[Direction, ...], _Graded] = {}
        # (j, its direct sections) in one attribute, so that threads sharing
        # the sweep never pair one index with another's sections
        self.direct: tuple[int, _Prefixes] | None = None

    def _routes(self, dirs: tuple[Direction, ...], j: int) -> tuple[FieldSection, WirtingerPolynomial]:
        """The direct route's section at (dirs, j) and the expansion route's coefficient of phi_j."""
        direct = self.direct
        if direct is None or direct[0] != j:
            conn, f = self.key
            self.direct = direct = (j, _Prefixes(FieldSection({j: f}), conn.covariant_derivative))
        graded = self.sums.get(dirs)
        if graded is None:
            graded = self.sums[dirs] = self.states.graded(self.states[dirs])
        return direct[1][dirs], _at(graded, j)

    def verdict(self, dirs: Sequence[Direction], j: int, corrupt: bool = False) -> bool:
        """Whether the two sides agree at (dirs, j), the expansion negated when corrupt.

        Compares the direct section's coefficients with the expansion's
        coefficient of phi_j, without making a section of the expansion.
        """
        direct, expanded = self._routes(tuple(dirs), j)
        if corrupt:
            expanded = -expanded
        return direct.coeffs == ({j: expanded} if expanded else {})

    def sides(
        self, dirs: Sequence[Direction], j: int, corrupt: bool = False
    ) -> tuple[FieldSection, FieldSection]:
        """(direct route, expansion route) at (dirs, j), the expansion negated when corrupt."""
        direct, expanded = self._routes(tuple(dirs), j)
        return direct, FieldSection({j: -expanded if corrupt else expanded})


def _checked_sweep(
    m: int,
    dirs: Sequence[Direction],
    conn: Connection,
    f: WirtingerPolynomial,
    sweep: IdentitySweep | None,
) -> IdentitySweep:
    """The sweep that serves the cell, a fresh one when none is given, after checking the arguments."""
    if len(dirs) != m:
        raise ValueError(f"direction sequence has length {len(dirs)}, expected {m}")
    if sweep is None:
        return IdentitySweep(conn, f)
    if sweep.key != (conn, f):
        raise ValueError("the sweep was built for another (connection, f)")
    return sweep


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
    ``sweep``, an :class:`IdentitySweep` of the same (conn, f), shares the
    expansion's work with every cell it has seen and the direct route's
    with the cells of the same j seen since j last changed.  The verdict is
    :meth:`IdentitySweep.verdict`.
    """
    return _checked_sweep(m, dirs, conn, f, sweep).verdict(dirs, j, corrupt)


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
    direct, expanded = _checked_sweep(m, dirs, conn, f, sweep).sides(dirs, j, corrupt)
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
    states = _States(_Terms(conn, f))
    level = states[tuple(dirs[:m])]
    type1, type2 = {}, {}
    states.step(level, dirs[m], type1, type2)
    level_m = _at(states.graded(level), j)
    if corrupt:
        level_m = -level_m
    type1_ok = _at(states.graded(type1), j) == conn.coefficient(j, dirs[m]) * level_m
    return type1_ok and _at(states.graded(type2), j) == level_m.derivative(dirs[m])


def direction_sequences(m: int) -> Iterable[tuple[Direction, ...]]:
    """All 2^m coordinate direction sequences of length m, in a fixed order."""
    return itertools.product((Direction.D, Direction.DBAR), repeat=m)
