"""Splitting enumeration, the two correspondences, and the expansion identity."""

import math
from collections import Counter, defaultdict

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hilbertfield import (
    Connection,
    CorrespondenceError,
    Direction,
    FieldSection,
    GaussianRational,
    IdentitySweep,
    Splitting,
    SplittingKind,
    WirtingerPolynomial,
    all_splittings,
    brute_force_splittings,
    check_splitting_recursion,
    classify,
    identity_witness,
    direction_sequences,
    enumerate_splittings,
    splitting_expansion,
    splitting_term,
    type1_bijection,
    type2_correspondence,
    verify_expansion_identity,
    ONE,
    S,
    SBAR,
    ZERO,
)
from hilbertfield import splittings as splittings_mod

from conftest import polynomials, stirling2

D, DBAR = Direction.D, Direction.DBAR
CONN = Connection(k=SBAR)
CONN2 = Connection(k=S * SBAR**2)


class TestSplittingInvariants:
    def test_unique_splitting_of_empty_set(self):
        assert all_splittings(0) == (Splitting(0, ((),), ()),)
        assert enumerate_splittings(0, 1) == (Splitting(0, ((),), ()),)

    def test_unique_two_block_splitting_of_one(self):
        assert enumerate_splittings(1, 2) == (Splitting(1, ((), ()), (1,)),)

    def test_out_of_range_block_count_is_empty(self):
        assert enumerate_splittings(3, 0) == ()
        assert enumerate_splittings(3, 5) == ()
        assert len(enumerate_splittings(3, 7)) == 0

    def test_negative_ground_set_rejected(self):
        with pytest.raises(ValueError):
            enumerate_splittings(-1, 1)

    def test_invalid_structures_rejected(self):
        with pytest.raises(ValueError):
            Splitting(2, ((1,), (1,)), (2,))  # duplicate element
        with pytest.raises(ValueError):
            Splitting(2, ((1,), ()), ())  # wrong marker count
        with pytest.raises(ValueError):
            Splitting(2, ((1,), ()), (2,))  # block element 1 not above its marker 2
        with pytest.raises(ValueError):
            Splitting(3, ((), ()), (1, 2))  # ground set not exhausted
        with pytest.raises(ValueError):
            Splitting(1, ((2,),), ())  # element outside ground set

    def test_json_round_trip(self):
        for spl in all_splittings(4):
            assert Splitting.from_json(spl.to_json()) == spl


class TestEnumerationAgainstBruteForce:
    def test_all_sizes_up_to_six(self):
        for m in range(7):
            for k in range(0, m + 3):
                generated = set(enumerate_splittings(m, k))
                filtered = set(brute_force_splittings(m, k))
                assert generated == filtered, (m, k)

    def test_no_duplicates(self):
        for m in range(7):
            splittings = all_splittings(m)
            assert len(splittings) == len(set(splittings))


class TestCounts:
    def test_base_case(self):
        assert len(enumerate_splittings(0, 1)) == 1

    def test_two_block_count_of_two(self):
        # brute-force oracle first, then the frozen value
        assert len(brute_force_splittings(2, 2)) == 3
        assert len(enumerate_splittings(2, 2)) == 3

    def test_totals(self):
        assert sum(len(enumerate_splittings(2, k)) for k in range(1, 4)) == 5
        assert sum(len(enumerate_splittings(3, k)) for k in range(1, 5)) == 15

    def test_recursion(self):
        for m in range(9):
            for k in range(1, m + 3):
                left = len(enumerate_splittings(m + 1, k))
                right = len(enumerate_splittings(m, k - 1)) + k * len(enumerate_splittings(m, k))
                assert left == right, (m, k)

    def test_matches_shifted_stirling_triangle(self):
        # closed-form oracle: N(m, k) = S(m+1, k) (OEIS A008277), with zeros
        # outside 1 <= k <= m+1, and the row totals are the Bell numbers
        # B(m+1) (OEIS A000110)
        bell = (1, 2, 5, 15, 52, 203, 877, 4140, 21147)
        for m in range(9):
            row = [len(enumerate_splittings(m, k)) for k in range(m + 3)]
            assert row == [stirling2(m + 1, k) for k in range(m + 3)], m
            assert sum(row) == bell[m], m

    @staticmethod
    def rising_factorial(m: int) -> list[int]:
        """Coefficients of x (x+1) ... (x+m) in x, lowest power first."""
        coeffs = [0, 1]
        for i in range(1, m + 1):
            coeffs = [i * c + lower for c, lower in zip(coeffs + [0], [0] + coeffs)]
        return coeffs

    @staticmethod
    def weighted_count(splittings) -> dict[int, int]:
        """Sum of prod |I_a|! per block count k."""
        weights: dict[int, int] = {}
        for spl in splittings:
            weight = math.prod(math.factorial(len(block)) for block in spl.blocks)
            weights[spl.num_blocks] = weights.get(spl.num_blocks, 0) + weight
        return weights

    @staticmethod
    def block_sizes(n: int, largest: int | None = None):
        """Every multiset of block sizes summing to n, as a nonincreasing tuple."""
        if n == 0:
            yield ()
            return
        for first in range(min(n, largest or n), 0, -1):
            for rest in TestCounts.block_sizes(n - first, first):
                yield (first,) + rest

    def test_block_size_count_is_rising_factorial_to_m_decay(self):
        # a splitting of {1..m} is the set partition of {0, 1, ..., m} whose
        # blocks are I_a plus its marker (a < k) and I_k plus 0; its weight
        # prod |I_a|! is prod (b - 1)! over the block sizes b.  An n-set has
        # n! / (prod b! * prod mult!) set partitions with block sizes b (mult:
        # how often each size repeats), so this count never enumerates a
        # splitting and reaches m = 10, the highest level of a decay row
        for m in range(11):
            n = m + 1
            weights = [0] * (n + 1)
            counts = [0] * (n + 1)
            for sizes in self.block_sizes(n):
                partitions = math.factorial(n) // math.prod(
                    [math.factorial(b) for b in sizes]
                    + [math.factorial(sizes.count(b)) for b in set(sizes)]
                )
                counts[len(sizes)] += partitions
                weights[len(sizes)] += partitions * math.prod(math.factorial(b - 1) for b in sizes)
            assert counts == [stirling2(n, k) for k in range(n + 1)], m
            assert weights == self.rising_factorial(m), m

    def test_weighted_count_is_rising_factorial(self):
        # sum over splittings of prod |I_a|! x^k = x (x+1) ... (x+m): unsigned
        # Stirling numbers of the first kind c(m+1, k) (OEIS A132393)
        assert self.rising_factorial(3) == [0, 6, 11, 6, 1]
        for m in range(9):
            weights = self.weighted_count(all_splittings(m))
            assert [weights.get(k, 0) for k in range(m + 2)] == self.rising_factorial(m), m
        for m in range(6):
            brute = [s for k in range(1, m + 2) for s in brute_force_splittings(m, k)]
            weights = self.weighted_count(brute)
            assert [weights.get(k, 0) for k in range(m + 2)] == self.rising_factorial(m), m


class TestClassification:
    def test_marker_only_splitting_is_type1(self):
        spl = Splitting(1, ((), ()), (1,))
        assert classify(spl) is SplittingKind.TYPE1

    def test_single_block_is_type2(self):
        spl = Splitting(1, ((1,),), ())
        assert classify(spl) is SplittingKind.TYPE2

    def test_no_single_block_splitting_is_type1(self):
        for m in range(1, 6):
            for spl in enumerate_splittings(m, 1):
                assert classify(spl) is SplittingKind.TYPE2

    def test_maximal_block_count_is_type1(self):
        for m in range(5):
            for spl in enumerate_splittings(m + 1, m + 2):
                assert classify(spl) is SplittingKind.TYPE1

    def test_empty_ground_set_unclassifiable(self):
        with pytest.raises(ValueError):
            classify(Splitting(0, ((),), ()))

    def test_type_counts_match_recursion_terms(self):
        for m in range(7):
            for k in range(1, m + 3):
                splittings = enumerate_splittings(m + 1, k)
                type1 = sum(1 for s in splittings if classify(s) is SplittingKind.TYPE1)
                type2 = len(splittings) - type1
                assert type1 == len(enumerate_splittings(m, k - 1)), (m, k)
                assert type2 == k * len(enumerate_splittings(m, k)), (m, k)


class TestCorrespondences:
    def test_type1_base_case(self):
        pairs = type1_bijection(0, 2)
        assert pairs == ((Splitting(1, ((), ()), (1,)), Splitting(0, ((),), ())),)

    def test_type1_counts(self):
        assert len(type1_bijection(2, 2)) == len(enumerate_splittings(2, 1)) == 1
        assert len(type1_bijection(3, 3)) == len(enumerate_splittings(3, 2))

    def test_type1_full_sweep(self):
        for m in range(7):
            for k in range(2, m + 3):
                pairs = type1_bijection(m, k)
                assert len(pairs) == len(enumerate_splittings(m, k - 1))

    def test_type2_base_case(self):
        mapping = type2_correspondence(0, 1)
        assert mapping == ((Splitting(0, ((),), ()), (Splitting(1, ((1,),), ()),)),)

    def test_type2_counts(self):
        mapping = type2_correspondence(1, 2)
        assert len(mapping) == 1 and len(mapping[0][1]) == 2
        mapping = type2_correspondence(2, 2)
        assert len(mapping) == 3
        assert sum(len(images) for _, images in mapping) == 6

    def test_type2_full_sweep(self):
        for m in range(7):
            for k in range(1, m + 2):
                mapping = type2_correspondence(m, k)
                covered = sum(len(images) for _, images in mapping)
                assert covered == k * len(enumerate_splittings(m, k))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            type1_bijection(2, 1)
        with pytest.raises(ValueError):
            type2_correspondence(2, 4)

    def test_misclassification_is_detected(self, monkeypatch):
        # rig the classifier to prove the verifiers notice a broken partition
        # each error carries the splitting it stopped at
        monkeypatch.setattr(splittings_mod, "classify", lambda spl: SplittingKind.TYPE1)
        with pytest.raises(CorrespondenceError) as failure:
            type2_correspondence(2, 2)
        # no target is type 2, so the first image is out of the class
        assert failure.value.splitting == Splitting(3, ((3,), (1,)), (2,))
        monkeypatch.setattr(splittings_mod, "classify", lambda spl: SplittingKind.TYPE2)
        with pytest.raises(CorrespondenceError) as failure:
            type1_bijection(1, 2)
        # no source is type 1, so the first one-block splitting of {1} is never reached
        assert failure.value.splitting == Splitting(1, ((1,),), ())


class TestTermTypes:
    def test_composition_sums_to_m_plus_one(self):
        for m in range(7):
            for spl in all_splittings(m):
                composition = spl.term_type()
                assert sum(composition) == m + 1
                assert len(composition) == spl.num_blocks
                assert all(part >= 1 for part in composition)

    def test_multinomial_bound(self):
        for m in range(7):
            by_type: dict[tuple[int, ...], int] = {}
            for spl in all_splittings(m):
                composition = spl.term_type()
                by_type[composition] = by_type.get(composition, 0) + 1
            for composition, count in by_type.items():
                multinomial = math.factorial(m + 1)
                for part in composition:
                    multinomial //= math.factorial(part)
                assert count <= multinomial, (m, composition)

    def test_number_of_compositions(self):
        for m in range(7):
            for k in range(1, m + 2):
                realized = {
                    spl.term_type() for spl in enumerate_splittings(m, k)
                }
                assert len(realized) == math.comb(m, k - 1), (m, k)


class TestSplittingTerm:
    def test_empty_ground_set_returns_f(self):
        spl = Splitting(0, ((),), ())
        f = S * SBAR + 2 * ONE
        assert splitting_term(spl, (), CONN, 3, f) == f

    def test_marker_term(self):
        spl = Splitting(1, ((), ()), (1,))
        assert splitting_term(spl, (D,), CONN, 0, ONE) == SBAR

    def test_derivative_term(self):
        spl = Splitting(1, ((1,),), ())
        assert splitting_term(spl, (D,), CONN, 0, S * SBAR) == SBAR

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            splitting_term(Splitting(1, ((1,),), ()), (), CONN, 0, ONE)
        with pytest.raises(ValueError):
            splitting_expansion(2, (D,), CONN, 0, ONE)


class TestExpansion:
    def test_zero_derivatives(self):
        f = S**2 + SBAR
        assert splitting_expansion(0, (), CONN, 1, f) == f

    def test_single_derivative(self):
        # the two splittings of {1} give eta_1 f + a_1 f
        f = S * SBAR
        for d in (D, DBAR):
            expected = f.derivative(d) + CONN.coefficient(0, d) * f
            assert splitting_expansion(1, (d,), CONN, 0, f) == expected

    def test_against_covariant_recursion(self):
        f = S
        dirs = (D, DBAR)
        expanded = splitting_expansion(2, dirs, CONN, 1, f)
        direct = CONN.iterated(f * FieldSection.basis(1), dirs)
        assert direct == expanded * FieldSection.basis(1)


class TestExpansionIdentity:
    def test_trivial_order_zero(self):
        for f in (ONE, S, S * SBAR):
            assert verify_expansion_identity(0, (), CONN, 2, f)

    def test_order_one_both_directions(self):
        for d in (D, DBAR):
            assert verify_expansion_identity(1, (d,), CONN, 0, ONE)

    @pytest.mark.parametrize("conn", [CONN, CONN2], ids=["k=sbar", "k=s*sbar^2"])
    def test_sweep_small_orders(self, conn):
        for m in range(5):
            for dirs in direction_sequences(m):
                for j in (0, 1, 4):
                    for f in (ONE, S, S * SBAR):
                        assert verify_expansion_identity(m, dirs, conn, j, f)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 3),
        st.integers(0, 5),
        st.sampled_from([ONE, S, SBAR, S * SBAR, S**2 + SBAR]),
        st.sampled_from([SBAR, S, S * SBAR, S + SBAR]),
        st.data(),
    )
    def test_identity_random_cells(self, m, j, f, k, data):
        dirs = tuple(data.draw(st.sampled_from([D, DBAR])) for _ in range(m))
        assert verify_expansion_identity(m, dirs, Connection(k=k), j, f)


def growth_reference(m: int) -> list[tuple]:
    """Level-by-level growth: from each splitting of m-1 in order, insert m into
    each block in turn, then adjoin m as the leading marker."""
    if m == 0:
        return [(((),), ())]
    out = []
    for blocks, markers in growth_reference(m - 1):
        for position in range(len(blocks)):
            out.append((blocks[:position] + (blocks[position] + (m,),) + blocks[position + 1 :], markers))
        out.append((((),) + blocks, (m,) + markers))
    return out


def unpruned_expansion(m, dirs, conn, j, f):
    total = ZERO
    for spl in all_splittings(m):
        total = total + splitting_term(spl, dirs, conn, j, f)
    return total


def signature(dirs, base, block) -> tuple[int, int, int]:
    """(kind, D count, DBAR count) of the factor eta_block h: kind 0 for h = f,
    1 for a_base along DBAR, 2 for a_base along D."""
    kind = 0 if base == 0 else 2 if dirs[base - 1] is D else 1
    nd = sum(dirs[index - 1] is D for index in block)
    return kind, nd, len(block) - nd


def signatures(spl, dirs) -> tuple:
    """The sorted factor signatures of one splitting's term: its state."""
    return tuple(sorted(signature(dirs, base, block) for base, block in zip(spl.markers + (0,), spl.blocks)))


def kept_states(dirs, conn, j, f) -> dict:
    return splittings_mod._States(splittings_mod._Terms(conn, j, f))[dirs]


class TestPrunedWalk:
    def test_unpruned_walk_reproduces_all_splittings_in_order(self):
        for m in range(8):
            reference = growth_reference(m)
            assert [(s.blocks, s.markers) for s in all_splittings(m)] == reference, m

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 5),
        st.integers(0, 3),
        st.one_of(st.just(ZERO), polynomials),
        st.one_of(st.just(ZERO), polynomials),
        st.data(),
    )
    def test_pruned_sum_against_unpruned_oracle(self, m, j, k, f, data):
        # complex k with multi-term supports; k = 0 (flat) and f = 0 included
        conn = Connection(k=k)
        dirs = tuple(data.draw(st.sampled_from([D, DBAR])) for _ in range(m))
        assert splitting_expansion(m, dirs, conn, j, f) == unpruned_expansion(m, dirs, conn, j, f)
        # the kept states are exactly those of the splittings with a nonzero
        # term, each counted once per such splitting: every dropped state has
        # a vanishing factor, and a product of nonzero polynomials is nonzero
        nonzero = Counter(
            signatures(spl, dirs) for spl in all_splittings(m) if not splitting_term(spl, dirs, conn, j, f).is_zero
        )
        assert kept_states(dirs, conn, j, f) == nonzero
        # the recursion splits the last step by type; its negative control
        # must fail whenever the level's sum is nonzero
        if m >= 1:
            assert check_splitting_recursion(m - 1, dirs, conn, j, f)
            if not unpruned_expansion(m, dirs, conn, j, f).is_zero:
                assert not check_splitting_recursion(m - 1, dirs, conn, j, f, corrupt=True)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 5),
        st.integers(0, 3),
        st.one_of(st.just(ZERO), polynomials),
        st.one_of(st.just(ZERO), polynomials),
    )
    def test_sweep_against_unpruned_oracle(self, m_max, j, k, f):
        # every cell of the prefix-sharing sweep, in direction_sequences order
        conn = Connection(k=k)
        sweep, basis = IdentitySweep(conn, j, f), FieldSection.basis(j)
        for m in range(m_max + 1):
            for dirs in direction_sequences(m):
                expanded = sweep.sides(dirs)[1]
                assert expanded == splitting_expansion(m, dirs, conn, j, f) * basis, dirs
                assert expanded == unpruned_expansion(m, dirs, conn, j, f) * basis, dirs

    def test_unpruned_state_counts_are_signature_multisets(self):
        # with a term table in which no factor vanishes, no state is dropped
        # and a state's count is the number of splittings whose factors carry
        # its signatures
        never_zero = defaultdict(lambda: ONE)
        samples = {m: list(direction_sequences(m)) for m in range(6)}
        samples.update({m: [(D,) * m, (DBAR,) * m, (D, DBAR) * (m // 2) + (D,) * (m % 2)] for m in (6, 7)})
        for m, sequences in samples.items():
            for dirs in sequences:
                expected = Counter(signatures(spl, dirs) for spl in all_splittings(m))
                assert splittings_mod._States(never_zero)[dirs] == expected, dirs

    def test_memoized_states_against_unpruned_oracle(self):
        # one state table per (j, f), so most sequences reuse moves memoized
        # on other prefixes; each count is still the number of splittings
        # whose term is nonzero and whose factors carry the state's signatures
        samples = {m: list(direction_sequences(m)) for m in range(6)}
        samples.update({m: [(D,) * m, (DBAR,) * m, (D, DBAR) * (m // 2) + (D,) * (m % 2)] for m in (6, 7)})
        complex_k = WirtingerPolynomial({(0, 0): GaussianRational(1, 1), (1, 2): GaussianRational("1/2", "-1/3")})
        for conn, j, f in ((CONN2, 1, S * SBAR), (Connection(k=complex_k), 0, S**2 * SBAR)):
            states = splittings_mod._States(splittings_mod._Terms(conn, j, f))
            for m, sequences in samples.items():
                for dirs in sequences:
                    expected = Counter(
                        signatures(spl, dirs)
                        for spl in all_splittings(m)
                        if not splitting_term(spl, dirs, conn, j, f).is_zero
                    )
                    assert states[dirs] == expected, dirs

    def test_cuts_d_dbar_of_s_squared_plus_sbar_squared(self):
        # d dbar (s^2 + sbar^2) = 0, although both separate degrees are 2
        f = S**2 + SBAR**2
        assert max(p for p, _ in f.terms) >= 1 and max(q for _, q in f.terms) >= 1
        single_block = Splitting(2, ((1, 2),), ())
        assert splitting_term(single_block, (D, DBAR), CONN, 0, f).is_zero
        assert signatures(single_block, (D, DBAR)) not in kept_states((D, DBAR), CONN, 0, f)
        assert splitting_expansion(2, (D, DBAR), CONN, 0, f) == unpruned_expansion(2, (D, DBAR), CONN, 0, f)

    def test_flat_connection_cuts_every_marker(self):
        # only the single-block splitting can survive: its one factor is f's
        flat = Connection.flat()
        for dirs in direction_sequences(4):
            states = kept_states(dirs, flat, 1, S**2 * SBAR**2)
            assert states in ({}, {(signature(dirs, 0, (1, 2, 3, 4)),): 1})

    def test_zero_function_cuts_the_root(self):
        assert kept_states((D, D, DBAR), CONN, 0, ZERO) == {}
        assert splitting_expansion(3, (D, D, DBAR), CONN, 0, ZERO).is_zero
        assert IdentitySweep(CONN, 0, ZERO).sides((D, D, DBAR))[1].is_zero

    def test_expansion_route_never_takes_the_direct_route(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the expansion route called the direct route")

        monkeypatch.setattr(Connection, "iterated", refuse)
        monkeypatch.setattr(Connection, "covariant_derivative", refuse)
        dirs = (D, DBAR, D)
        # the expansion side alone: sides() would also take the direct route
        sweep = IdentitySweep(CONN2, 1, S * SBAR)
        expanded = sweep.states.sum(sweep.states[dirs])
        assert expanded == splitting_expansion(3, dirs, CONN2, 1, S * SBAR)
        assert expanded == unpruned_expansion(3, dirs, CONN2, 1, S * SBAR)
        assert check_splitting_recursion(2, dirs, CONN2, 1, S * SBAR)


class TestFactorTable:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 5),
        st.integers(0, 3),
        st.one_of(st.just(ZERO), polynomials),
        st.one_of(st.just(ZERO), polynomials),
        st.data(),
    )
    def test_entries_against_indexed_derivatives(self, m, j, k, f, data):
        # the table derives each factor from its signature alone; the reference
        # applies eta_i for every i in the block, in decreasing and in increasing order
        conn = Connection(k=k)
        dirs = tuple(data.draw(st.sampled_from([D, DBAR])) for _ in range(m))
        terms = splittings_mod._Terms(conn, j, f)
        # the factors of the splittings of every prefix of dirs
        reached = {
            key
            for depth in range(m + 1)
            for spl in all_splittings(depth)
            for key in zip(spl.markers + (0,), spl.blocks)
        }
        for base, block in sorted(reached):
            h = conn.coefficient(j, dirs[base - 1]) if base else f
            decreasing = increasing = h
            for index in reversed(block):
                decreasing = decreasing.derivative(dirs[index - 1])
            for index in block:
                increasing = increasing.derivative(dirs[index - 1])
            assert decreasing == increasing
            entry = terms[(signature(dirs, base, block),)]
            if decreasing.is_zero:
                assert entry is None, (base, block)
            else:
                assert entry == decreasing, (base, block)


class TestRecursion:
    def test_base_case(self):
        # level-1 sums: type-1 part a_1 f, type-2 part eta_1 f
        f = S * SBAR
        assert check_splitting_recursion(0, (D,), CONN, 0, f)

    def test_mixed_directions(self):
        assert check_splitting_recursion(2, (D, DBAR, D), CONN, 2, S)

    def test_flat_connection(self):
        # with k = 0 the type-1 sums vanish and only plain derivatives remain
        flat = Connection.flat()
        for dirs in direction_sequences(3):
            assert check_splitting_recursion(2, dirs, flat, 1, S**2 * SBAR)

    def test_sweep_small_orders(self):
        for m in range(4):
            for dirs in direction_sequences(m + 1):
                for j in (0, 2):
                    assert check_splitting_recursion(m, dirs, CONN, j, S)
                    assert not check_splitting_recursion(m, dirs, CONN, j, S, corrupt=True)

    def test_one_expansion_per_check(self, monkeypatch):
        # one fold of the states: m steps to level m, then one step split by
        # type; the level-(m+1) states are summed once, by type
        steps = []
        step = splittings_mod._States.step
        monkeypatch.setattr(splittings_mod._States, "step", lambda *args: steps.append(args[2]) or step(*args))
        assert check_splitting_recursion(2, (D, DBAR, D), CONN, 1, S)
        assert steps == [D, DBAR, D]


class TestWitness:
    def test_passing_cell_has_no_witness(self):
        assert identity_witness(3, (D, DBAR, D), CONN2, 2, S * SBAR) is None

    def test_corrupt_cell_names_first_difference(self):
        witness = identity_witness(2, (D, DBAR), CONN, 1, S, corrupt=True)
        direct = CONN.iterated(S * FieldSection.basis(1), (D, DBAR)).coefficient(1)
        p, q = min(direct.terms)
        assert witness == {
            "basis_index": 1,
            "p": p,
            "q": q,
            "direct": str(direct.coefficient(p, q)),
            "expansion": str(-direct.coefficient(p, q)),
        }


class TestIdentitySweep:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 4),
        st.integers(0, 3),
        st.one_of(st.just(ZERO), polynomials),
        st.one_of(st.just(ZERO), polynomials),
    )
    def test_sides_against_both_routes(self, m_max, j, k, f):
        conn = Connection(k=k)
        sweep = IdentitySweep(conn, j, f)
        basis = FieldSection.basis(j)
        for m in range(m_max + 1):
            for dirs in direction_sequences(m):
                direct, expanded = sweep.sides(dirs)
                assert direct == conn.iterated(f * basis, dirs), dirs
                assert expanded == splitting_expansion(m, dirs, conn, j, f) * basis, dirs
                assert sweep.sides(dirs, corrupt=True) == (direct, -expanded)
                for corrupt in (False, True):
                    shared = {"corrupt": corrupt, "sweep": sweep}
                    alone = verify_expansion_identity(m, dirs, conn, j, f, corrupt=corrupt)
                    assert verify_expansion_identity(m, dirs, conn, j, f, **shared) == alone
                    alone = identity_witness(m, dirs, conn, j, f, corrupt=corrupt)
                    assert identity_witness(m, dirs, conn, j, f, **shared) == alone

    def test_one_covariant_derivative_per_sequence(self, monkeypatch):
        calls = []
        derivative = Connection.covariant_derivative
        monkeypatch.setattr(
            Connection, "covariant_derivative", lambda *args: calls.append(args[2]) or derivative(*args)
        )
        sweep = IdentitySweep(CONN2, 1, S * SBAR)
        for m in range(5):
            for dirs in direction_sequences(m):
                assert verify_expansion_identity(m, dirs, CONN2, 1, S * SBAR, sweep=sweep)
        assert len(calls) == 2 + 4 + 8 + 16

    def test_one_move_per_distinct_state_and_direction(self, monkeypatch):
        # the default model (g = s*sbar, j in {0, 1, 4}, f in {1, s, s*sbar})
        # to m = 6: 8 964 states over the sweeps, 1 536 distinct moves
        calls = []
        moves = splittings_mod._moves
        monkeypatch.setattr(splittings_mod, "_moves", lambda *args: calls.append(args[:2]) or moves(*args))
        conn = Connection.from_potential(S * SBAR)
        visited = 0
        for j in (0, 1, 4):
            for f in (ONE, S, S * SBAR):
                start = len(calls)
                sweep = IdentitySweep(conn, j, f)
                for m in range(7):
                    for dirs in direction_sequences(m):
                        assert verify_expansion_identity(m, dirs, conn, j, f, sweep=sweep)
                        visited += len(sweep.states[dirs])
                assert len(set(calls[start:])) == len(calls) - start, (j, f)
        assert visited == 8964
        assert len(calls) == 1536

    def test_sweep_of_another_cell_family_is_refused(self):
        sweep = IdentitySweep(CONN, 0, S)
        for conn, j, f in ((CONN2, 0, S), (CONN, 1, S), (CONN, 0, SBAR)):
            with pytest.raises(ValueError):
                verify_expansion_identity(1, (D,), conn, j, f, sweep=sweep)
        assert verify_expansion_identity(1, (D,), Connection(k=SBAR), 0, S + ZERO, sweep=sweep)

    def test_length_mismatch_is_refused(self):
        with pytest.raises(ValueError):
            verify_expansion_identity(2, (D,), CONN, 0, S)
        with pytest.raises(ValueError):
            identity_witness(1, (D, D), CONN, 0, S, sweep=IdentitySweep(CONN, 0, S))


class TestNegativeControl:
    def test_sign_flip_hook_breaks_identity(self):
        assert verify_expansion_identity(2, (D, DBAR), CONN, 0, ONE)
        assert not verify_expansion_identity(2, (D, DBAR), CONN, 0, ONE, corrupt=True)

    def test_sign_flip_hook_breaks_recursion(self):
        assert check_splitting_recursion(1, (D, DBAR), CONN, 0, S)
        assert not check_splitting_recursion(1, (D, DBAR), CONN, 0, S, corrupt=True)
