"""Intersection-closed families: Moebius values, indicator identities,
minimal solutions, module thresholds, and the kernel-tuple translation."""

import gc
import itertools
import random
import tracemalloc
import weakref

import pytest

from posetmetrics import lattices
from posetmetrics.acceptance import _random_intersection_family
from posetmetrics.errors import (
    AllSolutionsTrivial,
    BoundExceeded,
    ValidationError,
)
from posetmetrics.fields import is_prime
from posetmetrics.lattices import (
    FiniteLattice,
    Solution,
    _meet_irreducibles,
    _module_min_length,
    construct_minimal_solution,
    hamming_extension_via_solutions,
    is_solution,
    is_trivial,
    matrix_module_min_length,
    minimal_nontrivial_length,
    minimal_nontrivial_solution,
    moebius,
    moebius_indicator_identity,
    nontrivial_solutions_up_to,
    pointed_boolean_lattice,
    subgroup_indicator_equivalence,
    subspace_lattice,
)
from posetmetrics.mep import extend_to_isometry, preserves_weight
from posetmetrics.posets import Poset, WeightFunction
from posetmetrics.spaces import (
    AlphabetSpec,
    FieldSpec,
    LinearCode,
    enumerate_codes,
    subspace_count,
)

from helpers import linear_maps, moebius_indicator_identity_oracle, subspace_lattice_oracle

S22 = subspace_lattice(2, 2)
FULL22 = frozenset(S22.ground)
ZERO22 = frozenset({(0, 0)})


def boolean_lattice(n):
    """Plain powerset of {1..n}; contains the empty set."""
    ground = tuple(range(1, n + 1))
    members = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(ground, r)]
    return FiniteLattice.from_sets(ground, members)


def binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


# -- frozenset oracles for the bitmask core ----------------------------------------


def pair_check_oracle(ground, members):
    """Validate a family on frozensets, intersecting every ordered pair."""
    ground_set = frozenset(ground)
    if len(ground) != len(ground_set):
        raise ValidationError("ground points must be distinct")
    member_set = set(members)
    if len(member_set) != len(members):
        raise ValidationError("duplicate members")
    if ground_set not in member_set:
        raise ValidationError("the ground set itself must be a member")
    for m in members:
        if not m <= ground_set:
            raise ValidationError("member outside the ground set")
    for a in members:
        for b in members:
            if a & b not in member_set:
                raise ValidationError(
                    f"family is not intersection-closed at {sorted(a)} and {sorted(b)}"
                )


def list_scan_moebius_oracle(lattice):
    """Moebius entries by the downward sieve, with down-sets found by scanning
    every member pair."""
    pos = {x: t for t, x in enumerate(lattice.ground)}
    masks = []
    for m in lattice.members:
        mask = 0
        for x in m:
            mask |= 1 << pos[x]
        masks.append(mask)
    count = len(masks)
    sizes = [bin(m).count("1") for m in masks]
    down_lists = []
    for j in range(count):
        mj = masks[j]
        down = [i for i in range(count) if masks[i] & mj == masks[i]]
        down.sort(key=lambda t: -sizes[t])
        down_lists.append(tuple(down))
    entries = {}
    for j in range(count):
        acc = [0] * count
        for i in down_lists[j]:
            value = 1 if i == j else -acc[i]
            if value:
                entries[(i, j)] = value
                for w in down_lists[i]:
                    if w != i:
                        acc[w] += value
    return entries


def _oracle_lattices():
    yield from (boolean_lattice(n) for n in range(5))
    yield from (pointed_boolean_lattice(n) for n in (0, 1, 2, 3, 4, 6))
    yield from (subspace_lattice(2, k) for k in range(1, 6))
    yield from (subspace_lattice(3, k) for k in range(1, 4))
    rng = random.Random(20260808)  # the criterion-9 families
    yield from (_random_intersection_family(rng) for _ in range(60))


class TestBitmaskCoreAgainstOracles:
    def test_moebius_entries_and_column_order(self):
        for lattice in _oracle_lattices():
            table = moebius(lattice)
            expected = list_scan_moebius_oracle(lattice)
            assert list(table.entries.items()) == list(expected.items())
            grouped = [([], []) for _ in lattice.members]  # the oracle's entries, column by column
            for (i, j), v in expected.items():
                grouped[j][0].append(i)
                grouped[j][1].append(v)
            assert table.columns == [(tuple(below), tuple(values)) for below, values in grouped]
            members = lattice.members
            for j, above in enumerate(members):
                below, values = table.columns[j]
                assert below[0] == j and values[0] == 1
                assert list(below) == sorted(below, key=lambda i: (-len(members[i]), i))
                assert table.column(above) == [(members[i], v) for i, v in zip(below, values)]

    def test_closures(self):
        for lattice in _oracle_lattices():
            members = lattice.members
            by_size = sorted(members, key=len)
            closures = {x: next(m for m in by_size if x in m) for x in lattice.ground}
            assert {x: lattice.closure({x}) for x in lattice.ground} == closures
            assert lattice.non_point_closures() == tuple(
                m for m in members if m not in set(closures.values())
            )
            assert lattice.bottom() == frozenset.intersection(*members)
            assert lattice.contains_empty() == (frozenset() in members)

    def test_closures_of_random_subsets(self):
        rng = random.Random(5)
        for lattice in _oracle_lattices():
            for _ in range(10):
                subset = frozenset(x for x in lattice.ground if rng.random() < 0.3)
                holding = [m for m in lattice.members if subset <= m]
                assert lattice.closure(subset) == frozenset.intersection(*holding)

    def test_meet_irreducibles(self):
        for lattice in _oracle_lattices():
            ground = frozenset(lattice.ground)
            expected = [
                lattice._masks[i]
                for i, m in enumerate(lattice.members)
                if m != ground.intersection(*(a for a in lattice.members if m < a))
            ]
            full = (1 << len(lattice.ground)) - 1
            assert _meet_irreducibles(lattice._masks, lattice._ups, full) == expected

    def test_near_closed_families(self):
        # one meet-reducible member removed breaks closure; one subset added may
        rng = random.Random(13)
        checked = 0
        for lattice in _oracle_lattices():
            ground, members = lattice.ground, list(lattice.members)
            full = (1 << len(ground)) - 1
            irreducible = set(_meet_irreducibles(lattice._masks, lattice._ups, full))
            reducible = [
                m for m, mask in zip(members, lattice._masks)
                if mask not in irreducible and m != frozenset(ground)
            ]
            families = []  # (family, whether the oracle must refuse it)
            if reducible:
                removed = rng.choice(reducible)
                families.append(([m for m in members if m != removed], True))
            subset = frozenset(x for x in ground if rng.random() < 0.5)
            if subset not in members:
                added = members[:]
                added.insert(rng.randint(0, len(members)), subset)
                families.append((added, False))
            for family, must_refuse in families:
                family = tuple(family)
                try:
                    pair_check_oracle(ground, family)
                except ValidationError as exc:
                    with pytest.raises(ValidationError) as info:
                        FiniteLattice(ground, family)
                    assert str(info.value) == str(exc)
                    checked += 1
                else:
                    assert not must_refuse
                    FiniteLattice(ground, family)
        assert checked > 40

    @pytest.mark.parametrize("ground", [(), (1,), (1, 2, 3)])
    def test_ground_only_family(self, ground):
        lattice = FiniteLattice(ground, (frozenset(ground),))
        assert lattice.bottom() == frozenset(ground)
        assert lattice.non_point_closures() == (() if ground else (frozenset(),))
        assert moebius(lattice).entries == {(0, 0): 1}

    def test_validation_messages(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(400):
            size = rng.randint(0, 6)
            ground = list(range(size))
            members = {frozenset(ground)}
            for _ in range(rng.randint(0, 8)):
                members.add(frozenset(x for x in ground if rng.random() < 0.6))
            if rng.random() < 0.05:
                members.add(frozenset({size}))
            members = list(members)
            rng.shuffle(members)
            if members and rng.random() < 0.1:
                members.append(members[0])
            if rng.random() < 0.1:
                members.remove(frozenset(ground))
            if ground and rng.random() < 0.05:
                ground.append(ground[0])
            members = tuple(members)
            try:
                pair_check_oracle(tuple(ground), members)
                expected = None
            except ValidationError as exc:
                expected = str(exc)
            if expected is None:
                FiniteLattice(tuple(ground), members)
            else:
                with pytest.raises(ValidationError) as info:
                    FiniteLattice(tuple(ground), members)
                assert str(info.value) == expected
                checked += 1
        assert checked > 100

    def test_table_is_small_and_builds_no_entries_dict(self):
        lattice = subspace_lattice(2, 6)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = moebius(lattice)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 95,706 nonzero entries in 2825 columns, each column two int tuples
        assert sum(map(len, (below for below, _values in table.columns))) == 95706
        assert grown < 6 * 2**20
        for member in lattice.members:
            assert moebius_indicator_identity(lattice, member)[:2] == (True, True)
        assert minimal_nontrivial_solution(lattice)[0] == 3
        assert _module_min_length(lattice, 2, 2, 6) == 15
        assert "entries" not in vars(table)

    def test_moebius_table_is_kept_on_the_lattice_and_freed_with_it(self):
        lattice = subspace_lattice(2, 3)
        table = moebius(lattice)
        assert moebius(lattice) is table
        assert moebius(subspace_lattice(2, 3)) is not table
        ref = weakref.ref(lattice)
        del lattice, table
        gc.collect()
        assert ref() is None


class TestNonMembers:
    """Each entry point names a set outside the lattice before any other test."""

    LATTICE = pointed_boolean_lattice(2)
    OUTSIDE = frozenset({9})
    MESSAGE = r"^not a lattice member: \[9\]$"

    def test_indicator_identity(self):
        with pytest.raises(ValidationError, match=self.MESSAGE):
            moebius_indicator_identity(self.LATTICE, self.OUTSIDE)

    def test_column(self):
        with pytest.raises(ValidationError, match=self.MESSAGE):
            moebius(self.LATTICE).column(self.OUTSIDE)

    @pytest.mark.parametrize("outside_first", [True, False])
    def test_of(self, outside_first):
        member = self.LATTICE.members[0]
        pair = (self.OUTSIDE, member) if outside_first else (member, self.OUTSIDE)
        with pytest.raises(ValidationError, match=self.MESSAGE):
            moebius(self.LATTICE).of(*pair)

    @pytest.mark.parametrize("lattice", [LATTICE, boolean_lattice(2)], ids=["pointed", "empty"])
    def test_minimal_length_tops(self, lattice):
        tops = [frozenset(lattice.ground), self.OUTSIDE]
        with pytest.raises(ValidationError, match=self.MESSAGE):
            minimal_nontrivial_length(lattice, tops=tops)

    @pytest.mark.parametrize("lattice", [LATTICE, boolean_lattice(2)], ids=["pointed", "empty"])
    def test_construction(self, lattice):
        with pytest.raises(ValidationError, match=self.MESSAGE):
            construct_minimal_solution(lattice, self.OUTSIDE)

    def test_unorderable_points_are_named_by_repr(self):
        with pytest.raises(ValidationError, match=r"^not a lattice member: \['a', 1\]$"):
            moebius(self.LATTICE).column(frozenset({1, "a"}))


class TestLattice:
    def test_requires_ground_member(self):
        with pytest.raises(ValidationError, match="ground set itself"):
            FiniteLattice.from_sets((1, 2), [{1}])

    def test_requires_intersection_closure(self):
        with pytest.raises(ValidationError, match="intersection-closed"):
            FiniteLattice.from_sets((1, 2, 3), [{1, 2}, {2, 3}, {1, 2, 3}])

    def test_closure_of_member_is_itself(self):
        assert S22.closure({(1, 0), (0, 1)}) == FULL22

    def test_closure_of_empty_is_bottom(self):
        assert S22.closure(set()) == S22.bottom() == ZERO22

    def test_closure_of_point_is_its_line(self):
        assert S22.closure({(1, 1)}) == frozenset({(0, 0), (1, 1)})

    def test_non_point_closures(self):
        assert S22.non_point_closures() == (FULL22,)

    def test_from_sets_rejects_points_outside_the_ground(self):
        with pytest.raises(ValidationError, match="outside the ground set"):
            FiniteLattice.from_sets((1, 2), [{1, 2}, {3}])

    def test_boolean_rank_must_be_nonnegative(self):
        with pytest.raises(ValidationError, match="n must be >= 0"):
            pointed_boolean_lattice(-3)


# every F_q^k of at most 81 points, as criterion 9 and the bench check them,
# and three larger ones, among them the largest admitted plane
ORACLE_SPACES = [
    (q, k) for q in range(2, 82) if is_prime(q) for k in range(1, 7) if q**k <= 81
] + [(61, 2), (7, 3), (3, 5)]


class TestSubspaceLatticeOracle:
    @pytest.mark.parametrize("q,k", ORACLE_SPACES)
    def test_members_from_indices_equal_the_codeword_oracle(self, q, k):
        lattice, oracle = subspace_lattice(q, k), subspace_lattice_oracle(q, k)
        assert lattice == oracle
        assert lattice.ground == oracle.ground
        assert lattice.members == oracle.members
        # the members share the ground's vector tuples
        ground = {id(v) for v in lattice.ground}
        assert all(id(v) in ground for member in lattice.members for v in member)

    @pytest.mark.parametrize("q,k", [(2, 7), (2, 13)])
    def test_bounds_refuse_before_any_work(self, monkeypatch, q, k):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the bound check")

        monkeypatch.setattr(FiniteLattice, "_build", no_work)
        for name in ("enumerate_codes", "dot_values", "FiniteLattice"):
            monkeypatch.setattr(lattices, name, no_work)
        with pytest.raises(BoundExceeded):
            subspace_lattice(q, k)


def derived_tables(lattice):
    """Every table the lattice derives, those built on first use included,
    with each member's points as a set: the trusted entry takes them sorted,
    the constructor in the member's iteration order."""
    names = ("_pos", "_masks", "_holders", "_ups", "_up_index", "_member_index",
             "_point_closure_masks", "_generators")
    return {
        "_points": [frozenset(p) for p in lattice._points],
        "columns": moebius(lattice).columns,
        **{name: getattr(lattice, name) for name in names},
    }


BUILT_LATTICES = [
    pytest.param(subspace_lattice, (q, k), id=f"subspace-{q}-{k}") for q, k in ORACLE_SPACES
] + [pytest.param(pointed_boolean_lattice, (n,), id=f"boolean-{n}") for n in range(7)]


class TestTrustedEntryAgainstTheConstructor:
    """The validating constructor, reached through from_sets so that the
    member order is checked too, is the oracle of FiniteLattice._from_points."""

    @pytest.mark.parametrize("build, args", BUILT_LATTICES)
    def test_equal_in_value_and_in_every_table(self, build, args):
        trusted = build(*args)
        validated = FiniteLattice.from_sets(trusted.ground, trusted.members)
        assert trusted == validated
        assert derived_tables(trusted) == derived_tables(validated)


class TestFromSetsMemberBound:
    def test_refused_before_sorting_or_validating(self, monkeypatch):
        family = pointed_boolean_lattice(3)
        monkeypatch.setattr(lattices, "MEMBER_BOUND", 8)
        # nine listed members, eight distinct
        listed = [*family.members, set(family.members[0])]
        assert FiniteLattice.from_sets(family.ground, listed) == family

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the member bound check")

        monkeypatch.setattr(FiniteLattice, "__init__", no_work)
        monkeypatch.setattr(lattices, "sorted", no_work, raising=False)
        # the empty set keeps the family intersection-closed
        with pytest.raises(BoundExceeded, match="9 distinct members, over the member bound 8"):
            FiniteLattice.from_sets(family.ground, [*family.members, ()])


class TestBoundsBeforeWork:
    def test_member_bound_admits_the_binary_six_space(self):
        lattice = subspace_lattice(2, 6)
        assert len(lattice.members) == subspace_count(6, 2) == 2825
        assert minimal_nontrivial_length(lattice) == 3

    def test_subspace_member_bound(self):
        with pytest.raises(BoundExceeded, match="29212 subspaces, over the member bound 4096"):
            subspace_lattice(2, 7)

    def test_subspace_point_bound_without_the_power(self):
        with pytest.raises(BoundExceeded, match="2\\^13 points"):
            subspace_lattice(2, 13)
        with pytest.raises(BoundExceeded, match="over the bound 4096"):
            subspace_lattice(3, 10**15)

    def test_subspace_dimension_and_field(self):
        with pytest.raises(ValidationError, match=r"^k must be >= 1, got -1$"):
            subspace_lattice(0, -1)
        with pytest.raises(ValidationError, match="not prime"):
            subspace_lattice(4, 2)

    def test_pointed_boolean_member_bound(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the bound check")

        monkeypatch.setattr(FiniteLattice, "_build", no_work)
        with pytest.raises(BoundExceeded, match="2\\^30 members"):
            pointed_boolean_lattice(30)


class TestMoebius:
    def test_two_element_chain(self):
        chain = FiniteLattice.from_sets((1, 2), [{1}, {1, 2}])
        assert moebius(chain).of(frozenset({1}), frozenset({1, 2})) == -1

    def test_boolean_closed_form(self):
        lattice = boolean_lattice(3)
        table = moebius(lattice)
        for a in lattice.members:
            for b in lattice.members:
                expected = (-1) ** len(b - a) if a <= b else 0
                assert table.of(a, b) == expected

    @pytest.mark.parametrize("q,k", [(2, 3), (3, 2)])
    def test_subspace_closed_form(self, q, k):
        # oracle: alternating prime powers with exponent d choose 2
        lattice = subspace_lattice(q, k)
        table = moebius(lattice)

        def dim(member):
            size, d = len(member), 0
            while size > 1:
                size //= q
                d += 1
            return d

        for below in lattice.members:
            for above in lattice.members:
                if below <= above:
                    d = dim(above) - dim(below)
                    expected = (-1) ** d * q ** binomial(d, 2)
                else:
                    expected = 0
                assert table.of(below, above) == expected

    def test_plane_value_is_field_size(self):
        assert moebius(S22).of(ZERO22, FULL22) == 2
        s32 = subspace_lattice(3, 2)
        assert moebius(s32).of(frozenset({(0, 0)}), frozenset(s32.ground)) == 3

    def test_interval_sums_vanish_both_ways(self):
        lattice = pointed_boolean_lattice(3)
        table = moebius(lattice)
        for low in lattice.members:
            for high in lattice.members:
                if low < high:
                    inside = [m for m in lattice.members if low <= m <= high]
                    assert sum(table.of(m, high) for m in inside) == 0
                    assert sum(table.of(low, m) for m in inside) == 0

    def test_inversion_round_trip(self):
        rng = random.Random(7)
        lattice = subspace_lattice(2, 2)
        table = moebius(lattice)
        f = {m: rng.randint(-5, 5) for m in lattice.members}
        g = {m: sum(f[e] for e in lattice.members if m <= e) for m in lattice.members}
        for m in lattice.members:
            recovered = sum(
                table.of(m, e) * g[e] for e in lattice.members if m <= e
            )
            assert recovered == f[m]

    def test_mass_splits_evenly_above_bottom(self):
        for lattice in (S22, subspace_lattice(3, 2), pointed_boolean_lattice(3)):
            table = moebius(lattice)
            bottom = lattice.bottom()
            for member in lattice.members:
                if member == bottom:
                    continue
                values = [
                    table.of(below, member)
                    for below in lattice.members
                    if below <= member
                ]
                assert sum(values) == 0
                positive = sum(v for v in values if v > 0)
                negative = -sum(v for v in values if v < 0)
                assert positive == negative == sum(map(abs, values)) // 2


def _perturbed(lattice, columns):
    """The lattice with its Moebius table replaced by the given columns."""
    out = FiniteLattice(lattice.ground, lattice.members)
    object.__setattr__(out, "_moebius", lattices.MoebiusTable(out, columns))
    return out


# each perturbation of a column (below, values) breaks the identity or the
# split equation somewhere, so both checks' failing sides are compared too
PERTURBATIONS = [
    lambda below, values: (below[:-1], values[:-1]),
    lambda below, values: (below, tuple(-v for v in values)),
    lambda below, values: tuple(zip(*[(i, v) for i, v in zip(below, values) if v > 0])),
    lambda below, values: (below, tuple(2 * v for v in values)),
]


class TestIndicatorIdentityAgainstTheGroundScan:
    def test_every_member_of_the_grid(self):
        rng = random.Random(20261020)
        grid = [*_oracle_lattices(), *(_random_intersection_family(rng) for _ in range(20))]
        for lattice in grid:
            for member in lattice.members:
                assert moebius_indicator_identity(lattice, member) == (
                    moebius_indicator_identity_oracle(lattice, member)
                )

    @pytest.mark.parametrize("perturb", range(len(PERTURBATIONS)))
    def test_perturbed_tables(self, perturb):
        rng = random.Random(perturb)
        grid = [S22, subspace_lattice(3, 2), pointed_boolean_lattice(3),
                *(_random_intersection_family(rng) for _ in range(20))]
        outcomes = set()
        for lattice in grid:
            columns = [PERTURBATIONS[perturb](*column) for column in moebius(lattice).columns]
            broken = _perturbed(lattice, [c if c else ((), ()) for c in columns])
            for member in broken.members:
                result = moebius_indicator_identity(broken, member)
                assert result == moebius_indicator_identity_oracle(broken, member)
                outcomes.add(result[:2])
        assert outcomes - {(True, True)}


class TestIndicatorIdentity:
    def test_line_is_generated(self):
        identity_ok, split_ok, generators = moebius_indicator_identity(
            S22, frozenset({(0, 0), (1, 0)})
        )
        assert identity_ok and split_ok and generators == {(1, 0)}

    def test_plane_has_no_generator(self):
        identity_ok, split_ok, generators = moebius_indicator_identity(S22, FULL22)
        assert identity_ok and split_ok and generators == frozenset()

    def test_random_families(self):
        rng = random.Random(99)
        for _ in range(40):
            size = rng.randint(1, 6)
            ground = tuple(range(size))
            members = {frozenset(ground)}
            for _ in range(rng.randint(1, 7)):
                members.add(frozenset(x for x in ground if rng.random() < 0.5))
            stable = False
            while not stable:
                stable = True
                for a in list(members):
                    for b in list(members):
                        if a & b not in members:
                            members.add(a & b)
                            stable = False
            lattice = FiniteLattice.from_sets(ground, members)
            for member in lattice.members:
                identity_ok, split_ok, _ = moebius_indicator_identity(lattice, member)
                assert identity_ok and split_ok


class TestSolutions:
    def test_identical_sides_are_trivial(self):
        s = Solution((frozenset({1}),), (frozenset({1}),))
        assert is_solution(s) and is_trivial(s)

    def test_reordered_sides_are_trivial(self):
        a, b = frozenset({1}), frozenset({2})
        s = Solution((a, b), (b, a))
        assert is_solution(s) and is_trivial(s)

    def test_empty_member_breaks_the_length_law(self):
        # with the empty set allowed, sides of different lengths can balance
        s = Solution((frozenset(),), ())
        assert is_solution(s) and not is_trivial(s)
        assert s.length == (1, 0)

    def test_equal_length_law_without_empty(self):
        hits = list(nontrivial_solutions_up_to(S22, 3, include_unequal=True))
        assert hits and all(h.length[0] == h.length[1] for h in hits)

    def test_restriction_stability(self):
        solution = construct_minimal_solution(S22, FULL22)
        rng = random.Random(3)
        for _ in range(20):
            window = frozenset(x for x in S22.ground if rng.random() < 0.6)
            restricted = Solution(
                tuple(s & window for s in solution.left),
                tuple(s & window for s in solution.right),
            )
            assert is_solution(restricted)


class TestConstruction:
    def test_plane_solution_layout(self):
        solution = construct_minimal_solution(S22, FULL22)
        assert solution.length == (3, 3)
        # negative side: the three lines; positive side: the plane plus bottom twice
        assert sorted(len(s) for s in solution.left) == [2, 2, 2]
        assert sorted(len(s) for s in solution.right) == [1, 1, 4]

    def test_rejects_generated_members(self):
        with pytest.raises(ValidationError, match="generated"):
            construct_minimal_solution(S22, frozenset({(0, 0), (1, 0)}))

    def test_rejects_families_with_the_empty_set(self):
        with pytest.raises(ValidationError, match="empty"):
            construct_minimal_solution(boolean_lattice(2), frozenset({1, 2}))

    def test_three_element_field_gives_length_four(self):
        lattice = subspace_lattice(3, 2)
        solution = construct_minimal_solution(lattice, frozenset(lattice.ground))
        assert solution.length == (4, 4)
        assert is_solution(solution) and not is_trivial(solution)


class TestMinimalLength:
    def test_binary_plane(self):
        assert minimal_nontrivial_length(S22) == 3

    def test_five_element_field_plane(self):
        assert minimal_nontrivial_length(subspace_lattice(5, 2)) == 6

    def test_pointed_boolean(self):
        lattice = pointed_boolean_lattice(2)
        assert minimal_nontrivial_length(lattice) == 2
        assert lattice.non_point_closures() == (frozenset({0, 1, 2}),)

    def test_all_trivial_signal(self):
        chain = FiniteLattice.from_sets((1, 2), [{1}, {1, 2}])
        with pytest.raises(AllSolutionsTrivial):
            minimal_nontrivial_length(chain)

    def test_solution_helper_returns_the_argmin(self):
        length, top, solution = minimal_nontrivial_solution(S22)
        assert length == 3 and top == FULL22 and solution.length == (3, 3)

    def test_exhaustive_search_confirms_binary_minimum(self):
        assert not list(nontrivial_solutions_up_to(S22, 2))
        found = next(iter(nontrivial_solutions_up_to(S22, 3)))
        assert found.length == (3, 3)

    def test_search_caps(self):
        with pytest.raises(BoundExceeded):
            list(nontrivial_solutions_up_to(subspace_lattice(2, 3), 2))


class TestModuleThreshold:
    @pytest.mark.parametrize(
        "q,e,k,expected", [(2, 1, 2, 3), (3, 1, 2, 4), (5, 1, 2, 6), (2, 2, 3, 15)]
    )
    def test_product_formula(self, q, e, k, expected):
        assert matrix_module_min_length(q, e, k) == expected

    def test_wider_cyclic_cutoff_raises_the_threshold(self):
        # the plain lattice bottoms out at the planes; the rank-2 cutoff does not
        assert minimal_nontrivial_length(subspace_lattice(2, 3)) == 3
        assert matrix_module_min_length(2, 2, 3) == 15

    def test_built_lattice_keeps_its_table(self):
        lattice = subspace_lattice(2, 3)
        table = moebius(lattice)
        assert _module_min_length(lattice, 2, 2, 3) == 15
        assert moebius(lattice) is table

    def test_requires_a_non_cyclic_submodule(self):
        with pytest.raises(ValidationError):
            matrix_module_min_length(2, 2, 2)

    def test_requires_a_positive_rank(self):
        for e in (0, -1):
            with pytest.raises(ValidationError, match="rank e must be at least 1"):
                matrix_module_min_length(2, e, 3)


class TestSubgroupIndicators:
    def test_equal_pairs(self):
        space = AlphabetSpec.uniform(FieldSpec(2), ("x", "y"), 1)
        a = LinearCode.from_rows(space, [(1, 0)])
        b = LinearCode.from_rows(space, [(0, 1)])
        assert subgroup_indicator_equivalence(a, b, a, b) == (True, True, True)
        assert subgroup_indicator_equivalence(a, b, b, a) == (True, True, True)

    def test_full_group_everywhere(self):
        space = AlphabetSpec.uniform(FieldSpec(2), ("x", "y"), 1)
        g = LinearCode.full(space)
        assert subgroup_indicator_equivalence(g, g, g, g) == (True, True, True)

    def test_mixed_lines_fail_together(self):
        space = AlphabetSpec.uniform(FieldSpec(2), ("x", "y"), 1)
        l1 = LinearCode.from_rows(space, [(1, 0)])
        l2 = LinearCode.from_rows(space, [(0, 1)])
        l3 = LinearCode.from_rows(space, [(1, 1)])
        assert subgroup_indicator_equivalence(l1, l2, l1, l3) == (False, False, False)

    def test_exhaustive_quadruples_agree(self):
        space = AlphabetSpec.uniform(FieldSpec(2), ("x", "y"), 1)
        codes = list(enumerate_codes(space))
        for a, b, c, d in itertools.product(codes, repeat=4):
            verdicts = subgroup_indicator_equivalence(a, b, c, d)
            assert len(set(verdicts)) == 1


class TestHammingExtension:
    def test_identity_is_trivial(self):
        space = AlphabetSpec.uniform(FieldSpec(2), ("1", "2"), 2)
        code = LinearCode.from_rows(space, [(1, 0, 1, 0)])
        record, preserved, trivial = hamming_extension_via_solutions(space, code, code.basis)
        assert preserved and trivial

    def test_two_blocks_always_trivial(self):
        poset = Poset.antichain(("1", "2"))
        space = AlphabetSpec.uniform(FieldSpec(2), poset.elements, 2)
        omega = WeightFunction.ones(poset.elements)
        for code in enumerate_codes(space, max_dim=2):
            if code.dim == 0:
                continue
            for images in linear_maps(code, space):
                record, preserved, trivial = hamming_extension_via_solutions(
                    space, code, images
                )
                assert preserved == preserves_weight(space, poset, omega, code, images)
                if preserved:
                    assert trivial

    def test_three_blocks_counterexample_is_nontrivial(self):
        poset = Poset.antichain(("1", "2", "3"))
        space = AlphabetSpec.uniform(FieldSpec(2), poset.elements, 2)
        omega = WeightFunction.ones(poset.elements)
        # kernel construction: embed a plane so the three block kernels are its
        # three distinct lines, then map it isomorphically onto two blocks
        code = LinearCode.from_rows(space, [(1, 0, 0, 0, 1, 0), (0, 0, 1, 0, 1, 0)])
        images = ((0, 1, 0, 1, 0, 0), (1, 0, 1, 0, 0, 0))
        record, preserved, trivial = hamming_extension_via_solutions(space, code, images)
        assert preserved and not trivial
        assert record.length == (3, 3)
        assert preserves_weight(space, poset, omega, code, images)
        assert extend_to_isometry(space, poset, omega, code, images) is None

    def test_extension_flag_matches_group_search(self):
        poset = Poset.antichain(("1", "2"))
        space = AlphabetSpec.uniform(FieldSpec(2), poset.elements, 1)
        omega = WeightFunction.ones(poset.elements)
        for code in enumerate_codes(space):
            if code.dim == 0:
                continue
            for images in linear_maps(code, space):
                record, preserved, trivial = hamming_extension_via_solutions(
                    space, code, images
                )
                if preserved:
                    extension = extend_to_isometry(space, poset, omega, code, images)
                    assert trivial == (extension is not None)

    def test_requires_equal_dims(self):
        space = AlphabetSpec(FieldSpec(2), ("1", "2"), (1, 2))
        with pytest.raises(ValidationError):
            hamming_extension_via_solutions(space, LinearCode.zero(space), ())
