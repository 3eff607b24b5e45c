"""Poset core: ideals, levels, hierarchy, automorphisms, UDP, weights."""

import gc
import importlib
import inspect
import itertools
import pkgutil
import random
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetmetrics
from posetmetrics.errors import BoundExceeded, ValidationError
from posetmetrics.posets import (
    AUTOMORPHISM_BOUND,
    ELEMENT_BOUND,
    SCAN_BOUND,
    _find_cycle,
    Poset,
    WeightFunction,
    all_posets_on,
    compose_perms,
    invert_perm,
    powers_of_two_weight,
    udp_check,
    weight_preserving_automorphisms,
)

CHAIN3 = Poset.chain(("1", "2", "3"))
ANTI2 = Poset.antichain(("1", "2"))
MIXED = Poset.from_covers(("a", "b", "c"), [("a", "b")])
THREE = list(all_posets_on(("a", "b", "c")))


class TestConstruction:
    def test_cycle_rejected_with_witness(self):
        with pytest.raises(ValidationError, match="cycle"):
            Poset.from_covers(("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a")])

    def test_unknown_cover_label(self):
        with pytest.raises(ValidationError, match="unknown"):
            Poset.from_covers(("a",), [("a", "z")])

    def test_non_transitive_matrix_rejected(self):
        leq = ((True, True, False), (False, True, True), (False, False, True))
        with pytest.raises(ValidationError, match="transitive"):
            Poset(("a", "b", "c"), leq)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            Poset.antichain(("a", "a"))


class TestIdeals:
    def test_closure_of_chain_top_is_whole_chain(self):
        assert CHAIN3.ideal_closure({"3"}) == {"1", "2", "3"}

    def test_closure_of_empty_set(self):
        assert CHAIN3.ideal_closure(set()) == frozenset()

    def test_closure_mixed_example(self):
        assert MIXED.ideal_closure({"b", "c"}) == {"a", "b", "c"}

    def test_closure_unknown_label(self):
        with pytest.raises(ValidationError):
            CHAIN3.ideal_closure({"9"})

    def test_antichain_ideals_are_all_subsets(self):
        assert set(ANTI2.all_ideals()) == {
            frozenset(),
            frozenset({"1"}),
            frozenset({"2"}),
            frozenset({"1", "2"}),
        }

    def test_chain_ideals_are_prefixes(self):
        assert [sorted(i) for i in CHAIN3.all_ideals()] == [
            [],
            ["1"],
            ["1", "2"],
            ["1", "2", "3"],
        ]

    def test_mixed_poset_has_six_ideals(self):
        assert len(MIXED.all_ideals()) == 6
        assert MIXED.all_ideals() == oracle_all_ideals(MIXED)

    @pytest.mark.parametrize("poset", THREE, ids=lambda p: repr(p.leq))
    def test_ideal_enumeration_matches_filter(self, poset):
        assert poset.all_ideals() == oracle_all_ideals(poset)

    def test_closure_is_smallest_ideal_containing(self):
        for poset in THREE:
            ideals = poset.all_ideals()
            n = len(poset.elements)
            for mask in range(1 << n):
                subset = frozenset(poset.elements[i] for i in range(n) if mask >> i & 1)
                containing = [i for i in ideals if subset <= i]
                smallest = min(containing, key=len)
                assert poset.ideal_closure(subset) == smallest


class TestLevels:
    def test_antichain_single_level(self):
        assert ANTI2.level_sets() == (frozenset({"1", "2"}),)
        assert all(ANTI2.level(e) == 1 for e in ANTI2.elements)

    def test_chain_levels(self):
        assert [CHAIN3.level(e) for e in CHAIN3.elements] == [1, 2, 3]

    def test_mixed_levels(self):
        assert MIXED.level_sets() == (frozenset({"a", "c"}), frozenset({"b"}))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            CHAIN3.level("z")


class TestHierarchy:
    def test_chain_hierarchical(self):
        assert CHAIN3.is_hierarchical

    def test_antichain_hierarchical(self):
        assert ANTI2.is_hierarchical

    def test_mixed_witness(self):
        assert MIXED.hierarchy_violation() == ("c", "b")

    @pytest.mark.parametrize("poset", THREE, ids=lambda p: repr(p.leq))
    def test_level_formulation_agrees(self, poset):
        # alternative predicate: every lower-level element below every higher one
        levels = poset.level_sets()
        alt = all(
            poset.leq[poset.index(u)][poset.index(v)]
            for r, s in itertools.combinations(range(len(levels)), 2)
            for u in levels[r]
            for v in levels[s]
        )
        assert alt == poset.is_hierarchical


class TestDual:
    def test_antichain_self_dual(self):
        assert ANTI2.dual() == ANTI2

    def test_chain_dual_reverses(self):
        c = Poset.chain(("1", "2"))
        assert c.dual().leq == ((True, False), (True, True))

    @pytest.mark.parametrize("poset", THREE, ids=lambda p: repr(p.leq))
    def test_dual_involution(self, poset):
        assert poset.dual().dual() == poset


class TestAutomorphisms:
    def test_chain_is_rigid(self):
        assert CHAIN3.automorphisms() == ((0, 1, 2),)

    def test_antichain_full_symmetric_group(self):
        anti4 = Poset.antichain(("a", "b", "c", "d"))
        assert len(anti4.automorphisms()) == 24

    def test_mixed_only_identity(self):
        assert MIXED.automorphisms() == ((0, 1, 2),)

    def test_size_cap(self):
        big = Poset.antichain(tuple("abcdefghi"))
        with pytest.raises(BoundExceeded):
            big.automorphisms()

    def test_refusal_names_the_estimate_and_the_bound(self):
        # nine unrelated elements share one signature: 9! candidates
        big = Poset.antichain(tuple("abcdefghi"))
        with pytest.raises(BoundExceeded) as info:
            big.automorphisms()
        assert str(info.value) == (
            "automorphism search over 362880 candidate permutations exceeds the bound 40320"
        )

    def test_every_eight_element_poset_is_still_searched(self):
        assert AUTOMORPHISM_BOUND == 40320  # 8!, the most any 8-element poset can need
        anti8 = Poset.antichain(LABELS)
        assert anti8.automorphisms() == tuple(itertools.permutations(range(8)))

    def test_large_posets_with_small_symmetry(self):
        chain = Poset.chain([f"e{t}" for t in range(ELEMENT_BOUND)])
        assert chain.automorphisms() == (tuple(range(ELEMENT_BOUND)),)
        # two 6-chains side by side: classes of size 2, so 2^6 candidates
        left, right = [f"l{t}" for t in range(6)], [f"r{t}" for t in range(6)]
        covers = list(zip(left, left[1:])) + list(zip(right, right[1:]))
        twins = Poset.from_covers(left + right, covers)
        assert twins.automorphisms() == (tuple(range(12)), tuple(range(6, 12)) + tuple(range(6)))

    @pytest.mark.parametrize("poset", THREE, ids=lambda p: repr(p.leq))
    def test_group_axioms_and_level_preservation(self, poset):
        autos = set(poset.automorphisms())
        identity = tuple(range(len(poset.elements)))
        assert identity in autos
        for a in autos:
            assert invert_perm(a) in autos
            for b in autos:
                assert compose_perms(a, b) in autos
        for a in autos:
            for i, e in enumerate(poset.elements):
                assert poset.level(poset.elements[a[i]]) == poset.level(e)


class TestUdp:
    def test_unit_weights_match_hierarchy_small(self):
        for n in range(1, 5):
            for poset in all_posets_on(tuple("abcd")[:n]):
                holds, witness = udp_check(poset, WeightFunction.ones(poset.elements))
                assert holds == poset.is_hierarchical
                if not holds:
                    assert witness is not None

    def test_orbit_scan_is_refused_past_the_bound(self, monkeypatch):
        # three unrelated labels: 3! automorphisms over the classes of sums 1 and 2
        anti3, ones = Poset.antichain("abc"), WeightFunction.ones("abc")
        monkeypatch.setattr(posetmetrics.posets, "SCAN_BOUND", 12)
        assert udp_check(anti3, ones) == (True, None)
        monkeypatch.setattr(posetmetrics.posets, "SCAN_BOUND", 11)
        message = "^orbit scan of 6 automorphisms over 2 weight classes exceeds the bound 11$"
        with pytest.raises(BoundExceeded, match=message):
            udp_check(anti3, ones)

    def test_orbit_scan_admits_every_eight_element_poset(self):
        # at most 8! automorphisms over fewer than 2^8 classes
        assert SCAN_BOUND == AUTOMORPHISM_BOUND * 2**8
        assert udp_check(Poset.antichain(LABELS), WeightFunction.ones(LABELS)) == (True, None)

    def test_distinct_weights_on_antichain(self):
        omega = WeightFunction.from_map({"1": 1, "2": 2})
        assert udp_check(ANTI2, omega) == (True, None)

    def test_mixed_fails_with_replayable_witness(self):
        omega = WeightFunction.ones(MIXED.elements)
        holds, witness = udp_check(MIXED, omega)
        assert not holds
        first, second = witness
        assert omega.total(first) == omega.total(second)
        perms = weight_preserving_automorphisms(MIXED, omega)
        assert all(MIXED.apply_perm(p, first) != second for p in perms)


class TestWeights:
    def test_scaled_by_the_lcm_of_the_denominators(self):
        w = WeightFunction.from_map({"a": "1/3", "b": "3/4", "c": 2})
        assert w.scaled("cab") == (24, 4, 9)
        assert w == WeightFunction.from_map({"a": "1/3", "b": "3/4", "c": 2})
        assert "_scaled" not in repr(w)
        with pytest.raises(ValidationError, match="unknown label 'z'"):
            w.scaled("az")

    def test_label_positions_stay_out_of_eq_hash_and_repr(self):
        w = WeightFunction.from_map({"a": "1/3", "b": "3/4", "c": 2})
        assert w._pos == {"a": 0, "b": 1, "c": 2}
        assert "_pos" not in repr(w)
        assert hash(w) == hash(WeightFunction(w.labels, w.values))
        assert w.of("b") == Fraction(3, 4)
        with pytest.raises(ValidationError, match="^unknown label 'z'$"):
            w.of("z")
        with pytest.raises(ValidationError, match="^unknown label 'z'$"):
            w.total({"a", "z"})

    def test_positive_required(self):
        with pytest.raises(ValidationError):
            WeightFunction.from_map({"a": 0})

    def test_fraction_strings(self):
        w = WeightFunction.from_map({"a": "1/3", "b": 2})
        assert w.of("a") == Fraction(1, 3)
        assert w.total({"a", "b"}) == Fraction(7, 3)

    def test_powers_of_two_values(self):
        assert powers_of_two_weight(CHAIN3).values == (
            Fraction(1),
            Fraction(2),
            Fraction(4),
        )

    def test_powers_of_two_distinct_subset_sums(self):
        w = powers_of_two_weight(Poset.antichain(tuple("abcde")))
        sums = set()
        for r in range(6):
            for combo in itertools.combinations("abcde", r):
                total = w.total(combo)
                assert total not in sums
                sums.add(total)


class TestGenerator:
    def test_labeled_poset_counts(self):
        assert len(list(all_posets_on(("a",)))) == 1
        assert len(list(all_posets_on(("a", "b")))) == 3
        assert len(THREE) == 19
        assert len(list(all_posets_on(("a", "b", "c", "d")))) == 219


FOUR = list(all_posets_on(("a", "b", "c", "d")))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closure_properties_random(data):
    poset = data.draw(st.sampled_from(FOUR))
    n = len(poset.elements)
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    subset = frozenset(poset.elements[i] for i in range(n) if mask >> i & 1)
    closed = poset.ideal_closure(subset)
    assert subset <= closed
    assert poset.ideal_closure(closed) == closed
    other_mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    larger = subset | frozenset(
        poset.elements[i] for i in range(n) if other_mask >> i & 1
    )
    assert closed <= poset.ideal_closure(larger)


# -- the matrix implementations the bitmask core replaced, kept as oracles ------


def oracle_validation_error(elements, leq):
    """The triple-loop validator: the message of the first failed check, or None."""
    n = len(elements)
    if len(set(elements)) != n:
        return "poset labels must be distinct"
    if len(leq) != n or any(len(row) != n for row in leq):
        return "relation matrix shape must match the label count"
    for i in range(n):
        if not leq[i][i]:
            return f"relation is not reflexive at {elements[i]!r}"
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return (
                    f"relation is not antisymmetric: {elements[i]!r} and "
                    f"{elements[j]!r} are mutually comparable"
                )
    for i in range(n):
        for j in range(n):
            if not leq[i][j]:
                continue
            for k in range(n):
                if leq[j][k] and not leq[i][k]:
                    return (
                        f"relation is not transitive at "
                        f"({elements[i]!r}, {elements[j]!r}, {elements[k]!r})"
                    )
    return None


def oracle_is_transitive(leq):
    n = len(leq)
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        return False
    return True


def oracle_all_posets_on(labels):
    """The relations of the labeled posets, filtered by the old transitivity test."""
    n = len(labels)
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), state in zip(pairs, states):
            if state == 1:
                leq[i][j] = True
            elif state == 2:
                leq[j][i] = True
        if oracle_is_transitive(leq):
            yield tuple(tuple(row) for row in leq)


def oracle_warshall(n, strict_pairs):
    """Reflexive-transitive closure of index pairs, as a boolean matrix."""
    below = [[i == j for j in range(n)] for i in range(n)]
    for i, j in strict_pairs:
        below[i][j] = True
    for k in range(n):
        for i in range(n):
            if below[i][k]:
                for j in range(n):
                    if below[k][j]:
                        below[i][j] = True
    return tuple(tuple(row) for row in below)


def oracle_find_cycle(adjacency):
    """The stack-and-parent DFS: a directed cycle, closing node repeated, or None."""
    n = len(adjacency)
    color = [0] * n  # 0 unseen, 1 on stack, 2 done
    parent = [-1] * n
    for root in range(n):
        if color[root]:
            continue
        stack = [(root, iter(adjacency[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 0:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
                if color[nxt] == 1:
                    path = [node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        path.append(cur)
                    path.reverse()
                    path.append(path[0])
                    return path
            if not advanced:
                color[node] = 2
                stack.pop()
    return None


def oracle_ideal_closure(poset, subset):
    idxs = [poset.index(b) for b in subset]
    n = len(poset.elements)
    return frozenset(poset.elements[i] for j in idxs for i in range(n) if poset.leq[i][j])


def oracle_all_ideals(poset):
    n = len(poset.elements)
    ideals = []
    for mask in range(1 << n):
        subset = frozenset(poset.elements[i] for i in range(n) if mask >> i & 1)
        if oracle_ideal_closure(poset, subset) == subset:
            ideals.append(subset)
    return tuple(sorted(ideals, key=lambda s: (len(s), sorted(poset.index(x) for x in s))))


def oracle_levels(poset):
    n = len(poset.elements)
    memo = {}

    def depth(j):
        if j not in memo:
            memo[j] = max([depth(i) + 1 for i in range(n) if i != j and poset.leq[i][j]], default=1)
        return memo[j]

    return tuple(depth(j) for j in range(n))


def oracle_hierarchy_violation(poset):
    levels = oracle_levels(poset)
    n = len(poset.elements)
    for i in range(n):
        for j in range(n):
            if levels[i] + 1 <= levels[j] and not poset.leq[i][j]:
                return (poset.elements[i], poset.elements[j])
    return None


def oracle_automorphisms(poset):
    n = len(poset.elements)
    leq = poset.leq
    return tuple(
        perm
        for perm in itertools.permutations(range(n))
        if all(leq[i][j] == leq[perm[i]][perm[j]] for i in range(n) for j in range(n))
    )


def oracle_udp_check(poset, omega, ideals, autos):
    """The frozenset/Fraction check the mask core replaced, given the poset's
    oracle ideals and automorphisms."""
    by_sum = {}
    for ideal in ideals:
        by_sum.setdefault(omega.total(ideal), []).append(ideal)
    shared = [by_sum[total] for total in sorted(by_sum) if len(by_sum[total]) > 1]
    if not shared:
        return True, None
    values = tuple(omega.of(e) for e in poset.elements)
    perms = [p for p in autos if all(values[p[i]] == values[i] for i in range(len(values)))]
    for base, *others in shared:
        orbit = {poset.apply_perm(p, base) for p in perms}
        for other in others:
            if other not in orbit:
                return False, (base, other)
    return True, None


def assert_agrees_with_oracles(poset):
    n = len(poset.elements)
    for mask in range(1 << n):
        subset = [poset.elements[i] for i in range(n) if mask >> i & 1]
        assert poset.ideal_closure(subset) == oracle_ideal_closure(poset, subset)
    assert poset.all_ideals() == oracle_all_ideals(poset)
    levels = oracle_levels(poset)
    assert tuple(poset.level(e) for e in poset.elements) == levels
    assert poset.level_sets() == tuple(
        frozenset(e for e, l in zip(poset.elements, levels) if l == r)
        for r in range(1, max(levels) + 1)
    )
    assert poset.hierarchy_violation() == oracle_hierarchy_violation(poset)
    assert poset.automorphisms() == oracle_automorphisms(poset)


LABELS = tuple("abcdefgh")
UP_TO_FIVE = [p for n in range(1, 6) for p in all_posets_on(LABELS[:n])]


class TestBitmaskCoreAgainstOracles:
    def test_generator_matches_the_transitivity_filter(self):
        for n in range(6):
            assert [p.leq for p in all_posets_on(LABELS[:n])] == list(oracle_all_posets_on(LABELS[:n]))

    def test_every_labeled_poset_up_to_five(self):
        assert len(UP_TO_FIVE) == 1 + 3 + 19 + 219 + 4231
        for poset in UP_TO_FIVE:
            assert_agrees_with_oracles(poset)

    def test_random_relations_up_to_eight(self):
        rng = random.Random(20261018)
        valid = 0
        for trial in range(400):
            n = rng.randint(1, 8)
            labels = rng.sample(LABELS, n)
            order = rng.sample(range(n), n)  # a hidden linear extension
            strict = [
                (order[a], order[b])
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.3
            ]
            leq = [list(row) for row in oracle_warshall(n, strict)]
            for _ in range(rng.choice((0, 0, 1, 2))):  # break it, or not
                i, j = rng.randrange(n), rng.randrange(n)
                leq[i][j] = not leq[i][j]
            leq = tuple(tuple(row) for row in leq)
            if trial % 50 == 0:
                labels[-1] = labels[0]
            expected = oracle_validation_error(tuple(labels), leq)
            if expected is not None:
                with pytest.raises(ValidationError) as info:
                    Poset(tuple(labels), leq)
                assert str(info.value) == expected
                continue
            valid += 1
            poset = Poset(tuple(labels), leq)
            covers = [(labels[i], labels[j]) for i, j in strict]
            assert Poset.from_covers(labels, covers).leq == oracle_warshall(n, strict)
            assert_agrees_with_oracles(poset)
        assert 100 < valid < 400

    def test_udp_check_on_masks_matches_the_fraction_check(self):
        rng = random.Random(20261019)
        halves = [Fraction(k, 2) for k in (1, 2, 3, 4, 6)]
        pairs = failing = 0
        for poset in UP_TO_FIVE:
            ideals, autos = oracle_all_ideals(poset), oracle_automorphisms(poset)
            weightings = [WeightFunction.ones(poset.elements), powers_of_two_weight(poset)]
            weightings += [
                WeightFunction(poset.elements, tuple(rng.choice(halves) for _ in poset.elements))
                for _ in range(3)
            ]
            for omega in weightings:
                expected = oracle_udp_check(poset, omega, ideals, autos)
                assert udp_check(poset, omega) == expected
                pairs += 1
                failing += not expected[0]
        assert pairs == 22365 and 1000 < failing < pairs

    def test_refinement_matches_the_permutation_scan_on_six_to_eight(self):
        rng = random.Random(20261020)
        symmetric = 0
        for trial in range(24):
            n = 6 + trial % 3
            order = rng.sample(range(n), n)  # a hidden linear extension
            density = (0.05, 0.15, 0.3, 0.6)[trial % 4]
            strict = [
                (order[a], order[b])
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < density
            ]
            poset = Poset(LABELS[:n], oracle_warshall(n, strict))
            assert poset.automorphisms() == oracle_automorphisms(poset)
            symmetric += len(poset.automorphisms()) > 1
        assert symmetric >= 6

    def test_cycle_witness_matches_the_stack_and_parent_search(self):
        rng = random.Random(7)
        cyclic = 0
        for _ in range(500):
            n = rng.randint(1, 7)
            adjacency = [
                rng.sample([j for j in range(n) if j != i], rng.randint(0, min(3, n - 1)))
                for i in range(n)
            ]
            found = _find_cycle(adjacency)
            assert found == oracle_find_cycle(adjacency)
            cyclic += found is not None
        assert 50 < cyclic < 450

    def test_shape_errors_match(self):
        for leq in (((True,),), ((True, False), (False,))):
            with pytest.raises(ValidationError) as info:
                Poset(("a", "b"), leq)
            assert str(info.value) == oracle_validation_error(("a", "b"), leq)


class TestTablesLiveOnThePoset:
    def test_poset_and_tables_are_freed_together(self):
        poset = Poset.from_covers(tuple("abcd"), [("a", "b"), ("a", "c")])
        ideals, autos = poset.all_ideals(), poset.automorphisms()
        assert not poset.is_hierarchical
        assert vars(poset)["_ideals"] is ideals and vars(poset)["_automorphisms"] is autos
        held = sys.getrefcount(ideals)
        ref = weakref.ref(poset)
        del poset
        gc.collect()
        assert ref() is None  # no module-level cache keeps the poset alive
        assert sys.getrefcount(ideals) == held - 1  # its hold on the table went with it

    def test_tables_are_built_once(self):
        poset = Poset.chain(("x", "y"))
        assert poset.all_ideals() is poset.all_ideals()
        assert poset.automorphisms() is poset.automorphisms()

    def test_no_lru_cache_is_keyed_by_a_domain_object(self):
        domain = {"Poset", "WeightFunction", "Partition", "AlphabetSpec", "SupportFunctional"}
        for info in pkgutil.iter_modules(posetmetrics.__path__):
            module = importlib.import_module(f"posetmetrics.{info.name}")
            for name, fn in vars(module).items():
                if callable(fn) and hasattr(fn, "cache_info"):
                    params = inspect.signature(fn.__wrapped__).parameters.values()
                    keyed_by = {str(p.annotation) for p in params}
                    assert not keyed_by & domain, (info.name, name)


class TestElementBound:
    def test_ideal_enumeration_names_the_bound(self):
        big = Poset.antichain([f"e{t}" for t in range(ELEMENT_BOUND + 1)])
        with pytest.raises(BoundExceeded, match=f"capped at {ELEMENT_BOUND} elements"):
            big.all_ideals()
