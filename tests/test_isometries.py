"""Structured isometries: weight keys, enumeration, oracle agreement, decomposition."""

import gc
import itertools
import math
import operator
import random
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from posetmetrics import fields, isometries
from posetmetrics.acceptance import _group_grid, _labeled_posets, _omega_variants
from posetmetrics.errors import (
    BoundExceeded, GroupBoundExceeded, PropertyViolation, ValidationError,
)
from posetmetrics.isometries import (
    ACTION_TABLE_BOUND,
    GROUP_BOUND,
    Isometry,
    admissible_automorphisms,
    admissible_lams,
    brute_force_isometries,
    build_isometry,
    decompose,
    enumerate_group,
    gl_order,
    group_order,
    support_isometry_group,
    weight_automorphisms,
    weight_isometry_group,
    weight_sum_functional,
)
from posetmetrics.mep import SpaceIndex, extend_to_isometry, mep_brute_force
from posetmetrics.posets import (
    Poset, WeightFunction, powers_of_two_weight, set_bits, udp_check,
    weight_preserving_automorphisms,
)
from posetmetrics.spaces import AlphabetSpec, FieldSpec, p_support, support_classes

from helpers import (
    admissible_automorphisms_oracle, apply_perm, block_matrix_oracle, brute_force_isometries_oracle,
    closure_key, compose_perms, enumerate_group_oracle, filtered_automorphisms, invert_perm,
    invertible_index_perms, key_for, order_factors_oracle, order_walk_oracle,
    prefix_sum_automorphisms, value_for, weight_automorphisms_oracle,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
CHAIN2 = Poset.chain(("1", "2"))
ANTI2 = Poset.antichain(("1", "2"))
SP21 = AlphabetSpec.uniform(F2, ("1", "2"), 1)
ONES2 = WeightFunction.ones(("1", "2"))
ANTI3 = Poset.antichain(tuple("abc"))
VEE3 = Poset.from_covers(tuple("abc"), [("a", "b"), ("a", "c")])
# the label-map memo's shapes: three F_2 points, an F_3 vee, an F_2 plane below a point
MEMO_SHAPES = {
    "anti3": (ANTI3, AlphabetSpec.uniform(F2, ANTI3.elements, 1)),
    "vee-f3": (VEE3, AlphabetSpec.uniform(F3, VEE3.elements, 1)),
    "plane-below-line": (CHAIN2, AlphabetSpec(F2, CHAIN2.elements, (2, 1))),
}


def _key_conditions_hold(poset, key):
    """The conditions of a key, on ideal masks (closure invariance holds by
    construction): nested ideals get nested keys (strictly, since every
    weight is positive), and an ideal sharing its key with the principal
    ideal of one of its points is that ideal."""
    masks, down = poset._ideal_masks, poset._down
    keys = dict(zip(masks, map(key, masks)))
    monotone = all(
        keys[small] < keys[large]
        for small in masks
        for large in masks
        if small != large and small & large == small
    )
    determined = all(
        keys[mask] != keys[down[u]] or mask == down[u]
        for mask in masks
        for u in range(len(poset.elements))
        if mask >> u & 1
    )
    return monotone and determined


class TestWeightKeys:
    @pytest.mark.parametrize(
        "poset,omega",
        [
            (CHAIN2, ONES2),
            (ANTI2, WeightFunction.from_map({"1": "1/2", "2": 3})),
            (Poset.from_covers(("a", "b", "c"), [("a", "b")]), WeightFunction.ones(("a", "b", "c"))),
        ],
    )
    def test_monotone_and_singleton_determined(self, poset, omega):
        assert _key_conditions_hold(poset, weight_sum_functional(poset, omega))
        assert _key_conditions_hold(poset, key_for(poset, None, "support"))

    def test_negated_size_breaks_monotonicity(self):
        assert not _key_conditions_hold(CHAIN2, lambda mask: -mask.bit_count())

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_doubling_key_is_the_mask(self, size):
        # the doubling weights' key on every ideal mask is the old
        # support-closure key, the mask itself
        for poset in _labeled_posets(size):
            key = key_for(poset, None, "support")
            assert [key(mask) for mask in poset._ideal_masks] == list(poset._ideal_masks)


@st.composite
def weighted_posets(draw):
    """A random labeled poset on up to 5 elements with random rational weights."""
    n = draw(st.integers(1, 5))
    labels = draw(st.permutations("abcde"[:n]))
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    poset = Poset.from_covers("abcde"[:n], covers)
    weight = st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6)
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    return poset, WeightFunction(poset.elements, tuple(weights))


class TestFunctionalKeys:
    @settings(max_examples=80, deadline=None)
    @given(weighted_posets())
    def test_keys_are_equal_exactly_when_values_are(self, drawn):
        # the weight key scales every weight by the same LCM, so it keeps equality
        poset, omega = drawn
        for weights in (omega, powers_of_two_weight(poset)):
            key = weight_sum_functional(poset, weights)
            assert _key_conditions_hold(poset, key)
            ideals = zip(poset._ideal_masks, poset.all_ideals())
            keyed = [(key(mask), weights.total(ideal)) for mask, ideal in ideals]
            for key_a, value_a in keyed:
                for key_b, value_b in keyed:
                    assert (key_a == key_b) == (value_a == value_b)

    def test_weight_key_is_the_scaled_sum(self):
        omega = WeightFunction.from_map({"1": "1/2", "2": "3"})
        key = weight_sum_functional(CHAIN2, omega)
        assert [key(m) for m in CHAIN2._ideal_masks] == [0, 1, 7]
        assert [key_for(CHAIN2, None, "support")(m) for m in CHAIN2._ideal_masks] == [0, 1, 3]


def _fraction_filter(poset, space, value):
    """The admissible label maps from frozenset ideals and their values,
    the path admissible_automorphisms replaced."""
    dims = space.dims
    return tuple(
        perm
        for perm in poset.automorphisms()
        if all(dims[perm[i]] == dims[i] for i in range(len(dims)))
        and all(value(apply_perm(poset, perm, ideal)) == value(ideal)
                for ideal in poset.all_ideals())
    )


class TestAdmissible:
    def test_distinct_weights_pin_everything(self):
        omega = WeightFunction.from_map({"1": 1, "2": 2})
        assert weight_automorphisms(ANTI2, SP21, omega) == ((0, 1),)

    def test_equal_weights_allow_the_swap(self):
        assert set(weight_automorphisms(ANTI2, SP21, ONES2)) == {(0, 1), (1, 0)}

    def test_chain_admits_only_identity(self):
        assert weight_automorphisms(CHAIN2, SP21, ONES2) == ((0, 1),)

    def test_dimension_mismatch_pins_the_swap(self):
        space = AlphabetSpec(F2, ("1", "2"), (1, 2))
        assert weight_automorphisms(ANTI2, space, ONES2) == ((0, 1),)

    def test_functional_filter_agrees_with_pointwise(self):
        for poset in (CHAIN2, ANTI2):
            for omega in (ONES2, WeightFunction.from_map({"1": 1, "2": 2})):
                key = weight_sum_functional(poset, omega)
                assert admissible_automorphisms(poset, SP21, key) == weight_automorphisms(
                    poset, SP21, omega
                )
        # every labeled 3-element poset and weighting, with unit and mixed
        # blocks; the support-closure key admits the identity only
        identity = (tuple(range(3)),)
        swaps = 0
        for dims in ((1, 1, 1), (1, 2, 1)):
            for poset in _labeled_posets(3):
                space = AlphabetSpec(F2, poset.elements, dims)
                for omega in _omega_variants(poset):
                    pointwise = weight_automorphisms(poset, space, omega)
                    key = weight_sum_functional(poset, omega)
                    assert admissible_automorphisms(poset, space, key) == pointwise
                    swaps += pointwise != identity
                for key in (key_for(poset, None, "support"), closure_key):
                    assert admissible_automorphisms(poset, space, key) == identity
        assert swaps > 0  # the grid has weightings with nontrivial label maps

    @pytest.mark.parametrize("dims", [(1, 1, 1, 1), (1, 2, 1, 2)])
    def test_equal_to_the_fraction_filter(self, dims):
        swaps = 0
        for poset in _labeled_posets(4):
            space = AlphabetSpec(F2, poset.elements, dims)
            omegas = _omega_variants(poset) + [
                WeightFunction(poset.elements, tuple(Fraction(t % 2 + 1, 2) for t in range(4)))
            ]
            runs = [(omega, "weight") for omega in omegas] + [(None, "support")]
            for omega, mode in runs:
                filtered = admissible_automorphisms(poset, space, key_for(poset, omega, mode))
                assert filtered == _fraction_filter(poset, space, value_for(poset, omega, mode))
                swaps += len(filtered) > 1
        assert swaps > 0

    def test_the_automorphism_search_comes_before_the_ideals(self, monkeypatch):
        def unreachable(self):
            raise AssertionError("the ideals were enumerated")

        monkeypatch.setattr(Poset, "_ideal_masks", property(unreachable))
        labels = tuple(f"e{t}" for t in range(20))
        anti, space = Poset.antichain(labels), AlphabetSpec.uniform(F2, labels, 1)
        ones = WeightFunction.ones(labels)
        search = "^automorphism search over 2432902008176640000 "
        for call in (
            lambda: admissible_automorphisms(anti, space, weight_sum_functional(anti, ones)),
            lambda: weight_automorphisms(anti, space, ones),
            lambda: udp_check(anti, ones),
        ):
            with pytest.raises(BoundExceeded, match=search):
                call()
        # keys or weights that tell every label apart leave one candidate each
        identity = (tuple(range(20)),)
        assert admissible_automorphisms(anti, space, closure_key) == identity
        distinct = WeightFunction(labels, tuple(Fraction(t + 1) for t in range(20)))
        assert weight_automorphisms(anti, space, distinct) == identity

    def test_support_key_forces_identity(self):
        assert admissible_automorphisms(ANTI2, SP21, key_for(ANTI2, None, "support")) == ((0, 1),)


def _ideal_filter(poset, space, key):
    """The admissible label maps with the key compared on every ideal mask,
    the path the principal-ideal filter of admissible_automorphisms replaced."""
    masks, dims = poset._ideal_masks, space.dims
    keys = list(map(key, masks))

    def preserved(perm):
        bits = [1 << t for t in perm]
        images = (sum(map(bits.__getitem__, set_bits(mask))) for mask in masks)
        return all(map(operator.eq, map(key, images), keys))

    autos = (p for p in poset.automorphisms() if all(dims[p[i]] == dims[i] for i in range(len(p))))
    return tuple(filter(preserved, autos))


def _two_walk_lams(space, poset, key, bound):
    """admissible_lams on the ideal filter: the oracle's order factors walked
    once before the filter and once after it, kept as the oracle of the
    cached coloured search."""
    order_walk_oracle(space, poset, 1, bound)
    lams = _ideal_filter(poset, space, key)
    order_walk_oracle(space, poset, len(lams), bound)
    return lams


def _outcome(call, *args):
    """A call's result, or its exception's class and message."""
    try:
        return call(*args)
    except BoundExceeded as error:
        return type(error), str(error)


def _fresh(poset):
    """An equal poset with no cached tables."""
    return Poset(poset.elements, poset.leq)


class TestPrincipalIdealFilter:
    @pytest.mark.parametrize("dims", [(1, 1, 1, 1), (1, 2, 1, 2)])
    def test_equal_to_the_ideal_filter(self, dims):
        # every labeled poset up to 4 elements: unit, doubling and two
        # rational weightings, and the closure key
        swaps = 0
        for size in (1, 2, 3, 4):
            for poset in _labeled_posets(size):
                space = AlphabetSpec(F2, poset.elements, dims[:size])
                halves = tuple(Fraction(t % 2 * 2 + 1, 2) for t in range(size))
                omegas = _omega_variants(poset) + [WeightFunction(poset.elements, halves)]
                keys = [weight_sum_functional(poset, omega) for omega in omegas] + [closure_key]
                for key in keys:
                    filtered = admissible_automorphisms(poset, space, key)
                    assert filtered == _ideal_filter(poset, space, key)
                    swaps += len(filtered) > 1
        assert swaps > 0


def _coloured_cases(poset, space, omega, plain):
    """Each label-map search of the isometries and posets modules on a case,
    with the search-then-filter oracle of its result, given the poset's
    automorphisms from the plain oracle search."""
    key = weight_sum_functional(poset, omega)
    return [
        (admissible_automorphisms(poset, space, key),
         admissible_automorphisms_oracle(poset, space, key, plain)),
        (weight_automorphisms(poset, space, omega),
         weight_automorphisms_oracle(poset, space, omega, plain)),
        (weight_preserving_automorphisms(poset, omega),
         filtered_automorphisms(poset, omega.scaled(poset.elements), plain=plain)),
    ]


class TestColouredSearch:
    """The coloured automorphism search against the plain search filtered
    pointwise, the path it replaced: equal tuples in equal order."""

    def test_every_poset_up_to_five_with_three_weightings_and_two_dims(self):
        cases = swaps = 0
        for n in range(1, 6):
            posets = _labeled_posets(n)
            labels = posets[0].elements
            alternating = WeightFunction(labels, tuple(Fraction(t % 2 + 1) for t in range(n)))
            spaces = [AlphabetSpec(F2, labels, (1,) * n),
                      AlphabetSpec(F2, labels, tuple(t % 2 + 1 for t in range(n)))]
            for poset in posets:
                plain = prefix_sum_automorphisms(poset)
                for omega in (WeightFunction.ones(labels), powers_of_two_weight(poset), alternating):
                    for space in spaces:
                        results = _coloured_cases(poset, space, omega, plain)
                        for found, expected in results:
                            assert found == expected, (poset, omega, space)
                        cases += 1
                        swaps += len(results[0][0]) > 1
        assert cases == 26838 and swaps > 1000

    def test_random_posets_of_six_to_eight(self):
        rng = random.Random(20261020)
        swaps = 0
        for trial in range(60):
            n = 6 + trial % 3
            labels = tuple(f"e{t}" for t in range(n))
            order = rng.sample(labels, n)  # a hidden linear extension
            density = (0.05, 0.15, 0.3, 0.6)[trial % 4]
            covers = [(a, b) for k, a in enumerate(order) for b in order[k + 1 :]
                      if rng.random() < density]
            poset = Poset.from_covers(labels, covers)
            space = AlphabetSpec(F2, labels, tuple(rng.choice((1, 1, 2)) for _ in labels))
            omega = WeightFunction(labels, tuple(Fraction(rng.choice((1, 1, 2))) for _ in labels))
            results = _coloured_cases(poset, space, omega, prefix_sum_automorphisms(poset))
            for found, expected in results:
                assert found == expected, (poset, omega, space)
            swaps += len(results[0][0]) > 1
        assert swaps >= 10


class TestLabelMapCache:
    """admissible_lams keeps nothing of its own: its coloured search is kept
    once per class partition in Poset._automorphisms."""

    def test_each_class_partition_is_searched_once(self):
        anti = _fresh(ANTI2)
        swap = ((0, 1), (1, 0))
        distinct = WeightFunction.from_map({"1": 1, "2": 2})
        mixed = AlphabetSpec(F2, ("1", "2"), (1, 2))
        # equal weights and dims keep the two labels in one class; a distinct
        # weight or dim splits them, and those two colourings split them alike
        runs = [(SP21, ONES2, swap), (SP21, distinct, ((0, 1),)), (mixed, ONES2, ((0, 1),))]
        kept = []
        for _ in range(2):  # the second round finds every search kept
            for space, omega, lams in runs:
                key = weight_sum_functional(anti, omega)
                assert admissible_lams(space, anti, key, GROUP_BOUND) == lams
                kept.append(dict(anti._automorphisms))
        assert [len(entries) for entries in kept] == [1, 2, 2, 2, 2, 2]
        assert all(entries == kept[2] for entries in kept[2:])
        assert all(a is b for a, b in zip(kept[2].values(), anti._automorphisms.values()))

    def test_a_refusal_at_one_label_map_searches_nothing(self):
        chain = _fresh(CHAIN2)
        key = key_for(chain, None, "support")
        message = r"^isometry group order reaches 2, over the bound 1$"
        with pytest.raises(GroupBoundExceeded, match=message):
            admissible_lams(SP21, chain, key, 1)
        assert chain._automorphisms == {}
        assert admissible_lams(SP21, chain, key, GROUP_BOUND) == ((0, 1),)
        assert len(chain._automorphisms) == 1
        with pytest.raises(GroupBoundExceeded, match=message):
            admissible_lams(SP21, chain, key, 1)

    @pytest.mark.parametrize("shape", list(MEMO_SHAPES))
    def test_every_bound_answers_as_the_two_walks(self, shape):
        # each bound from 0 past the order: the label maps or the same
        # refusal, from a fresh poset and from one that keeps the search
        poset, space = MEMO_SHAPES[shape]
        key = weight_sum_functional(poset, WeightFunction.ones(poset.elements))
        order = group_order(space, poset, len(_two_walk_lams(space, poset, key, GROUP_BOUND)))
        searched = _fresh(poset)
        admissible_lams(space, searched, key, GROUP_BOUND)
        for bound in range(order + 2):
            expected = _outcome(_two_walk_lams, space, poset, key, bound)
            assert _outcome(admissible_lams, space, _fresh(poset), key, bound) == expected
            assert _outcome(admissible_lams, space, searched, key, bound) == expected

    def test_refusals_before_a_power_is_formed_answer_as_the_two_walks(self):
        # a 65-dim block over F_2: GL_65 has a factor 2^65 - 2^64, so under
        # 2^64 the power is refused before it is formed
        space = AlphabetSpec(F2, CHAIN2.elements, (65, 1))
        key = key_for(CHAIN2, None, "support")
        searched = _fresh(CHAIN2)
        admissible_lams(space, searched, key, 1 << 5000)
        for bound in (1, 1 << 63, (1 << 64) - 1, 1 << 64, 1 << 4500, 1 << 5000):
            expected = _outcome(_two_walk_lams, space, CHAIN2, key, bound)
            assert _outcome(admissible_lams, space, _fresh(CHAIN2), key, bound) == expected
            assert _outcome(admissible_lams, space, searched, key, bound) == expected

    def test_extension_after_the_scan_runs_no_search(self, monkeypatch):
        # the scan and both extensions ask for the label maps; the coloured
        # search runs for the first ask only, and the others find it kept
        anti3 = Poset.antichain(tuple("abc"))
        space = AlphabetSpec.uniform(F2, anti3.elements, 2)
        omega = WeightFunction.ones(anti3.elements)
        asks, searches = [], []

        def asked(*args):
            asks.append(args)
            return admissible_automorphisms(*args)

        class Kept(dict):
            def __setitem__(self, classes, found):
                searches.append(classes)
                super().__setitem__(classes, found)

        anti3.__dict__["_automorphisms"] = Kept()
        monkeypatch.setattr(isometries, "admissible_automorphisms", asked)
        code, images = mep_brute_force(space, anti3, omega, max_dim=2).counterexample
        assert extend_to_isometry(space, anti3, omega, code, images) is None
        assert extend_to_isometry(space, anti3, omega, code, code.basis) is not None
        assert len(asks) == 3 and len(searches) == 1
        assert list(anti3._automorphisms) == searches


class TestGroupOrder:
    """group_order's one walk against the oracle's factors, accumulated and
    refused at the first prefix product over the bound."""

    @pytest.mark.parametrize("lam_count", [1, 6])
    @pytest.mark.parametrize("shape", list(MEMO_SHAPES))
    def test_every_bound_answers_as_the_oracle_walk(self, shape, lam_count):
        poset, space = MEMO_SHAPES[shape]
        order = group_order(space, poset, lam_count)
        assert order == math.prod(order_factors_oracle(space, poset, lam_count))
        for bound in range(order + 2):
            expected = _outcome(order_walk_oracle, space, poset, lam_count, bound)
            assert _outcome(group_order, space, poset, lam_count, bound) == expected
            assert (expected == order) == (bound >= order)  # refused exactly under the order

    @pytest.mark.parametrize("lam_count", [1, 6])
    @pytest.mark.parametrize(
        "field, dims", [(F2, (10**12,)), (F3, (3, 10**6))], ids=["f2-block", "f3-chain"]
    )
    def test_unformed_powers_answer_as_the_oracle_walk(self, field, dims, lam_count):
        # orders past 2^(10^6): each refusal comes before the power is formed,
        # named "at least 2^k" or by the first prefix product over the bound
        poset = Poset.chain(tuple("ab"[: len(dims)]))
        space = AlphabetSpec(field, poset.elements, dims)
        unformed = 0
        for bound in (1, GROUP_BOUND, 1 << 64, 1 << 200):
            expected = _outcome(order_walk_oracle, space, poset, lam_count, bound)
            assert _outcome(group_order, space, poset, lam_count, bound) == expected
            assert expected[0] is GroupBoundExceeded
            unformed += expected[1].startswith("isometry group order reaches at least 2^")
        assert unformed >= 3


def paste_matrix(iso):
    """The full matrix pasted entry by entry through the label block ranges."""
    space, labels = iso.space, iso.poset.elements
    rows = [[0] * space.total_dim for _ in range(space.total_dim)]
    blocks = [(iso.diag[i], iso.lam[i], i) for i in range(len(labels))]
    blocks += [(m, j, i) for i, j, m in iso.strict]
    for block, out_label, in_label in blocks:
        r0 = space.block_range(labels[out_label]).start
        c0 = space.block_range(labels[in_label]).start
        for r, row in enumerate(block):
            for c, x in enumerate(row):
                rows[r0 + r][c0 + c] = x
    return tuple(tuple(row) for row in rows)


class TestBuildApply:
    def test_identity_fixes_everything(self):
        iso = Isometry.identity(SP21, CHAIN2)
        for vec in SP21.vectors():
            assert iso.apply(vec) == vec

    def test_strict_block_example(self):
        iso = build_isometry(SP21, CHAIN2, (0, 1), (((1,),), ((1,),)), [(1, 0, ((1,),))])
        assert iso.apply((1, 0)) == (1, 0)
        assert iso.apply((0, 1)) == (1, 1)
        assert iso.apply((1, 1)) == (0, 1)

    def test_composition_is_matrix_product(self):
        group = weight_isometry_group(SP21, CHAIN2, ONES2)
        for a in group:
            for b in group:
                product = fields.mat_mul(2, a.matrix, b.matrix)
                for vec in SP21.vectors():
                    assert fields.mat_vec(2, product, vec) == a.apply(b.apply(vec))

    def test_matrix_equals_entrywise_paste(self):
        vee = Poset.from_covers(("a", "b", "c"), [("b", "a"), ("b", "c")])
        space = AlphabetSpec(F2, vee.elements, (1, 2, 1))
        omega = WeightFunction.from_map({"a": "3", "b": "1/2", "c": "3"})
        group = weight_isometry_group(space, vee, omega)
        assert len(group) == 192
        for iso in group:
            assert iso.matrix == paste_matrix(iso)

    def test_matrix_is_built_once_and_kept_out_of_identity(self):
        iso = build_isometry(SP21, CHAIN2, (0, 1), (((1,),), ((1,),)), [(1, 0, ((1,),))])
        fresh = build_isometry(SP21, CHAIN2, (0, 1), (((1,),), ((1,),)), [(1, 0, ((1,),))])
        first = iso.matrix
        assert iso.matrix is first
        assert iso == fresh and hash(iso) == hash(fresh) and repr(iso) == repr(fresh)
        assert "_matrix" not in repr(iso)

    def test_list_blocks_build_the_tuple_isometry(self):
        # the matrix rows are joined from the block rows, so lists become tuples first
        space = AlphabetSpec(F2, CHAIN2.elements, (2, 1))
        swap, line = ((0, 1), (1, 0)), ((1,),)
        lists = [[[0, 1], [1, 0]], [[1]]]
        listed = build_isometry(space, CHAIN2, [0, 1], lists, [(1, 0, [[1], [0]])])
        built = build_isometry(space, CHAIN2, (0, 1), (swap, line), [(1, 0, ((1,), (0,)))])
        assert listed == built and hash(listed) == hash(built)
        assert listed.matrix == built.matrix == block_matrix_oracle(built)
        one = Poset.chain(("a",))
        plane = AlphabetSpec(F2, one.elements, (2,))
        assert build_isometry(plane, one, (0,), lists[:1]) == build_isometry(plane, one, (0,), (swap,))

    def test_non_invertible_diagonal_rejected(self):
        with pytest.raises(ValidationError, match="invertible"):
            build_isometry(SP21, CHAIN2, (0, 1), (((0,),), ((1,),)))

    def test_identity_blocks_are_not_ranked(self, monkeypatch):
        ranked = []
        rank = fields.rank
        monkeypatch.setattr(fields, "rank", lambda q, rows: ranked.append(rows) or rank(q, rows))
        space = AlphabetSpec(F2, CHAIN2.elements, (2, 1))
        plane, swap, line = ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1,),)
        identity = build_isometry(space, CHAIN2, (0, 1), (plane, line), [(1, 0, ((1,), (0,)))])
        assert ranked == [] and identity.matrix == ((1, 0, 1), (0, 1, 0), (0, 0, 1))
        assert build_isometry(space, CHAIN2, (0, 1), (swap, line)).matrix[0] == (0, 1, 0)
        assert ranked == [swap]
        with pytest.raises(ValidationError, match="^diagonal block 0 is not invertible$"):
            build_isometry(space, CHAIN2, (0, 1), (((1, 1), (1, 1)), line))
        assert ranked == [swap, ((1, 1), (1, 1))]

    def test_strict_block_must_sit_below(self):
        with pytest.raises(ValidationError, match="below"):
            build_isometry(SP21, CHAIN2, (0, 1), (((1,),), ((1,),)), [(0, 1, ((1,),))])

    def test_space_labels_out_of_the_poset_order_are_rejected(self):
        # blocks are indexed by poset position, so a space over ("b", "a") used
        # to fail the paste with IndexError, or a shape check by position
        space, chain = AlphabetSpec(F2, ("b", "a"), (2, 1)), Poset.chain(("a", "b"))
        order = "^the space's labels must be the poset's elements, in its order$"
        plane, line = ((1, 0), (0, 1)), ((1,),)
        for diag in ((plane, line), (line, plane)):
            with pytest.raises(ValidationError, match=order):
                build_isometry(space, chain, (0, 1), diag)
            with pytest.raises(ValidationError, match=order):
                Isometry(space, chain, (0, 1), diag, ())


class TestEnumeration:
    def test_chain_group_order_two(self):
        group = weight_isometry_group(SP21, CHAIN2, ONES2)
        assert len(group) == 2

    def test_antichain_group_order_two(self):
        group = weight_isometry_group(SP21, ANTI2, ONES2)
        assert len(group) == 2
        assert {iso.lam for iso in group} == {(0, 1), (1, 0)}

    def test_label_free_factors_are_checked_before_the_filter(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the label-map search ran")

        # the strict block of a 2-chain over F_2 alone gives 2 isometries
        monkeypatch.setattr(isometries, "admissible_automorphisms", unreachable)
        message = r"^isometry group order reaches 2, over the bound 1$"
        with pytest.raises(BoundExceeded, match=message):
            next(enumerate_group(SP21, CHAIN2, key_for(CHAIN2, None, "support"), bound=1))

    def test_space_in_another_label_order_is_refused(self):
        # dims and blocks are read by poset position; this space once gave a
        # group of 192 where 48 is right, and a wrong MEP counterexample
        vee = Poset.from_covers(("a", "b", "c"), [("a", "b"), ("a", "c")])
        space = AlphabetSpec(F2, ("c", "a", "b"), (2, 1, 1))
        message = "^the space's labels must be the poset's elements, in its order$"
        with pytest.raises(ValidationError, match=message):
            weight_isometry_group(space, vee, WeightFunction.ones(vee.elements))
        with pytest.raises(ValidationError, match=message):
            mep_brute_force(space, vee, WeightFunction.ones(vee.elements))

    def test_order_formula_matches(self):
        vee = Poset.from_covers(("a", "b", "c"), [("a", "b"), ("a", "c")])
        space = AlphabetSpec.uniform(F3, vee.elements, 1)
        omega = WeightFunction.ones(vee.elements)
        group = weight_isometry_group(space, vee, omega)
        lams = weight_automorphisms(vee, space, omega)
        assert len(group) == group_order(space, vee, len(lams)) == 144

    def test_enumeration_is_deterministic(self):
        first = [iso.matrix for iso in weight_isometry_group(SP21, CHAIN2, ONES2)]
        second = [iso.matrix for iso in weight_isometry_group(SP21, CHAIN2, ONES2)]
        assert first == second

    def test_support_group_is_weight_group_kernel(self):
        space = AlphabetSpec.uniform(F2, ("a", "b", "c"), 1)
        anti = Poset.antichain(("a", "b", "c"))
        ones = WeightFunction.ones(anti.elements)
        weight_group = weight_isometry_group(space, anti, ones)
        identity = (0, 1, 2)
        kernel = {iso.matrix for iso in weight_group if iso.lam == identity}
        support = {iso.matrix for iso in support_isometry_group(space, anti)}
        assert kernel == support

    def test_support_group_equals_the_closure_key_group(self):
        # the doubling weights' group against the group of the mask itself,
        # on every shape of criterion 4 (q = 2 and 3, blocks up to dimension 3)
        shapes = {(space, poset) for space, poset, _omega in _group_grid()}
        for space, poset in shapes:
            oracle = [iso.matrix for iso in enumerate_group(space, poset, closure_key)]
            assert [iso.matrix for iso in support_isometry_group(space, poset)] == oracle
        assert len(shapes) == 26


# The largest group the differential tests list with both oracles.
DIFFERENTIAL_GROUP_CAP = 1 << 12


def _listing(group):
    """Each element with its matrix, the matrices read after the listing ends,
    as the callers read them."""
    group = list(group)
    return [(iso, iso.matrix) for iso in group]


def _support_key(poset):
    return weight_sum_functional(poset, powers_of_two_weight(poset))


class TestGroupSlices:
    """enumerate_group keeps each label map's completed slice on the poset and
    replays it; the listing oracle builds every element afresh."""

    def assert_groups_equal_the_oracle(self, space, poset, omega):
        key = weight_sum_functional(poset, omega)
        expected = _listing(enumerate_group_oracle(space, poset, key))
        assert _listing(weight_isometry_group(space, poset, omega)) == expected
        expected = _listing(enumerate_group_oracle(space, poset, _support_key(poset)))
        assert _listing(support_isometry_group(space, poset)) == expected

    def assert_matrices_equal_the_block_oracle(self, space, poset, omega):
        # on a fresh poset the first round lists the weight group afresh and
        # the support group from the kept kernel; the second replays both
        poset = _fresh(poset)
        for _ in range(2):
            weight = weight_isometry_group(space, poset, omega)
            support = support_isometry_group(space, poset)
            for group in (weight, support):
                assert [iso.matrix for iso in group] == list(map(block_matrix_oracle, group))
        assert len(poset._group_slices) == len(weight_automorphisms(poset, space, omega))

    def assert_every_builder_equals_the_oracles(self, space, poset, omega):
        # the first listing against the listing oracle (order and fields) and
        # the block oracle, its replay against it, and the constructor's
        # matrices on a sample (decompose replays every vector)
        poset = _fresh(poset)
        key = weight_sum_functional(poset, omega)
        first = _listing(enumerate_group(space, poset, key))
        assert first == _listing(enumerate_group_oracle(space, poset, key))
        assert [matrix for _, matrix in first] == [block_matrix_oracle(iso) for iso, _ in first]
        replay = _listing(enumerate_group(space, poset, key))
        assert replay == first
        assert all(a is b for (_, a), (_, b) in zip(replay, first))
        identity = Isometry.identity(space, poset)
        assert identity.matrix == block_matrix_oracle(identity)
        for iso, matrix in first[:: max(1, len(first) // 4)]:
            built = build_isometry(space, poset, iso.lam, iso.diag, iso.strict)
            assert built == iso and built.matrix == block_matrix_oracle(built) == matrix
            recovered = decompose(space, poset, matrix, key)
            assert recovered.lam == iso.lam
            assert recovered.matrix == block_matrix_oracle(recovered) == matrix

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_every_labeled_poset_up_to_three_with_dims_one_or_two(self, size):
        # F_2, unit weights; the 30 shapes over DIFFERENTIAL_GROUP_CAP have
        # three labels, two or three of them planes (9,216 to 884,736 elements)
        over = 0
        for poset in _labeled_posets(size):
            ones = WeightFunction.ones(poset.elements)
            key = weight_sum_functional(poset, ones)
            for dims in itertools.product((1, 2), repeat=size):
                space = AlphabetSpec(F2, poset.elements, dims)
                lams = admissible_lams(space, poset, key, GROUP_BOUND)
                if group_order(space, poset, len(lams)) > DIFFERENTIAL_GROUP_CAP:
                    over += 1
                    continue
                self.assert_every_builder_equals_the_oracles(space, poset, ones)
        assert over == (30 if size == 3 else 0)

    def test_every_labeled_poset_up_to_three_over_f3(self):
        for size in (1, 2, 3):
            for poset in _labeled_posets(size):
                space = AlphabetSpec.uniform(F3, poset.elements, 1)
                for omega in _omega_variants(poset):
                    self.assert_every_builder_equals_the_oracles(space, poset, omega)

    @pytest.mark.parametrize("q, dims, covers", [
        (2, (1, 3, 1), [("a", "b"), ("b", "c")]),
        (2, (1, 3, 1), [("a", "b"), ("a", "c")]),
        (2, (2, 1, 2), [("a", "b"), ("a", "c")]),
        (3, (1, 2, 1), [("a", "b"), ("b", "c")]),
        (3, (1, 2, 1), [("a", "b"), ("a", "c")]),
        (3, (1, 2, 1), [("a", "c"), ("b", "c")]),
    ], ids=["F2-chain-131", "F2-vee-131", "F2-vee-212", "F3-chain-121", "F3-vee-121",
            "F3-wedge-121"])
    def test_mixed_dims_with_non_square_strict_blocks(self, q, dims, covers):
        poset = Poset.from_covers(tuple("abc"), covers)
        space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
        assert any(dims[i] != dims[j] for i, j in isometries._strict_pairs(poset, (0, 1, 2)))
        ones = WeightFunction.ones(poset.elements)
        self.assert_every_builder_equals_the_oracles(space, poset, ones)

    def test_listed_and_replayed_isometries_are_values(self):
        vee = _fresh(VEE3)
        space = AlphabetSpec(F2, vee.elements, (1, 2, 1))
        key = weight_sum_functional(vee, WeightFunction.ones(vee.elements))
        names = {"space", "poset", "lam", "diag", "strict", "_matrix"}
        for _ in range(2):  # listed, then replayed
            group = list(enumerate_group(space, vee, key))
            for iso in group:
                built = Isometry(space, vee, iso.lam, iso.diag, iso.strict)
                assert iso == built and hash(iso) == hash(built) and repr(iso) == repr(built)
                assert set(vars(iso)) == names and iso.matrix == built.matrix
        for name in names:
            with pytest.raises(AttributeError):
                setattr(iso, name, None)
            with pytest.raises(AttributeError):
                delattr(iso, name)
        assert set(vars(iso)) == names and iso == built

    def test_a_one_block_slice_shares_the_invertible_matrices(self):
        one = Poset.chain(("a",))
        space = AlphabetSpec(F3, one.elements, (3,))
        key = weight_sum_functional(one, WeightFunction.ones(one.elements))
        invertibles = fields.invertible_matrices(3, 3)
        for _ in range(2):  # listed, then replayed
            group = list(enumerate_group(space, one, key))
            assert len(group) == len(invertibles)
            assert all(iso.matrix is m for iso, m in zip(group, invertibles))

    def test_the_group_grid_in_grid_order(self):
        # the grid shares each poset across its dims and weightings, so later
        # listings replay the slices that earlier ones kept
        grid = _group_grid()
        for space, poset, omega in grid:
            self.assert_groups_equal_the_oracle(space, poset, omega)
            self.assert_matrices_equal_the_block_oracle(space, poset, omega)
        for space, poset, omega in grid:  # one slice kept per space and label map
            for lam in weight_automorphisms(poset, space, omega):
                assert (space, lam) in poset._group_slices

    @pytest.mark.parametrize("q, wide", [(2, False), (2, True), (3, False)],
                             ids=["F2-unit", "F2-one-plane", "F3-unit"])
    def test_every_labeled_poset_up_to_three(self, q, wide):
        for size in (1, 2, 3):
            for poset in _labeled_posets(size):
                dims = (2 if wide else 1,) + (1,) * (size - 1)
                space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
                for omega in _omega_variants(poset):
                    self.assert_groups_equal_the_oracle(space, poset, omega)
                    self.assert_matrices_equal_the_block_oracle(space, poset, omega)

    @pytest.mark.parametrize("q, dims, covers", [
        (3, (3,), []),  # one F_3^3 block
        (3, (1, 1), []),  # two F_3 points
        (2, (1, 1), [("1", "2")]),  # an F_2 2-chain
        (2, (1, 2, 2), [("1", "2"), ("1", "3")]),  # an F_2 vee of planes
        (2, (1, 1, 1), []),  # three F_2 points
    ], ids=["F3-cube", "F3-anti2", "F2-chain2", "F2-vee-planes", "F2-anti3"])
    def test_matrices_equal_the_block_oracle_on_the_slice_shapes(self, q, dims, covers):
        labels = tuple("123"[: len(dims)])
        poset = Poset.from_covers(labels, covers)
        space = AlphabetSpec(FieldSpec(q), labels, dims)
        self.assert_matrices_equal_the_block_oracle(space, poset, WeightFunction.ones(labels))

    def test_a_slice_kept_under_the_wrong_label_map_fails_the_comparison(self):
        # the test above must see a replay under the wrong lam: keep the
        # identity's slice, matrices built, under the swap of a 2-antichain
        anti = _fresh(ANTI2)
        space = AlphabetSpec.uniform(F3, anti.elements, 1)
        key = weight_sum_functional(anti, ONES2)
        _listing(enumerate_group(space, anti, key))
        anti._group_slices[space, (1, 0)] = anti._group_slices[space, (0, 1)]
        assert _listing(enumerate_group(space, anti, key)) != _listing(
            enumerate_group_oracle(space, anti, key)
        )

    def test_the_kernel_is_replayed_with_its_matrices(self, monkeypatch):
        # one F_3^3 block: the support group after the weight group lists no
        # element afresh and builds no matrix
        one = Poset.chain(("a",))
        space = AlphabetSpec(F3, one.elements, (3,))
        weight = _listing(weight_isometry_group(space, one, WeightFunction.ones(one.elements)))

        def unreachable(*args):
            raise AssertionError("a slice was listed afresh")

        # a fresh listing builds each label map's row builder; a replay builds none
        monkeypatch.setattr(isometries, "_row_builder", unreachable)
        support = support_isometry_group(space, one)
        assert len(support) == len(weight) == gl_order(3, 3)
        assert all(iso.matrix is matrix for iso, (_, matrix) in zip(support, weight))

    def test_a_cut_listing_keeps_nothing_and_lists_no_further(self):
        # three F_3 planes: 663,552 elements, of which the sample reads three
        anti = Poset.antichain(tuple("abc"))
        space = AlphabetSpec.uniform(F3, anti.elements, 2)
        key = weight_sum_functional(anti, WeightFunction.ones(anti.elements))
        start = time.perf_counter()
        sample = list(itertools.islice(enumerate_group(space, anti, key), 3))
        assert time.perf_counter() - start < 1
        assert anti._group_slices == {}
        assert sample == list(itertools.islice(enumerate_group_oracle(space, anti, key), 3))
        assert [iso.matrix for iso in sample] == list(map(block_matrix_oracle, sample))
        small = _fresh(ANTI2)
        small_space = AlphabetSpec.uniform(F3, small.elements, 1)
        key = weight_sum_functional(small, ONES2)
        assert len(list(itertools.islice(enumerate_group(small_space, small, key), 3))) == 3
        assert small._group_slices == {}
        assert _listing(enumerate_group(small_space, small, key)) == _listing(
            enumerate_group_oracle(small_space, small, key)
        )

    def test_a_refusal_keeps_nothing(self):
        chain = _fresh(CHAIN2)
        message = r"^isometry group order reaches 2, over the bound 1$"
        with pytest.raises(GroupBoundExceeded, match=message):
            weight_isometry_group(SP21, chain, ONES2, bound=1)
        assert chain._group_slices == {}
        assert _listing(weight_isometry_group(SP21, chain, ONES2)) == _listing(
            enumerate_group_oracle(SP21, chain, weight_sum_functional(chain, ONES2))
        )
        with pytest.raises(GroupBoundExceeded, match=message):  # kept slices answer no bound
            weight_isometry_group(SP21, chain, ONES2, bound=1)

    def test_a_mutated_result_leaves_the_next_call_unchanged(self):
        vee = Poset.from_covers(("a", "b", "c"), [("a", "b"), ("a", "c")])
        space = AlphabetSpec(F2, vee.elements, (1, 2, 2))
        omega = WeightFunction.ones(vee.elements)
        expected = _listing(enumerate_group_oracle(space, vee, weight_sum_functional(vee, omega)))
        first = weight_isometry_group(space, vee, omega)
        first.reverse()
        del first[1:]
        plane = ((1, 0), (0, 1))
        first.append(build_isometry(space, vee, (0, 1, 2), [((1,),), plane, plane]))
        assert _listing(weight_isometry_group(space, vee, omega)) == expected

    def test_the_slices_are_freed_with_the_poset_without_the_cycle_collector(self):
        gc.disable()
        try:
            anti = Poset.antichain(tuple("abc"))
            space = AlphabetSpec.uniform(F2, anti.elements, 1)
            group = _listing(weight_isometry_group(space, anti, WeightFunction.ones(anti.elements)))
            group += _listing(support_isometry_group(space, anti))
            assert len(anti._group_slices) == 6
            poset_ref = weakref.ref(anti)  # the slices are freed with the poset's dict
            del anti, group
            assert poset_ref() is None
        finally:
            gc.enable()


def mat_vec_perms(q, n, matrices):
    """The action of each matrix on lexicographically indexed vectors, one mat_vec per vector."""
    vectors = list(itertools.product(range(q), repeat=n))
    index = {v: t for t, v in enumerate(vectors)}
    return tuple(tuple(index[fields.mat_vec(q, m, v)] for v in vectors) for m in matrices)


def list_compare_isometries(space, poset, key):
    """The brute-force oracle comparing each matrix's whole list of image classes."""
    perms = invertible_index_perms(space.q, space.total_dim)
    values = support_classes(space, poset, key)
    return [m for m, perm in perms.items() if [values[p] for p in perm] == values]


class TestBruteForce:
    @pytest.mark.parametrize("space,poset,omega", _group_grid())
    def test_equals_the_list_comparison_on_the_group_grid(self, space, poset, omega):
        for key in (weight_sum_functional(poset, omega), key_for(poset, None, "support")):
            assert brute_force_isometries(space, poset, key) == list_compare_isometries(space, poset, key)

    def test_empty_space_keeps_its_one_isometry(self):
        empty = Poset.antichain(())
        space = AlphabetSpec(F2, (), ())
        for key in (weight_sum_functional(empty, WeightFunction.ones(())), closure_key):
            assert brute_force_isometries(space, empty, key) == [()]
            assert list_compare_isometries(space, empty, key) == [()]

    def test_action_table_bound_is_checked_before_any_matrix(self):
        # the largest oracle shapes the tests and the benchmark run stay admitted
        assert gl_order(2, 4) * 2**4 == 322560 <= ACTION_TABLE_BOUND
        assert gl_order(3, 3) * 3**3 == 303264 <= ACTION_TABLE_BOUND
        assert gl_order(11, 2) * 11**2 <= ACTION_TABLE_BOUND < gl_order(13, 2) * 13**2
        refused = [
            (FieldSpec(13), (1, 1), "has 4429152 entries"),
            (FieldSpec(2053), (1,), "has 4212756 entries"),
            (F2, (40,), "has over 2\\^40 entries"),
        ]
        for field, dims, message in refused:
            labels = tuple("ab"[: len(dims)])
            space, poset = AlphabetSpec(field, labels, dims), Poset.antichain(labels)
            with pytest.raises(BoundExceeded, match=f"{message}, over the bound 4194304"):
                brute_force_isometries(space, poset, closure_key)

    def test_the_table_bound_refuses_every_shape_over_the_matrix_scan_bound(self):
        # fields.invertible_matrices refuses over 2^18 candidates by itself; on
        # this path the action-table rule always refuses first, so that check
        # never decides a refusal of the oracle
        one = Poset.chain(("a",))
        refused = 0
        for q in filter(fields.is_prime, range(4096)):
            for n in range(1, 23):
                if q ** (n * n) > 1 << 18:
                    space = AlphabetSpec(FieldSpec(q), ("a",), (n,))
                    with pytest.raises(BoundExceeded, match=f"over the bound {ACTION_TABLE_BOUND}$"):
                        brute_force_isometries(space, one, closure_key)
                    refused += 1
        assert refused == 11833  # of the 564 * 22 shapes, 575 have at most 2^18 candidates

    @pytest.mark.parametrize(
        "q,n", [(q, n) for q in (2, 3, 5, 7) for n in range(5) if q ** (n * n) <= 1 << 16]
    )
    def test_index_perms_equal_mat_vec_action(self, q, n):
        # the oracle's own check: its table of tuples against one mat_vec per vector
        perms = invertible_index_perms(q, n)
        matrices = fields.invertible_matrices(q, n)
        assert tuple(perms) == matrices
        assert tuple(perms.values()) == mat_vec_perms(q, n, matrices)

    @pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (2, 4), (5, 2)])
    def test_dot_tables_equal_the_rowwise_sums(self, q, n):
        # the per-row tables of the action table come from fields.dot_values
        vectors = list(itertools.product(range(q), repeat=n))
        for w in vectors:
            assert fields.dot_values(q, w) == [sum(map(operator.mul, w, v)) % q for v in vectors]

    def test_single_coordinate(self):
        space = AlphabetSpec.uniform(F3, ("a",), 1)
        one = Poset.chain(("a",))
        key = weight_sum_functional(one, WeightFunction.ones(("a",)))
        assert len(brute_force_isometries(space, one, key)) == 2

    def test_chain_two_matrices(self):
        key = weight_sum_functional(CHAIN2, ONES2)
        matrices = brute_force_isometries(SP21, CHAIN2, key)
        assert sorted(matrices) == [((1, 0), (0, 1)), ((1, 1), (0, 1))]

    @pytest.mark.parametrize(
        "q,dims,functional",
        [
            (2, (1, 1, 1), "weight"),
            (3, (1, 1, 1), "weight"),
            (2, (1, 1, 1), "support"),
            (3, (1, 1, 1), "support"),
            (2, (1, 2, 2), "weight"),
            (2, (1, 2, 2), "support"),
        ],
    )
    def test_every_member_decomposes_and_rebuilds(self, q, dims, functional):
        vee = Poset.from_covers(("a", "b", "c"), [("a", "b"), ("a", "c")])
        space = AlphabetSpec(FieldSpec(q), vee.elements, dims)
        key = key_for(vee, WeightFunction.ones(vee.elements), functional)
        admissible = set(admissible_automorphisms(vee, space, key))
        if space.total_dim <= 3:
            members = brute_force_isometries(space, vee, key)
        else:  # F_2^5 is over the oracle's bound, so the structured group stands in
            members = [iso.matrix for iso in enumerate_group(space, vee, key)]
        for matrix in members:
            iso = decompose(space, vee, matrix, key)
            assert iso.matrix == matrix
            assert iso.lam in admissible


class TestActionTable:
    """The packed action table and the vector-by-vector filter against the
    matrix-major oracle they replaced (helpers.brute_force_isometries_oracle)."""

    @pytest.mark.parametrize(
        "q,n", [(q, n) for q in (2, 3, 5, 7) for n in range(5) if q ** (n * n) <= 1 << 16]
        + [(11, 2)]
    )
    def test_columns_equal_the_oracle_tuples(self, q, n):
        matrices, columns = isometries._action_table(q, n)
        perms = invertible_index_perms(q, n)
        assert matrices == tuple(perms) == fields.invertible_matrices(q, n)
        assert list(matrices) == sorted(matrices)  # criterion 4 finds a matrix by bisection
        assert len(columns) == q**n and {column.typecode for column in columns} == {"H"}
        assert list(zip(*columns)) == list(perms.values())

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("q,first", [(2, 1), (2, 2), (3, 1)])  # first: the first block's dim
    def test_equals_the_oracle_on_every_small_poset(self, q, first, n):
        # unit, doubling and rational weights, and the closure key
        for poset in _labeled_posets(n):
            space = AlphabetSpec(FieldSpec(q), poset.elements, (first,) + (1,) * (n - 1))
            keys = [weight_sum_functional(poset, omega) for omega in _omega_variants(poset)]
            for key in keys + [closure_key]:
                assert brute_force_isometries(space, poset, key) == brute_force_isometries_oracle(
                    space, poset, key
                )

    @pytest.mark.parametrize(
        "q,dims,shape",
        [
            (2, (4,), "chain"),
            (2, (2, 2), "chain"),
            (2, (1, 1, 1, 1), "antichain"),
            (3, (3,), "chain"),
            (3, (1, 2), "chain"),
            (3, (1, 1, 1), "antichain"),
            (11, (2,), "chain"),
            (11, (1, 1), "chain"),
            (11, (1, 1), "antichain"),
            (1021, (1,), "chain"),  # 1,041,420 entries, a quarter of the bound, indices past 8 bits
        ],
    )
    def test_equals_the_oracle_on_the_largest_shapes(self, q, dims, shape):
        labels = tuple("abcd"[: len(dims)])
        poset = getattr(Poset, shape)(labels)
        space = AlphabetSpec(FieldSpec(q), labels, dims)
        keys = [weight_sum_functional(poset, WeightFunction.ones(labels)), closure_key]
        try:
            for key in keys:
                assert brute_force_isometries(space, poset, key) == brute_force_isometries_oracle(
                    space, poset, key
                )
        finally:  # neither table of F_1021 stays for the rest of the session
            if q > 11:
                isometries._action_table.cache_clear()
                invertible_index_perms.cache_clear()

    def test_trace_says_what_the_scan_did(self):
        isometries._action_table.cache_clear()
        space = AlphabetSpec.uniform(F3, VEE3.elements, 1)
        traces = [{}, {}]
        found = [brute_force_isometries(space, VEE3, closure_key, trace) for trace in traces]
        assert found[0] == found[1] == brute_force_isometries_oracle(space, VEE3, closure_key)
        assert traces == [
            {"matrices": 11232, "action_table": table, "vectors_checked": 26,
             "survivors": len(found[0])}
            for table in ("built", "kept")
        ]

    def test_criterion_four_and_the_oracle_share_one_table_per_shape(self):
        from posetmetrics.acceptance import criterion_isometry_group_structure

        isometries._action_table.cache_clear()
        passed, details = criterion_isometry_group_structure()
        assert passed, details
        shapes = {(space.q, space.total_dim) for space, _, _ in _group_grid()}
        info = isometries._action_table.cache_info()
        assert info.misses == info.currsize == len(shapes) == 6
        for space, poset, omega in _group_grid():
            brute_force_isometries(space, poset, closure_key)
        assert isometries._action_table.cache_info().misses == len(shapes)

    @pytest.mark.parametrize("field,dims", [(FieldSpec(13), (1, 1)), (F2, (40,))])
    def test_a_refused_shape_lists_no_matrix(self, monkeypatch, field, dims):
        def unreachable(*args):
            raise AssertionError("a refused shape reached the matrices")

        monkeypatch.setattr(isometries, "_action_table", unreachable)
        monkeypatch.setattr(fields, "invertible_matrices", unreachable)
        labels = tuple("ab"[: len(dims)])
        space, poset = AlphabetSpec(field, labels, dims), Poset.antichain(labels)
        with pytest.raises(BoundExceeded, match="entries, over the bound 4194304$"):
            brute_force_isometries(space, poset, closure_key, {})


class TestDecompose:
    def test_identity_maps_to_identity_label_map(self):
        key = weight_sum_functional(CHAIN2, ONES2)
        iso = decompose(SP21, CHAIN2, fields.identity_matrix(2), key)
        assert iso.lam == (0, 1)

    def test_swap_recovers_the_transposition(self):
        key = weight_sum_functional(ANTI2, ONES2)
        swap = ((0, 1), (1, 0))
        iso = decompose(SP21, ANTI2, swap, key)
        assert iso.lam == (1, 0)

    def test_label_map_respects_products_and_inverses(self):
        space = AlphabetSpec.uniform(F2, ("a", "b", "c"), 1)
        anti = Poset.antichain(("a", "b", "c"))
        group = weight_isometry_group(space, anti, WeightFunction.ones(anti.elements))
        to_lam = {iso.matrix: iso.lam for iso in group}
        for a in group:
            assert to_lam[fields.mat_inv(2, a.matrix)] == invert_perm(a.lam)
            for b in group:
                product = fields.mat_mul(2, a.matrix, b.matrix)
                assert to_lam[product] == compose_perms(a.lam, b.lam)

    def test_rejects_non_isometry_with_witness(self):
        key = weight_sum_functional(CHAIN2, ONES2)
        bad = ((0, 1), (1, 0))  # swap is invertible but not a chain isometry
        # (0, 1) is the first vector in index order whose weight moves (2 -> 1)
        with pytest.raises(PropertyViolation, match=r"^functional not preserved at \(0, 1\)$"):
            decompose(SP21, CHAIN2, bad, key)

    def test_space_over_the_vector_bound_is_refused_before_the_replay(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the replay started")

        monkeypatch.setattr(isometries, "support_classes", unreachable)
        one = Poset.chain(("a",))
        key = weight_sum_functional(one, WeightFunction.ones(("a",)))
        big = AlphabetSpec(F2, ("a",), (17,))
        with pytest.raises(PropertyViolation, match="^matrix is not an automorphism"):
            decompose(big, one, fields.identity_matrix(16), key)  # the shape check comes first
        with pytest.raises(BoundExceeded, match=r"^space of 131072 vectors exceeds 65536$"):
            decompose(big, one, fields.identity_matrix(17), key)
        at_bound = AlphabetSpec(F2, ("a",), (16,))
        with pytest.raises(AssertionError, match="^the replay started$"):
            decompose(at_bound, one, fields.identity_matrix(16), key)


class TestPermutationAction:
    """The index permutation of a product is the composite and that of an
    inverse is the inverse: the matrix oracle behind criterion 4, which
    composes and inverts permutations only."""

    @pytest.mark.parametrize(
        "q,poset,dims,order",
        [
            (2, Poset.chain(("a", "b")), (1, 2), 24),
            (3, Poset.from_covers(("a", "b", "c"), [("a", "b"), ("a", "c")]), (1, 1, 1), 144),
        ],
        ids=["q2-chain-dims12", "q3-vee"],
    )
    def test_products_and_inverses_match_mat_mul_and_mat_inv(self, q, poset, dims, order):
        space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
        omega = WeightFunction.ones(poset.elements)
        perm_of = SpaceIndex(space, poset, weight_sum_functional(poset, omega)).perm_of_matrix
        group = weight_isometry_group(space, poset, omega)
        perms = {iso.matrix: perm_of(iso.matrix) for iso in group}
        assert len(perms) == len(set(perms.values())) == order  # the action is faithful
        for a, perm_a in perms.items():
            assert perm_of(fields.mat_inv(q, a)) == invert_perm(perm_a)
            for b, perm_b in perms.items():
                assert perm_of(fields.mat_mul(q, a, b)) == compose_perms(perm_a, perm_b)


class TestClosureTransform:
    @pytest.mark.parametrize(
        "poset", [CHAIN2, ANTI2, Poset.from_covers(("1", "2"), [("1", "2")]).dual()]
    )
    def test_supports_transform_by_the_label_map(self, poset):
        # the structured form and the support-closure behaviour must agree
        space = AlphabetSpec.uniform(F2, poset.elements, 1)
        for iso in weight_isometry_group(space, poset, WeightFunction.ones(poset.elements)):
            for vec in space.vectors():
                left = p_support(space, poset, iso.apply(vec))
                right = apply_perm(poset, iso.lam, p_support(space, poset, vec))
                assert left == right

    def test_single_block_images_close_to_principal_ideals(self):
        # equivalent formulation: the image of any nonzero single-block vector
        # has the principal ideal of its label's image as support closure
        import itertools

        vee = Poset.from_covers(("a", "b", "c"), [("a", "b"), ("a", "c")])
        space = AlphabetSpec(F2, vee.elements, (1, 2, 2))
        omega = WeightFunction.from_map({"a": 1, "b": "3/2", "c": "3/2"})
        for iso in weight_isometry_group(space, vee, omega):
            for idx, label in enumerate(vee.elements):
                rng = space.block_range(label)
                for entries in itertools.product(range(2), repeat=len(rng)):
                    if not any(entries):
                        continue
                    vec = [0] * space.total_dim
                    for t, x in zip(rng, entries):
                        vec[t] = x
                    closure = p_support(space, vee, iso.apply(tuple(vec)))
                    target = vee.ideal_closure({vee.elements[iso.lam[idx]]})
                    assert closure == target
