"""Structured isometries: functionals, enumeration, oracle agreement, decomposition."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from posetmetrics import fields, isometries
from posetmetrics.acceptance import _labeled_posets, _omega_variants
from posetmetrics.errors import BoundExceeded, PropertyViolation, ValidationError
from posetmetrics.isometries import (
    ACTION_TABLE_BOUND,
    Isometry,
    SupportFunctional,
    _invertible_index_perms,
    admissible_automorphisms,
    brute_force_isometries,
    build_isometry,
    check_support_functional,
    decompose,
    enumerate_group,
    gl_order,
    group_order,
    p_support_functional,
    support_isometry_group,
    weight_automorphisms,
    weight_isometry_group,
    weight_sum_functional,
)
from posetmetrics.mep import SpaceIndex, mep_brute_force
from posetmetrics.posets import Poset, WeightFunction, compose_perms, invert_perm
from posetmetrics.spaces import AlphabetSpec, FieldSpec, p_support

F2 = FieldSpec(2)
F3 = FieldSpec(3)
CHAIN2 = Poset.chain(("1", "2"))
ANTI2 = Poset.antichain(("1", "2"))
SP21 = AlphabetSpec.uniform(F2, ("1", "2"), 1)
ONES2 = WeightFunction.ones(("1", "2"))


class TestSupportFunctionals:
    @pytest.mark.parametrize(
        "poset,omega",
        [
            (CHAIN2, ONES2),
            (ANTI2, WeightFunction.from_map({"1": "1/2", "2": 3})),
            (Poset.from_covers(("a", "b", "c"), [("a", "b")]), WeightFunction.ones(("a", "b", "c"))),
        ],
    )
    def test_weight_sum_satisfies_all_conditions(self, poset, omega):
        ok, violations = check_support_functional(weight_sum_functional(poset, omega), poset)
        assert ok, violations

    def test_support_closure_satisfies_all_conditions(self):
        ok, _ = check_support_functional(p_support_functional(CHAIN2), CHAIN2)
        assert ok

    def test_raw_cardinality_breaks_closure_invariance(self):
        raw = SupportFunctional("raw-size", len, lambda a, b: a <= b, int.bit_count)
        ok, violations = check_support_functional(raw, CHAIN2)
        assert not ok
        assert violations["closure_invariant"] is not None

    def test_negated_size_breaks_monotonicity(self):
        neg = SupportFunctional(
            "negated",
            lambda s: -len(CHAIN2.ideal_closure(s)),
            lambda a, b: a <= b,
            lambda mask: -mask.bit_count(),
        )
        ok, violations = check_support_functional(neg, CHAIN2)
        assert not ok
        assert violations["monotone"] is not None


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
        for sf in (weight_sum_functional(poset, omega), p_support_functional(poset)):
            ok, violations = check_support_functional(sf, poset)
            assert ok, violations
            ideals = zip(poset._ideal_masks, poset.all_ideals())
            keyed = [(sf.key(mask), sf.evaluate(ideal)) for mask, ideal in ideals]
            for key_a, value_a in keyed:
                for key_b, value_b in keyed:
                    assert (key_a == key_b) == (value_a == value_b)

    def test_weight_key_is_the_scaled_sum(self):
        omega = WeightFunction.from_map({"1": "1/2", "2": "3"})
        key = weight_sum_functional(CHAIN2, omega).key
        assert [key(m) for m in CHAIN2._ideal_masks] == [0, 1, 7]
        assert [p_support_functional(CHAIN2).key(m) for m in CHAIN2._ideal_masks] == [0, 1, 3]


def _fraction_filter(poset, space, sf):
    """The admissible label maps from frozenset ideals and evaluated values,
    the path admissible_automorphisms replaced."""
    dims = space.dims
    return tuple(
        perm
        for perm in poset.automorphisms()
        if all(dims[perm[i]] == dims[i] for i in range(len(dims)))
        and all(sf.evaluate(poset.apply_perm(perm, ideal)) == sf.evaluate(ideal)
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
                sf = weight_sum_functional(poset, omega)
                assert admissible_automorphisms(poset, SP21, sf) == weight_automorphisms(
                    poset, SP21, omega
                )
        # every labeled 3-element poset and weighting, with unit and mixed
        # blocks; the support functional admits the identity only
        identity = (tuple(range(3)),)
        swaps = 0
        for dims in ((1, 1, 1), (1, 2, 1)):
            for poset in _labeled_posets(3):
                space = AlphabetSpec(F2, poset.elements, dims)
                for omega in _omega_variants(poset):
                    pointwise = weight_automorphisms(poset, space, omega)
                    sf = weight_sum_functional(poset, omega)
                    assert admissible_automorphisms(poset, space, sf) == pointwise
                    swaps += pointwise != identity
                sf = p_support_functional(poset)
                assert admissible_automorphisms(poset, space, sf) == identity
        assert swaps > 0  # the grid has weightings with nontrivial label maps

    @pytest.mark.parametrize("dims", [(1, 1, 1, 1), (1, 2, 1, 2)])
    def test_equal_to_the_fraction_filter(self, dims):
        swaps = 0
        for poset in _labeled_posets(4):
            space = AlphabetSpec(F2, poset.elements, dims)
            omegas = _omega_variants(poset) + [
                WeightFunction(poset.elements, tuple(Fraction(t % 2 + 1, 2) for t in range(4)))
            ]
            functionals = [weight_sum_functional(poset, omega) for omega in omegas]
            for sf in functionals + [p_support_functional(poset)]:
                filtered = admissible_automorphisms(poset, space, sf)
                assert filtered == _fraction_filter(poset, space, sf)
                swaps += len(filtered) > 1
        assert swaps > 0

    def test_support_functional_forces_identity(self):
        assert admissible_automorphisms(ANTI2, SP21, p_support_functional(ANTI2)) == ((0, 1),)

    def test_filter_is_refused_past_the_scan_bound(self, monkeypatch):
        # the identity and the swap, each over the four ideals of two unrelated labels
        sf = p_support_functional(ANTI2)
        monkeypatch.setattr(isometries, "SCAN_BOUND", 8)
        assert admissible_automorphisms(ANTI2, SP21, sf) == ((0, 1),)
        monkeypatch.setattr(isometries, "SCAN_BOUND", 7)
        message = "^functional filter of 2 automorphisms over 4 ideals exceeds the bound 7$"
        with pytest.raises(BoundExceeded, match=message):
            admissible_automorphisms(ANTI2, SP21, sf)


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

    def test_non_invertible_diagonal_rejected(self):
        with pytest.raises(ValidationError, match="invertible"):
            build_isometry(SP21, CHAIN2, (0, 1), (((0,),), ((1,),)))

    def test_strict_block_must_sit_below(self):
        with pytest.raises(ValidationError, match="below"):
            build_isometry(SP21, CHAIN2, (0, 1), (((1,),), ((1,),)), [(0, 1, ((1,),))])


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
            raise AssertionError("the functional filter ran")

        # the strict block of a 2-chain over F_2 alone gives 2 isometries
        monkeypatch.setattr(isometries, "admissible_automorphisms", unreachable)
        message = r"^isometry group order reaches 2, over the bound 1; raise it with --bound$"
        with pytest.raises(BoundExceeded, match=message):
            next(enumerate_group(SP21, CHAIN2, p_support_functional(CHAIN2), bound=1))

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


def mat_vec_perms(q, n, matrices):
    """The action of each matrix on lexicographically indexed vectors, one mat_vec per vector."""
    vectors = list(itertools.product(range(q), repeat=n))
    index = {v: t for t, v in enumerate(vectors)}
    return tuple(tuple(index[fields.mat_vec(q, m, v)] for v in vectors) for m in matrices)


class TestBruteForce:
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
                brute_force_isometries(space, poset, p_support_functional(poset))

    def test_the_table_bound_refuses_every_shape_over_the_matrix_scan_bound(self):
        # fields.invertible_matrices refuses over 2^18 candidates by itself; on
        # this path the action-table rule always refuses first, so that check
        # never decides a refusal of the oracle
        one = Poset.chain(("a",))
        sf = p_support_functional(one)
        refused = 0
        for q in filter(fields.is_prime, range(4096)):
            for n in range(1, 23):
                if q ** (n * n) > 1 << 18:
                    space = AlphabetSpec(FieldSpec(q), ("a",), (n,))
                    with pytest.raises(BoundExceeded, match=f"over the bound {ACTION_TABLE_BOUND}$"):
                        brute_force_isometries(space, one, sf)
                    refused += 1
        assert refused == 11833  # of the 564 * 22 shapes, 575 have at most 2^18 candidates

    @pytest.mark.parametrize(
        "q,n", [(q, n) for q in (2, 3, 5, 7) for n in range(5) if q ** (n * n) <= 1 << 16]
    )
    def test_index_perms_equal_mat_vec_action(self, q, n):
        matrices, perms = _invertible_index_perms(q, n)
        assert matrices == fields.invertible_matrices(q, n)
        assert perms == mat_vec_perms(q, n, matrices)

    def test_single_coordinate(self):
        space = AlphabetSpec.uniform(F3, ("a",), 1)
        one = Poset.chain(("a",))
        sf = weight_sum_functional(one, WeightFunction.ones(("a",)))
        assert len(brute_force_isometries(space, one, sf)) == 2

    def test_chain_two_matrices(self):
        sf = weight_sum_functional(CHAIN2, ONES2)
        matrices = brute_force_isometries(SP21, CHAIN2, sf)
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
        if functional == "weight":
            sf = weight_sum_functional(vee, WeightFunction.ones(vee.elements))
        else:
            sf = p_support_functional(vee)
        admissible = set(admissible_automorphisms(vee, space, sf))
        if space.total_dim <= 3:
            members = brute_force_isometries(space, vee, sf)
        else:  # F_2^5 is over the oracle's bound, so the structured group stands in
            members = [iso.matrix for iso in enumerate_group(space, vee, sf)]
        for matrix in members:
            iso = decompose(space, vee, matrix, sf)
            assert iso.matrix == matrix
            assert iso.lam in admissible


class TestDecompose:
    def test_identity_maps_to_identity_label_map(self):
        sf = weight_sum_functional(CHAIN2, ONES2)
        iso = decompose(SP21, CHAIN2, fields.identity_matrix(2), sf)
        assert iso.lam == (0, 1)

    def test_swap_recovers_the_transposition(self):
        sf = weight_sum_functional(ANTI2, ONES2)
        swap = ((0, 1), (1, 0))
        iso = decompose(SP21, ANTI2, swap, sf)
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
        sf = weight_sum_functional(CHAIN2, ONES2)
        bad = ((0, 1), (1, 0))  # swap is invertible but not a chain isometry
        # (0, 1) is the first vector in index order whose weight moves (2 -> 1)
        with pytest.raises(PropertyViolation, match=r"^functional not preserved at \(0, 1\)$"):
            decompose(SP21, CHAIN2, bad, sf)


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
                right = poset.apply_perm(iso.lam, p_support(space, poset, vec))
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
