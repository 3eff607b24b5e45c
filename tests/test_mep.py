"""Extension property: brute force, closed forms, conditions, orbit checks,
and the canonical level decomposition."""

import itertools
import sys
from collections import Counter
from fractions import Fraction

import pytest

from posetmetrics import fields, mep
from posetmetrics.acceptance import _group_grid, _labeled_posets, _omega_variants
from posetmetrics.errors import BoundExceeded, PredicateUnavailable, ValidationError
from posetmetrics.isometries import enumerate_group, p_support_functional
from posetmetrics.mep import (
    MepVerdict,
    SpaceIndex,
    _first_unreachable_map,
    _functional_for,
    canonical_decomposition,
    condition_report,
    extend_to_isometry,
    level_class_bound,
    mep_brute_force,
    mep_p_support_predicate,
    mep_predicate,
    preserves,
    preserves_weight,
    single_orbit_check,
)
from posetmetrics.posets import Poset, WeightFunction, powers_of_two_weight
from posetmetrics.spaces import (
    AlphabetSpec,
    FieldSpec,
    LinearCode,
    enumerate_codes,
    linear_maps,
    p_support,
    weight,
)

F2 = FieldSpec(2)
CHAIN2 = Poset.chain(("1", "2"))
ANTI2 = Poset.antichain(("1", "2"))
ANTI3 = Poset.antichain(("a", "b", "c"))
MIXED = Poset.from_covers(("a", "b", "c"), [("a", "b")])
SP21 = AlphabetSpec.uniform(F2, CHAIN2.elements, 1)
ONES2 = WeightFunction.ones(CHAIN2.elements)


class TestPreservation:
    def test_identity_preserves(self):
        code = LinearCode.from_rows(SP21, [(1, 1)])
        assert preserves_weight(SP21, CHAIN2, ONES2, code, code.basis)
        assert preserves(SP21, p_support_functional(CHAIN2), code, code.basis)

    def test_zero_map_on_nonzero_code_fails(self):
        code = LinearCode.from_rows(SP21, [(1, 1)])
        assert not preserves_weight(SP21, CHAIN2, ONES2, code, ((0, 0),))

    def test_doubling_weights_tie_weight_to_support(self):
        omega = powers_of_two_weight(MIXED)
        space = AlphabetSpec.uniform(F2, MIXED.elements, 1)
        for code in enumerate_codes(space, max_dim=2):
            if code.dim == 0:
                continue
            for images in linear_maps(code, space):
                assert preserves_weight(space, MIXED, omega, code, images) == (
                    preserves(space, p_support_functional(MIXED), code, images)
                )

    def test_weight_preserving_maps_are_injective(self):
        # checked on the two smallest spaces rather than assumed
        for poset, labels in ((CHAIN2, ("1", "2")), (ANTI2, ("1", "2"))):
            space = AlphabetSpec.uniform(F2, labels, 1)
            omega = WeightFunction.ones(labels)
            for code in enumerate_codes(space):
                if code.dim == 0:
                    continue
                for images in linear_maps(code, space):
                    if preserves_weight(space, poset, omega, code, images):
                        seen = set()
                        for coeffs, _vec in code.coefficient_pairs():
                            img = tuple(
                                sum(c * row[t] for c, row in zip(coeffs, images)) % 2
                                for t in range(space.total_dim)
                            )
                            assert img not in seen
                            seen.add(img)


class TestExtension:
    def test_identity_extends_to_identity(self):
        code = LinearCode.from_rows(SP21, [(1, 1)])
        iso = extend_to_isometry(SP21, CHAIN2, ONES2, code, code.basis)
        assert iso is not None and iso.apply((1, 1)) == (1, 1)

    def test_chain_maps_always_extend(self):
        space = AlphabetSpec(F2, ("1", "2"), (1, 2))
        omega = WeightFunction.ones(("1", "2"))
        for code in enumerate_codes(space):
            if code.dim == 0:
                continue
            for images in linear_maps(code, space):
                if preserves_weight(space, CHAIN2, omega, code, images):
                    assert extend_to_isometry(space, CHAIN2, omega, code, images) is not None

    def test_threshold_counterexample_does_not_extend(self):
        space = AlphabetSpec.uniform(F2, ANTI3.elements, 2)
        omega = WeightFunction.ones(ANTI3.elements)
        verdict = mep_brute_force(space, ANTI3, omega, max_dim=2)
        code, images = verdict.counterexample
        assert preserves_weight(space, ANTI3, omega, code, images)
        assert extend_to_isometry(space, ANTI3, omega, code, images) is None


class TestBruteForce:
    def test_single_coordinate_holds(self):
        one = Poset.chain(("a",))
        space = AlphabetSpec.uniform(F2, ("a",), 1)
        assert mep_brute_force(space, one, WeightFunction.ones(("a",))).holds

    def test_two_equal_blocks_hold(self):
        space = AlphabetSpec.uniform(F2, ANTI2.elements, 2)
        verdict = mep_brute_force(space, ANTI2, ONES2)
        assert verdict.holds and verdict.complete

    def test_three_equal_planes_fail(self):
        space = AlphabetSpec.uniform(F2, ANTI3.elements, 2)
        verdict = mep_brute_force(space, ANTI3, WeightFunction.ones(ANTI3.elements), max_dim=3)
        assert not verdict.holds
        assert verdict.counterexample[0].dim == 2

    @pytest.mark.parametrize(
        "q,dim,message",
        [
            (3, 7, "^addition table of 4782969 entries for q = 3 exceeds 1048576$"),
            (2, 17, "^space of 131072 vectors exceeds 65536$"),
        ],
    )
    def test_space_bounds_name_their_numbers_before_any_table(self, monkeypatch, q, dim, message):
        def no_work(*args):
            raise AssertionError("the space was indexed before its bounds were checked")

        monkeypatch.setattr(mep, "support_classes", no_work)
        one = Poset.chain(("a",))
        space = AlphabetSpec(FieldSpec(q), ("a",), (dim,))
        with pytest.raises(BoundExceeded, match=message):
            mep_brute_force(space, one, WeightFunction.ones(("a",)))

    def test_mixed_dims_fail_with_unit_weights(self):
        # same weight class with blocks of different sizes cannot extend
        space = AlphabetSpec(F2, ("1", "2"), (1, 2))
        verdict = mep_brute_force(space, ANTI2, ONES2)
        assert not verdict.holds

    def test_counterexample_is_deterministic(self):
        space = AlphabetSpec.uniform(F2, ANTI3.elements, 2)
        omega = WeightFunction.ones(ANTI3.elements)
        first = mep_brute_force(space, ANTI3, omega, max_dim=2)
        second = mep_brute_force(space, ANTI3, omega, max_dim=2)
        assert first.counterexample == second.counterexample

    def test_antichain_reduces_to_weight_classes(self):
        # extension holds exactly when UDP does and each class extends alone
        omega = WeightFunction(("a", "b", "c"), (Fraction(1), Fraction(1), Fraction(2)))
        space = AlphabetSpec.uniform(F2, ANTI3.elements, 1)
        whole = mep_brute_force(space, ANTI3, omega)
        from posetmetrics.posets import udp_check

        udp_ok, _ = udp_check(ANTI3, omega)
        classes = {}
        for label in ANTI3.elements:
            classes.setdefault(omega.of(label), []).append(label)
        per_class = True
        for labels in classes.values():
            sub_space = AlphabetSpec.uniform(F2, tuple(labels), 1)
            sub_poset = Poset.antichain(tuple(labels))
            sub = mep_brute_force(sub_space, sub_poset, WeightFunction.ones(tuple(labels)))
            per_class = per_class and sub.holds
        assert whole.holds == (udp_ok and per_class)


def _mat_vec_perm(si: SpaceIndex, matrix) -> tuple[int, ...]:
    """The index permutation of a matrix, one mat_vec per vector."""
    return tuple(si.index[fields.mat_vec(si.q, matrix, v)] for v in si.vectors)


def _product_scan(space, poset, omega, mode, perms, map_bound=1 << 19) -> MepVerdict:
    """The brute-force scan without backtracking, kept as the oracle.

    Raw weights or closures instead of class ids, every tuple of the class
    product with a full span per tuple, and reachable tuples from every group
    permutation.
    """
    si = SpaceIndex(space, poset, _functional_for(poset, omega, mode))
    values = [
        weight(space, poset, omega, v) if mode == "weight" else p_support(space, poset, v)
        for v in si.vectors
    ]
    classes: dict = {}
    for t, value in enumerate(values):
        classes.setdefault(value, []).append(t)
    count = len(values)
    for code in enumerate_codes(space):
        d = code.dim
        if d == 0:
            continue
        if count**d > map_bound:
            raise BoundExceeded(f"{count ** d} candidate maps at dimension {d}")
        basis_idx = [si.index[b] for b in code.basis]
        cw_values = [values[t] for t in si.span_indices(basis_idx)]
        reachable = {tuple(p[b] for b in basis_idx) for p in perms}
        for images in itertools.product(*(classes[values[b]] for b in basis_idx)):
            img_span = si.span_indices(images)
            if all(values[s] == w for s, w in zip(img_span, cw_values)):
                if images not in reachable:
                    found = (code, tuple(si.vectors[t] for t in images))
                    return MepVerdict(False, mode, "brute-force", True, found)
    return MepVerdict(True, mode, "brute-force", True)


# (q, poset size, block dims): the 4-element grid, q=3, and mixed block dimensions
ORACLE_GRIDS = [(2, 4, (1, 1, 1, 1)), (3, 3, (1, 1, 1)), (2, 3, (1, 2, 1))]


class TestBacktrackingScanOracle:
    @pytest.mark.parametrize("q, size, dims", ORACLE_GRIDS)
    def test_backtracking_matches_the_product_scan(self, q, size, dims):
        failures = 0
        for poset in _labeled_posets(size):
            space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
            runs = [(omega, "weight") for omega in _omega_variants(poset)] + [(None, "support")]
            for omega, mode in runs:
                si = SpaceIndex(space, poset, _functional_for(poset, omega, mode))
                group = enumerate_group(space, poset, _functional_for(poset, omega, mode))
                perms = []
                for iso in group:
                    perms.append(si.perm_of_matrix(iso.matrix))
                    assert perms[-1] == _mat_vec_perm(si, iso.matrix)
                verdict = mep_brute_force(space, poset, omega, mode=mode)
                assert verdict == _product_scan(space, poset, omega, mode, perms)
                failures += not verdict.holds
        assert failures > 0  # the grid exercises counterexamples, not only passes

    def test_same_refusal_as_the_product_scan(self):
        chain = Poset.chain(("a", "b", "c"))
        space = AlphabetSpec.uniform(F2, chain.elements, 1)
        omega = WeightFunction.ones(chain.elements)
        si = SpaceIndex(space, chain, _functional_for(chain, omega, "weight"))
        group = enumerate_group(space, chain, _functional_for(chain, omega, "weight"))
        perms = [si.perm_of_matrix(iso.matrix) for iso in group]
        with pytest.raises(BoundExceeded, match="^64 candidate maps at dimension 2"):
            _product_scan(space, chain, omega, "weight", perms, map_bound=63)
        with pytest.raises(
            BoundExceeded,
            match="^64 candidate maps at dimension 2 exceed the bound 63; raise it with --bound$",
        ):
            mep_brute_force(space, chain, omega, map_bound=63)


def _unreduced_scan(space, poset, omega=None, mode="weight", max_dim=None, map_bound=1 << 19):
    """The backtracking scan of every code, without the orbit skip, kept as the oracle."""
    sf = _functional_for(poset, omega, mode)
    si = SpaceIndex(space, poset, sf)
    group = enumerate_group(space, poset, sf)
    # columns[t][g] is the image of vector t under the g-th group element
    columns = list(zip(*(si.perm_of_matrix(iso.matrix) for iso in group)))
    count = len(si.vectors)
    n = space.total_dim
    top = n if max_dim is None else min(max_dim, n)
    for code in enumerate_codes(space, max_dim=top):
        d = code.dim
        if d == 0:
            continue
        if count**d > map_bound:
            raise BoundExceeded(
                f"{count ** d} candidate maps at dimension {d} exceed the bound "
                f"{map_bound}; raise it with --bound"
            )
        basis_idx = [si.index[b] for b in code.basis]
        reachable = set(zip(*(columns[b] for b in basis_idx)))
        images = _first_unreachable_map(si, basis_idx, reachable)
        if images is not None:
            image_vectors = tuple(si.vectors[t] for t in images)
            return MepVerdict(False, mode, "brute-force", True, (code, image_vectors))
    return MepVerdict(True, mode, "brute-force", complete=(top >= n))


def _orbits_scanned(space, poset, omega, max_dim, verdict) -> int:
    """Code orbits met up to the code the scan stops at, each code's span
    closed under every group permutation (from mat_vec, not the span tables)."""
    sf = _functional_for(poset, omega, "weight")
    si = SpaceIndex(space, poset, sf)
    perms = [_mat_vec_perm(si, iso.matrix) for iso in enumerate_group(space, poset, sf)]
    stop = verdict.counterexample[0] if verdict.counterexample else None
    seen: set = set()
    orbits = 0
    for code in enumerate_codes(space, max_dim=max_dim):
        if code.dim == 0:
            continue
        span = frozenset(si.index[v] for v in code.codewords())
        if span not in seen:
            orbits += 1
            seen |= {frozenset(p[t] for t in span) for p in perms}
        if code == stop:
            break
    return orbits


# mep_grid's large shapes over F_2 with unit weights: (poset, dims, max_dim, orbits scanned)
LARGE_SHAPES = [
    (Poset.chain(tuple("abcde")), (1, 1, 1, 1, 1), 3, 25),
    (Poset.chain(tuple("abcd")), (1, 1, 1, 2), 2, 11),
    (Poset.antichain(tuple("abc")), (2, 2, 2), 3, 7),
]
LARGE_IDS = ["chain5", "chain4-plane-on-top", "three-planes"]


def _oracle_perms(space, poset, sf):
    """The group's index permutations from its matrices, the path that
    _indexed_group replaced."""
    si = SpaceIndex(space, poset, sf)
    return [si.perm_of_matrix(iso.matrix) for iso in enumerate_group(space, poset, sf)]


class TestIndexedGroup:
    """The permutations composed from the semidirect factors are the group's
    permutations built from its matrices: the same multiset, in another order."""

    @staticmethod
    def _functionals(poset):
        weights = [_functional_for(poset, omega, "weight") for omega in _omega_variants(poset)]
        return weights + [_functional_for(poset, None, "support")]

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_every_poset_over_f2_matches_the_matrix_oracle(self, size):
        compared = 0
        for poset in _labeled_posets(size):
            space = AlphabetSpec.uniform(F2, poset.elements, 1)
            for sf in self._functionals(poset):
                _, perms = mep._indexed_group(space, poset, sf)
                assert Counter(perms) == Counter(_oracle_perms(space, poset, sf))
                compared += 1
        assert compared == 4 * {1: 1, 2: 3, 3: 19, 4: 219}[size]

    def test_criterion_four_shapes_match_the_matrix_oracle(self):
        compared = 0
        for space, poset, omega in _group_grid():  # q = 2 and 3, blocks up to dimension 3
            for sf in (_functional_for(poset, omega, "weight"), p_support_functional(poset)):
                _, perms = mep._indexed_group(space, poset, sf)
                assert Counter(perms) == Counter(_oracle_perms(space, poset, sf))
                compared += 1
        assert compared == 156

    def test_group_bound_fires_before_any_permutation(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a permutation was spanned")

        # the strict block of a 2-chain over F_2 alone gives 2 elements
        monkeypatch.setattr(SpaceIndex, "span_indices", unreachable)
        monkeypatch.setattr(mep, "GROUP_BOUND", 1)
        message = r"^isometry group order reaches 2, over the bound 1; raise it with --bound$"
        with pytest.raises(BoundExceeded, match=message):
            mep._indexed_group(SP21, CHAIN2, p_support_functional(CHAIN2))


class TestIntegerScan:
    def test_no_fraction_or_matrix_under_the_scan(self):
        # the scan compares integer keys and composes permutations, so nothing
        # under it adds Fractions, builds a matrix or turns one back into a permutation
        calls = []

        def hook(frame, event, arg):
            code = frame.f_code
            if event == "call" and (
                "fractions" in code.co_filename or code.co_name in ("matrix", "perm_of_matrix")
            ):
                calls.append(code.co_name)

        omega = WeightFunction.from_map({"a": "1/2", "b": "3/2", "c": "1/2"})
        space = AlphabetSpec(F2, MIXED.elements, (1, 2, 1))
        sys.setprofile(hook)
        try:
            weight_verdict = mep_brute_force(space, MIXED, omega)
            support_verdict = mep_brute_force(space, MIXED, mode="support")
            single_orbit_check(space, MIXED, omega)
        finally:
            sys.setprofile(None)
        assert calls == []
        assert support_verdict.holds and weight_verdict.complete


class TestOrbitReducedScan:
    @pytest.mark.parametrize("poset, dims, max_dim, orbits", LARGE_SHAPES, ids=LARGE_IDS)
    def test_large_shapes_match_the_unreduced_scan(self, poset, dims, max_dim, orbits):
        space = AlphabetSpec(F2, poset.elements, dims)
        omega = WeightFunction.ones(poset.elements)
        verdict = mep_brute_force(space, poset, omega, max_dim=max_dim)
        assert verdict == _unreduced_scan(space, poset, omega, max_dim=max_dim)

    def test_three_element_posets_at_q3_match_the_unreduced_scan(self):
        failures = 0
        for poset in _labeled_posets(3):
            space = AlphabetSpec(FieldSpec(3), poset.elements, (1, 1, 1))
            runs = [(omega, "weight") for omega in _omega_variants(poset)] + [(None, "support")]
            for omega, mode in runs:
                verdict = mep_brute_force(space, poset, omega, mode=mode)
                assert verdict == _unreduced_scan(space, poset, omega, mode=mode)
                failures += not verdict.holds
        assert failures > 0

    def test_same_refusal_as_the_unreduced_scan(self):
        chain = Poset.chain(tuple("abcde"))
        space = AlphabetSpec.uniform(F2, chain.elements, 1)
        omega = WeightFunction.ones(chain.elements)
        message = (
            "^1048576 candidate maps at dimension 4 exceed the bound 524288; "
            "raise it with --bound$"
        )
        for scan in (mep_brute_force, _unreduced_scan):
            with pytest.raises(BoundExceeded, match=message):
                scan(space, chain, omega)

    @pytest.mark.parametrize("poset, dims, max_dim, orbits", LARGE_SHAPES, ids=LARGE_IDS)
    def test_one_search_per_code_orbit(self, monkeypatch, poset, dims, max_dim, orbits):
        calls = []

        def counting(*args):
            calls.append(None)
            return _first_unreachable_map(*args)

        monkeypatch.setattr(mep, "_first_unreachable_map", counting)
        space = AlphabetSpec(F2, poset.elements, dims)
        omega = WeightFunction.ones(poset.elements)
        verdict = mep_brute_force(space, poset, omega, max_dim=max_dim)
        assert len(calls) == _orbits_scanned(space, poset, omega, max_dim, verdict) == orbits


class TestClosedFormCrossCheck:
    # every case of each grid with a closed form
    @pytest.mark.parametrize(
        "q, size, dims, cases", [(*grid, n) for grid, n in zip(ORACLE_GRIDS, (369, 45, 45))]
    )
    def test_brute_force_equals_the_predicate(self, q, size, dims, cases):
        checked = 0
        for poset in _labeled_posets(size):
            space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
            for omega in _omega_variants(poset):
                try:
                    closed = mep_predicate(space, poset, omega)
                except PredicateUnavailable:
                    continue
                brute = mep_brute_force(space, poset, omega)
                assert brute.complete and brute.holds == closed.holds, (poset.leq, omega)
                checked += 1
        assert checked == cases


class TestMatrixScanCrossCheck:
    @pytest.mark.parametrize("poset", [CHAIN2, ANTI2, MIXED])
    def test_structured_and_matrix_scan_verdicts_agree(self, poset):
        # an extension search over the raw invertible-matrix scan must reach
        # the same verdict as the structured-group search, code by code
        from posetmetrics.isometries import brute_force_isometries, weight_sum_functional

        space = AlphabetSpec.uniform(F2, poset.elements, 1)
        omega = WeightFunction.ones(poset.elements)
        matrices = brute_force_isometries(space, poset, weight_sum_functional(poset, omega))
        scan_holds = True
        witness = None
        for code in enumerate_codes(space):
            if code.dim == 0:
                continue
            for images in linear_maps(code, space):
                if not preserves_weight(space, poset, omega, code, images):
                    continue
                extendable = any(
                    all(
                        tuple(sum(m[r][c] * b[c] for c in range(len(b))) % 2 for r in range(len(b)))
                        == img
                        for b, img in zip(code.basis, images)
                    )
                    for m in matrices
                )
                if not extendable:
                    scan_holds = False
                    witness = (code, images)
                    break
            if not scan_holds:
                break
        verdict = mep_brute_force(space, poset, omega)
        assert verdict.holds == scan_holds
        if witness is not None:
            assert extend_to_isometry(space, poset, omega, *witness) is None


class TestPredicates:
    def test_chain_predicate_always_true(self):
        space = AlphabetSpec(F2, ("1", "2"), (1, 2))
        assert mep_predicate(space, CHAIN2, ONES2).holds

    def test_threshold_class_bound(self):
        space = AlphabetSpec.uniform(F2, ANTI3.elements, 2)
        ones = WeightFunction.ones(ANTI3.elements)
        assert not mep_predicate(space, ANTI3, ones).holds
        ok, witness = level_class_bound(space, ANTI3, ones)
        assert not ok and witness[2] == ("a", "b", "c")

    def test_two_planes_pass_the_bound(self):
        space = AlphabetSpec.uniform(F2, ANTI2.elements, 2)
        assert mep_predicate(space, ANTI2, ONES2).holds

    def test_refuses_without_a_closed_form(self):
        space = AlphabetSpec.uniform(F2, MIXED.elements, 1)
        omega = WeightFunction.from_map({"a": 1, "b": "1/2", "c": 2})
        with pytest.raises(PredicateUnavailable):
            mep_predicate(space, MIXED, omega)

    def test_agreement_with_brute_force_on_weighted_hierarchical(self):
        vee = Poset.from_covers(("a", "b", "c"), [("a", "b"), ("a", "c")])
        space = AlphabetSpec.uniform(F2, vee.elements, 1)
        for omega in (
            WeightFunction.ones(vee.elements),
            WeightFunction.from_map({"a": "1/2", "b": 1, "c": 1}),
            WeightFunction.from_map({"a": 1, "b": 2, "c": 3}),
        ):
            assert mep_predicate(space, vee, omega).holds == mep_brute_force(
                space, vee, omega
            ).holds

    def test_support_mode_always_holds(self):
        for poset in (CHAIN2, ANTI2, MIXED):
            space = AlphabetSpec.uniform(F2, poset.elements, 1)
            assert mep_p_support_predicate(space, poset).holds
            assert mep_brute_force(space, poset, mode="support").holds


class TestConditions:
    def test_unit_weights_tie_the_two_dim_conditions(self):
        from posetmetrics.posets import all_posets_on

        for poset in all_posets_on(("a", "b", "c")):
            space = AlphabetSpec.uniform(F2, poset.elements, 1)
            report = condition_report(space, poset, WeightFunction.ones(poset.elements))
            assert report.udp_matched_dims == report.level_matched_dims

    def test_chain_with_mixed_dims(self):
        space = AlphabetSpec(F2, ("1", "2"), (1, 2))
        report = condition_report(space, CHAIN2, ONES2)
        assert report.udp_matched_dims and report.level_matched_dims

    def test_antichain_mixed_dims_fails_level_condition(self):
        space = AlphabetSpec(F2, ("1", "2"), (1, 2))
        report = condition_report(space, ANTI2, ONES2)
        assert not report.level_matched_dims
        assert not report.udp_matched_dims
        assert report.common_nonzero_block


class TestSingleOrbit:
    def test_single_coordinate_transitive(self):
        one = Poset.chain(("a",))
        space = AlphabetSpec.uniform(FieldSpec(3), ("a",), 1)
        ok, _ = single_orbit_check(space, one, WeightFunction.ones(("a",)))
        assert ok

    def test_matches_the_condition_on_hierarchical_instances(self):
        for poset, dims in ((CHAIN2, (1, 2)), (ANTI2, (1, 1)), (ANTI2, (1, 2))):
            space = AlphabetSpec(F2, poset.elements, dims)
            report = condition_report(space, poset, ONES2)
            ok, _ = single_orbit_check(space, poset, ONES2)
            assert ok == report.udp_matched_dims

    def test_mixed_dims_witness(self):
        space = AlphabetSpec(F2, ("1", "2"), (1, 2))
        ok, witness = single_orbit_check(space, ANTI2, ONES2)
        assert not ok and witness is not None
        a, b = witness
        from posetmetrics.spaces import weight as wt

        assert wt(space, ANTI2, ONES2, a) == wt(space, ANTI2, ONES2, b)


class TestCanonicalDecomposition:
    def test_chain_span_example(self):
        code = LinearCode.from_rows(SP21, [(1, 1)])
        phi, parts = canonical_decomposition(SP21, CHAIN2, code)
        image = LinearCode.from_rows(SP21, [phi.apply(r) for r in code.basis])
        assert image == LinearCode.from_rows(SP21, [(0, 1)])
        assert parts[0].dim == 0
        assert parts[1] == LinearCode.from_rows(SP21, [(0, 1)])

    def test_level_supported_code_can_stay_put(self):
        code = LinearCode.from_rows(SP21, [(1, 0)])
        phi, parts = canonical_decomposition(SP21, CHAIN2, code)
        assert len(parts) == 1 and parts[0] == code
        assert phi.apply((0, 1)) == (0, 1)

    def test_zero_code(self):
        phi, parts = canonical_decomposition(SP21, CHAIN2, LinearCode.zero(SP21))
        assert parts == [] and phi.lam == (0, 1)

    def test_requires_hierarchy(self):
        space = AlphabetSpec.uniform(F2, MIXED.elements, 1)
        with pytest.raises(ValidationError):
            canonical_decomposition(space, MIXED, LinearCode.zero(space))

    def test_full_replay_on_wedge(self):
        wedge = Poset.from_covers(("a", "b", "c"), [("a", "c"), ("b", "c")])
        space = AlphabetSpec.uniform(F2, wedge.elements, 1)
        levels = wedge.level_sets()
        for code in enumerate_codes(space):
            phi, parts = canonical_decomposition(space, wedge, code)
            assert phi.lam == (0, 1, 2)
            image = LinearCode.from_rows(space, [phi.apply(r) for r in code.basis])
            combined = LinearCode.from_rows(space, [r for p in parts for r in p.basis])
            assert image == combined
            assert sum(p.dim for p in parts) == code.dim
            for idx, part in enumerate(parts, start=1):
                for row in part.basis:
                    assert space.support(row) <= levels[idx - 1]


def parts_from_codewords(space, poset, code):
    """B_j spanned by the level-j projections of the codewords that vanish
    above level j, for j up to the highest level the code reaches."""
    levels = poset.level_sets()
    level_of = {label: poset.level(label) for label in poset.elements}
    words = [(w, max((level_of[l] for l in space.support(w)), default=0)) for w in code.codewords()]
    parts = []
    for j in range(1, max(top for _w, top in words) + 1):
        on_level = {t for label in levels[j - 1] for t in space.block_range(label)}
        rows = [
            tuple(x if t in on_level else 0 for t, x in enumerate(w)) for w, top in words if top <= j
        ]
        parts.append(LinearCode.from_rows(space, rows))
    return parts


class TestCanonicalDecompositionOracle:
    """The parts against codewords; phi keeps every label and maps the code
    onto the sum of the parts.  Unit dims on every hierarchical poset of up
    to 4 elements; mixed dims (1, 2, 1) on up to 3, since (1, 2, 1, 2) over
    F_2 alone has 75 x 2825 codes."""

    @pytest.mark.parametrize(
        "q,dims",
        [(q, (1,) * n) for q in (2, 3) for n in range(1, 5)]
        + [(q, (1, 2, 1)[:n]) for q in (2, 3) for n in (2, 3)],
    )
    def test_parts_equal_the_codeword_oracle(self, q, dims):
        n = len(dims)
        for poset in [p for p in _labeled_posets(n) if p.is_hierarchical]:
            space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
            for code in enumerate_codes(space):
                phi, parts = canonical_decomposition(space, poset, code)
                assert parts == parts_from_codewords(space, poset, code)
                assert phi.lam == tuple(range(n))
                image = LinearCode.from_rows(space, [phi.apply(row) for row in code.basis])
                assert image == LinearCode.from_rows(space, [r for p in parts for r in p.basis])
