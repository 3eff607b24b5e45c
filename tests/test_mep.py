"""Extension property: brute force, closed forms, conditions, orbit checks,
and the canonical level decomposition."""

import inspect
import itertools
import random
import sys
import threading
import time
from array import array
from collections import Counter
from fractions import Fraction

import pytest

from posetmetrics import fields, isometries, mep, spaces
from posetmetrics.acceptance import _group_grid, _labeled_posets, _omega_variants
from posetmetrics.errors import (
    BoundExceeded,
    GroupBoundExceeded,
    MapBoundExceeded,
    PredicateUnavailable,
    PropertyViolation,
    ValidationError,
)
from posetmetrics.isometries import (
    Isometry,
    decompose,
    enumerate_group,
    support_isometry_group,
    weight_sum_functional,
)
from posetmetrics.mep import (
    MepVerdict,
    SpaceIndex,
    _first_leaf_outside,
    _first_unreachable_map,
    _holds_on,
    _levels,
    _orbit_spans,
    canonical_decomposition,
    condition_report,
    extend_to_isometry,
    level_class_bound,
    mep_brute_force,
    mep_p_support_predicate,
    mep_predicate,
    preserves_weight,
    single_orbit_check,
)
from posetmetrics.posets import Poset, WeightFunction, powers_of_two_weight, udp_check
from posetmetrics.spaces import (
    AlphabetSpec,
    FieldSpec,
    LinearCode,
    enumerate_codes,
    p_support,
    weight,
)

from helpers import (
    closure_key, column_table_oracle, condition_report_oracle, enumerate_codes_oracle,
    group_factors_oracle, held_set_scan_oracle, indexed_group, indexed_group_oracle, key_for,
    linear_maps, mep_predicate_oracle, question_form_oracle, scan_group, scanned_record_oracle,
    scanned_records, single_orbit_check_oracle,
)

F2 = FieldSpec(2)
CHAIN2 = Poset.chain(("1", "2"))
ANTI2 = Poset.antichain(("1", "2"))
ANTI3 = Poset.antichain(("a", "b", "c"))
MIXED = Poset.from_covers(("a", "b", "c"), [("a", "b")])
SP21 = AlphabetSpec.uniform(F2, CHAIN2.elements, 1)
ONES2 = WeightFunction.ones(CHAIN2.elements)
ONES3 = WeightFunction.ones(MIXED.elements)


class TestPreservation:
    def test_identity_preserves(self):
        code = LinearCode.from_rows(SP21, [(1, 1)])
        assert preserves_weight(SP21, CHAIN2, ONES2, code, code.basis)
        assert preserves_weight(SP21, CHAIN2, powers_of_two_weight(CHAIN2), code, code.basis)

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
                closures_kept = all(
                    p_support(space, MIXED, fields.combine(2, images, coeffs, 3))
                    == p_support(space, MIXED, vec)
                    for coeffs, vec in code.coefficient_pairs()
                )
                assert preserves_weight(space, MIXED, omega, code, images) == closures_kept

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
        mep._kept_verdict.cache_clear()  # the second scan runs, on the kept group
        second = mep_brute_force(space, ANTI3, omega, max_dim=2)
        kept = mep_brute_force(space, ANTI3, omega, max_dim=2)
        assert first.counterexample == second.counterexample == kept.counterexample

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
    return tuple(fields.vec_index(si.q, fields.mat_vec(si.q, matrix, v)) for v in si.vectors)


def _product_scan(space, poset, omega, perms, map_bound=mep.MAP_BOUND) -> MepVerdict:
    """The brute-force scan without backtracking, kept as the oracle.

    Raw Fraction weights instead of class ids, every tuple of the class
    product with a full span per tuple, and reachable tuples from every group
    permutation.
    """
    si = SpaceIndex(space, poset, weight_sum_functional(poset, omega))
    values = [weight(space, poset, omega, v) for v in si.vectors]
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
        basis_idx = [fields.vec_index(si.q, b) for b in code.basis]
        cw_values = [values[t] for t in si.span_indices(basis_idx)]
        reachable = {tuple(p[b] for b in basis_idx) for p in perms}
        for images in itertools.product(*(classes[values[b]] for b in basis_idx)):
            img_span = si.span_indices(images)
            if all(values[s] == w for s, w in zip(img_span, cw_values)):
                if images not in reachable:
                    found = (code, tuple(si.vectors[t] for t in images))
                    return MepVerdict(False, True, found)
    return MepVerdict(True, True)


# (q, poset size, block dims): the 4-element grid, q=3, and mixed block dimensions
ORACLE_GRIDS = [(2, 4, (1, 1, 1, 1)), (3, 3, (1, 1, 1)), (2, 3, (1, 2, 1))]


class TestBacktrackingScanOracle:
    @pytest.mark.parametrize("q, size, dims", ORACLE_GRIDS)
    def test_backtracking_matches_the_product_scan(self, q, size, dims):
        failures = 0
        for poset in _labeled_posets(size):
            space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
            doubling = powers_of_two_weight(poset)
            # support closure is the doubling weight: both split the vectors alike
            closures = [p_support(space, poset, v) for v in space.vectors()]
            doubled = [weight(space, poset, doubling, v) for v in space.vectors()]
            assert len(set(zip(closures, doubled))) == len(set(closures)) == len(set(doubled))
            for omega in [*_omega_variants(poset), doubling]:
                si = SpaceIndex(space, poset, weight_sum_functional(poset, omega))
                group = enumerate_group(space, poset, weight_sum_functional(poset, omega))
                perms = []
                for iso in group:
                    perms.append(si.perm_of_matrix(iso.matrix))
                    assert perms[-1] == _mat_vec_perm(si, iso.matrix)
                verdict = mep_brute_force(space, poset, omega)
                assert verdict == _product_scan(space, poset, omega, perms)
                failures += not verdict.holds
        assert failures > 0  # the grid exercises counterexamples, not only passes

    def test_same_refusal_as_the_product_scan(self):
        chain = Poset.chain(("a", "b", "c"))
        space = AlphabetSpec.uniform(F2, chain.elements, 1)
        omega = WeightFunction.ones(chain.elements)
        si = SpaceIndex(space, chain, key_for(chain, omega, "weight"))
        group = enumerate_group(space, chain, key_for(chain, omega, "weight"))
        perms = [si.perm_of_matrix(iso.matrix) for iso in group]
        with pytest.raises(BoundExceeded, match="^64 candidate maps at dimension 2"):
            _product_scan(space, chain, omega, perms, map_bound=63)
        with pytest.raises(
            MapBoundExceeded,
            match="^64 candidate maps at dimension 2 exceed the bound 63$",
        ):
            mep_brute_force(space, chain, omega, map_bound=63)


def _unreduced_scan(space, poset, omega, max_dim=None, map_bound=mep.MAP_BOUND):
    """The backtracking scan of every code, without the orbit skip, kept as the oracle."""
    key = weight_sum_functional(poset, omega)
    si = SpaceIndex(space, poset, key)
    group = enumerate_group(space, poset, key)
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
                f"{count ** d} candidate maps at dimension {d} exceed the bound {map_bound}"
            )
        basis_idx = [fields.vec_index(si.q, b) for b in code.basis]
        reachable = set(zip(*(columns[b] for b in basis_idx)))
        images = _first_unreachable_map(si, basis_idx, reachable)
        if images is not None:
            image_vectors = tuple(si.vectors[t] for t in images)
            return MepVerdict(False, True, (code, image_vectors))
    return MepVerdict(True, complete=(top >= n))


def _orbits_scanned(space, poset, omega, max_dim, verdict) -> Counter:
    """Code orbits met up to the code the scan stops at, by dimension, each
    code's span closed under every group permutation (from mat_vec, not the
    span tables)."""
    key = key_for(poset, omega, "weight")
    si = SpaceIndex(space, poset, key)
    perms = [_mat_vec_perm(si, iso.matrix) for iso in enumerate_group(space, poset, key)]
    stop = verdict.counterexample[0] if verdict.counterexample else None
    seen: set = set()
    orbits = Counter()
    for code in enumerate_codes(space, max_dim=max_dim):
        if code.dim == 0:
            continue
        span = frozenset(fields.vec_index(si.q, v) for v in code.codewords())
        if span not in seen:
            orbits[code.dim] += 1
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


def _oracle_perms(space, poset, key):
    """The group's index permutations from its matrices, the path that
    the column table replaced."""
    si = SpaceIndex(space, poset, key)
    return [si.perm_of_matrix(iso.matrix) for iso in enumerate_group(space, poset, key)]


def _factor_outer(listing, sizes):
    """A listing lexicographic in the factor picks (i_1, ..., i_m), reordered
    as the column table lists it: the last factor's pick varies slowest."""
    reordered = []
    for picks in itertools.product(*map(range, reversed(sizes))):
        lex = 0
        for size, pick in zip(sizes, reversed(picks)):
            lex = lex * size + pick
        reordered.append(listing[lex])
    return reordered


def _assert_table_matches_the_oracles(space, poset, key):
    """The column table's rows are the folded listing's permutations in the
    factor-outer order, and the matrix oracle's as a multiset."""
    _, columns = indexed_group(space, poset, key)
    rows = list(zip(*columns))
    _, listing = indexed_group_oracle(space, poset, key)
    sizes = [len(factor) for factor in group_factors_oracle(space, poset, key)[1]]
    assert rows == _factor_outer(listing, sizes)
    assert Counter(rows) == Counter(listing) == Counter(_oracle_perms(space, poset, key))


class TestIndexedGroup:
    """The permutations composed from the semidirect factors are the group's
    permutations built from its matrices: the same multiset, in another order."""

    @staticmethod
    def _functionals(poset):
        weights = [key_for(poset, omega, "weight") for omega in _omega_variants(poset)]
        return weights + [key_for(poset, None, "support")]

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_every_poset_over_f2_matches_the_matrix_oracle(self, size):
        compared = 0
        for poset in _labeled_posets(size):
            space = AlphabetSpec.uniform(F2, poset.elements, 1)
            for key in self._functionals(poset):
                _assert_table_matches_the_oracles(space, poset, key)
                compared += 1
        assert compared == 4 * {1: 1, 2: 3, 3: 19, 4: 219}[size]

    @pytest.mark.parametrize("poset, dims, max_dim, orbits", LARGE_SHAPES, ids=LARGE_IDS)
    def test_large_shapes_match_the_matrix_oracle(self, poset, dims, max_dim, orbits):
        space = AlphabetSpec(F2, poset.elements, dims)
        for key in self._functionals(poset):
            _assert_table_matches_the_oracles(space, poset, key)

    def test_columns_are_packed_16_bit_indices(self):
        # a < b, c apart over F_3 with dims (1, 2, 1): 81 vectors, and the
        # group's 2 x 48 x 2 diagonal blocks times 9 strict blocks (a, b)
        space = AlphabetSpec(FieldSpec(3), MIXED.elements, (1, 2, 1))
        si, columns = indexed_group(space, MIXED, key_for(MIXED, ONES3, "weight"))
        assert len(columns) == len(si.vectors) == 81
        for column in columns:
            assert (type(column), column.format, column.itemsize) == (memoryview, "H", 2)
            assert len(column) == 1728 == column.nbytes // 2
        assert set(columns[0]) == {0}  # every element fixes the zero vector

    def test_one_element_factors_are_not_spanned(self):
        # the 2-chain over F_2: one label map and GL_1(F_2) twice are identities,
        # so the strict block's two elements are the only factor spanned
        _, factors = group_factors_oracle(SP21, CHAIN2, key_for(CHAIN2, ONES2, "weight"))
        assert [len(factor) for factor in factors] == [2]
        assert sorted(map(tuple, factors[0])) == [(0, 1, 2, 3), (0, 3, 2, 1)]  # (0, 1) -> (1, 1)

    def test_factor_elements_take_two_bytes_an_entry(self):
        # with 8! label maps over the 1024 vectors of eight F_2 points beside
        # a 2-chain, `mep --brute-force` peaked at 1.5 GB with the factors as
        # tuples of fresh ints, and at 354 MB packed
        space = AlphabetSpec.uniform(F2, ANTI3.elements, 2)
        key = key_for(ANTI3, WeightFunction.ones(ANTI3.elements), "weight")
        _, factors = group_factors_oracle(space, ANTI3, key)
        assert [len(factor) for factor in factors] == [6, 6, 6, 6]  # S_3, then GL_2(F_2) thrice
        assert {(type(f), f.typecode, len(f)) for factor in factors for f in factor} == {
            (array, "H", 64)
        }

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_support_mode_equals_the_closure_key(self, size, monkeypatch):
        # the doubling weights' key against the mask itself, the key support
        # closure compared before it became a weight
        runs = []
        for poset in _labeled_posets(size):
            space = AlphabetSpec.uniform(F2, poset.elements, 1)
            doubling = SpaceIndex(space, poset, key_for(poset, None, "support"))
            assert doubling.values == SpaceIndex(space, poset, closure_key).values
            group = [iso.matrix for iso in support_isometry_group(space, poset)]
            assert group == [iso.matrix for iso in enumerate_group(space, poset, closure_key)]
            runs.append((space, poset, mep_brute_force(space, poset, powers_of_two_weight(poset))))
        monkeypatch.setattr(mep, "weight_sum_functional", lambda poset, omega: closure_key)
        for space, poset, verdict in runs:
            mep._kept_verdict.cache_clear()  # the closure key's partition is the doubling one
            assert mep_brute_force(space, poset, powers_of_two_weight(poset)) == verdict

    def test_the_weight_is_the_one_way_to_ask(self):
        # support closure is asked as the doubling weights; no mode switch is left
        parameters = inspect.signature(mep_brute_force).parameters
        assert list(parameters) == ["space", "poset", "omega", "max_dim", "map_bound", "trace"]
        assert parameters["omega"].default is inspect.Parameter.empty
        assert parameters["trace"].default is None
        assert parameters["map_bound"].default == mep.MAP_BOUND == 1 << 19
        with pytest.raises(TypeError):
            mep_brute_force(SP21, CHAIN2)
        names = ("holds", "complete", "counterexample", "predicate_trace")
        assert MepVerdict.__match_args__ == names

    def test_criterion_four_shapes_match_the_matrix_oracle(self):
        compared = 0
        for space, poset, omega in _group_grid():  # q = 2 and 3, blocks up to dimension 3
            for key in (key_for(poset, omega, "weight"), key_for(poset, None, "support")):
                _assert_table_matches_the_oracles(space, poset, key)
                compared += 1
        assert compared == 156

    def test_group_bound_fires_before_any_permutation(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a permutation was spanned")

        # the strict block of a 2-chain over F_2 alone gives 2 elements
        monkeypatch.setattr(SpaceIndex, "span_indices", unreachable)
        monkeypatch.setattr(mep, "GROUP_BOUND", 1)
        # no flag raises the bound of the scan, so the message names none
        message = r"^isometry group order reaches 2, over the bound 1$"
        with pytest.raises(GroupBoundExceeded, match=message):
            indexed_group(SP21, CHAIN2, key_for(CHAIN2, None, "support"))

    def test_entry_bound_fires_before_any_permutation(self, monkeypatch):
        # |G| x q^N index entries: 2^27 admits F_3^5's 90.7M and refuses three
        # F_3 planes' 484M (the command-level test runs those)
        assert mep.GROUP_TABLE_BOUND == 1 << 27
        ones = WeightFunction.ones(CHAIN2.elements)
        key = weight_sum_functional(CHAIN2, ones)
        _, columns = indexed_group(SP21, CHAIN2, key)
        entries = len(columns[0]) * SP21.vector_count
        assert len(columns[0]) == len(list(enumerate_group(SP21, CHAIN2, key))) > 1
        monkeypatch.setattr(mep, "GROUP_TABLE_BOUND", entries)
        assert indexed_group(SP21, CHAIN2, key)[1] == columns

        verdict = _union_find_orbit_check(SP21, CHAIN2, ones)

        def unreachable(*args):
            raise AssertionError("a permutation was spanned")

        def unfolded(*args):
            raise AssertionError("the group table was built")

        monkeypatch.setattr(mep, "GROUP_TABLE_BOUND", entries - 1)
        # the orbit check reads no table, so the table's bound does not refuse it
        scan_group = mep._scan_group
        monkeypatch.setattr(mep, "_scan_group", unfolded)
        assert single_orbit_check(SP21, CHAIN2, ones) == verdict == (True, None)
        monkeypatch.setattr(mep, "_scan_group", scan_group)
        monkeypatch.setattr(SpaceIndex, "span_indices", unreachable)
        message = rf"^group index table of {entries} entries exceeds {entries - 1}$"
        with pytest.raises(BoundExceeded, match=message):
            mep_brute_force(SP21, CHAIN2, ones)

    def test_the_orbit_check_spans_no_permutation(self, monkeypatch):
        # the orbit check reads closure masks and label maps alone: no index,
        # factor, span or table, on the 2-chain (holding) and on a 2-dim
        # block beside a point (failing), against the factor-list oracle
        cases = [(SP21, CHAIN2), (AlphabetSpec(F2, ANTI2.elements, (1, 2)), ANTI2)]
        expected = [single_orbit_check_oracle(space, poset, ONES2) for space, poset in cases]
        assert [ok for ok, _ in expected] == [True, False]

        def unreachable(*args, **kwargs):
            raise AssertionError("the orbit check built an index or a permutation")

        for name in ("_scan_group", "_spanned", "_label_map_columns", "_kernel_columns"):
            monkeypatch.setattr(mep, name, unreachable)
        monkeypatch.setattr(SpaceIndex, "__init__", unreachable)
        monkeypatch.setattr(SpaceIndex, "span_indices", unreachable)
        assert [single_orbit_check(space, poset, ONES2) for space, poset in cases] == expected


class TestSpaceIndexTables:
    """The add table grown from base-q digits, and the multiples spanned from
    it, are the ones read off the vectors through the vector -> index dict."""

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("dims", [(1, 1, 1), (1, 2, 1)], ids=str)
    def test_digit_tables_match_the_vector_dict(self, q, dims):
        space = AlphabetSpec(FieldSpec(q), ANTI3.elements, dims)
        si = SpaceIndex(space, ANTI3, key_for(ANTI3, None, "support"))
        vectors = si.vectors
        index = {v: t for t, v in enumerate(vectors)}
        for b, v in enumerate(vectors):  # the span of one vector is c v for c = 0..q-1
            assert si.span_indices((b,)) == [index[fields.vec_scale(q, c, v)] for c in range(q)]
        adds = [[index[fields.vec_add(q, a, b)] for b in vectors] for a in vectors]
        if q == 2:
            assert si._add_table is None  # span_indices adds by xor
            assert adds == [[a ^ b for b in range(len(vectors))] for a in range(len(vectors))]
        else:
            assert si._add_table == adds


class TestIntegerScan:
    def test_no_fraction_or_matrix_under_the_scan(self):
        # the scan compares integer keys and composes permutations, so nothing
        # under it adds Fractions, builds a matrix or turns one back into a
        # permutation; the doubling weights of support closure are built with
        # Fractions, once, before the scan
        calls = []

        def hook(frame, event, arg):
            code = frame.f_code
            if event == "call" and (
                "fractions" in code.co_filename or code.co_name in ("matrix", "perm_of_matrix")
            ):
                calls[-1].append(code.co_name)

        def traced(fn, *args, **kwargs):
            calls.append([])
            sys.setprofile(hook)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.setprofile(None)

        omega = WeightFunction.from_map({"a": "1/2", "b": "3/2", "c": "1/2"})
        space = AlphabetSpec(F2, MIXED.elements, (1, 2, 1))
        weight_verdict = traced(mep_brute_force, space, MIXED, omega)
        doubling = traced(powers_of_two_weight, MIXED)
        support_verdict = traced(mep_brute_force, space, MIXED, doubling)
        traced(single_orbit_check, space, MIXED, omega)
        weight_calls, doubling_calls, support_calls, orbit_calls = calls
        assert weight_calls == support_calls == orbit_calls == []
        assert "__new__" in doubling_calls  # the hook sees Fraction work
        assert support_verdict.holds and weight_verdict.complete


def _small_grid():
    """Every labeled poset on up to 3 elements at q=2 with unit dims and with a
    2-dim first block, and at q=3 with unit dims; three weightings and the
    doubling weights of support closure."""
    for size in (1, 2, 3):
        for poset in _labeled_posets(size):
            units = (1,) * size
            for q, dims in ((2, units), (2, (2,) + units[1:]), (3, units)):
                space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
                for omega in [*_omega_variants(poset), powers_of_two_weight(poset)]:
                    yield space, poset, omega


class TestOrbitReducedScan:
    @pytest.mark.parametrize("poset, dims, max_dim, orbits", LARGE_SHAPES, ids=LARGE_IDS)
    def test_large_shapes_match_the_unreduced_scan(self, poset, dims, max_dim, orbits):
        space = AlphabetSpec(F2, poset.elements, dims)
        omega = WeightFunction.ones(poset.elements)
        verdict = mep_brute_force(space, poset, omega, max_dim=max_dim)
        assert verdict == _unreduced_scan(space, poset, omega, max_dim=max_dim)

    def test_small_grid_matches_the_unreduced_scan(self):
        scans = failures = 0
        for space, poset, omega in _small_grid():
            verdict = mep_brute_force(space, poset, omega)
            assert verdict == _unreduced_scan(space, poset, omega)
            scans += 1
            failures += not verdict.holds
        assert scans == 276 and failures > 0

    def test_same_refusal_as_the_unreduced_scan(self):
        chain = Poset.chain(tuple("abcde"))
        space = AlphabetSpec.uniform(F2, chain.elements, 1)
        omega = WeightFunction.ones(chain.elements)
        message = "^1048576 candidate maps at dimension 4 exceed the bound 524288$"
        for scan in (mep_brute_force, _unreduced_scan):
            with pytest.raises(BoundExceeded, match=message):
                scan(space, chain, omega)

    @pytest.mark.parametrize("poset, dims, max_dim, orbits", LARGE_SHAPES, ids=LARGE_IDS)
    def test_one_search_per_code_orbit(self, monkeypatch, poset, dims, max_dim, orbits):
        # one decision per orbit met: lines on their closure masks, wider
        # codes by one stabilizer-chain search each
        calls = []

        def counting(*args):
            calls.append(None)
            return _holds_on(*args)

        monkeypatch.setattr(mep, "_holds_on", counting)
        space = AlphabetSpec(F2, poset.elements, dims)
        omega = WeightFunction.ones(poset.elements)
        trace = {}
        verdict = mep_brute_force(space, poset, omega, max_dim=max_dim, trace=trace)
        met = _orbits_scanned(space, poset, omega, max_dim, verdict)
        assert trace["codes_decided"] == sum(met.values()) == orbits
        assert len(calls) == orbits - met[1] > 0

    @pytest.mark.parametrize("poset, dims, max_dim, orbits", LARGE_SHAPES[:2], ids=LARGE_IDS[:2])
    def test_held_spans_are_the_full_orbit_closure(self, poset, dims, max_dim, orbits):
        # marking one element per basis-image tuple leaves the same spans held
        # as marking with every element: the held spans are the closure of
        # the wider codes, cold and with the kernel kept, and the lines of
        # the classes that held are the closure of the lines; read the
        # scan's held sets as it returns
        states = []

        def hook(frame, event, arg):
            if event == "return" and frame.f_code is mep._scanned_record.__code__:
                local = frame.f_locals
                states.append((set(local["held"]), set(local["held_classes"]),
                               local["class_of_mask"], local["masks"]))

        space = AlphabetSpec(F2, poset.elements, dims)
        omega = WeightFunction.ones(poset.elements)
        mep._kept_kernel.cache_clear()
        verdicts = []
        sys.setprofile(hook)
        try:
            for _ in range(2):  # the second scan meets the kept kernel, not the kept verdict
                mep._kept_verdict.cache_clear()
                verdicts.append(mep_brute_force(space, poset, omega, max_dim=max_dim))
        finally:
            sys.setprofile(None)
        assert verdicts[0] == verdicts[1] and verdicts[0].holds
        key = key_for(poset, omega, "weight")
        si = SpaceIndex(space, poset, key)
        perms = [_mat_vec_perm(si, iso.matrix) for iso in enumerate_group(space, poset, key)]
        closure = {1: set(), 2: set()}  # the lines, and the wider codes
        for code in enumerate_codes(space, max_dim=max_dim):
            if code.dim:
                span = frozenset(fields.vec_index(si.q, v) for v in code.codewords())
                closure[min(code.dim, 2)] |= {frozenset(p[t] for t in span) for p in perms}
        met = _orbits_scanned(space, poset, omega, max_dim, verdicts[0])
        assert len(states) == 2 and states[0] == states[1]
        for held, held_classes, class_of_mask, masks in states:
            assert held == closure[2]
            lines = {frozenset(si.span_indices((t,))) for t in range(1, len(masks))
                     if class_of_mask[masks[t]] in held_classes}
            assert lines == closure[1] and len(held_classes) == met[1]

    def test_stabilizer_decision_prunes_the_leaf_search(self, monkeypatch):
        # a timing-free work count on chain5: spans under the stabilizer-chain
        # decision against the same scan deciding every representative by its leaves
        calls = []
        span_indices = SpaceIndex.span_indices

        def counting(self, *args):
            calls.append(None)
            return span_indices(self, *args)

        def leaf_search(si, basis_idx, columns):
            reachable = set(zip(*(columns[b] for b in basis_idx)))
            return _first_unreachable_map(si, basis_idx, reachable) is None

        poset, dims, max_dim, _ = LARGE_SHAPES[0]
        space = AlphabetSpec(F2, poset.elements, dims)
        omega = WeightFunction.ones(poset.elements)
        monkeypatch.setattr(SpaceIndex, "span_indices", counting)
        verdict = mep_brute_force(space, poset, omega, max_dim=max_dim)
        pruned = len(calls)
        calls.clear()
        monkeypatch.setattr(mep, "_holds_on", leaf_search)
        mep._kept_verdict.cache_clear()  # the leaf-search scan runs, not the kept verdict
        assert mep_brute_force(space, poset, omega, max_dim=max_dim) == verdict
        assert 2 * pruned <= len(calls)  # 427 against 2396 when this test was written


def _movers_marking(columns, basis_idx, span):
    """A held code's orbit marked with one group element per distinct
    basis-image tuple, kept as the oracle of _orbit_spans."""
    movers = dict(zip(zip(*(columns[b] for b in basis_idx)), zip(*columns)))
    return {frozenset(map(p.__getitem__, span)) for p in movers.values()}


def _scan_grid():
    """Every labeled poset on up to 4 elements at q = 2 and on up to 3 at
    q = 3, unit blocks, with unit, doubling and alternating 1/2, 1 weights."""
    for q, most in ((2, 4), (3, 3)):
        for size in range(1, most + 1):
            for poset in _labeled_posets(size):
                space = AlphabetSpec.uniform(FieldSpec(q), poset.elements, 1)
                for omega in _omega_variants(poset):
                    yield space, poset, omega


class TestRecordedScan:
    """The scan on the kept codes and span tables of spaces.shape_tables."""

    @pytest.fixture(autouse=True)
    def _no_kept_shapes(self):
        _clear_kept()
        yield
        spaces._shape_tables.cache_clear()

    def test_cold_and_warm_equal_the_scan_that_keeps_nothing(self, monkeypatch):
        with monkeypatch.context() as patched:
            for module in (spaces, mep):
                patched.setattr(module, "shape_tables", lambda q, n: None)
            unkept = []
            for case in _scan_grid():
                mep._kept_verdict.cache_clear()
                unkept.append(mep_brute_force(*case))
        assert spaces._shape_tables.cache_info().misses == 0
        cold = []
        for case in _scan_grid():
            _clear_kept()
            cold.append(mep_brute_force(*case))
        warm = [mep_brute_force(*case) for case in _scan_grid()]  # tables shared by every case
        assert cold == warm == unkept
        assert Counter((v.holds, v.counterexample is not None) for v in unkept) == {
            (True, False): 488, (False, True): 307,
        }

    def test_a_scan_failing_at_dimension_one_spans_no_code(self, monkeypatch):
        # lines are decided on closure masks, so a scan that fails among them
        # spans nothing and fetches no group; a scan failing at dimension 2
        # spans every code of dimension 2 up to the counterexample, held,
        # skipped or failing, and no line
        def unreachable(*args, **kwargs):
            raise AssertionError("a line scan fetched the group or spanned")

        space = AlphabetSpec(F2, ANTI2.elements, (2, 1))
        with monkeypatch.context() as patched:
            patched.setattr(mep, "_scan_group", unreachable)
            patched.setattr(SpaceIndex, "span_indices", unreachable)
            verdict = mep_brute_force(space, ANTI2, WeightFunction.ones(ANTI2.elements))
        code, _ = verdict.counterexample
        assert code.dim == 1
        kept, spans = spaces._shape_tables(2, 3)
        assert kept == tuple(enumerate_codes_oracle(space, indices=True)) and spans == {}
        planes = AlphabetSpec.uniform(F2, ANTI3.elements, 2)
        verdict = mep_brute_force(planes, ANTI3, WeightFunction.ones(ANTI3.elements))
        code, _ = verdict.counterexample
        assert code.dim == 2
        oracle = list(enumerate_codes_oracle(planes, indices=True))
        failing = oracle.index(tuple(fields.vec_index(2, row) for row in code.basis))
        spans = spaces._shape_tables(2, 6)[1]
        assert set(spans) == {basis for basis in oracle[:failing + 1] if len(basis) == 2}

    def test_span_tables_hold_their_own_shapes_spans(self):
        # two shapes of one q in turn, so a table keyed by q alone would
        # hold the second shape's spans under the first; F_2^3's index tuples
        # are also codes of F_2^4, so only the full set of spans tells them apart
        for n in (3, 4):
            poset = Poset.chain(tuple("abcd"[:n]))
            space = AlphabetSpec.uniform(F2, poset.elements, 1)
            assert mep_brute_force(space, poset, WeightFunction.ones(poset.elements)).holds
            si = SpaceIndex(space, poset, closure_key)
            bases = set(enumerate_codes_oracle(space, indices=True))
            spans = spaces._shape_tables(2, n)[1]
            # a scan that holds spans every code of dimension 2 and up, and no line
            assert set(spans) == {basis for basis in bases if len(basis) >= 2}
            assert all(span == frozenset(si.span_indices(b)) for b, span in spans.items())

    def test_a_warm_scan_spans_no_code(self, monkeypatch):
        # a cold scan spans every code of dimension 2 and up that it reads
        # (lines are decided on masks) and every factor element of the
        # group; a warm one, another question with the same label maps
        # (MIXED has only the identity) and partition, scanned to dimension
        # 2, spans neither: its table is the kept kernel; a question whose lines fail
        # (unit weights: a and c share a class but no label map) fetches no
        # group and spans nothing; the kept verdict reads nothing
        calls = []
        span_indices = SpaceIndex.span_indices

        def counting(self, basis, *prefix):
            calls.append(bool(prefix))  # code and element spans start from no prefix
            return span_indices(self, basis, *prefix)

        key = key_for(MIXED, ONES3, "weight")
        doubling = powers_of_two_weight(MIXED)
        for dims in ((1, 1, 1), (1, 2, 1)):
            space = AlphabetSpec(F2, MIXED.elements, dims)
            elements = sum(map(len, group_factors_oracle(space, MIXED, key, listed=True)[1]))
            monkeypatch.setattr(SpaceIndex, "span_indices", counting)
            cold_trace, warm_trace, failing_trace, kept_trace = {}, {}, {}, {}
            # the doubling scan holds, so it reads every code and spans the wider ones
            assert mep_brute_force(space, MIXED, doubling, trace=cold_trace).holds
            lines = space.vector_count - 1  # over F_2 each nonzero vector spans one line
            assert calls.count(False) == cold_trace["codes_read"] - lines + elements
            assert elements > 0 and cold_trace["kernel"] == cold_trace["group_table"] == "built"
            calls.clear()
            assert mep_brute_force(space, MIXED, doubling, max_dim=2, trace=warm_trace).holds
            assert calls.count(False) == 0 and warm_trace["verdict"] == "scanned"
            assert (warm_trace["kernel"], warm_trace["group_table"]) == ("kept", "built")
            assert warm_trace["codes_decided"] < warm_trace["codes_read"] < cold_trace["codes_read"]
            calls.clear()
            verdict = mep_brute_force(space, MIXED, ONES3, trace=failing_trace)
            assert calls == [] and failing_trace["verdict"] == "scanned"
            assert failing_trace["kernel"] == failing_trace["group_table"] == "none"
            assert verdict.counterexample[0].dim == 1
            assert mep_brute_force(space, MIXED, ONES3, trace=kept_trace) == verdict
            assert calls == [] and kept_trace["verdict"] == "kept"
            assert kept_trace["codes_read"] == failing_trace["codes_read"]
            indexed_group(space, MIXED, key)
            assert calls.count(False) == 0
            monkeypatch.undo()
            assert verdict == held_set_scan_oracle(space, MIXED, ONES3)

    def test_a_shape_past_the_code_bound_keeps_no_span(self):
        anti = Poset.antichain(tuple(f"x{t}" for t in range(8)))
        space = AlphabetSpec.uniform(F2, anti.elements, 1)
        verdict = mep_brute_force(space, anti, powers_of_two_weight(anti), max_dim=1)
        assert verdict == MepVerdict(holds=True, complete=False)
        assert spaces.shape_tables(2, 8) is None
        assert spaces._shape_tables.cache_info().misses == 0


def _held_lines(space, poset, omega, max_dim=None) -> tuple[set, set, int]:
    """The lines of the classes whose lines held in mep._scanned_record, the
    orbits of the lines that held in scanned_record_oracle (decided and
    marked on the table), and the held line orbits both counted, each read
    from its scan's frame as it returns; the two records are equal."""
    names = {mep._scanned_record.__code__: "scan", scanned_record_oracle.__code__: "oracle"}
    frames = {}

    def hook(frame, event, arg):
        if event == "return" and frame.f_code in names:
            frames[names[frame.f_code]] = dict(frame.f_locals)

    sys.setprofile(hook)
    try:
        scanned, oracle_scanned = scanned_records(space, poset, key_for(poset, omega, "weight"), max_dim)
    finally:
        sys.setprofile(None)
    assert scanned == oracle_scanned
    scan, oracle = frames["scan"], frames["oracle"]
    si, columns = oracle["si"], oracle["columns"]
    oracle_lines = [span for span in oracle["held"] if len(span) == si.q]
    classes, masks = scan["class_of_mask"], scan["masks"]
    lines = {frozenset(si.span_indices((t,))) for t in range(1, len(masks))
             if classes[masks[t]] in scan["held_classes"]}
    assert len(scan["held_classes"]) == len(oracle_lines)
    return lines, set().union(*(mep._orbit_spans(columns, span) for span in oracle_lines)), len(oracle_lines)


class TestHeldOrbitOracle:
    @staticmethod
    def _marked_codes(monkeypatch, space, poset, omega, max_dim=None) -> tuple[int, int]:
        """Scan with every held wider code's marking checked against the
        movers oracle: equal spans per code, so equal held sets after every
        code.  The lines of the classes that held are the oracle scan's held
        lines.  The held wider codes and the held line orbits, counted."""
        bases, held, oracle = [], set(), set()

        def deciding(si, basis_idx, columns):
            bases.append(basis_idx)
            return _holds_on(si, basis_idx, columns)

        def marking(columns, span):
            spans = set(_orbit_spans(columns, span))
            held.update(spans)
            oracle.update(_movers_marking(columns, bases[-1], span))
            assert held == oracle
            return spans

        monkeypatch.setattr(mep, "_holds_on", deciding)
        monkeypatch.setattr(mep, "_orbit_spans", marking)
        # a kept verdict would leave held orbits unmarked
        mep._kept_verdict.cache_clear()
        verdict = mep_brute_force(space, poset, omega, max_dim=max_dim)
        monkeypatch.undo()
        mep._kept_verdict.cache_clear()  # the rerun scans again, unpatched
        assert verdict == mep_brute_force(space, poset, omega, max_dim=max_dim)
        lines, oracle_lines, line_orbits = _held_lines(space, poset, omega, max_dim)
        assert lines == oracle_lines
        failing_wide = verdict.counterexample is not None and verdict.counterexample[0].dim > 1
        return len(bases) - failing_wide, line_orbits

    def test_small_grid(self, monkeypatch):
        marked = [
            self._marked_codes(monkeypatch, space, poset, omega)
            for space, poset, omega in _small_grid()
        ]
        # held codes over the 276 scans: wider codes marked on the table, and
        # line orbits held on masks; 2038 in all, as when lines were marked too
        assert [sum(counts) for counts in zip(*marked)] == [1246, 792]

    @pytest.mark.parametrize("poset, dims, max_dim, orbits", LARGE_SHAPES, ids=LARGE_IDS)
    def test_large_shapes(self, monkeypatch, poset, dims, max_dim, orbits):
        space = AlphabetSpec(F2, poset.elements, dims)
        omega = WeightFunction.ones(poset.elements)
        wide, lines = self._marked_codes(monkeypatch, space, poset, omega, max_dim=max_dim)
        assert wide + lines == (orbits if dims != (2, 2, 2) else orbits - 1)
        assert wide > 0 and lines > 0


def _clear_kept():
    for cache in (spaces._shape_tables, mep._kept_kernel, mep._kept_verdict):
        cache.cache_clear()


def _kept_grid(most_q2=4, blocks_q3=True):
    """Per (poset, dims), its four questions: every labeled poset on up to 4
    elements at q = 2 and on up to 3 at q = 3, with unit dims, and up to 3
    elements with a 2-dim second block, (1, 2, 1) (at q = 3 only when
    blocks_q3: its groups are over the keep bound); unit, doubling and
    alternating 1/2, 1 weights, then support closure, asked as the doubling
    weights once more."""
    for q, most in ((2, most_q2), (3, 3)):
        for size in range(1, most + 1):
            for poset in _labeled_posets(size):
                wide = size <= 3 and (q == 2 or blocks_q3)
                for dims in dict.fromkeys([(1,) * size, (1, 2, 1)[:size] if wide else (1,) * size]):
                    space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
                    omegas = [*_omega_variants(poset), powers_of_two_weight(poset)]
                    yield [(space, poset, omega) for omega in omegas]


def _interleaved(groups, chunk=6):
    """Each (poset, dims)'s questions back to back, which keeps its kernel
    and repeats the doubling group; then the same cases one question per
    (poset, dims) across chunks of six, which evicts both (4 kept)."""
    for group in groups:
        yield from group
    for start in range(0, len(groups), chunk):
        for cases in zip(*groups[start:start + chunk]):
            yield from cases


def _outcome(scan, space, poset, omega, **kwargs):
    """A scan's verdict, or its refusal's type and message."""
    try:
        return scan(space, poset, omega, **kwargs)
    except BoundExceeded as exc:
        return type(exc), str(exc)


def _table_bytes(columns):
    return [column.tobytes() for column in columns]


def _kernel_kept(space, poset):
    """Is the kernel table of the space's order under the keep bound?"""
    return isometries.group_order(space, poset, 1) * space.vector_count <= mep.KEPT_TABLE_BOUND


class TestKeptKernelOracle:
    """The kept kernel and the tables joined over it against the table built
    afresh and the held-set scan (helpers.column_table_oracle,
    held_set_scan_oracle)."""

    @pytest.fixture(autouse=True)
    def _nothing_kept(self):
        _clear_kept()
        yield
        _clear_kept()

    def test_kept_tables_equal_the_oracle_cold_warm_and_evicted(self):
        # two orders with equal dims and two label-map sets on one order meet
        # in turn, so a kernel keyed without its below masks, or a table
        # joined with another question's label maps, would give another
        # group's table (F_3 with a 2-dim block has kernels over the keep
        # bound, built each time); every table is joined afresh
        groups = list(_kept_grid(most_q2=3))
        statuses = Counter()
        for cases in groups:
            for space, poset, omega in cases:
                key = weight_sum_functional(poset, omega)
                expected = _table_bytes(column_table_oracle(space, poset, key)[1])
                for read in ("cold or kept", "warm"):
                    trace = {}
                    columns = scan_group(space, poset, key, trace)[1]
                    assert _table_bytes(columns) == expected, (poset.leq, space.dims, omega)
                    assert trace["group_table"] == "built"
                    statuses[read, _kernel_kept(space, poset), trace["kernel"]] += 1
        assert statuses["warm", True, "built"] == statuses["cold or kept", False, "kept"] == 0
        assert statuses["warm", False, "kept"] == 0 and statuses["warm", False, "built"] > 0
        for space, poset, omega in (cases[0] for cases in groups[:2 * spaces.CACHED_SHAPES]):
            key = weight_sum_functional(poset, omega)
            trace = {}
            columns = scan_group(space, poset, key, trace)[1]  # evicted by the later groups
            assert trace["kernel"] == trace["group_table"] == "built"
            assert _table_bytes(columns) == _table_bytes(column_table_oracle(space, poset, key)[1])
        assert statuses["cold or kept", True, "built"] > 0
        assert statuses["cold or kept", True, "kept"] > 0  # an order's second weighting, at least

    def test_large_shapes_keep_tables_equal_to_the_oracle(self):
        for poset, dims, _, _ in LARGE_SHAPES:
            space = AlphabetSpec(F2, poset.elements, dims)
            for omega in _omega_variants(poset):
                key = weight_sum_functional(poset, omega)
                expected = _table_bytes(column_table_oracle(space, poset, key)[1])
                assert _table_bytes(indexed_group(space, poset, key)[1]) == expected
                assert _table_bytes(indexed_group(space, poset, key)[1]) == expected

    def test_interleaved_scans_equal_the_held_set_oracle(self):
        groups = list(_kept_grid())
        cases = list(_interleaved(groups))
        expected = {}
        for case in cases:
            if id(case) not in expected:
                expected[id(case)] = _outcome(held_set_scan_oracle, *case)
        kernels, tables, seen, verdicts = Counter(), Counter(), set(), []
        for case in cases:
            trace = {}
            outcome = _outcome(mep_brute_force, *case, trace=trace)
            assert outcome == expected[id(case)], (case[1].leq, case[0].dims, case[2])
            verdicts.append(trace.get("verdict", "refused"))
            if verdicts[-1] == "kept":  # no group work at all
                assert trace["kernel"] == trace["group_table"] == "none"
            kernels[trace["kernel"]] += 1
            tables[trace["group_table"]] += 1
            key = (case[0].q, case[0].dims, case[1].leq)
            seen_before = key in seen
            seen.add(key)
            tables["rebuilt"] += seen_before and trace["kernel"] == "built"  # evicted
        assert len(cases) == 2 * sum(map(len, groups)) == 2 * 4 * 309
        assert kernels["kept"] > 0 and tables["built"] > 0 and tables["none"] > 0
        assert set(tables) <= {"built", "none", "rebuilt"} and tables["rebuilt"] > 0
        # the support question to dimension 2 after its full scan, back to
        # back, is another question on the same group: it reads the kept
        # kernel when that is under the keep bound, and joins its own table
        _clear_kept()
        for group in groups:
            space, poset, omega = group[-1]
            trace = {}
            full = _outcome(mep_brute_force, space, poset, omega)  # holds, or meets the map bound
            assert full[0] is MapBoundExceeded if isinstance(full, tuple) else full.holds
            outcome = _outcome(mep_brute_force, space, poset, omega, max_dim=2, trace=trace)
            assert outcome == _outcome(held_set_scan_oracle, space, poset, omega, max_dim=2)
            # a refusal at dimension 2 fetches no group
            assert trace["group_table"] == ("none" if trace["kernel"] == "none" else "built")
            kernels["second", _kernel_kept(space, poset), trace["kernel"]] += 1
        assert kernels["second", True, "kept"] > 0 and kernels["second", False, "built"] > 0
        assert kernels["second", True, "built"] == kernels["second", False, "kept"] == 0
        # back to back, each (poset, dims)'s repeated support question meets
        # the kept verdict of its first ask, unless that ask was refused
        repeats = verdicts[3:len(cases) // 2:4]
        assert set(repeats) == {"kept", "refused"} and Counter(verdicts)["scanned"] > 0
        outcomes = Counter(getattr(v, "holds", "refused") for v in expected.values())
        assert outcomes[True] > 0 and outcomes[False] > 0 and outcomes["refused"] > 0

    def test_two_threads_scan_alike(self):
        groups = list(_kept_grid(most_q2=3, blocks_q3=False))
        cases = list(_interleaved(groups))
        expected = [_outcome(held_set_scan_oracle, *case) for case in cases]
        results = [None, None]

        def run(slot, order):
            results[slot] = [(t, _outcome(mep_brute_force, *cases[t])) for t in order]

        threads = [
            threading.Thread(target=run, args=(0, range(len(cases)))),
            threading.Thread(target=run, args=(1, reversed(range(len(cases))))),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # switch threads often, mid-scan
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for scanned in results:
            assert len(scanned) == len(cases)
            assert all(verdict == expected[t] for t, verdict in scanned)

    def test_skips_only_orbits_that_held_in_this_scan(self):
        # an antichain of three points with weights 1, 2, 3 admits only the
        # identity label map, as the doubling weights 1, 2, 4 do; the
        # doubling scan holds on every code, and then the first code fails
        # under 1, 2, 3 (1 + 2 = 3), on masks, with no group fetched.  The
        # chain's scans to dimensions 3 and then 2 share the kept kernel: the
        # second decides the codes of its own orbits, as it does cold, and
        # skips only those that held in it
        space = AlphabetSpec.uniform(F2, ANTI3.elements, 1)
        doubling = powers_of_two_weight(ANTI3)
        summing = WeightFunction(ANTI3.elements, (Fraction(1), Fraction(2), Fraction(3)))
        traces = [{}, {}]
        assert mep_brute_force(space, ANTI3, doubling, trace=traces[0]).holds
        verdict = mep_brute_force(space, ANTI3, summing, trace=traces[1])
        assert traces[1]["group_table"] == "none" and traces[1]["group_order"] == 1
        assert [trace["verdict"] for trace in traces] == ["scanned", "scanned"]
        assert verdict == held_set_scan_oracle(space, ANTI3, summing)
        assert not verdict.holds and traces[1]["codes_decided"] == traces[1]["codes_read"]
        chain = Poset.chain(tuple("abcd"))
        space = AlphabetSpec(F2, chain.elements, (1, 1, 1, 2))
        ones = WeightFunction.ones(chain.elements)
        cold = {}
        assert mep_brute_force(space, chain, ones, max_dim=2, trace=cold).holds
        _clear_kept()
        warm = [{}, {}]
        for top, trace in zip((3, 2), warm):
            assert mep_brute_force(space, chain, ones, max_dim=top, trace=trace).holds
        assert (warm[1]["kernel"], warm[1]["group_table"], warm[1]["verdict"]) == ("kept", "built", "scanned")
        assert (warm[1]["codes_read"], warm[1]["codes_decided"]) == (cold["codes_read"], cold["codes_decided"])
        assert cold["codes_decided"] < warm[0]["codes_decided"]

    def test_each_scan_joins_its_own_table(self):
        # three F_2 planes, a group of 6 x 216 elements over 64 vectors:
        # every weighting with these label maps has this class partition, so
        # the ask of another top dimension is another question, which the
        # kept verdict does not answer; it finds the kernel kept and joins
        # the table again, and the repeated ask meets the kept verdict
        space = AlphabetSpec.uniform(F2, ANTI3.elements, 2)
        omega = WeightFunction.ones(ANTI3.elements)
        key = weight_sum_functional(ANTI3, omega)
        expected = _table_bytes(column_table_oracle(space, ANTI3, key)[1])
        verdicts = {top: held_set_scan_oracle(space, ANTI3, omega, max_dim=top) for top in (2, 3)}
        assert verdicts[2] == verdicts[3]
        statuses = []
        for top in (3, 2, 3):
            trace = {}
            assert mep_brute_force(space, ANTI3, omega, max_dim=top, trace=trace) == verdicts[top]
            statuses.append((trace["verdict"], trace["kernel"], trace["group_table"]))
        assert statuses == [("scanned", "built", "built"), ("scanned", "kept", "built"),
                            ("kept", "none", "none")]
        assert _table_bytes(indexed_group(space, ANTI3, key)[1]) == expected

    def test_a_kernel_over_the_keep_bound_is_not_kept(self, monkeypatch):
        # the kernel of three F_2 planes, GL_2(F_2)^3: 216 elements over 64 vectors
        space = AlphabetSpec.uniform(F2, ANTI3.elements, 2)
        omega = WeightFunction.ones(ANTI3.elements)
        monkeypatch.setattr(mep, "KEPT_TABLE_BOUND", 216 * 64 - 1)
        for weights in (omega, powers_of_two_weight(ANTI3)):  # two partitions, one kernel
            for top, built in ((1, "none"), (2, "built")):  # lines fetch no group
                trace = {}
                mep_brute_force(space, ANTI3, weights, max_dim=top, trace=trace)
                assert (trace["verdict"], trace["kernel"], trace["group_table"]) == (
                    "scanned", built, built)
        assert mep._kept_kernel.cache_info().currsize == 0

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_refusals_keep_their_messages(self, monkeypatch, warm):
        # each refusal of the scan, on a kept group too: the map bound per
        # code (the 5-chain at dimension 4, after a scan to dimension 3 kept
        # its group and memo), the table's entry bound, the group's order
        # bound, and the space's vector and addition-table bounds
        chain5 = Poset.chain(tuple("abcde"))
        space5 = AlphabetSpec.uniform(F2, chain5.elements, 1)
        ones5 = WeightFunction.ones(chain5.elements)
        if warm:
            assert mep_brute_force(space5, chain5, ones5, max_dim=3).holds
            assert mep_brute_force(SP21, CHAIN2, ONES2).holds
        refusals = [
            ((space5, chain5, ones5), {},
             "^1048576 candidate maps at dimension 4 exceed the bound 524288$"),
            ((SP21, CHAIN2, ONES2), {"map_bound": 15},
             "^16 candidate maps at dimension 2 exceed the bound 15$"),
        ]
        for args, kwargs, message in refusals:
            for scan in (mep_brute_force, held_set_scan_oracle):
                with pytest.raises(MapBoundExceeded, match=message):
                    scan(*args, **kwargs)
        monkeypatch.setattr(mep, "GROUP_TABLE_BOUND", 7)
        for scan in (mep_brute_force, held_set_scan_oracle):
            with pytest.raises(BoundExceeded, match="^group index table of 8 entries exceeds 7$"):
                scan(SP21, CHAIN2, ONES2)
        monkeypatch.undo()
        monkeypatch.setattr(mep, "GROUP_BOUND", 1)
        for scan in (mep_brute_force, held_set_scan_oracle):
            with pytest.raises(GroupBoundExceeded,
                               match="^isometry group order reaches 2, over the bound 1$"):
                scan(SP21, CHAIN2, ONES2)
        monkeypatch.undo()
        one = Poset.chain(("a",))
        for q, dim, message in ((2, 17, "^space of 131072 vectors exceeds 65536$"),
                                (3, 7, "^addition table of 4782969 entries for q = 3 exceeds")):
            space = AlphabetSpec(FieldSpec(q), ("a",), (dim,))
            for scan in (mep_brute_force, held_set_scan_oracle):
                with pytest.raises(BoundExceeded, match=message):
                    scan(space, one, WeightFunction.ones(("a",)))


def _verdict_grid():
    """Per (poset, dims), its questions back to back: every labeled poset on
    up to 3 elements, at q = 2 with unit dims and with a 2-dim first block,
    and at q = 3 with unit dims; unit, doubling and alternating 1/2, 1
    weights and weights 1, 2, 3, each scanned to dimension 1 and in full."""
    for size in (1, 2, 3):
        for poset in _labeled_posets(size):
            units = (1,) * size
            counting = WeightFunction(poset.elements, tuple(map(Fraction, range(1, size + 1))))
            for q, dims in ((2, units), (2, (2,) + units[1:]), (3, units)):
                space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
                omegas = [*_omega_variants(poset), counting]
                yield [(space, poset, omega, top) for top in (1, None) for omega in omegas]


def _traced_outcome(space, poset, omega, top):
    """A scan's outcome with the counts and status its trace gives."""
    trace = {}
    outcome = _outcome(mep_brute_force, space, poset, omega, max_dim=top, trace=trace)
    return outcome, trace["codes_read"], trace["codes_decided"], trace.get("verdict")


class TestKeptVerdictOracle:
    """The kept verdict against the cold scan, run with nothing kept."""

    @pytest.fixture(autouse=True)
    def _nothing_kept(self):
        _clear_kept()
        yield
        _clear_kept()

    def test_kept_verdicts_equal_the_cold_scan(self):
        cases = [case for group in _verdict_grid() for case in group]
        cold = []
        for case in cases:
            _clear_kept()
            outcome, read, decided, verdict = _traced_outcome(*case)
            assert verdict == "scanned"
            cold.append((outcome, read, decided))
        _clear_kept()
        statuses = Counter()
        for case, expected in zip(cases, cold):
            outcome, read, decided, verdict = _traced_outcome(*case)
            assert (outcome, read, decided) == expected, (case[1].leq, case[0].dims, case[2:])
            statuses[verdict] += 1
        assert len(cases) == 23 * 3 * 8 and statuses["kept"] > 0 and statuses["scanned"] > 0
        outcomes = Counter((v.holds, v.complete) for v, *_ in cold)
        assert outcomes[True, True] > 0 and outcomes[False, True] > 0 and outcomes[True, False] > 0

    def test_equal_partitions_share_one_entry(self):
        # unit and constant-two weights class the closure masks alike; the
        # doubling weights split every class
        space = AlphabetSpec.uniform(F2, ANTI3.elements, 1)
        twos = WeightFunction(ANTI3.elements, (Fraction(2),) * 3)
        omegas = [WeightFunction.ones(ANTI3.elements), twos, powers_of_two_weight(ANTI3)]
        partitions = [
            tuple(spaces.mask_classes(space, ANTI3, weight_sum_functional(ANTI3, omega))[1].values())
            for omega in omegas
        ]
        assert partitions[0] == partitions[1] != partitions[2]
        traces = [{} for _ in omegas]
        verdicts = [mep_brute_force(space, ANTI3, omega, trace=trace)
                    for omega, trace in zip(omegas, traces)]
        assert [trace["verdict"] for trace in traces] == ["scanned", "kept", "scanned"]
        assert mep._kept_verdict.cache_info().currsize == 2
        assert verdicts == [held_set_scan_oracle(space, ANTI3, omega) for omega in omegas]
        assert {k: traces[1][k] for k in traces[0] if k not in ("kernel", "group_table", "verdict")} \
            == {k: traces[0][k] for k in traces[0] if k not in ("kernel", "group_table", "verdict")}

    def test_a_lower_map_bound_scans_again_and_refuses(self):
        chain5 = Poset.chain(tuple("abcde"))
        space = AlphabetSpec.uniform(F2, chain5.elements, 1)
        ones = WeightFunction.ones(chain5.elements)
        assert mep_brute_force(space, chain5, ones, max_dim=3).holds  # 32^3 maps at dimension 3
        message = "^32768 candidate maps at dimension 3 exceed the bound 32767$"
        for scan in (mep_brute_force, mep_brute_force, held_set_scan_oracle):
            with pytest.raises(MapBoundExceeded, match=message):  # the second ask meets the first's refusal
                scan(space, chain5, ones, max_dim=3, map_bound=32**3 - 1)
        assert mep._kept_verdict.cache_info().currsize == 2

    def test_a_refused_scan_traces_its_counts(self):
        # the q = 2 5-chain at the default bound reads every code up to
        # dimension 3, as the scan to dimension 3 does, and then the first
        # code of dimension 4, where it refuses
        chain5 = Poset.chain(tuple("abcde"))
        space = AlphabetSpec.uniform(F2, chain5.elements, 1)
        ones = WeightFunction.ones(chain5.elements)
        held, refused = {}, {}
        assert mep_brute_force(space, chain5, ones, max_dim=3, trace=held).holds
        message = "^1048576 candidate maps at dimension 4 exceed the bound 524288$"
        with pytest.raises(MapBoundExceeded, match=message):
            mep_brute_force(space, chain5, ones, trace=refused)
        assert held["codes_read"] == 31 + 155 + 155 and held["verdict"] == "scanned"
        assert refused == {"key": "canonical", "group_order": held["group_order"], "kernel": "kept",
                           "group_table": "built", "codes_read": held["codes_read"] + 1,
                           "codes_decided": held["codes_decided"]}

    def test_a_hit_does_no_group_or_span_work(self, monkeypatch):
        # the kept verdict is rebuilt on the caller's space: relabeled
        # planes with the same order, dims and partition meet it too, and a
        # holding verdict answers a relabeling that moves the labels' places
        space = AlphabetSpec.uniform(F2, ANTI3.elements, 2)
        omega = WeightFunction.ones(ANTI3.elements)
        scanned = {}
        verdict = mep_brute_force(space, ANTI3, omega, max_dim=2, trace=scanned)
        relabeled = Poset.antichain(("x", "y", "z"))
        other = AlphabetSpec.uniform(F2, relabeled.elements, 2)
        other_omega = WeightFunction.ones(relabeled.elements)
        expected = held_set_scan_oracle(other, relabeled, other_omega, max_dim=2)
        # a < b < c with the 2-dim block on top, and c < b < a with it in the first place
        chain = Poset.chain(("a", "b", "c"))
        turned = Poset.from_covers(("a", "b", "c"), [("c", "b"), ("b", "a")])
        chain_space = AlphabetSpec(F2, chain.elements, (1, 1, 2))
        turned_space = AlphabetSpec(F2, turned.elements, (2, 1, 1))
        chain_omega = WeightFunction(chain.elements, (Fraction(1), Fraction(1, 2), Fraction(1)))
        turned_omega = WeightFunction(turned.elements, (Fraction(1), Fraction(1, 2), Fraction(1)))
        assert chain._down != turned._down
        chain_scanned = {}
        held = mep_brute_force(chain_space, chain, chain_omega, trace=chain_scanned)
        assert held.holds and chain_scanned["verdict"] == "scanned"
        assert held_set_scan_oracle(turned_space, turned, turned_omega) == held

        def unreachable(*args, **kwargs):
            raise AssertionError("a kept verdict did group, index or span work")

        for name in ("admissible_lams", "_scan_group", "shape_tables", "enumerate_codes"):
            monkeypatch.setattr(mep, name, unreachable)
        monkeypatch.setattr(isometries, "admissible_automorphisms", unreachable)
        monkeypatch.setattr(SpaceIndex, "__init__", unreachable)
        monkeypatch.setattr(SpaceIndex, "span_indices", unreachable)
        for args, wanted in (((space, ANTI3, omega), verdict), ((other, relabeled, other_omega), expected)):
            trace = {}
            found = mep_brute_force(*args, max_dim=2, trace=trace)
            assert found == wanted and not found.holds
            assert found.counterexample[0].space is args[0]
            assert trace == {**scanned, "kernel": "none", "group_table": "none", "verdict": "kept"}
        for args in ((chain_space, chain, chain_omega), (turned_space, turned, turned_omega)):
            trace = {}
            assert mep_brute_force(*args, trace=trace) == held
            assert trace == {**chain_scanned, "kernel": "none", "group_table": "none", "verdict": "kept"}

    def test_a_map_bound_refusal_is_kept_for_every_labeling(self, monkeypatch):
        # the 5-chain refuses at dimension 4 after every code below held, so
        # its refusal and counts are the class's: the chain with its places
        # reversed meets it, with no group work
        chain5 = Poset.chain(tuple("abcde"))
        turned5 = Poset.from_covers(tuple("abcde"), [(b, a) for a, b in zip("abcd", "bcde")])
        assert chain5._down != turned5._down
        ones = WeightFunction.ones(chain5.elements)
        spaces5 = [AlphabetSpec.uniform(F2, poset.elements, 1) for poset in (chain5, turned5)]
        message = "^1048576 candidate maps at dimension 4 exceed the bound 524288$"
        refused = {}
        with pytest.raises(MapBoundExceeded, match=message):
            mep_brute_force(spaces5[0], chain5, ones, trace=refused)
        assert refused["kernel"] == refused["group_table"] == "built"

        def unreachable(*args, **kwargs):
            raise AssertionError("a kept refusal did group, index or span work")

        for name in ("_scan_group", "shape_tables", "enumerate_codes"):
            monkeypatch.setattr(mep, name, unreachable)
        for space, poset in zip(spaces5, (chain5, turned5)):
            trace = {}
            with pytest.raises(MapBoundExceeded, match=message):
                mep_brute_force(space, poset, ones, trace=trace)
            assert trace == {**refused, "kernel": "none", "group_table": "none"}

    def test_group_and_table_bound_refusals_keep_nothing(self, monkeypatch):
        # both bounds refuse before any code is read, by arithmetic and the
        # label-map search, so no group is fetched
        calls, fetched = [], []
        scanned_record = mep._scanned_record

        def counting(*args, **kwargs):
            calls.append(None)
            return scanned_record(*args, **kwargs)

        monkeypatch.setattr(mep, "_scanned_record", counting)
        monkeypatch.setattr(mep, "_scan_group", lambda *args, **kwargs: fetched.append(None))
        for name, bound in (("GROUP_TABLE_BOUND", 7), ("GROUP_BOUND", 1)):
            with monkeypatch.context() as bounded:
                bounded.setattr(mep, name, bound)
                for _ in range(2):  # each ask scans up to its refusal again
                    with pytest.raises(BoundExceeded):
                        mep_brute_force(SP21, CHAIN2, ONES2)
        assert len(calls) == 4 and fetched == []


def _canonical_grid():
    """Every labeled poset on up to 4 elements at q = 2 with unit dims, and
    on up to 3 elements at q = 3 with unit dims and at q = 2 with one 2-dim
    block in each place; unit, doubling and alternating 1/2, 1 weights and
    weights 1..n."""
    for size in range(1, 5):
        for poset in _labeled_posets(size):
            units = (1,) * size
            shapes = [(2, units)]
            if size <= 3:
                shapes += [(3, units), *((2, units[:j] + (2,) + units[j + 1:]) for j in range(size))]
            counting = WeightFunction(poset.elements, tuple(map(Fraction, range(1, size + 1))))
            for q, dims in shapes:
                space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
                for omega in (*_omega_variants(poset), counting):
                    yield space, poset, omega


def _relabeled(space, poset, omega, rng):
    """The question with its labels renamed and moved to shuffled places."""
    n = len(poset.elements)
    back = rng.sample(range(n), n)  # back[p]: the label moved to place p
    names = tuple(rng.sample([f"x{t}" for t in range(2 * n)], n))
    leq = tuple(tuple(poset.leq[i][j] for j in back) for i in back)
    moved = Poset(names, leq)
    return (AlphabetSpec(FieldSpec(space.q), names, tuple(space.dims[i] for i in back)), moved,
            WeightFunction(names, tuple(omega.of(poset.elements[i]) for i in back)))


def _classes_of(space, poset, omega):
    return spaces.mask_classes(space, poset, weight_sum_functional(poset, omega))[1]


def _positional(space, poset, omega):
    return space.q, space.dims, poset._down, tuple(_classes_of(space, poset, omega).values())


class TestCanonicalKey:
    """The question's canonical key against an n! isomorphism oracle, and
    the verdicts kept by it against the cold scan."""

    @pytest.fixture(autouse=True)
    def _nothing_kept(self):
        _clear_kept()
        yield
        _clear_kept()

    def test_equal_keys_exactly_for_isomorphic_questions(self):
        rng = random.Random(0)
        cases = list(_canonical_grid())
        cases += [_relabeled(*case, rng) for case in cases]
        pairs = Counter()
        for space, poset, omega in cases:
            key = mep._class_key(poset, space.dims, _classes_of(space, poset, omega))
            assert key is not None
            shape = (space.q, len(poset.elements))
            pairs[shape, key, question_form_oracle(space, poset, omega)] += 1
        keys = Counter((shape, key) for shape, key, _ in pairs)
        forms = Counter((shape, form) for shape, _, form in pairs)
        # one oracle form per key and one key per form
        assert set(keys.values()) == set(forms.values()) == {1}
        assert len(pairs) < len(cases) // 4  # the classes do join labelings
        assert len(cases) == 2 * 4 * ((1 + 3 + 19 + 219) + (1 + 3 + 19) + (1 + 2 * 3 + 3 * 19))

    def test_relabeled_asks_equal_the_cold_scan(self):
        rng = random.Random(0)
        cases = list(_canonical_grid())
        shuffled = [_relabeled(*case, rng) for case in cases]
        rng.shuffle(shuffled)
        asks = [*cases, *shuffled]
        cold = []
        for case in asks:
            _clear_kept()
            outcome, read, decided, verdict = _traced_outcome(*case, None)
            assert verdict == "scanned"
            cold.append((outcome, read, decided))
        _clear_kept()
        seen, statuses = set(), Counter()
        for case, expected in zip(asks, cold):
            trace = {}
            outcome = mep_brute_force(*case, trace=trace)
            assert (outcome, trace["codes_read"], trace["codes_decided"]) == expected, case
            assert trace["key"] == "canonical"
            positional = _positional(*case)
            if trace["verdict"] == "kept" and not outcome.holds:
                # a failing verdict answers only its own labeling
                assert positional in seen
            statuses[trace["verdict"], outcome.holds, positional in seen] += 1
            seen.add(positional)
        assert statuses["kept", True, False] > 0  # kept for another labeling
        assert statuses["scanned", False, False] > 0 and statuses["kept", False, True] > 0

    def test_a_failing_class_keeps_its_last_labeling(self):
        # the three F_2 planes fail at dimension 2; moved to other places,
        # with dims (1, 2, 2) against (2, 2, 1), each labeling scans and
        # replaces the class's one failing record
        anti = Poset.antichain(("a", "b", "c"))
        omega = WeightFunction.ones(anti.elements)
        asks = [AlphabetSpec(F2, anti.elements, dims) for dims in ((1, 2, 2), (2, 2, 1))]
        expected = [held_set_scan_oracle(space, anti, omega, max_dim=2) for space in asks]
        keys = {mep._class_key(anti, space.dims, _classes_of(space, anti, omega)) for space in asks}
        assert len(keys) == 1 and not any(verdict.holds for verdict in expected)
        assert expected[0].counterexample != expected[1].counterexample
        statuses = []
        for t in (0, 0, 1, 1, 0):
            trace = {}
            assert mep_brute_force(asks[t], anti, omega, max_dim=2, trace=trace) == expected[t]
            statuses.append(trace["verdict"])
        assert statuses == ["scanned", "kept", "scanned", "kept", "scanned"]
        assert mep._kept_verdict.cache_info().currsize == 1

    def test_the_key_search_is_capped(self, monkeypatch):
        # five unit labels apart: 5! orders x 2^5 renamings pass the cap
        anti5 = Poset.antichain(tuple("abcde"))
        space5 = AlphabetSpec.uniform(F2, anti5.elements, 1)
        ones5 = WeightFunction.ones(anti5.elements)
        assert mep._class_key(anti5, space5.dims, _classes_of(space5, anti5, ones5)) is None
        # four unit labels apart search 4! x 2^4 = 384 renamings
        anti4 = Poset.antichain(tuple("abcd"))
        space4 = AlphabetSpec.uniform(F2, anti4.elements, 1)
        ones4 = WeightFunction.ones(anti4.elements)
        for bound, key in ((384, "canonical"), (383, "positional")):
            monkeypatch.setattr(mep, "KEY_SEARCH_BOUND", bound)
            trace = {}
            assert mep_brute_force(space4, anti4, ones4, max_dim=1, trace=trace).holds
            assert trace["key"] == key and trace["verdict"] == "scanned"
        monkeypatch.undo()
        # sixteen unit labels apart: keyed by position, then refused by the
        # automorphism bound as before
        anti16 = Poset.antichain(tuple(f"x{t}" for t in range(16)))
        space16 = AlphabetSpec.uniform(F2, anti16.elements, 1)
        trace = {}
        with pytest.raises(BoundExceeded, match="^automorphism search over"):
            mep_brute_force(space16, anti16, WeightFunction.ones(anti16.elements), trace=trace)
        assert trace == {"key": "positional"}


def _line_grid():
    """Every labeled poset on up to 4 elements at q = 2 and on up to 3 at
    q = 3 with unit dims, and on up to 3 at q = 2 with one 2-dim block in
    each place; the keys of unit, doubling and alternating 1/2, 1 weights,
    and the support closure key (the mask itself)."""
    for q, most in ((2, 4), (3, 3)):
        for size in range(1, most + 1):
            for poset in _labeled_posets(size):
                shapes = [(1,) * size]
                if q == 2 and size <= 3:
                    shapes += [tuple(2 if t == place else 1 for t in range(size)) for place in range(size)]
                for dims in shapes:
                    space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
                    omegas = _omega_variants(poset)
                    yield space, poset, omegas, [*map(weight_sum_functional, [poset] * 3, omegas), closure_key]


F3 = FieldSpec(3)
ANTI8 = Poset.antichain(tuple(f"x{t}" for t in range(8)))
POWERS_OF_3 = [3**t for t in range(7)]
PLANES_112 = WeightFunction.from_map({"a": 1, "b": 1, "c": 2})
PLANES_113 = WeightFunction.from_map({"a": 1, "b": 1, "c": 3})
# larger questions: (space, poset, omegas, top dimension)
LINE_SHAPES = [
    *((AlphabetSpec(F2, poset.elements, dims), poset, _omega_variants(poset), top)
      for poset, dims, top, _ in LARGE_SHAPES),
    (AlphabetSpec(F2, ANTI3.elements, (2, 2, 2)), ANTI3, [PLANES_112, PLANES_113], 3),
    (AlphabetSpec(F3, MIXED.elements, (2, 2, 1)), MIXED, [ONES3, powers_of_two_weight(MIXED)], 2),
    # past the code bound, where no span or memo is kept across scans: under
    # 1, 1, 3, 9, ... only masks that swap x0 and x1 share a class, each
    # class is one orbit of 2 lines, and each orbit is decided once
    (AlphabetSpec.uniform(F2, ANTI8.elements, 1), ANTI8,
     [powers_of_two_weight(ANTI8), WeightFunction(ANTI8.elements, (Fraction(1), *map(Fraction, POWERS_OF_3)))],
     1),
]
LINE_SHAPE_IDS = [*LARGE_IDS, "three-f2-planes", "f3-five", "eight-points"]


class TestLinesOnMasks:
    """Lines decided on closure masks and the orbit check on mask orbits,
    against the scan that decides every code on the group table and the
    orbit check that runs through the factor lists
    (helpers.scanned_record_oracle, single_orbit_check_oracle)."""

    @pytest.fixture(autouse=True)
    def _nothing_kept(self):
        _clear_kept()
        yield
        _clear_kept()

    @staticmethod
    def _fetches(monkeypatch) -> list:
        """The callers of mep._scan_group, by function name, from now on."""
        callers = []
        scan_group = mep._scan_group

        def fetching(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return scan_group(*args, **kwargs)

        monkeypatch.setattr(mep, "_scan_group", fetching)
        return callers

    def _compare(self, monkeypatch, space, poset, key, top=None, map_bound=mep.MAP_BOUND):
        """Equal records (verdict, counterexample, codes read and decided,
        group order, refusal); a scan that fails among the lines or refuses
        before dimension 2 fetches no group.  The record, or the refusal."""
        callers = self._fetches(monkeypatch)
        scanned, oracle = scanned_records(space, poset, key, top, map_bound)
        monkeypatch.undo()
        assert scanned == oracle, (poset.leq, space.dims, top)
        fetched = callers.count("_scanned_record")
        if isinstance(scanned[0], type):  # a group or table bound, before any code
            assert fetched == 0
            return scanned
        record, order = scanned
        failing, _, _, _, group_order, refusal = record
        assert order == group_order
        if refusal is not None:  # refused at dimension d: read up to d - 1
            reached = int(refusal.split(" at dimension ")[1].split()[0]) - 1
        else:
            reached = space.total_dim if top is None else min(top, space.total_dim)
            reached = reached if failing is None else len(failing)
        assert fetched == (reached > 1)
        return record

    def test_grid_equals_the_table_scan(self, monkeypatch):
        outcomes = Counter()
        for space, poset, _, keys in _line_grid():
            for key in keys:
                failing, *_, refusal = self._compare(monkeypatch, space, poset, key)
                assert refusal is None  # at most 16^4 maps
                outcomes["holds" if failing is None else f"fails at {len(failing)}"] += 1
        assert sum(outcomes.values()) == 4 * (242 + 23 + 1 + 3 * 2 + 19 * 3)
        # no question of this grid fails past its lines
        assert outcomes == {"holds": 949, "fails at 1": 367}

    @pytest.mark.parametrize("space, poset, omegas, top", LINE_SHAPES, ids=LINE_SHAPE_IDS)
    def test_larger_shapes_equal_the_table_scan(self, monkeypatch, space, poset, omegas, top):
        for omega in omegas:
            self._compare(monkeypatch, space, poset, weight_sum_functional(poset, omega), top)

    def test_refusals_equal_the_table_scan(self, monkeypatch):
        # three F_3 planes: unit weights meet the table's entry bound before
        # any code, and support closure the map bound at the first plane,
        # after every line held on masks and before any group is fetched
        planes = AlphabetSpec.uniform(F3, ANTI3.elements, 2)
        ones = WeightFunction.ones(ANTI3.elements)
        refused = self._compare(monkeypatch, planes, ANTI3, key_for(ANTI3, ones, "weight"))
        assert refused == (BoundExceeded, "group index table of 483729408 entries exceeds 134217728")
        record = self._compare(monkeypatch, planes, ANTI3, closure_key)
        assert record[-1] == "531441 candidate maps at dimension 2 exceed the bound 524288"
        assert record[2:5] == (1 + 364, 7, 110592)  # every line read, one held orbit per mask
        chain5 = Poset.chain(tuple("abcde"))
        space5 = AlphabetSpec.uniform(F2, chain5.elements, 1)
        ones5 = WeightFunction.ones(chain5.elements)
        for top, bound in ((None, mep.MAP_BOUND), (1, 31), (2, 32**2 - 1)):
            self._compare(monkeypatch, space5, chain5, key_for(chain5, ones5, "weight"), top, bound)

    def test_eight_labels_beside_a_chain(self, monkeypatch):
        # eight unrelated F_2 points and a 2-chain i < j (8! x 2 elements over
        # 1024 vectors): the table and factor oracles take about 10 s here, so
        # the answers are pinned to the values they gave
        poset = Poset.from_covers(tuple("abcdefghij"), [("i", "j")])
        space = AlphabetSpec.uniform(F2, poset.elements, 1)
        ones = WeightFunction.ones(poset.elements)
        callers = self._fetches(monkeypatch)
        trace = {}
        verdict = mep_brute_force(space, poset, ones, trace=trace)

        def unit(t):
            return tuple(int(c == t) for c in range(10))

        assert verdict.counterexample == (LinearCode(space, (unit(0),)), (unit(8),))
        assert trace == {"key": "positional", "group_order": 80640, "kernel": "none",
                         "group_table": "none", "codes_read": 1, "codes_decided": 1,
                         "verdict": "scanned"}
        assert single_orbit_check(space, poset, ones) == (False, (unit(8), unit(7)))
        assert callers == []

    def test_orbit_checks_equal_the_factor_oracle(self, monkeypatch):
        callers = self._fetches(monkeypatch)
        outcomes = Counter()
        cases = [(space, poset, omega) for space, poset, omegas, _ in _line_grid() for omega in omegas]
        cases += [(space, poset, omega) for space, poset, omegas, _ in LINE_SHAPES for omega in omegas]
        for space, poset, omega in cases:
            result = single_orbit_check(space, poset, omega)
            assert result == single_orbit_check_oracle(space, poset, omega), (poset.leq, space.dims)
            outcomes[result[0]] += 1
        assert callers == [] and outcomes[True] > 0 and outcomes[False] > 0


class TestStabilizerDecision:
    def test_decision_equals_the_leaf_search_on_every_code(self):
        codes = rejected = 0
        for space, poset, omega in _small_grid():
            key = weight_sum_functional(poset, omega)
            si, columns = indexed_group(space, poset, key)
            listed = list(zip(*indexed_group_oracle(space, poset, key)[1]))
            for code in enumerate_codes(space):
                if code.dim == 0:
                    continue
                basis_idx = [fields.vec_index(si.q, b) for b in code.basis]
                reachable = set(zip(*(columns[b] for b in basis_idx)))
                assert reachable == set(zip(*(listed[b] for b in basis_idx)))
                expected = _first_unreachable_map(si, basis_idx, reachable) is None
                assert _holds_on(si, basis_idx, columns) == expected
                assert _holds_on(si, basis_idx, listed) == expected
                assert _eager_holds_on(si, basis_idx, columns) == expected
                codes += 1
                rejected += not expected
        assert codes > rejected > 0

    def test_scan_reads_the_listing_and_the_table_alike(self, monkeypatch):
        # the folded listing's columns, in (lam, D, u) order, against the table
        verdicts = [
            (space, poset, omega, mep_brute_force(space, poset, omega))
            for space, poset, omega in _small_grid()
        ]

        def listed(space, poset, key, lams, entries, trace=None, values=None):
            si, listing = indexed_group_oracle(space, poset, key)
            assert values is None or values == si.values
            assert len(listing) * len(si.vectors) == entries
            return si, list(zip(*listing))

        monkeypatch.setattr(mep, "_scan_group", listed)
        for space, poset, omega, verdict in verdicts:
            mep._kept_verdict.cache_clear()  # each scan reads the listing
            assert mep_brute_force(space, poset, omega) == verdict
        assert sum(not verdict.holds for *_, verdict in verdicts) > 0

    @pytest.mark.parametrize("poset, dims, max_dim, orbits", LARGE_SHAPES, ids=LARGE_IDS)
    def test_lazy_levels_equal_the_eager_tables_on_large_shapes(self, poset, dims, max_dim, orbits):
        space = AlphabetSpec(F2, poset.elements, dims)
        omega = WeightFunction.ones(poset.elements)
        si, columns = indexed_group(space, poset, key_for(poset, omega, "weight"))
        verdicts = Counter()
        for basis_idx in enumerate_codes(space, max_dim=2, indices=True):
            if basis_idx:
                verdict = _holds_on(si, basis_idx, columns)
                assert verdict == _eager_holds_on(si, basis_idx, columns)
                verdicts[verdict] += 1
        # only the three planes fail, on 45 codes of dimension 2
        assert verdicts == ({True: 669, False: 45} if dims == (2, 2, 2) else {True: 186})

    def test_singleton_classes_build_no_level_tables(self, monkeypatch):
        # doubling weights on an antichain over F_2: every class is one vector
        calls = []

        def counting(*args):
            calls.append(None)
            return _levels(*args)

        monkeypatch.setattr(mep, "_levels", counting)
        anti4 = Poset.antichain(tuple("abcd"))
        space = AlphabetSpec.uniform(F2, anti4.elements, 1)
        verdict = mep_brute_force(space, anti4, powers_of_two_weight(anti4))
        assert verdict.holds and verdict.complete and calls == []


def _eager_holds_on(si, basis_idx, columns) -> bool:
    """The stabilizer-chain decision with every level's tables built up front,
    kept as the oracle of the lazy one."""
    spans, targets, allowed = _levels(si, basis_idx)
    values = si.values
    fixers = [range(len(columns[0]))]  # fixers[k]: the elements fixing b_1..b_k
    for b in basis_idx[:-1]:
        column = columns[b]
        fixers.append([g for g in fixers[-1] if column[g] == b])
    for k in reversed(range(len(basis_idx))):
        orbit = set(map(columns[basis_idx[k]].__getitem__, fixers[k]))
        prefix = tuple(basis_idx[:k])
        for x in allowed[k]:
            if x in orbit:
                continue
            x_span = si.span_indices((x,), spans[k])
            if list(map(values.__getitem__, x_span)) == targets[k] and (
                _first_leaf_outside(si, allowed, targets, prefix + (x,), x_span, ()) is not None
            ):
                return False
    return True


def _listing_extension(space, poset, omega, code, images, group=None):
    """The extension search over the listed group, one matrix per element,
    kept as the oracle of the block-by-block search.  group, when given, is
    that list, so its matrices are built once across calls."""
    if group is None:
        group = enumerate_group(space, poset, weight_sum_functional(poset, omega))
    basis = code.basis
    for iso in group:
        if all(iso.apply(b) == tuple(img) for b, img in zip(basis, images)):
            n = space.total_dim
            for coeffs, vec in code.coefficient_pairs():
                if iso.apply(vec) != fields.combine(space.q, images, coeffs, n):
                    raise PropertyViolation("extension replay failed on a codeword")
            return iso
    return None


def _extension_grid():
    """The small grid's cases, then mep_grid's large shapes with unit weights."""
    yield from _small_grid()
    for poset, dims, _, _ in LARGE_SHAPES:
        yield AlphabetSpec(F2, poset.elements, dims), poset, WeightFunction.ones(poset.elements)


class TestBlockExtensionOracle:
    def test_block_search_equals_the_listing_scan(self):
        # per code of dimension at most 2, the images of one random group
        # element (a hit, so both must return the same element); on every
        # other code also one random image tuple (almost always a miss)
        rng = random.Random(23)
        hits = misses = 0
        for space, poset, omega in _extension_grid():
            group = list(enumerate_group(space, poset, weight_sum_functional(poset, omega)))
            codes = list(enumerate_codes(space, max_dim=2))
            if len(group) > 100:  # the large shapes: a sample of their codes
                codes = rng.sample(codes, 12)
            n, q = space.total_dim, space.q
            for t, code in enumerate(codes):
                tries = [tuple(map(rng.choice(group).apply, code.basis))]
                if t % 2:
                    tries.append(tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in code.basis))
                found = [extend_to_isometry(space, poset, omega, code, im) for im in tries]
                assert found == [
                    _listing_extension(space, poset, omega, code, im, group) for im in tries
                ]
                hits += found[0] is not None
                misses += found[1:] == [None]
        assert hits == 5958 and misses == 2354  # 5958 codes, each hit by its element

    def test_counterexample_lists_no_group_and_builds_no_matrix(self, monkeypatch):
        space = AlphabetSpec.uniform(F2, ANTI3.elements, 2)
        omega = WeightFunction.ones(ANTI3.elements)
        code, images = mep_brute_force(space, ANTI3, omega, max_dim=3).counterexample

        def unreachable(*args):
            raise AssertionError("the extension search listed the group or built a matrix")

        monkeypatch.setattr(isometries, "enumerate_group", unreachable)
        monkeypatch.setattr(mep, "enumerate_group", unreachable, raising=False)
        monkeypatch.setattr(Isometry, "matrix", property(unreachable))
        assert extend_to_isometry(space, ANTI3, omega, code, images) is None


# F_2^2 with a < b and unit weights, the code the whole space: maps of the
# wrong count, length or alphabet
WHOLE_PLANE = LinearCode.from_rows(SP21, [(1, 0), (0, 1)])
MALFORMED_IMAGES = {
    "one image": ((1, 0),),
    "three images": ((1, 0), (0, 1), (1, 1)),
    "long images": ((1, 0, 0), (0, 1, 1)),
    "entry out of range": ((3, 0), (0, 1)),
    "short images": ((1,), (0,)),
}


class TestMalformedImages:
    @pytest.mark.parametrize("images", MALFORMED_IMAGES.values(), ids=MALFORMED_IMAGES.keys())
    @pytest.mark.parametrize("check", [preserves_weight, extend_to_isometry])
    def test_rejected_before_any_work(self, check, images, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a malformed map was checked")

        monkeypatch.setattr(mep, "admissible_lams", unreachable)
        monkeypatch.setattr(mep, "weight", unreachable)
        message = r"^(\d images for a code of dimension 2|image \(.*\) is not a vector of F_2\^2)$"
        with pytest.raises(ValidationError, match=message):
            check(SP21, CHAIN2, ONES2, WHOLE_PLANE, images)


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

    def test_refuses_before_any_condition_is_computed(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a condition was computed")

        for name in ("udp_check", "condition_report", "level_class_bound"):
            monkeypatch.setattr(mep, name, unreachable)
        space = AlphabetSpec.uniform(F2, MIXED.elements, 1)
        omega = WeightFunction.from_map({"a": 1, "b": "1/2", "c": 2})
        with pytest.raises(PredicateUnavailable, match="^no closed form for a non-hierarchical"):
            mep_predicate(space, MIXED, omega)

    def test_refuses_past_the_automorphism_bound_with_no_route(self):
        # nine unrelated labels of weight 1 beside a < b of weights 1 and 2:
        # non-hierarchical with non-constant weights, so the predicate refuses
        # where building the report first met udp_check's automorphism search
        # over 9! candidates (posetmetrics mep still builds it and exits 3)
        elements = ("a", "b", *(f"x{t}" for t in range(9)))
        poset = Poset.from_covers(elements, [("a", "b")])
        omega = WeightFunction.from_map({label: 2 if label == "b" else 1 for label in elements})
        space = AlphabetSpec.uniform(F2, elements, 1)
        with pytest.raises(PredicateUnavailable):
            mep_predicate(space, poset, omega)
        with pytest.raises(BoundExceeded, match="over 362880 candidate permutations"):
            mep_predicate_oracle(space, poset, omega)

    def test_support_mode_always_holds(self):
        for poset in (CHAIN2, ANTI2, MIXED):
            space = AlphabetSpec.uniform(F2, poset.elements, 1)
            assert mep_p_support_predicate(space, poset).holds
            assert mep_brute_force(space, poset, powers_of_two_weight(poset)).holds


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


def _closed_form_grid():
    """Every labeled poset on up to 4 elements at q = 2 and on up to 3 at
    q = 3, with unit, doubling and alternating 1/2, 1 weights, and with unit
    dims or a 2-dim first block."""
    for q, most in ((2, 4), (3, 3)):
        for size in range(1, most + 1):
            for poset in _labeled_posets(size):
                for first in (1, 2):
                    space = AlphabetSpec(FieldSpec(q), poset.elements, (first,) + (1,) * (size - 1))
                    for omega in _omega_variants(poset):
                        yield space, poset, omega


def _closed_form_outcome(predicate, space, poset, omega):
    """A predicate's verdict with its trace's key order, or its refusal."""
    try:
        verdict = predicate(space, poset, omega)
    except PredicateUnavailable as exc:
        return "unavailable", str(exc)
    return verdict, list(verdict.predicate_trace)


class TestClosedFormOracle:
    def test_report_and_predicate_match_the_oracles(self):
        # every report field (witnesses in order) and every verdict, trace
        # and refusal message; the grid meets each route, both answers and
        # both conditions' witnesses
        outcomes = Counter()
        for space, poset, omega in _closed_form_grid():
            report = condition_report(space, poset, omega)
            assert report == condition_report_oracle(space, poset, omega), (poset.leq, omega)
            outcome = _closed_form_outcome(mep_predicate, space, poset, omega)
            assert outcome == _closed_form_outcome(mep_predicate_oracle, space, poset, omega)
            verdict = outcome[0]
            if verdict == "unavailable":
                outcomes["unavailable"] += 1
            else:
                outcomes[verdict.predicate_trace["route"], verdict.holds] += 1
            for name, _ in report.witnesses:  # which half of the condition failed
                if name == "udp_matched_dims":
                    outcomes["udp dims" if udp_check(poset, omega)[0] else "udp"] += 1
                else:
                    outcomes["level dims" if poset.is_hierarchical else "hierarchy"] += 1
        assert outcomes == {
            "unavailable": 624, ("unweighted", True): 179, ("unweighted", False): 355,
            ("hierarchical", True): 406, ("hierarchical", False): 26,
            "udp": 614, "udp dims": 59, "hierarchy": 936, "level dims": 129,
        }


def _union_find_orbit_check(space, poset, omega):
    """single_orbit_check by union-find over every group permutation, kept as the oracle."""
    si, columns = indexed_group(space, poset, key_for(poset, omega, "weight"))
    count = len(si.vectors)
    root = list(range(count))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for t, column in enumerate(columns):  # t joins its image under every group element
        for image in set(column):
            ra, rb = find(t), find(image)
            if ra != rb:
                root[ra] = rb
    first = [members[0] for members in si.classes]
    for t, value in enumerate(si.values):
        if find(first[value]) != find(t):
            return False, (si.vectors[first[value]], si.vectors[t])
    return True, None


class TestSingleOrbit:
    def test_orbit_sets_match_the_union_find(self):
        # every labeled poset on up to 3 elements, q in {2, 3}, unit dims and a
        # 2-dim first block, three weightings and the doubling weights
        cases = failures = 0
        for space, poset, omega in _small_grid():
            result = single_orbit_check(space, poset, omega)
            assert result == _union_find_orbit_check(space, poset, omega)
            cases += 1
            failures += not result[0]
        assert cases == 276 and failures > 0

    def test_f3_five_matches_the_union_find(self):
        # a < b, c apart, dims (2, 2, 1): 373,248 listed elements for the oracle
        space = AlphabetSpec(FieldSpec(3), MIXED.elements, (2, 2, 1))
        omega = WeightFunction.ones(MIXED.elements)
        result = single_orbit_check(space, MIXED, omega)
        assert result == _union_find_orbit_check(space, MIXED, omega)
        assert result == (False, ((0, 0, 0, 0, 1), (0, 1, 0, 0, 0)))

    def test_three_f3_planes_hold_without_the_listing(self, monkeypatch):
        # 663,552 elements, over the table's entry bound: the factors decide
        def unfolded(*args):
            raise AssertionError("the group table was built")

        monkeypatch.setattr(mep, "_scan_group", unfolded)
        space = AlphabetSpec.uniform(FieldSpec(3), ANTI3.elements, 2)
        omega = WeightFunction.ones(ANTI3.elements)
        start = time.perf_counter()
        ok, witness = single_orbit_check(space, ANTI3, omega)
        assert time.perf_counter() - start < 1
        assert (ok, witness) == (True, None)
        assert ok == condition_report(space, ANTI3, omega).udp_matched_dims

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

    def test_tail_entries_are_negated_into_the_pivot_column(self):
        # chain a < b < c over F_3: the reduced row is e_c + (2 on a, 1 on b)
        chain = Poset.chain(("a", "b", "c"))
        space = AlphabetSpec.uniform(FieldSpec(3), chain.elements, 1)
        code = LinearCode.from_rows(space, [(2, 1, 1)])
        phi, parts = canonical_decomposition(space, chain, code)
        assert phi.diag == (((1,),),) * 3
        assert phi.strict == ((2, 0, ((1,),)), (2, 1, ((2,),)))
        assert phi.matrix == ((1, 0, 1), (0, 1, 2), (0, 0, 1))
        assert phi.apply((2, 1, 1)) == (0, 0, 1)
        assert [p.dim for p in parts] == [0, 0, 1]

    def test_two_pivots_share_a_tail_column(self):
        # reduced rows e_c + 2 e_a and e_b + e_a: both tails land in row a
        chain = Poset.chain(("a", "b", "c"))
        space = AlphabetSpec.uniform(FieldSpec(3), chain.elements, 1)
        code = LinearCode.from_rows(space, [(1, 0, 2), (0, 1, 1)])
        phi, parts = canonical_decomposition(space, chain, code)
        assert phi.matrix == ((1, 2, 1), (0, 1, 0), (0, 0, 1))
        assert phi.matrix == _sigma_product_decomposition(space, chain, code)
        # the reduced rows, back in position order, go to their tops
        assert [phi.apply((2, 0, 1)), phi.apply((1, 1, 0))] == [(0, 0, 1), (0, 1, 0)]
        assert [p.dim for p in parts] == [0, 1, 1]

    def test_mixed_dims_tail_is_one_strict_block(self):
        # chain a < b with dims (2, 1): the tail (1, 1) on a is a 2 x 1 block b -> a
        space = AlphabetSpec(F2, CHAIN2.elements, (2, 1))
        code = LinearCode.from_rows(space, [(1, 1, 1)])
        phi, parts = canonical_decomposition(space, CHAIN2, code)
        assert phi.strict == ((1, 0, ((1,), (1,))),)
        assert phi.matrix == ((1, 0, 1), (0, 1, 1), (0, 0, 1))
        assert parts == [LinearCode.zero(space), LinearCode.from_rows(space, [(0, 0, 1)])]

    def test_tailless_code_keeps_the_identity(self):
        chain = Poset.chain(("a", "b", "c"))
        space = AlphabetSpec.uniform(FieldSpec(3), chain.elements, 1)
        code = LinearCode.from_rows(space, [(1, 0, 0), (0, 0, 2)])
        phi, parts = canonical_decomposition(space, chain, code)
        assert phi == Isometry.identity(space, chain)
        assert [p.basis for p in parts] == [((1, 0, 0),), (), ((0, 0, 1),)]

    def test_identity_blocks_are_not_ranked(self, monkeypatch):
        # every diagonal block of the decomposition is an identity, so the
        # only ranks computed are of non-identity matrices
        ranked = []
        rank = fields.rank
        monkeypatch.setattr(fields, "rank", lambda q, rows: ranked.append(rows) or rank(q, rows))
        chain = Poset.chain(("a", "b", "c"))
        space = AlphabetSpec(FieldSpec(3), chain.elements, (1, 2, 1))
        decomposed = 0
        for code in enumerate_codes(space, max_dim=2):
            phi, _parts = canonical_decomposition(space, chain, code)
            assert all(m == fields.identity_matrix(len(m)) for m in phi.diag)
            decomposed += 1
        assert decomposed > 100
        assert not any(rows == fields.identity_matrix(len(rows)) for rows in ranked)

    @pytest.mark.parametrize("q", [2, 3])
    def test_phi_keeps_the_poset_support_of_every_vector(self, q):
        wedge = Poset.from_covers(("a", "b", "c"), [("a", "c"), ("b", "c")])
        space = AlphabetSpec.uniform(FieldSpec(q), wedge.elements, 1)
        vectors = list(space.vectors())
        moved = 0
        for code in enumerate_codes(space):
            phi, _parts = canonical_decomposition(space, wedge, code)
            for v in vectors:
                assert p_support(space, wedge, phi.apply(v)) == p_support(space, wedge, v)
            moved += bool(phi.strict)
        assert moved > 0

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
    level_at = [0] * space.total_dim  # the level of each coordinate's label
    for label in poset.elements:
        for t in space.block_range(label):
            level_at[t] = poset.level(label)
    words = [
        (w, max((level_at[t] for t, x in enumerate(w) if x), default=0)) for w in code.codewords()
    ]
    parts = []
    for j in range(1, max(top for _w, top in words) + 1):
        rows = {
            tuple(x if level_at[t] == j else 0 for t, x in enumerate(w)) for w, top in words if top <= j
        }
        parts.append(LinearCode.from_rows(space, rows))
    return parts


def _sigma_product_decomposition(space, poset, code):
    """phi as sigma_1 ... sigma_r, each level's straightening map built as
    its own matrix and multiplied out: the oracle of identity minus tails."""
    q = space.q
    n = space.total_dim
    level_of = [0] * n
    for label in poset.elements:
        for t in space.block_range(label):
            level_of[t] = poset.level(label)
    order = sorted(range(n), key=lambda t: -level_of[t])
    reduced, pivots = fields.rref(q, [[row[t] for t in order] for row in code.basis])
    r = level_of[order[pivots[0]]] if pivots else 0
    sigmas = [[list(row) for row in fields.identity_matrix(n)] for _ in range(r)]
    for reduced_row, pivot in zip(reduced, pivots):
        column = order[pivot]
        for t, x in zip(order, reduced_row):
            if level_of[t] != level_of[column]:  # zero above, so only the tail l
                sigmas[level_of[column] - 1][t][column] = -x % q
    product = fields.identity_matrix(n)
    for sigma in sigmas:  # phi = sigma_1 ... sigma_r
        product = fields.mat_mul(q, product, sigma)
    return product


class TestCanonicalDecompositionOracle:
    """The parts against codewords; phi keeps every label, maps the code
    onto the sum of the parts, and equals the sigma product (and, where the
    q^N replay is cheap, the product read back by `decompose`).  Unit dims
    on every hierarchical poset of up to 4 elements; mixed dims (1, 2, 1) on
    up to 3, since (1, 2, 1, 2) over F_2 alone has 75 x 2825 codes."""

    @pytest.mark.parametrize(
        "q,dims",
        [(q, (1,) * n) for q in (2, 3) for n in range(1, 5)]
        + [(q, (1, 2, 1)[:n]) for q in (2, 3) for n in (2, 3)],
    )
    def test_parts_equal_the_codeword_oracle(self, q, dims):
        n = len(dims)
        for poset in [p for p in _labeled_posets(n) if p.is_hierarchical]:
            space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
            key = key_for(poset, None, "support")
            for code in enumerate_codes(space):
                phi, parts = canonical_decomposition(space, poset, code)
                assert parts == parts_from_codewords(space, poset, code)
                assert phi.lam == tuple(range(n))
                image = LinearCode.from_rows(space, [phi.apply(row) for row in code.basis])
                assert image == LinearCode.from_rows(space, [r for p in parts for r in p.basis])
                product = _sigma_product_decomposition(space, poset, code)
                assert phi.matrix == product
                if q == 2 or n <= 3:
                    assert phi == decompose(space, poset, product, key)

    def test_no_matrix_product_or_space_replay(self, monkeypatch):
        chain = Poset.chain(("a", "b", "c", "d"))
        space = AlphabetSpec.uniform(FieldSpec(3), chain.elements, 1)
        key = key_for(chain, None, "support")
        codes = list(enumerate_codes(space))
        expected = []
        for code in codes:
            product = _sigma_product_decomposition(space, chain, code)
            parts = parts_from_codewords(space, chain, code)
            expected.append((decompose(space, chain, product, key), parts))

        def unreachable(*args, **kwargs):
            raise AssertionError("canonical_decomposition reached a q^N or n x n path")

        for module in (fields, spaces, isometries, mep):
            for name in ("decompose", "mat_mul", "support_classes"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, unreachable)
        assert [canonical_decomposition(space, chain, code) for code in codes] == expected
        assert any(phi.strict for phi, _parts in expected)
