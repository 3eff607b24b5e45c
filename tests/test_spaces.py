"""Ambient spaces: supports, weights, metric axioms, codes and duals."""

from fractions import Fraction

import pytest

from posetmetrics.acceptance import _labeled_posets, _omega_variants
from posetmetrics.errors import BoundExceeded, ValidationError
from posetmetrics.isometries import p_support_functional, weight_sum_functional
from posetmetrics.posets import Poset, WeightFunction
from posetmetrics.spaces import (
    AlphabetSpec,
    FieldSpec,
    LinearCode,
    delta_code,
    distance,
    enumerate_codes,
    gaussian_binomial,
    linear_maps,
    p_support,
    p_weight,
    subspace_count,
    support_classes,
    weight,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
CHAIN3 = Poset.chain(("1", "2", "3"))
SP3 = AlphabetSpec.uniform(F2, CHAIN3.elements, 1)
ONES3 = WeightFunction.ones(CHAIN3.elements)


class TestFieldSpec:
    def test_prime_required(self):
        with pytest.raises(ValidationError):
            FieldSpec(4)

    def test_dims_positive(self):
        with pytest.raises(ValidationError):
            AlphabetSpec(F2, ("a",), (0,))


class TestSupport:
    def test_zero_vector(self):
        assert SP3.support((0, 0, 0)) == frozenset()

    def test_chain_top_support_closure(self):
        assert SP3.support((0, 0, 1)) == {"3"}
        assert p_support(SP3, CHAIN3, (0, 0, 1)) == {"1", "2", "3"}

    def test_support_matches_blockwise_scan(self):
        space = AlphabetSpec(F3, ("a", "b"), (2, 1))
        for vec in space.vectors():
            expected = frozenset(
                label for label in space.labels if any(space.block(vec, label))
            )
            assert space.support(vec) == expected


class TestBlockBounds:
    def test_bounds_stay_out_of_eq_hash_and_repr(self):
        space = AlphabetSpec(F3, ("a", "b", "c"), (1, 2, 1))
        twin = AlphabetSpec(F3, ("a", "b", "c"), (1, 2, 1))
        assert space == twin and hash(space) == hash(twin)
        assert repr(space) == "AlphabetSpec(field=FieldSpec(q=3), labels=('a', 'b', 'c'), dims=(1, 2, 1))"
        assert [space.block_range(label) for label in space.labels] == [
            range(0, 1), range(1, 3), range(3, 4)
        ]
        assert space.block((0, 1, 2, 0), "b") == (1, 2)


def _support_classes_oracle(space, value):
    """Class ids from frozenset supports and a value per support, the path
    support_classes replaced: numbered by first appearance, value once per
    distinct support."""
    class_of_support, ids, out = {}, {}, []
    for vec in space.vectors():
        supp = space.support(vec)
        if supp not in class_of_support:
            class_of_support[supp] = ids.setdefault(value(supp), len(ids))
        out.append(class_of_support[supp])
    return out


class TestDimOf:
    def test_reads_the_block_bounds(self):
        space = AlphabetSpec(F3, ("a", "b", "c"), (1, 3, 2))
        assert [space.dim_of(l) for l in "cab"] == [2, 1, 3]
        with pytest.raises(ValidationError, match="^unknown label 'z'$"):
            space.dim_of("z")


class TestSupportClasses:
    MIXED = Poset.from_covers(("a", "b", "c"), [("a", "b")])
    SPACE = AlphabetSpec(F3, ("a", "b", "c"), (1, 2, 1))

    @staticmethod
    def _partition(keys):
        groups = {}
        for t, key in enumerate(keys):
            groups.setdefault(key, set()).add(t)
        return {frozenset(g) for g in groups.values()}

    @pytest.mark.parametrize(
        "omega",
        [
            WeightFunction.ones(("a", "b", "c")),
            WeightFunction.from_map({"a": "1/2", "b": 1, "c": "3/2"}),
            WeightFunction.from_map({"a": 1, "b": 2, "c": 4}),
        ],
    )
    def test_same_partition_as_weight_and_p_support(self, omega):
        space, poset = self.SPACE, self.MIXED
        vectors = list(space.vectors())
        calls = []
        key = weight_sum_functional(poset, omega).key

        def counted_key(mask):
            calls.append(mask)
            return key(mask)

        ids = support_classes(space, poset, counted_key)
        assert len(ids) == len(vectors)
        assert self._partition(ids) == self._partition(
            [weight(space, poset, omega, v) for v in vectors]
        )
        closures = {p_support(space, poset, v) for v in vectors}
        assert sorted(calls) == sorted(sum(1 << poset.index(l) for l in c) for c in closures)
        closure_ids = support_classes(space, poset, p_support_functional(poset).key)
        assert self._partition(closure_ids) == self._partition(
            [p_support(space, poset, v) for v in vectors]
        )

    def test_ids_numbered_by_first_appearance(self):
        ids = support_classes(self.SPACE, self.MIXED, int.bit_count)
        first = [ids.index(c) for c in range(max(ids) + 1)]
        assert first == sorted(first) and ids[0] == 0

    @pytest.mark.parametrize("q,dims", [(2, (1, 1, 1)), (3, (1, 1, 1)), (2, (1, 2, 1)), (3, (2, 1, 1))])
    def test_equal_to_the_frozenset_oracle(self, q, dims):
        # equal ids, not only equal partitions, on every labeled 3-element poset
        compared = 0
        for poset in _labeled_posets(3):
            space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
            functionals = [weight_sum_functional(poset, omega) for omega in _omega_variants(poset)]
            for sf in functionals + [p_support_functional(poset)]:
                assert support_classes(space, poset, sf.key) == _support_classes_oracle(
                    space, sf.evaluate
                )
                compared += 1
        assert compared == 19 * 4

    def test_space_label_order_is_mapped_to_poset_positions(self):
        poset = self.MIXED
        space = AlphabetSpec(F2, ("c", "a", "b"), (1, 2, 1))
        for sf in (weight_sum_functional(poset, WeightFunction.ones(poset.elements)),
                   p_support_functional(poset)):
            assert support_classes(space, poset, sf.key) == _support_classes_oracle(
                space, sf.evaluate
            )


class TestWeight:
    def test_zero_weight(self):
        assert weight(SP3, CHAIN3, ONES3, (0, 0, 0)) == 0

    def test_chain_closure_weight(self):
        assert weight(SP3, CHAIN3, ONES3, (0, 0, 1)) == 3

    def test_antichain_is_block_hamming(self):
        anti = Poset.antichain(("1", "2", "3"))
        space = AlphabetSpec(F2, anti.elements, (2, 1, 2))
        ones = WeightFunction.ones(anti.elements)
        for vec in space.vectors():
            assert weight(space, anti, ones, vec) == len(space.support(vec))

    def test_p_weight_equals_unit_weight(self):
        for vec in SP3.vectors():
            assert p_weight(SP3, CHAIN3, vec) == weight(SP3, CHAIN3, ONES3, vec)

    def test_monotone_in_support(self):
        omega = WeightFunction.from_map({"1": "1/2", "2": 3, "3": "7/5"})
        for a in SP3.vectors():
            for b in SP3.vectors():
                if SP3.support(a) <= SP3.support(b):
                    assert weight(SP3, CHAIN3, omega, a) <= weight(SP3, CHAIN3, omega, b)


def assert_metric(space, poset, omega):
    vectors = list(space.vectors())
    q = space.q
    wt = {v: weight(space, poset, omega, v) for v in vectors}
    zero = space.zero()
    for v in vectors:
        assert wt[v] >= 0
        assert (wt[v] == 0) == (v == zero)
        neg = tuple((-x) % q for x in v)
        assert wt[neg] == wt[v]  # symmetry of the induced distance
    for a in vectors:
        for b in vectors:
            s = tuple((x + y) % q for x, y in zip(a, b))
            assert wt[s] <= wt[a] + wt[b]  # triangle, shifted to the origin


class TestMetricAxioms:
    def test_weighted_chain_f3(self):
        poset = Poset.chain(("a", "b"))
        space = AlphabetSpec(F3, poset.elements, (1, 2))
        omega = WeightFunction.from_map({"a": "1/3", "b": "2"})
        assert_metric(space, poset, omega)

    def test_mixed_poset_f2(self):
        poset = Poset.from_covers(("a", "b", "c"), [("a", "b")])
        space = AlphabetSpec.uniform(F2, poset.elements, 1)
        assert_metric(space, poset, WeightFunction.ones(poset.elements))

    def test_large_binary_space(self):
        # 2^10 vectors, indices are the vectors, addition is xor
        labels = tuple(f"x{i}" for i in range(10))
        poset = Poset.from_covers(labels, [(labels[i], labels[i + 1]) for i in range(4)])
        space = AlphabetSpec.uniform(F2, labels, 1)
        omega = WeightFunction(labels, tuple(Fraction(i + 1, 3) for i in range(10)))
        wt = [None] * 1024
        for vec in space.vectors():
            idx = int("".join(map(str, vec)), 2)
            wt[idx] = weight(space, poset, omega, vec)
        assert wt[0] == 0 and all(w > 0 for w in wt[1:])
        for a in range(1024):
            for b in range(a, 1024):
                assert wt[a ^ b] <= wt[a] + wt[b]

    def test_distance_shape_mismatch(self):
        with pytest.raises(ValidationError):
            distance(SP3, CHAIN3, ONES3, (0, 0), (0, 0, 0))


class TestDelta:
    def test_empty_is_zero_code(self):
        assert delta_code(SP3, []).dim == 0

    def test_full_is_whole_space(self):
        assert delta_code(SP3, ["1", "2", "3"]) == LinearCode.full(SP3)

    def test_single_block_dimension(self):
        space = AlphabetSpec(F2, ("a", "b"), (2, 3))
        assert delta_code(space, ["a"]).dim == 2


class TestCodes:
    def test_rref_canonical_equality(self):
        rows = [(1, 1, 0), (0, 1, 1)]
        a = LinearCode.from_rows(SP3, rows)
        b = LinearCode.from_rows(SP3, [rows[1], rows[0], (1, 0, 1)])
        assert a == b and hash(a) == hash(b)

    def test_contains(self):
        c = LinearCode.from_rows(SP3, [(1, 1, 0)])
        assert c.contains((1, 1, 0)) and c.contains((0, 0, 0))
        assert not c.contains((1, 0, 0))

    def test_self_dual_repetition(self):
        sp2 = AlphabetSpec.uniform(F2, ("1", "2"), 1)
        c = LinearCode.from_rows(sp2, [(1, 1)])
        assert c.dual() == c

    def test_zero_dual_full(self):
        assert LinearCode.zero(SP3).dual() == LinearCode.full(SP3)

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 2)])
    def test_biduality_and_dimension_law(self, q, n):
        space = AlphabetSpec.uniform(FieldSpec(q), tuple(f"c{i}" for i in range(n)), 1)
        for code in enumerate_codes(space):
            assert code.dual().dual() == code
            assert code.dim + code.dual().dim == n
            for a in code.codewords():
                for b in code.dual().codewords():
                    assert sum(x * y for x, y in zip(a, b)) % q == 0


class TestEnumeration:
    def test_f2_2_has_five_subspaces(self):
        sp2 = AlphabetSpec.uniform(F2, ("1", "2"), 1)
        assert sum(1 for _ in enumerate_codes(sp2)) == 5

    def test_f2_4_has_sixty_seven(self):
        sp4 = AlphabetSpec.uniform(F2, tuple("abcd"), 1)
        codes = list(enumerate_codes(sp4))
        assert len(codes) == 67 == subspace_count(4, 2)
        assert len(set(codes)) == 67
        by_dim = {}
        for c in codes:
            by_dim[c.dim] = by_dim.get(c.dim, 0) + 1
        assert by_dim == {d: gaussian_binomial(4, d, 2) for d in range(5)}

    def test_dimension_zero_code_has_one_codeword(self):
        assert list(LinearCode.zero(SP3).codewords()) == [(0, 0, 0)]

    def test_bound_enforced(self):
        labels = tuple(f"x{i}" for i in range(17))
        big = AlphabetSpec.uniform(F2, labels, 1)
        with pytest.raises(BoundExceeded):
            list(enumerate_codes(big))


class TestMaps:
    def test_zero_code_has_one_map(self):
        assert sum(1 for _ in linear_maps(LinearCode.zero(SP3), SP3)) == 1

    def test_line_has_q_to_n_maps(self):
        sp2 = AlphabetSpec.uniform(F2, ("1", "2"), 1)
        line = LinearCode.from_rows(sp2, [(1, 0)])
        assert sum(1 for _ in linear_maps(line, sp2)) == 4

    def test_count_is_exponential(self):
        c = LinearCode.from_rows(SP3, [(1, 0, 0), (0, 1, 0)])
        assert sum(1 for _ in linear_maps(c, SP3)) == 8**2

    def test_map_bound(self):
        sp6 = AlphabetSpec.uniform(F2, tuple(f"x{i}" for i in range(6)), 1)
        full = LinearCode.full(sp6)
        with pytest.raises(BoundExceeded):
            linear_maps(full, sp6)
