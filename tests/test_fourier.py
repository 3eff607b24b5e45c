"""Exact character sums, dual partitions, identity checks, and the audit."""

import pytest

from posetmetrics import fourier
from posetmetrics.errors import BoundExceeded, ValidationError
from posetmetrics.fourier import (
    CyclotomicInteger,
    Partition,
    character_choice_audit,
    character_sum,
    coding_property_audit,
    dual_partition,
    is_fourier_reflexive,
    macwilliams_identity_check,
    weight_partition,
)
from posetmetrics.posets import Poset, WeightFunction
from posetmetrics.spaces import AlphabetSpec, FieldSpec, LinearCode, enumerate_codes, subspace_count

F2 = FieldSpec(2)
F3 = FieldSpec(3)
CHAIN3 = Poset.chain(("a", "b", "c"))
ANTI3 = Poset.antichain(("a", "b", "c"))
MIXED = Poset.from_covers(("a", "b", "c"), [("a", "b")])
SP3 = AlphabetSpec.uniform(F2, ("a", "b", "c"), 1)


def ones(poset):
    return WeightFunction.ones(poset.elements)


def cyclotomic_int(prime, value):
    """The rational integer value as an element of Z[z]."""
    return CyclotomicInteger(prime, (value,) + (0,) * (prime - 2))


# -- ring arithmetic for the character_sum oracle -------------------------------


def zero(prime):
    return cyclotomic_int(prime, 0)


def root_power(prime, exponent):
    """z^exponent, with z^(p-1) reduced to -(1 + z + ... + z^(p-2))."""
    exponent %= prime
    if exponent < prime - 1:
        return CyclotomicInteger(prime, tuple(int(t == exponent) for t in range(prime - 1)))
    return CyclotomicInteger(prime, (-1,) * (prime - 1))


def add(a, b):
    assert a.prime == b.prime
    return CyclotomicInteger(a.prime, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def refines(fine, coarse):
    """Every block of fine lies inside one block of coarse."""
    return all(any(block <= big for big in coarse.blocks) for block in fine.blocks)


class TestCyclotomic:
    def test_root_reduction_wraps_to_negative_basis(self):
        top = root_power(5, 4)
        assert top.coeffs == (-1, -1, -1, -1)

    def test_root_sum_over_all_powers_vanishes(self):
        total = zero(5)
        for e in range(5):
            total = add(total, root_power(5, e))
        assert total == zero(5)

    def test_binary_root_is_sign(self):
        assert root_power(2, 0).coeffs == (1,)
        assert root_power(2, 1).coeffs == (-1,)

    def test_coefficient_count_checked(self):
        with pytest.raises(ValidationError):
            CyclotomicInteger(5, (0, 0, 0))


class TestCharacterSums:
    def test_zero_vector_counts_the_block(self):
        block = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
        total = character_sum(SP3, block, (0, 0, 0))
        assert total == cyclotomic_int(2, 3)

    def test_full_space_sum_vanishes_off_zero(self):
        block = list(SP3.vectors())
        for alpha in SP3.vectors():
            expected = 8 if alpha == (0, 0, 0) else 0
            assert character_sum(SP3, block, alpha) == cyclotomic_int(2, expected)

    def test_subgroup_orthogonality(self):
        space = AlphabetSpec.uniform(F3, ("x", "y"), 1)
        code = LinearCode.from_rows(space, [(1, 2)])
        block = list(code.codewords())
        for alpha in code.dual().codewords():
            assert character_sum(space, block, alpha) == cyclotomic_int(3, len(block))
        outside = [v for v in space.vectors() if not code.dual().contains(v)]
        for alpha in outside:
            assert character_sum(space, block, alpha) == zero(3)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_equals_the_sum_of_root_powers(self, q):
        # oracle: add z^(scale <alpha, beta>) one beta at a time
        space = AlphabetSpec.uniform(FieldSpec(q), ("x", "y"), 1)
        vectors = list(space.vectors())
        for alpha in vectors:
            for scale in range(1, q):
                for size in (1, q, len(vectors)):
                    block = vectors[:size]
                    total = zero(q)
                    for beta in block:
                        dot = sum(a * b for a, b in zip(alpha, beta))
                        total = add(total, root_power(q, scale * dot))
                    assert character_sum(space, block, alpha, scale) == total

    def test_trivial_scaling_rejected(self):
        with pytest.raises(ValidationError):
            character_sum(SP3, [(0, 0, 0)], (0, 0, 0), scale=2)


class TestWeightPartitions:
    def test_single_coordinate_two_blocks(self):
        space = AlphabetSpec.uniform(F3, ("a",), 1)
        one = Poset.chain(("a",))
        partition = weight_partition(space, one, WeightFunction.ones(("a",)))
        assert sorted(len(b) for b in partition.blocks) == [1, 2]

    def test_antichain_gives_hamming_layers(self):
        partition = weight_partition(SP3, ANTI3, ones(ANTI3))
        assert partition.block_count == 4  # one layer per Hamming weight
        assert sorted(len(b) for b in partition.blocks) == [1, 1, 3, 3]

    def test_weighted_chain_pair(self):
        chain2 = Poset.chain(("a", "b"))
        sp2 = AlphabetSpec.uniform(F2, chain2.elements, 1)
        partition = weight_partition(sp2, chain2, ones(chain2))
        assert sorted(len(b) for b in partition.blocks) == [1, 1, 2]

    def test_bound_names_the_count_and_the_bound(self):
        one = Poset.chain(("a",))
        space = AlphabetSpec(F2, ("a",), (17,))
        message = "^space too large to partition: 131072 vectors, over the bound 65536$"
        with pytest.raises(BoundExceeded, match=message):
            weight_partition(space, one, WeightFunction.ones(("a",)))

    def test_distribution_conserves_code_size(self):
        partition = weight_partition(SP3, CHAIN3, ones(CHAIN3))
        for code in enumerate_codes(SP3):
            assert sum(partition.distribution(code.codewords())) == code.size


class TestDualPartition:
    def test_whole_space_partition_dualizes_to_zero_versus_rest(self):
        whole = Partition.from_blocks([list(SP3.vectors())])
        dual = dual_partition(SP3, whole)
        assert {frozenset(b) for b in dual.blocks} == {
            frozenset({(0, 0, 0)}),
            frozenset(v for v in SP3.vectors() if v != (0, 0, 0)),
        }

    def test_hamming_dual_keeps_the_block_count(self):
        partition = weight_partition(SP3, ANTI3, ones(ANTI3))
        assert dual_partition(SP3, partition).block_count == partition.block_count

    def test_dual_reverses_refinement(self):
        fine = weight_partition(SP3, CHAIN3, ones(CHAIN3))
        blocks = list(fine.blocks)
        merged = Partition.from_blocks([blocks[0] | blocks[1]] + blocks[2:])
        assert refines(fine, merged)
        assert refines(dual_partition(SP3, merged), dual_partition(SP3, fine))

    def test_double_dual_is_stable_on_reflexive_partitions(self):
        partition = weight_partition(SP3, CHAIN3, ones(CHAIN3))
        once = dual_partition(SP3, partition)
        twice = dual_partition(SP3, once)
        assert twice == partition
        assert dual_partition(SP3, dual_partition(SP3, once)) == once


class TestReflexivity:
    @pytest.mark.parametrize("poset", [CHAIN3, ANTI3])
    def test_hierarchical_unit_weight_partitions_reflexive(self, poset):
        partition = weight_partition(SP3, poset, ones(poset))
        assert is_fourier_reflexive(SP3, partition)

    def test_mixed_poset_not_reflexive(self):
        partition = weight_partition(SP3, MIXED, ones(MIXED))
        assert not is_fourier_reflexive(SP3, partition)

    def test_character_choice_does_not_matter(self):
        space = AlphabetSpec.uniform(F3, ("x", "y"), 1)
        anti = Poset.antichain(("x", "y"))
        partition = weight_partition(space, anti, WeightFunction.ones(anti.elements))
        agree, verdicts = character_choice_audit(space, partition)
        assert agree and len(verdicts) == 2

    def test_block_counts_match_under_order_reversal(self):
        for poset in (CHAIN3, ANTI3, MIXED):
            forward = weight_partition(SP3, poset, ones(poset))
            backward = weight_partition(SP3, poset.dual(), ones(poset))
            assert forward.block_count == backward.block_count


class TestMacwilliams:
    @pytest.mark.parametrize("poset", [CHAIN3, ANTI3])
    def test_identity_holds_hierarchical(self, poset):
        assert macwilliams_identity_check(SP3, poset, ones(poset)).holds

    def test_identity_fails_with_replayable_witness(self):
        result = macwilliams_identity_check(SP3, MIXED, ones(MIXED))
        assert not result.holds
        first, second = result.witness
        backward = weight_partition(SP3, MIXED.dual(), ones(MIXED))
        forward = weight_partition(SP3, MIXED, ones(MIXED))
        assert backward.distribution(first.codewords()) == backward.distribution(
            second.codewords()
        )
        assert forward.distribution(first.dual().codewords()) != forward.distribution(
            second.dual().codewords()
        )

    def test_mixed_dims_antichain_fails(self):
        anti2 = Poset.antichain(("x", "y"))
        space = AlphabetSpec(F2, anti2.elements, (1, 2))
        assert not macwilliams_identity_check(
            space, anti2, WeightFunction.ones(anti2.elements)
        ).holds

    def test_code_bound_admits_f2_7_and_refuses_f2_8(self):
        assert subspace_count(7, 2) == 29212 <= fourier.CODE_BOUND < subspace_count(8, 2) == 417199

    @pytest.mark.parametrize("q,n,count", [(2, 8, 417199), (2, 9, 8283458), (3, 7, 2052656)])
    def test_code_bound_refuses_before_any_code(self, monkeypatch, q, n, count):
        def unreachable(*args, **kwargs):
            raise AssertionError("a code was enumerated")

        monkeypatch.setattr(fourier, "enumerate_codes", unreachable)
        chain = Poset.chain(tuple("abcdefghi"[:n]))
        space = AlphabetSpec.uniform(FieldSpec(q), chain.elements, 1)
        message = f"^F_{q}\\^{n} has {count} subspaces, over the code bound 65536$"
        with pytest.raises(BoundExceeded, match=message):
            macwilliams_identity_check(space, chain, ones(chain))


class TestAudit:
    def test_code_bound_is_checked_before_the_first_statement(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a statement ran")

        monkeypatch.setattr(fourier, "mep_brute_force", unreachable)
        chain = Poset.chain(tuple("abcdefgh"))
        space = AlphabetSpec.uniform(F2, chain.elements, 1)
        with pytest.raises(BoundExceeded, match="^F_2\\^8 has 417199 subspaces"):
            coding_property_audit(space, chain, ones(chain))

    def test_hierarchical_instance_all_true(self):
        audit = coding_property_audit(SP3, CHAIN3, ones(CHAIN3))
        assert audit.consistent
        assert all(audit.statements.values())

    def test_extension_strictly_stronger_instance(self):
        space = AlphabetSpec.uniform(F2, ANTI3.elements, 2)
        audit = coding_property_audit(space, ANTI3, ones(ANTI3))
        assert audit.consistent
        s = audit.statements
        assert not s["mep"] and not s["level_class_bound"]
        assert s["single_orbit"] and s["udp_matched_dims"]
        assert s["dual_partition_match"] and s["macwilliams_identity"]
        assert s["fourier_reflexive"]

    def test_non_hierarchical_unit_weights_all_middle_false(self):
        audit = coding_property_audit(SP3, MIXED, ones(MIXED))
        assert audit.consistent
        s = audit.statements
        assert not any(
            s[name]
            for name in (
                "mep",
                "single_orbit",
                "udp_matched_dims",
                "dual_partition_match",
                "macwilliams_identity",
                "fourier_reflexive",
            )
        )
        assert s["level_class_bound"]

    def test_weighted_vee_instance(self):
        vee = Poset.from_covers(("r", "l", "m"), [("r", "l"), ("r", "m")])
        space = AlphabetSpec.uniform(F2, vee.elements, 1)
        omega = WeightFunction.from_map({"r": "1/2", "l": 2, "m": 2})
        audit = coding_property_audit(space, vee, omega)
        assert audit.consistent
        assert audit.statements["mep"]

    def test_integer_weights_breaking_unique_decomposition(self):
        # equal ideal sums with no automorphism relating them
        poset = Poset.antichain(("x", "y", "z"))
        space = AlphabetSpec.uniform(F2, poset.elements, 1)
        omega = WeightFunction.from_map({"x": 1, "y": 1, "z": 2})
        audit = coding_property_audit(space, poset, omega)
        assert audit.consistent
        assert not audit.statements["udp_matched_dims"]
        assert not audit.statements["mep"]
