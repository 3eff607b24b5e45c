"""Exact character sums, dual partitions, identity checks, and the audit."""

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from posetmetrics import fields, fourier
from posetmetrics.acceptance import _labeled_posets
from posetmetrics.errors import BoundExceeded, ValidationError
from posetmetrics.isometries import weight_sum_functional
from posetmetrics.fourier import (
    CyclotomicInteger,
    MacwilliamsResult,
    Partition,
    character_sum,
    coding_property_audit,
    dual_partition,
    is_fourier_reflexive,
    macwilliams_identity_check,
    weight_partition,
)
from posetmetrics.instances import load_instance
from posetmetrics.posets import Poset, WeightFunction, powers_of_two_weight
from posetmetrics.spaces import (
    AlphabetSpec,
    FieldSpec,
    LinearCode,
    enumerate_codes,
    subspace_count,
    support_classes,
    vector_masks,
)

from helpers import macwilliams_identity_check_oracle

F2 = FieldSpec(2)
F3 = FieldSpec(3)
CHAIN3 = Poset.chain(("a", "b", "c"))
ANTI3 = Poset.antichain(("a", "b", "c"))
MIXED = Poset.from_covers(("a", "b", "c"), [("a", "b")])
SP3 = AlphabetSpec.uniform(F2, ("a", "b", "c"), 1)
INSTANCES = Path(__file__).resolve().parents[1] / "instances"


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


def _exact_dual_partition(space, partition, scale=1):
    """The dual partition by summing the character over every block for every
    alpha, q^(2N) inner products in all: the oracle of the support transform."""
    signatures, blocks = {}, partition.blocks
    for alpha in space.vectors():
        key = tuple(character_sum(space, block, alpha, scale).coeffs for block in blocks)
        signatures.setdefault(key, []).append(alpha)
    return Partition.from_blocks(space, signatures.values())


# -- partitions as frozensets of vectors: the oracle of the block-id Partition -----


@dataclass(frozen=True)
class FrozensetPartition:
    """Blocks as frozensets of vector tuples, sorted by their least vectors."""

    blocks: tuple[frozenset, ...]

    @classmethod
    def from_blocks(cls, blocks):
        frozen = [frozenset(b) for b in blocks]
        assert all(frozen) and sum(map(len, frozen)) == len(frozenset().union(*frozen))
        return cls(tuple(sorted(frozen, key=sorted)))

    @property
    def block_count(self):
        return len(self.blocks)


def _frozenset_weight_partition(space, poset, omega):
    classes = support_classes(space, poset, weight_sum_functional(poset, omega))
    blocks = [[] for _ in range(max(classes) + 1)]
    for vec, c in zip(space.vectors(), classes):
        blocks[c].append(vec)
    partition = FrozensetPartition.from_blocks(blocks)
    assert frozenset({space.zero()}) in partition.blocks
    return partition


def _frozenset_dual_partition(space, partition):
    """Vectors grouped by their blocks' character sums, each block's taken by
    the butterfly on its indicator over the exact supports, looked up by vector."""
    n = len(space.labels)
    supports = vector_masks(space, [1 << i for i in range(n)])
    block_index = {v: b for b, block in enumerate(partition.blocks) for v in block}
    assert len(block_index) == space.vector_count
    holder = [None] * (1 << n)
    for vec, s in zip(space.vectors(), supports):
        assert holder[s] in (None, block_index[vec])
        holder[s] = block_index[vec]
    columns = []
    for b in range(partition.block_count):
        h = [int(c == b) for c in holder]
        for i, k in enumerate(space.dims):
            for m in range(1 << n):
                if not m >> i & 1:
                    x, y = h[m], h[m | 1 << i]
                    h[m], h[m | 1 << i] = x + (space.q**k - 1) * y, x - y
        columns.append(h)
    signatures = {}
    for alpha, s in zip(space.vectors(), supports):
        signatures.setdefault(tuple(h[s] for h in columns), []).append(alpha)
    return FrozensetPartition.from_blocks(signatures.values())


def _partition_grid():
    """(id, space, poset, omega): every labeled poset on up to 3 elements at
    q in {2, 3} with unit dims and at q = 2 with dims (1, 2, 1), each with
    unit and random rational weights; q = 5 with dims (1, 2, 1) on two posets."""
    rng = random.Random(3)
    for n in (1, 2, 3):
        for poset in _labeled_posets(n):
            for q, dims in [(2, (1,) * n), (3, (1,) * n)] + ([(2, (1, 2, 1))] if n == 3 else []):
                space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
                for w, omega in enumerate((ones(poset), random_rational_weights(poset, rng))):
                    yield f"{order_id(poset)}-q{q}-{''.join(map(str, dims))}-w{w}", space, poset, omega
    for poset in (CHAIN3, MIXED):
        space = AlphabetSpec(FieldSpec(5), poset.elements, (1, 2, 1))
        yield f"{order_id(poset)}-q5-121", space, poset, ones(poset)


def random_rational_weights(poset, rng):
    return WeightFunction.from_map(
        {e: Fraction(rng.randint(1, 5), rng.randint(1, 3)) for e in poset.elements}
    )


def _grouped_macwilliams_identity_check(space, poset, omega):
    """The identity check on listed codewords, dual codes and partition
    distributions: the oracle of the exact-support enumerator keys."""
    fourier._check_code_count(space)
    primal = weight_partition(space, poset, omega)
    reversed_order = weight_partition(space, poset.dual(), omega)
    groups = {}
    for code in enumerate_codes(space):
        key = reversed_order.distribution(code.codewords())
        groups.setdefault(key, []).append(code)
    for group in groups.values():
        if len(group) < 2:
            continue
        seen = {}
        for code in group:
            dual_key = primal.distribution(code.dual().codewords())
            if seen and dual_key not in seen:
                other = next(iter(seen.values()))
                return MacwilliamsResult(False, (other, code))
            seen.setdefault(dual_key, code)
    return MacwilliamsResult(True)


def _macwilliams_grid():
    """(id, space, poset, omega): every labeled poset on up to 3 elements at
    q in {2, 3} with unit dims and at q = 2 with dims (1, 2, 1), each with
    unit and random rational weights; the instances; the two-label F_37
    chain and antichain, past the q != 2 addition-table bound."""
    rng = random.Random(7)
    for n in (1, 2, 3):
        for poset in _labeled_posets(n):
            for q, dims in [(2, (1,) * n), (3, (1,) * n)] + ([(2, (1, 2, 1))] if n == 3 else []):
                space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
                for w, omega in enumerate((ones(poset), random_rational_weights(poset, rng))):
                    case = f"{order_id(poset)}-q{q}-{''.join(map(str, dims))}-w{w}"
                    yield case, space, poset, omega
    for path in sorted(INSTANCES.glob("*.json")):
        inst = load_instance(path)
        yield path.stem, inst.space, inst.poset, inst.omega
    for make in (Poset.chain, Poset.antichain):
        poset = make(("a", "b"))
        space = AlphabetSpec.uniform(FieldSpec(37), poset.elements, 1)
        yield f"f37-{make.__name__}", space, poset, ones(poset)


def order_id(poset):
    """The elements and strict relations, as in "abc:a<b,a<c"."""
    e = poset.elements
    pairs = [f"{e[i]}<{e[j]}" for i in range(len(e)) for j in range(len(e)) if i != j and poset.leq[i][j]]
    return "".join(e) + ":" + ",".join(pairs)


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


class TestBlockIds:
    def test_equals_the_frozenset_partitions_on_the_grid(self):
        rng, compared, reflexive = random.Random(5), 0, 0
        for case, space, poset, omega in _partition_grid():
            primal = weight_partition(space, poset, omega)
            reversed_order = weight_partition(space, poset.dual(), omega)
            dual = dual_partition(space, primal)
            oracle = _frozenset_weight_partition(space, poset, omega)
            oracle_reversed = _frozenset_weight_partition(space, poset.dual(), omega)
            oracle_dual = _frozenset_dual_partition(space, oracle)
            for got, want in ((primal, oracle), (reversed_order, oracle_reversed), (dual, oracle_dual)):
                assert got.blocks == want.blocks, case
                assert got.block_count == want.block_count, case
                assert Partition.from_blocks(space, got.blocks) == got, case
                shuffled = [rng.sample(sorted(b), len(b)) for b in rng.sample(got.blocks, len(got.blocks))]
                assert Partition.from_blocks(space, shuffled) == got, case
            assert (dual == reversed_order) == (oracle_dual == oracle_reversed), case
            verdict = is_fourier_reflexive(space, primal)
            assert verdict == (_frozenset_dual_partition(space, oracle_dual) == oracle), case
            compared += 1
            reflexive += verdict
        assert compared == 23 * 4 + 19 * 2 + 2
        assert 0 < reflexive < compared

    def test_ids_number_the_blocks_by_their_least_vectors(self):
        space = AlphabetSpec.uniform(F3, ("a", "b"), 1)
        vectors = list(space.vectors())
        partition = Partition.from_blocks(space, [vectors[4:], vectors[1:4], vectors[:1]])
        assert partition.ids == (0, 1, 1, 1, 2, 2, 2, 2, 2)
        assert partition.blocks == (frozenset(vectors[:1]), frozenset(vectors[1:4]), frozenset(vectors[4:]))
        assert partition.distribution([vectors[0], vectors[5], vectors[8]]) == (1, 0, 2)

    def test_empty_block_is_refused(self):
        space = AlphabetSpec.uniform(F2, ("a",), 1)
        with pytest.raises(ValidationError, match="^partition blocks must be nonempty$"):
            Partition.from_blocks(space, [[(0,), (1,)], []])

    def test_overlapping_blocks_are_refused(self):
        space = AlphabetSpec.uniform(F2, ("a",), 1)
        with pytest.raises(ValidationError, match="^partition blocks must be disjoint$"):
            Partition.from_blocks(space, [[(0,)], [(0,), (1,)]])

    @pytest.mark.parametrize("vec", [(0, 1, 0), (2,), (-1,), (3,)], ids=["length", "q", "negative", "q+1"])
    def test_vector_outside_the_space_is_refused(self, vec):
        # entries are not reduced mod q: (2,) is not the vector (0,) of F_2
        space = AlphabetSpec.uniform(F2, ("a",), 1)
        message = f"^the vector {re.escape(str(vec))} is not in the space$"
        with pytest.raises(ValidationError, match=message):
            Partition.from_blocks(space, [[(0,)], [(1,), vec]])

    def test_missing_vector_is_refused_naming_the_first(self):
        space = AlphabetSpec.uniform(F3, ("a", "b"), 1)
        blocks = [[(0, 0)], [(2, 2), (1, 1)]]
        message = "^the partition lacks the vector \\(0, 1\\) of the space$"
        with pytest.raises(ValidationError, match=message):
            Partition.from_blocks(space, blocks)

    def test_missing_vector_of_a_large_space_is_named_at_once(self):
        # no table over the 2^40 vectors is built to find it
        space = AlphabetSpec(F2, ("a",), (40,))
        message = f"^the partition lacks the vector {re.escape(str((0,) * 39 + (1,)))} of the space$"
        with pytest.raises(ValidationError, match=message):
            Partition.from_blocks(space, [[space.zero()]])


class TestDualPartition:
    def test_whole_space_partition_dualizes_to_zero_versus_rest(self):
        whole = Partition.from_blocks(SP3, [list(SP3.vectors())])
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
        merged = Partition.from_blocks(SP3, [blocks[0] | blocks[1]] + blocks[2:])
        assert refines(fine, merged)
        assert refines(dual_partition(SP3, merged), dual_partition(SP3, fine))

    def test_double_dual_is_stable_on_reflexive_partitions(self):
        partition = weight_partition(SP3, CHAIN3, ones(CHAIN3))
        once = dual_partition(SP3, partition)
        twice = dual_partition(SP3, once)
        assert twice == partition
        assert dual_partition(SP3, dual_partition(SP3, once)) == once


class TestSupportTransform:
    @pytest.mark.parametrize("poset", [p for n in (1, 2, 3) for p in _labeled_posets(n)], ids=order_id)
    def test_equals_the_exact_dual_on_every_small_poset(self, poset):
        rng = random.Random(1)
        n = len(poset.elements)
        for q in (2, 3, 5):
            for dims in [(1,) * n] + ([(1, 2, 1)] if n == 3 and q < 5 else []):
                space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
                for omega in (ones(poset), random_rational_weights(poset, rng)):
                    partition = weight_partition(space, poset, omega)
                    dual = dual_partition(space, partition)
                    double = dual_partition(space, dual)
                    for scale in range(1, q):
                        assert _exact_dual_partition(space, partition, scale) == dual
                        assert _exact_dual_partition(space, dual, scale) == double

    @pytest.mark.parametrize("poset", [CHAIN3, MIXED], ids=["chain", "mixed"])
    def test_equals_the_exact_dual_at_q5_with_a_two_dim_block(self, poset):
        space = AlphabetSpec(FieldSpec(5), poset.elements, (1, 2, 1))
        partition = weight_partition(space, poset, ones(poset))
        dual = dual_partition(space, partition)
        assert _exact_dual_partition(space, partition, 2) == dual
        assert _exact_dual_partition(space, dual, 3) == dual_partition(space, dual)

    def test_equals_the_exact_dual_on_merged_and_whole_space_partitions(self):
        fine = weight_partition(SP3, CHAIN3, ones(CHAIN3))
        blocks = list(fine.blocks)
        merged = Partition.from_blocks(SP3, [blocks[0] | blocks[1]] + blocks[2:])
        whole = Partition.from_blocks(SP3, [list(SP3.vectors())])
        for partition in (fine, merged, whole):
            dual = dual_partition(SP3, partition)
            assert _exact_dual_partition(SP3, partition) == dual
            assert _exact_dual_partition(SP3, dual) == dual_partition(SP3, dual)

    def test_sums_equal_the_exact_character_sums(self):
        space = AlphabetSpec(F3, MIXED.elements, (1, 2, 1))
        partition = weight_partition(space, MIXED, ones(MIXED))
        supports, sums = fourier.support_transforms(space, partition)
        for alpha, s in zip(space.vectors(), supports):
            for b, block in enumerate(partition.blocks):
                for scale in (1, 2):
                    assert character_sum(space, block, alpha, scale) == cyclotomic_int(3, sums[s][b])

    def test_no_character_sum_is_taken(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a character sum was taken")

        monkeypatch.setattr(fourier, "character_sum", unreachable)
        space = AlphabetSpec(F3, MIXED.elements, (1, 2, 1))
        for poset in (CHAIN3, ANTI3, MIXED):
            partition = weight_partition(space, poset, ones(poset))
            dual_partition(space, partition)
            is_fourier_reflexive(space, partition)

    def test_binary_12_chain_round_trip(self):
        # q^(2N) = 2^24 inner products on the exact path; the transform takes
        # 13 blocks x 12 labels x 2^11 steps
        chain = Poset.chain(tuple("abcdefghijkl"))
        space = AlphabetSpec.uniform(F2, chain.elements, 1)
        partition = weight_partition(space, chain, ones(chain))
        dual = dual_partition(space, partition)
        assert dual == weight_partition(space, chain.dual(), ones(chain))
        assert dual_partition(space, dual) == partition
        assert is_fourier_reflexive(space, partition)

    def test_partition_of_another_space_is_refused(self):
        chain2 = Poset.chain(("a", "b"))
        partition = weight_partition(AlphabetSpec.uniform(F2, chain2.elements, 1), chain2, ones(chain2))
        message = "^the partition is of another space$"
        with pytest.raises(ValidationError, match=message):
            dual_partition(SP3, partition)
        with pytest.raises(ValidationError, match=message):
            is_fourier_reflexive(SP3, partition)
        # the same vectors under other labels are another space
        relabeled = AlphabetSpec.uniform(F2, ("x", "y", "z"), 1)
        with pytest.raises(ValidationError, match=message):
            dual_partition(relabeled, weight_partition(SP3, CHAIN3, ones(CHAIN3)))

    def test_partition_with_extra_vectors_is_refused(self):
        space = AlphabetSpec.uniform(F2, ("a",), 1)
        with pytest.raises(ValidationError, match="^the vector \\(1, 1\\) is not in the space$"):
            Partition.from_blocks(space, [[(0,)], [(1,)], [(1, 1)]])
        wider = AlphabetSpec.uniform(F2, ("a", "b"), 1)
        partition = Partition.from_blocks(wider, [[(0, 0)], [(0, 1), (1, 0), (1, 1)]])
        with pytest.raises(ValidationError, match="^the partition is of another space$"):
            dual_partition(space, partition)

    def test_block_splitting_a_support_class_is_refused(self):
        # (0, 1) and (0, 2) both have support {b}
        space = AlphabetSpec.uniform(F3, ("a", "b"), 1)
        vectors = list(space.vectors())
        partition = Partition.from_blocks(space, [vectors[:2], vectors[2:]])
        message = "^the block of the vector \\(0, 2\\) splits its exact-support class$"
        with pytest.raises(ValidationError, match=message):
            dual_partition(space, partition)


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
        assert is_fourier_reflexive(space, partition)
        for scale in (1, 2):
            dual = _exact_dual_partition(space, partition, scale)
            assert _exact_dual_partition(space, dual, scale) == partition

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

    def test_equals_the_grouped_oracle(self):
        compared = failed = 0
        for case, space, poset, omega in _macwilliams_grid():
            result = macwilliams_identity_check(space, poset, omega)
            assert result == _grouped_macwilliams_identity_check(space, poset, omega), case
            compared += 1
            failed += not result.holds
        assert compared == 23 * 4 + 19 * 2 + 4 + 2
        assert 0 < failed < compared

    def test_builds_no_dual_code_and_lists_no_codeword(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the slow path ran")

        for owner, name in ((LinearCode, "dual"), (LinearCode, "codewords"), (fields, "combine"),
                            (Partition, "distribution")):
            monkeypatch.setattr(owner, name, unreachable)
        assert macwilliams_identity_check(SP3, CHAIN3, ones(CHAIN3)).holds
        assert not macwilliams_identity_check(SP3, MIXED, ones(MIXED)).holds

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
        fourier._code_classes.cache_clear()
        chain = Poset.chain(tuple("abcdefghi"[:n]))
        space = AlphabetSpec.uniform(FieldSpec(q), chain.elements, 1)
        message = f"^F_{q}\\^{n} has {count} subspaces, over the code bound 65536$"
        with pytest.raises(BoundExceeded, match=message):
            macwilliams_identity_check(space, chain, ones(chain))
        # and no class table was started
        assert fourier._code_classes.cache_info().misses == 0


class TestCodeClasses:
    """The per-shape class table against the per-call oracle, and its cache."""

    def _grid(self):
        """(id, space, poset, omega): every labeled poset on up to 4 elements
        at q = 2 and on up to 3 at q = 3, unit blocks, and the 3-element ones
        with blocks (1, 2, 1) at q = 2 and (2, 2, 1) at q = 3, whose codes
        share classes; each with unit, doubling and random rational weights."""
        rng = random.Random(37)
        for n in (1, 2, 3, 4):
            for poset in _labeled_posets(n):
                shapes = [(2, (1,) * n)] + [(3, (1,) * n)] * (n <= 3)
                shapes += [(2, (1, 2, 1)), (3, (2, 2, 1))] * (n == 3)
                for q, dims in shapes:
                    space = AlphabetSpec(FieldSpec(q), poset.elements, dims)
                    weights = (ones(poset), powers_of_two_weight(poset),
                               random_rational_weights(poset, rng))
                    for w, omega in enumerate(weights):
                        case = f"{order_id(poset)}-q{q}-{''.join(map(str, dims))}-w{w}"
                        yield case, space, poset, omega

    def test_equals_the_per_call_oracle(self):
        compared, failed = 0, set()
        for case, space, poset, omega in self._grid():
            result = macwilliams_identity_check(space, poset, omega)
            assert result == macwilliams_identity_check_oracle(space, poset, omega), case
            compared += 1
            if not result.holds:
                failed.add((space.q, space.dims))
                assert all(code.space == space for code in result.witness), case
        assert compared == 3 * (242 + 23 + 2 * 19)
        # witnesses on every 3- and 4-label shape, the merging ones included
        assert failed == {(2, (1, 1, 1)), (2, (1, 1, 1, 1)), (3, (1, 1, 1)), (2, (1, 2, 1)),
                          (3, (2, 2, 1))}

    def test_alternating_shapes_evict_and_rebuild(self):
        """More shapes than the cache keeps, in turn, so each is rebuilt."""
        cases = [(AlphabetSpec(FieldSpec(q), MIXED.elements, dims), omega)
                 for q, dims in [(2, (1, 1, 1)), (2, (1, 2, 1)), (3, (1, 1, 1)), (2, (2, 1, 1)),
                                 (2, (1, 1, 2)), (3, (1, 2, 1))]
                 for omega in (ones(MIXED), WeightFunction.from_map({"a": 2, "b": 1, "c": 1}))]
        shapes = len(cases) // 2
        assert shapes > fourier.CACHED_SHAPES
        fourier._code_classes.cache_clear()
        for _ in range(2):
            for space, omega in cases:
                expected = macwilliams_identity_check_oracle(space, MIXED, omega)
                assert macwilliams_identity_check(space, MIXED, omega) == expected
        info = fourier._code_classes.cache_info()
        # least recently used: each shape is gone before its turn comes again
        assert info.misses == info.hits == 2 * shapes
        assert info.currsize == fourier.CACHED_SHAPES

    def test_one_table_for_spaces_of_one_shape(self, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return enumerate_codes(*args, **kwargs)

        monkeypatch.setattr(fourier, "enumerate_codes", counted)
        fourier._code_classes.cache_clear()
        relabeled = Poset.from_covers(("x", "y", "z"), [("x", "y")])
        results = []
        for poset in (MIXED, relabeled):
            space = AlphabetSpec(F3, poset.elements, (2, 2, 1))
            result = macwilliams_identity_check(space, poset, ones(poset))
            assert not result.holds
            # the witness codes live on the space asked about, not the table's
            assert [code.space for code in result.witness] == [space, space]
            results.append([code.basis for code in result.witness])
        assert len(built) == 1
        assert results[0] == results[1]

    def test_cache_bound_is_a_fixed_constant(self):
        assert fourier._code_classes.cache_info().maxsize == fourier.CACHED_SHAPES == 4


class TestAudit:
    def test_code_bound_is_checked_before_the_first_statement(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a statement ran")

        monkeypatch.setattr(fourier, "mep_brute_force", unreachable)
        chain = Poset.chain(tuple("abcdefgh"))
        space = AlphabetSpec.uniform(F2, chain.elements, 1)
        with pytest.raises(BoundExceeded, match="^F_2\\^8 has 417199 subspaces"):
            coding_property_audit(space, chain, ones(chain))

    def test_primal_dual_partition_is_taken_once(self, monkeypatch):
        # one dual for the match, one more for the double dual of reflexivity
        calls = []

        def counted(space, partition):
            calls.append(partition)
            return dual_partition(space, partition)

        monkeypatch.setattr(fourier, "dual_partition", counted)
        audit = coding_property_audit(SP3, MIXED, ones(MIXED))
        assert len(calls) == 2
        assert calls[0] == weight_partition(SP3, MIXED, ones(MIXED))
        assert not audit.statements["fourier_reflexive"]

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
