"""The acceptance grid, one test per criterion, each printing its line."""

from types import SimpleNamespace

import pytest

from posetmetrics import isometries, mep
from posetmetrics.acceptance import CRITERIA, criterion_isometry_group_structure, run_acceptance
from posetmetrics.posets import Poset

from helpers import criterion_four_oracle, invert_perm


@pytest.mark.parametrize("key,title,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(key, title, fn):
    [result] = run_acceptance(keys=[key])
    print(result.line())
    assert result.passed, f"criterion {key} failed: {result.details}"


class TestGroupStructureCriterion:
    def test_reads_the_action_table_and_builds_no_space_index(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a SpaceIndex was built")

        monkeypatch.setattr(mep, "SpaceIndex", unreachable)
        passed, details = criterion_isometry_group_structure()
        assert passed, details

    def test_the_sampled_oracle_passes_with_it(self):
        # the sampled multiplicativity check it replaced, on the same grid
        oracle = criterion_four_oracle()
        assert oracle[0] and criterion_isometry_group_structure() == oracle

    def test_label_maps_reported_inverted_fail_both_versions(self, monkeypatch):
        # on the 3-antichain lam -> lam^-1 keeps the image and the kernel, but
        # the 3-cycles are not involutions: an anti-homomorphism of S_3
        weight_isometry_group = isometries.weight_isometry_group

        def inverted(space, poset, omega, bound=isometries.GROUP_BOUND):
            group = weight_isometry_group(space, poset, omega, bound)
            if poset != Poset.antichain(("a", "b", "c")):
                return group
            return [
                SimpleNamespace(matrix=iso.matrix, lam=invert_perm(iso.lam), apply=iso.apply)
                for iso in group
            ]

        monkeypatch.setattr(isometries, "weight_isometry_group", inverted)
        passed, details = criterion_isometry_group_structure()
        assert (passed, details) == (False, "label map disagrees with the action on closures")
        assert criterion_four_oracle() == (False, "label map is not multiplicative")

    def test_a_singular_element_fails_both_versions(self, monkeypatch):
        # a singular "isometry" has no permutation in the table of GL_N, so
        # the group comparison fails instead of raising
        weight_isometry_group = isometries.weight_isometry_group

        def with_a_singular_element(space, poset, omega, bound=isometries.GROUP_BOUND):
            n = space.total_dim
            identity = tuple(range(len(poset.elements)))
            singular = SimpleNamespace(matrix=((0,) * n,) * n, lam=identity)
            return [*weight_isometry_group(space, poset, omega, bound), singular]

        monkeypatch.setattr(isometries, "weight_isometry_group", with_a_singular_element)
        for criterion in (criterion_isometry_group_structure, criterion_four_oracle):
            passed, details = criterion()
            assert not passed and details.startswith("group mismatch q=2 dims=(1,)"), details
