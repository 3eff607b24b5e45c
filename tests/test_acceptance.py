"""The acceptance grid, one test per criterion, each printing its line."""

import pytest

from posetmetrics import isometries, mep
from posetmetrics.acceptance import CRITERIA, criterion_isometry_group_structure, run_acceptance


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

    def test_a_matrix_outside_the_action_table_fails_instead_of_raising(self, monkeypatch):
        # a singular "isometry" in the support group has no permutation in the
        # table of GL_N, so the kernel comparison fails
        support_isometry_group = isometries.support_isometry_group

        def with_a_singular_element(space, poset):
            n = space.total_dim
            singular = type("Singular", (), {"matrix": ((0,) * n,) * n})()
            return [*support_isometry_group(space, poset), singular]

        monkeypatch.setattr(isometries, "support_isometry_group", with_a_singular_element)
        passed, details = criterion_isometry_group_structure()
        assert not passed and details.startswith("kernel mismatch"), details
