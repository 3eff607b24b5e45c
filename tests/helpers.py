"""Small helpers shared by the test modules."""

from posetmetrics.posets import Perm, Poset


def apply_perm(poset: Poset, perm: Perm, subset) -> frozenset:
    """The image of a label set under an element permutation of the poset."""
    return frozenset(poset.elements[perm[poset.index(x)]] for x in subset)

