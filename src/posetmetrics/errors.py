"""Exception types shared across the package."""


def count_text(count: int) -> str:
    """A count as bound messages name it: in digits below 2^64, past that by
    its bit length, since a str of over 4300 digits raises ValueError."""
    return str(count) if count < 1 << 64 else f"at least 2^{count.bit_length() - 1}"


class PosetMetricsError(Exception):
    """Base class for all package errors."""


class ValidationError(PosetMetricsError):
    """Malformed input: bad instance data, unknown label, broken construction invariant."""


class BoundExceeded(PosetMetricsError):
    """An enumeration would exceed its configured resource bound."""


class GroupBoundExceeded(BoundExceeded):
    """An isometry group's order is over the group bound; only the `isometries`
    command sets that bound (`--bound`), the others use `isometries.GROUP_BOUND`."""


class MapBoundExceeded(BoundExceeded):
    """An MEP scan's candidate maps are over the map bound; only the `mep`
    command sets that bound (`--bound`), `audit` uses the default."""


class PropertyViolation(PosetMetricsError):
    """An internal replay or cross-check failed; indicates a bug, not bad input."""


class PredicateUnavailable(PosetMetricsError):
    """No closed-form verdict covers this input; brute force is the only route."""


class AllSolutionsTrivial(PosetMetricsError):
    """The lattice admits no nontrivial indicator-equation solutions."""
