"""Exception types shared across the package."""


def count_text(count: int) -> str:
    """A count as bound messages name it: in digits below 2^64, past that by
    its bit length, since a str of over 4300 digits raises ValueError."""
    return str(count) if count < 1 << 64 else f"at least 2^{count.bit_length() - 1}"


# q^e is at least 2^((q.bit_length() - 1) * e) for q >= 2, so a power whose
# exponent passes a bound's bit length is known to pass the bound without
# being formed: a block dimension of 10^12 would ask for a 10^12-bit int.
def power_over(q: int, e: int, bound: int) -> bool:
    """Whether q^e > bound, for q >= 2; q^e is formed only when it has under
    twice as many bits as the bound."""
    return (q.bit_length() - 1) * e >= bound.bit_length() or q**e > bound


def power_text(q: int, e: int) -> str:
    """q^e (q >= 2) as count_text names it; past 2^64 by the power of two it
    reaches, without forming q^e."""
    low = (q.bit_length() - 1) * e
    return count_text(q**e) if low < 64 else f"at least 2^{low}"


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
    command sets that bound (`--bound`), `audit` uses `mep.MAP_BOUND`."""


class PropertyViolation(PosetMetricsError):
    """An internal replay or cross-check failed; indicates a bug, not bad input."""


class PredicateUnavailable(PosetMetricsError):
    """No closed-form verdict covers this input; brute force is the only route."""


class AllSolutionsTrivial(PosetMetricsError):
    """The lattice admits no nontrivial indicator-equation solutions."""
