"""Weighted poset metrics over products of prime-field blocks.

Exact, desk-scale verification of the structure theory around these
metrics: isometry groups in structured form, the MacWilliams extension
property with brute-force and closed-form verdicts, the unique decomposition
property, Moebius/indicator machinery on intersection-closed families, and
duality properties (MacWilliams identity, Fourier-reflexive partitions).

The names below are exported lazily: the first access to `posetmetrics.X`
imports the module that defines X and binds X here, so later accesses are
plain attribute lookups and `import posetmetrics` costs no engine import.
"""

import importlib

# defining submodule -> the names the package exports from it
_EXPORTED_FROM = {
    "errors": (
        "AllSolutionsTrivial", "BoundExceeded", "PosetMetricsError", "PredicateUnavailable",
        "PropertyViolation", "ValidationError",
    ),
    "fourier": (
        "CyclotomicInteger", "Partition", "character_sum", "coding_property_audit",
        "dual_partition", "is_fourier_reflexive", "macwilliams_identity_check",
        "weight_partition",
    ),
    "instances": ("Instance", "instance_from_dict", "load_instance"),
    "isometries": (
        "Isometry", "brute_force_isometries", "build_isometry", "decompose", "enumerate_group",
        "support_isometry_group", "weight_isometry_group", "weight_sum_functional",
    ),
    "lattices": (
        "FiniteLattice", "Solution", "construct_minimal_solution",
        "hamming_extension_via_solutions", "is_solution", "is_trivial",
        "matrix_module_min_length", "minimal_nontrivial_length", "minimal_nontrivial_solution",
        "moebius", "moebius_indicator_identity", "pointed_boolean_lattice",
        "subgroup_indicator_equivalence", "subspace_lattice",
    ),
    "mep": (
        "ConditionReport", "MepVerdict", "canonical_decomposition", "condition_report",
        "extend_to_isometry", "level_class_bound", "mep_brute_force", "mep_p_support_predicate",
        "mep_predicate", "preserves_weight", "single_orbit_check",
    ),
    "posets": ("Poset", "WeightFunction", "all_posets_on", "powers_of_two_weight", "udp_check"),
    "spaces": (
        "AlphabetSpec", "FieldSpec", "LinearCode", "delta_code", "distance", "enumerate_codes",
        "gaussian_binomial", "p_support", "p_weight", "weight",
    ),
}
_EXPORTS = {name: module for module, names in _EXPORTED_FROM.items() for name in names}
_SUBMODULES = {*_EXPORTED_FROM, "acceptance", "cli", "fields", "reports"}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module behind an export or submodule name on first access."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later accesses skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
