"""Weighted poset metrics over products of prime-field blocks.

Exact, desk-scale verification of the structure theory around these
metrics: isometry groups in structured form, the MacWilliams extension
property with brute-force and closed-form verdicts, the unique decomposition
property, Moebius/indicator machinery on intersection-closed families, and
duality properties (MacWilliams identity, Fourier-reflexive partitions).
"""

from .errors import (
    AllSolutionsTrivial,
    BoundExceeded,
    PosetMetricsError,
    PredicateUnavailable,
    PropertyViolation,
    ValidationError,
)
from .fourier import (
    CyclotomicInteger,
    Partition,
    character_sum,
    coding_property_audit,
    dual_partition,
    is_fourier_reflexive,
    macwilliams_identity_check,
    weight_partition,
)
from .instances import Instance, instance_from_dict, load_instance
from .isometries import (
    Isometry,
    SupportFunctional,
    brute_force_isometries,
    build_isometry,
    check_support_functional,
    decompose,
    enumerate_group,
    p_support_functional,
    support_isometry_group,
    weight_isometry_group,
    weight_sum_functional,
)
from .lattices import (
    FiniteLattice,
    Solution,
    construct_minimal_solution,
    hamming_extension_via_solutions,
    is_solution,
    is_trivial,
    matrix_module_min_length,
    minimal_nontrivial_length,
    minimal_nontrivial_solution,
    moebius,
    moebius_indicator_identity,
    pointed_boolean_lattice,
    subgroup_indicator_equivalence,
    subspace_lattice,
)
from .mep import (
    ConditionReport,
    MepVerdict,
    canonical_decomposition,
    condition_report,
    extend_to_isometry,
    level_class_bound,
    mep_brute_force,
    mep_p_support_predicate,
    mep_predicate,
    preserves,
    preserves_weight,
    single_orbit_check,
)
from .posets import (
    Poset,
    WeightFunction,
    all_posets_on,
    powers_of_two_weight,
    udp_check,
)
from .spaces import (
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
    weight,
)

__version__ = "0.1.0"
