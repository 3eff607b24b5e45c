"""Command-line front end: load an instance, run one verification, emit a report.

Exit codes: 0 the command ran (verdicts live in the report), 1 an internal
property or acceptance criterion failed, 2 invalid input or an unavailable
closed form, 3 a resource bound was exceeded, 4 an unexpected internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from itertools import islice
from typing import TYPE_CHECKING, Optional, Sequence

# Each command imports the engine modules it runs, so a command pays only
# for its own imports.  `acceptance` stays here: its module body imports no
# engine module.
from .acceptance import run_acceptance
from .errors import (
    AllSolutionsTrivial,
    BoundExceeded,
    GroupBoundExceeded,
    MapBoundExceeded,
    PredicateUnavailable,
    PropertyViolation,
    ValidationError,
)
from .reports import build_report, canonical_json, render_text

if TYPE_CHECKING:
    from .lattices import FiniteLattice


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report, code = args.handler(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except PredicateUnavailable as exc:
        print(f"predicate unavailable: {exc}", file=sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 3
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a bug, not a verdict: keep it apart from 1, which means a property failed
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    report["timing_ms"] = round((time.perf_counter() - start) * 1000, 3)
    try:
        print(json.dumps(report, indent=2) if args.json else render_text(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early; the command itself has finished.
        # Point the fd at devnull so the flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def _at_least_one(text: str) -> int:
    """argparse type of the size flags: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetmetrics",
        description="Desk-scale verification of weighted poset metric properties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument("--instance", required=True, help="path to an instance file")

    p = sub.add_parser("poset", help="ideals, levels, hierarchy, automorphisms, UDP")
    add_common(p)
    p.set_defaults(handler=cmd_poset)

    p = sub.add_parser("isometries", help="structured weight isometry group")
    add_common(p)
    p.add_argument("--brute-force", action="store_true", help="compare with the matrix scan")
    p.add_argument("--bound", type=_at_least_one, default=None,
                   help="group size bound (default: isometries.GROUP_BOUND)")
    p.set_defaults(handler=cmd_isometries)

    p = sub.add_parser("mep", help="extension property verdicts")
    add_common(p)
    p.add_argument("--mode", choices=("weight", "psupport"), default="weight")
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--max-dim", type=_at_least_one, default=None, help="cap the code dimension scanned")
    p.add_argument("--bound", type=_at_least_one, default=None,
                   help="candidate-map bound (default: mep.MAP_BOUND)")
    p.set_defaults(handler=cmd_mep)

    p = sub.add_parser("lattice", help="Moebius data and minimal solutions")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument(
        "spec",
        nargs="+",
        help="'subspace q k', 'boolean n', or 'file path.json' "
        "(json: {\"ground\": [...], \"members\": [[...], ...]})",
    )
    p.add_argument("--module-rank", type=int, default=None,
                   help="with 'subspace q k': matrix-ring rank for the module threshold")
    p.set_defaults(handler=cmd_lattice)

    p = sub.add_parser("macwilliams", help="duality identity check")
    add_common(p)
    p.set_defaults(handler=cmd_macwilliams)

    p = sub.add_parser("audit", help="seven-statement comparison audit")
    add_common(p)
    p.set_defaults(handler=cmd_audit)

    p = sub.add_parser("accept", help="run the acceptance grid")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--only", default=None, help="comma-separated criterion keys")
    p.add_argument("--max-elements", type=_at_least_one, default=None,
                   help="shrink the poset grids (criteria 1, 5, 8, 10)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the random family sampling in criterion 9")
    p.set_defaults(handler=cmd_accept)
    return parser


def cmd_poset(args) -> tuple[dict, int]:
    from .instances import load_instance
    from .posets import udp_check

    inst = load_instance(args.instance)
    poset, omega = inst.poset, inst.omega
    violation = poset.hierarchy_violation()
    autos = poset.automorphisms()
    udp_holds, udp_witness = udp_check(poset, omega)
    results = {
        "elements": list(poset.elements),
        "ideals": [sorted(i) for i in poset.all_ideals()],
        "levels": [sorted(w) for w in poset.level_sets()],
        "hierarchical": poset.is_hierarchical,
        "automorphism_count": len(autos),
        "udp": udp_holds,
    }
    witnesses = {}
    if violation:
        witnesses["hierarchy_violation"] = list(violation)
    if udp_witness:
        witnesses["udp_witness"] = [sorted(udp_witness[0]), sorted(udp_witness[1])]
    return build_report("poset", inst.digest, results, witnesses), 0


def cmd_isometries(args) -> tuple[dict, int]:
    from .instances import load_instance
    from .isometries import (
        GROUP_BOUND,
        admissible_lams,
        brute_force_isometries,
        check_action_table,
        enumerate_group,
        group_order,
        weight_sum_functional,
    )

    inst = load_instance(args.instance)
    space, poset = inst.space, inst.poset
    bound = GROUP_BOUND if args.bound is None else args.bound
    if args.brute_force:  # the oracle's refusal comes before the group is touched
        check_action_table(space)
    key = weight_sum_functional(poset, inst.omega)
    try:  # the orders are closed forms; the group is listed whole only for the oracle
        admissible = admissible_lams(space, poset, key, bound)
        order = group_order(space, poset, len(admissible))
        group = enumerate_group(space, poset, key, bound)
        if args.brute_force:
            group = list(group)
        sample = [iso.serialize() for iso in islice(group, 3)]
    except GroupBoundExceeded as exc:
        raise GroupBoundExceeded(f"{exc}; raise it with --bound") from None
    kernel_size = group_order(space, poset, 1)  # the doubling weights admit only the identity
    results = {
        "group_order": order,
        "label_map_image_size": len(admissible),
        "support_group_order": kernel_size,
        "order_splits": order == kernel_size * len(admissible),
        "sample": sample,
    }
    code, trace = 0, {}  # the oracle scan's work, outside the digest
    if args.brute_force:
        brute = brute_force_isometries(space, poset, key, trace.setdefault("brute_force", {}))
        agrees = {iso.matrix for iso in group} == set(brute)
        results["brute_force_order"] = len(brute)
        results["oracle_agrees"] = agrees
        if not agrees:
            code = 1
    return build_report("isometries", inst.digest, results, trace=trace or None), code


def cmd_mep(args) -> tuple[dict, int]:
    from .instances import load_instance
    from .mep import (
        MAP_BOUND, condition_report, mep_brute_force, mep_p_support_predicate, mep_predicate,
    )
    from .posets import powers_of_two_weight

    inst = load_instance(args.instance)
    space, poset, omega = inst.space, inst.poset, inst.omega
    bound = MAP_BOUND if args.bound is None else args.bound
    results: dict = {"mode": args.mode}
    witnesses: dict = {}
    trace: dict = {}  # the brute-force scan's work, outside the digest
    conditions = condition_report(space, poset, omega)
    results["conditions"] = {
        "blocks_pseudo_injective": conditions.blocks_pseudo_injective,
        "cross_injective": conditions.cross_injective,
        "common_nonzero_block": conditions.common_nonzero_block,
        "udp_matched_dims": conditions.udp_matched_dims,
        "level_matched_dims": conditions.level_matched_dims,
    }
    support = args.mode == "psupport"
    try:
        if support:
            predicate = mep_p_support_predicate(space, poset)
        else:  # on the report above, so mep_predicate builds none
            predicate = mep_predicate(space, poset, omega, conditions)
        results["predicate"] = {"holds": predicate.holds, "trace": predicate.predicate_trace}
    except PredicateUnavailable:
        if not args.brute_force:
            raise
        results["predicate"] = "unavailable"
        predicate = None
    if args.brute_force:  # without it, an unavailable predicate was raised above
        try:
            scanned = powers_of_two_weight(poset) if support else omega
            brute = mep_brute_force(space, poset, scanned, max_dim=args.max_dim, map_bound=bound,
                                    trace=trace.setdefault("brute_force", {}))
        except MapBoundExceeded as exc:
            raise MapBoundExceeded(f"{exc}; raise it with --bound") from None
        results["brute_force"] = {"holds": brute.holds, "complete": brute.complete}
        if brute.counterexample is not None:
            code, images = brute.counterexample
            witnesses["counterexample"] = {
                "code_basis": [list(r) for r in code.basis],
                "images": [list(v) for v in images],
            }
        if predicate is not None:
            results["agreement"] = brute.holds == predicate.holds or not brute.complete
    return build_report("mep", inst.digest, results, witnesses, trace=trace or None), 0


def cmd_lattice(args) -> tuple[dict, int]:
    from .lattices import minimal_nontrivial_solution, moebius

    lattice, results = _parse_lattice_spec(args)
    table = moebius(lattice)
    results["member_count"] = len(lattice.members)
    results["bottom"] = sorted(lattice.bottom(), key=repr)
    triples = sorted((i, j, v) for j, col in enumerate(table.columns) for i, v in zip(*col))
    results["moebius_digest"] = hashlib.sha256(canonical_json(triples).encode()).hexdigest()[:32]
    witnesses: dict = {}
    try:
        length, top, solution = minimal_nontrivial_solution(lattice)
        results["minimal_nontrivial_length"] = length
        witnesses["minimizing_member"] = sorted(top, key=repr)
        witnesses["solution"] = {
            "left": [sorted(s, key=repr) for s in solution.left],
            "right": [sorted(s, key=repr) for s in solution.right],
        }
    except AllSolutionsTrivial:
        results["minimal_nontrivial_length"] = None
        results["all_solutions_trivial"] = True
    return build_report("lattice", None, results, witnesses), 0


def _int_args(spec: Sequence[str], count: int, usage: str) -> list[int]:
    """The integer arguments after the spec kind, or the usage line as an error."""
    try:
        values = [int(token) for token in spec[1:]]
    except ValueError:
        values = None
    if values is None or len(values) != count:
        raise ValidationError(f"usage: {usage}")
    return values


def _parse_lattice_spec(args) -> tuple[FiniteLattice, dict]:
    from .lattices import (
        FiniteLattice,
        _module_min_length,
        pointed_boolean_lattice,
        subspace_lattice,
    )

    spec = args.spec
    kind = spec[0]
    if kind == "subspace":
        q, k = _int_args(spec, 2, "lattice subspace <q> <k>")
        lattice = subspace_lattice(q, k)
        results: dict = {"lattice": f"subspace q={q} k={k}"}
        if args.module_rank is not None:
            results["module_threshold"] = _module_min_length(lattice, q, args.module_rank, k)
        return lattice, results
    if kind == "boolean":
        (n,) = _int_args(spec, 1, "lattice boolean <n>")
        return pointed_boolean_lattice(n), {"lattice": f"pointed boolean n={n}"}
    if kind == "file":
        if len(spec) != 2:
            raise ValidationError("usage: lattice file <path>")
        try:
            with open(spec[1], encoding="utf-8") as handle:
                payload = json.load(handle)
            ground = [x if not isinstance(x, list) else tuple(x) for x in payload["ground"]]
            members = [
                [x if not isinstance(x, list) else tuple(x) for x in m]
                for m in payload["members"]
            ]
            lattice = FiniteLattice.from_sets(ground, members)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValidationError(f"bad lattice file: {exc}") from None
        return lattice, {"lattice": f"file {spec[1]}"}
    raise ValidationError(f"unknown lattice spec {kind!r}")


def cmd_macwilliams(args) -> tuple[dict, int]:
    from .fourier import macwilliams_identity_check
    from .instances import load_instance

    inst = load_instance(args.instance)
    trace: dict = {}  # the class table's work and times, outside the digest
    result = macwilliams_identity_check(inst.space, inst.poset, inst.omega, trace)
    results = {"identity_holds": result.holds}
    witnesses = {}
    if result.witness is not None:
        first, second = result.witness
        witnesses["code_pair"] = {
            "first_basis": [list(r) for r in first.basis],
            "second_basis": [list(r) for r in second.basis],
        }
    return build_report("macwilliams", inst.digest, results, witnesses, trace=trace), 0


def cmd_audit(args) -> tuple[dict, int]:
    from .fourier import coding_property_audit
    from .instances import load_instance

    inst = load_instance(args.instance)
    trace: dict = {}
    audit = coding_property_audit(inst.space, inst.poset, inst.omega, trace)
    results = {
        "statements": audit.statements,
        "hierarchical": audit.hierarchical,
        "integer_weights": audit.integer_weights,
        "block_counts_match": audit.block_counts_match,
        "consistent": audit.consistent,
        "implication_failures": list(audit.implication_failures),
    }
    return build_report("audit", inst.digest, results, trace=trace), 0 if audit.consistent else 1


def cmd_accept(args) -> tuple[dict, int]:
    keys = args.only.split(",") if args.only else None
    results = run_acceptance(keys=keys, max_elements=args.max_elements, seed=args.seed)
    for r in results:
        print(r.line(), file=sys.stderr)
    payload = {
        "criteria": [
            {
                "key": r.key,
                "title": r.title,
                "passed": r.passed,
                "details": r.details,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    # the times live under trace, outside the digest, so equal runs digest equally
    trace = {"elapsed_s": {r.key: round(r.elapsed_s, 2) for r in results}}
    return build_report("accept", None, payload, trace=trace), 0 if payload["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
