"""The four benchmark workloads: seeded plain inputs, cases, checks, digests.

Every workload is a list of cases built from a seed.  A case holds only plain
data (labels, cover lists, weight strings, dims, member lists, instance
JSON); it turns that data into package objects through public constructors
and calls, so all of that is timed work.  Each case checks invariants that
hold for any seed and returns (outcome, digest): outcome is "ok" or
"refused" (a documented resource bound fired where it is expected to), and
the digest covers the verdict and witness, or the CLI report digest.

Run as a script, this module executes one pass of one workload in the
current (fresh) interpreter and prints a JSON summary as its last line:

    python bench/workloads.py --workload mep_grid --seed 1 [--trace DIR]
    python bench/workloads.py --workload mep_grid --seed 1 --setup-only
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
INSTANCES = ROOT / "instances"
EXPECTED_DIR = BENCH_DIR / "expected"
OUT_DIR = BENCH_DIR / "out"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))  # the package under test is the checkout's, never an installed one

WORKLOADS = ("mep_grid", "lattice_moebius", "structure_census", "cli_session")
LABELS = ("a", "b", "c", "d", "e")
POSET_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}
RATIONALS = ("1/2", "1", "3/2", "2", "3")
CLI_COMMANDS = (
    ("poset",),
    ("isometries", "--brute-force"),
    ("mep", "--brute-force"),
    ("mep", "--mode", "psupport"),
    ("macwilliams",),
    ("audit",),
)
README_LATTICE_COMMANDS = (
    ("lattice", "subspace", "3", "2"),
    ("lattice", "subspace", "2", "3", "--module-rank", "2"),
    ("lattice", "boolean", "3"),
)
BRUTE_FORCE_MATRIX_BOUND = 1 << 18  # brute_force_isometries' default scan bound
CLI_TIMEOUT_S = 120
# run.py puts its time.perf_counter() at launch here (a system-wide clock on
# Linux), so a pass can tell how long its interpreter took to start
LAUNCH_ENV = "BENCH_LAUNCHED_AT"


class CheckFailed(Exception):
    """A case broke an invariant or returned something it must not."""


def digest_of(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- plain inputs ----------------------------------------------------------------


def labeled_posets(n: int) -> list[tuple[tuple[str, ...], list[list[str]]]]:
    """Every labeled poset on the first n labels, as (elements, cover pairs).

    Built by adding one label at a time: the new element sits above a down-set
    D and below an up-set U of the smaller poset, with every member of D below
    every member of U.
    """
    relations = [frozenset()]  # strict pairs (i, j) meaning i < j
    for m in range(n):
        grown = []
        for rel in relations:
            subsets = [
                frozenset(i for i in range(m) if mask >> i & 1) for mask in range(1 << m)
            ]
            downs = [s for s in subsets if all(i in s for (i, j) in rel if j in s)]
            ups = [s for s in subsets if all(j in s for (i, j) in rel if i in s)]
            for down in downs:
                for up in ups:
                    if down & up or any((d, u) not in rel for d in down for u in up):
                        continue
                    grown.append(rel | {(d, m) for d in down} | {(m, u) for u in up})
        relations = grown
    if len(relations) != POSET_COUNTS[n]:
        raise RuntimeError(f"{len(relations)} labeled posets on {n} labels, wanted {POSET_COUNTS[n]}")
    out = []
    for rel in relations:
        covers = sorted(
            (i, j) for (i, j) in rel if not any((i, k) in rel and (k, j) in rel for k in range(n))
        )
        out.append((LABELS[:n], [[LABELS[i], LABELS[j]] for i, j in covers]))
    return out


def _weights(elements, kind: str, rng: random.Random) -> dict[str, str]:
    if kind == "unit":
        return {e: "1" for e in elements}
    if kind == "doubling":
        return {e: str(2**t) for t, e in enumerate(elements)}
    return {e: rng.choice(RATIONALS) for e in elements}


class Case:
    __slots__ = ("part", "key", "run", "data")

    def __init__(self, part: str, run, data: dict):
        self.part = part
        self.run = run
        self.data = data
        self.key = digest_of([part, data])


# -- mep_grid -------------------------------------------------------------------


def _space_objects(pm, data):
    poset = pm.Poset.from_covers(data["elements"], [tuple(c) for c in data["covers"]])
    omega = pm.WeightFunction.from_map({e: data["omega"][e] for e in poset.elements})
    dims = tuple(data["dims"][e] for e in poset.elements)
    space = pm.AlphabetSpec(pm.FieldSpec(data["q"]), poset.elements, dims)
    return space, poset, omega


def _verdict_payload(verdict) -> dict:
    counterexample = None
    if verdict.counterexample is not None:
        code, images = verdict.counterexample
        counterexample = [[list(r) for r in code.basis], [list(v) for v in images]]
    return {"holds": verdict.holds, "complete": verdict.complete, "counterexample": counterexample}


def run_mep_case(pm, data):
    space, poset, omega = _space_objects(pm, data)
    try:
        verdict = pm.mep_brute_force(space, poset, omega, max_dim=data["max_dim"])
    except pm.BoundExceeded:
        check(data["refusal_expected"], "unexpected BoundExceeded")
        return "refused", digest_of({"refused": "BoundExceeded"})
    try:
        closed = pm.mep_predicate(space, poset, omega)
    except pm.PredicateUnavailable:
        closed = None
    if closed is not None and verdict.complete:
        check(verdict.holds == closed.holds, "brute force disagrees with the closed form")
    if verdict.counterexample is None:
        check(verdict.holds, "negative verdict without a counterexample")
    else:
        check(not verdict.holds, "positive verdict with a counterexample")
        code, images = verdict.counterexample
        check(pm.preserves_weight(space, poset, omega, code, images),
              "counterexample does not preserve weight")
        check(pm.extend_to_isometry(space, poset, omega, code, images) is None,
              "counterexample extends to an isometry")
    return "ok", digest_of(_verdict_payload(verdict))


def mep_grid_cases(seed: int, limit=None) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    grid = labeled_posets(4)[:limit]
    for kind in ("unit", "doubling", "rational"):
        for elements, covers in grid:
            data = {
                "q": 2, "elements": elements, "covers": covers,
                "omega": _weights(elements, kind, rng), "dims": {e: 1 for e in elements},
                "max_dim": None, "refusal_expected": False,
            }
            cases.append(Case(f"grid-{kind}", run_mep_case, data))
    chain5 = [[LABELS[t], LABELS[t + 1]] for t in range(4)]
    chain4 = chain5[:3]
    large = [
        # complete scan up to dimension 3, |G| = 1024
        (LABELS, chain5, {e: 1 for e in LABELS}, 3, False),
        # 2-dimensional top block, |G| = 3072
        (LABELS[:4], chain4, {"a": 1, "b": 1, "c": 1, "d": 2}, 2, False),
        # three planes on an antichain: the sharp-threshold counterexample
        (LABELS[:3], [], {e: 2 for e in LABELS[:3]}, 3, False),
        # default bounds: scans, then refuses at dimension 4
        (LABELS, chain5, {e: 1 for e in LABELS}, None, True),
    ]
    if limit is not None:
        large = large[2:3]
    for elements, covers, dims, max_dim, refused in large:
        data = {
            "q": 2, "elements": elements, "covers": covers,
            "omega": {e: "1" for e in elements}, "dims": dims,
            "max_dim": max_dim, "refusal_expected": refused,
        }
        cases.append(Case("large", run_mep_case, data))
    return cases


# -- lattice_moebius ------------------------------------------------------------


# Random families: random subsets of a fixed ground set are added one at a
# time, each with its intersections with the members so far (which keeps the
# family intersection-closed), until the family has a set number of members.
# Criterion 9 uses 1-5 points; these are larger, so a family is a case of
# about ten milliseconds rather than one the size of timer noise.  The
# families are drawn once from a fixed generator and the seed relabels their
# points: the inputs change with the seed, but the cost of a family depends
# on its shape, so the seed does not move the latency percentiles.
FAMILY_POINTS = 11
FAMILY_MEMBERS = (150, 170)
FAMILY_DRAW = 20260808


def random_intersection_family(rng: random.Random) -> list[frozenset]:
    ground = range(FAMILY_POINTS)
    members = {frozenset(ground)}
    while len(members) < FAMILY_MEMBERS[0]:
        subset = frozenset(x for x in ground if rng.random() < 0.7)
        grown = members | {subset & m for m in members}
        if len(grown) <= FAMILY_MEMBERS[1]:
            members = grown
    return sorted(members, key=sorted)


def _identity_payload(pm, lattice) -> list:
    rows = []
    for t, member in enumerate(lattice.members):
        identity_ok, split_ok, generators = pm.moebius_indicator_identity(lattice, member)
        check(identity_ok, f"indicator identity fails at member {t}")
        check(split_ok, f"positive/negative split fails at member {t}")
        rows.append([t, len(generators)])
    return rows


def run_family_case(pm, data):
    lattice = pm.FiniteLattice.from_sets(data["ground"], data["members"])
    return "ok", digest_of(_identity_payload(pm, lattice))


def run_subspace_case(pm, data):
    q, k = data["q"], data["k"]
    lattice = pm.subspace_lattice(q, k)
    payload = {"identity": _identity_payload(pm, lattice)}
    if lattice.non_point_closures():
        length, top, solution = pm.minimal_nontrivial_solution(lattice)
        check(pm.is_solution(solution) and not pm.is_trivial(solution),
              "minimal solution is not a nontrivial solution")
        check(length == q + 1, f"minimal length {length} != q + 1")
        if data["module_check"]:
            check(pm.matrix_module_min_length(q, 1, k) == length,
                  "minimal length disagrees with the module threshold")
        index = {m: t for t, m in enumerate(lattice.members)}
        payload["minimal"] = [
            length, index[top],
            sorted(index[s] for s in solution.left), sorted(index[s] for s in solution.right),
        ]
    else:
        check(k == 1, "a subspace lattice of dimension >= 2 has a non-point-generated member")
    return "ok", digest_of(payload)


# Subspace lattices up to 81 points get the module-threshold cross-check only
# up to this many points; matrix_module_min_length rebuilds the lattice, and
# on F_2^6 that doubles the workload without exercising anything new.
MODULE_CHECK_POINTS = 32
LATTICE_FAMILIES = 68


def lattice_moebius_cases(seed: int, limit=None) -> list[Case]:
    rng = random.Random(seed)
    draw = random.Random(FAMILY_DRAW)
    cases = []
    for _ in range(LATTICE_FAMILIES if limit is None else limit):
        family = random_intersection_family(draw)
        label = rng.sample(range(FAMILY_POINTS), FAMILY_POINTS)
        members = sorted(sorted(label[x] for x in m) for m in family)
        data = {"ground": list(range(FAMILY_POINTS)), "members": members}
        cases.append(Case("family", run_family_case, data))
    subspaces = []
    for q in (2, 3, 5, 7, 11, 13):
        k = 1
        while q ** (k + 1) <= 81:
            k += 1
        subspaces += [(q, kk) for kk in range(1, k + 1)]
    subspaces += [(p, 1) for p in (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79)]
    if limit is not None:
        subspaces = [(2, 1), (2, 2), (3, 2)]
    # smallest dimension first: the interleaved run order then puts F_2^6,
    # whose cached tables make up most of the heap, after nearly every family,
    # so the families' latencies do not split into a before and an after cluster
    subspaces.sort(key=lambda qk: (qk[1], qk[0]))
    for q, k in subspaces:
        data = {"q": q, "k": k, "module_check": k >= 2 and q**k <= MODULE_CHECK_POINTS}
        cases.append(Case("subspace", run_subspace_case, data))
    return cases


# -- structure_census -----------------------------------------------------------


def run_group_case(pm, data):
    space, poset, omega = _space_objects(pm, data)
    q = space.q
    structured = pm.weight_isometry_group(space, poset, omega)
    struct_set = {iso.matrix for iso in structured}
    brute = set(pm.brute_force_isometries(space, poset, pm.weight_sum_functional(poset, omega)))
    check(struct_set == brute, "structured group differs from the brute-force group")
    to_lam = {iso.matrix: iso.lam for iso in structured}
    admissible = set(pm.isometries.weight_automorphisms(poset, space, omega))
    check({iso.lam for iso in structured} == admissible, "label-map image mismatch")
    identity = tuple(range(len(poset.elements)))
    kernel = {m for m, lam in to_lam.items() if lam == identity}
    support = {iso.matrix for iso in pm.support_isometry_group(space, poset)}
    check(kernel == support, "kernel differs from the support group")
    check(len(struct_set) == len(support) * len(admissible), "order != kernel * image")
    sample = structured if len(structured) <= 120 else structured[:60]
    for a in sample:
        inverse = pm.fields.mat_inv(q, a.matrix)
        check(to_lam.get(inverse) == tuple(sorted(range(len(a.lam)), key=a.lam.__getitem__)),
              "label map of an inverse disagrees")
        for b in sample:
            product = pm.fields.mat_mul(q, a.matrix, b.matrix)
            check(to_lam.get(product) == tuple(a.lam[i] for i in b.lam),
                  "label map is not multiplicative")
    return "ok", digest_of([len(struct_set), len(support), sorted(admissible),
                            digest_of(sorted(struct_set))])


def run_udp_case(pm, data):
    poset = pm.Poset.from_covers(data["elements"], [tuple(c) for c in data["covers"]])
    holds, witness = pm.udp_check(poset, pm.WeightFunction.ones(poset.elements))
    hierarchical = poset.is_hierarchical
    check(holds == hierarchical, "unique decomposition differs from hierarchy")
    return "ok", digest_of([holds, None if witness is None else [sorted(w) for w in witness]])


def run_fourier_case(pm, data):
    space, poset, omega = _space_objects(pm, data)
    primal = pm.weight_partition(space, poset, omega)
    reversed_order = pm.weight_partition(space, poset.dual(), omega)
    dual_match = pm.dual_partition(space, primal) == reversed_order
    identity = pm.macwilliams_identity_check(space, poset, omega)
    reflexive = pm.is_fourier_reflexive(space, primal)
    udp, _ = pm.udp_check(poset, omega)
    # the audit's implication web; with unit weights and unit blocks the
    # middle statements (UDP, partition match, identity, reflexivity) agree
    check(not udp or dual_match, "udp_matched_dims => dual_partition_match fails")
    check(dual_match == identity.holds, "dual_partition_match <=> macwilliams_identity fails")
    check(not identity.holds or reflexive, "macwilliams_identity => fourier_reflexive fails")
    check(udp == dual_match == identity.holds == reflexive, "middle statements disagree")
    check(primal.block_count == reversed_order.block_count, "block counts differ")
    witness = None
    if identity.witness is not None:
        witness = [[list(r) for r in code.basis] for code in identity.witness]
    return "ok", digest_of([primal.block_count, dual_match, identity.holds, reflexive, witness])


def _group_shapes():
    """The criterion-4 grid of (elements, covers, dims) shapes."""
    shapes = [(("a",), [], (k,)) for k in (1, 2, 3)]
    for make in ("chain", "antichain"):
        for dims in ((1, 1), (1, 2), (2, 1)):
            shapes.append((("a", "b"), [["a", "b"]] if make == "chain" else [], dims))
        shapes.append((("a", "b", "c"), [["a", "b"], ["b", "c"]] if make == "chain" else [], (1, 1, 1)))
    shapes.append((("a", "b", "c"), [["a", "b"], ["a", "c"]], (1, 1, 1)))
    shapes.append((("a", "b", "c"), [["a", "c"], ["b", "c"]], (1, 1, 1)))
    return shapes


def structure_census_cases(seed: int, limit=None) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    groups = []
    for q in (2, 3):
        for elements, covers, dims in _group_shapes():
            for kind in ("unit", "doubling", "rational"):
                groups.append({
                    "q": q, "elements": elements, "covers": covers,
                    "omega": _weights(elements, kind, rng), "dims": dict(zip(elements, dims)),
                })
    cases += [Case("groups", run_group_case, data) for data in groups[:limit]]
    posets = [p for n in range(1, 6) for p in labeled_posets(n)]
    cases += [
        Case("udp", run_udp_case, {"elements": e, "covers": c}) for e, c in posets[:limit]
    ]
    for elements, covers in labeled_posets(4)[:limit]:
        data = {
            "q": 2, "elements": elements, "covers": covers,
            "omega": {e: "1" for e in elements}, "dims": {e: 1 for e in elements},
        }
        cases.append(Case("fourier", run_fourier_case, data))
    return cases


# -- cli_session ------------------------------------------------------------------


class CliContext:
    """State shared by the CLI cases of one pass: where instances live, how to launch.

    With `probe`, each command runs under cli_probe.py, which samples the
    CPU's speed in the child; probe_result() reads what it wrote.
    """

    def __init__(self, workdir: Path, trace_dir=None, probe=False):
        self.workdir = workdir
        self.trace_dir = trace_dir
        self.probe_out = workdir / "probe.json" if probe else None
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        self.launches = 0

    def probe_result(self):
        """(seconds the probe added, mean speed) of the last command; (0, None) if none ran."""
        try:
            record = json.loads(self.probe_out.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return 0.0, None
        self.probe_out.unlink()
        return record["added_s"], record["speed"]

    def argv(self, args):
        if self.probe_out is not None:
            return [sys.executable, str(BENCH_DIR / "cli_probe.py"), str(self.probe_out), *args]
        if self.trace_dir is None:
            return [sys.executable, "-m", "posetmetrics.cli", *args]
        self.launches += 1
        spans = self.trace_dir / f"cli-{self.launches}.json"
        return [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans),
                repr(time.perf_counter()), *args]


# (q, dims) of the generated CLI instances, one per instance.  A fixed mix
# keeps every seed about equally expensive: an F_2^4 or F_3^3 ambient space
# makes `isometries --brute-force` scan GL_4(F_2) or GL_3(F_3), which takes
# 10 to 25 times as long as a whole command on F_2^3.
CLI_SHAPES = ((2, (1, 1, 1)),) * 9 + ((3, (1, 1, 1)),) * 3 + ((2, (1, 2, 1)),)
# The posets and weights of the generated instances are drawn once from a
# fixed generator, and the seed relabels their elements, as for the lattice
# families: the inputs change with the seed, but what a command costs
# depends on the instance's shape and weights, and those do not.  Drawing
# them from the seed moved the slowest tenth of commands by 20% from seed
# to seed.
CLI_DRAW = 20261017


def _generated_instances(rng: random.Random) -> list[dict]:
    """Seeded 3-element instances over CLI_SHAPES, with mixed weights."""
    draw = random.Random(CLI_DRAW)
    posets = labeled_posets(3)
    out = []
    for q, dims in CLI_SHAPES:
        elements, covers = draw.choice(posets)
        omega = {e: draw.choice(RATIONALS) for e in elements}
        name = dict(zip(elements, rng.sample(elements, len(elements))))
        out.append({
            "q": q,
            "poset": {"elements": list(elements), "covers": [[name[a], name[b]] for a, b in covers]},
            "omega": {name[e]: w for e, w in omega.items()},
            "dims": {name[e]: d for e, d in zip(elements, dims)},
        })
    return out


def _check_cli_report(args, report: dict) -> None:
    command, results = args[0], report["results"]
    if command == "isometries":
        check(results["order_splits"], "isometries: order != kernel * image")
        check(results.get("oracle_agrees", True), "isometries: structured group differs from brute force")
    elif command == "mep":
        if "brute_force" in results:
            check(results.get("agreement", True), "mep: brute force disagrees with the closed form")
            holds = results["brute_force"]["holds"]
            check(holds == ("counterexample" not in report["witnesses"]), "mep: witness/verdict mismatch")
        if results["mode"] == "psupport":
            check(results["predicate"]["holds"], "mep: support-closure predicate must hold")
    elif command == "audit":
        check(results["consistent"], "audit: implication web broken")
    elif command == "lattice" and args[1] == "subspace":
        q, k = int(args[2]), int(args[3])
        if k >= 2:
            check(results["minimal_nontrivial_length"] == q + 1, "lattice: minimal length != q + 1")
        if "module_threshold" in results:
            rank = int(args[args.index("--module-rank") + 1])
            product = 1
            for i in range(1, rank + 1):
                product *= q**i + 1
            check(results["module_threshold"] == product, "lattice: module threshold != product formula")


def run_cli_case(pm, data, ctx: CliContext):
    args = list(data["args"])
    if "instance" in data:
        args += ["--instance", str(ctx.workdir / data["instance"])]
    completed = subprocess.run(
        ctx.argv(args + ["--json"]), cwd=ROOT, env=ctx.env,
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    if data["refusal_expected"]:
        check(completed.returncode == 3, f"expected exit 3, got {completed.returncode}")
        return "refused", digest_of({"exit": 3})
    check(completed.returncode == 0,
          f"exit {completed.returncode}: {completed.stderr.strip()[-200:]}")
    report = json.loads(completed.stdout)
    _check_cli_report(args, report)
    return "ok", report["report_digest"][:16]


def cli_session_cases(seed: int, limit=None):
    """Cases plus the instance documents they need written to disk."""
    rng = random.Random(seed)
    documents = {}
    for path in sorted(INSTANCES.glob("*.json")):
        documents[path.name] = json.loads(path.read_text(encoding="utf-8"))
    for t, doc in enumerate(_generated_instances(rng)):
        documents[f"generated{t:02d}.json"] = doc
    if limit is not None:
        documents = {"chain3.json": documents["chain3.json"]}
    cases = []
    for name, doc in documents.items():
        n = sum(doc.get("dims", {}).values()) or len(doc["poset"]["elements"])
        for args in CLI_COMMANDS[: (2 if limit is not None else None)]:
            refused = args[-1] == "--brute-force" and args[0] == "isometries" and (
                doc["q"] ** (n * n) > BRUTE_FORCE_MATRIX_BOUND
            )
            data = {"args": args, "instance": name, "doc": doc, "refusal_expected": refused}
            cases.append(Case("command", run_cli_case, data))
    for args in README_LATTICE_COMMANDS[-1 if limit is not None else 0:]:
        cases.append(Case("command", run_cli_case, {"args": args, "refusal_expected": False}))
    return cases, documents


# -- one pass -----------------------------------------------------------------------


def interleave(cases: list[Case]) -> list[Case]:
    """Spread the parts of a workload evenly over the pass, in a fixed pattern.

    Short and long cases of every part then share the whole pass, so the
    latency percentiles do not sample one stretch of time; and the pattern
    does not depend on the seed, so neither does the heap a case runs in.
    """
    parts: dict[str, list[Case]] = {}
    for case in cases:
        parts.setdefault(case.part, []).append(case)
    keyed = [
        ((i + 0.5) / len(members), rank, case)
        for rank, members in enumerate(parts.values())
        for i, case in enumerate(members)
    ]
    return [case for _pos, _rank, case in sorted(keyed, key=lambda t: t[:2])]


def build_cases(workload: str, seed: int, limit=None):
    """(cases in run order, instance documents to write) of one workload."""
    documents = {}
    if workload == "mep_grid":
        cases = mep_grid_cases(seed, limit)
    elif workload == "lattice_moebius":
        cases = lattice_moebius_cases(seed, limit)
    elif workload == "structure_census":
        cases = structure_census_cases(seed, limit)
    elif workload == "cli_session":
        cases, documents = cli_session_cases(seed, limit)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return interleave(cases), documents


def load_expected(workload: str) -> dict:
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.exists():
        return {"seeds": [], "digests": {}}
    return json.loads(path.read_text(encoding="utf-8"))


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_pass(workload: str, seed: int, limit=None, expected=None, trace_dir=None,
             setup_only=False) -> dict:
    """Set up and run one pass in this interpreter; returns its summary.

    `expected` maps case keys to accepted digests; for a recorded seed every
    case must be in it.  With `trace_dir`, the package is traced (in the
    CLI children for cli_session) and the spans are written there.

    Untraced, the pass also samples the CPU's speed (speed.py), in this
    process or, for a CLI case, in the child (cli_probe.py): setup_s and
    latencies_ms are adjusted to the reference speed; setup_raw_s, wall_s
    and raw_latencies_ms are as measured, less the probe's own time.
    """
    probe = None if trace_dir is not None else speed.SpeedProbe()
    if probe is not None:
        probe.burst()
    start = time.perf_counter()
    import posetmetrics as pm  # set-up is this import plus input generation
    import posetmetrics.cli  # noqa: F401

    import_s = time.perf_counter() - start
    cases, documents = build_cases(workload, seed, limit)
    workdir = None
    if documents:
        workdir = OUT_DIR / f"instances-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        for name, doc in documents.items():
            (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    setup_end = time.perf_counter()
    setup_s = setup_end - start
    summary = {"workload": workload, "seed": seed, "setup_s": setup_s, "setup_raw_s": setup_s}
    if probe is not None:
        probe.burst()
        summary["setup_s"] = setup_s * probe.speed(start, setup_end)
    if setup_only:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
        return summary
    if expected is None:
        expected = load_expected(workload)
    recorded = seed in expected.get("seeds", [])
    table = expected.get("digests", {})
    ctx = None
    if workload == "cli_session":
        ctx = CliContext(workdir, trace_dir, probe=probe is not None)
    tracer = spans_file = None
    if trace_dir is not None:
        import tracing

        tracer = tracing.Tracer()
        if ctx is None:
            spans_file = tracing.open_spans(trace_dir / "spans.bin.gz")
            tracer.install()
    # per case: raw latency, its time window, and the CLI child's speed
    raw_latencies, windows, child_speeds, digests, failures = [], [], [], {}, []
    refused = 0
    covered_s = 0.0
    import_times = [import_s]
    launched_at = os.environ.get(LAUNCH_ENV)
    start_times = [start - float(launched_at) + import_s] if launched_at else [0.0]
    caches = {}
    sampling = probe is not None and ctx is None
    if sampling:
        probe.start()
    try:
        first = time.perf_counter()
        first_spent = probe.spent_s if sampling else 0.0
        child_added_s = 0.0
        for number, case in enumerate(cases):
            if tracer is not None:
                tracer.case[0] = number
            spent = probe.spent_s if sampling else 0.0
            t0 = time.perf_counter()
            try:
                args = (pm, case.data, ctx) if ctx is not None else (pm, case.data)
                outcome, digest = case.run(*args)
                accepted = table.get(case.key)
                if accepted is None:
                    if recorded:
                        raise CheckFailed("no expected digest recorded for this case")
                elif digest not in accepted:
                    raise CheckFailed(f"digest {digest} not in the expected {accepted}")
            except CheckFailed as exc:
                outcome, digest = "failed", None
                failures.append({"case": number, "part": case.part, "key": case.key, "error": str(exc)})
            except Exception as exc:  # a crash is a failed case, not a crashed benchmark
                outcome, digest = "failed", None
                failures.append({"case": number, "part": case.part, "key": case.key,
                                 "error": f"{type(exc).__name__}: {exc}"})
            t1 = time.perf_counter()
            added = probe.spent_s - spent if sampling else 0.0
            if ctx is not None and ctx.probe_out is not None:
                child_added, child_speed = ctx.probe_result()
                added += child_added
                child_added_s += child_added
                child_speeds.append(child_speed)
            raw_latencies.append(t1 - t0 - added)
            windows.append((t0, t1))
            digests[case.key] = digest
            refused += outcome == "refused"
            if spans_file is not None:
                covered_s += tracer.fold(spans_file)
            elif tracer is not None:
                child = json.loads((trace_dir / f"cli-{ctx.launches}.json").read_text())
                tracer.merge(child["totals"], child["codes_scanned"])
                covered_s += child["covered_s"]
                import_times.append(child["import_s"])
                start_times.append(child["start_s"])
                for metric, (hits, lookups) in child["caches"].items():
                    old = caches.get(metric, (0, 0))
                    caches[metric] = (old[0] + hits, old[1] + lookups)
        wall_s = time.perf_counter() - first
        if sampling:
            wall_s -= probe.spent_s - first_spent
        wall_s -= child_added_s
    finally:
        if sampling:
            probe.stop()
            probe.burst()  # the samples after the last case
        if spans_file is not None:
            tracer.uninstall()
            spans_file.close()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    latencies = raw_latencies
    if sampling:
        latencies = [x * probe.speed(*w) for x, w in zip(raw_latencies, windows)]
    elif child_speeds:
        latencies = [x * (s or 1.0) for x, s in zip(raw_latencies, child_speeds)]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    summary.update({
        "wall_s": wall_s,
        "cases": len(cases),
        "case_p50_ms": statistics.median(latencies) * 1000,
        "case_p90_ms": deciles[8] * 1000,
        "latencies_ms": [x * 1000 for x in latencies],
        "raw_latencies_ms": [x * 1000 for x in raw_latencies],
        "speed_samples": 0 if probe is None else len(probe.speeds),
        "peak_rss_mb": peak_rss_mb(workload),
        "failed": len(failures),
        "refused": refused,
        "failures": failures[:20],
        "digests": digests,
        "recorded_seed": recorded,
    })
    if tracer is not None:
        # cli_session reports its CLI children, the others this process
        if ctx is None:
            caches = tracing.cache_stats()
        else:
            import_times, start_times = import_times[1:], start_times[1:]
        totals = tracer.named_totals()
        unspanned_s = wall_s - covered_s
        metrics = tracing.layer_metrics(
            totals, caches, tracer.codes_scanned, statistics.median(import_times),
            statistics.median(start_times), unspanned_s,
        )
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        summary["trace"] = metrics
        # self times are durations minus child durations; summed over all
        # spans they must give back exactly the time top-level spans cover
        summary["trace_residual_s"] = layer_sum + unspanned_s - wall_s
        summary["trace_spans"] = sum(row[0] for row in totals.values())
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="directory for the traced pass's spans")
    args = parser.parse_args(argv)
    trace_dir = None
    if args.trace:
        trace_dir = Path(args.trace)
        trace_dir.mkdir(parents=True, exist_ok=True)
    summary = run_pass(args.workload, args.seed, trace_dir=trace_dir, setup_only=args.setup_only)
    print(json.dumps(summary, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
