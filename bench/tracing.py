"""Spans around posetmetrics' public functions, installed from outside the package.

`Tracer.install()` replaces each traced function or method with a wrapper
that records one span per call: name, start, end, parent span and case id.
Module functions are replaced in every posetmetrics module that binds the
same object (including `from .x import y` bindings and the package's own
re-exports), so calls between modules are seen.  `Tracer.uninstall()` puts
every attribute back exactly as it was.

Generator functions get one span per resumption, so the time spent inside
the generator lands in its own span wherever it is consumed; the span's
count is 1 when the resumption yielded a value.

Spans live in flat arrays in memory.  `fold()` turns a case's spans into
per-name totals (calls, self time, counts) and appends them to a compact
binary file, so memory stays bounded by the largest case.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import struct
import time
from array import array
from typing import Callable, Optional

MODULES = (
    "posetmetrics",
    "posetmetrics.errors",
    "posetmetrics.fields",
    "posetmetrics.posets",
    "posetmetrics.spaces",
    "posetmetrics.isometries",
    "posetmetrics.mep",
    "posetmetrics.lattices",
    "posetmetrics.fourier",
    "posetmetrics.instances",
    "posetmetrics.reports",
    "posetmetrics.acceptance",
    "posetmetrics.cli",
)


def _len_members_squared(fn, args, result):
    return len(args[0].members) ** 2


def _vectors_indexed(fn, args, result):
    return len(args[0].vectors)


def _gl_order(fn, args, result):
    """Invertible matrices a brute-force isometry scan walks: |GL_N(F_q)|."""
    space = args[0]
    q, n = space.q, space.total_dim
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def _fresh_moebius_entries(fn, args, result):
    """Entries of a table computed by this call; a cache hit computes none."""
    info = getattr(fn, "cache_info", None)
    if info is None:
        return len(result.entries)
    misses = info().misses
    fresh = misses > _fresh_moebius_entries.misses
    _fresh_moebius_entries.misses = misses
    return len(result.entries) if fresh else 0


_fresh_moebius_entries.misses = 0


# (module, attribute path, span name, count function or None).  The layer of
# a span is the first component of its name.  Besides the functions the
# per-layer metrics name, the list covers the other public entry points the
# workloads reach, so their time is charged to the module that spends it.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("fields", "rref", "fields.rref", None),
    ("fields", "mat_vec", "fields.mat_vec", None),
    ("fields", "mat_mul", "fields.mat_mul", None),
    ("fields", "mat_inv", "fields.mat_inv", None),
    ("fields", "nullspace", "fields.nullspace", None),
    ("fields", "invertible_matrices", "fields.invertible_matrices", None),
    ("posets", "Poset.__init__", "posets.Poset", None),
    ("posets", "Poset.from_covers", "posets.Poset.from_covers", None),
    ("posets", "Poset.ideal_closure", "posets.ideal_closure", None),
    ("posets", "Poset.all_ideals", "posets.all_ideals", None),
    ("posets", "Poset.automorphisms", "posets.automorphisms", None),
    ("posets", "Poset.level_sets", "posets.level_sets", None),
    ("posets", "Poset.hierarchy_violation", "posets.hierarchy_violation", None),
    ("posets", "Poset.dual", "posets.dual", None),
    ("posets", "WeightFunction.from_map", "posets.WeightFunction.from_map", None),
    ("posets", "WeightFunction.total", "posets.WeightFunction.total", None),
    ("posets", "udp_check", "posets.udp_check", None),
    ("posets", "weight_preserving_automorphisms", "posets.weight_preserving_automorphisms", None),
    ("spaces", "enumerate_codes", "spaces.enumerate_codes", None),
    ("spaces", "AlphabetSpec.support", "spaces.support", None),
    ("spaces", "weight", "spaces.weight", None),
    ("spaces", "p_support", "spaces.p_support", None),
    ("spaces", "LinearCode.codewords", "spaces.LinearCode.codewords", None),
    ("spaces", "LinearCode.dual", "spaces.LinearCode.dual", None),
    ("isometries", "enumerate_group", "isometries.enumerate_group", None),
    ("isometries", "brute_force_isometries", "isometries.brute_force_isometries", _gl_order),
    ("isometries", "Isometry.matrix", "isometries.Isometry.matrix", None),
    ("isometries", "decompose", "isometries.decompose", None),
    ("isometries", "admissible_automorphisms", "isometries.admissible_automorphisms", None),
    ("isometries", "weight_automorphisms", "isometries.weight_automorphisms", None),
    ("isometries", "weight_isometry_group", "isometries.weight_isometry_group", None),
    ("isometries", "support_isometry_group", "isometries.support_isometry_group", None),
    ("mep", "mep_brute_force", "mep.mep_brute_force", None),
    ("mep", "SpaceIndex.__init__", "mep.SpaceIndex", _vectors_indexed),
    ("mep", "SpaceIndex.span_indices", "mep.span_indices", None),
    ("mep", "SpaceIndex.perm_of_matrix", "mep.perm_of_matrix", None),
    ("mep", "extend_to_isometry", "mep.extend_to_isometry", None),
    ("mep", "preserves_weight", "mep.preserves_weight", None),
    ("mep", "single_orbit_check", "mep.single_orbit_check", None),
    ("mep", "mep_predicate", "mep.mep_predicate", None),
    ("mep", "condition_report", "mep.condition_report", None),
    ("mep", "mep_p_support_predicate", "mep.mep_p_support_predicate", None),
    ("lattices", "FiniteLattice.__init__", "lattices.FiniteLattice", _len_members_squared),
    ("lattices", "FiniteLattice.from_sets", "lattices.FiniteLattice.from_sets", None),
    ("lattices", "FiniteLattice.non_point_closures", "lattices.non_point_closures", None),
    ("lattices", "moebius", "lattices.moebius", _fresh_moebius_entries),
    ("lattices", "moebius_indicator_identity", "lattices.moebius_indicator_identity", None),
    ("lattices", "subspace_lattice", "lattices.subspace_lattice", None),
    ("lattices", "pointed_boolean_lattice", "lattices.pointed_boolean_lattice", None),
    ("lattices", "minimal_nontrivial_solution", "lattices.minimal_nontrivial_solution", None),
    ("lattices", "minimal_nontrivial_length", "lattices.minimal_nontrivial_length", None),
    ("lattices", "construct_minimal_solution", "lattices.construct_minimal_solution", None),
    ("lattices", "matrix_module_min_length", "lattices.matrix_module_min_length", None),
    ("lattices", "is_solution", "lattices.is_solution", None),
    ("lattices", "is_trivial", "lattices.is_trivial", None),
    ("fourier", "character_sum", "fourier.character_sum", None),
    ("fourier", "weight_partition", "fourier.weight_partition", None),
    ("fourier", "dual_partition", "fourier.dual_partition", None),
    ("fourier", "macwilliams_identity_check", "fourier.macwilliams_identity_check", None),
    ("fourier", "is_fourier_reflexive", "fourier.is_fourier_reflexive", None),
    ("fourier", "coding_property_audit", "fourier.coding_property_audit", None),
    ("fourier", "Partition.from_blocks", "fourier.Partition.from_blocks", None),
    ("fourier", "Partition.distribution", "fourier.Partition.distribution", None),
    ("instances", "load_instance", "instances.load_instance", None),
    ("instances", "instance_from_dict", "instances.instance_from_dict", None),
    ("reports", "build_report", "reports.build_report", None),
    ("cli", "main", "cli.main", None),
)

# Caches whose hit ratio is reported: metric prefix -> (module, attribute path).
CACHES = {
    "fields.invertible_matrices": ("fields", "invertible_matrices"),
    "isometries.Isometry.matrix": ("isometries", "_isometry_matrix"),
    "lattices.moebius": ("lattices", "moebius"),
}

# one raw span: name id, parent span index (-1 at top level), case, count, start, end
SPAN = struct.Struct("<Hqqqdd")


def open_spans(path):
    """Writer for raw spans; they compress several-fold, and a pass can have millions."""
    return gzip.open(path, "wb", compresslevel=1)


def _resolve(module, path: str):
    """(owner, attribute name, raw value) for 'f' or 'Class.f', or None."""
    owner = module
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = inspect.getattr_static(owner, name, None) if inspect.isclass(owner) else vars(owner).get(name)
    if raw is None:
        return None
    return owner, name, raw


class Tracer:
    """Installs span-recording wrappers and folds their spans into totals."""

    def __init__(self):
        self.names: list[str] = [name for _m, _p, name, _c in TARGETS]
        self.name_ids = {name: t for t, name in enumerate(self.names)}
        self.case = [-1]
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_case = array("q")
        self.span_count = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self._saved: list[tuple[object, str, bool, object]] = []
        self.totals: dict[int, list] = {}  # name id -> [calls, self seconds, count]
        self.codes_scanned = 0
        self.written = 0

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        replacements: dict[int, object] = {}
        for module_name, path, span_name, count_fn in TARGETS:
            module = importlib.import_module(f"posetmetrics.{module_name}")
            found = _resolve(module, path)
            if found is None:
                continue  # the package no longer has it; its metrics read zero
            owner, attr, raw = found
            nid = self.name_ids[span_name]
            if inspect.isclass(owner):
                self._patch(owner, attr, self._wrap_member(raw, nid, count_fn))
            else:
                replacements[id(raw)] = (raw, self._wrap_callable(raw, nid, count_fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, had, old in reversed(self._saved):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def _wrap_member(self, raw, nid: int, count_fn):
        if isinstance(raw, property):
            return property(self._wrap_callable(raw.fget, nid, count_fn), raw.fset, raw.fdel, raw.__doc__)
        if isinstance(raw, classmethod):
            return classmethod(self._wrap_callable(raw.__func__, nid, count_fn))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap_callable(raw.__func__, nid, count_fn))
        return self._wrap_callable(raw, nid, count_fn)

    def _wrap_callable(self, fn, nid: int, count_fn):
        names, parents, cases = self.span_name, self.span_parent, self.span_case
        counts, starts, ends = self.span_count, self.span_start, self.span_end
        stack, case = self.stack, self.case
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = len(names)
                        names.append(nid)
                        parents.append(stack[-1])
                        cases.append(case[0])
                        counts.append(0)
                        ends.append(0.0)
                        stack.append(idx)
                        starts.append(clock())
                        try:
                            value = next(inner)
                        except StopIteration:
                            return
                        finally:
                            ends[idx] = clock()
                            stack.pop()
                        counts[idx] = 1
                        yield value
                finally:
                    inner.close()

            traced_generator.__wrapped__ = fn
            return traced_generator

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            cases.append(case[0])
            counts.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_fn is not None:
                counts[idx] = count_fn(fn, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- folding -------------------------------------------------------------

    def fold(self, out=None) -> float:
        """Fold the spans recorded since the last fold into per-name totals.

        Writes the raw spans to `out` as packed `SPAN` records (parent indices
        count from the start of the file) and returns the time covered by
        top-level spans.  Call it only between cases, with no span open.
        """
        n = len(self.span_name)
        names, parents, counts = self.span_name, self.span_parent, self.span_count
        starts, ends = self.span_start, self.span_end
        child = [0.0] * n
        covered = 0.0
        for t in range(n):
            d = ends[t] - starts[t]
            p = parents[t]
            if p >= 0:
                child[p] += d
            else:
                covered += d
        totals = self.totals
        for t in range(n):
            row = totals.get(names[t])
            if row is None:
                row = totals[names[t]] = [0, 0.0, 0]
            row[0] += 1
            row[1] += ends[t] - starts[t] - child[t]
            row[2] += counts[t]
        self._count_scanned_codes()
        if out is not None:
            cases, base, pack = self.span_case, self.written, SPAN.pack
            out.write(b"".join(
                pack(names[t], parents[t] + base if parents[t] >= 0 else -1, cases[t],
                     counts[t], starts[t], ends[t])
                for t in range(n)
            ))
            self.written += n
        for arr in (self.span_name, self.span_parent, self.span_case,
                    self.span_count, self.span_start, self.span_end):
            del arr[:]
        return covered

    def _count_scanned_codes(self) -> None:
        """Codes mep_brute_force got as far as spanning: an enumerate_codes
        yield directly under it that a span_indices call follows."""
        scan = self.name_ids["mep.mep_brute_force"]
        codes = self.name_ids["spaces.enumerate_codes"]
        span = self.name_ids["mep.span_indices"]
        names, parents, counts = self.span_name, self.span_parent, self.span_count
        pending = set()
        for t in range(len(names)):
            p = parents[t]
            if p < 0 or names[p] != scan:
                continue
            if names[t] == codes and counts[t]:
                pending.add(p)
            elif names[t] == span and p in pending:
                pending.discard(p)
                self.codes_scanned += 1

    def merge(self, totals: dict, codes_scanned: int) -> None:
        """Add totals folded in another process (a traced CLI child)."""
        for name, (calls, self_s, count) in totals.items():
            row = self.totals.setdefault(self.name_ids[name], [0, 0.0, 0])
            row[0] += calls
            row[1] += self_s
            row[2] += count
        self.codes_scanned += codes_scanned

    def named_totals(self) -> dict:
        return {self.names[nid]: row for nid, row in self.totals.items()}


def cache_stats() -> dict:
    """(hits, lookups) of each reported cache, read from the lru_cache itself."""
    out = {}
    for metric, (module_name, attr) in CACHES.items():
        module = importlib.import_module(f"posetmetrics.{module_name}")
        info = getattr(getattr(module, attr, None), "cache_info", None)
        if info is None:
            out[metric] = (0, 0)
            continue
        stats = info()
        out[metric] = (stats.hits, stats.hits + stats.misses)
    return out


LAYERS = ("posets", "spaces", "fields", "isometries", "mep", "lattices", "fourier",
          "instances", "reports", "cli")

# per-layer metric -> (span name, field): field is calls, self_s, count,
# ns_per_call (self ns per call) or ns_per_count (self ns per counted item).
SPAN_METRICS = {
    "posets.ideal_closure.calls": ("posets.ideal_closure", "calls"),
    "posets.ideal_closure.self_s": ("posets.ideal_closure", "self_s"),
    "posets.ideal_closure.ns_per_call": ("posets.ideal_closure", "ns_per_call"),
    "posets.Poset.self_s": ("posets.Poset", "self_s"),
    "posets.all_ideals.self_s": ("posets.all_ideals", "self_s"),
    "posets.automorphisms.self_s": ("posets.automorphisms", "self_s"),
    "posets.udp_check.calls": ("posets.udp_check", "calls"),
    "posets.udp_check.self_s": ("posets.udp_check", "self_s"),
    "spaces.enumerate_codes.codes": ("spaces.enumerate_codes", "count"),
    "spaces.enumerate_codes.self_s": ("spaces.enumerate_codes", "self_s"),
    "spaces.enumerate_codes.ns_per_code": ("spaces.enumerate_codes", "ns_per_count"),
    "spaces.support.calls": ("spaces.support", "calls"),
    "spaces.support.self_s": ("spaces.support", "self_s"),
    "spaces.weight.calls": ("spaces.weight", "calls"),
    "spaces.LinearCode.codewords.yielded": ("spaces.LinearCode.codewords", "count"),
    "spaces.LinearCode.dual.calls": ("spaces.LinearCode.dual", "calls"),
    "fields.rref.calls": ("fields.rref", "calls"),
    "fields.rref.self_s": ("fields.rref", "self_s"),
    "fields.mat_vec.calls": ("fields.mat_vec", "calls"),
    "fields.mat_vec.self_s": ("fields.mat_vec", "self_s"),
    "fields.mat_vec.ns_per_call": ("fields.mat_vec", "ns_per_call"),
    "fields.mat_mul.calls": ("fields.mat_mul", "calls"),
    "fields.invertible_matrices.self_s": ("fields.invertible_matrices", "self_s"),
    "isometries.enumerate_group.elements": ("isometries.enumerate_group", "count"),
    "isometries.enumerate_group.self_s": ("isometries.enumerate_group", "self_s"),
    "isometries.enumerate_group.ns_per_element": ("isometries.enumerate_group", "ns_per_count"),
    "isometries.brute_force_isometries.calls": ("isometries.brute_force_isometries", "calls"),
    "isometries.brute_force_isometries.matrices_scanned": ("isometries.brute_force_isometries", "count"),
    "isometries.brute_force_isometries.self_s": ("isometries.brute_force_isometries", "self_s"),
    "isometries.Isometry.matrix.calls": ("isometries.Isometry.matrix", "calls"),
    "isometries.decompose.calls": ("isometries.decompose", "calls"),
    "isometries.decompose.self_s": ("isometries.decompose", "self_s"),
    "isometries.admissible_automorphisms.self_s": ("isometries.admissible_automorphisms", "self_s"),
    "mep.mep_brute_force.calls": ("mep.mep_brute_force", "calls"),
    "mep.mep_brute_force.self_s": ("mep.mep_brute_force", "self_s"),
    "mep.SpaceIndex.self_s": ("mep.SpaceIndex", "self_s"),
    "mep.SpaceIndex.vectors_indexed": ("mep.SpaceIndex", "count"),
    "mep.span_indices.calls": ("mep.span_indices", "calls"),
    "mep.span_indices.self_s": ("mep.span_indices", "self_s"),
    "mep.perm_of_matrix.calls": ("mep.perm_of_matrix", "calls"),
    "mep.perm_of_matrix.self_s": ("mep.perm_of_matrix", "self_s"),
    "mep.extend_to_isometry.self_s": ("mep.extend_to_isometry", "self_s"),
    "mep.single_orbit_check.self_s": ("mep.single_orbit_check", "self_s"),
    "mep.mep_predicate.self_s": ("mep.mep_predicate", "self_s"),
    "lattices.FiniteLattice.calls": ("lattices.FiniteLattice", "calls"),
    "lattices.FiniteLattice.self_s": ("lattices.FiniteLattice", "self_s"),
    "lattices.FiniteLattice.member_pairs": ("lattices.FiniteLattice", "count"),
    "lattices.moebius.calls": ("lattices.moebius", "calls"),
    "lattices.moebius.self_s": ("lattices.moebius", "self_s"),
    "lattices.moebius.entries": ("lattices.moebius", "count"),
    "lattices.moebius_indicator_identity.calls": ("lattices.moebius_indicator_identity", "calls"),
    "lattices.moebius_indicator_identity.self_s": ("lattices.moebius_indicator_identity", "self_s"),
    "lattices.subspace_lattice.self_s": ("lattices.subspace_lattice", "self_s"),
    "lattices.minimal_nontrivial_solution.self_s": ("lattices.minimal_nontrivial_solution", "self_s"),
    "fourier.character_sum.calls": ("fourier.character_sum", "calls"),
    "fourier.character_sum.self_s": ("fourier.character_sum", "self_s"),
    "fourier.character_sum.ns_per_call": ("fourier.character_sum", "ns_per_call"),
    "fourier.weight_partition.calls": ("fourier.weight_partition", "calls"),
    "fourier.weight_partition.self_s": ("fourier.weight_partition", "self_s"),
    "fourier.dual_partition.calls": ("fourier.dual_partition", "calls"),
    "fourier.dual_partition.self_s": ("fourier.dual_partition", "self_s"),
    "fourier.macwilliams_identity_check.self_s": ("fourier.macwilliams_identity_check", "self_s"),
    "fourier.is_fourier_reflexive.self_s": ("fourier.is_fourier_reflexive", "self_s"),
    "instances.load_instance.self_s": ("instances.load_instance", "self_s"),
    "reports.build_report.self_s": ("reports.build_report", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def layer_metrics(totals: dict, caches: dict, codes_scanned: int, import_s: float,
                  start_s: float, unspanned_s: float) -> dict:
    """Every per-layer metric except trace.overhead_frac, from folded totals."""
    out = {}
    for metric, (span, field) in SPAN_METRICS.items():
        calls, self_s, count = totals.get(span, (0, 0.0, 0))
        if field == "calls":
            value = calls
        elif field == "count":
            value = count
        elif field == "self_s":
            value = self_s
        elif field == "ns_per_call":
            value = self_s * 1e9 / calls if calls else 0.0
        else:
            value = self_s * 1e9 / count if count else 0.0
        out[metric] = value
    for metric, (hits, lookups) in caches.items():
        out[f"{metric}.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    out["mep.codes_scanned"] = codes_scanned
    out["mep.candidate_maps"] = totals.get("mep.span_indices", (0, 0.0, 0))[0] - codes_scanned
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            row[1] for name, row in totals.items() if name.split(".", 1)[0] == layer
        )
    out["cli.import_s"] = import_s
    out["cli.start_s"] = start_s
    out["bench.unspanned_s"] = unspanned_s
    return out


PER_LAYER_UNITS = {"calls": "count", "codes": "count", "yielded": "count", "elements": "count",
                   "matrices_scanned": "count", "vectors_indexed": "count", "member_pairs": "count",
                   "entries": "count", "codes_scanned": "count", "candidate_maps": "count",
                   "cache_hit_ratio": "ratio", "overhead_frac": "ratio"}


def metric_unit(metric: str) -> str:
    last = metric.rsplit(".", 1)[1]
    if last.startswith("ns_per"):
        return "ns"
    if last.endswith("_s"):
        return "s"
    return PER_LAYER_UNITS[last]


def per_layer_names() -> list[str]:
    names = list(SPAN_METRICS) + [f"{m}.cache_hit_ratio" for m in CACHES]
    names += ["mep.codes_scanned", "mep.candidate_maps"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["cli.import_s", "cli.start_s", "bench.unspanned_s", "trace.overhead_frac"]
    return names
