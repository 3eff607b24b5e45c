"""The package's export surface, what each entry point imports, its unused
imports and its unread definitions."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import posetmetrics

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = Path(__file__).resolve().parents[1] / "bench"
CHAIN3 = Path(__file__).resolve().parents[1] / "instances" / "chain3.json"

# The exported names, by the module that defines them, as of the lazy package.
EXPORTS = {
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
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]
ENGINE = ("instances", "isometries", "mep", "lattices", "fourier")


def run_fresh(code: str) -> dict:
    """Run code in a fresh interpreter; it prints one JSON value as its last line."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestExports:
    @pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
    def test_name_is_the_defining_module_object(self, module, name):
        defining = importlib.import_module(f"posetmetrics.{module}")
        assert getattr(posetmetrics, name) is getattr(defining, name)

    def test_all_and_dir_list_every_export(self):
        names = {name for _, name in NAMES}
        assert len(names) == len(NAMES) == 65
        assert sorted(posetmetrics.__all__) == sorted(names)
        assert names <= set(dir(posetmetrics))
        assert {"fields", "mep", "cli"} <= set(dir(posetmetrics))

    def test_star_import_binds_every_export(self):
        namespace: dict = {}
        exec("from posetmetrics import *", namespace)
        for module, name in NAMES:
            assert namespace[name] is getattr(importlib.import_module(f"posetmetrics.{module}"), name)

    def test_submodules_resolve(self):
        assert posetmetrics.fields is importlib.import_module("posetmetrics.fields")
        assert posetmetrics.acceptance is importlib.import_module("posetmetrics.acceptance")

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            posetmetrics.no_such_name  # noqa: B018
        assert not hasattr(posetmetrics, "GroupBoundExceeded")  # defined, but not exported
        with pytest.raises(ImportError):
            exec("from posetmetrics import no_such_name", {})

    def test_first_access_imports_and_binds(self):
        loaded = run_fresh(
            "import json, sys, posetmetrics as pm\n"
            "before = 'udp_check' in vars(pm) or 'posetmetrics.posets' in sys.modules\n"
            "first = pm.udp_check\n"
            "print(json.dumps([before, vars(pm).get('udp_check') is first,\n"
            "                  'posetmetrics.mep' in sys.modules]))"
        )
        assert loaded == [False, True, False]


def _loaded_after(statements: str) -> set[str]:
    """The posetmetrics submodules a fresh interpreter holds after the statements."""
    return set(run_fresh(
        "import contextlib, io, json, sys\n"
        f"{statements}\n"
        "print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules\n"
        "                        if m.startswith('posetmetrics.'))))"
    ))


def _cli(*argv: str) -> str:
    """Statements that run one CLI command with its report captured."""
    return (
        "import posetmetrics.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0"
    )


class TestImportBoundary:
    def test_cli_import_loads_no_engine_module(self):
        assert _loaded_after("import posetmetrics.cli").isdisjoint(ENGINE)

    def test_no_module_imports_dataclasses_or_inspect(self):
        # value classes are plain classes on posets.Value; dataclasses would
        # pull in inspect, ast, dis and tokenize on every command
        modules = (
            "cli", "acceptance", "fourier", "instances", "isometries", "lattices", "mep",
            "posets", "spaces", "reports", "fields", "errors",
        )
        loaded = run_fresh(
            "import json, sys\n"
            + "".join(f"import posetmetrics.{module}\n" for module in modules)
            + "print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"
        )
        assert loaded == []

    def test_poset_command_loads_no_group_lattice_or_fourier_module(self):
        loaded = _loaded_after(_cli("poset", "--instance", str(CHAIN3)))
        assert {"instances", "posets"} <= loaded
        assert loaded.isdisjoint({"isometries", "mep", "lattices", "fourier"})

    def test_lattice_command_loads_no_instance_or_group_module(self):
        loaded = _loaded_after(_cli("lattice", "boolean", "3"))
        assert "lattices" in loaded
        assert loaded.isdisjoint({"instances", "isometries", "mep", "fourier"})


def _module_imports(tree: ast.Module):
    """The import statements outside every function and class body."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nodes.extend(ast.iter_child_nodes(node))


def _names_read(tree: ast.Module) -> set[str]:
    """Every name the module loads, in code or in a string annotation."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    annotations += [node.annotation for node in ast.walk(tree) if isinstance(node, ast.arg)]
    annotations += [node.annotation for node in ast.walk(tree) if isinstance(node, ast.AnnAssign)]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names_read(ast.parse(node.value, mode="eval"))
    return names


def _unused_imports(source: str) -> list[str]:
    """The names a module imports at module level and never reads;
    `from __future__` imports are exempt."""
    tree = ast.parse(source)
    bound = []
    for node in _module_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound.append(alias.asname or alias.name.split(".")[0])
    read = _names_read(tree)
    return sorted(name for name in bound if name not in read)


class TestUnusedImports:
    @pytest.mark.parametrize("path", sorted((SRC / "posetmetrics").glob("*.py")),
                             ids=lambda path: path.name)
    def test_every_module_level_import_is_read(self, path):
        assert _unused_imports(path.read_text()) == []

    def test_an_unread_import_is_found(self):
        source = (
            "from __future__ import annotations\n"
            "import math\nimport os.path\nimport itertools as it\n"
            "from typing import Optional, Sequence\nfrom . import fields\n"
            "def f(x: 'Optional[int]') -> Sequence:\n"
            "    import json\n"
            "    return fields.identity_matrix(os.path.sep)\n"
        )
        assert _unused_imports(source) == ["it", "math"]


def _reads(node: ast.stmt) -> set[str]:
    """The names a statement reads: loaded, read as an attribute, imported
    by name, or named in a string annotation."""
    reads = _names_read(ast.Module(body=[node], type_ignores=[]))
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            reads.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            reads.update(alias.name for alias in sub.names)
    return reads


def _readers(statements) -> Counter:
    """For each name, how many of the statements read it."""
    return Counter(name for statement in statements for name in _reads(statement))


def _bench_reads() -> set[str]:
    """The names bench/ reads, and the dotted parts of the strings in
    bench/tracing.py's TARGETS, which name what its tracer wraps."""
    names = set()
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        names |= set(_readers(tree.body))
        names |= {
            part
            for node in tree.body
            if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "TARGETS"
            for sub in ast.walk(node.value) if isinstance(sub, ast.Constant)
            for part in str(sub.value).split(".")
        }
    return names


def _unread_definitions(trees: dict, bench: set[str]) -> tuple[set[str], set[str]]:
    """The module-level functions and classes that are not exported, not
    dunders and read by no other statement of the modules (a read in their
    own body does not count), split into (read by bench, read by neither)."""
    readers = _readers(node for tree in trees.values() for node in tree.body)
    by_bench, unread = set(), set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in posetmetrics.__all__ or (name.startswith("__") and name.endswith("__")):
                continue
            if readers[name] > (name in _reads(node)):
                continue
            (by_bench if name in bench else unread).add(f"{module}.{name}")
    return by_bench, unread


class TestUnreadDefinitions:
    def test_every_definition_has_a_reader(self):
        # the four read only by bench/ are deletions that wait on a benchmark change
        trees = {path.stem: ast.parse(path.read_text()) for path in (SRC / "posetmetrics").glob("*.py")}
        by_bench, unread = _unread_definitions(trees, _bench_reads())
        assert unread == set()
        assert by_bench == {
            "fields.mat_mul", "fields.mat_inv", "isometries.weight_automorphisms",
            "posets.weight_preserving_automorphisms",
        }
        assert {"rref", "Poset", "automorphisms"} <= _bench_reads()  # TARGETS strings

    def test_an_unread_definition_is_found(self):
        source = (
            "def walk(n):\n    return walk(n - 1) if n else 0\n"
            "def spin(n):\n    return spin(n - 1) if n else 0\n"
            "def used():\n    return 1\n"
            "def timed():\n    return used()\n"
            "class Kept:\n    value: 'Optional[walk]'\n"
            "def __getattr__(name):\n    return name\n"
            "def udp_check():\n    return 0\n"
        )
        trees = {"m": ast.parse(source), "n": ast.parse("def late():\n    return 2\n")}
        # walk is read in Kept's string annotation, spin only in its own body
        assert _unread_definitions(trees, {"timed", "Kept"}) == (
            {"m.timed", "m.Kept"}, {"m.spin", "n.late"},
        )
