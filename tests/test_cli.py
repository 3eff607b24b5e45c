"""Command layer: parsing, determinism, exit codes, witnesses."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from posetmetrics import cli, fourier, isometries, mep
from posetmetrics.cli import main
from posetmetrics.instances import instance_from_dict, load_instance
from posetmetrics.errors import BoundExceeded, ValidationError
from posetmetrics.posets import ELEMENT_BOUND, Poset, powers_of_two_weight
from posetmetrics.reports import build_report

INSTANCES = Path(__file__).resolve().parents[1] / "instances"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# The commands that take an instance file, each with its default options.
INSTANCE_COMMANDS = (
    ["poset"],
    ["isometries"],
    ["mep"],
    ["mep", "--mode", "psupport"],
    ["macwilliams"],
    ["audit"],
)


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


CAPPED_CHILD = (
    "import contextlib, io, json, sys, time\n"
    "from posetmetrics.cli import main\n"
    "out = {}\n"
    "for command in sys.argv[2:]:\n"
    "    report, err = io.StringIO(), io.StringIO()\n"
    "    start = time.perf_counter()\n"
    "    with contextlib.redirect_stdout(report), contextlib.redirect_stderr(err):\n"
    "        code = main([*command.split(), '--instance', sys.argv[1], '--json'])\n"
    "    digest = report.getvalue() and json.loads(report.getvalue())['report_digest']\n"
    "    out[command] = [code, time.perf_counter() - start, err.getvalue(), digest or None]\n"
    "print(json.dumps(out))\n"
)


def run_capped(resource, path, commands) -> dict:
    """Run each instance command on the file in one child whose address space
    is capped at 1 GB, so a regression ends in MemoryError (exit 4), not a
    full machine: {command: [exit code, seconds in main, stderr, report
    digest or None]}."""

    def cap_memory():  # runs in the child only, before it starts Python
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path_env = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CHILD, str(path), *commands],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_memory,
        env={**os.environ, "PYTHONPATH": path_env},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestInstances:
    def test_float_weight_rejected(self):
        with pytest.raises(ValidationError, match="float"):
            instance_from_dict(
                {"q": 2, "poset": {"elements": ["a"], "covers": []}, "omega": {"a": 0.5}}
            )

    @pytest.mark.parametrize("raw", [None, [1], {"n": 1}])
    def test_non_numeric_weight_rejected(self, raw):
        doc = {"q": 2, "poset": {"elements": ["a"], "covers": []}, "omega": {"a": raw}}
        with pytest.raises(ValidationError, match="omega\\[a\\]"):
            instance_from_dict(doc)

    def test_nonprime_field_rejected(self):
        with pytest.raises(ValidationError, match="prime"):
            instance_from_dict({"q": 6, "poset": {"elements": ["a"], "covers": []}})

    def test_cycle_rejected_with_witness(self):
        with pytest.raises(ValidationError, match="cycle"):
            instance_from_dict(
                {"q": 2, "poset": {"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}}
            )

    def test_defaults_fill_in(self):
        inst = instance_from_dict({"q": 3, "poset": {"elements": ["a", "b"], "covers": []}})
        assert inst.omega.is_all_ones and inst.space.dims == (1, 1)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"q": True, "poset": {"elements": ["a"], "covers": []}}, "q must be an integer"),
            (
                {"q": 2, "poset": {"elements": ["a", "b"], "covers": []}, "dims": {"a": True, "b": 1}},
                "dims must be integers",
            ),
        ],
    )
    def test_bools_are_not_integers(self, doc, message):
        with pytest.raises(ValidationError, match=message):
            instance_from_dict(doc)

    @pytest.mark.parametrize(
        "elements, covers",
        [([["a"]], []), ([{"a": 1}], []), ([1], []), ([True], []), (["a", "b"], [["a", 1]])],
    )
    def test_non_string_labels_exit_two(self, tmp_path, capsys, elements, covers):
        doc = {"q": 2, "poset": {"elements": elements, "covers": covers}}
        with pytest.raises(ValidationError, match="must be strings"):
            instance_from_dict(doc)
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        assert main(["poset", "--instance", str(path)]) == 2
        assert "must be strings" in capsys.readouterr().err

    def test_sample_instances_load(self):
        for name in ("chain3", "antichain3_k2", "mixed3", "weighted_vee"):
            inst = load_instance(INSTANCES / f"{name}.json")
            assert inst.space.total_dim >= 3


class TestCommands:
    def test_poset_chain(self, capsys):
        code, payload = run_json(capsys, "poset", "--instance", str(INSTANCES / "chain3.json"))
        assert code == 0
        assert payload["results"]["hierarchical"] is True
        assert payload["results"]["automorphism_count"] == 1
        assert payload["results"]["udp"] is True

    def test_poset_counts_automorphisms_past_eight_elements(self, tmp_path, capsys):
        labels = [f"e{t}" for t in range(12)]
        path = tmp_path / "chain12.json"
        covers = list(zip(labels, labels[1:]))
        path.write_text(json.dumps({"q": 2, "poset": {"elements": labels, "covers": covers}}))
        code, payload = run_json(capsys, "poset", "--instance", str(path))
        assert code == 0
        assert payload["results"]["automorphism_count"] == 1
        assert payload["results"]["udp"] is True

    def test_poset_refuses_a_large_automorphism_search(self, tmp_path, capsys):
        path = tmp_path / "anti9.json"
        doc = {"q": 2, "poset": {"elements": list("abcdefghi"), "covers": []}}
        path.write_text(json.dumps(doc))
        assert main(["poset", "--instance", str(path)]) == 3
        assert "362880 candidate permutations exceeds the bound 40320" in capsys.readouterr().err

    ANTICHAIN_COMMANDS = ("isometries", "mep", "mep --brute-force", "mep --mode psupport")

    @staticmethod
    def antichain20(tmp_path):
        """Twenty unrelated labels over F_2: 2^20 ideals, 20! candidate automorphisms."""
        path = tmp_path / "anti20.json"
        doc = {"q": 2, "poset": {"elements": [f"x{t}" for t in range(20)], "covers": []}}
        path.write_text(json.dumps(doc))
        return path

    def test_antichain_of_twenty_refuses_before_its_ideals(self, tmp_path, capsys, monkeypatch):
        def unreachable(self):
            raise AssertionError("the ideals were enumerated")

        monkeypatch.setattr(Poset, "_ideal_masks", property(unreachable))
        path = self.antichain20(tmp_path)
        search = "automorphism search over 2432902008176640000 candidate permutations"
        for command in self.ANTICHAIN_COMMANDS:
            assert main([*command.split(), "--instance", str(path)]) == 3, command
            assert capsys.readouterr().err == f"bound exceeded: {search} exceeds the bound 40320\n"

    def test_antichain_of_twenty_exits_three_at_once_in_a_memory_capped_child(self, tmp_path):
        # the refusal used to come after all 2^20 ideals: about 5 s and 270 MB
        resource = pytest.importorskip("resource")
        results = run_capped(resource, self.antichain20(tmp_path), list(self.ANTICHAIN_COMMANDS))
        for command, (code, elapsed, err, _) in results.items():
            assert code == 3 and elapsed < 0.5 and "automorphism search" in err, (command, elapsed)

    @staticmethod
    def antichain_beside_chains(tmp_path, lengths):
        """Eight unrelated labels beside chains of the given lengths, over F_2."""
        elements, covers = [f"a{t}" for t in range(8)], []
        for c, length in enumerate(lengths):
            chain = [f"c{c}_{t}" for t in range(length)]
            elements += chain
            covers += list(zip(chain, chain[1:]))
        path = tmp_path / "antichain_beside_chains.json"
        path.write_text(json.dumps({"q": 2, "poset": {"elements": elements, "covers": covers}}))
        return str(path)

    def test_isometries_refuse_before_the_functional_filter(self, tmp_path, capsys, monkeypatch):
        # 8! automorphisms over 26,880 ideals, but the 22 strict blocks alone
        # give 2^22 isometries, so the label-map search never runs
        def unreachable(*args):
            raise AssertionError("the label-map search ran")

        monkeypatch.setattr(isometries, "admissible_automorphisms", unreachable)
        path = self.antichain_beside_chains(tmp_path, (2, 4, 6))
        assert main(["isometries", "--instance", path]) == 3
        message = "isometry group order reaches 2097152, over the bound 1048576"
        assert f"{message}; raise it with --bound\n" in capsys.readouterr().err

    def test_isometries_list_a_large_label_map_image(self, tmp_path, capsys):
        # 8! label maps, with a group of 8! * 2^4; the search-then-filter
        # refused its 8! automorphisms over 256 * 3 * 4 ideals
        path = self.antichain_beside_chains(tmp_path, (2, 3))
        code, payload = run_json(capsys, "isometries", "--instance", path)
        assert code == 0
        assert payload["results"]["group_order"] == 645120
        assert payload["results"]["label_map_image_size"] == 40320

    @staticmethod
    def weighted_antichain16(tmp_path):
        """Sixteen unrelated labels over F_2 with weights 1..16: 2^16 ideals, and
        every colour class of the weighted search is a single label."""
        path = tmp_path / "weighted_anti16.json"
        labels = [f"x{t}" for t in range(16)]
        doc = {"q": 2, "poset": {"elements": labels, "covers": []},
               "omega": {label: str(t + 1) for t, label in enumerate(labels)}}
        path.write_text(json.dumps(doc))
        return str(path)

    def test_weighted_antichain_of_sixteen_is_answered(self, tmp_path, capsys):
        path = self.weighted_antichain16(tmp_path)
        code, payload = run_json(capsys, "mep", "--instance", path)
        assert code == 0
        assert payload["results"]["conditions"]["udp_matched_dims"] is False  # 1 + 4 = 2 + 3
        assert payload["results"]["predicate"]["holds"] is False
        code, payload = run_json(capsys, "isometries", "--instance", path)
        assert code == 0
        assert payload["results"]["group_order"] == 1
        assert payload["results"]["label_map_image_size"] == 1
        # the poset command counts the unweighted automorphisms: 16! candidates
        assert main(["poset", "--instance", path]) == 3
        assert "20922789888000 candidate permutations" in capsys.readouterr().err

    def test_weighted_antichain_of_sixteen_answers_in_a_memory_capped_child(self, tmp_path):
        # both commands exited 3 on the 16! search; mep now spends its time on the ideals
        resource = pytest.importorskip("resource")
        results = run_capped(resource, self.weighted_antichain16(tmp_path), ["mep", "isometries"])
        for command, (code, elapsed, err, _) in results.items():
            assert code == 0 and elapsed < 2 and not err, (command, elapsed, err)

    def test_poset_reports_hierarchy_witness(self, capsys):
        code, payload = run_json(capsys, "poset", "--instance", str(INSTANCES / "mixed3.json"))
        assert code == 0
        assert payload["results"]["hierarchical"] is False
        assert payload["witnesses"]["hierarchy_violation"] == ["c", "b"]

    def test_missing_file_exits_two(self, capsys):
        assert main(["poset", "--instance", "no-such-file.json"]) == 2

    def test_corrupted_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"q": 2, "poset": {"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}}')
        assert main(["poset", "--instance", str(bad)]) == 2

    def test_isometries_with_oracle(self, capsys):
        code, payload = run_json(
            capsys, "isometries", "--instance", str(INSTANCES / "weighted_vee.json"), "--brute-force"
        )
        assert code == 0
        assert payload["results"]["group_order"] == 144
        assert payload["results"]["oracle_agrees"] is True

    def test_isometries_with_oracle_trace_the_scan_outside_the_digest(self, capsys):
        path = str(INSTANCES / "weighted_vee.json")
        isometries._action_table.cache_clear()
        reports = [run_json(capsys, "isometries", "--instance", path, "--brute-force")[1]
                   for _ in range(2)]
        traces = [report.pop("trace") for report in reports]
        assert traces == [
            {"brute_force": {"matrices": 11232, "action_table": table, "vectors_checked": 26,
                             "survivors": 144}}
            for table in ("built", "kept")
        ]
        assert reports[0]["report_digest"] == reports[1]["report_digest"]
        report = reports[0]
        rebuilt = build_report("isometries", report["instance_digest"], report["results"])
        assert rebuilt["report_digest"] == report["report_digest"]
        assert "trace" not in run_json(capsys, "isometries", "--instance", path)[1]

    def test_isometries_with_oracle_list_the_group_once(self, capsys, monkeypatch):
        # the sample is the first three elements of the one listing
        listed = []
        enumerate_group = isometries.enumerate_group

        def counted(*args, **kwargs):
            listed.append(0)
            for iso in enumerate_group(*args, **kwargs):
                listed[-1] += 1
                yield iso

        monkeypatch.setattr(isometries, "enumerate_group", counted)
        path = str(INSTANCES / "weighted_vee.json")
        code, payload = run_json(capsys, "isometries", "--instance", path, "--brute-force")
        assert code == 0 and listed == [144] and payload["results"]["oracle_agrees"] is True
        inst = load_instance(path)
        group = list(enumerate_group(
            inst.space, inst.poset, isometries.weight_sum_functional(inst.poset, inst.omega)
        ))
        assert payload["results"]["sample"] == [iso.serialize() for iso in group[:3]]
        listed.clear()
        code, payload = run_json(capsys, "isometries", "--instance", path)
        assert code == 0 and listed == [3]

    def test_isometries_with_oracle_refuse_the_group_bound_after_the_oracle_bound(self, capsys):
        path = str(INSTANCES / "weighted_vee.json")
        assert main(["isometries", "--instance", path, "--brute-force", "--bound", "143"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("bound exceeded: isometry group order reaches ")
        assert err.endswith(", over the bound 143; raise it with --bound\n")

    def test_mep_threshold_instance(self, capsys):
        code, payload = run_json(
            capsys, "mep", "--instance", str(INSTANCES / "antichain3_k2.json"), "--brute-force"
        )
        assert code == 0
        assert payload["results"]["predicate"]["holds"] is False
        assert payload["results"]["brute_force"]["holds"] is False
        assert payload["results"]["agreement"] is True
        assert payload["witnesses"]["counterexample"]["code_basis"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("mep", "--brute-force", "--max-dim", "-1"),
            ("mep", "--brute-force", "--max-dim", "0"),
            ("mep", "--bound", "-5"),
            ("mep", "--bound", "x"),
            ("isometries", "--bound", "-5"),
        ],
    )
    def test_sizes_below_one_exit_two_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--instance", str(INSTANCES / "chain3.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: posetmetrics") and "is not an integer >= 1" in err

    def test_mep_bound_names_its_flag(self, capsys):
        chain3 = str(INSTANCES / "chain3.json")
        assert main(["mep", "--instance", chain3, "--brute-force", "--bound", "63"]) == 3
        assert "64 candidate maps at dimension 2 exceed the bound 63; raise it with --bound" in (
            capsys.readouterr().err
        )
        code, payload = run_json(capsys, "mep", "--instance", chain3, "--brute-force", "--max-dim", "1")
        assert code == 0 and payload["results"]["brute_force"] == {"holds": True, "complete": False}

    def test_mep_chain_holds(self, capsys):
        code, payload = run_json(capsys, "mep", "--instance", str(INSTANCES / "chain3.json"))
        assert code == 0 and payload["results"]["predicate"]["holds"] is True

    def test_mep_psupport_mode(self, capsys):
        code, payload = run_json(
            capsys, "mep", "--instance", str(INSTANCES / "mixed3.json"),
            "--mode", "psupport", "--brute-force",
        )
        assert code == 0
        assert payload["results"]["predicate"]["holds"] is True
        assert payload["results"]["brute_force"]["holds"] is True

    @pytest.mark.parametrize("options", [[], ["--max-dim", "3"]], ids=["full", "max-dim-3"])
    @pytest.mark.parametrize("name", sorted(path.stem for path in INSTANCES.glob("*.json")))
    def test_mep_psupport_scan_is_the_doubling_weight_scan(self, tmp_path, capsys, name, options):
        # psupport mode scans the doubling weights: the same scan, witnesses
        # and exit as weight mode on the document with omega(t) = 2^t written out
        path = INSTANCES / f"{name}.json"
        doc = json.loads(path.read_text())
        doubling = powers_of_two_weight(load_instance(path).poset)
        doc["omega"] = {label: str(doubling.of(label)) for label in doubling.labels}
        doubled = tmp_path / "doubled.json"
        doubled.write_text(json.dumps(doc))
        runs = []
        for argv in (["--mode", "psupport", "--instance", str(path)], ["--instance", str(doubled)]):
            code = main(["mep", *argv, "--brute-force", *options, "--json"])
            out, err = capsys.readouterr()
            report = json.loads(out) if code == 0 else {}
            runs.append((code, err, report.get("results", {}).get("brute_force"),
                         report.get("witnesses")))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 or "candidate maps" in runs[0][1]

    def test_mep_unavailable_predicate_without_brute_force(self, tmp_path, capsys):
        doc = {
            "q": 2,
            "poset": {"elements": ["a", "b", "c"], "covers": [["a", "b"]]},
            "omega": {"a": "1", "b": "1/2", "c": "2"},
        }
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc))
        assert main(["mep", "--instance", str(path)]) == 2
        assert main(["mep", "--instance", str(path), "--brute-force"]) == 0

    @pytest.mark.parametrize("options", [[], ["--brute-force"]], ids=["closed", "brute-force"])
    @pytest.mark.parametrize("name", ["weighted_vee", "chain3"])
    def test_mep_computes_each_condition_once(self, capsys, monkeypatch, name, options):
        # the closed form reads the condition report the command prints
        calls = Counter()

        def counted(module, attr):
            inner = getattr(module, attr)

            def call(*args):
                calls[attr] += 1
                return inner(*args)

            monkeypatch.setattr(module, attr, call)

        counted(mep, "condition_report")
        counted(mep, "udp_check")
        assert main(["mep", "--instance", str(INSTANCES / f"{name}.json"), *options]) == 0
        assert calls == {"condition_report": 1, "udp_check": 1}

    @pytest.mark.parametrize("options", [[], ["--brute-force"]], ids=["closed", "brute-force"])
    def test_mep_meets_the_automorphism_bound_in_its_report(self, tmp_path, capsys, options):
        # nine unrelated labels of weight 1 beside a < b of weights 1 and 2:
        # mep_predicate refuses this question, but the command builds its
        # condition report first, whose UDP check meets the bound
        elements = ["a", "b", *(f"x{t}" for t in range(9))]
        doc = {"q": 2, "poset": {"elements": elements, "covers": [["a", "b"]]},
               "omega": {label: "2" if label == "b" else "1" for label in elements}}
        path = tmp_path / "beside.json"
        path.write_text(json.dumps(doc))
        assert main(["mep", "--instance", str(path), *options]) == 3
        assert capsys.readouterr().err == (
            "bound exceeded: automorphism search over 362880 candidate permutations "
            "exceeds the bound 40320\n"
        )

    def test_lattice_subspace(self, capsys):
        code, payload = run_json(capsys, "lattice", "subspace", "2", "2")
        assert code == 0
        assert payload["results"]["minimal_nontrivial_length"] == 3

    def test_lattice_module_rank(self, capsys):
        code, payload = run_json(
            capsys, "lattice", "subspace", "2", "3", "--module-rank", "2"
        )
        assert code == 0
        assert payload["results"]["module_threshold"] == 15
        assert payload["results"]["minimal_nontrivial_length"] == 3

    def test_lattice_digest_reads_the_columns(self, capsys, monkeypatch):
        from posetmetrics.lattices import MoebiusTable

        def refuse(table):
            raise AssertionError("the lattice command built the entries dict")

        monkeypatch.setattr(MoebiusTable, "entries", property(refuse))
        code, payload = run_json(
            capsys, "lattice", "subspace", "2", "3", "--module-rank", "2"
        )
        assert code == 0
        assert len(payload["results"]["moebius_digest"]) == 32

    def test_lattice_boolean(self, capsys):
        code, payload = run_json(capsys, "lattice", "boolean", "2")
        assert code == 0
        assert payload["results"]["minimal_nontrivial_length"] == 2

    def test_lattice_all_trivial(self, tmp_path, capsys):
        doc = {"ground": [1, 2], "members": [[1], [1, 2]]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        code, payload = run_json(capsys, "lattice", "file", str(path))
        assert code == 0
        assert payload["results"]["all_solutions_trivial"] is True

    @pytest.mark.parametrize(
        "spec, message",
        [
            (("subspace", "x", "2"), "usage: lattice subspace <q> <k>"),
            (("subspace", "2"), "usage: lattice subspace <q> <k>"),
            (("boolean", "2.5"), "usage: lattice boolean <n>"),
            (("boolean", "-3"), "n must be >= 0"),
            (("subspace", "2", "0"), "validation error: k must be >= 1, got 0\n"),
            (("subspace", "3", "-2"), "validation error: k must be >= 1, got -2\n"),
            (("subspace", "4", "2"), "not prime"),
            (("subspace", "2", "3", "--module-rank", "0"), "rank e must be at least 1"),
        ],
    )
    def test_lattice_bad_arguments_exit_two(self, capsys, spec, message):
        assert main(["lattice", *spec]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["1/0", "-3/0", "0/0"])
    def test_zero_denominator_weight_is_named(self, tmp_path, capsys, raw):
        path = tmp_path / "zero_denominator.json"
        doc = {"q": 2, "poset": {"elements": ["a", "b"], "covers": []}, "omega": {"a": "1", "b": raw}}
        path.write_text(json.dumps(doc))
        assert main(["poset", "--instance", str(path)]) == 2
        assert capsys.readouterr().err == f"validation error: omega[b]: {raw!r} has a zero denominator\n"

    @pytest.mark.parametrize("spec", [("boolean", "30"), ("subspace", "2", "7"), ("subspace", "2", "13")])
    def test_lattice_bounds_exit_three_before_work(self, capsys, spec):
        start = time.perf_counter()
        assert main(["lattice", *spec]) == 3
        assert time.perf_counter() - start < 1
        assert "bound" in capsys.readouterr().err

    def test_lattice_file_member_bound_exits_three_before_work(self, tmp_path, capsys):
        # the pointed boolean family over 12 points, under a ground of one
        # more point: a lattice of 4097 members that exited 0 after 3.5 s
        members = [[0, *c] for r in range(13) for c in itertools.combinations(range(1, 13), r)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"ground": list(range(14)), "members": [*members, list(range(14))]}))
        start = time.perf_counter()
        assert main(["lattice", "file", str(path)]) == 3
        assert time.perf_counter() - start < 1
        assert "4097 distinct members, over the member bound 4096" in capsys.readouterr().err

    def test_lattice_bad_files_exit_two(self, tmp_path, capsys):
        docs = [
            "not json",
            json.dumps({"ground": [1, 2], "members": [[1, 2], [3]]}),
            json.dumps({"ground": [1, {"a": 1}], "members": [[1]]}),
            json.dumps({"ground": [1], "members": 5}),
        ]
        for t, text in enumerate(docs):
            path = tmp_path / f"bad{t}.json"
            path.write_text(text)
            assert main(["lattice", "file", str(path)]) == 2
        (tmp_path / "latin1.json").write_bytes(b"\xff")
        assert main(["lattice", "file", str(tmp_path / "latin1.json")]) == 2

    def test_macwilliams_and_audit_trace_the_class_table(self, capsys):
        # the trace says what the identity check did and stays out of the digest
        fourier._code_classes.cache_clear()
        path = str(INSTANCES / "mixed3.json")  # F_2^3: 16 codes, each its own class
        reports = [run_json(capsys, "macwilliams", "--instance", path)[1] for _ in range(2)]
        traces = [report.pop("trace") for report in reports]
        assert [list(trace) for trace in traces] == [
            ["class_table", "codes_enumerated", "classes_folded", "build_ms", "fold_ms"]] * 2
        assert [(t["class_table"], t["codes_enumerated"], t["classes_folded"]) for t in traces] == [
            ("built", 16, 16), ("reused", 0, 16)]
        assert all(t["build_ms"] >= 0 and t["fold_ms"] >= 0 for t in traces)
        fourier._code_classes.cache_clear()
        _, audit = run_json(capsys, "audit", "--instance", path)
        audit_trace = audit.pop("trace")
        assert list(audit_trace) == ["brute_force", "macwilliams_identity"]
        identity = audit_trace["macwilliams_identity"]
        assert (identity["class_table"], identity["codes_enumerated"]) == ("built", 16)
        assert list(audit_trace["brute_force"]) == [
            "key", "group_order", "kernel", "group_table", "codes_read", "codes_decided", "verdict"]
        assert audit_trace["brute_force"]["verdict"] == "scanned"
        assert reports[0]["report_digest"] == reports[1]["report_digest"]
        for report in (reports[0], audit):
            body = {key: report[key] for key in ("command", "instance_digest", "results", "witnesses")}
            assert build_report(**body)["report_digest"] == report["report_digest"]

    def test_macwilliams_refutation(self, capsys):
        code, payload = run_json(
            capsys, "macwilliams", "--instance", str(INSTANCES / "mixed3.json")
        )
        assert code == 0
        assert payload["results"]["identity_holds"] is False
        assert payload["witnesses"]["code_pair"]["first_basis"]

    def test_audit_consistent(self, capsys):
        code, payload = run_json(capsys, "audit", "--instance", str(INSTANCES / "mixed3.json"))
        assert code == 0
        assert payload["results"]["consistent"] is True

    def test_accept_subset(self, capsys):
        code = main(["accept", "--only", "3", "--json"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 0
        assert payload["results"]["all_passed"] is True
        assert "criterion 3" in captured.err

    def test_accept_shrunk_grid(self, capsys):
        code = main(["accept", "--only", "8", "--max-elements", "3", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["results"]["all_passed"] is True

    @pytest.mark.parametrize("only", ["99", "3,99", "3,"])
    def test_accept_unknown_keys_exit_two(self, capsys, only):
        assert main(["accept", "--only", only]) == 2
        err = capsys.readouterr().err
        assert "unknown criterion keys" in err and "valid keys: 1, 2, 3, 4, 5, 6, 7, 8, 9, 10" in err

    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    def test_accept_max_elements_below_one_exits_two(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["accept", "--only", "8", "--max-elements", value])
        assert exc.value.code == 2
        assert "is not an integer >= 1" in capsys.readouterr().err

    def test_accept_seed_must_be_an_integer(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["accept", "--only", "9", "--seed", "x"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_closed_stdout_is_not_a_failure(self):
        argv = ["mep", "--instance", str(INSTANCES / "mixed3.json"), "--brute-force", "--json"]
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.Popen(
            [sys.executable, "-m", "posetmetrics.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # the reader goes away before the report is written
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_internal_error_exits_four(self, capsys, monkeypatch):
        def broken(args):
            raise KeyError("missing")

        monkeypatch.setattr(cli, "cmd_poset", broken)
        assert main(["poset", "--instance", str(INSTANCES / "chain3.json")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: KeyError: 'missing'\n"


class TestDeterminism:
    def test_reports_are_byte_identical_modulo_timing(self, capsys):
        _, first = run_json(capsys, "poset", "--instance", str(INSTANCES / "chain3.json"))
        _, second = run_json(capsys, "poset", "--instance", str(INSTANCES / "chain3.json"))
        first.pop("timing_ms")
        second.pop("timing_ms")
        assert first == second

    def test_digest_ignores_timing(self, capsys):
        _, first = run_json(capsys, "mep", "--instance", str(INSTANCES / "chain3.json"))
        _, second = run_json(capsys, "mep", "--instance", str(INSTANCES / "chain3.json"))
        assert first["report_digest"] == second["report_digest"]

    def test_accept_digest_is_stable(self, capsys):
        reports = []
        for _ in range(2):
            assert main(["accept", "--only", "1,2,3", "--json"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        first, second = reports
        assert first["report_digest"] == second["report_digest"]
        assert sorted(first["trace"]["elapsed_s"]) == ["1", "2", "3"]
        assert all("elapsed_s" not in c for c in first["results"]["criteria"])

    def test_digest_ignores_trace(self):
        results = {"all_passed": True}
        plain = build_report("accept", None, results)
        traced = build_report("accept", None, results, trace={"elapsed_s": {"1": 0.5}})
        slower = build_report("accept", None, results, trace={"elapsed_s": {"1": 9.0}})
        assert plain["report_digest"] == traced["report_digest"] == slower["report_digest"]
        assert traced["trace"] == {"elapsed_s": {"1": 0.5}}


# Tokens that mix valid sizes, sizes past each bound, and non-integers; the
# valid combinations stay small enough that an example runs in milliseconds.
SIZE_TOKENS = ["-3", "-1", "0", "1", "2", "3", "5", "7", "13", "30", "99999999999999", "x", "2.5", ""]
LATTICE_ARGV = st.one_of(
    st.tuples(st.just("subspace"), st.sampled_from(SIZE_TOKENS), st.sampled_from(SIZE_TOKENS)),
    st.tuples(st.just("boolean"), st.sampled_from(SIZE_TOKENS[:6] + SIZE_TOKENS[8:])),
    st.tuples(st.sampled_from(["subspace", "boolean", "file", "other"]), st.text(max_size=6)),
    st.lists(st.text(max_size=6), min_size=1, max_size=4),
).flatmap(
    lambda spec: st.one_of(
        st.just(list(spec)),
        st.sampled_from(["-1", "0", "1", "2", "x"]).map(lambda e: [*spec, "--module-rank", e]),
    )
)


class TestLatticeFuzz:
    @settings(max_examples=150, deadline=None)
    @given(LATTICE_ARGV)
    def test_exit_codes_are_documented(self, spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["lattice", *spec])
            except SystemExit as exc:  # argparse rejects the arguments (or prints help)
                code = exc.code
        assert code in (0, 2, 3)


class TestBoundsAtLoad:
    @pytest.mark.parametrize("command", INSTANCE_COMMANDS, ids=" ".join)
    def test_too_many_elements_exit_three(self, tmp_path, capsys, command):
        doc = {"q": 2, "poset": {"elements": [f"e{t}" for t in range(30)], "covers": []}}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        assert main([*command, "--instance", str(path)]) == 3
        assert f"30 poset elements exceed the element bound {ELEMENT_BOUND}" in capsys.readouterr().err

    def test_element_bound_is_checked_before_validation(self):
        labels = [f"e{t}" for t in range(400)]
        doc = {"q": 2, "poset": {"elements": labels, "covers": list(zip(labels, labels[1:]))}}
        start = time.perf_counter()
        with pytest.raises(BoundExceeded, match="400 poset elements"):
            instance_from_dict(doc)
        assert time.perf_counter() - start < 0.1
        doc["poset"]["elements"] = labels[:ELEMENT_BOUND]
        doc["poset"]["covers"] = doc["poset"]["covers"][: ELEMENT_BOUND - 1]
        assert len(instance_from_dict(doc).poset.elements) == ELEMENT_BOUND

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit"
    )
    @pytest.mark.parametrize("command", INSTANCE_COMMANDS, ids=" ".join)
    def test_integer_past_the_digit_limit_exits_two(self, tmp_path, capsys, command):
        # json.loads refuses an int of over 4300 digits with a bare ValueError
        path = tmp_path / "huge.json"
        path.write_text('{"q": ' + "1" * 4401 + ', "poset": {"elements": ["a"], "covers": []}}')
        start = time.perf_counter()
        assert main([*command, "--instance", str(path)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: instance file is not valid JSON: Exceeds the limit")

    @pytest.mark.parametrize(
        "q, named",
        [(2**61 - 1, "2305843009213693951"), (10**4299, "at least 2^14280")],
        ids=["mersenne61", "4300-digits"],
    )
    @pytest.mark.parametrize("command", ["poset", "mep"])
    def test_field_bound_exits_three_before_the_primality_test(
        self, tmp_path, capsys, q, named, command
    ):
        # trial division of 2^61 - 1 ran for minutes
        path = tmp_path / "huge_q.json"
        path.write_text(json.dumps({"q": q, "poset": {"elements": ["a"], "covers": []}}))
        start = time.perf_counter()
        assert main([command, "--instance", str(path)]) == 3
        assert time.perf_counter() - start < 1
        message = f"bound exceeded: field size {named} exceeds the field bound 4294967296\n"
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize(
        "command, code",
        [
            (["poset"], 0),
            (["isometries"], 3),
            (["isometries", "--brute-force"], 3),
            (["mep"], 0),
            (["mep", "--mode", "psupport"], 0),
            (["mep", "--brute-force"], 3),
            (["macwilliams"], 3),
            (["audit"], 3),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
    )
    def test_huge_dimension_keeps_the_exit_code_contract(self, tmp_path, capsys, command, code):
        # 2^100000 vectors: a count of over 4300 digits is named by its bit length
        path = tmp_path / "huge_dim.json"
        doc = {"q": 2, "poset": {"elements": ["a"], "covers": []}, "omega": {"a": "1"},
               "dims": {"a": 100000}}
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main([*command, "--instance", str(path)]) == code
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        if command == ["isometries", "--brute-force"]:  # the oracle's bound is checked first
            table = "the action table of GL_100000(F_2) on F_2^100000 has over 2^100000 entries"
            assert err == f"bound exceeded: {table}, over the bound 4194304\n"
        elif code == 3:
            assert "at least 2^99999, " in err or "at least 2^100000 vectors" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"q": 2, "poset": {"elements": ["a"], "covers": []}, "omega": {"a": "1"},
             "dims": {"a": 10**12}},
            {"q": 3, "poset": {"elements": ["a", "b"], "covers": [["a", "b"]]},
             "dims": {"a": 10**12, "b": 2}},
            {"q": 4294967291, "poset": {"elements": ["a", "b"], "covers": []},
             "dims": {"a": 1, "b": 10**12}},
        ],
        ids=["F2-one-label", "F3-chain", "largest-field"],
    )
    def test_hostile_dimension_exits_three_in_a_memory_capped_child(self, tmp_path, doc):
        # q^(10^12) would be a 10^12-bit int; under the child's address-space
        # cap a regression ends in MemoryError (exit 4), not a full machine
        resource = pytest.importorskip("resource")
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc))
        expected = {
            "poset": 0, "mep": 0, "mep --mode psupport": 0, "isometries": 3,
            "isometries --brute-force": 3, "mep --brute-force": 3, "macwilliams": 3, "audit": 3,
        }
        results = run_capped(resource, path, list(expected))
        for command, code in expected.items():
            got, elapsed, err, _ = results[command]
            assert (got, "internal error" in err) == (code, False), (command, err)
            assert elapsed < 1, (command, elapsed)
            if code == 3:
                assert err.startswith("bound exceeded: "), (command, err)

    @pytest.mark.parametrize("command", ["mep --brute-force", "audit"])
    def test_three_f3_planes_refuse_the_listed_group_in_a_memory_capped_child(
        self, tmp_path, command
    ):
        # 663,552 elements over 729 vectors, 484M index entries: they used to
        # be listed until MemoryError (exit 4); the entry bound refuses first
        resource = pytest.importorskip("resource")
        path = tmp_path / "planes3_f3.json"
        doc = {"q": 3, "poset": {"elements": ["a", "b", "c"], "covers": []},
               "dims": {"a": 2, "b": 2, "c": 2}}
        path.write_text(json.dumps(doc))
        code, elapsed, err, _ = run_capped(resource, path, [command])[command]
        assert code == 3 and elapsed < 1, (code, elapsed, err)
        assert err == "bound exceeded: group index table of 483729408 entries exceeds 134217728\n"

    @pytest.mark.parametrize(
        "command, digest",
        [
            ("audit", "6ec29d4cd8c6e25a9a74e7c60457ec587f533a0dca351c57ec835f30ee37bd2a"),
            ("mep --brute-force",
             "0283c54b0167284110c31f6f5f3723ef469f70c5ee503eb7a39f76cc2ffba5f8"),
        ],
    )
    def test_f3_five_scans_in_a_memory_capped_child(self, tmp_path, command, digest):
        # a < b, c apart, dims (2, 2, 1): 373,248 elements over 243 vectors,
        # 90.7M table entries; as tuples they took 1.45 GB and 12-17 s, which
        # the child's 1 GB cap ends in MemoryError (exit 4), and the packed
        # table 195 MB; now the scan fails at its first line, on closure
        # masks, and the orbit check reads masks too, so no table is built
        resource = pytest.importorskip("resource")
        path = tmp_path / "f3_five.json"
        doc = {"q": 3, "poset": {"elements": ["a", "b", "c"], "covers": [["a", "b"]]},
               "dims": {"a": 2, "b": 2, "c": 1}}
        path.write_text(json.dumps(doc))
        code, elapsed, err, got = run_capped(resource, path, [command])[command]
        assert (code, err, got) == (0, "", digest) and elapsed < 5, (code, elapsed, err)

    def test_three_f3_planes_psupport_scan_meets_the_map_bound_in_a_memory_capped_child(
        self, tmp_path
    ):
        # the doubling weights admit no label map but the identity: 110,592
        # elements and 80.6M table entries, under the entry bound; every line
        # holds on closure masks, and the candidate-map bound stops the scan
        # at the first plane, before any table is built
        resource = pytest.importorskip("resource")
        path = tmp_path / "planes3_f3.json"
        doc = {"q": 3, "poset": {"elements": ["a", "b", "c"], "covers": []},
               "dims": {"a": 2, "b": 2, "c": 2}}
        path.write_text(json.dumps(doc))
        command = "mep --mode psupport --brute-force"
        code, elapsed, err, _ = run_capped(resource, path, [command])[command]
        assert code == 3 and elapsed < 3, (code, elapsed, err)
        assert err == (
            "bound exceeded: 531441 candidate maps at dimension 2 exceed the bound 524288; "
            "raise it with --bound\n"
        )

    def test_eight_labels_beside_a_chain_scan_in_a_memory_capped_child(self, tmp_path):
        # eight unrelated F_2 points and a 2-chain: 8! x 2 elements over 1024
        # vectors, whose table took 11-17 s and 272 MB; the first line fails
        # on closure masks, so no table is built
        resource = pytest.importorskip("resource")
        path = tmp_path / "eight_beside_chain.json"
        doc = {"q": 2, "poset": {"elements": list("abcdefghij"), "covers": [["i", "j"]]}}
        path.write_text(json.dumps(doc))
        command = "mep --brute-force"
        code, elapsed, err, got = run_capped(resource, path, [command])[command]
        digest = "559d3813eb6fb55d54718fdd1b1be7bbfd2ef4f52c7717b9ed296f7a573848d2"
        assert (code, err, got) == (0, "", digest) and elapsed < 3, (code, elapsed, err)

    @pytest.mark.parametrize(
        "dims, covers, digest",
        [
            ({"a": 2, "b": 2, "c": 1}, [["a", "b"]],
             "6c71356560bfee530ec2e9d240ee6bc472615f3b7f862d2bc4059a21d585ce5b"),
            ({"a": 2, "b": 2, "c": 2}, [],
             "4e6a9fba0af1d8b9488b0119ffe7a6a7db60dfd0fe0dbab4b325ba43dd5a1d15"),
        ],
        ids=["f3-five", "three-f3-planes"],
    )
    def test_isometries_counts_f3_groups_in_a_memory_capped_child(
        self, tmp_path, dims, covers, digest
    ):
        # 373,248 and 663,552 elements: the orders are closed forms and only
        # the three sample elements are built, so neither group is listed
        resource = pytest.importorskip("resource")
        path = tmp_path / "f3.json"
        doc = {"q": 3, "poset": {"elements": ["a", "b", "c"], "covers": covers}, "dims": dims}
        path.write_text(json.dumps(doc))
        code, elapsed, err, got = run_capped(resource, path, ["isometries"])["isometries"]
        assert (code, err, got) == (0, "", digest) and elapsed < 1, (code, elapsed, err)

    def test_oracle_refusal_comes_before_the_structured_group(self, capsys, monkeypatch):
        def listed(*args, **kwargs):
            raise AssertionError("the structured group was listed")

        for name in ("weight_isometry_group", "enumerate_group", "admissible_lams"):
            monkeypatch.setattr(isometries, name, listed)
        path = INSTANCES / "antichain3_k2.json"
        assert main(["isometries", "--brute-force", "--instance", str(path)]) == 3
        assert "the action table of GL_6(F_2) on F_2^6 has" in capsys.readouterr().err

    def test_oracle_action_table_exits_three_before_it_is_built(self, tmp_path, capsys):
        path = tmp_path / "q19.json"
        path.write_text(json.dumps({"q": 19, "poset": {"elements": ["a", "b"], "covers": []}}))
        start = time.perf_counter()
        assert main(["isometries", "--brute-force", "--instance", str(path)]) == 3
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "GL_2(F_19) on F_19^2 has 44446320 entries, over the bound 4194304" in err

    def test_group_bound_exits_three_before_the_full_order(self, tmp_path, capsys):
        # |GL_3000(F_2)| has about 9M bits; the bound is passed by its first factor
        path = tmp_path / "wide_block.json"
        doc = {"q": 2, "poset": {"elements": ["a"], "covers": []}, "dims": {"a": 3000}}
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["isometries", "--instance", str(path)]) == 3
        assert time.perf_counter() - start < 1
        # the first factor, 2^3000 - 1, is named by its bit length
        message = "isometry group order reaches at least 2^2999, over the bound 1048576"
        assert f"{message}; raise it with --bound\n" in capsys.readouterr().err

    def test_group_bound_under_mep_names_no_flag(self, tmp_path, capsys):
        # mep --bound sets the candidate-map bound, not the group bound, so the
        # q = 2 8-chain's group (2^28 strict-block choices) stays refused
        path = tmp_path / "chain8.json"
        elements = list("abcdefgh")
        doc = {"q": 2, "poset": {"elements": elements, "covers": list(zip(elements, elements[1:]))}}
        path.write_text(json.dumps(doc))
        argv = ["mep", "--brute-force", "--bound", str(1 << 40), "--instance", str(path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "bound exceeded: isometry group order reaches 2097152, over the bound 1048576\n"

    @pytest.mark.parametrize("command", ["macwilliams", "audit"])
    def test_code_bound_exits_three_at_once(self, tmp_path, capsys, command):
        # F_2^9 has 8,283,458 subspaces; without the bound the enumeration ran past two minutes
        path = tmp_path / "chain9.json"
        elements = list("abcdefghi")
        doc = {"q": 2, "poset": {"elements": elements, "covers": list(zip(elements, elements[1:]))}}
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main([command, "--instance", str(path)]) == 3
        assert time.perf_counter() - start < 1
        message = "F_2^9 has 8283458 subspaces, over the code bound 65536"
        assert message in capsys.readouterr().err

    def test_map_bound_under_audit_names_no_flag(self, tmp_path, capsys):
        # audit scans MEP under the default map bound, and has no --bound to raise it
        path = tmp_path / "chain5.json"
        elements = list("abcde")
        doc = {"q": 2, "poset": {"elements": elements, "covers": list(zip(elements, elements[1:]))}}
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["audit", "--instance", str(path)]) == 3
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err == (
            "bound exceeded: 1048576 candidate maps at dimension 4 exceed the bound 524288\n"
        )


BROKEN_LABELS = ["a", 1, None, ""]
BROKEN_WEIGHTS = ["0", "-1", "x", 0.5, None]
BROKEN_DIMS = [0, -1, True, "1", 1.5]


@st.composite
def instance_docs(draw):
    """Instance documents of at most three labels over a space of at most 27
    vectors.  Each field is broken once in eight draws, so most documents load."""

    def pick(valid, broken):
        return draw(st.sampled_from(broken if draw(st.integers(0, 7)) == 0 else valid))

    labels = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    pairs = [[x, y] for x in labels for y in labels if x != y]
    covers = draw(st.lists(st.sampled_from(pairs or [["a", "a"]]), max_size=3))
    doc = {
        "q": pick([2, 2, 3], [4, 1, 0, True, "2", 2.0]),
        "poset": {
            "elements": labels + pick([[]], [[x] for x in BROKEN_LABELS]),
            "covers": covers + pick([[]], [[["a"]], [["a", "z"]], [None], [7]]),
        },
    }
    if draw(st.booleans()):
        doc["omega"] = {k: draw(st.sampled_from(["1", "2", "1/2", 3])) for k in labels}
        doc["omega"][labels[0]] = pick(["1"], BROKEN_WEIGHTS)
    if draw(st.booleans()):
        # one block of dimension 2, over F_2 only, keeps every space within F_2^4 or F_3^3
        doc["dims"] = {k: 1 for k in labels}
        doc["dims"][labels[0]] = pick([1, 2] if doc["q"] == 2 else [1], BROKEN_DIMS)
    return pick([doc], [doc["poset"], [doc], {**doc, "q": None}])


class TestInstanceFuzz:
    @settings(max_examples=300, deadline=None)
    @given(instance_docs())
    def test_loader_raises_only_documented_errors(self, doc):
        try:
            instance_from_dict(doc)
        except (ValidationError, BoundExceeded):
            pass

    @settings(max_examples=150, deadline=None)
    @given(instance_docs())
    def test_every_instance_command_exits_with_a_documented_code(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(json.dumps(doc))
        for command in INSTANCE_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, "--instance", str(path)])
            assert code in (0, 1, 2, 3), (command, err.getvalue())
            assert "Traceback" not in err.getvalue()
