"""Command layer: parsing, determinism, exit codes, witnesses."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from posetmetrics import cli, isometries
from posetmetrics.cli import main
from posetmetrics.instances import instance_from_dict, load_instance
from posetmetrics.errors import BoundExceeded, ValidationError
from posetmetrics.posets import ELEMENT_BOUND
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
        # give 2^22 isometries, so the filter never runs
        def unreachable(*args):
            raise AssertionError("the functional filter ran")

        monkeypatch.setattr(isometries, "admissible_automorphisms", unreachable)
        path = self.antichain_beside_chains(tmp_path, (2, 4, 6))
        assert main(["isometries", "--instance", path]) == 3
        message = "isometry group order reaches 2097152, over the bound 1048576"
        assert f"{message}; raise it with --bound\n" in capsys.readouterr().err

    def test_isometries_refuse_a_large_functional_filter(self, tmp_path, capsys):
        # 8! automorphisms over 256 * 3 * 4 ideals, with a group of 8! * 2^4
        path = self.antichain_beside_chains(tmp_path, (2, 3))
        assert main(["isometries", "--instance", path]) == 3
        message = "functional filter of 40320 automorphisms over 3072 ideals exceeds the bound 10321920"
        assert message in capsys.readouterr().err

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
            (("subspace", "4", "2"), "not prime"),
            (("subspace", "2", "3", "--module-rank", "0"), "rank e must be at least 1"),
        ],
    )
    def test_lattice_bad_arguments_exit_two(self, capsys, spec, message):
        assert main(["lattice", *spec]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [("boolean", "30"), ("subspace", "2", "7"), ("subspace", "2", "13")])
    def test_lattice_bounds_exit_three_before_work(self, capsys, spec):
        start = time.perf_counter()
        assert main(["lattice", *spec]) == 3
        assert time.perf_counter() - start < 1
        assert "bound" in capsys.readouterr().err

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
