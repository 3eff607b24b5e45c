"""Report digests of the CLI commands on every sample instance, against a checked-in baseline.

`tests/data/report_digests.json` maps each command line to its exit code
and `report_digest`.  A run that exits with a bound refusal has no report,
so its entry records the code only.  A refactor that keeps every verdict,
witness and report byte-identical keeps this file unchanged.

Re-record (only after a deliberate change of a report) with
`PYTHONPATH=src python tests/test_digests.py --record`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from posetmetrics.cli import main

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "tests" / "data" / "report_digests.json"

INSTANCE_COMMANDS = (
    ("poset",),
    ("isometries",),
    ("isometries", "--brute-force"),
    ("mep",),
    ("mep", "--brute-force"),
    ("mep", "--mode", "psupport"),
    ("mep", "--mode", "psupport", "--brute-force"),
    ("macwilliams",),
    ("audit",),
)
# The instances under tests/data are kept out of instances/, whose every file
# the benchmark's CLI session runs.  The F_2^4 one covers the GL_4(F_2) oracle
# path; the 6- and 8-element ones cover the poset layer beyond 3 labels.
DATA_COMMANDS = (
    ("isometries", "--brute-force", "--instance", "tests/data/vee_f2_4.json"),
    ("audit", "--instance", "tests/data/vee_f2_4.json"),
    *(
        (*command, "--instance", f"tests/data/{name}")
        for name in ("tiers6_f3.json", "crown8_f2.json")
        for command in (("poset",), ("mep", "--mode", "psupport"))
    ),
)
LATTICE_COMMANDS = (
    ("lattice", "subspace", "3", "2"),
    ("lattice", "subspace", "2", "3", "--module-rank", "2"),
    ("lattice", "boolean", "3"),
    ("lattice", "subspace", "2", "6"),
    ("lattice", "subspace", "2", "5", "--module-rank", "1"),
    ("lattice", "boolean", "6"),
)
# The acceptance grid runs every criterion; its times live under `trace`.
ACCEPT_COMMANDS = (("accept",),)


def command_lines() -> list[tuple[str, ...]]:
    lines = [
        (*command, "--instance", f"instances/{path.name}")
        for path in sorted((ROOT / "instances").glob("*.json"))
        for command in INSTANCE_COMMANDS
    ]
    return lines + list(DATA_COMMANDS) + list(LATTICE_COMMANDS) + list(ACCEPT_COMMANDS)


def run_command(argv: tuple[str, ...]) -> dict:
    """Exit code and report digest of one CLI run, from the repository root."""
    argv = [str(ROOT / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--json"])
    entry = {"exit": code}
    if out.getvalue():
        entry["report_digest"] = json.loads(out.getvalue())["report_digest"]
    return entry


def _baseline() -> dict:
    return json.loads(BASELINE.read_text())


def test_baseline_covers_every_command():
    assert sorted(_baseline()) == sorted(" ".join(argv) for argv in command_lines())


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_report_digest_unchanged(argv):
    assert run_command(argv) == _baseline()[" ".join(argv)]


# Six unrelated planes over F_2, weights 1 on a-c and 2 on d-f: both weight
# classes of the one level break the level class bound, and the witness is
# the class of the first label in position order.
TWO_CLASS_LEVEL = {
    "q": 2,
    "poset": {"elements": list("abcdef"), "covers": []},
    "omega": {label: "1" if label in "abc" else "2" for label in "abcdef"},
    "dims": {label: 2 for label in "abcdef"},
}


def test_report_digest_is_independent_of_the_hash_seed(tmp_path):
    path = tmp_path / "two_class_level.json"
    path.write_text(json.dumps(TWO_CLASS_LEVEL))
    reports = []
    for seed in ("0", "2"):  # seed 2 once named the weight-2 class
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run(
            [sys.executable, "-m", "posetmetrics.cli", "mep", "--instance", str(path), "--json"],
            env=env, capture_output=True, text=True, check=True,
        )
        reports.append(json.loads(run.stdout))
    first, second = reports
    assert first["results"]["predicate"]["trace"]["bound_witness"] == [1, "1", ["a", "b", "c"]]
    assert first["report_digest"] == second["report_digest"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_digests.py --record")
    BASELINE.parent.mkdir(exist_ok=True)
    entries = {" ".join(argv): run_command(argv) for argv in command_lines()}
    BASELINE.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entries)} entries in {BASELINE.relative_to(ROOT)}")
