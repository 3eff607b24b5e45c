"""Record the expected digest of every case for some seeds.

    python3 bench/record.py --seeds 0 1 2

Runs one pass of each workload per seed and writes bench/expected/<workload>.json:
the recorded seeds and, per case key, the accepted digests.  A case key
hashes the case's plain inputs, so a case that does not depend on the seed
(unit weights, the instances/ files, the subspace lattices) is checked on
every seed.  Recording refuses a pass with a failed case, and a key that
gets different digests on different seeds.

Re-record only for a change that is meant to alter verdicts or witnesses,
and say which digests moved and why.
"""

from __future__ import annotations

import argparse
import json

import workloads

# A complete verdict is also correct where the seed commit refuses on a bound
# (the q=2 5-chain at default bounds): unit weights on a chain, so the closed
# form says the extension property holds, with no counterexample.
COMPLETE_CHAIN_VERDICT = workloads.digest_of(
    {"holds": True, "complete": True, "counterexample": None}
)


def record(workload: str, seeds: list[int]) -> dict:
    table: dict[str, str] = {}
    alternatives: dict[str, set] = {}
    for seed in seeds:
        summary = workloads.run_pass(workload, seed, expected={"seeds": [], "digests": {}})
        if summary["failed"]:
            raise SystemExit(f"{workload} seed {seed}: failed cases {summary['failures']}")
        for key, digest in summary["digests"].items():
            if table.setdefault(key, digest) != digest:
                raise SystemExit(f"{workload}: case {key} has different digests across seeds")
        for case in workloads.build_cases(workload, seed)[0]:
            if case.run is workloads.run_mep_case and case.data["refusal_expected"]:
                alternatives.setdefault(case.key, set()).add(COMPLETE_CHAIN_VERDICT)
    digests = {
        key: sorted({digest} | alternatives.get(key, set())) for key, digest in sorted(table.items())
    }
    return {"seeds": sorted(seeds), "digests": digests}


def dump(expected: dict) -> str:
    """The expected-digest file: one case per line, so diffs stay readable."""
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in expected["digests"].items()]
    return (f'{{"seeds": {json.dumps(expected["seeds"])},\n"digests": {{\n'
            + ",\n".join(lines) + "\n}}\n")


def main() -> None:
    parser = argparse.ArgumentParser(description="Record expected case digests.")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in args.workloads:
        expected = record(workload, args.seeds)
        path = workloads.EXPECTED_DIR / f"{workload}.json"
        path.write_text(dump(expected), encoding="utf-8")
        print(f"{workload}: {len(expected['digests'])} case digests for seeds {expected['seeds']}")


if __name__ == "__main__":
    main()
