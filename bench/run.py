"""Benchmark entry point: one workload, one seed, measured for a fixed time.

    python3 bench/run.py --workload mep_grid --seed 1 --seconds 25 --trace 0

Load model: a closed loop in one client process, one case at a time, no
threads.  Every pass of a workload runs in a fresh interpreter (module-level
caches start empty, as in every real invocation), and at most one child
process runs at once.

With --trace 0 the run makes one or more passes (as many as nominally fit
in --seconds), each in its own fresh interpreter, with a set-up-only
interpreter before, between and after them.  The host's vCPUs change speed
by up to 1.7x within seconds, so timings are adjusted to a reference CPU
speed by the probe in speed.py, which times a fixed stretch of interpreter
work on the same thread during the cases (in each CLI child for
cli_session, through cli_probe.py).  The end-to-end metrics
are wall_s, the sum of the case latencies (time to solution of one pass);
case_p50_ms and case_p90_ms over them; setup_s, the median adjusted set-up
time; and peak_rss_mb, the median over passes.  With more than one pass, a
case's latency is its fastest over the passes.  With --trace 1 it runs one
untraced and one traced pass and prints the per-layer metrics of the traced
one, unadjusted.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  A run is correct when every case passed its invariant
checks, matched its committed digest where one is recorded, and (traced)
the traced pass returned the same digests as the untraced one.  Expected
refusals of documented resource bounds are checked outcomes, not failures;
the detailed report under bench/out/ counts them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("mep_grid", "lattice_moebius", "structure_census", "cli_session")
PASS_TIMEOUT_S = 170
# Seconds one pass takes on a 2-core x86 box (Python 3.11).  A run makes
# --seconds // this many passes, and at least one: a fixed count, so
# every run of a workload takes each case's best of the same number of
# passes, whatever the machine's speed during the run.
NOMINAL_PASS_S = {"mep_grid": 13.5, "lattice_moebius": 8, "structure_census": 11.5, "cli_session": 22.5}


def child(args: list[str]) -> dict:
    """Run workloads.py in a fresh interpreter and return its JSON summary.

    The child gets its own process group, so a timeout also stops the CLI
    processes it may have started.
    """
    env = dict(os.environ, BENCH_LAUNCHED_AT=repr(time.perf_counter()))
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "workloads.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"pass {args} exited {proc.returncode}: {stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def metadata() -> dict:
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )
    sha = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if probe.returncode == 0:
            sha = probe.stdout.strip()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_lines": src_lines,
    }


def untraced_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    def setup_probe() -> float:
        return child(["--workload", workload, "--seed", str(seed), "--setup-only"])["setup_s"]

    count = max(1, int(seconds // NOMINAL_PASS_S[workload]))
    setups, passes = [setup_probe()], []
    for _ in range(count):
        passes.append(child(["--workload", workload, "--seed", str(seed)]))
        setups += [passes[-1]["setup_s"], setup_probe()]
    columns = list(zip(*(p["latencies_ms"] for p in passes), strict=True))
    best = [min(column) for column in columns]  # each case at its fastest pass
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    metrics = {
        "wall_s": (sum(best) / 1000, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "case_p50_ms": (statistics.median(best), "ms"),
        "case_p90_ms": (deciles[8], "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    samples = {"passes": len(passes), "setups": len(setups), "cases": len(best)}
    return metrics, passes, samples


def traced_run(workload: str, seed: int) -> tuple[dict, list[dict], dict]:
    import tracing

    plain = child(["--workload", workload, "--seed", str(seed)])
    trace_dir = OUT_DIR / f"trace-{workload}"  # one per workload: a pass can write 100 MB of spans
    shutil.rmtree(trace_dir, ignore_errors=True)
    traced = child(["--workload", workload, "--seed", str(seed), "--trace", str(trace_dir)])
    layer = dict(traced["trace"])
    layer["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    metrics = {name: (layer[name], tracing.metric_unit(name)) for name in tracing.per_layer_names()}
    checks = {
        "digests_equal": traced["digests"] == plain["digests"],
        # layer self times plus un-spanned time must give back the traced wall time
        "accounting_ok": abs(traced["trace_residual_s"]) <= 1e-6 * traced["wall_s"],
        "spans": traced["trace_spans"],
        "spans_dir": str(trace_dir.relative_to(ROOT)),
    }
    return metrics, [plain, traced], checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "posetmetrics" / "__init__.py").is_file():
        print(f"no posetmetrics package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # fill the bytecode cache first: users do not pay compilation on every run
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(BENCH_DIR)],
                   cwd=ROOT, check=True, capture_output=True, timeout=PASS_TIMEOUT_S)
    if args.trace:
        metrics, passes, extra = traced_run(args.workload, args.seed)
        correct_extra = extra["digests_equal"] and extra["accounting_ok"]
    else:
        metrics, passes, extra = untraced_run(args.workload, args.seed, args.seconds)
        correct_extra = True
    attempted = sum(p["cases"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    refused = sum(p["refused"] for p in passes)
    correct = failed == 0 and correct_extra
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "meta": metadata(),
        "attempted": attempted,
        "failed": failed,
        "refused": refused,
        # the share of attempted cases that failed or were refused by a bound
        "failed_or_refused_frac": (failed + refused) / attempted,
        "recorded_seed": all(p["recorded_seed"] for p in passes),
        "details": extra,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "passes": [
            {k: v for k, v in p.items()
             if k not in ("digests", "latencies_ms", "raw_latencies_ms", "trace")}
            for p in passes
        ],
    }
    report_path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED {args.workload} case {failure['case']} ({failure['part']}): "
                  f"{failure['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
