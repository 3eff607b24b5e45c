"""Tests of the benchmark itself: smoke runs, the digest gate, the tracer.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import inspect
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = 4  # cases per part in a smoke run; tiny runs are a subset of the full ones
SEED = 1  # a recorded seed, so every tiny case must match its committed digest


def _snapshot():
    """Every attribute of every posetmetrics module and of the classes they define."""
    import importlib

    snap = {}
    for name in tracing.MODULES:
        module = importlib.import_module(name)
        snap[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == name:
                snap[f"{name}.{attr}"] = dict(vars(value))
    return snap


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_checks_every_case(workload):
    summary = workloads.run_pass(workload, SEED, limit=TINY)
    assert summary["recorded_seed"]
    assert summary["failed"] == 0, summary["failures"]
    assert 0 < len(summary["digests"]) <= summary["cases"]  # equal inputs share a key
    assert None not in summary["digests"].values()


def test_tampered_digest_counts_as_failure():
    expected = workloads.load_expected("mep_grid")
    cases, _ = workloads.build_cases("mep_grid", SEED, limit=TINY)
    tampered = copy.deepcopy(expected)
    tampered["digests"][cases[0].key] = ["0" * 16]
    summary = workloads.run_pass("mep_grid", SEED, limit=TINY, expected=tampered)
    assert summary["failed"] == 1
    assert summary["failures"][0]["key"] == cases[0].key
    assert "not in the expected" in summary["failures"][0]["error"]


def test_unrecorded_case_fails_on_a_recorded_seed():
    expected = workloads.load_expected("lattice_moebius")
    cases, _ = workloads.build_cases("lattice_moebius", SEED, limit=TINY)
    missing = copy.deepcopy(expected)
    del missing["digests"][cases[-1].key]
    summary = workloads.run_pass("lattice_moebius", SEED, limit=TINY, expected=missing)
    assert summary["failed"] == 1


def test_speed_probe_adjusts_latencies_and_restores_the_timer():
    import signal

    handler = signal.getsignal(signal.SIGALRM)
    summary = workloads.run_pass("lattice_moebius", SEED, limit=TINY)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert summary["speed_samples"] >= 9  # bursts around set-up and after the last case
    raw, adjusted = summary["raw_latencies_ms"], summary["latencies_ms"]
    assert len(raw) == len(adjusted) == summary["cases"]
    assert all(x > 0 for x in adjusted)
    assert sum(raw) / 1000 <= summary["wall_s"]  # the probe's own time is in neither


def test_speed_is_the_mean_of_the_samples_near_a_window():
    probe = speed.SpeedProbe()
    probe.times = [0.0, 0.1, 0.2, 10.0]
    probe.speeds = [1.0, 2.0, 4.0, 8.0]
    assert speed.SAMPLE_EVERY_S < 0.1
    assert probe.speed(0.1, 0.1) == pytest.approx(2.0)
    assert probe.speed(0.0, 0.2) == pytest.approx(7 / 3)
    assert probe.speed(5.0, 5.1) == pytest.approx(6.0)  # nothing near: both neighbours


def test_every_target_resolves():
    import importlib

    for module_name, path, _span, _count in tracing.TARGETS:
        module = importlib.import_module(f"posetmetrics.{module_name}")
        assert tracing._resolve(module, path) is not None, (module_name, path)


def test_install_and_uninstall_restore_every_attribute():
    import posetmetrics.mep as mep
    import posetmetrics.posets as posets

    before = _snapshot()
    original_scan = mep.mep_brute_force
    original_init = vars(posets.Poset)["__init__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mep.mep_brute_force is not original_scan
        assert vars(posets.Poset)["__init__"] is not original_init
        import posetmetrics

        assert posetmetrics.mep_brute_force is mep.mep_brute_force  # re-exports are wrapped too
        assert sys.modules["posetmetrics.fourier"].mep_brute_force is mep.mep_brute_force
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert before.keys() == after.keys()
    for owner, attrs in before.items():
        assert attrs.keys() == after[owner].keys(), owner
        for attr, value in attrs.items():
            assert after[owner][attr] is value, f"{owner}.{attr}"


def test_traced_pass_matches_untraced_and_accounts_for_wall_time():
    import shutil

    trace_dir = workloads.OUT_DIR / "test-trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    plain = workloads.run_pass("mep_grid", SEED, limit=TINY)
    traced = workloads.run_pass("mep_grid", SEED, limit=TINY, trace_dir=trace_dir)
    assert traced["digests"] == plain["digests"]
    assert abs(traced["trace_residual_s"]) <= 1e-6 * traced["wall_s"]
    metrics = traced["trace"]
    assert metrics["mep.mep_brute_force.calls"] == traced["cases"]
    assert metrics["mep.self_s"] > 0 and metrics["lattices.self_s"] == 0
    assert metrics["mep.codes_scanned"] > 0 and metrics["mep.candidate_maps"] > 0
    import gzip

    raw = gzip.decompress((trace_dir / "spans.bin.gz").read_bytes())
    assert len(raw) == traced["trace_spans"] * tracing.SPAN.size
    spans = list(tracing.SPAN.iter_unpack(raw))
    assert all(parent < t for t, (_n, parent, *_rest) in enumerate(spans))
    assert all(start <= end for *_head, start, end in spans)


def test_generator_spans_count_yields():
    import posetmetrics as pm

    tracer = tracing.Tracer()
    space = pm.AlphabetSpec(pm.FieldSpec(2), ("a", "b"), (1, 1))
    tracer.install()
    try:
        codes = list(pm.enumerate_codes(space))
    finally:
        tracer.uninstall()
    tracer.fold()
    totals = tracer.named_totals()
    calls, _self_s, yielded = totals["spaces.enumerate_codes"]
    assert yielded == len(codes) == 5
    assert calls == len(codes) + 1  # the last resumption ends the generator


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for metric in spec["per_layer"]:
        assert metric["unit"] == tracing.metric_unit(metric["name"])
