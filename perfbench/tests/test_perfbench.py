"""Tests of the benchmark itself (not of qrr).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def test_measured_workloads_partition_the_default_suite():
    reference = gate.load_reference()
    owners = {}
    for r in reference["results"]:
        key = (r["id"], r["mode"])
        owners[key] = [w for w in workloads.MEASURED
                       if workloads.selects(w, *key)]
        assert len(owners[key]) == 1, key
    statuses = [r["status"] for r in reference["results"]]
    assert statuses.count("PASS") == 68
    assert statuses.count("DISCREPANCY_DOCUMENTED") == 8
    assert len(statuses) == 76
    assert set(workloads.TRACKED_CHECKS) <= set(owners)
    assert set(workloads.SMOKE_CHECKS) <= set(owners)


def test_benchmark_json_names_every_emitted_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.MEASURED)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.PER_LAYER]


def _snapshot():
    out = {}
    for modname, mod in tracer._qrr_modules():
        for attr, obj in vars(mod).items():
            out[(modname, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == modname:
                for name, member in vars(obj).items():
                    out[(modname, attr, name)] = member
    return out


def test_tracer_removes_every_wrapper():
    import qrr.harness  # noqa: F401  loads every layer module
    from qrr import context, pochhammer

    before = _snapshot()
    t = tracer.Tracer().install()
    try:
        left = tracer.leftover_wrappers()
        assert "qrr.context.powq" in left and "qrr.pochhammer.powq" in left
        assert "qrr.formal.FormalSeries.__mul__" in left
        assert context.powq is pochhammer.powq
        assert tracer.is_wrapper(pochhammer.powq)
    finally:
        t.uninstall()
    assert tracer.leftover_wrappers() == []
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_pass_matches_untraced_and_accounts_for_its_wall_time():
    runner = run.Runner(SimpleNamespace(workload="smoke", seed=0,
                                        sampler_seed=run.DEFAULT_SAMPLER_SEED))
    plain = runner.spawn(7)
    traced = runner.spawn(7, "--trace")
    assert traced["leftover_wrappers"] == []
    assert gate.normalize(traced["report"]) == gate.normalize(plain["report"])
    acc = traced["accounting"]
    # Layer self times (harness included) cover the traced wall time.  This
    # holds by construction while run_check is wrapped: nested self times
    # add up to the outermost spans.
    assert abs(acc["accounted_s"] - acc["traced_wall_s"]) <= 0.05 * acc["traced_wall_s"]
    # The layers below the harness do the work: harness self time, where the
    # work of an unwrapped module would land, was 1.4 % of the traced wall
    # time when the benchmark was written.
    assert acc["layer_self_s"]["harness"] <= 0.10 * acc["traced_wall_s"]
    layers = traced["layers"]
    assert layers["harness.checks"] == len(workloads.SMOKE_CHECKS)
    assert layers["summation.calls"] > 0 and layers["summation.terms"] > 0
    assert layers["summation.errors"] == 0


def test_smoke_workload_runs_in_a_few_seconds():
    start = time.perf_counter()
    proc = _bench("--workload", "smoke", "--seed", "5", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 30
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(n for n, _ in run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "bilateral", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _bilateral_report(reference):
    return {"run": dict(reference["run"]),
            "results": [dict(r) for r in reference["results"]
                        if workloads.selects("bilateral", r["id"], r["mode"])]}


def test_gate_flags_a_changed_status_and_lost_digits():
    reference = gate.load_reference()
    report = _bilateral_report(reference)
    verdict = gate.compare(report, reference, "bilateral")
    assert verdict["correct"] and verdict["reference_identical"]
    report["results"][0]["max_abs_deviation"] = "1e-40"
    verdict = gate.compare(report, reference, "bilateral")
    assert not verdict["correct"] and verdict["accuracy_digits_lost"] > 15
    report["results"][0]["status"] = "FAIL"
    verdict = gate.compare(report, reference, "bilateral")
    assert verdict["failed_ratio"] == 1 / len(report["results"])


def test_gate_flags_a_check_the_pass_left_out_or_added():
    reference = gate.load_reference()
    report = _bilateral_report(reference)
    dropped = report["results"].pop(3)
    verdict = gate.compare(report, reference, "bilateral")
    assert not verdict["correct"] and not verdict["reference_identical"]
    assert verdict["failed"] == [f"{dropped['id']}/{dropped['mode']}: missing"]
    assert verdict["attempted"] == 7 and verdict["failed_ratio"] == 1 / 7
    report["results"].append(dict(reference["results"][0]))  # not bilateral
    verdict = gate.compare(report, reference, "bilateral")
    assert len(verdict["failed"]) == 2 and verdict["attempted"] == 8


def test_gate_refuses_another_sampler_seed():
    reference = gate.load_reference()
    report = _bilateral_report(reference)
    report["run"]["seed"] = reference["run"]["seed"] + 1
    with pytest.raises(ValueError):
        gate.compare(report, reference, "bilateral")
    proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1",
                  "--trace", "0", "--sampler-seed", "1")
    assert proc.returncode != 0 and proc.stdout.strip() == ""
