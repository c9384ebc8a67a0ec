"""qrr benchmark: end-to-end and per-layer metrics from one command.

    python3 perfbench/run.py --workload bilateral --seed 1 --seconds 5 --trace 0

Run from anywhere inside a checkout of the repository; the program is the
``qrr`` package under ``src``.  Each pass runs in a fresh interpreter, as
``qrr suite`` does.  With ``--trace 0`` the run makes a few set-up-only
starts and then passes until ``--seconds`` have elapsed (at least one pass;
a pass is never cut).  It reports the median pass (``calibrated_wall_s``,
``peak_rss_mb``) and the median set-up time (``setup_s``).  Times are
calibrated to a reference machine speed (see ``qrrpass.SpeedSampler``); the
raw wall times are printed alongside.  With ``--trace 1`` it makes one
untraced pass and one traced pass followed by the layer probes, and reports
the per-layer metrics.  ``--seed`` only shuffles the order in which a pass
runs its checks; the parameters the checks sample come from
``--sampler-seed``, which the committed reference report was made with.
Every pass is gated against that reference (see gate.py); another sampler
seed is refused, since there is no reference to gate it against.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when a result was printed, 1 when a pass could not be run, 2 when the
checkout holds no ``src/qrr`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import gate
import workloads
from qrrpass import calibrated

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PASS_SCRIPT = os.path.join(HERE, "qrrpass.py")

RUN_BUDGET_S = 170.0   # every run must end within 180 s
SETUP_SPAWNS = 5
DEFAULT_SAMPLER_SEED = 20240809

END_TO_END = (("calibrated_wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

LAYER_METRICS = (
    "summation.calls", "summation.terms", "summation.self_s",
    "summation.us_per_term", "summation.nonconverged", "summation.errors",
    "context.powq.calls", "context.self_s",
    "pochhammer.calls", "pochhammer.self_s", "pochhammer.infinite.calls",
    "pochhammer.infinite.factors",
    "qfunctions.self_s", "qfunctions.b_alpha.calls", "qfunctions.terms",
    "qbessel.calls", "qbessel.self_s",
    "qpolynomials.calls", "qpolynomials.self_s",
    "formal.self_s", "formal.mul.calls", "formal.mul.coeff_ops",
    "exactpoly.calls", "exactpoly.self_s",
    "partitions.self_s", "partitions.examined", "partitions.admit_ratio",
    "harness.checks", "harness.self_s",
)
PROBE_METRICS = (
    "probe.sum_series_geometric_us_per_term", "probe.pochhammer_infinite_ms",
    "probe.pochhammer_ratio_sweep_ms", "probe.b_alpha_ms",
    "probe.formal_mul_ms", "probe.series_vs_partitions_s",
    "mpmath.mpf_mul_us", "mpmath.mpc_pow_us",
)
CHECK_METRICS = tuple(f"check.{i}.{m}_s" for i, m in workloads.TRACKED_CHECKS)
PER_LAYER = LAYER_METRICS + PROBE_METRICS + ("trace.overhead_ratio",) + CHECK_METRICS


class PassError(RuntimeError):
    """A pass process failed or ran out of time."""


def unit_of(name: str) -> str:
    for suffix, unit in (("us_per_term", "us"), ("_us", "us"), ("_ms", "ms"),
                         ("_s", "s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def machine(args) -> dict:
    import mpmath

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "seed": args.seed, "sampler_seed": args.sampler_seed}


class Runner:
    """Spawns pass processes for one run, within the run's time budget."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=SRC + (os.pathsep + path if path else ""))

    def spawn(self, order_seed: int, *flags: str) -> dict:
        return self.spawn_together(order_seed, flags)[0]

    def spawn_together(self, order_seed: int, *flag_sets) -> list[dict]:
        """Start one pass process per flag set, all at once; wait for all."""
        procs = []
        try:
            for flags in flag_sets:
                cmd = [sys.executable, PASS_SCRIPT,
                       "--workload", self.args.workload,
                       "--order-seed", str(order_seed),
                       "--sampler-seed", str(self.args.sampler_seed), *flags]
                start = time.perf_counter()
                procs.append((subprocess.Popen(
                    cmd, cwd=ROOT, env=self.env, text=True,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE), start, flags))
            return [self._collect(*p) for p in procs]
        finally:
            for proc, _, _ in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    def _collect(self, proc, start, flags) -> dict:
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired as exc:
            raise PassError(f"pass {flags} exceeded the run budget") from exc
        if proc.returncode != 0:
            raise PassError(f"pass {flags} exited {proc.returncode}:\n"
                            f"{stderr[-2000:]}")
        out = json.loads(stdout.strip().splitlines()[-1])
        out["raw_setup_s"] = out["t_ready"] - start
        out["setup_s"] = calibrated(out["raw_setup_s"], out["setup_speed"])
        return out

    def gated(self, result: dict, reference: dict) -> dict:
        verdict = gate.compare(gate.normalize(result["report"]), reference,
                               self.args.workload)
        result["gate"] = verdict
        print(f"pass: wall_s={result['wall_s']:.3f} "
              f"calibrated_wall_s={result['calibrated_wall_s']:.3f} "
              f"slice_us={result['slice_us']:.2f} setup_s={result['setup_s']:.3f} "
              f"peak_rss_mb={result['peak_rss_mb']:.1f} statuses={verdict['statuses']} "
              f"failed_ratio={verdict['failed_ratio']:.4f} "
              f"accuracy_digits_lost={verdict['accuracy_digits_lost']} "
              f"report_sha={verdict['report_sha']} "
              f"reference_identical={verdict['reference_identical']}")
        for failure in verdict["failed"]:
            print(f"  failed: {failure}")
        return result


def timed_run(runner: Runner, reference: dict):
    """Untraced passes for ``--seconds``; the end-to-end metrics."""
    args = runner.args
    runner.spawn(0, "--setup-only")  # compiles bytecode in a fresh checkout
    setups = [runner.spawn(0, "--setup-only") for _ in range(SETUP_SPAWNS)]
    passes = []
    start = time.perf_counter()
    while True:
        result = runner.spawn(args.seed * 1000 + len(passes))
        passes.append(runner.gated(result, reference))
        now = time.perf_counter()
        if (now - start >= args.seconds
                or now + 1.5 * result["wall_s"] > runner.deadline):
            break
    setups += passes
    metrics = {
        "calibrated_wall_s": statistics.median(p["calibrated_wall_s"] for p in passes),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    shas = sorted({p["gate"]["report_sha"] for p in passes})
    ok = all(p["gate"]["correct"] for p in passes) and len(shas) == 1
    print(f"workload {args.workload}: passes={len(passes)} raw medians: wall_s="
          f"{statistics.median(p['wall_s'] for p in passes):.3f} setup_s="
          f"{statistics.median(s['raw_setup_s'] for s in setups):.3f} "
          f"report_sha={' '.join(shas)}"
          + ("" if len(shas) == 1 else " (passes disagree)"))
    return passes, ok, {k: (metrics[k], unit) for k, unit in END_TO_END}


def traced_run(runner: Runner, reference: dict):
    """One untraced and one traced pass, plus probes; per-layer metrics.

    The two passes run side by side, one per core: one after the other, a
    traced run of ``bilateral`` (about 2 x 55 s plus probes) would come too
    close to the 180 s a run may take on a busy machine.  Both passes are
    calibrated, which takes out most of what they cost each other.
    """
    plain, traced = runner.spawn_together(runner.args.seed * 1000, (),
                                          ("--trace", "--probes"))
    plain, traced = runner.gated(plain, reference), runner.gated(traced, reference)
    metrics = {**traced["layers"], **traced["probes"]}
    metrics["trace.overhead_ratio"] = (traced["calibrated_wall_s"]
                                       / plain["calibrated_wall_s"])
    factor = plain["calibrated_wall_s"] / plain["wall_s"]
    times = {(r["id"], r["mode"]): r["wall_time_ms"] / 1000 * factor
             for r in json.loads(plain["report"])["results"]}
    for (entry_id, mode), name in zip(workloads.TRACKED_CHECKS, CHECK_METRICS):
        metrics[name] = times.get((entry_id, mode), 0.0)

    acc = traced["accounting"]
    print(f"traced wall_s={acc['traced_wall_s']:.3f} "
          f"accounted_s={acc['accounted_s']:.3f} "
          f"overhead_ratio={metrics['trace.overhead_ratio']:.3f}")
    for layer, self_s in sorted(acc["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  self_s {layer:<13} {self_s:9.3f}  "
              f"{100 * self_s / acc['traced_wall_s']:5.1f} %")
    by_check = sorted(acc["check_layer_self_s"].items(),
                      key=lambda kv: -sum(kv[1].values()))
    for check, layers in by_check:
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
        print(f"  check {check:<30} {sum(layers.values()):8.3f} s: "
              + ", ".join(f"{layer} {s:.3f}" for layer, s in top))
    same = plain["gate"]["report_sha"] == traced["gate"]["report_sha"]
    if not same:
        print("traced report differs from the untraced one")
    if traced["leftover_wrappers"]:
        print(f"wrappers left after uninstall: {traced['leftover_wrappers']}")
    ok = (plain["gate"]["correct"] and traced["gate"]["correct"] and same
          and not traced["leftover_wrappers"])
    return [plain, traced], ok, {k: (metrics[k], unit_of(k)) for k in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qrr benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sampler-seed", type=int, default=DEFAULT_SAMPLER_SEED)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qrr", "__init__.py")):
        print(f"error: no qrr package under {SRC}", file=sys.stderr)
        return 2
    reference = gate.load_reference()
    if args.sampler_seed != reference["run"]["seed"]:
        print(f"error: no reference report for sampler seed {args.sampler_seed}; "
              f"perfbench/reference/suite.json was made with seed "
              f"{reference['run']['seed']}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine(args), sort_keys=True))
    runner = Runner(args)
    try:
        passes, ok, metrics = (traced_run if args.trace else timed_run)(
            runner, reference)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verdicts = [p["gate"] for p in passes]
    print(json.dumps({
        "correct": bool(ok),
        "attempted": sum(v["attempted"] for v in verdicts),
        "failed": sum(len(v["failed"]) for v in verdicts),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
