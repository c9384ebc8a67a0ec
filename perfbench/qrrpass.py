"""One benchmark pass in a fresh interpreter.

    python3 perfbench/qrrpass.py --workload NAME --order-seed N
        [--sampler-seed S] [--trace] [--probes] [--setup-only]

Imports qrr, plans the workload's checks through the public
``qrr.harness`` API and runs them one after another, each starting when the
previous one ends, in an order shuffled by ``--order-seed``.  ``src`` must be
on ``PYTHONPATH``.  Prints one JSON object: the monotonic clock reading when
set-up ended (the parent subtracts its own reading at spawn), the pass wall
time (raw and calibrated, see ``SpeedSampler``), peak RSS, the
``--format json`` report and, with ``--trace``, the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import sys
import time

import workloads


class SpeedSampler:
    """Measures how fast the machine runs while the pass process works.

    The machine the benchmark was written on shares its cores with other
    tenants and switches many times a second between its normal speed and
    one about half as fast, so raw times of the same code spread by 20-50 %
    from one pass to the next.  The sampler interrupts the process every
    ``INTERVAL_S`` (SIGALRM) and times a fixed slice of Python big-integer
    arithmetic, the kind mpmath's pure-Python backend does.  The mean slice
    time over a stretch of work is the speed it ran at, and

        calibrated = (elapsed - time spent in slices) * REFERENCE_SLICE_S / mean slice

    is the time the stretch would have taken at the reference speed (about
    an unloaded 2 GHz Xeon vCPU).  Sampling costs 1-2 % of the run.
    """

    INTERVAL_S = 0.002
    REFERENCE_SLICE_S = 18e-6

    def __init__(self):
        self.slices = []

    @staticmethod
    def _slice(a=(1 << 220) // 3, b=(1 << 219) // 7):
        for _ in range(40):
            a += (a * b >> 220) & 0xFF
        return a

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self._slice()
        self.slices.append(time.perf_counter() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """A position in the slice record, to delimit a stretch of work."""
        return len(self.slices)

    def speed(self, since: int, until: int) -> dict:
        """Time spent sampling, and the mean slice time, in a stretch."""
        taken = self.slices[since:until]
        return {"spent_s": sum(taken),
                "slice_s": sum(taken) / len(taken) if taken else None}


def calibrated(elapsed_s: float, speed: dict) -> float:
    """``elapsed_s`` at the reference speed (raw when nothing was sampled)."""
    if not speed["slice_s"]:
        return elapsed_s
    return ((elapsed_s - speed["spent_s"]) * SpeedSampler.REFERENCE_SLICE_S
            / speed["slice_s"])


def per_layer(tracer, wall_s, factor):
    """Per-layer metrics of one traced pass.

    Times are scaled by ``factor``, the pass's calibration factor; counts
    are exact.  The accounting part stays in raw seconds.
    """
    names = tracer.by_name()
    layers = tracer.layer_totals()
    counts = tracer.counts

    def calls(name):
        return names.get(name, (0, 0.0, 0.0))[0]

    def layer_calls(layer):
        return layers.get(layer, (0, 0.0))[0]

    def self_s(layer):
        return layers.get(layer, (0, 0.0))[1] * factor

    terms = counts["summation.terms"]
    examined = counts["partitions.examined"]
    out = {
        "summation.calls": calls("summation.sum_series"),
        "summation.terms": terms,
        "summation.self_s": self_s("summation"),
        "summation.us_per_term": self_s("summation") / terms * 1e6 if terms else 0.0,
        "summation.nonconverged": counts["summation.nonconverged"],
        "summation.errors": counts["summation.errors"],
        "context.powq.calls": calls("context.powq"),
        "context.self_s": self_s("context"),
        "pochhammer.calls": layer_calls("pochhammer"),
        "pochhammer.self_s": self_s("pochhammer"),
        "pochhammer.infinite.calls": calls("pochhammer.pochhammer_infinite"),
        "pochhammer.infinite.factors": counts["pochhammer.infinite.factors"],
        "qfunctions.self_s": self_s("qfunctions"),
        "qfunctions.b_alpha.calls": calls("qfunctions.b_alpha"),
        "qfunctions.terms": calls("qfunctions.term"),
        "qbessel.calls": layer_calls("qbessel"),
        "qbessel.self_s": self_s("qbessel"),
        "qpolynomials.calls": layer_calls("qpolynomials"),
        "qpolynomials.self_s": self_s("qpolynomials"),
        "formal.self_s": self_s("formal"),
        "formal.mul.calls": calls("formal.FormalSeries.__mul__"),
        "formal.mul.coeff_ops": counts["formal.mul.coeff_ops"],
        "exactpoly.calls": layer_calls("exactpoly"),
        "exactpoly.self_s": self_s("exactpoly"),
        "partitions.self_s": self_s("partitions"),
        "partitions.examined": examined,
        "partitions.admit_ratio": (counts["partitions.admitted"] / examined
                                   if examined else 0.0),
        "harness.checks": calls("harness.run_check"),
        "harness.self_s": self_s("harness"),
    }
    accounted = sum(s for _, s in layers.values())
    return out, {"layer_self_s": {k: v[1] for k, v in layers.items()},
                 "check_layer_self_s": tracer.check_layers(),
                 "accounted_s": accounted, "traced_wall_s": wall_s}


def main(argv=None) -> int:
    sampler = SpeedSampler()
    sampler.start()
    try:
        return run_pass(sampler, argv)
    finally:
        sampler.stop()


def run_pass(sampler: SpeedSampler, argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--order-seed", type=int, required=True)
    parser.add_argument("--sampler-seed", type=int, default=20240809)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probes", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from qrr import harness

    config = harness.SuiteConfig(seed=args.sampler_seed)
    settings = config.settings()
    plan = [(i, m) for i, m in harness.planned_checks(config)
            if workloads.selects(args.workload, i, m)]
    random.Random(args.order_seed).shuffle(plan)
    ready = time.perf_counter()
    result = {"t_ready": ready, "checks": len(plan),
              "setup_speed": sampler.speed(0, sampler.mark())}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, leftover_wrappers
        tracer = Tracer().install()
    begin = sampler.mark()
    start = time.perf_counter()
    reports = [harness.run_check(i, m, settings) for i, m in plan]
    wall = time.perf_counter() - start
    speed = sampler.speed(begin, sampler.mark())
    calibrated_wall = calibrated(wall, speed)
    if tracer is not None:
        tracer.uninstall()
        result["leftover_wrappers"] = leftover_wrappers()
        result["layers"], result["accounting"] = per_layer(
            tracer, wall, calibrated_wall / wall)
    sampler.stop()
    if args.probes:
        from probes import layer_probes, mpmath_calibration
        result["probes"] = {**layer_probes(), **mpmath_calibration()}

    result.update(
        wall_s=wall,
        calibrated_wall_s=calibrated_wall,
        slice_us=speed["slice_s"] and speed["slice_s"] * 1e6,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        report=harness.emit_report(reports, harness.run_info(config), fmt="json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
