"""Correctness gate: compare a pass's report with the committed reference.

A report is normalized by dropping the run timestamp and every wall time;
what is left is byte-identical for an unchanged program at a fixed sampler
seed, so its SHA-256 (``report_sha``) doubles as the refactor gate of
ROADMAP item 2.  The gate itself is looser, since an optimisation may move
the last digits of a residual: a pass must report every reference check its
workload selects and no other, every check must keep its reference status,
that status must be PASS or DISCREPANCY_DOCUMENTED, and no check may lose
more than ``DIGITS_SLACK`` digits of agreement.  The gate applies only at
the sampler seed the reference was made with.

    python3 perfbench/gate.py --write-reference

re-runs the default suite (about 75 s) and rewrites the reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "suite.json")

OK_STATUSES = ("PASS", "DISCREPANCY_DOCUMENTED")
# Working digits of the default suite (50 target + 15 guard): a residual
# below 10^-65 (or exactly 0) counts as full agreement.
FULL_DIGITS = 65
DIGITS_SLACK = 3.0


def normalize(report_text: str) -> dict:
    """The JSON report without its timestamp and wall times."""
    payload = json.loads(report_text)
    payload["run"].pop("timestamp", None)
    for record in payload["results"]:
        record.pop("wall_time_ms", None)
    return payload


def report_sha(normalized: dict) -> str:
    text = json.dumps(normalized, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(path: str = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def agreement_digits(deviation: str | None) -> float:
    """-log10 of a scale-aware residual, capped at FULL_DIGITS."""
    if deviation is None:  # formal mode: coefficient-exact
        return float(FULL_DIGITS)
    value = float(deviation)
    if value <= 0:
        return float(FULL_DIGITS)
    return min(float(FULL_DIGITS), -math.log10(value))


def restrict(normalized: dict, keys) -> dict:
    """The normalized report cut down to the given (id, mode) checks."""
    keys = set(keys)
    return {"run": normalized["run"],
            "results": [r for r in normalized["results"]
                        if (r["id"], r["mode"]) in keys]}


def compare(normalized: dict, reference: dict, workload: str) -> dict:
    """Gate one normalized pass report against the reference.

    The checks a pass must report are the reference's checks that
    ``workload`` selects, not the ones the pass planned: a check that is
    missing, extra or reported twice is a failure.
    """
    if normalized["run"].get("seed") != reference["run"].get("seed"):
        raise ValueError(
            f"no reference for sampler seed {normalized['run'].get('seed')}; "
            f"the reference was made with seed {reference['run'].get('seed')}")
    ref = {(r["id"], r["mode"]): r for r in reference["results"]
           if workloads.selects(workload, r["id"], r["mode"])}
    failed, digits_lost, statuses, seen = [], 0.0, {}, set()
    for record in normalized["results"]:
        key = (record["id"], record["mode"])
        statuses[record["status"]] = statuses.get(record["status"], 0) + 1
        expected = ref.get(key)
        if key in seen:
            failed.append(f"{key[0]}/{key[1]}: reported twice")
        elif expected is None:
            failed.append(f"{key[0]}/{key[1]}: not a {workload} check")
        elif (record["status"] not in OK_STATUSES
                or record["status"] != expected["status"]):
            failed.append(f"{key[0]}/{key[1]}: {record['status']}")
        else:
            lost = (agreement_digits(expected["max_abs_deviation"])
                    - agreement_digits(record["max_abs_deviation"]))
            digits_lost = max(digits_lost, lost)
        seen.add(key)
    failed += [f"{i}/{m}: missing" for i, m in sorted(ref.keys() - seen)]
    attempted = len(ref.keys() | seen)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": len(failed) / attempted if attempted else 0.0,
        "accuracy_digits_lost": digits_lost,
        "statuses": statuses,
        "report_sha": report_sha(normalized),
        "reference_identical": normalized == restrict(reference, ref),
        "correct": (attempted > 0 and not failed
                    and digits_lost <= DIGITS_SLACK),
    }


def write_reference(path: str = REFERENCE) -> None:
    """Run the default suite in process and store its normalized report."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from qrr.harness import SuiteConfig, emit_report, run_info, run_suite

    config = SuiteConfig()
    reports, summary, _ = run_suite(config)
    normalized = normalize(emit_report(reports, run_info(config), fmt="json"))
    with open(path, "w") as fh:
        json.dump(normalized, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}: {summary}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: python3 perfbench/gate.py --write-reference")
    write_reference()
