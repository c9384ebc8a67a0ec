"""Workload definitions: which (identity, mode) checks one pass runs.

Every workload uses the default ``SuiteConfig`` (q in {0.2, 0.3}, precision
50, order 100, jobs 1).  A workload only selects which planned checks run;
the three measured workloads partition the default suite between them.
See README.md for why each one exists.
"""

from __future__ import annotations

# Numeric checks built on long bilateral sums with complex arguments.  About
# two thirds of the default suite's time, and the target of the term-ratio
# engine and the shared q-power tables.
BILATERAL_IDS = ("ms-11", "ms-12", "ms-15", "ms-16", "ms-17", "heine", "psi11")

# A handful of fast checks over all three modes, for the benchmark's own tests.
SMOKE_CHECKS = (("RR1", "numeric"), ("RR1", "formal"), ("st-5.3", "numeric"),
                ("sw-inversion", "numeric"), ("finite-qbinom", "exact"),
                ("ms-6", "formal"))

MEASURED = ("bilateral", "numeric-short", "exact-formal")
WORKLOADS = MEASURED + ("smoke",)

# Checks that took at least 1 % of their workload's pass at the commit that
# introduced the benchmark; each gets a ``check.<id>.<mode>_s`` metric in the
# traced run.  The list is fixed so the metric names do not depend on timing.
TRACKED_CHECKS = (
    ("ms-12", "numeric"), ("ms-11", "numeric"), ("psi11", "numeric"),
    ("heine", "numeric"), ("ms-15", "numeric"), ("ms-17", "numeric"),
    ("ms-16", "numeric"),
    ("hermite-gf", "numeric"), ("ms-4", "numeric"), ("ms-5", "numeric"),
    ("um-mform", "numeric"), ("bessel-sv-5", "numeric"),
    ("bessel-i1-continuation", "numeric"), ("bessel-i-vs-j", "numeric"),
    ("um-recurrence", "numeric"), ("bessel-sv-4", "numeric"),
    ("bessel-defs", "numeric"), ("poisson-kernel", "numeric"),
    ("ms-14", "numeric"), ("lommel-j", "numeric"), ("lommel-i", "numeric"),
    ("bessel-asymptotic", "numeric"), ("bessel-gf", "numeric"),
    ("bessel-sv-series", "numeric"), ("ms-3", "numeric"),
    ("ms-13", "numeric"),
    ("rr1-partitions", "exact"), ("rr2-partitions", "exact"),
    ("ms-2", "exact"), ("GFhn0", "formal"), ("ferrers-box", "exact"),
    ("st-5.1", "formal"), ("cd-three-way", "exact"),
)


def selects(workload: str, entry_id: str, mode: str) -> bool:
    """Whether ``workload`` runs the check (entry_id, mode)."""
    if workload == "bilateral":
        return mode == "numeric" and entry_id in BILATERAL_IDS
    if workload == "numeric-short":
        return mode == "numeric" and entry_id not in BILATERAL_IDS
    if workload == "exact-formal":
        return mode != "numeric"
    if workload == "smoke":
        return (entry_id, mode) in SMOKE_CHECKS
    raise ValueError(f"unknown workload {workload!r}")
