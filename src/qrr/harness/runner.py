"""Check execution: single identities, whole suites, configuration.

Run settings reach the checks by one path: a JSON object (from
:func:`read_config`, with command-line flags laid over it, or built in code)
is validated once by :meth:`SuiteConfig.from_dict`; :meth:`SuiteConfig.settings`
gives the :class:`.driver.RunSettings` every check of the run receives, and
:func:`run_check` hands them to :func:`.driver.run_entry`.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from fractions import Fraction
from itertools import repeat

import mpmath as mp

from ..errors import (ConfigError, DomainError, EmptyDomainError, NonConvergenceError,
                      PoleError, SingularDeltaError, UnsupportedModeError)
from .driver import RunSettings, run_entry
from .registry import get_entry, list_identities
from .report import IdentityReport, emit_report

# A kernel's declared exceptions for a point outside its domain, or for a sum
# or product it cannot certify at the configured (q, precision); others crash.
DOMAIN_EXCEPTIONS = (DomainError, PoleError, EmptyDomainError, SingularDeltaError,
                     NonConvergenceError)

@dataclass
class SuiteConfig:
    ids: list | str = "all"
    modes: list | None = None          # None: every mode an entry declares
    q: list = field(default_factory=lambda: ["0.2", "0.3"])
    precision: int = 50
    order: int = 100
    seed: int = 20240809
    jobs: int = 1

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls()
        if "ids" in data:
            ids = data["ids"]
            if not (ids == "all" or isinstance(ids, list)):
                raise ConfigError("ids must be 'all' or a list of entry ids")
            cfg.ids = ids
        if "modes" in data:
            modes = data["modes"]
            if isinstance(modes, str):
                modes = [modes]
            bad = set(modes) - {"formal", "exact", "numeric"}
            if bad:
                raise ConfigError(f"unknown modes: {sorted(bad)}")
            cfg.modes = modes
        if "q" in data:
            qv = data["q"]
            cfg.q = [qv] if not isinstance(qv, list) else list(qv)
            if not cfg.q:
                raise ConfigError("q list must be nonempty")
            for q in cfg.q:
                _check_q(q)
        for key in ("precision", "order", "seed", "jobs"):
            if key in data:
                val = data[key]
                if not _is_int(val) or val <= 0 and key != "seed":
                    raise ConfigError(f"{key} must be a positive integer")
                setattr(cfg, key, val)
        return cfg

    def settings(self) -> RunSettings:
        return RunSettings(precision=self.precision, order=self.order,
                           q_values=tuple(self.q), seed=self.seed)


def read_config(path: str) -> dict:
    """The JSON object in the config file at ``path``, unvalidated: callers
    overlay their own keys and pass the result to :meth:`SuiteConfig.from_dict`."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_q(q):
    """A configured q must be a real number with 0 < |q| < 1."""
    try:
        ok = not isinstance(q, bool) and 0 < abs(Fraction(q)) < 1
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"q must be a real number with 0 < |q| < 1, "
                          f"not {q!r}")


def run_check(entry_id: str, mode: str, rc: RunSettings) -> IdentityReport:
    """Run one identity in one mode; a domain exception is SKIPPED, any other ERROR."""
    entry = get_entry(entry_id)
    if mode not in entry.modes:
        raise UnsupportedModeError(
            f"{entry_id} supports modes {entry.modes}, not {mode!r}")
    start = time.perf_counter()
    try:
        outcome = run_entry(entry, mode, rc)
    except Exception as exc:  # evaluator failures are reported, not raised
        outcome = None
        report = IdentityReport(
            id=entry_id, mode=mode,
            status="SKIPPED" if isinstance(exc, DOMAIN_EXCEPTIONS) else "ERROR",
            note=f"{type(exc).__name__}: {exc}", seed=rc.seed)
    if outcome is not None:
        report = IdentityReport(
            entry_id, mode, outcome.status,
            {k: str(v) for k, v in outcome.params.items()},
            max_abs_deviation=(None if outcome.deviation is None
                               else mp.nstr(mp.mpf(outcome.deviation), 6)),
            first_differing_coefficient=outcome.first_diff,
            note=outcome.note, seed=rc.seed)
    report.wall_time_ms = (time.perf_counter() - start) * 1000.0
    return report


def planned_checks(config: SuiteConfig):
    """(id, mode) pairs the configuration selects, in deterministic order."""
    entries = list_identities()
    if config.ids != "all":
        known = {e.id for e in entries}
        missing = [i for i in config.ids if i not in known]
        if missing:
            raise ConfigError(f"unknown identity ids: {missing}")
        entries = [e for e in entries if e.id in set(config.ids)]
    plan = []
    for entry in entries:
        for mode in entry.modes:
            if config.modes is None or mode in config.modes:
                plan.append((entry.id, mode))
    return plan


def run_suite(config: SuiteConfig):
    """Run all selected checks; returns (reports, summary, exit_code).

    Checks are independent; with jobs > 1 they run in worker processes and
    the merged report order is by (id, mode) either way.  Exit code 0 unless
    some check is FAIL or ERROR (documented discrepancies do not fail it).
    """
    rc = config.settings()
    plan = planned_checks(config)
    if config.jobs > 1 and len(plan) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            reports = list(pool.map(run_check, *zip(*plan), repeat(rc)))
    else:
        reports = [run_check(i, m, rc) for i, m in plan]
    reports.sort(key=IdentityReport.sort_key)
    counts = {}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    summary = {"total": len(reports), **counts}
    exit_code = 1 if counts.get("FAIL") or counts.get("ERROR") else 0
    return reports, summary, exit_code


def run_info(config: SuiteConfig, timestamp: str | None = None) -> dict:
    return {
        "timestamp": timestamp or datetime.now(timezone.utc).isoformat(),
        "q": [str(q) for q in config.q],
        "precision": config.precision,
        "order": config.order,
        "seed": config.seed,
    }


__all__ = ["SuiteConfig", "read_config", "run_check", "run_suite",
           "planned_checks", "run_info", "emit_report"]
