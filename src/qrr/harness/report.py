"""Report records for identity checks, with JSON and fixed-width output."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from ..errors import ConfigError


@dataclass
class IdentityReport:
    """Outcome of one identity check in one mode."""

    id: str
    mode: str
    status: str  # PASS | FAIL | DISCREPANCY_DOCUMENTED | SKIPPED | ERROR
    params: dict = field(default_factory=dict)
    max_abs_deviation: str | None = None       # numeric/exact modes
    first_differing_coefficient: int | None = None  # formal mode
    note: str = ""
    wall_time_ms: float = 0.0
    seed: int = 0

    def sort_key(self):
        return (self.id, self.mode)


STATUSES = ("PASS", "FAIL", "DISCREPANCY_DOCUMENTED", "SKIPPED", "ERROR")


def emit_report(reports, run_info: dict, fmt: str = "json",
                path: str | None = None) -> str:
    """Serialize reports (sorted by id and mode); optionally write to path."""
    reports = sorted(reports, key=IdentityReport.sort_key)
    if fmt == "json":
        payload = {"run": dict(run_info),
                   "results": [asdict(r) for r in reports]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "text":
        text = _text_table(reports, run_info)
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _text_table(reports, run_info) -> str:
    head = (f"run: q={run_info.get('q')} precision={run_info.get('precision')} "
            f"order={run_info.get('order')} seed={run_info.get('seed')} "
            f"timestamp={run_info.get('timestamp')}")
    cols = f"{'id':<24} {'mode':<8} {'status':<24} {'deviation':<14} {'ms':>8}"
    lines = [head, cols, "-" * len(cols)]
    for r in reports:
        dev = (r.max_abs_deviation if r.max_abs_deviation is not None
               else ("coef@%d" % r.first_differing_coefficient
                     if r.first_differing_coefficient is not None else "-"))
        lines.append(f"{r.id:<24} {r.mode:<8} {r.status:<24} "
                     f"{dev:<14} {r.wall_time_ms:>8.1f}")
    counts = {s: sum(1 for r in reports if r.status == s) for s in STATUSES}
    lines.append("-" * len(cols))
    lines.append(" ".join(f"{s}={counts[s]}" for s in STATUSES))
    return "\n".join(lines) + "\n"
