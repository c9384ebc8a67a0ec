"""Identity registry, check runner, and report output."""

from .driver import CheckOutcome, IdentityEntry, RunSettings
from .registry import (CENSUS, ENTRIES, get_entry, list_identities,
                       sample_params)
from .report import IdentityReport, emit_report, parse_report
from .runner import (SuiteConfig, planned_checks, read_config, run_check,
                     run_info, run_suite)

__all__ = [
    "CENSUS", "ENTRIES", "CheckOutcome", "IdentityEntry", "RunSettings",
    "get_entry", "list_identities", "sample_params",
    "IdentityReport", "emit_report", "parse_report",
    "SuiteConfig", "planned_checks", "read_config", "run_check", "run_info",
    "run_suite",
]
