"""Identity registry, check runner, and report output."""

from .driver import CheckOutcome, IdentityEntry, RunSettings
from .registry import CENSUS, ENTRIES, get_entry, list_identities
from .report import IdentityReport, emit_report
from .runner import (SuiteConfig, planned_checks, read_config, run_check,
                     run_info, run_suite)

__all__ = [
    "CENSUS", "ENTRIES", "CheckOutcome", "IdentityEntry", "RunSettings",
    "get_entry", "list_identities",
    "IdentityReport", "emit_report",
    "SuiteConfig", "planned_checks", "read_config", "run_check", "run_info",
    "run_suite",
]
