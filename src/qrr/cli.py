"""Command-line interface.

    qrr list
    qrr check <id> [--mode M] [--q R] [--precision P] [--order N] [--seed S]
    qrr suite [--config PATH] [--out PATH] [--format json|text] [--jobs K]
              [--ids ID ...] [--q R] [--precision P] [--order N] [--seed S]

Flags given on the command line overlay the keys of the ``--config`` file.
Exit codes: 0 success, 1 at least one FAIL or ERROR, 2 usage or configuration
error (an unknown config key included).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .errors import ConfigError, QrrError, UnknownIdentityError, UnsupportedModeError
from .harness import (SuiteConfig, emit_report, get_entry, list_identities,
                      read_config, run_check, run_info, run_suite)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrr",
        description="verify q-series identities by independent dual evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered identities")

    chk = sub.add_parser("check", help="run a single identity check")
    chk.add_argument("id")
    chk.add_argument("--mode", choices=("formal", "exact", "numeric"))
    _run_options(chk)

    ste = sub.add_parser("suite", help="run a suite of checks")
    ste.add_argument("--config", help="JSON config file")
    ste.add_argument("--ids", nargs="+", help="restrict to these identities")
    ste.add_argument("--mode", choices=("formal", "exact", "numeric"),
                     action="append", dest="modes")
    ste.add_argument("--out", help="write the report to this path")
    ste.add_argument("--format", choices=("json", "text"), default="text")
    ste.add_argument("--jobs", type=int)
    _run_options(ste)
    return parser


def _run_options(sub):
    sub.add_argument("--q", action="append", help=(
        "numeric base, real or complex, e.g. 0.3 or 0.2+0.1j (may repeat); "
        "a complex q that starts with '-' is written --q=-0.4+0.6j"))
    sub.add_argument("--precision", type=int)
    sub.add_argument("--order", type=int)
    sub.add_argument("--seed", type=int)


def _config_from_args(args) -> SuiteConfig:
    """The config file's keys (``suite --config``) with the flags given laid
    over them, validated once."""
    data = read_config(args.config) if getattr(args, "config", None) else {}
    for f in fields(SuiteConfig):
        if getattr(args, f.name, None) is not None:
            data[f.name] = getattr(args, f.name)
    return SuiteConfig.from_dict(data)


def cmd_list() -> int:
    for entry in list_identities():
        modes = ",".join(entry.modes)
        print(f"{entry.id:<24} [{modes:<21}] {entry.title}")
    return 0


def cmd_check(args) -> int:
    cfg = _config_from_args(args)
    entry = get_entry(args.id)
    modes = [args.mode] if args.mode else list(entry.modes)
    reports = [run_check(entry.id, mode, cfg.settings()) for mode in modes]
    print(emit_report(reports, run_info(cfg), fmt="text"), end="")
    return 1 if any(r.status in ("FAIL", "ERROR") for r in reports) else 0


def cmd_suite(args) -> int:
    cfg = _config_from_args(args)
    reports, summary, exit_code = run_suite(cfg)
    text = emit_report(reports, run_info(cfg), fmt=args.format, path=args.out)
    if args.out:
        print(f"wrote {args.out} ({summary})")
    else:
        print(text, end="")
    return exit_code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "list":
            return cmd_list()
        if args.command == "check":
            return cmd_check(args)
        return cmd_suite(args)
    except (ConfigError, UnknownIdentityError, UnsupportedModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QrrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
