"""Compare a ``qrr suite --format json`` report with its golden file.

    python tests/golden/compare.py GOLDEN REPORT
    python tests/golden/compare.py --write GOLDEN REPORT

The golden files in this directory are the reports of the default config
(``default.json``) and of each ``suite_ok`` cell of the CI workflow
(``<cell>.json``), with the fields that change from run to run removed: the
run's ``timestamp`` and every result's ``wall_time_ms``.  The first form
prints each field that moved, as ``id mode field: golden -> report``, and
exits 1 on any difference; the second writes the report, so stripped, as the
golden file.  A change that means to move a byte writes the new file in the
same commit, and the diff of the golden files lists every moved value.
Standard library only.
"""

from __future__ import annotations

import json
import sys

VOLATILE_RUN = ("timestamp",)
VOLATILE_RESULT = ("wall_time_ms",)


def stripped(report: dict) -> dict:
    """The report without the fields that change from run to run."""
    run = {k: v for k, v in report["run"].items() if k not in VOLATILE_RUN}
    results = [{k: v for k, v in r.items() if k not in VOLATILE_RESULT}
               for r in report["results"]]
    return {"results": results, "run": run}


def differences(golden: dict, report: dict) -> list[str]:
    """One line ``id mode field: golden -> report`` per moved field; a row
    only one side has reads ``id mode: missing -> present`` or the reverse."""
    golden, report = stripped(golden), stripped(report)
    lines = [f"run {field}: {golden['run'].get(field)!r} -> {report['run'].get(field)!r}"
             for field in sorted(set(golden["run"]) | set(report["run"]))
             if golden["run"].get(field) != report["run"].get(field)]
    rows = [{(r["id"], r["mode"]): r for r in side["results"]} for side in (golden, report)]
    for key in sorted(set(rows[0]) | set(rows[1])):
        old, new = (side.get(key) for side in rows)
        if old is None or new is None:
            lines.append(f"{key[0]} {key[1]}: {'missing' if old is None else 'present'} -> "
                         f"{'missing' if new is None else 'present'}")
            continue
        lines += [f"{key[0]} {key[1]} {field}: {old.get(field)!r} -> {new.get(field)!r}"
                  for field in sorted(set(old) | set(new)) if old.get(field) != new.get(field)]
    return lines


def main(argv: list[str]) -> int:
    write = argv[:1] == ["--write"]
    if write:
        argv = argv[1:]
    if len(argv) != 2:
        print("usage: compare.py [--write] GOLDEN REPORT", file=sys.stderr)
        return 2
    golden_path, report_path = argv
    with open(report_path) as fh:
        report = json.load(fh)
    if write:
        with open(golden_path, "w") as fh:
            fh.write(json.dumps(stripped(report), indent=2, sort_keys=True) + "\n")
        return 0
    with open(golden_path) as fh:
        golden = json.load(fh)
    lines = differences(golden, report)
    for line in lines:
        print(line)
    print(f"{report_path}: {len(lines)} field(s) moved against {golden_path}"
          if lines else f"{report_path}: matches {golden_path}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
