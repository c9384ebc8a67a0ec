"""The golden reports of tests/golden and their comparison script."""

import importlib.util
import json
import pathlib
import re
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).parent / "golden"
WORKFLOW = pathlib.Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml"


def _compare():
    spec = importlib.util.spec_from_file_location("golden_compare", GOLDEN / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(deviation, wall, timestamp):
    row = {"id": "ms-12", "mode": "numeric", "status": "PASS", "params": {},
           "max_abs_deviation": deviation, "first_differing_coefficient": None,
           "note": "", "seed": 1, "wall_time_ms": wall}
    return {"run": {"precision": 50, "timestamp": timestamp}, "results": [row]}


def test_every_ci_cell_has_a_golden_report():
    cells = re.findall(r"^\s*suite_ok (\S+)", WORKFLOW.read_text(), re.M)
    assert len(cells) == len(set(cells)) > 20
    missing = [c for c in cells + ["default"] if not (GOLDEN / f"{c}.json").is_file()]
    assert not missing, missing


def test_worker_counts_share_one_golden_report():
    # which checks share a worker process cannot move a byte: the cells run
    # in one and in more worker processes keep identical goldens
    for one, more in (("numeric-j1", "numeric-j2"), ("rr-j1", "jobs-over-plan")):
        assert (GOLDEN / f"{one}.json").read_bytes() == (GOLDEN / f"{more}.json").read_bytes()


def test_golden_files_carry_no_volatile_field():
    for path in GOLDEN.glob("*.json"):
        report = json.loads(path.read_text())
        assert "timestamp" not in report["run"], path
        assert all("wall_time_ms" not in r for r in report["results"]), path


def test_comparison_names_each_moved_field_and_ignores_times():
    compare = _compare()
    golden = _report("1.2e-60", 3.0, "then")
    assert compare.differences(golden, _report("1.2e-60", 9.0, "now")) == []
    assert compare.differences(golden, _report("1.3e-60", 9.0, "now")) == [
        "ms-12 numeric max_abs_deviation: '1.2e-60' -> '1.3e-60'"]
    dropped = _report("1.2e-60", 3.0, "now")
    dropped["results"] = []
    assert compare.differences(golden, dropped) == ["ms-12 numeric: present -> missing"]


def test_comparison_script_exits_1_on_a_moved_byte(tmp_path):
    golden, report = tmp_path / "golden.json", tmp_path / "report.json"
    report.write_text(json.dumps(_report("1.2e-60", 3.0, "now")))
    script = str(GOLDEN / "compare.py")
    assert subprocess.run([sys.executable, script, "--write", str(golden), str(report)]).returncode == 0
    assert subprocess.run([sys.executable, script, str(golden), str(report)]).returncode == 0
    report.write_text(json.dumps(_report("1.3e-60", 3.0, "now")))
    run = subprocess.run([sys.executable, script, str(golden), str(report)],
                         capture_output=True, text=True)
    assert run.returncode == 1
    assert "ms-12 numeric max_abs_deviation: '1.2e-60' -> '1.3e-60'" in run.stdout
