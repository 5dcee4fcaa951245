"""The measurement tools under tools/: their parsing and arithmetic, and
one short end-to-end run on `python -c` children."""

import ast
import importlib.util
import json
import pathlib
import signal
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAUNCH = ROOT / "tools" / "launch.py"
LOC = ROOT / "tools" / "loc.py"
AB = ROOT / "tools" / "ab.py"


def _module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


launch = _module(LAUNCH)
loc = _module(LOC)
ab = _module(AB)


def test_launch_parses_python_3_10():
    ast.parse(LAUNCH.read_text(encoding="utf-8"), feature_version=(3, 10))


def test_launch_parses_one_argv_per_line():
    assert launch.parse('["python3", "-c", "print(1, 2)"]\n') == ["python3", "-c", "print(1, 2)"]
    assert launch.parse("  \n") is None
    for bad in ("[]", '"python3"', '["python3", 3]', "{}", "python3 -c pass", '["a"'):
        with pytest.raises(ValueError):
            launch.parse(bad)


def test_launch_records_exit_codes_and_units():
    # wait statuses as wait4 returns them: exit code 3, then death by SIGKILL
    exited = launch.record(["x"], 3 << 8, 0.1234567, 2048)
    assert exited == {"argv": ["x"], "code": 3, "wall_s": 0.123457, "rss_mib": 2.0}
    assert launch.record(["x"], signal.SIGKILL, 0.0, 1536)["code"] == -signal.SIGKILL
    assert launch.record(["x"], 0, 0.0, 1536)["rss_mib"] == 1.5


def test_launch_runs_each_line_and_reports_it():
    lines = [[sys.executable, "-c", "pass"], [],
             [sys.executable, "-c", "print(7); raise SystemExit(3)"]]
    text = "".join(json.dumps(a) + "\n" if a else "\n" for a in lines)
    done = subprocess.run([sys.executable, str(LAUNCH)], input=text, capture_output=True,
                          text=True, timeout=60, check=True)
    out = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(r["argv"], r["code"]) for r in out] == [(lines[0], 0), (lines[2], 3)]
    for r in out:
        # each child is its own small interpreter; its stdout went to /dev/null
        assert 0 < r["wall_s"] < 30 and 1 < r["rss_mib"] < 200, r
    assert done.stderr == ""


TOY = '''"""Module doc.

Second paragraph."""

# a comment
import os  # a trailing comment leaves the line code


class A:
    """Class doc."""

    def f(self):
        \'\'\'
        Method doc.
        \'\'\'
        text = """not a doc

        still code"""
        return text
'''


def test_loc_counts_each_kind_of_line(tmp_path):
    ast.parse(LOC.read_text(encoding="utf-8"), feature_version=(3, 10))
    assert loc.kinds(TOY) == [
        "docstring", "blank", "docstring", "blank", "comment", "code", "blank", "blank",
        "code", "docstring", "blank", "code", "docstring", "docstring", "docstring",
        "code", "blank", "code", "code"]
    (tmp_path / "toy.py").write_text(TOY)
    (tmp_path / "empty.py").write_text("")
    (tmp_path / "notes.txt").write_text("not a module\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "deeper.py").write_text("x = 1\n")
    done = subprocess.run([sys.executable, str(LOC), str(tmp_path)], capture_output=True,
                          text=True, timeout=60, check=True)
    assert json.loads(done.stdout) == {"code": 6, "docstring": 6, "comment": 1, "blank": 6,
                                       "total": 19}
    assert done.stdout.count("\n") == 1
    missing = subprocess.run([sys.executable, str(LOC), str(tmp_path / "none")],
                             capture_output=True, text=True, timeout=60)
    assert (missing.returncode, missing.stdout) == (2, "")


def _run(side, seed, construct_s, failed=0, correct=True, workload="narrow-q2n8", trace=0):
    res = {"correct": correct, "attempted": 100, "failed": failed,
           "metrics": {"construct_s": {"value": construct_s, "unit": "s"},
                       "design.json_bytes": {"value": 3_600_000 + trace, "unit": "bytes"}}}
    return ab.record(side, workload, seed, "parent", trace, res)


def test_ab_schedules_alternating_pairs_and_reads_the_last_line():
    ast.parse(AB.read_text(encoding="utf-8"), feature_version=(3, 10))
    assert ab.seeds("3901-3903") == [3901, 3902, 3903] and ab.seeds("5,7") == [5, 7]
    assert ab.schedule([1, 2], ["w", "x"]) == [
        (1, "w", "parent", "parent"), (1, "w", "change", "parent"),
        (1, "x", "parent", "parent"), (1, "x", "change", "parent"),
        (2, "w", "change", "change"), (2, "w", "parent", "change"),
        (2, "x", "change", "change"), (2, "x", "parent", "change")]
    assert ab.result('stamp {"wall_s": 1}\n{"correct": true}\n\n') == {"correct": True}
    with pytest.raises(ValueError):
        ab.result("\n")


def test_ab_summarizes_recorded_pairs(tmp_path):
    parent = [0.30, 0.28, 0.29, 0.31, 0.27]
    change = [0.25, 0.29, 0.24, 0.26, 0.23]  # lower in 4 of 5 pairs
    runs = [_run("parent", s, p) for s, p in enumerate(parent)]
    runs += [_run("change", s, c, failed=s == 1, correct=s != 1) for s, c in enumerate(change)]
    runs.append(_run("change", 9, 0.01))  # unpaired: left out of every figure but the failures
    summary = ab.summarize(runs)
    row = summary["table"]["narrow-q2n8"]["construct_s"]
    # inclusive quartiles of 0.27..0.31 and of 0.23..0.29
    assert row == {"parent_median": 0.29, "parent_q1": 0.28, "parent_q3": 0.30, "parent_iqr": 0.02,
                   "change_median": 0.25, "change_q1": 0.24, "change_q3": 0.26, "change_iqr": 0.02,
                   "change_pct": -13.79, "change_lower_pairs": 4, "pairs": 5}
    assert summary["failures"]["narrow-q2n8"] == {
        "parent": {"failed": 0, "attempted": 500, "incorrect_runs": 0, "runs": 5},
        "change": {"failed": 1, "attempted": 600, "incorrect_runs": 1, "runs": 6}}
    traced = [_run("parent", 5, 1.0, trace=1), _run("change", 5, 2.0, trace=1),
              _run("parent", 5, 1.0, trace=1, workload="wide-q64n1")]
    counts = ab.traced_counts(runs + traced)
    assert counts["narrow-q2n8"]["differ"] == [] and "differ" not in counts["wide-q64n1"]
    assert counts["narrow-q2n8"]["change"]["counts"] == {"design.json_bytes": 3_600_001}
    # --summarize rebuilds the file from the log and keeps the keys it did not write
    log, out = tmp_path / "runs.jsonl", tmp_path / "bench.json"
    log.write_text("".join(json.dumps(r) + "\n" for r in runs + traced))
    out.write_text(json.dumps({"change": "what changed", "runs": []}))
    assert ab.main(["--summarize", "--log", str(log), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["change"] == "what changed" and len(doc["runs"]) == 11
    assert doc["end_to_end"]["table"]["narrow-q2n8"]["construct_s"] == row
    assert doc["traced_counts"] == json.loads(json.dumps(counts))
