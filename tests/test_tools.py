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


def _module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


launch = _module(LAUNCH)
loc = _module(LOC)


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
