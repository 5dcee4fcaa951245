"""Checks on the repository as a whole: the CLI smoke script, the
modules the CLI loads at start-up, and the Python 3.10 floor that
pyproject.toml declares."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_cli_smoke_script(tmp_path):
    # the same script CI runs; `python` inside it is this interpreter
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env["PATH"] = os.pathsep.join([os.path.dirname(sys.executable), env.get("PATH", "")])
    done = subprocess.run(
        ["bash", "-eo", "pipefail", str(ROOT / "tests" / "cli_smoke.sh"), str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_console_script_takes_the_module_entry():
    # the installed `frcage` command ends the process the way `python -m frcage.cli` does
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n", 1)[1]
    assert scripts.startswith('frcage = "frcage.cli:entry"\n')
    last = ast.parse((ROOT / "src" / "frcage" / "cli.py").read_text()).body[-1]
    assert ast.unparse(last).startswith("if __name__ == '__main__':\n    entry()")


# the standard-library modules the CLI needs anyway
START_UP_BASE = "json, argparse, collections, functools, itertools, operator, os, gc"


def test_cli_start_up_imports():
    # every command is a fresh process, so each module frcage.cli loads is paid on every run;
    # subtracting the base keeps this independent of what the Python version preloads
    code = (f"import sys, {START_UP_BASE}; base = set(sys.modules); import frcage.cli; "
            "print(*sorted(set(sys.modules) - base))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    loaded = set(done.stdout.split())
    assert "frcage.cli" in loaded
    assert not loaded & {"dataclasses", "fractions", "decimal", "inspect"}, loaded


PY_FILES = sorted(
    p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py")
)


@pytest.mark.parametrize("path", PY_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # syntax only: a 3.11-only library call (tomllib, ExceptionGroup, ...) still passes
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
