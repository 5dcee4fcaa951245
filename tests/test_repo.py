"""Checks on the repository as a whole: the CLI smoke script and the
Python 3.10 floor that pyproject.toml declares."""

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


PY_FILES = sorted(
    p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py")
)


@pytest.mark.parametrize("path", PY_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # syntax only: a 3.11-only library call (tomllib, ExceptionGroup, ...) still passes
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
