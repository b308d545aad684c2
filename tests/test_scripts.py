"""Smoke tests for the report scripts: each runs at its defaults and turns a
gated argument into a usage error (exit 2)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )


@pytest.mark.parametrize("name", ["catalog_report.py", "family_table.py"])
def test_script_runs_at_defaults(name):
    proc = _script(name)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "name, args",
    [
        ("catalog_report.py", ["--max-weight", "5"]),
        ("catalog_report.py", ["--max-weight", "8", "--allow-slow"]),
        ("family_table.py", ["--max-n", "17"]),
    ],
)
def test_script_rejects_gated_arguments(name, args):
    proc = _script(name, *args)
    assert proc.returncode == 2 and proc.stdout == ""

