"""The demos print exactly their committed golden transcripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                         timeout=120, check=False)
    assert run.returncode == 0, run.stderr.decode()
    golden = ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt"
    assert run.stdout == golden.read_bytes()
