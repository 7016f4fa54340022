"""The worked examples replay byte for byte against the recorded output."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_worked_examples_match_golden_output():
    proc = subprocess.run(
        [sys.executable, "scripts/run_worked_examples.py"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = (ROOT / "tests" / "golden" / "worked_examples.out").read_text()
    assert proc.stdout == golden
