import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_benchmark_checks_catch_corrupted_outputs():
    # The benchmark's output checks gate every speed claim, so each of them
    # must still reject a deliberately corrupted output.
    run = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=REPO,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "selftest passed" in run.stdout
