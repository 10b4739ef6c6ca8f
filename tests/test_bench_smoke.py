"""The benchmark's own smoke check, run as part of the test suite.

perfbench/smoke.py runs `skillnet run` through the benchmark untraced and
traced on a tiny config, which checks the names the benchmark looks up in
the package (its phase and per-layer spans) and the final retention sweep
it reads from the metrics file. A rename that breaks either fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_check_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke ok" in proc.stdout
