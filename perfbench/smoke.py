"""Smoke check of the benchmark itself on a tiny input.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Runs run.py once untraced and once traced on workloads/smoke.json (a 3x3
maze, one task; --seconds 0 gives exactly one run). Asserts that the last
output line is the result object, that the outputs passed their checks, and that
every metric declared in BENCHMARK.json is emitted with its unit and a name
matching [A-Za-z0-9_.-]+. Then runs run.py in a directory holding only
BENCHMARK.json and the benchmark files and asserts that it fails without
printing a result. Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "smoke", "--seed", "1",
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc: subprocess.CompletedProcess, declared: list[dict]) -> None:
    assert proc.returncode == 0, f"run.py exited {proc.returncode}: {proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, sorted(metrics)
    for m in declared:
        got = metrics[m["name"]]
        assert NAME.fullmatch(m["name"]), m["name"]
        assert set(got) == {"value", "unit"}, got
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), (m["name"], got["value"])


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_result(run_bench(root, 0), spec["end_to_end"])
    check_result(run_bench(root, 1), spec["per_layer"])

    bare = root / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(root / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "smoke",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "run.py succeeded without the program's sources"
    assert not proc.stdout.strip(), f"run.py printed a result without sources: {proc.stdout}"
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
