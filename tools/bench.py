"""Collect the benchmark's result files into one BENCH_<tag>.json, or compare two.

Run from the root of a checkout, after `perfbench/run.py --trace 0` has run
each workload of BENCHMARK.json:

    python3 perfbench/run.py --workload two_corners --seed 1 --seconds 40 --trace 0
    ...
    python3 tools/bench.py TAG                 # writes BENCH_TAG.json
    python3 tools/bench.py --compare A.json B.json

Collecting reads .perfbench_out/<workload>-seed1-trace0.json for every
workload and writes, per workload, the six end-to-end
metrics, and per master seed of the workload's pool (perfbench/run.py's
`master_seeds`) its output digests, `tasks_failed`, exit code (`rc`) and
dream steps, and the pool's sums: tasks, failed tasks, non-zero exits and
dream steps. A pool seed that ran twice with other outputs, a pool seed that
never ran and a result file that reports failed checks are errors.

--compare lists the pool seeds whose digests differ between two BENCH files
(or that only one of them holds) and exits 1 if there are any; a file that
is not a BENCH file (an object of workloads with `seeds`) is an error.

Exit codes: 0 done, 1 digests differ, 2 an error (the message says which).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load_run_module()


class BenchError(Exception):
    pass


def pool(workload: str) -> list[int]:
    """The workload's master seeds, in ascending order."""
    return sorted(islice(RUN.master_seeds(workload, 0), RUN.POOL_SIZE))


def collect_workload(workload: str, result_file: Path) -> dict:
    try:
        result = json.loads(result_file.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BenchError(f"{workload}: no result file {result_file}") from None
    if result["errors"]:
        raise BenchError(f"{result_file} reports failed checks: {result['errors'][0]}")
    seeds: dict[int, dict] = {}
    for run in result["runs"]:
        record = {"digests": run.get("digests"), "tasks_failed": run["tasks_failed"],
                  "rc": run["rc"], "dream_steps": run.get("dream_steps")}
        earlier = seeds.setdefault(run["master_seed"], record)
        if earlier != record:
            raise BenchError(f"{workload}: master seed {run['master_seed']} ran twice with "
                             f"other outputs: {earlier} != {record}")
    master_seeds = pool(workload)
    missing = [seed for seed in master_seeds if seed not in seeds]
    if missing:
        raise BenchError(f"{workload}: pool seeds {missing} never ran")
    records = [seeds[seed] for seed in master_seeds]
    first = result["runs"][0]
    return {
        "result_file": result_file.name,
        "runs": len(result["runs"]),
        "machine": {key: first.get(key) for key in ("nproc", "python", "numpy")},
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        "pool": {
            "seeds": len(records),
            # a run that timed out attempted none of the config's tasks
            "tasks": max(r["tasks_attempted"] for r in result["runs"]) * len(records),
            "tasks_failed": sum(r["tasks_failed"] for r in records),
            "nonzero_exits": sum(r["rc"] != 0 for r in records),
            "dream_steps": sum(r["dream_steps"] or 0 for r in records),
        },
        "seeds": {str(seed): seeds[seed] for seed in master_seeds},
    }


def collect(results_dir: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"workloads": {
        w["name"]: collect_workload(w["name"], results_dir / f"{w['name']}-seed1-trace0.json")
        for w in spec["workloads"]}}


def compare(a: dict, b: dict) -> list[str]:
    """One line per pool seed whose digests differ between the two files."""
    lines = []
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        seeds_a = a["workloads"].get(workload, {}).get("seeds", {})
        seeds_b = b["workloads"].get(workload, {}).get("seeds", {})
        for seed in sorted(set(seeds_a) | set(seeds_b), key=int):
            digests = [s.get(seed, {}).get("digests", "missing") for s in (seeds_a, seeds_b)]
            if digests[0] != digests[1]:
                lines.append(f"{workload} master seed {seed}: {digests[0]} != {digests[1]}")
    return lines


def _read_bench(path: str) -> dict:
    """A BENCH file: an object whose `workloads` are objects, each with an
    object of per-seed objects under `seeds`."""
    try:
        bench = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None
    workloads = bench.get("workloads") if isinstance(bench, dict) else None
    if not isinstance(workloads, dict) or not all(
            isinstance(w, dict) and isinstance(w.get("seeds"), dict)
            and all(isinstance(seed, dict) for seed in w["seeds"].values())
            for w in workloads.values()):
        raise BenchError(f"{path} is not a BENCH file: it needs an object of workloads, "
                         f"each an object with an object of seed records under 'seeds'")
    return bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tag", nargs="?", help="write BENCH_<tag>.json in the current directory")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the pool seeds whose digests differ")
    args = parser.parse_args(argv)
    if (args.tag is None) == (args.compare is None):
        parser.error("give a tag or --compare A B")
    try:
        if args.compare:
            a, b = map(_read_bench, args.compare)
            lines = compare(a, b)
            n_seeds = sum(len(w["seeds"]) for w in a["workloads"].values())
            for line in lines:
                print(line)
            print(f"{len(lines)} of {n_seeds} pool seeds differ")
            return 1 if lines else 0
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.tag):
            raise BenchError(f"tag {args.tag!r} must match [A-Za-z0-9_.-]+")
        bench = collect(Path.cwd() / ".perfbench_out")
        out = Path.cwd() / f"BENCH_{args.tag}.json"
        out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
        for workload, entry in bench["workloads"].items():
            p = entry["pool"]
            print(f"{workload}: {p['tasks_failed']} of {p['tasks']} tasks failed, "
                  f"{p['nonzero_exits']} non-zero exits, {p['dream_steps']} dream steps")
        print(f"wrote {out.name}")
        return 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
