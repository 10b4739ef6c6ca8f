"""skillnet benchmark: the real `skillnet run` on fixed curriculum workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload two_corners --seed 1 --seconds 40 --trace 0

Each run is one `skillnet run` in a fresh single-threaded worker process;
up to min(2, nproc) workers run at once. --trace 0 prints the end-to-end
metrics; --trace 1 runs every seed untraced and then traced, prints the
per-layer table and writes a span file. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. `attempted`
counts `skillnet run` invocations and `failed` those that stopped with the
documented divergence error (exit code 2). Any other failed output check
makes `correct` false and the exit code 1.

Outputs land in .perfbench_out/ under the checkout: the workload's result
file (runs, output digests, nproc, Python and numpy versions), the span file
of a traced run, and digests.json, which holds the sha256 of every run's
trace, metrics and checkpoint files by (workload, source digest, config
digest, master_seed). A later run of the same key, that is of the same code,
must reproduce them byte for byte.

See NOTES.md for the workloads, the seed derivation and the findings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import queue
import re
import statistics
import subprocess
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS_DIR = BENCH_DIR / "workloads"
# every run must end within this many seconds of the benchmark's start
DEADLINE_S = 170
# fresh interpreters timed for setup_s, whose median is reported
SETUP_REPEATS = 11
# runs at once, each a single-threaded worker process, never more than nproc
MAX_PARALLEL = 2
# master seeds per workload. A run's wall time follows its seed (on
# search_9x9, the ES time to solve), so every measurement runs this same pool,
# one to two times over in 40 s, rather than fresh draws.
POOL_SIZE = 20

SETUP_SNIPPET = (
    "import sys\n"
    "import skillnet\n"
    "from skillnet.config import load_config\n"
    "from skillnet.network import init_network\n"
    "init_network(load_config(sys.argv[1]).net)\n"
)


def declared_units(spec_path: Path) -> tuple[dict, dict]:
    """name -> unit for the end-to-end and per-layer metrics of BENCHMARK.json."""
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def bench_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(config: Path, env: dict, root: Path) -> tuple[list[float], list[str]]:
    """Wall seconds of fresh interpreters that import skillnet, load the
    config and build the network."""
    times, errors = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(config)], env=env,
                              cwd=root, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            errors.append(f"setup exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return times, errors


def source_digest(src: Path) -> str:
    """sha256 over the relative paths and contents of the files under src."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(src).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(path: Path, workload: str, src: Path, config: Path,
                  runs: list[dict]) -> list[str]:
    """Compare each run's output digests with any earlier run of the same
    (workload, source, config, master_seed), then record them. Runs of other
    code are recorded beside them and not compared."""
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    src_sha = source_digest(src)
    config_sha = hashlib.sha256(config.read_bytes()).hexdigest()[:16]
    errors = []
    for run in runs:
        if "digests" not in run:
            continue
        key = f"{workload}/{src_sha}/{config_sha}/{run['master_seed']}"
        if key in known and known[key] != run["digests"]:
            errors.append(f"outputs of {key} differ from an earlier run: "
                          f"{known[key]} != {run['digests']}")
        known.setdefault(key, run["digests"])
    path.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    return errors


def master_seeds(workload: str, seed: int):
    """The workload's pool of POOL_SIZE master seeds, entry j being the first
    31 bits of sha256("<workload>:<j>"), in the order of
    sha256("<workload>:<seed>:<j>") and repeated for as long as runs start."""
    def key(text: str) -> bytes:
        return hashlib.sha256(text.encode()).digest()

    order = sorted(range(POOL_SIZE), key=lambda j: key(f"{workload}:{seed}:{j}"))
    while True:
        for j in order:
            yield int.from_bytes(key(f"{workload}:{j}")[:4], "big") & 0x7FFFFFFF


def run_worker(root: Path, env: dict, config: Path, master_seed: int, timeout: float,
               spans: Path | None = None, run_id: str = "") -> dict:
    """One run in a fresh worker process, traced when given a span file;
    returns its record."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--config", str(config),
           "--master-seed", str(master_seed)]
    if spans is not None:
        cmd += ["--spans", str(spans), "--run-id", run_id]
    failed = {"master_seed": master_seed, "rc": None, "tasks_attempted": 0, "tasks_failed": 0}
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {**failed, "errors": [f"worker still running after {timeout:.0f} s"]}
    if proc.returncode != 0:
        return {**failed, "errors": [f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(done: list[dict], setup_times: list[float]) -> dict:
    def call_rate(key: str) -> float:
        rates = [work / seconds for r in done for work, seconds in r[key] if seconds > 0]
        return statistics.median(rates) if rates else 0.0

    load_s = sum(r["trace_load_s"] for r in done)
    by_seed: dict[int, list[float]] = {}
    for r in done:
        by_seed.setdefault(r["master_seed"], []).append(r["run_s"])
    return {
        "setup_s": statistics.median(setup_times),
        # each master seed of the pool weighs the same, however often it ran
        "run_s": statistics.fmean(statistics.fmean(v) for v in by_seed.values()),
        "search_env_steps_per_s": call_rate("search_calls"),
        "dream_rows_per_s": call_rate("dream_calls"),
        "trace_load_rows_per_s": (sum(r["trace_rows"] for r in done) / load_s
                                  if load_s else 0.0),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }


def per_layer(untraced: list[dict], done: list[dict]) -> tuple[dict, dict, dict]:
    """Median over completed traced runs of each per-layer metric, plus the
    layer self seconds and the per-span totals summed over them."""
    metrics = {name: statistics.median(r["per_layer"][name] for r in done)
               for name in done[0]["per_layer"]}
    plain = {r["master_seed"]: r["run_s"] for r in untraced if r["rc"] == 0}
    metrics["trace.overhead_ratio"] = statistics.median(
        r["run_s"] / plain[r["master_seed"]] for r in done if r["master_seed"] in plain)
    layer_s: dict[str, float] = {}
    spans: dict[str, list] = {}
    for r in done:
        for layer, seconds in r.pop("layer_s").items():
            layer_s[layer] = layer_s.get(layer, 0.0) + seconds
        for name, stats in r.pop("span_stats").items():
            total = spans.setdefault(name, [0, 0.0, 0, 0.0])
            for k, v in enumerate(stats):
                total[k] += v
    return metrics, layer_s, spans


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")


def print_layer_tables(layer_s: dict, spans: dict, n_runs: int) -> None:
    total = sum(layer_s.values())
    print(f"per-layer self time over {n_runs} traced runs "
          f"(rows add up to the traced runs' run_s, {total:.3f} s)")
    for layer, seconds in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<16} {seconds:>10.4f} s {100 * seconds / total:>6.1f} %")
    print("spans (calls, inclusive s, self s, work counted at the boundary)")
    for name, (calls, seconds, work, self_s) in sorted(spans.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:<28} {calls:>9d} {seconds:>10.4f} s {self_s:>10.4f} s {work:>10d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "skillnet" / "__init__.py").is_file():
        return fail(f"no skillnet sources under {root / 'src'}; run from a checkout root")
    config = WORKLOADS_DIR / f"{args.workload}.json"
    if not re.fullmatch(r"[A-Za-z0-9_-]+", args.workload) or not config.is_file():
        return fail(f"unknown workload {args.workload!r}")
    end_to_end_units, per_layer_units = declared_units(BENCH_DIR.parent / "BENCHMARK.json")

    out = root / ".perfbench_out"
    work = out / f"work-{args.workload}"
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw["paths"] = {"trace_file": "out/traces.jsonl", "metrics_file": "out/metrics.jsonl",
                    "checkpoint_dir": "out/checkpoints"}
    # one run directory per concurrent worker, each with the same run config
    parallel = min(MAX_PARALLEL, os.cpu_count() or 1)
    free_slots: queue.SimpleQueue = queue.SimpleQueue()
    for k in range(parallel):
        (work / str(k)).mkdir(parents=True, exist_ok=True)
        (work / str(k) / "config.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")
        free_slots.put(work / str(k) / "config.json")
    run_config = work / "0" / "config.json"
    spans_file = out / f"spans-{args.workload}.jsonl"
    env = bench_env(root)
    errors: list[str] = []

    setup_times: list[float] = []
    if not args.trace:
        setup_times, setup_errors = measure_setup(config, env, root)
        errors += setup_errors

    def job(i: int, master_seed: int) -> tuple[int, list[dict], float]:
        """Run i, then with --trace its traced twin, in a free run directory."""
        began = time.perf_counter()
        slot = free_slots.get()
        try:
            recs = [run_worker(root, env, slot, master_seed, DEADLINE_S - (began - started))]
            if args.trace:
                recs.append(run_worker(root, env, slot, master_seed,
                                       DEADLINE_S - (time.perf_counter() - started),
                                       work / f"spans-{i}.jsonl",
                                       f"{args.workload}:{args.seed}:{i}"))
        finally:
            free_slots.put(slot)
        return i, recs, time.perf_counter() - began

    results: dict[int, list[dict]] = {}
    start = time.perf_counter()
    last_cost = 0.0
    seeds = enumerate(master_seeds(args.workload, args.seed))
    with ThreadPoolExecutor(parallel) as pool:
        pending: set = set()
        while True:
            # start a run only if it should end before the deadline; always run one
            while len(pending) < parallel and (
                    not results and not pending
                    or time.perf_counter() - start + last_cost <= args.seconds):
                pending.add(pool.submit(job, *next(seeds)))
            if not pending:
                break
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                i, recs, last_cost = future.result()
                results[i] = recs
    measured_s = time.perf_counter() - start
    runs = [results[i][0] for i in sorted(results)]
    traced = [results[i][1] for i in sorted(results) if args.trace]
    if args.trace:
        with open(spans_file, "w", encoding="utf-8") as fh:
            for i in sorted(results):
                part = work / f"spans-{i}.jsonl"
                if part.exists():
                    fh.write(part.read_text(encoding="utf-8"))
                    part.unlink()

    for run in runs + traced:
        errors += [f"master_seed {run['master_seed']}: {e}" for e in run["errors"]]
    errors += check_digests(out / "digests.json", args.workload, root / "src", run_config,
                            runs + traced)
    traced_digests = {r["master_seed"]: r.get("digests") for r in traced}
    for run in runs:
        seed = run["master_seed"]
        if seed in traced_digests and traced_digests[seed] != run.get("digests"):
            errors.append(f"master_seed {seed}: traced outputs differ from untraced")
    completed = [r for r in runs if r["rc"] == 0 and not r["errors"]]
    completed_traced = [r for r in traced if r["rc"] == 0 and not r["errors"]]
    if not completed or (args.trace and not completed_traced):
        errors.append("no run completed")

    first = runs[0]
    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} runs "
          f"({len(completed)} completed) in {measured_s:.1f} s; nproc {first.get('nproc')}, "
          f"python {first.get('python')}, numpy {first.get('numpy')}")
    metrics: dict = {}
    if completed and not args.trace:
        values = end_to_end(completed, setup_times)
        n_seeds = len({r["master_seed"] for r in completed})
        print_metrics(f"end-to-end (run_s: mean over {n_seeds} master seeds of their mean "
                      f"over {len(completed)} runs; peak_rss_mb: median of the runs; "
                      f"phase rates: median over phase calls; load rate: summed over "
                      f"the runs; setup_s: median of {len(setup_times)})",
                      values, end_to_end_units)
        metrics = {k: {"value": v, "unit": end_to_end_units[k]} for k, v in values.items()}
        tasks = sum(r["tasks_attempted"] for r in runs)
        failed_tasks = sum(r["tasks_failed"] for r in runs)
        dream_s = sum(seconds for r in completed for _rows, seconds in r["dream_calls"])
        print_metrics("reported, not gated (see NOTES.md)", {
            "tasks_failed_frac": failed_tasks / tasks,
            "trace_load_s": statistics.median(r["trace_load_s"] for r in completed),
            "dream_steps_per_s": (sum(r["dream_steps"] for r in completed) / dream_s
                                  if dream_s else 0.0),
        }, {"tasks_failed_frac": "ratio", "trace_load_s": "s", "dream_steps_per_s": "steps/s"})
    elif completed_traced:
        values, layer_s, spans = per_layer(runs, completed_traced)
        print_layer_tables(layer_s, spans, len(completed_traced))
        print_metrics("per-layer metrics (median over traced runs)", values, per_layer_units)
        metrics = {k: {"value": v, "unit": per_layer_units[k]} for k, v in values.items()}

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "measured_s": measured_s, "setup_s": setup_times, "runs": runs,
              "traced_runs": traced, "metrics": metrics, "errors": errors}
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(runs) + len(traced),
        "failed": sum(1 for r in runs + traced if r["rc"] != 0),
        "metrics": metrics,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
