"""One benchmark run, in a fresh single-threaded process.

Started by run.py from the root of a checkout, once per run. The run is the
real `skillnet run` command (`skillnet.cli.main`) on the given config and
master seed. Afterwards its outputs are checked and digested, and one JSON
record of what was measured is printed. With --spans the run is traced.
"""

from __future__ import annotations

import os

# BLAS threads must be pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from skillnet import cli, envs  # noqa: E402
from skillnet.metrics import read_metrics  # noqa: E402
from skillnet.network import load_checkpoint  # noqa: E402
from skillnet.traces import TraceStore  # noqa: E402

import tracing  # noqa: E402


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _probe_rows(consolidation: dict) -> int:
    """Rows of a consolidation's probe batch that have a prediction target:
    every replayed timestep but each trial's last."""
    loss = consolidation["initial_loss"]
    return loss["pred_steps"] if loss else 0


def run_once(config_path: Path, out_dir: Path, master_seed: int, n_tasks: int,
             tracer: tracing.Tracer, traced: bool) -> dict:
    """One `skillnet run`, its output checks, and what they measured."""
    steps_before = envs.step_counter.count
    stderr = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = cli.main(["run", "--config", str(config_path), "--seed", str(master_seed)])
    run_s = time.perf_counter() - start
    # the run's own peak, before the output checks below load the trace
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env_steps = envs.step_counter.count - steps_before
    spans = tracer.take()

    rec = {"master_seed": master_seed, "rc": rc, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
           "errors": [], "tasks_attempted": n_tasks, "tasks_failed": n_tasks}
    errors = rec["errors"]
    try:
        events = read_metrics(out_dir / "metrics.jsonl")
    except (OSError, ValueError) as exc:
        errors.append(f"metrics file: {exc}")
        events = []
    if rc != 0:
        message = stderr.getvalue().strip()
        rec["diverged"] = rc == 2 and "consolidation diverged" in message
        if not rec["diverged"]:
            errors.append(f"skillnet run exited {rc}: {message}")
        return rec

    if not events or events[-1]["event"] != "run_end":
        errors.append("metrics file does not end with run_end")
        return rec
    run_end = events[-1]
    attempts = [e for e in events if e["event"] == "task_attempt"]
    solved = run_end["solved_task_ids"]
    # the sweep runs in config order, which differs from solve order when a
    # task is solved on a later pass
    final = events[-1 - len(solved):-1]
    if (any(e["event"] != "retention_check" for e in final)
            or sorted(e["task_id"] for e in final) != sorted(solved)):
        errors.append("final retention sweep does not match solved tasks")
    rec["tasks_failed"] = len(run_end["unsolved_task_ids"]) + sum(
        1 for e in final if not e["passed"])
    # (work, seconds) of each phase call: one try_solve_task call per
    # task_attempt event and one consolidate call per consolidation event.
    # A dream call's work is its steps times the rows of its probe batch: the
    # replay modes of the workloads select the same batch on every step.
    consolidations = [e for e in events if e["event"] == "consolidation"]
    for key, name, work in (
            ("search_calls", tracing.SEARCH,
             [e["budget_spent_warm"] + e["budget_spent_scratch"] for e in attempts]),
            ("dream_calls", tracing.DREAM,
             [e["steps"] * _probe_rows(e) for e in consolidations])):
        seconds = [t1 - t0 for _sid, _parent, span_name, t0, t1, _n in spans
                   if span_name == name]
        if len(seconds) != len(work):
            errors.append(f"{len(seconds)} {name} calls, metrics record {len(work)}")
        rec[key] = list(zip(work, seconds))
    rec["dream_steps"] = sum(e["steps"] for e in consolidations)

    trace_file = out_dir / "traces.jsonl"
    expected = sum(e["trials_recorded"] for e in attempts)
    start = time.perf_counter()
    try:
        store = TraceStore.load(trace_file)
    except (OSError, ValueError) as exc:
        errors.append(f"trace file: {exc}")
        return rec
    rec["trace_load_s"] = time.perf_counter() - start
    rec["trace_rows"] = sum(len(t.timesteps) for t in store)
    if len(store) != expected:
        errors.append(f"trace file holds {len(store)} trials, metrics record {expected}")
    del store
    load_spans = tracer.take()

    ckpt = out_dir / "checkpoints" / "final.ckpt"
    try:
        _, weights = load_checkpoint(ckpt)
        if not np.all(np.isfinite(weights)):
            errors.append("checkpoint weights are not finite")
    except (OSError, ValueError) as exc:
        errors.append(f"checkpoint: {exc}")
    rec["digests"] = {
        "trace": _sha256(trace_file),
        "metrics": _sha256(out_dir / "metrics.jsonl"),
        "checkpoint": _sha256(ckpt),
    }
    if traced:
        rec["spans"] = spans
        rec["per_layer"] = tracing.per_layer_metrics(
            spans, load_spans, events, run_s=run_s, env_steps=env_steps,
            trace_bytes=trace_file.stat().st_size,
            tasks_attempted=n_tasks, tasks_failed=rec["tasks_failed"])
        rec["layer_s"] = tracing.layer_self_seconds(spans, run_s)
        rec["span_stats"] = tracing.span_stats(spans)
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True, type=Path,
                        help="run config whose paths point into its own directory")
    parser.add_argument("--master-seed", required=True, type=int)
    parser.add_argument("--spans", type=Path, default=None,
                        help="trace the run and append its spans to this file")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)

    n_tasks = len(json.loads(args.config.read_text(encoding="utf-8"))["tasks"])
    out_dir = args.config.parent / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    traced = args.spans is not None
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    else:
        tracer.install_phases()
    rec = run_once(args.config, out_dir, args.master_seed, n_tasks, tracer, traced)
    shutil.rmtree(out_dir, ignore_errors=True)
    spans = rec.pop("spans", [])
    if spans:
        tracing.write_spans(args.spans, args.run_id, spans, min(span[3] for span in spans))
    rec.update(nproc=os.cpu_count(), python=platform.python_version(), numpy=np.__version__)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
