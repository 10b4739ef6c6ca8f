"""Command-line experiment runner and inspection tooling.

Subcommands:
  run             execute a full curriculum from a config file, writing the
                  trace file, a metrics JSONL and a final weights checkpoint
  eval            evaluate a checkpoint on one configured task
  transfer-probe  race a checkpoint against a fresh net on one task and
                  report both arms' budgets
  traces          list, dump or export trials from a trace file

Exit codes: 0 success, 1 configuration/usage error (the message names the
field), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .config import (
    ConfigError,
    ExperimentConfig,
    check_task_fits_net,
    load_config,
    with_seed,
)
# retention_check is not called here; the benchmark's tracer
# (perfbench/tracing.py) looks it up on this module by name, so the import stays
from .consolidate import retention_check  # noqa: F401
from .curriculum import run_curriculum
from .evolve import Budget, try_solve_task
from .jsoncheck import SEED
from .metrics import MetricsWriter, scrub, validate_event
from .network import NET, init_network, load_checkpoint, save_checkpoint
from .rollout import evaluate_policy
from .traces import StoreDims, TraceFormatError, TraceStore, trial_to_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skillnet",
        description="Continual-skill training of a single recurrent network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the configured curriculum end to end")
    run_p.add_argument("--config", required=True, help="experiment config JSON")
    run_p.add_argument("--seed", type=int, default=None, help="override master_seed")

    eval_p = sub.add_parser("eval", help="evaluate a checkpoint on one task")
    eval_p.add_argument("--checkpoint", required=True)
    eval_p.add_argument("--config", required=True)
    eval_p.add_argument("--task", required=True, help="task id from the config")
    eval_p.add_argument("--trials", type=int, default=None,
                        help="evaluation trials (default: the task's criterion K)")
    eval_p.add_argument("--seed", type=int, default=0, help="evaluation seed base")

    probe_p = sub.add_parser("transfer-probe",
                             help="race checkpoint vs fresh weights on a task")
    probe_p.add_argument("--checkpoint", required=True)
    probe_p.add_argument("--config", required=True)
    probe_p.add_argument("--task", required=True, help="task id from the config")
    probe_p.add_argument("--seed", type=int, default=None, help="override master_seed")

    traces_p = sub.add_parser("traces", help="list, dump or export stored trials")
    traces_p.add_argument("trace_file")
    traces_p.add_argument("--task", default=None, help="filter by task id")
    outcome = traces_p.add_mutually_exclusive_group()
    outcome.add_argument("--success", action="store_true", help="only successful trials")
    outcome.add_argument("--failed", action="store_true", help="only failed trials")
    traces_p.add_argument("--relevant", action="store_true", help="only relevant trials")
    output = traces_p.add_mutually_exclusive_group()
    output.add_argument("--dump", type=int, default=None, metavar="TRIAL_ID",
                        help="print one trial's full v1 JSON")
    output.add_argument("--export-v1", default=None, metavar="OUT",
                        help="write the whole store to OUT as v1 JSON Lines")
    return parser


def _load(config_path: str, seed: int | None) -> ExperimentConfig:
    config = load_config(config_path)
    if seed is not None:
        config = with_seed(config, SEED(seed, "--seed"))
    return config


# the checkpoint header keys that fix the net's shape and dynamics
TOPOLOGY_KEYS = ("m", "p", "n", "o", "h", "micro_steps", "activation")


def _find_task(config: ExperimentConfig, task_id: str):
    for index, task in enumerate(config.tasks):
        if task.task_id == task_id:
            return index, task
    raise ConfigError("task", f"unknown task id {task_id!r}; configured: "
                              f"{[t.task_id for t in config.tasks]}")


def _load_checkpoint_or_usage_error(path):
    try:
        return load_checkpoint(path)
    except FileNotFoundError:
        raise ConfigError("checkpoint", f"file not found: {path}") from None
    except OSError as exc:
        raise ConfigError("checkpoint", f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError("checkpoint", f"malformed file {path}: {exc}") from None


def cmd_run(args) -> int:
    config = _load(args.config, args.seed)
    net_config = config.net
    _, weights = init_network(net_config)
    config.paths.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    config.paths.trace_file.parent.mkdir(parents=True, exist_ok=True)
    config.paths.metrics_file.parent.mkdir(parents=True, exist_ok=True)
    # every trial is on disk once it is appended, so a run that diverges, is
    # interrupted or is killed outright keeps every trial it already paid for
    store = TraceStore.create(config.paths.trace_file, StoreDims.from_net_config(net_config))
    last_checks: dict[str, dict] = {}  # each task's last after_dream retention_check

    def emit(event: dict) -> None:
        if event["event"] == "retention_check":
            last_checks[event["task_id"]] = event
        writer.emit(event)

    try:
        with MetricsWriter(config.paths.metrics_file) as writer:
            writer.emit({
                "event": "run_start",
                "master_seed": config.master_seed,
                "task_ids": [t.task_id for t in config.tasks],
                "budget_unit": config.budgets.unit,
                "initial_budget": config.budgets.c0,
            })
            final_weights, report = run_curriculum(
                list(config.tasks), config.budgets.c0, config.budgets.dream_multiplier,
                weights, store,
                net_config=net_config, es_config=config.es,
                consolidation_config=config.consolidation,
                replay_policy=config.replay,
                budget_unit=config.budgets.unit,
                max_total_budget=config.budgets.max_total_budget,
                seed=config.master_seed,
                on_event=emit,
            )
            # the final sweep: the last after_dream block tested every solved
            # task on these weights with this seed, so re-emit it, in config order
            solved_ids = {r.task_id for r in report.solved}
            for task in config.tasks:
                if task.task_id in solved_ids:
                    writer.emit({**last_checks[task.task_id], "pass_number": report.pass_count,
                                 "phase": "final"})
            writer.emit({
                "event": "run_end",
                "solved_task_ids": [r.task_id for r in report.solved],
                "unsolved_task_ids": report.unsolved_task_ids,
                "pass_count": report.pass_count,
                "total_search_spent": report.total_search_spent,
                "consolidations": report.consolidations,
            })
    finally:
        store.save(config.paths.trace_file)
        store.close()
    save_checkpoint(config.paths.checkpoint_dir / "final.ckpt", net_config, final_weights)
    print(f"solved {len(report.solved)}/{len(config.tasks)} tasks; "
          f"traces: {config.paths.trace_file}; metrics: {config.paths.metrics_file}")
    return 0


def cmd_eval(args) -> int:
    config = _load(args.config, None)
    index, task = _find_task(config, args.task)
    net_config, weights = _load_checkpoint_or_usage_error(args.checkpoint)
    try:
        check_task_fits_net(task, net_config, f"tasks[{index}]")
    except ConfigError as exc:
        raise ConfigError("checkpoint", f"its net does not fit task {task.task_id!r}: "
                                        f"{exc}") from None
    trials = args.trials if args.trials is not None else task.criterion.min_success_trials
    if trials < 1:
        raise ConfigError("trials", "must be >= 1")
    stats = evaluate_policy(weights, net_config, task, trials, base_seed=SEED(args.seed, "--seed"))
    print(f"task {task.task_id}: success_rate={stats['success_rate']:.3f} "
          f"mean_return={stats['mean_return']:.4f} mean_length={stats['mean_length']:.1f} "
          f"over {trials} trials")
    return 0


def cmd_transfer_probe(args) -> int:
    config = _load(args.config, args.seed)
    _, task = _find_task(config, args.task)
    warm_config, warm_weights = _load_checkpoint_or_usage_error(args.checkpoint)
    differ = [key for key in TOPOLOGY_KEYS
              if getattr(warm_config, NET[key][0]) != getattr(config.net, NET[key][0])]
    if differ:
        raise ConfigError("checkpoint", f"its net differs from the config's in {', '.join(differ)}")
    _, fresh_weights = init_network(config.net)
    store = TraceStore(StoreDims.from_net_config(config.net))
    es = replace(config.es, seed=config.master_seed)
    outcome = try_solve_task(
        warm_weights, fresh_weights, task,
        Budget(config.budgets.unit, config.budgets.c0), es, store,
        config=config.net,
    )
    event = scrub({
        "event": "transfer_probe",
        "task_id": task.task_id,
        "status": outcome.status,
        "winner": outcome.winner,
        "budget_unit": config.budgets.unit,
        "budget": config.budgets.c0,
        "budget_spent_warm": outcome.budget_spent["warm"],
        "budget_spent_scratch": outcome.budget_spent["scratch"],
        "max_batch_cost": outcome.max_batch_cost,
        "evaluations_warm": outcome.evaluations["warm"],
        "evaluations_scratch": outcome.evaluations["scratch"],
        "relevant_trial_ids": outcome.relevant_trial_ids,
    })
    validate_event(event)
    print(json.dumps(event))
    return 0


def cmd_traces(args) -> int:
    try:
        store = TraceStore.load(args.trace_file)
    except FileNotFoundError:
        raise ConfigError("trace_file", f"file not found: {args.trace_file}") from None
    except OSError as exc:
        raise ConfigError("trace_file", f"cannot read {args.trace_file}: {exc.strerror}") from None
    if store.torn_tail_offset is not None:
        print(f"warning: {args.trace_file}: dropped a torn last record at byte "
              f"{store.torn_tail_offset}", file=sys.stderr)
    if args.export_v1 is not None:
        store.export_v1(args.export_v1)
        return 0
    if args.dump is not None:
        try:
            trial = store.get(args.dump)
        except KeyError:
            print(f"error: no trial with id {args.dump}", file=sys.stderr)
            return 1
        print(json.dumps(trial_to_json(trial, store.dims), indent=2))
        return 0
    trials = list(store)
    if args.task is not None:
        trials = [t for t in trials if t.task_id == args.task]
    if args.success:
        trials = [t for t in trials if t.success]
    if args.failed:
        trials = [t for t in trials if not t.success]
    if args.relevant:
        trials = [t for t in trials if t.relevant]
    for t in trials:
        print(f"{t.trial_id}\t{t.task_id}\tsuccess={t.success}\trelevant={t.relevant}"
              f"\tsteps={len(t.timesteps)}\tfinal_cr={t.final_return!r}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "eval": cmd_eval,
        "transfer-probe": cmd_transfer_probe,
        "traces": cmd_traces,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
