"""Automatic task ordering: round-robin attempts with budget doubling.

Each pass walks the unsolved task list giving every task the same search
budget c. A solved task is immediately consolidated into the network (dream
budget proportional to c) and leaves the list. If a whole pass solves
nothing, c doubles; after any pass with progress, c resets to its original
value. A total-budget guard makes unsolvable curricula terminate. These
settings are one `BudgetsConfig`, the config file's `budgets` section.

A dream is verified in PowerPlay style: it runs in chunks of DREAM_CHUNK
steps, each one consolidate call and one consolidation event, and after
every chunk each task solved so far is re-tested on the new weights,
whichever arm or solver found it. The dream stops at the first chunk after
which all of them pass, or once its granted steps have run. The last
chunk's checks are the dream's after_dream verdicts. Every metrics event of
a run, from run_start to run_end, is emitted here.

The network that accumulates everything is only changed by consolidation;
search arms work on copies and contribute traces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .consolidate import (
    ConsolidationConfig,
    RetentionResult,
    consolidate,
    retention_check,
)
from .envs import TaskDescription
from .evolve import BUDGET_UNITS, Budget, EsConfig, try_solve_task
from .network import NetConfig
from .traces import ReplayPolicy, TraceStore

DREAM_CHUNK = 50  # dream steps between two retention checks


@dataclass(frozen=True)
class BudgetsConfig:
    """A solve at search budget c earns round(dream_multiplier * c) dream
    steps; no pass starts once max_total_budget (None: no cap) is spent."""

    c0: float
    dream_multiplier: float
    unit: str = "env_steps"
    max_total_budget: float | None = None

    def __post_init__(self):
        for name in ("c0", "dream_multiplier", "max_total_budget"):
            value = getattr(self, name)
            if value is not None and not 0 < value < float("inf"):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.unit not in BUDGET_UNITS:
            raise ValueError(f"unit must be one of {BUDGET_UNITS}")


@dataclass
class CurriculumReport:
    """The solved task ids in solve order (run_end's solved_task_ids) and
    the search budget c the run ended at, which no event carries."""

    solved: list[str]
    final_budget: float


def _attempt_seed(seed: int, attempt: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)).generate_state(1)[0])


def retention_event(task_id: str, result: RetentionResult, *, pass_number: int,
                    phase: str) -> dict:
    """The retention_check metrics event; phase is "after_dream" for the
    re-test after each consolidation and "final" for the end-of-run sweep."""
    return {"event": "retention_check", "task_id": task_id, "pass_number": pass_number,
            "phase": phase, **asdict(result)}


def run_curriculum(tasks, budgets: BudgetsConfig, initial_weights: np.ndarray,
                   store: TraceStore, *,
                   net_config: NetConfig, es_config: EsConfig,
                   consolidation_config: ConsolidationConfig,
                   replay_policy: ReplayPolicy,
                   seed: int = 0,
                   solver=None, consolidator=None, on_event=None):
    """Run the whole curriculum; returns (final_weights, CurriculumReport).

    `budgets` sets every attempt's search budget and every solve's dream
    steps. The scratch arm of every attempt starts from initial_weights.
    Every metrics event of the run goes to on_event, in order: run_start
    first, run_end last.
    """
    if not tasks:
        raise ValueError("curriculum needs at least one task")

    weights = np.asarray(initial_weights, dtype=np.float64).copy()
    original = weights.copy()

    if solver is None:
        def solver(*, current_weights, original_weights, task, budget, es, store):
            return try_solve_task(current_weights, original_weights, task, budget,
                                  es, store, config=net_config)

    if consolidator is None:
        def consolidator(*, weights, store, steps, state):
            return consolidate(weights, store, replay_policy, consolidation_config,
                               net_config=net_config, steps=steps, state=state)

    emit = on_event if on_event is not None else (lambda event: None)
    emit({
        "event": "run_start",
        "master_seed": seed,
        "task_ids": [t.task_id for t in tasks],
        "budget_unit": budgets.unit,
        "initial_budget": budgets.c0,
    })

    consolidations = 0  # consolidation events, one per consolidate call

    def dream(task_id: str, pass_number: int, granted: int) -> dict[str, RetentionResult]:
        """One solve's verified dream, in chunks (see the module docstring);
        returns the after_dream verdicts."""
        nonlocal weights, consolidations
        solved_now = [solved_tasks[t] for t in sorted(solved_tasks)]
        # a chunk that may not be the last checks at seeds past every
        # verdict's, so a task with slip is not stopped on its own test; a
        # deterministic task runs the same episodes at any seed
        check_seed = seed + max(t.criterion.min_success_trials for t in solved_now)
        state, done = None, 0
        while True:
            steps = min(DREAM_CHUNK, granted - done)
            weights, report = consolidator(weights=weights, store=store, steps=steps,
                                           state=state)
            state, done = report.state, done + steps
            checks = retention_check(weights, solved_now, net_config,
                                     base_seed=seed if done >= granted else check_seed)
            verified = sum(res.passed for res in checks.values())
            consolidations += 1
            emit({
                "event": "consolidation",
                "task_id": task_id,
                "pass_number": pass_number,
                "steps": steps,
                "initial_loss": report.initial,
                "final_loss": report.final,
                "verified": verified,
            })
            if verified == len(solved_now) or done >= granted:
                break
        stochastic = [t for t in solved_now if not getattr(t.env_spec, "deterministic", True)]
        if done < granted and stochastic:
            checks.update(retention_check(weights, stochastic, net_config, base_seed=seed))
        return checks

    unsolved = list(tasks)
    solved_tasks: dict[str, TaskDescription] = {}  # in solve order
    checks: dict[str, RetentionResult] = {}  # the last after_dream block
    budget_c = float(budgets.c0)
    limit = budgets.max_total_budget or np.inf
    pass_number = 0
    attempt_index = 0
    total_spent = 0.0

    while unsolved and total_spent < limit:  # no pass starts once the budget is spent
        pass_number += 1
        solved_this_pass = 0
        for task in list(unsolved):
            if total_spent >= limit:
                break
            es = replace(es_config, seed=_attempt_seed(seed, attempt_index))
            attempt_index += 1
            outcome = solver(
                current_weights=weights, original_weights=original, task=task,
                budget=Budget(budgets.unit, budget_c), es=es, store=store,
            )
            total_spent += outcome.total_spent
            emit({
                "event": "task_attempt",
                "task_id": task.task_id,
                "pass_number": pass_number,
                "budget": budget_c,
                "status": outcome.status,
                "winner": outcome.winner,
                "budget_spent_warm": outcome.budget_spent["warm"],
                "budget_spent_scratch": outcome.budget_spent["scratch"],
                "evaluations_warm": outcome.evaluations["warm"],
                "evaluations_scratch": outcome.evaluations["scratch"],
                "trials_recorded": outcome.trials_recorded,
                "max_batch_cost": outcome.max_batch_cost,
            })
            if not outcome.solved:
                continue

            solved_this_pass += 1
            solved_tasks[task.task_id] = task
            unsolved.remove(task)
            emit({
                "event": "solve",
                "task_id": task.task_id,
                "pass_number": pass_number,
                "budget": budget_c,
                "winner": outcome.winner,
                "relevant_trial_ids": list(outcome.relevant_trial_ids),
            })

            checks = dream(task.task_id, pass_number,
                           max(1, round(budgets.dream_multiplier * budget_c)))
            for task_id, res in checks.items():
                emit(retention_event(task_id, res, pass_number=pass_number,
                                     phase="after_dream"))
        else:  # a pass the budget guard did not cut short
            if solved_this_pass == 0:
                emit({
                    "event": "budget_double",
                    "pass_number": pass_number,
                    "old_budget": budget_c,
                    "new_budget": budget_c * 2,
                })
                budget_c *= 2
            else:
                budget_c = float(budgets.c0)

    # the final sweep: the last after_dream block tested every solved task on
    # these weights with this seed, so re-report it, in task order
    for task in tasks:
        if task.task_id in checks:
            emit(retention_event(task.task_id, checks[task.task_id],
                                 pass_number=pass_number, phase="final"))
    emit({
        "event": "run_end",
        "solved_task_ids": list(solved_tasks),
        "unsolved_task_ids": [t.task_id for t in unsolved],
        "pass_count": pass_number,
        "total_search_spent": total_spent,
        "consolidations": consolidations,
    })
    return weights, CurriculumReport(solved=list(solved_tasks), final_budget=budget_c)
