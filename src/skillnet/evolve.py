"""Black-box acquisition of a new control skill: a two-arm (1+lambda)
evolution-strategy race.

One arm starts from the network's current weights (the "warm" arm, which can
reuse anything already learned); the other starts from the original untrained
weights (the "scratch" arm, a safety belt in case the trained net is too
biased). The arms alternate by spent budget, so their consumption never
drifts apart by more than one generation. The first arm whose incumbent
passes the task's success criterion wins; every evaluation episode, winning
or not, is recorded in the trace store.

The caller's weight vectors are never mutated; the search works on copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envs import TaskDescription, check_success
from .network import NetConfig
# run_trial is not called here; the benchmark's tracer (perfbench/tracing.py)
# looks it up on this module by name, so the import stays
from .rollout import run_trial, run_trials, trial_env_steps  # noqa: F401
from .traces import TraceStore, Trial

BUDGET_UNITS = ("env_steps", "evaluations")

WARM, SCRATCH = "warm", "scratch"


@dataclass(frozen=True)
class Budget:
    """Per-arm search budget, counted in env steps or in evaluations."""

    unit: str
    amount: float

    def __post_init__(self):
        if self.unit not in BUDGET_UNITS:
            raise ValueError(f"unit must be one of {BUDGET_UNITS}, got {self.unit!r}")
        if self.amount <= 0:
            raise ValueError(f"amount must be positive, got {self.amount}")


@dataclass(frozen=True)
class EsConfig:
    population: int = 8     # children per generation
    sigma: float = 0.2      # Gaussian mutation scale
    elitism: bool = True    # keep the parent unless a child strictly improves
    seed: int = 0

    def __post_init__(self):
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass
class SearchOutcome:
    status: str                        # "solved" | "failed"
    winner: str                        # "warm" | "scratch" | "none"
    final_weights: np.ndarray | None
    relevant_trial_ids: list[int]
    all_trial_ids: list[int]
    budget_spent: dict[str, float]     # per arm, in budget units
    batch_costs: dict[str, list[float]]
    best_fitness: dict[str, list[float]]
    evaluations: dict[str, int]

    @property
    def solved(self) -> bool:
        return self.status == "solved"

    @property
    def max_batch_cost(self) -> float:
        costs = self.batch_costs[WARM] + self.batch_costs[SCRATCH]
        return max(costs) if costs else 0.0

    @property
    def total_spent(self) -> float:
        return self.budget_spent[WARM] + self.budget_spent[SCRATCH]


def perturb(weights: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add independent zero-mean Gaussian noise of scale sigma."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    weights = np.asarray(weights, dtype=np.float64)
    if sigma == 0:
        return weights.copy()
    return weights + rng.normal(0.0, sigma, size=weights.shape)


def candidate_fitness(returns, n_trials: int) -> np.ndarray:
    """Each candidate's mean final return over its n_trials consecutive
    trials; bit for bit one np.mean per candidate."""
    return np.mean(np.reshape(returns, (-1, n_trials)), axis=1)


@dataclass
class _Arm:
    name: str
    parent: np.ndarray
    mutate_rng: np.random.Generator
    seed_rng: np.random.Generator
    parent_fitness: float = -np.inf
    parent_trials: list[Trial] = field(default_factory=list)
    parent_evaluated: bool = False
    spent: float = 0.0
    batch_costs: list[float] = field(default_factory=list)
    best_fitness: list[float] = field(default_factory=list)
    evaluations: int = 0


def try_solve_task(current_weights: np.ndarray, original_weights: np.ndarray,
                   task: TaskDescription, budget: Budget, es: EsConfig,
                   store: TraceStore, *, config: NetConfig) -> SearchOutcome:
    """Race a warm-started and a from-scratch (1+lambda) ES on one task.

    Stops at the first arm whose incumbent passes the task's success
    criterion, or once both arms have exhausted their budget. On success the
    task's earlier relevant traces are superseded and the winner's
    validation trials are marked: just the final successful one when the
    environment is deterministic, every successful one otherwise.
    """
    current_weights = np.asarray(current_weights, dtype=np.float64)
    original_weights = np.asarray(original_weights, dtype=np.float64)
    n_trials = task.criterion.min_success_trials
    deterministic = getattr(task.env_spec, "deterministic", True)

    warm_ss, scratch_ss = np.random.SeedSequence(es.seed).spawn(2)
    arms = {}
    for name, weights, ss in ((WARM, current_weights, warm_ss),
                              (SCRATCH, original_weights, scratch_ss)):
        mutate_ss, seed_ss = ss.spawn(2)
        arms[name] = _Arm(
            name=name, parent=weights.copy(),
            mutate_rng=np.random.default_rng(mutate_ss),
            seed_rng=np.random.default_rng(seed_ss),
        )

    all_trial_ids: list[int] = []
    solved_arm: _Arm | None = None

    def run_batch(arm: _Arm) -> None:
        if not arm.parent_evaluated:
            candidates = [arm.parent]
        else:
            candidates = [perturb(arm.parent, es.sigma, arm.mutate_rng)
                          for _ in range(es.population)]
        seeds = [int(arm.seed_rng.integers(0, 2**31)) for _ in candidates]

        # candidate-major: candidate c's trial i runs with seed seeds[c] + i
        episodes = run_trials(config, np.repeat(candidates, n_trials, axis=0), task,
                              [seed + i for seed in seeds for i in range(n_trials)])
        results = [episodes[c * n_trials : (c + 1) * n_trials]
                   for c in range(len(candidates))]
        ids = store.extend(episodes)
        for t, trial_id in zip(episodes, ids):
            t.trial_id = trial_id
        all_trial_ids.extend(ids)
        arm.evaluations += len(candidates)
        if budget.unit == "env_steps":
            cost = float(sum(trial_env_steps(t) for t in episodes))
        else:
            cost = float(len(candidates))
        fitness = candidate_fitness([t.final_return for t in episodes], n_trials)
        # extend checked every return finite, so argmax's pick is the first
        # best candidate
        best_idx = int(np.argmax(fitness))
        best_fit = float(fitness[best_idx])

        if not arm.parent_evaluated:
            arm.parent_evaluated = True
            arm.parent_fitness = best_fit
            arm.parent_trials = results[0]
        else:
            promote = best_fit > arm.parent_fitness if es.elitism else True
            if promote:
                arm.parent = candidates[best_idx]
                arm.parent_fitness = best_fit
                arm.parent_trials = results[best_idx]

        arm.spent += cost
        arm.batch_costs.append(cost)
        arm.best_fitness.append(arm.parent_fitness)

    while solved_arm is None:
        open_arms = [a for a in (arms[WARM], arms[SCRATCH]) if a.spent < budget.amount]
        if not open_arms:
            break
        arm = min(open_arms, key=lambda a: (a.spent, a.name != WARM))
        run_batch(arm)
        if check_success(arm.parent_trials, task.criterion):
            solved_arm = arm

    relevant_ids: list[int] = []
    if solved_arm is not None:
        store.supersede_task(task.task_id)
        successful = [t for t in solved_arm.parent_trials if t.success]
        to_mark = successful[-1:] if deterministic else successful
        for t in to_mark:
            store.mark_relevant(t.trial_id)
            relevant_ids.append(t.trial_id)

    return SearchOutcome(
        status="solved" if solved_arm is not None else "failed",
        winner=solved_arm.name if solved_arm is not None else "none",
        final_weights=solved_arm.parent.copy() if solved_arm is not None else None,
        relevant_trial_ids=relevant_ids,
        all_trial_ids=all_trial_ids,
        budget_spent={name: arm.spent for name, arm in arms.items()},
        batch_costs={name: arm.batch_costs for name, arm in arms.items()},
        best_fitness={name: arm.best_fitness for name, arm in arms.items()},
        evaluations={name: arm.evaluations for name, arm in arms.items()},
    )
