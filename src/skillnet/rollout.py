"""Closed-loop episode execution: run the network in an environment and
record the full trace.

A trial's trace has one row per network step, including a final row for the
terminal observation (whose action is computed but never executed). Each row
is the net's input followed by its output, in `StoreDims.columns` order. The
goal input stays constant for the whole trial.
"""

from __future__ import annotations

import numpy as np

from .envs import TaskDescription, goal_encoding, make_env
from .network import NetConfig, Network, initial_state
from .traces import Trial, frozen_rows


def run_trial(net: Network, task: TaskDescription, seed: int, env=None) -> Trial:
    """Run one episode; returns the unstored Trial (trial_id unassigned)."""
    cfg = net.config
    env = env if env is not None else make_env(task)
    goal = goal_encoding(task, cfg.goal_dim)
    obs = env.reset(seed=seed)
    state = initial_state(cfg)
    rows = []
    total = 0.0
    while True:
        sense = np.concatenate([obs.obs, goal, obs.reward])
        state, out = net.step(state, sense)
        rows.append(np.concatenate([sense, out.action, out.pred, out.return_pred]))
        total += float(obs.reward.sum())
        if obs.done:
            break
        obs = env.step(out.action)
    return Trial(
        task_id=task.task_id, success=obs.reached, relevant=False,
        timesteps=frozen_rows(rows), final_return=total,
    )


def trial_env_steps(trial: Trial) -> int:
    """Environment transitions consumed by a trial (trace rows minus one)."""
    return len(trial.timesteps) - 1


def evaluate_policy(weights: np.ndarray, config: NetConfig, task: TaskDescription,
                    n_trials: int, base_seed: int = 0) -> dict:
    """Run seeded evaluation episodes without recording; summary stats only."""
    net = Network(config, weights)
    trials = [run_trial(net, task, seed=base_seed + i) for i in range(n_trials)]
    successes = [t.success for t in trials]
    return {
        "n_trials": n_trials,
        "success_rate": sum(successes) / n_trials,
        "mean_return": float(np.mean([t.final_return for t in trials])),
        "mean_length": float(np.mean([trial_env_steps(t) for t in trials])),
        "successes": successes,
    }
