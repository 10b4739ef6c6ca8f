"""Closed-loop episode execution: run the network in an environment and
record the full trace.

A trial's trace has one row per network step, including a final row for the
terminal observation (whose action is computed but never executed). Each row
is the net's input followed by its output, in `StoreDims.columns` order. The
goal input stays constant for the whole trial.

`run_trials` runs a batch of episodes, each with its own weight vector and
seed, in lockstep: every live episode advances with one per-row BLAS gemv per
weight matrix per micro-step, the products `Network.step` computes, so each
trial is bit for bit the one a single-episode loop over `Network.step`
records.
"""

from __future__ import annotations

import numpy as np

from .envs import GridMazeBatch, TaskDescription, goal_encoding, make_env_batch
from .network import NetConfig, Network, _activation_fns, _matvec, unpack_weights
from .traces import Trial, frozen_rows


def _check_senses(config: NetConfig, senses: np.ndarray) -> None:
    if senses.shape[1:] != (config.input_width,):
        raise ValueError(f"sense must have shape ({config.input_width},), "
                         f"got {senses.shape[1:]}")
    if not np.isfinite(senses).all():
        raise ValueError("sense vector contains non-finite entries")


def run_trials(config: NetConfig, weights: np.ndarray, task: TaskDescription,
               seeds) -> list[Trial]:
    """Run one episode per (weight row, seed) pair in lockstep; returns the
    unstored Trials (trial_id unassigned) in the order of `seeds`."""
    seeds = list(seeds)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(seeds), config.n_params):
        raise ValueError(f"weight stack must have shape ({len(seeds)}, {config.n_params}), "
                         f"got {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weight stack contains non-finite entries")
    if not seeds:
        return []
    goal = goal_encoding(task, config.goal_dim)
    envs = make_env_batch(task, goal, seeds)
    if isinstance(envs, GridMazeBatch) and (config.action_dim < 4 or config.reward_dim != 1):
        raise ValueError("maze tasks need at least 4 action units and one reward channel")
    act, _ = _activation_fns(config.activation)
    w_in, w_rec, b_h, w_out, b_out = unpack_weights(config, weights)
    state = np.zeros((len(seeds), config.hidden_dim))
    ids = list(range(len(seeds)))          # episode held in each live row
    rows = [[] for _ in seeds]
    totals = [0.0] * len(seeds)
    trials: list[Trial | None] = [None] * len(seeds)
    senses, rewards, done, reached = envs.reset()
    while True:
        _check_senses(config, senses)
        drive = _matvec(w_in, senses) + b_h
        for _ in range(config.micro_steps):
            state = act(drive + _matvec(w_rec, state))
        y = _matvec(w_out, state) + b_out
        for e, row, reward in zip(ids, np.concatenate([senses, y], axis=1), rewards):
            rows[e].append(row)
            totals[e] += reward
        if np.count_nonzero(done):
            for e, finished, success in zip(ids, done, reached):
                if finished:
                    trials[e] = Trial(task_id=task.task_id, success=bool(success),
                                      relevant=False, timesteps=frozen_rows(rows[e]),
                                      final_return=totals[e])
                    rows[e] = None
            keep = ~done
            if not keep.any():
                return trials
            ids = [e for e, k in zip(ids, keep) if k]
            envs.keep(keep)
            weights, state, y = weights[keep], state[keep], y[keep]
            w_in, w_rec, b_h, w_out, b_out = unpack_weights(config, weights)
        senses, rewards, done, reached = envs.step(y[:, : config.action_dim])


def run_trial(net: Network, task: TaskDescription, seed: int) -> Trial:
    """Run one episode; returns the unstored Trial (trial_id unassigned)."""
    return run_trials(net.config, net.weights[None], task, [seed])[0]


def trial_env_steps(trial: Trial) -> int:
    """Environment transitions consumed by a trial (trace rows minus one)."""
    return len(trial.timesteps) - 1


def evaluate_policy(weights: np.ndarray, config: NetConfig, task: TaskDescription,
                    n_trials: int, base_seed: int = 0) -> dict:
    """Run seeded evaluation episodes without recording; summary stats only."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    stack = np.repeat(np.asarray(weights, dtype=np.float64)[None], n_trials, axis=0)
    trials = run_trials(config, stack, task, [base_seed + i for i in range(n_trials)])
    successes = [t.success for t in trials]
    return {
        "n_trials": n_trials,
        "success_rate": sum(successes) / n_trials,
        "mean_return": float(np.mean([t.final_return for t in trials])),
        "mean_length": float(np.mean([trial_env_steps(t) for t in trials])),
        "successes": successes,
    }
