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
records. The last live episode finishes alone on 1-D views of its weight
row, each product one `np.dot` (the same gemv), stepped by `lone_step`.
Each episode's rows go into one (cap + 1, row width) buffer, doubled for
envs without a cap. A maze's sense table is checked once per call, any other
env's senses on every step.
"""

from __future__ import annotations

import numpy as np

from .envs import GridMazeBatch, TaskDescription, goal_encoding, make_env_batch
from .network import NetConfig, Network, _activation_fns, _matvec, unpack_weights
from .traces import Trial, frozen_rows


def _check_senses(config: NetConfig, senses: np.ndarray) -> None:
    if senses.shape[-1:] != (config.input_width,):
        raise ValueError(f"sense must have shape ({config.input_width},), "
                         f"got {senses.shape[-1:]}")
    if not np.isfinite(senses).all():
        raise ValueError("sense vector contains non-finite entries")


def _trial(task: TaskDescription, rows: np.ndarray, success: bool, total: float) -> Trial:
    return Trial(task_id=task.task_id, success=success, relevant=False,
                 timesteps=frozen_rows(rows), final_return=total)


def _doubled(rows: np.ndarray) -> np.ndarray:
    """`rows` with room for twice as many timesteps."""
    return np.concatenate([rows, np.empty_like(rows)])


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
    maze = isinstance(envs, GridMazeBatch)
    if maze and (config.action_dim < 4 or config.reward_dim != 1):
        raise ValueError("maze tasks need at least 4 action units and one reward channel")
    if maze:
        _check_senses(config, envs.sense_rows)  # every maze sense is one of these rows
    act, _ = _activation_fns(config.activation)
    n, in_w, n_act = len(seeds), config.input_width, config.action_dim
    # row t of rows[e] is episode e's [sense | output] at step t; one array
    # per episode, since one for all 8 episodes of a 9x9 maze (1.1 MB) raised
    # a run's peak RSS by about 1 MB
    size = (envs.cap or 16) + 1
    rows = [np.empty((size, in_w + config.output_width)) for _ in seeds]
    w_in, w_rec, b_h, w_out, b_out = unpack_weights(config, weights)
    state = np.zeros((n, config.hidden_dim))
    ids = np.arange(n)                     # episode held in each live row
    totals = np.zeros(n)
    trials: list[Trial | None] = [None] * n
    t = 0                                  # rows each live episode has so far
    senses, rewards, done, reached = envs.reset()
    while True:
        if not maze:
            _check_senses(config, senses)
        if len(ids) == 1:
            break
        drive = _matvec(w_in, senses) + b_h
        for _ in range(config.micro_steps):
            state = act(drive + _matvec(w_rec, state))
        y = _matvec(w_out, state) + b_out
        if t == size:
            size *= 2
            for e in ids.tolist():
                rows[e] = _doubled(rows[e])
        for e, row in zip(ids.tolist(), np.concatenate([senses, y], axis=1)):
            rows[e][t] = row
        totals[ids] += rewards
        t += 1
        if done.any():
            for e, success in zip(ids[done].tolist(), reached[done].tolist()):
                trials[e] = _trial(task, rows[e][:t], success, float(totals[e]))
            keep = ~done
            if not keep.any():
                return trials
            ids = ids[keep]
            envs.keep(keep)
            weights, state, y = weights[keep], state[keep], y[keep]
            w_in, w_rec, b_h, w_out, b_out = unpack_weights(config, weights)
        senses, rewards, done, reached = envs.step(y[:, :n_act])

    # one live episode: each product one gemv on 1-D views, the rest in place
    e = int(ids[0])
    w_in, w_rec, b_h, w_out, b_out = unpack_weights(config, weights[0])
    h, dot, add = state[0], np.dot, np.add
    drive, term = np.empty_like(h), np.empty_like(h)
    lone, step = rows[e], envs.lone_step()
    sense, reward, fin, success = senses[0], float(rewards[0]), bool(done[0]), bool(reached[0])
    total = float(totals[e])
    while True:
        if t == len(lone):
            lone = _doubled(lone)
        row = lone[t]
        row[:in_w] = sense
        y = row[in_w:]
        dot(w_in, sense, drive)
        add(drive, b_h, drive)
        for _ in range(config.micro_steps):
            dot(w_rec, h, term)
            add(drive, term, h)
            act(h, h)
        dot(w_out, h, y)
        add(y, b_out, y)
        total += reward
        t += 1
        if fin:
            trials[e] = _trial(task, lone[:t], success, total)
            return trials
        sense, reward, fin, success = step(y[:n_act])
        if not maze:
            _check_senses(config, sense)


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
