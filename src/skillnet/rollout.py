"""Closed-loop episode execution: run the network in an environment and
record the full trace; `consolidate.retention_check` scores a policy on it.

A trial's trace has one row per network step, including a final row for the
terminal observation (whose action is computed but never executed). Each row
is the net's input followed by the output row `Network.step` returns, in
`StoreDims.columns` order. The goal input stays constant for the whole trial.

`run_trials` runs a batch of episodes, each with its own weight vector and
seed, every one bit for bit the trial a single-episode loop over
`Network.step` records. Each row is written once, into one buffer per call
(per episode if not a maze); each trial is a read-only view of its rows,
which `TraceStore.extend` writes to its store's file. A maze's episodes run in lockstep through
`GridMazeBatch`: every live episode advances with one per-row BLAS gemv per
weight matrix per micro-step, the products `Network.step` computes, and the
maze's sense table is checked once per call. One loop, `_run_alone`, runs
an episode alone on 1-D views of its weight row, each product one `np.dot`
(the same gemv): it finishes a maze's last live episode, stepped by
`lone_step`, and runs every episode of any other env, one after another,
checking its senses on every step.
"""

from __future__ import annotations

import numpy as np

from .envs import GridMazeBatch, GridMazeSpec, TaskDescription, goal_encoding, make_env
from .network import NetConfig, Network, _activation_fns, _matvec, unpack_weights
from .traces import Trial


def _check_senses(config: NetConfig, senses: np.ndarray) -> None:
    if senses.shape[-1:] != (config.input_width,):
        raise ValueError(f"sense must have shape ({config.input_width},), "
                         f"got {senses.shape[-1:]}")
    if not np.isfinite(senses).all():
        raise ValueError("sense vector contains non-finite entries")


def _trial(task: TaskDescription, rows: np.ndarray, success: bool, total: float) -> Trial:
    rows.setflags(write=False)
    return Trial(task_id=task.task_id, success=success, relevant=False,
                 timesteps=rows, final_return=total)


def run_trials(config: NetConfig, weights: np.ndarray, task: TaskDescription,
               seeds) -> list[Trial]:
    """Run one episode per (weight row, seed) pair; returns the unstored
    Trials (trial_id unassigned) in the order of `seeds`."""
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
    if isinstance(task.env_spec, GridMazeSpec):
        return _run_maze(config, weights, task, goal, seeds)

    def observe(ob):
        sense = np.concatenate([ob.obs, goal, ob.reward])
        _check_senses(config, sense)
        return sense, float(ob.reward.sum()), bool(ob.done), bool(ob.reached)

    trials = []
    for row, seed in zip(weights, seeds):
        env = make_env(task)
        trials.append(_run_alone(config, task, row, np.zeros(config.hidden_dim),
                                 np.empty((16, config.input_width + config.output_width)), 0,
                                 observe(env.reset(seed=seed)), 0.0,
                                 lambda action: observe(env.step(action))))
    return trials


def _run_maze(config: NetConfig, weights: np.ndarray, task: TaskDescription,
              goal: np.ndarray, seeds: list) -> list[Trial]:
    """Run a maze's episodes in lockstep until one is left, then hand it to
    `_run_alone`."""
    if config.action_dim < 4 or config.reward_dim != 1:
        raise ValueError("maze tasks need at least 4 action units and one reward channel")
    envs = GridMazeBatch(task.env_spec, goal, seeds, task.criterion.max_steps_per_trial)
    _check_senses(config, envs.sense_rows)  # every maze sense is one of these rows
    act, _ = _activation_fns(config.activation)
    n, n_act, in_w = len(seeds), config.action_dim, config.input_width
    # rows[e, t] is episode e's [sense | output] at step t; an episode ends by its cap, so
    # cap + 1 rows fit. One buffer (8 9x9 episodes: 1.1 MB) adds at most 0.15 MB to peak RSS
    rows = np.empty((n, envs.cap + 1, in_w + config.output_width))
    w_in, w_rec, b_h, w_out, b_out = unpack_weights(config, weights)
    state = np.zeros((n, config.hidden_dim))
    ids = np.arange(n)                     # episode held in each live row
    totals = np.zeros(n)
    trials: list[Trial | None] = [None] * n
    t = 0                                  # rows each live episode has so far
    senses, rewards, done, reached = envs.reset()
    while len(ids) > 1:
        drive = _matvec(w_in, senses) + b_h
        for _ in range(config.micro_steps):
            state = act(drive + _matvec(w_rec, state))
        y = _matvec(w_out, state) + b_out
        rows[ids, t, :in_w] = senses
        rows[ids, t, in_w:] = y
        totals[ids] += rewards
        t += 1
        if done.any():
            for e, success in zip(ids[done].tolist(), reached[done].tolist()):
                trials[e] = _trial(task, rows[e, :t], success, float(totals[e]))
            keep = ~done
            if not keep.any():
                return trials
            ids = ids[keep]
            envs.keep(keep)
            weights, state, y = weights[keep], state[keep], y[keep]
            w_in, w_rec, b_h, w_out, b_out = unpack_weights(config, weights)
        senses, rewards, done, reached = envs.step(y[:, :n_act])
    e = int(ids[0])
    trials[e] = _run_alone(config, task, weights[0], state[0], rows[e], t,
                           (senses[0], float(rewards[0]), bool(done[0]), bool(reached[0])),
                           float(totals[e]), envs.lone_step())
    return trials


def _run_alone(config: NetConfig, task: TaskDescription, weights: np.ndarray, h: np.ndarray,
               rows: np.ndarray, t: int, first: tuple, total: float, step) -> Trial:
    """Run one episode to its end from its step-t observation `first`, a
    (sense, reward, done, reached) tuple: `weights` is its 1-D weight row,
    `h` its hidden state (updated in place), `rows` its buffer holding t
    rows (a maze's view of the call's buffer, else doubled when full),
    `total` its reward so far, and `step` a function that advances it by an
    action and returns the next tuple."""
    act, _ = _activation_fns(config.activation)
    in_w, n_act = config.input_width, config.action_dim
    w_in, w_rec, b_h, w_out, b_out = unpack_weights(config, weights)
    dot, add = np.dot, np.add
    drive, term = np.empty_like(h), np.empty_like(h)
    sense, reward, fin, success = first
    while True:
        if t == len(rows):
            rows = np.concatenate([rows, np.empty_like(rows)])
        row = rows[t]
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
            return _trial(task, rows[:t], success, total)
        sense, reward, fin, success = step(y[:n_act])


def run_trial(net: Network, task: TaskDescription, seed: int) -> Trial:
    """Run one episode; returns the unstored Trial (trial_id unassigned)."""
    return run_trials(net.config, net.weights[None], task, [seed])[0]


def trial_env_steps(trial: Trial) -> int:
    """Environment transitions consumed by a trial (trace rows minus one)."""
    return len(trial) - 1
