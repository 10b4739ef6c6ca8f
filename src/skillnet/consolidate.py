"""Gradient-based consolidation: retrain the network on stored traces.

The dream phase replays stored trials and descends a joint masked
squared-error loss with three terms:

  * behavioral cloning of recorded actions, only on trials currently flagged
    relevant;
  * next-step prediction of (observation, reward), on every trial including
    failures;
  * remaining-reward prediction, masked like the action term.

Superseded and failed trials therefore keep training the predictive pathway
while their actions are never cloned. No environment interaction happens
here; everything is driven by the trace store.

Also home to the retention check that re-tests solved tasks on the
consolidated network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import (
    REG_KINDS,
    NetConfig,
    Network,
    ReplayBatch,
    TrialTargets,
    apply_regularizer,
    batch_loss,
    bptt_gradient,
)
from .rollout import evaluate_policy
from .traces import ReplayPolicy, StoreDims, TraceStore, Trial


@dataclass(frozen=True)
class ConsolidationConfig:
    base_lr: float = 0.005
    momentum: float = 0.9
    action_weight: float = 1.0
    pred_weight: float = 1.0
    return_weight: float = 1.0
    reg_interval: int = 0       # apply the regularizer every N steps; 0 = off
    reg_strength: float = 0.0
    reg_kind: str = "decay"

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.reg_interval < 0 or self.reg_strength < 0:
            raise ValueError("regularizer settings must be non-negative")
        if self.reg_kind not in REG_KINDS:
            raise ValueError(f"reg_kind must be one of {REG_KINDS}, got {self.reg_kind!r}")

    @property
    def term_weights(self) -> tuple[float, float, float]:
        return (self.action_weight, self.pred_weight, self.return_weight)


def build_targets(trial: Trial, relevant_now: bool, config: NetConfig) -> TrialTargets:
    """Turn one stored trial into replay inputs, targets and masks.

    Prediction targets exist for every step but the last (there is no
    successor observation at the final step). Action and remaining-reward
    targets follow the same mask but only when the trial is currently
    relevant; otherwise they are fully masked out.
    """
    cols = StoreDims.from_net_config(config).columns
    rows = trial.timesteps
    t_len = len(rows)
    senses = rows[:, cols["in"].start : cols["r"].stop]
    rewards = rows[:, cols["r"]]

    pred_target = np.zeros_like(rows[:, cols["pred"]])
    pred_target[:-1] = np.concatenate([rows[1:, cols["in"]], rewards[1:]], axis=1)
    pred_mask = np.ones(t_len)
    pred_mask[-1] = 0.0

    # remaining per-channel reward sums and the remaining total return
    tail = np.flip(np.cumsum(np.flip(rewards, 0), axis=0), 0)
    tail = np.vstack([tail[1:], np.zeros_like(tail[:1])])
    return_target = np.concatenate([tail, tail.sum(axis=1, keepdims=True)], axis=1)

    cloned_mask = pred_mask.copy() if relevant_now else np.zeros(t_len)
    return TrialTargets(
        senses=senses,
        action_target=rows[:, cols["out"]],
        pred_target=pred_target,
        return_target=return_target,
        action_mask=cloned_mask,
        pred_mask=pred_mask,
        return_mask=cloned_mask.copy(),
    )


def term_stats(net: Network, batch, term_weights=(1.0, 1.0, 1.0)) -> dict:
    """Per-term loss sums plus masked-timestep counts over a batch (a list of
    TrialTargets or a ReplayBatch)."""
    batch = ReplayBatch.wrap(net.config, batch)
    total, per_term = batch_loss(net, batch, term_weights)
    counts = {f"{term}_steps": int(batch.mask[..., span.start].sum())
              for term, span in zip(per_term, batch.spans)}
    return {"total": total, **per_term, **counts}


@dataclass
class ConsolidationReport:
    steps_run: int
    initial: dict | None    # term_stats on the probe batch before training
    final: dict | None      # ... and after


def consolidate(weights: np.ndarray, store: TraceStore, policy: ReplayPolicy,
                config: ConsolidationConfig, *, net_config: NetConfig, steps: int):
    """Dream phase: `steps` gradient steps on replayed traces, no environment.

    Returns (new_weights, report); the report's initial/final losses are
    measured on a fixed probe batch (the first replay selection).
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")

    if steps == 0:
        return np.array(weights, dtype=np.float64), ConsolidationReport(0, None, None)

    rng = np.random.default_rng(policy.rng_seed)
    net = Network(net_config, weights)
    weights = net.weights  # a copy, updated in place; the net's matrices are views of it
    target_cache: dict[tuple[int, bool], TrialTargets] = {}
    # the latest selection's (trial_id, relevant) keys and its padded batch
    cached_keys, cached = None, None

    def select_batch() -> ReplayBatch:
        nonlocal cached_keys, cached
        trials = store.sample_replay(policy, rng=rng)
        if not trials:
            raise ValueError(f"replay policy {policy.mode!r} selected no trials")
        keys = tuple((trial.trial_id, trial.relevant) for trial in trials)
        if keys != cached_keys:
            for trial, key in zip(trials, keys):
                if key not in target_cache:
                    target_cache[key] = build_targets(trial, trial.relevant, net_config)
            cached_keys = keys
            cached = ReplayBatch(net_config, [target_cache[key] for key in keys])
        return cached

    probe_batch = batch = select_batch()
    initial = term_stats(net, probe_batch, config.term_weights)
    resample = policy.mode == "uniform_sample"  # the store is fixed during a dream

    velocity = np.zeros_like(weights)
    step = np.empty_like(weights)
    for step_idx in range(steps):
        if resample and step_idx > 0:
            batch = select_batch()
        grad, loss = bptt_gradient(net, batch, config.term_weights)
        if not math.isfinite(loss):
            raise RuntimeError(
                f"consolidation diverged: non-finite loss at gradient step {step_idx}"
            )
        velocity *= config.momentum
        velocity += grad
        weights -= np.multiply(velocity, config.base_lr, out=step)
        if not np.isfinite(weights).all():
            raise RuntimeError(
                f"consolidation diverged: non-finite weights at gradient step {step_idx}"
            )
        if config.reg_interval > 0 and (step_idx + 1) % config.reg_interval == 0:
            weights[:] = apply_regularizer(weights, config.reg_strength, config.reg_kind)

    final = term_stats(net, probe_batch, config.term_weights)
    return weights, ConsolidationReport(steps_run=steps, initial=initial, final=final)


# ---------------------------------------------------------------------------
# retention


@dataclass
class RetentionResult:
    passed: bool
    success_rate: float
    mean_return: float
    mean_length: float


def retention_check(weights: np.ndarray, tasks, net_config: NetConfig, *,
                    n_trials: int | None = None, threshold: float | None = None,
                    base_seed: int = 0) -> dict[str, RetentionResult]:
    """Evaluate the consolidated network itself on previously solved tasks,
    each with its own goal input."""
    results = {}
    for task in tasks:
        k = n_trials if n_trials is not None else task.criterion.min_success_trials
        bar = threshold if threshold is not None else task.criterion.success_rate_threshold
        stats = evaluate_policy(weights, net_config, task, k, base_seed=base_seed)
        results[task.task_id] = RetentionResult(
            passed=stats["success_rate"] >= bar,
            success_rate=stats["success_rate"],
            mean_return=stats["mean_return"],
            mean_length=stats["mean_length"],
        )
    return results
