"""Gradient-based consolidation: retrain the network on stored traces.

The dream phase replays stored trials and descends the plain sum of three
masked squared-error terms:

  * behavioral cloning of recorded actions, only on trials currently flagged
    relevant;
  * next-step prediction of (observation, reward), on every trial including
    failures;
  * remaining-reward prediction, masked like the action term.

Superseded and failed trials therefore keep training the predictive pathway
while their actions are never cloned. Targets and masks are built in the
replay batch's layout, `term_stats` is the one readout of the loss, and a
dream runs at least one step. No environment interaction happens here;
everything is driven by the trace store.

Also home to the retention check, the one policy evaluation: it runs the
consolidated network's episodes on previously solved tasks and summarizes
them into a pass/fail verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import NetConfig, Network, ReplayBatch, TrialTargets, bptt_gradient
from .rollout import run_trials, trial_env_steps
from .traces import ReplayPolicy, StoreDims, TraceStore, Trial


@dataclass(frozen=True)
class ConsolidationConfig:
    base_lr: float = 0.005
    momentum: float = 0.9

    def __post_init__(self):
        if not 0 < self.base_lr < math.inf:
            raise ValueError(f"base_lr must be positive and finite, got {self.base_lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


def build_targets(trial: Trial, relevant_now: bool, config: NetConfig) -> TrialTargets:
    """Turn one stored trial into replay inputs, targets and masks.

    Prediction targets exist for every step but the last (there is no
    successor observation at the final step). Action and remaining-reward
    targets follow the same mask but only when the trial is currently
    relevant; otherwise they are fully masked out.
    """
    cols = StoreDims.from_net_config(config).columns
    rows = trial.timesteps
    rewards = rows[:, cols["r"]]
    o, m, pw = config.action_dim, config.obs_dim, config.pred_width
    target = np.zeros((len(rows), config.output_width))
    target[:, :o] = rows[:, cols["out"]]
    target[:-1, o : o + m] = rows[1:, cols["in"]]
    target[:-1, o + m : o + pw] = rewards[1:]
    # remaining per-channel reward sums (of the rewards after each step, added
    # from the last) and the remaining total return
    tail = target[:-1, o + pw :]
    np.cumsum(rewards[:0:-1], axis=0, out=tail[::-1, :-1])
    tail[:, -1] = tail[:, :-1].sum(axis=1)
    mask = np.zeros((len(rows), 3))
    mask[:-1] = (relevant_now, 1.0, relevant_now)
    return TrialTargets(rows[:, cols["in"].start : cols["r"].stop], target, mask)


def term_stats(net: Network, batch: ReplayBatch) -> dict:
    """The loss total, its three terms and each term's masked-timestep count
    over a replay batch; every term is added up from 0.0 in trial order."""
    batch.forward(net)
    terms = {"action": 0.0, "pred": 0.0, "return": 0.0}
    for trial_losses in batch.losses():
        for term, loss in zip(terms, trial_losses):
            terms[term] += loss
    total = 0.0
    for loss in terms.values():
        total += loss
    counts = {f"{term}_steps": int(batch.mask[..., span.start].sum())
              for term, span in zip(terms, batch.spans)}
    return {"total": total, **terms, **counts}


@dataclass
class DreamState:
    """What a dream carries from one consolidate call to the next: the replay
    rng, target cache and latest selection (keys, batch), the probe batch and
    its last term_stats, the momentum and the gradient steps run so far."""

    rng: np.random.Generator
    target_cache: dict  # (trial_id, relevant) -> TrialTargets
    keys: tuple | None = None
    batch: ReplayBatch | None = None
    probe_batch: ReplayBatch | None = None
    loss: dict | None = None
    velocity: np.ndarray | None = None
    step_index: int = 0

    def select(self, store: TraceStore, policy: ReplayPolicy, net_config: NetConfig) -> ReplayBatch:
        """The next replay selection's batch, rebuilt only when its trials change."""
        trials = store.sample_replay(policy, rng=self.rng)
        if not trials:
            raise ValueError(f"replay policy {policy.mode!r} selected no trials")
        keys = tuple((trial.trial_id, trial.relevant) for trial in trials)
        if keys != self.keys:
            for trial, key in zip(trials, keys):
                if key not in self.target_cache:
                    self.target_cache[key] = build_targets(trial, trial.relevant, net_config)
            self.keys = keys
            self.batch = ReplayBatch(net_config, [self.target_cache[key] for key in keys])
        return self.batch


@dataclass
class ConsolidationReport:
    steps_run: int
    initial: dict  # term_stats on the probe batch before this call's steps
    final: dict    # ... and after
    state: DreamState | None = None  # hand it to the next call to resume the dream


def consolidate(weights: np.ndarray, store: TraceStore, policy: ReplayPolicy,
                config: ConsolidationConfig, *, net_config: NetConfig, steps: int,
                state: DreamState | None = None):
    """Dream phase: `steps` >= 1 gradient steps on replayed traces, no environment.

    Returns (new_weights, report); the report's initial/final losses are
    measured on a fixed probe batch (the dream's first replay selection).
    Handing the report's state and the returned weights to the next call
    resumes the dream: chunks of N then M steps give the bits of one N+M
    call, and a resumed call builds no batch and takes its initial loss from
    the state. The store must not change during a dream. A non-finite loss or
    weight raises RuntimeError.
    """
    if not steps >= 1:
        raise ValueError(f"steps must be >= 1, got {steps}")

    net = Network(net_config, weights)
    weights = net.weights  # a copy, updated in place; the net's matrices are views of it
    if state is None:
        state = DreamState(np.random.default_rng(policy.rng_seed), {},
                           velocity=np.zeros_like(weights))
        state.probe_batch = state.select(store, policy, net_config)
        state.loss = term_stats(net, state.probe_batch)
    initial = state.loss
    resample = policy.mode == "uniform_sample"  # the store is fixed during a dream

    velocity = state.velocity
    step = np.empty_like(weights)
    for step_idx in range(state.step_index, state.step_index + steps):
        if resample and step_idx > 0:
            state.select(store, policy, net_config)
        grad, loss = bptt_gradient(net, state.batch)
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
    state.step_index += steps

    final = term_stats(net, state.probe_batch)
    if not all(map(math.isfinite, final.values())):
        raise RuntimeError("consolidation diverged: non-finite loss after the last gradient step")
    state.loss = final
    return weights, ConsolidationReport(steps_run=steps, initial=initial, final=final, state=state)


# ---------------------------------------------------------------------------
# retention

EVAL_BLOCK = 64  # episodes per run_trials call, so a long evaluation's memory stays bounded


@dataclass
class RetentionResult:
    passed: bool
    success_rate: float
    mean_return: float
    mean_length: float


def retention_check(weights: np.ndarray, tasks, net_config: NetConfig, *,
                    n_trials: int | None = None, threshold: float | None = None,
                    base_seed: int = 0) -> dict[str, RetentionResult]:
    """Run the network itself on each task, with that task's goal input, for
    n_trials unrecorded episodes (default: the task's min_success_trials)
    seeded base_seed, base_seed + 1, ...; the task passes when its success
    rate meets the threshold (default: the task's own bar)."""
    results = {}
    for task in tasks:
        k = n_trials if n_trials is not None else task.criterion.min_success_trials
        if k < 1:
            raise ValueError(f"n_trials must be >= 1, got {k}")
        bar = threshold if threshold is not None else task.criterion.success_rate_threshold
        seeds = range(base_seed, base_seed + k)
        blocks = (seeds[i:i + EVAL_BLOCK] for i in range(0, k, EVAL_BLOCK))
        successes, returns, lengths = zip(*(  # each episode's figures, not its rows
            (t.success, t.final_return, trial_env_steps(t)) for block in blocks
            for t in run_trials(net_config, np.tile(weights, (len(block), 1)), task, block)))
        rate = sum(successes) / k
        results[task.task_id] = RetentionResult(
            passed=rate >= bar,
            success_rate=rate,
            mean_return=float(np.mean(returns)),
            mean_length=float(np.mean(lengths)),
        )
    return results
