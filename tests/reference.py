"""Code the tests share and the package does not use: a vector-reward
environment, weight packing, a one-trial replay pass, replay targets built
from stored trials (and the plain per-term construction they are checked
against), the acceptance suite's Network with `get_weights`, and the results
of a fake solver and a fake consolidator."""

from dataclasses import dataclass

import numpy as np

from skillnet import network
from skillnet.consolidate import ConsolidationReport, build_targets
from skillnet.envs import Observation, step_counter
from skillnet.evolve import SearchOutcome
from skillnet.network import ReplayBatch, TrialTargets
from skillnet.traces import StoreDims


@dataclass(frozen=True)
class VectorRewardChainSpec:
    """A 1-D chain with a two-channel reward: channel 0 carries the per-move
    cost, channel 1 the terminal goal bonus. Solvable, so it runs
    `reward_dim > 1` through search and replay on the duck-typed env path."""

    length: int = 4
    move_reward: float = -0.01
    goal_reward: float = 1.0
    episode_cap: int | None = None

    def build(self):
        return VectorRewardChain(self)


class VectorRewardChain:
    """Argmax over the first two action units moves forward or back; the
    goal is the last position. Episodes end there or after the cap, by
    default 4 * length steps."""

    reward_dim = 2

    def __init__(self, spec: VectorRewardChainSpec):
        self.spec = spec
        self._cap = 4 * spec.length if spec.episode_cap is None else spec.episode_cap
        self._pos = self._steps = 0

    def _observe(self, reward, done=False, reached=False) -> Observation:
        onehot = np.zeros(self.spec.length)
        onehot[self._pos] = 1.0
        return Observation(obs=onehot, reward=np.array(reward), done=done, reached=reached)

    def reset(self, seed: int = 0) -> Observation:
        self._pos = self._steps = 0
        return self._observe([0.0, 0.0])

    def step(self, action: np.ndarray) -> Observation:
        step_counter.count += 1
        move = 1 if int(np.argmax(action[:2])) == 0 else -1
        self._pos = min(max(self._pos + move, 0), self.spec.length - 1)
        self._steps += 1
        reached = self._pos == self.spec.length - 1
        reward = [0.0, self.spec.goal_reward] if reached else [self.spec.move_reward, 0.0]
        return self._observe(reward, reached or self._steps >= self._cap, reached)


class Network(network.Network):
    """The package's Network with a copy of its weights on request."""

    def get_weights(self) -> np.ndarray:
        return self.weights.copy()


def init_network(config):
    """The package's init_network, with the net built as the Network above."""
    _, weights = network.init_network(config)
    return Network(config, weights), weights


def pack_weights(w_in, w_rec, b_h, w_out, b_out) -> np.ndarray:
    """The flat weight vector of the five parameter arrays, in layout order."""
    return np.concatenate([w_in.ravel(), w_rec.ravel(), b_h, w_out.ravel(), b_out])


def replay_forward(net: network.Network, senses: np.ndarray):
    """One trial's replay outputs (T, output_width) and states (T, k, h),
    from a one-trial ReplayBatch."""
    cfg, t_len = net.config, len(senses)
    trial = TrialTargets(senses, np.zeros((t_len, cfg.output_width)), np.zeros((t_len, 3)))
    batch = ReplayBatch(cfg, [trial])
    batch.forward(net)
    return batch.outputs[0], batch.hs[0, 1:].reshape(t_len, cfg.micro_steps, cfg.hidden_dim)


def build_batch(trials, config) -> ReplayBatch:
    """The replay batch of a list of stored trials, honoring current flags."""
    return ReplayBatch(config, [build_targets(t, t.relevant, config) for t in trials])


def reference_build_targets(trial, relevant_now, config):
    """One stored trial's replay arrays built term by term: senses, the
    action, prediction and remaining-reward targets, and the three masks."""
    cols = StoreDims.from_net_config(config).columns
    rows = trial.timesteps
    t_len = len(rows)
    senses = rows[:, cols["in"].start : cols["r"].stop]
    rewards = rows[:, cols["r"]]

    pred_target = np.zeros_like(rows[:, cols["pred"]])
    pred_target[:-1] = np.concatenate([rows[1:, cols["in"]], rewards[1:]], axis=1)
    pred_mask = np.ones(t_len)
    pred_mask[-1] = 0.0

    tail = np.flip(np.cumsum(np.flip(rewards, 0), axis=0), 0)
    tail = np.vstack([tail[1:], np.zeros_like(tail[:1])])
    return_target = np.concatenate([tail, tail.sum(axis=1, keepdims=True)], axis=1)

    cloned_mask = pred_mask.copy() if relevant_now else np.zeros(t_len)
    return (senses, rows[:, cols["out"]], pred_target, return_target,
            cloned_mask, pred_mask, cloned_mask.copy())


def fake_report(steps: int) -> ConsolidationReport:
    """A report of `steps` dream steps whose initial and final losses have
    the fields of `term_stats`, so the events built from it validate; it
    carries no dream state, so the next chunk of a fake dream gets None."""
    losses = {"total": 0.0, "action": 0.0, "pred": 0.0, "return": 0.0,
              "action_steps": 0, "pred_steps": 0, "return_steps": 0}
    return ConsolidationReport(steps_run=steps, initial=losses, final=dict(losses))


def fake_outcome(solved: bool, spent: float) -> SearchOutcome:
    """A one-generation search of one trial per arm that spent `spent` in
    all, split evenly, and marked trial 1 relevant if it solved the task."""
    return SearchOutcome(
        winner="warm" if solved else "none",
        relevant_trial_ids=[1] if solved else [],
        trials_recorded=2,
        budget_spent={"warm": spent / 2, "scratch": spent / 2},
        max_batch_cost=spent / 2,
        best_fitness={"warm": [0.0], "scratch": [0.0]},
        evaluations={"warm": 1, "scratch": 1},
    )
