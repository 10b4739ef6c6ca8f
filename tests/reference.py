"""Code the tests share and the package does not use: a vector-reward
environment, weight packing, a one-trial replay pass, replay targets built
from stored trials, and the acceptance suite's Network with `get_weights`."""

from dataclasses import dataclass

import numpy as np

from skillnet import network
from skillnet.consolidate import build_targets
from skillnet.envs import Observation, step_counter
from skillnet.network import ReplayBatch, TrialTargets


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
    widths = (cfg.action_dim, cfg.pred_width, cfg.return_width)
    trial = TrialTargets(senses, *(np.zeros((t_len, w)) for w in widths), *np.zeros((3, t_len)))
    batch = ReplayBatch(cfg, [trial])
    batch.forward(net)
    return batch.outputs[0], batch.hs[0, 1:].reshape(t_len, cfg.micro_steps, cfg.hidden_dim)


def build_batch(trials, config) -> list[TrialTargets]:
    """Replay entries for a list of stored trials, honoring current flags."""
    return [build_targets(t, t.relevant, config) for t in trials]
