"""Recurrent network core: topology, forward pass, flat weights, BPTT.

A single fixed-topology recurrent net carries every skill. Its input is the
concatenation (observation, goal, reward) and its output units are laid out
as three contiguous slices:

    [0, o)                  action values
    [o, o + m + n)          prediction of the next (observation, reward)
    [o + m + n, o + m + n + n + 1)
                            predicted remaining per-channel reward sums plus
                            the remaining total return

where m = obs_dim, n = reward_dim, o = action_dim. The flat weight vector is
the unit of black-box search; `bptt_gradient` provides exact gradients of a
masked squared-error loss for replay-based retraining.

Flat weight layout (row-major, in this order):
    W_in  (hidden_dim, input_width)
    W_rec (hidden_dim, hidden_dim)
    b_h   (hidden_dim,)
    W_out (output_width, hidden_dim)
    b_out (output_width,)
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ACTIVATIONS = ("tanh", "sigmoid")

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class NetConfig:
    """Topology and initialization parameters of the network.

    micro_steps recurrent updates run per environment step, with the input
    held fixed across them.
    """

    obs_dim: int
    goal_dim: int
    reward_dim: int
    action_dim: int
    hidden_dim: int
    micro_steps: int = 1
    activation: str = "tanh"
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        for name in ("obs_dim", "goal_dim", "reward_dim", "action_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.micro_steps < 1:
            raise ValueError(f"micro_steps must be >= 1, got {self.micro_steps}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.init_scale < 0:
            raise ValueError(f"init_scale must be >= 0, got {self.init_scale}")

    @property
    def input_width(self) -> int:
        return self.obs_dim + self.goal_dim + self.reward_dim

    @property
    def pred_width(self) -> int:
        return self.obs_dim + self.reward_dim

    @property
    def return_width(self) -> int:
        return self.reward_dim + 1

    @property
    def output_width(self) -> int:
        return self.action_dim + self.pred_width + self.return_width

    @property
    def n_params(self) -> int:
        h, i, o = self.hidden_dim, self.input_width, self.output_width
        return h * i + h * h + h + o * h + o


@dataclass
class StepOutput:
    """One environment step's output units, split by slice."""

    action: np.ndarray
    pred: np.ndarray
    return_pred: np.ndarray


def initial_state(config: NetConfig) -> np.ndarray:
    """All-zero hidden state, used at the start of every trial."""
    return np.zeros(config.hidden_dim)


def _activation_fns(name):
    if name == "tanh":
        return np.tanh, lambda s: 1.0 - s * s
    # sigmoid; derivative expressed via the activation value
    return (lambda z: 1.0 / (1.0 + np.exp(-z))), lambda s: s * (1.0 - s)


class Network:
    """The network plus its current flat weight vector.

    Hidden state lives outside the object (passed to `step`), so a single
    Network is reusable across trials.
    """

    def __init__(self, config: NetConfig, weights: np.ndarray):
        self.config = config
        self._act, self._act_deriv = _activation_fns(config.activation)
        self.set_weights(weights)

    def set_weights(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.config.n_params,):
            raise ValueError(
                f"weight vector must have shape ({self.config.n_params},), got {weights.shape}"
            )
        if not np.all(np.isfinite(weights)):
            raise ValueError("weight vector contains non-finite entries")
        self.weights = weights.copy()
        (self.w_in, self.w_rec, self.b_h, self.w_out, self.b_out) = unpack_weights(
            self.config, self.weights
        )

    def get_weights(self) -> np.ndarray:
        return self.weights.copy()

    def step(self, state: np.ndarray, sense: np.ndarray) -> tuple[np.ndarray, StepOutput]:
        """Run micro_steps recurrent updates on a fixed input, then read outputs.

        Pure function of (weights, state, sense); the passed-in state is not
        modified.
        """
        cfg = self.config
        state = np.asarray(state, dtype=np.float64)
        sense = np.asarray(sense, dtype=np.float64)
        if state.shape != (cfg.hidden_dim,):
            raise ValueError(f"state must have shape ({cfg.hidden_dim},), got {state.shape}")
        if sense.shape != (cfg.input_width,):
            raise ValueError(f"sense must have shape ({cfg.input_width},), got {sense.shape}")
        if not np.all(np.isfinite(sense)):
            raise ValueError("sense vector contains non-finite entries")

        drive = self.w_in @ sense + self.b_h
        for _ in range(cfg.micro_steps):
            state = self._act(drive + self.w_rec @ state)
        y = self.w_out @ state + self.b_out
        o, pw = cfg.action_dim, cfg.pred_width
        out = StepOutput(action=y[:o], pred=y[o : o + pw], return_pred=y[o + pw :])
        return state, out


def unpack_weights(config: NetConfig, weights: np.ndarray):
    """Split a flat vector into (W_in, W_rec, b_h, W_out, b_out) views."""
    h, i, o = config.hidden_dim, config.input_width, config.output_width
    idx = 0
    w_in = weights[idx : idx + h * i].reshape(h, i)
    idx += h * i
    w_rec = weights[idx : idx + h * h].reshape(h, h)
    idx += h * h
    b_h = weights[idx : idx + h]
    idx += h
    w_out = weights[idx : idx + o * h].reshape(o, h)
    idx += o * h
    b_out = weights[idx : idx + o]
    return w_in, w_rec, b_h, w_out, b_out


def pack_weights(w_in, w_rec, b_h, w_out, b_out) -> np.ndarray:
    return np.concatenate([w_in.ravel(), w_rec.ravel(), b_h, w_out.ravel(), b_out])


def init_network(config: NetConfig) -> tuple[Network, np.ndarray]:
    """Build a network with weights drawn uniformly from [-init_scale, +init_scale].

    Deterministic given config.seed.
    """
    rng = np.random.default_rng(config.seed)
    weights = rng.uniform(-config.init_scale, config.init_scale, size=config.n_params)
    return Network(config, weights), weights.copy()


def cumulative_reward(rewards) -> np.ndarray:
    """Prefix sums of per-step total rewards over a trial.

    Takes a (T, n) array (or sequence of reward vectors) and returns the
    length-T series of running totals.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.ndim == 1:
        rewards = rewards[:, None]
    if not np.all(np.isfinite(rewards)):
        raise ValueError("rewards contain non-finite entries")
    return np.cumsum(rewards.sum(axis=1))


def apply_regularizer(weights: np.ndarray, strength: float, kind: str = "decay") -> np.ndarray:
    """One regularization step on a flat weight vector.

    kind="decay" multiplies every weight by (1 - strength); kind="prune"
    zeroes weights with |w| < strength.
    """
    if strength < 0:
        raise ValueError(f"strength must be >= 0, got {strength}")
    weights = np.asarray(weights, dtype=np.float64)
    if kind == "decay":
        return weights * (1.0 - strength)
    if kind == "prune":
        out = weights.copy()
        out[np.abs(out) < strength] = 0.0
        return out
    raise ValueError(f"unknown regularizer kind {kind!r}")


@dataclass
class TrialTargets:
    """One replayed trial: input sequence plus per-timestep targets and masks.

    Masks are per-timestep 0/1 scalars applied to whole output slices. The
    target rows at masked-out timesteps are ignored (conventionally zero).
    """

    senses: np.ndarray         # (T, input_width)
    action_target: np.ndarray  # (T, action_dim)
    pred_target: np.ndarray    # (T, pred_width)
    return_target: np.ndarray  # (T, return_width)
    action_mask: np.ndarray    # (T,)
    pred_mask: np.ndarray      # (T,)
    return_mask: np.ndarray    # (T,)

    def __len__(self) -> int:
        return self.senses.shape[0]


def _validate_trial_targets(cfg: NetConfig, trial: TrialTargets) -> None:
    t = trial.senses.shape[0]
    if t == 0:
        raise ValueError("trial has no timesteps")
    expected = {
        "senses": (t, cfg.input_width),
        "action_target": (t, cfg.action_dim),
        "pred_target": (t, cfg.pred_width),
        "return_target": (t, cfg.return_width),
        "action_mask": (t,),
        "pred_mask": (t,),
        "return_mask": (t,),
    }
    for name, shape in expected.items():
        arr = getattr(trial, name)
        if arr.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")


def _forward_trial(net: Network, senses: np.ndarray):
    """Unrolled forward pass; returns output rows and all micro-step states.

    Uses the same per-step matrix-vector products as Network.step so replay
    activations agree bitwise with what the net computed online.
    """
    cfg = net.config
    t_len = senses.shape[0]
    k = cfg.micro_steps
    states = np.empty((t_len, k, cfg.hidden_dim))
    outputs = np.empty((t_len, cfg.output_width))
    state = np.zeros(cfg.hidden_dim)
    for t in range(t_len):
        drive = net.w_in @ senses[t] + net.b_h
        for j in range(k):
            state = net._act(drive + net.w_rec @ state)
            states[t, j] = state
        outputs[t] = net.w_out @ state + net.b_out
    return outputs, states


def _masked_residuals(cfg: NetConfig, outputs: np.ndarray, trial: TrialTargets, term_weights):
    """Per-slice masked residuals and the per-term loss contributions."""
    o, pw = cfg.action_dim, cfg.pred_width
    wa, wp, wr = term_weights
    res_a = (outputs[:, :o] - trial.action_target) * trial.action_mask[:, None]
    res_p = (outputs[:, o : o + pw] - trial.pred_target) * trial.pred_mask[:, None]
    res_r = (outputs[:, o + pw :] - trial.return_target) * trial.return_mask[:, None]
    losses = (
        wa * float(np.sum(res_a * res_a)),
        wp * float(np.sum(res_p * res_p)),
        wr * float(np.sum(res_r * res_r)),
    )
    return (res_a, res_p, res_r), losses


def batch_loss(net: Network, batch, term_weights=(1.0, 1.0, 1.0)):
    """Forward-only masked squared-error loss over a batch of TrialTargets.

    Returns (total, per_term) where per_term is a dict with the three slice
    sums, already scaled by term_weights.
    """
    if not batch:
        raise ValueError("batch is empty")
    per_term = {"action": 0.0, "pred": 0.0, "return": 0.0}
    for trial in batch:
        _validate_trial_targets(net.config, trial)
        outputs, _ = _forward_trial(net, trial.senses)
        _, (la, lp, lr) = _masked_residuals(net.config, outputs, trial, term_weights)
        per_term["action"] += la
        per_term["pred"] += lp
        per_term["return"] += lr
    return sum(per_term.values()), per_term


def bptt_gradient(net: Network, batch, term_weights=(1.0, 1.0, 1.0)):
    """Exact gradient of the total masked squared-error loss over a batch.

    Each trial is unrolled over its full length (micro steps included); the
    batch gradient is the sum of per-trial gradients. Returns (flat gradient,
    loss).
    """
    if not batch:
        raise ValueError("batch is empty")
    cfg = net.config
    k = cfg.micro_steps
    o, pw = cfg.action_dim, cfg.pred_width

    g_w_in = np.zeros_like(net.w_in)
    g_w_rec = np.zeros_like(net.w_rec)
    g_b_h = np.zeros_like(net.b_h)
    g_w_out = np.zeros_like(net.w_out)
    g_b_out = np.zeros_like(net.b_out)
    total_loss = 0.0

    for trial in batch:
        _validate_trial_targets(cfg, trial)
        t_len = len(trial)
        outputs, states = _forward_trial(net, trial.senses)
        (res_a, res_p, res_r), losses = _masked_residuals(cfg, outputs, trial, term_weights)
        total_loss += sum(losses)

        d_y = np.zeros((t_len, cfg.output_width))
        d_y[:, :o] = 2.0 * term_weights[0] * res_a
        d_y[:, o : o + pw] = 2.0 * term_weights[1] * res_p
        d_y[:, o + pw :] = 2.0 * term_weights[2] * res_r

        g_w_out += d_y.T @ states[:, k - 1, :]
        g_b_out += d_y.sum(axis=0)

        # states entering each micro step: previous micro state, crossing
        # env-step boundaries back to the zero initial state
        prev = np.zeros_like(states)
        prev[:, 1:, :] = states[:, :-1, :]
        prev[1:, 0, :] = states[:-1, k - 1, :]

        d_z = np.empty_like(states)
        d_state = np.zeros(cfg.hidden_dim)
        w_rec_t = net.w_rec.T
        w_out_t = net.w_out.T
        deriv = net._act_deriv
        for t in range(t_len - 1, -1, -1):
            d_state = d_state + w_out_t @ d_y[t]
            for j in range(k - 1, -1, -1):
                dz = d_state * deriv(states[t, j])
                d_z[t, j] = dz
                d_state = w_rec_t @ dz

        dz_flat = d_z.reshape(t_len * k, cfg.hidden_dim)
        senses_rep = np.repeat(trial.senses, k, axis=0)
        g_w_in += dz_flat.T @ senses_rep
        g_w_rec += dz_flat.T @ prev.reshape(t_len * k, cfg.hidden_dim)
        g_b_h += dz_flat.sum(axis=0)

    grad = pack_weights(g_w_in, g_w_rec, g_b_h, g_w_out, g_b_out)
    return grad, total_loss


@contextmanager
def atomic_write(path):
    """Open a text file for writing that replaces `path` only once the block
    completes: it is written as a sibling `.tmp` file and moved into place
    with os.replace, so a crash never leaves a half-written file at `path`."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def save_checkpoint(path, config: NetConfig, weights: np.ndarray) -> None:
    """Write a two-line checkpoint: a topology header, then the flat weights.

    Floats are serialized at full round-trip precision, so reloads are
    bit-exact. The file is replaced atomically.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (config.n_params,):
        raise ValueError(f"weights shape {weights.shape} does not match config")
    header = {
        "format_version": CHECKPOINT_VERSION,
        "m": config.obs_dim,
        "p": config.goal_dim,
        "n": config.reward_dim,
        "o": config.action_dim,
        "h": config.hidden_dim,
        "micro_steps": config.micro_steps,
        "activation": config.activation,
        "seed": config.seed,
        "init_scale": config.init_scale,
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(header) + "\n")
        fh.write(json.dumps({"weights": weights.tolist()}) + "\n")


def load_checkpoint(path) -> tuple[NetConfig, np.ndarray]:
    """Read a checkpoint written by save_checkpoint."""
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if len(text) < 2:
        raise ValueError(f"checkpoint {path} is truncated")
    header = json.loads(text[0])
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format_version {header.get('format_version')!r}"
        )
    config = NetConfig(
        obs_dim=header["m"],
        goal_dim=header["p"],
        reward_dim=header["n"],
        action_dim=header["o"],
        hidden_dim=header["h"],
        micro_steps=header.get("micro_steps", 1),
        activation=header.get("activation", "tanh"),
        seed=header.get("seed", 0),
        init_scale=header.get("init_scale", 0.1),
    )
    weights = np.asarray(json.loads(text[1])["weights"], dtype=np.float64)
    if weights.shape != (config.n_params,):
        raise ValueError("checkpoint weights do not match its header topology")
    return config, weights
