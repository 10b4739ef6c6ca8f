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
the unit of black-box search. A replayed trial (`TrialTargets`) holds its
targets in that column order and one 0/1 mask column per slice;
`bptt_gradient` gives the exact gradient of the masked squared-error loss
over a `ReplayBatch` of such trials, for replay-based retraining.

Flat weight layout (row-major, in this order):
    W_in  (hidden_dim, input_width)
    W_rec (hidden_dim, hidden_dim)
    b_h   (hidden_dim,)
    W_out (output_width, hidden_dim)
    b_out (output_width,)
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .jsoncheck import INT, NUMBER, SEED, STRING, ConfigError, fill, known, plain, versioned

ACTIVATIONS = ("tanh", "sigmoid")

CHECKPOINT_VERSION = 1

# checkpoint header (and config "net" section) key -> (NetConfig field, check)
NET = {"m": ("obs_dim", INT), "p": ("goal_dim", INT), "n": ("reward_dim", INT),
       "o": ("action_dim", INT), "h": ("hidden_dim", INT), "micro_steps": ("micro_steps", INT),
       "activation": ("activation", STRING), "seed": ("seed", SEED),
       "init_scale": ("init_scale", NUMBER)}


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
        for name in ("obs_dim", "goal_dim", "reward_dim", "action_dim", "hidden_dim",
                     "micro_steps"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if not 0 <= self.init_scale < np.inf:
            raise ValueError(f"init_scale must be >= 0 and finite, got {self.init_scale}")

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


def _sigmoid(z, out=None):
    # not np.negative(z, out=out): numpy 2.4.6 (AVX-512) writes -0.0 past
    # the first element of an `out` strided by 8 elements
    out = np.exp(np.negative(z), out=out)
    return np.divide(1.0, np.add(out, 1.0, out=out), out=out)


def _activation_fns(name):
    """(activation, its derivative from the activation value), each writing
    into `out` when given one."""
    if name == "tanh":
        return np.tanh, lambda s, out=None: np.subtract(1.0, np.multiply(s, s, out=out), out=out)
    return _sigmoid, lambda s, out=None: np.multiply(s, np.subtract(1.0, s, out=out), out=out)


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

    def step(self, state: np.ndarray, sense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Run micro_steps recurrent updates on a fixed input, then read the
        outputs: returns (state, y), y the output row [action | pred |
        return_pred] that a trace row holds after the sense.

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
        return state, self.w_out @ state + self.b_out


def unpack_weights(config: NetConfig, weights: np.ndarray):
    """Split a flat vector, or each row of a C-contiguous stack of them, into
    (W_in, W_rec, b_h, W_out, b_out) views."""
    h, i, o = config.hidden_dim, config.input_width, config.output_width
    lead = weights.shape[:-1]
    idx = 0
    w_in = weights[..., idx : idx + h * i].reshape(lead + (h, i))
    idx += h * i
    w_rec = weights[..., idx : idx + h * h].reshape(lead + (h, h))
    idx += h * h
    b_h = weights[..., idx : idx + h]
    idx += h
    w_out = weights[..., idx : idx + o * h].reshape(lead + (o, h))
    idx += o * h
    b_out = weights[..., idx : idx + o]
    return w_in, w_rec, b_h, w_out, b_out


def init_network(config: NetConfig) -> tuple[Network, np.ndarray]:
    """Build a network with weights drawn uniformly from [-init_scale, +init_scale].

    Deterministic given config.seed.
    """
    rng = np.random.default_rng(config.seed)
    weights = rng.uniform(-config.init_scale, config.init_scale, size=config.n_params)
    return Network(config, weights), weights.copy()


@dataclass
class TrialTargets:
    """One replayed trial: its input rows, the target of every output row,
    and each loss term's 0/1 mask per timestep.

    `target` holds the output columns in output order (action | pred |
    return), and `mask` one column per term in that order, applied to the
    term's whole output slice. Target entries at masked-out timesteps are
    ignored (conventionally zero).
    """

    senses: np.ndarray  # (T, input_width)
    target: np.ndarray  # (T, output_width)
    mask: np.ndarray    # (T, 3)

    def __len__(self) -> int:
        return self.senses.shape[0]


def _validate_trial_targets(cfg: NetConfig, trial: TrialTargets) -> None:
    t = trial.senses.shape[0]
    if t == 0:
        raise ValueError("trial has no timesteps")
    expected = {"senses": (t, cfg.input_width), "target": (t, cfg.output_width), "mask": (t, 3)}
    for name, shape in expected.items():
        arr = getattr(trial, name)
        if arr.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")


def _matvec(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`w @ row` for every row of `rows`, as one BLAS gemv per row.

    Each result is bitwise what `w @ row` gives on its own; one stacked gemm
    over the rows is not.
    """
    return (w @ rows[..., None])[..., 0]


class ReplayBatch:
    """A list of TrialTargets, validated once and zero-padded to one length,
    with the work buffers and step views of every pass over it.

    Iterating yields the trials in the order given. At construction they
    are copied into zero-padded arrays: `senses`, and `target` and `mask`
    (B, T_max, output_width), which hold the targets in output column order
    and each term's mask in every column of its `spans` slice, so rows past
    a trial's end carry zero masks. The padded arrays hold the trials longest
    first (padded row p is trial `order[p]`, trial b is padded row
    `trial_order[b]`), which makes the trials still running at timestep t the
    leading `live[t]` rows; `groups` lists the runs of padded rows whose
    trials have equal lengths. The padded arrays, `order` and `live` are
    read-only.

    The work buffers are built with the batch and refilled by every
    `forward`, `losses` and `gradient` pass. The hidden states sit in one
    zeroed array `hs`, indexed (B, T_max * k + 1, h) for k micro steps:
    hs[:, 0] is the initial state and hs[:, 1 + t * k + j] micro step j of
    timestep t, so hs[:, :-1] holds the state entering each micro step. A
    pass writes only the rows still running, so rows past a trial's end stay
    zero. The recurrent buffers (`hs`, `drive`, `from_out`, `d_act` and
    d_z) are batch-major views of time-major memory, so the running rows of
    a step are one contiguous (n, h) block for its stacked gemv; at h = 1
    they are batch-major in memory, because there matmul and add.reduce
    take other kernels for a trial's strided one-unit rows than the
    per-trial loop does for its contiguous ones, and the bits would differ.
    Every product is the per-row gemv of `_matvec` on the operands of
    Network.step, so replay agrees bitwise with online stepping and with the
    per-trial loop. Where padded row 0 runs alone, the recurrent products
    take 1-D views through np.dot, the same gemv at less dispatch cost. The
    residual is formed over the full output width; its squares go into one
    array per loss term, so one reduction per term and run of equal-length
    trials sums each trial's contiguous block as a reduction over it alone
    would. Passes over one batch must not run concurrently.
    """

    def __init__(self, config: NetConfig, trials):
        self.config = config
        self.trials = list(trials)
        if not self.trials:
            raise ValueError("batch is empty")
        for trial in self.trials:
            _validate_trial_targets(config, trial)
        lengths = [len(trial) for trial in self.trials]
        # trial index held in each padded row, and padded row of each trial
        self.order = np.array(sorted(range(len(lengths)), key=lambda b: -lengths[b]))
        self.trial_order = np.argsort(self.order)
        padded_lengths = [lengths[b] for b in self.order]
        n_rows, t_max = len(lengths), padded_lengths[0]
        self.live = (np.array(lengths)[:, None] > np.arange(t_max)).sum(axis=0)
        # runs of padded rows with equal lengths: (start, stop, length)
        self.groups, start = [], 0
        for t_len, run in itertools.groupby(padded_lengths):
            stop = start + len(list(run))
            self.groups.append((start, stop, t_len))
            start = stop
        # each loss term's output columns
        o, pw = config.action_dim, config.pred_width
        self.spans = spans = (slice(0, o), slice(o, o + pw), slice(o + pw, config.output_width))
        self.senses = np.zeros((n_rows, t_max, config.input_width))
        self.target = np.zeros((n_rows, t_max, config.output_width))
        # each term's mask, (B, 3, T_max), spread below over its columns
        term_masks = np.zeros((n_rows, 3, t_max))
        for row, b in enumerate(self.order):
            trial, t_len = self.trials[b], lengths[b]
            self.senses[row, :t_len] = trial.senses
            self.target[row, :t_len] = trial.target
            term_masks[row, :, :t_len] = trial.mask.T
        self.mask = np.repeat(term_masks.transpose(0, 2, 1),
                              [span.stop - span.start for span in spans], axis=2)
        for name in ("order", "live", "senses", "target", "mask"):
            getattr(self, name).setflags(write=False)

        k, h = config.micro_steps, config.hidden_dim
        live = self.live.tolist()

        def recurrent(steps, alloc=np.empty):
            # a (B, steps, h) view of time-major memory; batch-major at h = 1
            if h == 1:
                return alloc((n_rows, steps, h))
            return alloc((steps, n_rows, h)).transpose(1, 0, 2)

        self.drive = recurrent(t_max)
        self.hs = hs = recurrent(t_max * k + 1, np.zeros)
        self.last = hs[:, k::k]  # each timestep's final micro state
        self.outputs = np.empty((n_rows, t_max, config.output_width))
        self.d_y = np.empty_like(self.outputs)
        self.from_out = recurrent(t_max)
        self.d_act = recurrent(t_max * k)
        d_z = np.empty_like(self.d_act)
        self.d_state = np.empty((n_rows, h))
        # per loss term: its residual columns in d_y and their squares
        self.squares = [(self.d_y[..., span], np.empty((n_rows, t_max, span.stop - span.start)))
                        for span in spans]
        # per term and run of equal-length trials: squares, and sums per row
        self.sums = np.empty((3, n_rows))
        self.sum_blocks = [(sq[start:stop, :t_len], sums[start:stop])
                           for (_, sq), sums in zip(self.squares, self.sums)
                           for start, stop, t_len in self.groups]
        # timesteps [0, t_one) run several rows, the rest padded row 0 alone
        t_one = live.index(1) if 1 in live else t_max
        product = np.empty((n_rows, h))  # a micro step's recurrent term
        # forward micro steps: state in, recurrent term, drive, state out
        self.forward_wide = [(hs[:n, c, :, None], product[:n, :, None], product[:n],
                              self.drive[:n, t], hs[:n, c + 1])
                             for t, n in enumerate(live[:t_one]) for c in range(t * k, t * k + k)]
        self.forward_one = [(hs[0, c], self.drive[0, t], hs[0, c + 1])
                            for t in range(t_one, t_max) for c in range(t * k, t * k + k)]
        # backward micro steps, last first: the output error entering at a
        # timestep's last micro step (else None), d_act and d_z
        self.backward_one = [(self.from_out[0, t] if c == t * k + k - 1 else None,
                              self.d_act[0, c], d_z[0, c])
                             for t in range(t_max - 1, t_one - 1, -1)
                             for c in range(t * k + k - 1, t * k - 1, -1)]
        self.backward_wide = [(self.d_state[:n], self.d_state[:n, :, None],
                               self.from_out[:n, t] if c == t * k + k - 1 else None,
                               self.d_act[:n, c], d_z[:n, c], d_z[:n, c, :, None])
                              for t, n in reversed(list(enumerate(live[:t_one])))
                              for c in range(t * k + k - 1, t * k - 1, -1)]
        # row p of `parts` is padded row p's gradient (flat layout), summed
        # over its own rows: one stacked call per run of equal-length trials
        # makes the same BLAS call per trial as that trial alone would
        self.parts = np.empty((n_rows, config.n_params))
        senses_rep = self.senses if k == 1 else np.repeat(self.senses, k, axis=1)
        parts = unpack_weights(config, self.parts)
        self.group_terms = []
        for start, stop, t_len in self.groups:
            rows, steps = slice(start, stop), t_len * k
            dz, dy = d_z[rows, :steps], self.d_y[rows, :t_len]
            self.group_terms.append((
                (dz.transpose(0, 2, 1), senses_rep[rows, :steps], hs[rows, :steps], dz,
                 dy.transpose(0, 2, 1), self.last[rows, :t_len], dy),
                [part[rows] for part in parts]))

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    def forward(self, net: Network) -> None:
        """Every hidden state into `hs` and every output row into `outputs`."""
        add, matmul, dot = np.add, np.matmul, np.dot
        matmul(net.w_in, self.senses[..., None], self.drive[..., None])
        add(self.drive, net.b_h, self.drive)
        w_rec, act = net.w_rec, net._act
        for state_in, term_col, term, drive, state in self.forward_wide:
            matmul(w_rec, state_in, term_col)
            add(drive, term, state)
            act(state, state)
        for state_in, drive, state in self.forward_one:
            dot(w_rec, state_in, state)
            add(drive, state, state)
            act(state, state)
        matmul(net.w_out, self.last[..., None], self.outputs[..., None])
        add(self.outputs, net.b_out, self.outputs)

    def losses(self) -> list[tuple[float, float, float]]:
        """Each trial's three loss terms, in trial order, every term summed
        over its own rows; leaves the masked residuals in `d_y`."""
        multiply, add_reduce = np.multiply, np.add.reduce
        np.subtract(self.outputs, self.target, self.d_y)
        multiply(self.d_y, self.mask, self.d_y)
        for res, sq in self.squares:
            multiply(res, res, sq)
        for squares, sums in self.sum_blocks:
            add_reduce(squares, (1, 2), None, sums)
        sa, sp, sr = self.sums.tolist()
        return [(sa[row], sp[row], sr[row]) for row in self.trial_order.tolist()]

    def gradient(self, net: Network) -> np.ndarray:
        """The flat gradient from the residuals `losses` left in `d_y`: the
        sum of the per-trial gradients, added in trial order."""
        add, multiply, matmul, dot = np.add, np.multiply, np.matmul, np.dot
        add_reduce = np.add.reduce
        multiply(self.d_y, 2.0, self.d_y)
        # backward through time over the running trials; a trial's error
        # signal starts from zero at its last step
        matmul(net.w_out.T, self.d_y[..., None], self.from_out[..., None])
        net._act_deriv(self.hs[:, 1:], self.d_act)
        self.d_state.fill(0.0)
        w_rec_t, d_state = net.w_rec.T, self.d_state[0]
        for from_out, d_act, dz in self.backward_one:
            if from_out is not None:
                add(d_state, from_out, d_state)
            multiply(d_state, d_act, dz)
            dot(w_rec_t, dz, d_state)
        for d_state, d_state_col, from_out, d_act, dz, dz_col in self.backward_wide:
            if from_out is not None:
                add(d_state, from_out, d_state)
            multiply(d_state, d_act, dz)
            matmul(w_rec_t, dz_col, d_state_col)

        for (dz_t, senses, prev, dz, dy_t, last, dy), grads in self.group_terms:
            g_w_in, g_w_rec, g_b_h, g_w_out, g_b_out = grads
            matmul(dz_t, senses, g_w_in)
            matmul(dz_t, prev, g_w_rec)
            add_reduce(dz, 1, None, g_b_h)
            matmul(dy_t, last, g_w_out)
            add_reduce(dy, 1, None, g_b_out)
        if len(self.parts) == 1:
            return add(0.0, self.parts[0])
        # added up from zero in trial order: a reduction over the outer axis
        # adds whole rows one after another
        return add_reduce(self.parts[self.trial_order], axis=0, initial=0.0)


def bptt_gradient(net: Network, batch: ReplayBatch):
    """Exact gradient of the total masked squared-error loss over a replay batch.

    Every trial is unrolled over its full length (micro steps included), all
    of them in one pass over time. The batch gradient is the sum of per-trial
    gradients, added in trial order. Returns (flat gradient, loss).
    """
    batch.forward(net)
    losses = batch.losses()
    grad = batch.gradient(net)
    total_loss = 0.0
    for trial_losses in losses:
        total_loss += sum(trial_losses)
    return grad, total_loss


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a file for writing (text, or bytes with mode "wb") that replaces
    `path` only once the block completes: it is written as a sibling `.tmp`
    file and moved into place with os.replace, so a crash never leaves a
    half-written file at `path`; an error in either step removes the `.tmp`."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, config: NetConfig, weights: np.ndarray) -> None:
    """Write a two-line checkpoint: a topology header, then the flat weights.

    Floats are serialized at full round-trip precision, so reloads are
    bit-exact. The file is replaced atomically, and only if load_checkpoint
    would accept it: otherwise a ValueError, before any file is opened.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (config.n_params,):
        raise ValueError(f"weights shape {weights.shape} does not match config")
    for i in np.flatnonzero(~np.isfinite(weights)):
        plain(NUMBER, float(weights[i]), f"weights[{i}]")
    header = {key: getattr(config, field) for key, (field, _) in NET.items()}
    plain(fill, NetConfig, header, "header", NET)
    with atomic_write(path) as fh:
        fh.write(json.dumps({"format_version": CHECKPOINT_VERSION, **header}) + "\n")
        fh.write(json.dumps({"weights": weights.tolist()}) + "\n")


def load_checkpoint(path) -> tuple[NetConfig, np.ndarray]:
    """Read a checkpoint written by save_checkpoint.

    A malformed file raises ValueError: format_version must be the JSON
    integer CHECKPOINT_VERSION, the other header keys are read through the
    config's NET table, the weights line must hold only its "weights" key,
    a list of n_params finite JSON numbers, and no line may follow it.
    """
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if len(text) < 2:
        raise ValueError(f"checkpoint {path} is truncated")
    if len(text) > 2:
        raise ValueError("line 3: unexpected after the weights line")
    header = json.loads(text[0])
    config = fill(NetConfig, versioned(header, CHECKPOINT_VERSION, "header"), "header", NET)
    body = json.loads(text[1])
    weights = body.get("weights") if isinstance(body, dict) else None
    if not isinstance(weights, list) or len(weights) != config.n_params:
        raise ConfigError("weights", f"must be a list of {config.n_params} numbers")
    known(body, "", ("weights",))
    return config, np.array([NUMBER(w, f"weights[{i}]") for i, w in enumerate(weights)], float)
