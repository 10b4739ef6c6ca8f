"""Append-only lifelong storage of trial traces, with relevance flags and
selective replay sampling.

Every trial ever run (successful or not) is kept at full resolution. The only
mutation allowed after append is clearing a trial's `relevant` flag when its
task is solved again by a newer controller; the timestep data itself is
frozen. Selection policies are applied at read time.

File format (JSON Lines, UTF-8): line 1 is a header object
``{"format_version": 1, "m": ..., "p": ..., "n": ..., "o": ...}``; each
following line is one trial object with keys trial_id, task_id, success,
relevant, final_cr and timesteps, where each timestep has keys
in/goal/r/out/pred/pr. Floats are serialized at full round-trip precision, so
save/load is bit-exact.

In memory a trial's timesteps are one read-only float64 array of shape
(T, m+p+n+o+(m+n)+(n+1)): row t is the net's input [in | goal | r] followed by
its output [out | pred | pr], in JSON-key column order (`StoreDims.columns`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import NetConfig, atomic_write, cumulative_reward, is_json_int

FORMAT_VERSION = 1

FINAL_RETURN_TOL = 1e-9

REPLAY_MODES = ("all", "relevant_only", "uniform_sample", "recent")


class TraceFormatError(ValueError):
    """Raised when a trace file cannot be parsed; carries the failing line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def frozen_rows(values) -> np.ndarray:
    """A read-only float64 copy of a trial's rows."""
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass
class Trial:
    """A complete episode trace plus its bookkeeping flags.

    `relevant` marks trials whose actions serve as cloning targets during
    consolidation; only successful trials may carry it.
    """

    task_id: str
    success: bool
    relevant: bool
    timesteps: np.ndarray    # (T, row_width) rows in StoreDims.columns order
    final_return: float      # serialized as "final_cr"
    trial_id: int = 0        # assigned by the store on append

    def __len__(self) -> int:
        return len(self.timesteps)

    def __eq__(self, other):
        if not isinstance(other, Trial):
            return NotImplemented
        return (
            self.trial_id == other.trial_id
            and self.task_id == other.task_id
            and self.success == other.success
            and self.relevant == other.relevant
            and self.final_return == other.final_return
            and np.array_equal(self.timesteps, other.timesteps)
        )


@dataclass(frozen=True)
class ReplayPolicy:
    """How consolidation selects trials for replay."""

    mode: str = "all"
    k: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.mode not in REPLAY_MODES:
            raise ValueError(f"mode must be one of {REPLAY_MODES}, got {self.mode!r}")
        if self.mode in ("uniform_sample", "recent"):
            if self.k is None or self.k < 1:
                raise ValueError(f"mode {self.mode!r} requires k >= 1, got {self.k}")


@dataclass(frozen=True)
class StoreDims:
    """The store header: widths every trial must agree with."""

    obs_dim: int
    goal_dim: int
    reward_dim: int
    action_dim: int

    @classmethod
    def from_net_config(cls, cfg: NetConfig) -> "StoreDims":
        return cls(cfg.obs_dim, cfg.goal_dim, cfg.reward_dim, cfg.action_dim)

    @property
    def pred_dim(self) -> int:
        return self.obs_dim + self.reward_dim

    @property
    def return_pred_dim(self) -> int:
        return self.reward_dim + 1

    @property
    def columns(self) -> dict[str, slice]:
        """Each v1 JSON timestep key's column slice in a trial row, in key order."""
        widths = (("in", self.obs_dim), ("goal", self.goal_dim), ("r", self.reward_dim),
                  ("out", self.action_dim), ("pred", self.pred_dim),
                  ("pr", self.return_pred_dim))
        columns, start = {}, 0
        for key, width in widths:
            columns[key] = slice(start, start + width)
            start += width
        return columns

    @property
    def row_width(self) -> int:
        return self.columns["pr"].stop


class TraceStore:
    """In-memory trial store with JSONL persistence.

    Single writer, any number of readers; `append` never exposes a partially
    built trial and already-stored timestep data is immutable.
    """

    def __init__(self, dims: StoreDims):
        self.dims = dims
        self._trials: list[Trial] = []
        self._by_id: dict[int, Trial] = {}
        self._next_id = 1

    def __len__(self) -> int:
        return len(self._trials)

    def __iter__(self):
        return iter(self._trials)

    @property
    def trials(self) -> tuple[Trial, ...]:
        return tuple(self._trials)

    def get(self, trial_id: int) -> Trial:
        try:
            return self._by_id[trial_id]
        except KeyError:
            raise KeyError(f"no trial with id {trial_id}") from None

    def relevant_trials(self) -> list[Trial]:
        return [t for t in self._trials if t.relevant]

    def task_trials(self, task_id: str) -> list[Trial]:
        return [t for t in self._trials if t.task_id == task_id]

    def _validate(self, trial: Trial) -> None:
        rows = trial.timesteps
        if rows.ndim != 2 or rows.shape[1] != self.dims.row_width:
            raise ValueError(
                f"timesteps must have shape (T, {self.dims.row_width}), got {rows.shape}"
            )
        if len(rows) == 0:
            raise ValueError("trial has no timesteps")
        if trial.relevant and not trial.success:
            raise ValueError("only successful trials may be marked relevant")
        if not np.all(np.isfinite(rows)):
            raise ValueError("timesteps contain non-finite entries")
        recomputed = float(cumulative_reward(rows[:, self.dims.columns["r"]])[-1])
        if not abs(recomputed - trial.final_return) <= FINAL_RETURN_TOL:  # NaN fails too
            raise ValueError(
                f"final_return {trial.final_return!r} does not match rewards "
                f"(recomputed {recomputed!r})"
            )

    def _add(self, trial: Trial) -> None:
        self._trials.append(trial)
        self._by_id[trial.trial_id] = trial
        self._next_id = trial.trial_id + 1

    def append(self, trial: Trial) -> int:
        """Persist a trial (copying its rows) and return its assigned id."""
        stored = Trial(
            task_id=trial.task_id,
            success=trial.success,
            relevant=trial.relevant,
            timesteps=frozen_rows(trial.timesteps),
            final_return=float(trial.final_return),
            trial_id=self._next_id,
        )
        self._validate(stored)
        self._add(stored)
        return stored.trial_id

    def supersede_task(self, task_id: str) -> int:
        """Clear the relevant flag on all trials of a task; returns how many.

        The traces stay in the store and keep feeding prediction training.
        """
        count = 0
        for trial in self._trials:
            if trial.task_id == task_id and trial.relevant:
                trial.relevant = False
                count += 1
        return count

    def mark_relevant(self, trial_id: int) -> None:
        """Flag a stored successful trial as a cloning source. Search outcomes
        call this once a candidate's validation trials have passed."""
        trial = self.get(trial_id)
        if not trial.success:
            raise ValueError(f"trial {trial_id} was not successful; cannot mark relevant")
        trial.relevant = True

    def sample_replay(self, policy: ReplayPolicy, rng: np.random.Generator | None = None) -> list[Trial]:
        """Select trials for replay. Deterministic given policy.rng_seed when
        no generator is passed; callers that sample repeatedly can hand in a
        persistent generator instead."""
        if policy.mode == "all":
            return list(self._trials)
        if policy.mode == "relevant_only":
            return self.relevant_trials()
        if policy.mode == "recent":
            return list(self._trials[-policy.k:])
        # uniform_sample: min(k, size) distinct trials, in id order
        if not self._trials:
            return []
        if rng is None:
            rng = np.random.default_rng(policy.rng_seed)
        k = min(policy.k, len(self._trials))
        idx = rng.choice(len(self._trials), size=k, replace=False)
        return [self._trials[i] for i in sorted(idx)]

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        """Write the store as JSON Lines, replacing `path` atomically."""
        with atomic_write(path) as fh:
            header = {
                "format_version": FORMAT_VERSION,
                "m": self.dims.obs_dim,
                "p": self.dims.goal_dim,
                "n": self.dims.reward_dim,
                "o": self.dims.action_dim,
            }
            fh.write(json.dumps(header) + "\n")
            for trial in self._trials:
                fh.write(json.dumps(trial_to_json(trial, self.dims)) + "\n")

    @classmethod
    def load(cls, path) -> "TraceStore":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines:
            raise TraceFormatError(1, "empty trace file (missing header)")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise TraceFormatError(1, f"invalid header JSON: {exc}") from exc
        if not isinstance(header, dict) or "format_version" not in header:
            raise TraceFormatError(1, "header missing format_version")
        version = header["format_version"]
        if not is_json_int(version) or version != FORMAT_VERSION:
            raise TraceFormatError(1, f"unsupported format_version {version!r}")
        for key in ("m", "p", "n", "o"):
            if key not in header:
                raise TraceFormatError(1, f"header missing dimension key {key!r}")
            value = header[key]
            if not is_json_int(value) or value < 1:
                raise TraceFormatError(
                    1, f"header dimension {key!r} must be an int >= 1, got {value!r}"
                )
        dims = StoreDims(
            obs_dim=header["m"],
            goal_dim=header["p"],
            reward_dim=header["n"],
            action_dim=header["o"],
        )
        store = cls(dims)
        for line_no, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(line_no, f"invalid trial JSON: {exc}") from exc
            try:
                trial = trial_from_json(obj, dims)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise TraceFormatError(line_no, f"malformed trial object: {exc}") from exc
            try:
                store._validate(trial)
            except ValueError as exc:
                raise TraceFormatError(line_no, str(exc)) from exc
            if trial.trial_id < store._next_id:
                raise TraceFormatError(
                    line_no, f"trial ids must be strictly increasing, got {trial.trial_id}"
                )
            trial.timesteps.setflags(write=False)
            store._add(trial)
        return store


def trial_to_json(trial: Trial, dims: StoreDims) -> dict:
    """The v1 JSON object of a trial: each row split at `dims.columns`."""
    columns = dims.columns.items()
    timesteps = [{key: row[cols] for key, cols in columns} for row in trial.timesteps.tolist()]
    return {
        "trial_id": trial.trial_id,
        "task_id": trial.task_id,
        "success": trial.success,
        "relevant": trial.relevant,
        "final_cr": trial.final_return,
        "timesteps": timesteps,
    }


def trial_from_json(obj: dict, dims: StoreDims) -> Trial:
    """Parse a v1 JSON trial object; each key's values must form a
    (T, width) block before the blocks are joined into rows.

    The scalar fields are checked, not coerced: trial_id must be an int,
    task_id a string, success and relevant JSON booleans and final_cr a
    number. Timestep values are only converted to float64.
    """
    if not is_json_int(obj["trial_id"]):
        raise ValueError(f"trial_id must be an int, got {obj['trial_id']!r}")
    if not isinstance(obj["task_id"], str):
        raise ValueError(f"task_id must be a string, got {obj['task_id']!r}")
    for key in ("success", "relevant"):
        if not isinstance(obj[key], bool):
            raise ValueError(f"{key} must be a JSON boolean, got {obj[key]!r}")
    final_cr = obj["final_cr"]
    if isinstance(final_cr, bool) or not isinstance(final_cr, (int, float)):
        raise ValueError(f"final_cr must be a number, got {final_cr!r}")
    steps = obj["timesteps"]
    if not steps:
        raise ValueError("trial has no timesteps")
    blocks = []
    for key, cols in dims.columns.items():
        block = np.asarray([ts[key] for ts in steps], dtype=np.float64)
        shape = (len(steps), cols.stop - cols.start)
        if block.shape != shape:
            raise ValueError(f"{key!r} values must have shape {shape}, got {block.shape}")
        blocks.append(block)
    return Trial(
        trial_id=obj["trial_id"],
        task_id=obj["task_id"],
        success=obj["success"],
        relevant=obj["relevant"],
        timesteps=np.concatenate(blocks, axis=1),
        final_return=float(final_cr),
    )
