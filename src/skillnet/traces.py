"""Append-only lifelong storage of trial traces, with relevance flags and
selective replay sampling.

Every trial ever run (successful or not) is kept at full resolution. The only
mutation allowed after append is a change to a trial's `relevant` flag
(`mark_relevant`, and `supersede_task` when its task is solved again by a
newer controller); the timestep data itself is frozen. Selection policies
are applied at read time.

In memory a trial's timesteps are one read-only float64 array of shape
(T, m+p+n+o+(m+n)+(n+1)): row t is the net's input [in | goal | r] followed by
its output [out | pred | pr], in v1 JSON-key column order
(`StoreDims.columns`).

File format v2 (binary, append-only; what `create` streams and `save`
writes): the magic line ``SKILLNET-TRACES 2\n``, then a frame holding the
header JSON ``{"m": ..., "p": ..., "n": ..., "o": ...}``, then records. A
frame is a little-endian uint32 byte count followed by that many bytes of
UTF-8 JSON. Each record is one type byte and a frame:

  * ``T`` trial: the frame holds trial_id, task_id, success, relevant,
    final_cr and T, and is followed by the trial's T x row_width rows as
    little-endian float64, row-major;
  * ``F`` flag: the frame holds one flag change, ``{"mark_relevant": id}``
    or ``{"supersede_task": task_id}``, applied in file order on load.

`append` writes one trial's record and `extend` a whole ES generation's,
each flushing the file once per call.

A file that ends partway through its last record (a writer killed
mid-record) loads without that record; `torn_tail_offset` says where it
began. Nothing in the file depends on the wall clock.

File format v1 (JSON Lines, UTF-8; read by `load`, written by `export_v1`):
line 1 is a header object ``{"format_version": 1, "m": ..., "p": ...,
"n": ..., "o": ...}``; each following line is one trial object with keys
trial_id, task_id, success, relevant, final_cr and timesteps, where each
timestep has keys in/goal/r/out/pred/pr. Floats are written at full
round-trip precision, so both formats round-trip bit-exactly. `load` tells
the formats apart by the first bytes, not by the file name.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .jsoncheck import fill, is_json_int, versioned
from .network import NET, NetConfig, atomic_write

V1_FORMAT_VERSION = 1
MAGIC = b"SKILLNET-TRACES 2\n"
TRIAL_RECORD, FLAG_RECORD = b"T", b"F"
_FRAME_LEN = struct.Struct("<I")
# one encoder for every frame: given separators, json.dumps builds a new
# encoder on each call
_FRAME_JSON = json.JSONEncoder(separators=(",", ":")).encode
# decodes str only: json.loads(bytes) would detect the encoding on every call
_FRAME_DECODE = json.JSONDecoder().decode
_ROW_DTYPE = np.dtype("<f8")

FINAL_RETURN_TOL = 1e-9

REPLAY_MODES = ("all", "relevant_only", "uniform_sample", "recent")

# the header of both formats: the m, p, n and o rows of the checkpoint's table
HEADER = {key: NET[key] for key in ("m", "p", "n", "o")}


class TraceFormatError(ValueError):
    """Raised when a trace file cannot be parsed; carries the failing line
    (v1) or the byte offset of the failing record (v2)."""

    def __init__(self, line_no: int | None, message: str, *, offset: int | None = None):
        where = f"line {line_no}" if offset is None else f"byte {offset}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.offset = offset


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

    mode: str = "relevant_only"
    k: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.mode not in REPLAY_MODES:
            raise ValueError(f"mode must be one of {REPLAY_MODES}, got {self.mode!r}")
        if self.mode in ("uniform_sample", "recent"):
            if self.k is None or self.k < 1:
                raise ValueError(f"k must be >= 1 with mode {self.mode!r}, got {self.k}")
        elif self.k is not None:
            raise ValueError(f"k must not be set with mode {self.mode!r}")


@dataclass(frozen=True)
class StoreDims:
    """The store header: widths every trial must agree with."""

    obs_dim: int
    goal_dim: int
    reward_dim: int
    action_dim: int

    def __post_init__(self):
        for name in ("obs_dim", "goal_dim", "reward_dim", "action_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @classmethod
    def from_net_config(cls, cfg: NetConfig) -> "StoreDims":
        return cls(cfg.obs_dim, cfg.goal_dim, cfg.reward_dim, cfg.action_dim)

    @property
    def pred_dim(self) -> int:
        return self.obs_dim + self.reward_dim

    @property
    def return_pred_dim(self) -> int:
        return self.reward_dim + 1

    @cached_property
    def columns(self) -> dict[str, slice]:
        """Each v1 JSON timestep key's column slice in a trial row, in key
        order; built once per instance and shared, so not to be modified."""
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
    """In-memory trial store, optionally streamed to a v2 file as it grows.

    Single writer, any number of readers; `append` never exposes a partially
    built trial and already-stored timestep data is immutable.
    """

    def __init__(self, dims: StoreDims):
        self.dims = dims
        self._trials: list[Trial] = []
        self._by_id: dict[int, Trial] = {}
        self._next_id = 1
        self._log = None            # the open v2 file of a streamed store
        self._log_path: Path | None = None
        self.torn_tail_offset: int | None = None  # set by load: a dropped torn record

    @classmethod
    def create(cls, path, dims: StoreDims) -> "TraceStore":
        """An empty store streamed to a new v2 file at `path`, replacing any
        file there. `append`, `extend`, `supersede_task` and `mark_relevant`
        each write their records and flush once, so the file holds every
        complete record even if the process is killed. `save(path)` makes
        it durable; `close` ends the stream."""
        store = cls(dims)
        store._log = open(path, "wb")
        store._log_path = Path(path).resolve()
        store._write(MAGIC, _frame(_header(dims)))
        return store

    def close(self) -> None:
        """Stop streaming and close the file; a no-op for other stores."""
        if self._log is not None:
            self._log.close()
            self._log = None

    def _write(self, *parts) -> None:
        for part in parts:
            self._log.write(part)
        self._log.flush()

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
        if not np.isfinite(rows).all():
            raise ValueError("timesteps contain non-finite entries")
        # the rewards added in step order, as run_trials adds them
        recomputed = float(rows[:, self.dims.columns["r"]].sum(axis=1).cumsum()[-1])
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
        """Persist a trial (copying its rows) and return its assigned id; on
        a streamed store, write its record and flush."""
        return self.extend([trial])[0]

    def extend(self, trials) -> list[int]:
        """Persist trials in order (copying their rows) and return their
        assigned ids. Every trial is checked before any is added, so a bad
        one leaves the store and its file unchanged; a streamed store then
        writes every record and flushes once."""
        stored = [Trial(task_id=t.task_id, success=t.success, relevant=t.relevant,
                        timesteps=frozen_rows(t.timesteps),
                        final_return=float(t.final_return), trial_id=self._next_id + i)
                  for i, t in enumerate(trials)]
        for trial in stored:
            self._validate(trial)
        for trial in stored:
            self._add(trial)
        if self._log is not None:
            self._write(*(part for trial in stored for part in _trial_record(trial)))
        return [trial.trial_id for trial in stored]

    def supersede_task(self, task_id: str) -> int:
        """Clear the relevant flag on all trials of a task; returns how many.

        The traces stay in the store and keep feeding prediction training.
        """
        count = 0
        for trial in self._trials:
            if trial.task_id == task_id and trial.relevant:
                trial.relevant = False
                count += 1
        if count and self._log is not None:
            self._write(FLAG_RECORD, _frame({"supersede_task": task_id}))
        return count

    def mark_relevant(self, trial_id: int) -> None:
        """Flag a stored successful trial as a cloning source. Search outcomes
        call this once a candidate's validation trials have passed."""
        trial = self.get(trial_id)
        if not trial.success:
            raise ValueError(f"trial {trial_id} was not successful; cannot mark relevant")
        trial.relevant = True
        if self._log is not None:
            self._write(FLAG_RECORD, _frame({"mark_relevant": trial_id}))

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
        """Make the store durable at `path`. For the file this store streams
        to, that is a flush and an fsync; any other path gets a complete v2
        file, replaced atomically."""
        if self._log is not None and Path(path).resolve() == self._log_path:
            self._log.flush()
            os.fsync(self._log.fileno())
            return
        with atomic_write(path, "wb") as fh:
            fh.write(MAGIC + _frame(_header(self.dims)))
            for trial in self._trials:
                for part in _trial_record(trial):
                    fh.write(part)

    def export_v1(self, path) -> None:
        """Write the store as v1 JSON Lines, replacing `path` atomically."""
        with atomic_write(path) as fh:
            header = {"format_version": V1_FORMAT_VERSION, **_header(self.dims)}
            fh.write(json.dumps(header) + "\n")
            for trial in self._trials:
                fh.write(json.dumps(trial_to_json(trial, self.dims)) + "\n")

    @classmethod
    def load(cls, path) -> "TraceStore":
        """Read a v2 or v1 trace file, told apart by its first bytes."""
        data = Path(path).read_bytes()
        if data.startswith(MAGIC):
            return cls._load_v2(data)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = data.count(b"\n", 0, exc.start) + 1
            raise TraceFormatError(line_no, f"not UTF-8 text: {exc}") from exc
        return cls._load_v1(text.splitlines())

    def _add_loaded(self, trial: Trial) -> None:
        """The checks every loaded trial passes before it joins the store."""
        self._validate(trial)
        if trial.trial_id < self._next_id:
            raise ValueError(f"trial ids must be strictly increasing, got {trial.trial_id}")
        trial.timesteps.setflags(write=False)
        self._add(trial)

    @classmethod
    def _load_v2(cls, data: bytes) -> "TraceStore":
        end = len(data)
        offset = len(MAGIC)
        try:
            header, offset = _read_frame(data, offset)
            if header is None:
                raise ValueError("header is truncated")
            store = cls(fill(StoreDims, header, "header", HEADER))
        except ValueError as exc:
            raise TraceFormatError(None, str(exc), offset=len(MAGIC)) from exc
        width = store.dims.row_width
        while offset < end:
            start = offset
            try:
                kind = data[start:start + 1]
                if kind not in (TRIAL_RECORD, FLAG_RECORD):
                    raise ValueError(f"unknown record type {kind!r}")
                head, offset = _read_frame(data, start + 1)
                if head is None:
                    store.torn_tail_offset = start
                    break
                if kind == TRIAL_RECORD:
                    fields = _trial_fields(head)
                    t_len = head["T"]
                    if not is_json_int(t_len) or t_len < 1:
                        raise ValueError(f"T must be an int >= 1, got {t_len!r}")
                    if offset + t_len * width * _ROW_DTYPE.itemsize > end:
                        store.torn_tail_offset = start
                        break
                    rows = np.frombuffer(data, _ROW_DTYPE, t_len * width, offset)
                    offset += rows.nbytes
                    store._add_loaded(Trial(timesteps=rows.reshape(t_len, width), **fields))
                else:
                    store._apply_flag(head)
            except KeyError as exc:
                raise TraceFormatError(None, f"record is missing field {exc}",
                                       offset=start) from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise TraceFormatError(None, str(exc), offset=start) from exc
        return store

    def _apply_flag(self, head) -> None:
        if not isinstance(head, dict) or len(head) != 1:
            raise ValueError(f"flag record must hold one flag change, got {head!r}")
        (op, arg), = head.items()
        if op == "mark_relevant" and is_json_int(arg):
            if arg not in self._by_id:
                raise ValueError(f"flag names unknown trial {arg}")
            self.mark_relevant(arg)
        elif op == "supersede_task" and isinstance(arg, str):
            self.supersede_task(arg)
        else:
            raise ValueError(f"unknown flag change {head!r}")

    @classmethod
    def _load_v1(cls, lines: list[str]) -> "TraceStore":
        if not lines:
            raise TraceFormatError(1, "empty trace file (missing header)")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise TraceFormatError(1, f"invalid header JSON: {exc}") from exc
        try:
            dims = fill(StoreDims, versioned(header, V1_FORMAT_VERSION, "header"), "header",
                        HEADER)
        except ValueError as exc:
            raise TraceFormatError(1, str(exc)) from exc
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
                store._add_loaded(trial)
            except ValueError as exc:
                raise TraceFormatError(line_no, str(exc)) from exc
        return store


def _header(dims: StoreDims) -> dict:
    return {key: getattr(dims, field) for key, (field, _) in HEADER.items()}


def _frame(obj) -> bytes:
    """A v2 frame: the uint32 byte count of obj's compact JSON, then the JSON."""
    data = _FRAME_JSON(obj).encode("utf-8")
    return _FRAME_LEN.pack(len(data)) + data


def _read_frame(data: bytes, offset: int):
    """(decoded JSON, offset after the frame), or (None, offset) when the
    data ends inside the frame."""
    body = offset + _FRAME_LEN.size
    if body > len(data):
        return None, offset
    (length,) = _FRAME_LEN.unpack_from(data, offset)
    if body + length > len(data):
        return None, offset
    try:
        return _FRAME_DECODE(data[body:body + length].decode("utf-8")), body + length
    except ValueError as exc:  # a JSON or UTF-8 decoding error
        raise ValueError(f"invalid JSON in frame: {exc}") from exc


def _trial_record(trial: Trial) -> tuple[bytes, bytes, np.ndarray]:
    """A trial's record as parts to write in order; the rows go out as the
    buffer of a C-contiguous little-endian array, not as a bytes copy."""
    head = {"trial_id": trial.trial_id, "task_id": trial.task_id, "success": trial.success,
            "relevant": trial.relevant, "final_cr": trial.final_return, "T": len(trial)}
    return TRIAL_RECORD, _frame(head), np.ascontiguousarray(trial.timesteps, _ROW_DTYPE)


def _trial_fields(obj: dict) -> dict:
    """Trial's scalar fields from a trial object, checked, not coerced:
    trial_id must be an int, task_id a string, success and relevant JSON
    booleans and final_cr a number."""
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
    return {"trial_id": obj["trial_id"], "task_id": obj["task_id"],
            "success": obj["success"], "relevant": obj["relevant"],
            "final_return": float(final_cr)}


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
    (T, width) block of JSON numbers before the blocks are joined into rows.
    The scalar fields are checked as `_trial_fields` says."""
    fields = _trial_fields(obj)
    steps = obj["timesteps"]
    if not steps:
        raise ValueError("trial has no timesteps")
    blocks = []
    for key, cols in dims.columns.items():
        values = [ts[key] for ts in steps]
        block = np.asarray(values, dtype=np.float64)
        shape = (len(steps), cols.stop - cols.start)
        if block.shape != shape:
            raise ValueError(f"{key!r} values must have shape {shape}, got {block.shape}")
        # asarray would read true as 1.0 and "0.5" as 0.5
        if not all(type(v) in (int, float) for row in values for v in row):
            raise ValueError(f"{key!r} values must be JSON numbers")
        blocks.append(block)
    return Trial(timesteps=np.concatenate(blocks, axis=1), **fields)
