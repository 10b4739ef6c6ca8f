"""Append-only lifelong storage of trial traces, with relevance flags and
selective replay sampling.

Every trial ever run (successful or not) is kept at full resolution. The only
mutation allowed after append is a change to a trial's `relevant` flag
(`mark_relevant`, and `supersede_task` when its task is solved again by a
newer controller); the timestep data itself is frozen. Selection policies
are applied at read time.

A trial's timesteps are one read-only float64 array of shape
(T, m+p+n+o+(m+n)+(n+1)): row t is the net's input [in | goal | r] followed by
its output [out | pred | pr], in `StoreDims.columns` order. Every store
keeps its rows only in a v2 file: its trials hold their fields and where
their rows lie, and read the rows back on each access to `timesteps`.
`TraceStore(dims)` streams to an unnamed temporary file, `create` to a named
one, and `load` reads rows from the file it loaded. A closed or loaded store
takes no new records. The file stays open while the store or any of its
trials lives.

File format v2 (binary, append-only; what stores stream and `save`
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
each flushing the file once per call and adding the trials only once their
bytes are flushed.

A file that ends partway through its last record (a writer killed
mid-record) loads without that record; `torn_tail_offset` says where it
began. Nothing in the file depends on the wall clock.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import weakref
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .jsoncheck import fill, is_json_int
from .network import NET, NetConfig, atomic_write

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

# the file header: the m, p, n and o rows of the checkpoint's table
HEADER = {key: NET[key] for key in ("m", "p", "n", "o")}


class TraceFormatError(ValueError):
    """Raised when a trace file cannot be read; carries the byte offset of
    the failing record."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"byte {offset}: {message}")
        self.offset = offset


@dataclass
class Trial:
    """A complete episode trace plus its bookkeeping flags: what a rollout
    returns and `append` takes. A stored trial reads its rows from its
    store's file.

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


class _TraceFile:
    """The open v2 file a store's rows lie in, shared by the store and its
    trials. Trials hold this, not their store, so a dropped store and its
    trials make no reference cycle: the file closes as soon as the last of
    them goes, with or without the garbage collector."""

    def __init__(self, fh, path: Path | None):
        self.path = path  # None: an unnamed temporary file
        self.name = str(path) if path is not None else "an unnamed temporary trace file"
        self.fd = fh.fileno()
        weakref.finalize(self, fh.close)

    def read_rows(self, offset: int, shape: tuple[int, int], trial_id: int) -> np.ndarray:
        """A trial's rows, read with one positioned read."""
        nbytes = shape[0] * shape[1] * _ROW_DTYPE.itemsize
        data = os.pread(self.fd, nbytes, offset)
        if len(data) != nbytes:
            raise TraceFormatError(offset, f"trial {trial_id}: {len(data)} of its {nbytes} "
                                           f"row bytes are in {self.name}")
        return np.frombuffer(data, _ROW_DTYPE).reshape(shape)  # read-only: bytes


class _StoredTrial(Trial):
    """A stored trial: its fields and where its rows lie in its store's
    file. `timesteps` reads the rows back, a fresh read-only array on each
    access; `len` does not read."""

    def __init__(self, file: _TraceFile, offset: int, shape: tuple[int, int], *,
                 task_id: str, success: bool, relevant: bool, final_return: float,
                 trial_id: int):
        self.task_id, self.success, self.relevant = task_id, success, relevant
        self.final_return, self.trial_id = final_return, trial_id
        self._file, self._offset, self._shape = file, offset, shape

    @property
    def timesteps(self) -> np.ndarray:
        return self._file.read_rows(self._offset, self._shape, self.trial_id)

    def __len__(self) -> int:
        return self._shape[0]


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
            if self.k is None or not self.k >= 1:
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
            if not getattr(self, name) >= 1:
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
        """Each `--dump` JSON timestep key's column slice in a trial row, in
        key order; built once per instance and shared, so not to be modified."""
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
    """Trial store whose rows lie only in a v2 file, streamed as it grows.

    Single writer, any number of readers; `append` never exposes a partially
    built trial and already-stored timestep data is immutable.
    """

    def __init__(self, dims: StoreDims):
        """An empty store streamed to an unnamed temporary file."""
        log = tempfile.TemporaryFile()
        self._start(dims, _TraceFile(log, None), log)

    @classmethod
    def create(cls, path, dims: StoreDims) -> "TraceStore":
        """An empty store streamed to a new v2 file at `path`, replacing any
        file there. `append`, `extend`, `supersede_task` and `mark_relevant`
        each write their records and flush once, so the file holds every
        complete record even if the process is killed. `save(path)` makes
        it durable; `close` ends the stream."""
        store = cls.__new__(cls)
        log = open(path, "w+b")
        store._start(dims, _TraceFile(log, Path(path).resolve()), log)
        return store

    def _start(self, dims: StoreDims, file: _TraceFile, log) -> None:
        """Set up an empty store whose rows lie in `file`: one streamed to
        the writable file `log`, or, without it, one to load."""
        self.dims = dims
        self._trials: list[Trial] = []
        self._by_id: dict[int, Trial] = {}
        self._next_id = 1
        self._file = file
        self._log = log             # the writable file, until the store is closed
        self._size = 0              # bytes flushed to _log; None after a failed write
        self.torn_tail_offset: int | None = None  # set by load: a dropped torn record
        if log is not None:
            self._write(MAGIC, _frame(_header(dims)))

    def close(self) -> None:
        """End the stream: the store takes no more records. The file closes
        once the store and its trials are gone."""
        self._log = None

    def _check_open(self) -> None:
        if self._log is None:
            raise ValueError(f"the trace store of {self._file.name} is closed or loaded, "
                             f"so it takes no new records")

    def _write(self, *parts) -> None:
        if self._size is None:
            raise OSError(f"an earlier write to {self._file.name} failed, so its end is unknown")
        size, self._size = self._size, None
        for part in parts:
            size += self._log.write(part)
        self._log.flush()
        self._size = size

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

    def _validate(self, trial: Trial, rows: np.ndarray) -> None:
        """Check a trial's flags and return against its rows."""
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
        final_return = float(trial.final_return)
        if not abs(recomputed - final_return) <= FINAL_RETURN_TOL:  # NaN fails too
            raise ValueError(
                f"final_return {final_return!r} does not match rewards "
                f"(recomputed {recomputed!r})"
            )

    def _add(self, trial: Trial) -> None:
        self._trials.append(trial)
        self._by_id[trial.trial_id] = trial
        self._next_id = trial.trial_id + 1

    def append(self, trial: Trial) -> int:
        """Persist a trial and return its assigned id: write its record and
        flush."""
        return self.extend([trial])[0]

    def extend(self, trials) -> list[int]:
        """Persist trials in order and return their assigned ids. Every
        trial is checked before any is written, so a bad one leaves the
        store and its file unchanged. Every record is written and flushed
        once, and then each trial's fields and row offset are added."""
        self._check_open()
        trials = list(trials)
        rows = [np.asarray(t.timesteps, np.float64) for t in trials]
        for trial, trial_rows in zip(trials, rows):
            self._validate(trial, trial_rows)
        ids = range(self._next_id, self._next_id + len(trials))
        records = [_trial_record(i, t, r) for i, t, r in zip(ids, trials, rows)]
        offset = self._size
        self._write(*(part for record in records for part in record))
        for trial_id, t, (kind, head, trial_rows) in zip(ids, trials, records):
            offset += len(kind) + len(head)
            self._add(_StoredTrial(self._file, offset, trial_rows.shape, task_id=t.task_id,
                                   success=t.success, relevant=t.relevant,
                                   final_return=float(t.final_return), trial_id=trial_id))
            offset += trial_rows.nbytes
        return list(ids)

    def supersede_task(self, task_id: str) -> int:
        """Clear the relevant flag on all trials of a task; returns how many.

        The traces stay in the store and keep feeding prediction training.
        """
        self._check_open()
        return self._change_flags("supersede_task", task_id)

    def mark_relevant(self, trial_id: int) -> None:
        """Flag a stored successful trial as a cloning source. Search outcomes
        call this once a candidate's validation trials have passed."""
        self._check_open()
        self._change_flags("mark_relevant", trial_id)

    def _change_flags(self, op: str, arg) -> int:
        """Apply one flag change, writing its record first while the store
        streams; returns how many trials it changed."""
        if op == "mark_relevant":
            changed, relevant = [self.get(arg)], True
            if not changed[0].success:
                raise ValueError(f"trial {arg} was not successful; cannot mark relevant")
        else:
            changed = [t for t in self._trials if t.task_id == arg and t.relevant]
            relevant = False
        if changed and self._log is not None:
            self._write(FLAG_RECORD, _frame({op: arg}))
        for trial in changed:
            trial.relevant = relevant
        return len(changed)

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
        """Make the store durable at `path`. For the file this store's rows
        lie in, that is an fsync, since the file holds every record; any
        other path gets a complete v2 file, replaced atomically."""
        if Path(path).resolve() == self._file.path:  # never for an unnamed file
            os.fsync(self._file.fd)  # a rewrite would move the rows its trials read back
            return
        with atomic_write(path, "wb") as fh:
            fh.write(MAGIC + _frame(_header(self.dims)))
            for trial in self._trials:
                for part in _trial_record(trial.trial_id, trial, trial.timesteps):
                    fh.write(part)

    @classmethod
    def load(cls, path) -> "TraceStore":
        """Read a v2 trace file once, checking every record as `extend`
        checks a trial. The store keeps each trial's fields and where its
        rows lie, reads the rows from the file on each access, and takes no
        new records."""
        fh = open(path, "rb")
        file = _TraceFile(fh, Path(path).resolve())  # closes fh once dropped
        data = fh.read()
        if not data.startswith(MAGIC):
            raise TraceFormatError(0, "not a v2 trace file")
        end = len(data)
        offset = len(MAGIC)
        try:
            header, offset = _read_frame(data, offset)
            if header is None:
                raise ValueError("header is truncated")
            dims = fill(StoreDims, header, "header", HEADER)
        except ValueError as exc:
            raise TraceFormatError(len(MAGIC), str(exc)) from exc
        store = cls.__new__(cls)
        store._start(dims, file, None)
        width = dims.row_width
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
                    trial = _StoredTrial(file, offset, (t_len, width), **fields)
                    rows = np.frombuffer(data, _ROW_DTYPE, t_len * width, offset)
                    offset += rows.nbytes
                    store._validate(trial, rows.reshape(t_len, width))
                    if trial.trial_id < store._next_id:
                        raise ValueError(f"trial ids must be strictly increasing, "
                                         f"got {trial.trial_id}")
                    store._add(trial)
                else:
                    store._apply_flag(head)
            except KeyError as exc:
                raise TraceFormatError(start, f"record is missing field {exc}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise TraceFormatError(start, str(exc)) from exc
        return store

    def _apply_flag(self, head) -> None:
        if not isinstance(head, dict) or len(head) != 1:
            raise ValueError(f"flag record must hold one flag change, got {head!r}")
        (op, arg), = head.items()
        if op == "mark_relevant" and is_json_int(arg):
            if arg not in self._by_id:
                raise ValueError(f"flag names unknown trial {arg}")
        elif op != "supersede_task" or not isinstance(arg, str):
            raise ValueError(f"unknown flag change {head!r}")
        self._change_flags(op, arg)


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


def _trial_record(trial_id: int, trial: Trial, rows) -> tuple[bytes, bytes, np.ndarray]:
    """A trial's record as parts to write in order; the rows go out as the
    buffer of a C-contiguous little-endian array, not as a bytes copy."""
    head = {"trial_id": trial_id, "task_id": trial.task_id, "success": trial.success,
            "relevant": trial.relevant, "final_cr": float(trial.final_return), "T": len(rows)}
    return TRIAL_RECORD, _frame(head), np.ascontiguousarray(rows, _ROW_DTYPE)


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
    """The JSON object of a trial that `skillnet traces --dump` prints: its
    fields, and each row split at `dims.columns`."""
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
