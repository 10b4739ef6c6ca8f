import bisect
import gc
import json
import os
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from skillnet.network import NetConfig, save_checkpoint
from skillnet.traces import (
    FLAG_RECORD,
    MAGIC,
    ReplayPolicy,
    StoreDims,
    TraceFormatError,
    TraceStore,
    Trial,
    _TraceFile,
)

DIMS = StoreDims(obs_dim=2, goal_dim=2, reward_dim=1, action_dim=2)


def make_trial(task_id="a", n_steps=3, success=False, relevant=False, rng=None, rewards=None):
    rng = rng or np.random.default_rng(0)
    if rewards is None:
        rewards = rng.normal(size=(n_steps, DIMS.reward_dim))
    rows = np.array([
        np.concatenate([
            rng.normal(size=DIMS.obs_dim),
            rng.normal(size=DIMS.goal_dim),
            np.asarray(rewards[t], dtype=np.float64),
            rng.normal(size=DIMS.action_dim),
            rng.normal(size=DIMS.pred_dim),
            rng.normal(size=DIMS.return_pred_dim),
        ])
        for t in range(n_steps)
    ])
    final = float(np.sum(rewards))
    return Trial(
        task_id=task_id, success=success, relevant=relevant,
        timesteps=rows, final_return=final,
    )


def test_store_dims_columns_are_built_once_and_leave_equality_alone():
    dims = StoreDims(obs_dim=2, goal_dim=2, reward_dim=1, action_dim=2)
    assert dims.columns is dims.columns
    assert [(c.start, c.stop) for c in dims.columns.values()] == \
        [(0, 2), (2, 4), (4, 5), (5, 7), (7, 10), (10, 12)]
    assert dims.row_width == 12
    assert dims == DIMS and hash(dims) == hash(DIMS)


def test_appended_ids_count_up_from_one():
    store = TraceStore(DIMS)
    assert store.append(make_trial()) == 1
    assert store.append(make_trial()) == 2
    assert len(store) == 2


def test_inconsistent_final_return_rejected():
    store = TraceStore(DIMS)
    trial = make_trial()
    trial.final_return += 1e-6
    with pytest.raises(ValueError, match="final_return"):
        store.append(trial)


def test_dimension_mismatch_rejected():
    store = TraceStore(DIMS)
    trial = make_trial()
    trial.timesteps = np.zeros((3, DIMS.row_width + 1))
    with pytest.raises(ValueError, match="shape"):
        store.append(trial)


def test_relevant_requires_success():
    store = TraceStore(DIMS)
    with pytest.raises(ValueError, match="relevant"):
        store.append(make_trial(success=False, relevant=True))


def test_empty_trial_rejected():
    store = TraceStore(DIMS)
    trial = make_trial()
    trial.timesteps = np.zeros((0, DIMS.row_width))
    with pytest.raises(ValueError, match="no timesteps"):
        store.append(trial)


def test_append_copies_and_freezes_data():
    store = TraceStore(DIMS)
    trial = make_trial()
    original = trial.timesteps.copy()
    tid = store.append(trial)
    trial.timesteps[0, DIMS.columns["in"]] = 99.0  # caller mutates its own copy
    stored = store.get(tid)
    assert np.array_equal(stored.timesteps, original)
    assert stored.timesteps.dtype == np.float64
    with pytest.raises(ValueError):
        stored.timesteps[0, 0] = 1.0


def test_supersede_clears_relevant_flags():
    store = TraceStore(DIMS)
    rng = np.random.default_rng(1)
    for _ in range(3):
        store.append(make_trial("a", success=True, relevant=True, rng=rng))
    store.append(make_trial("b", success=True, relevant=True, rng=rng))
    count = store.supersede_task("a")
    assert count == 3
    a_trials = [t for t in store if t.task_id == "a"]
    assert all(not t.relevant for t in a_trials)
    assert len(store.relevant_trials()) == 1
    # traces themselves stay available (prediction training still sees them)
    assert len(a_trials) == 3


def test_supersede_unknown_task_returns_zero():
    store = TraceStore(DIMS)
    assert store.supersede_task("nope") == 0


def test_sample_all_returns_everything_in_id_order():
    store = TraceStore(DIMS)
    rng = np.random.default_rng(2)
    for _ in range(3):
        store.append(make_trial(rng=rng))
    out = store.sample_replay(ReplayPolicy(mode="all"))
    assert [t.trial_id for t in out] == [1, 2, 3]


def test_sample_relevant_only_filters():
    store = TraceStore(DIMS)
    rng = np.random.default_rng(3)
    ids = []
    for i in range(5):
        rel = i in (1, 3)
        ids.append(store.append(make_trial(rng=rng, success=rel, relevant=rel)))
    out = store.sample_replay(ReplayPolicy(mode="relevant_only"))
    assert [t.trial_id for t in out] == [ids[1], ids[3]]


def test_uniform_sample_is_seeded_and_distinct():
    store = TraceStore(DIMS)
    rng = np.random.default_rng(4)
    for _ in range(10):
        store.append(make_trial(rng=rng))
    policy = ReplayPolicy(mode="uniform_sample", k=4, rng_seed=7)
    first = [t.trial_id for t in store.sample_replay(policy)]
    second = [t.trial_id for t in store.sample_replay(policy)]
    assert first == second
    assert len(set(first)) == 4


def test_uniform_sample_clamps_to_store_size():
    store = TraceStore(DIMS)
    store.append(make_trial())
    out = store.sample_replay(ReplayPolicy(mode="uniform_sample", k=5, rng_seed=0))
    assert len(out) == 1


def test_recent_returns_last_k():
    store = TraceStore(DIMS)
    rng = np.random.default_rng(5)
    for _ in range(5):
        store.append(make_trial(rng=rng))
    out = store.sample_replay(ReplayPolicy(mode="recent", k=2))
    assert [t.trial_id for t in out] == [4, 5]


def test_sampling_empty_store_returns_empty():
    store = TraceStore(DIMS)
    for policy in (
        ReplayPolicy(mode="all"),
        ReplayPolicy(mode="relevant_only"),
        ReplayPolicy(mode="uniform_sample", k=3),
        ReplayPolicy(mode="recent", k=3),
    ):
        assert store.sample_replay(policy) == []


def test_policy_validation():
    with pytest.raises(ValueError):
        ReplayPolicy(mode="bogus")
    with pytest.raises(ValueError):
        ReplayPolicy(mode="uniform_sample")
    with pytest.raises(ValueError):
        ReplayPolicy(mode="recent", k=0)


@pytest.mark.parametrize("mode", ["uniform_sample", "recent"])
def test_policy_rejects_nan_k(mode):
    with pytest.raises(ValueError, match=f"^k must be >= 1 with mode '{mode}', got nan$"):
        ReplayPolicy(mode=mode, k=float("nan"))


@pytest.mark.parametrize("field", ["obs_dim", "goal_dim", "reward_dim", "action_dim"])
def test_store_dims_reject_nan(field):
    widths = {"obs_dim": 1, "goal_dim": 1, "reward_dim": 1, "action_dim": 1, field: float("nan")}
    with pytest.raises(ValueError, match=f"^{field} must be >= 1, got nan$"):
        StoreDims(**widths)


def test_sampling_soundness_randomized():
    rng = np.random.default_rng(17)
    for round_no in range(10):
        store = TraceStore(DIMS)
        n = int(rng.integers(1, 12))
        for _ in range(n):
            success = bool(rng.random() < 0.5)
            store.append(make_trial(rng=rng, success=success,
                                    relevant=success and rng.random() < 0.5))
        everything = {t.trial_id for t in store.sample_replay(ReplayPolicy(mode="all"))}
        assert everything == {t.trial_id for t in store}
        relevant = store.sample_replay(ReplayPolicy(mode="relevant_only"))
        assert {t.trial_id for t in relevant} <= everything
        assert all(t.success for t in relevant)
        k = int(rng.integers(1, 15))
        sampled = store.sample_replay(
            ReplayPolicy(mode="uniform_sample", k=k, rng_seed=round_no))
        assert len(sampled) == min(k, n)
        assert len({t.trial_id for t in sampled}) == len(sampled)
        assert {t.trial_id for t in sampled} <= everything
        recent = store.sample_replay(ReplayPolicy(mode="recent", k=k))
        assert [t.trial_id for t in recent] == sorted(everything)[-k:]


# ---------------------------------------------------------------------------
# persistence


def test_empty_store_round_trip(tmp_path):
    store = TraceStore(DIMS)
    path = tmp_path / "traces.jsonl"
    store.save(path)
    loaded = TraceStore.load(path)
    assert len(loaded) == 0
    assert loaded.dims == DIMS


def test_round_trip_preserves_everything_exactly(tmp_path):
    store = TraceStore(DIMS)
    rng = np.random.default_rng(6)
    for i in range(10):
        success = i % 2 == 0
        store.append(make_trial(f"task{i % 3}", n_steps=1 + i % 4, success=success,
                                relevant=success and i % 4 == 0, rng=rng))
    path = tmp_path / "traces.jsonl"
    store.save(path)
    loaded = TraceStore.load(path)
    assert len(loaded) == len(store)
    for a, b in zip(store, loaded):
        assert a == b
        assert b.timesteps.shape == (len(b), DIMS.row_width)
        assert b.timesteps.dtype == np.float64
        assert not b.timesteps.flags.writeable


def test_loaded_store_takes_no_records(tmp_path):
    store = TraceStore(DIMS)
    rng = np.random.default_rng(9)
    store.append(make_trial(rng=rng, success=True))
    path = tmp_path / "traces.bin"
    store.save(path)
    loaded = TraceStore.load(path)
    _assert_takes_no_records(loaded, rng, path)


def _assert_takes_no_records(store, rng, path=None):
    """Each call that would add a record raises ValueError naming the file
    (at `path`, or unnamed), and the store and its file stay as they were."""
    name = "an unnamed temporary trace file" if path is None else str(path)
    data = None if path is None else path.read_bytes()
    before = [(t.trial_id, t.relevant) for t in store]
    for call in (lambda: store.append(make_trial(rng=rng)),
                 lambda: store.extend([make_trial(rng=rng)]),
                 lambda: store.mark_relevant(1),
                 lambda: store.supersede_task("a")):
        with pytest.raises(ValueError, match=re.escape(f"{name} is closed or loaded")):
            call()
    assert [(t.trial_id, t.relevant) for t in store] == before
    if path is not None:
        assert path.read_bytes() == data


def _save_a_checkpoint(path):
    cfg = NetConfig(obs_dim=2, goal_dim=2, reward_dim=1, action_dim=2, hidden_dim=3)
    save_checkpoint(path, cfg, np.zeros(cfg.n_params))


def _store_with_a_trial():
    store = TraceStore(DIMS)
    store.append(make_trial())
    return store


@pytest.mark.parametrize("write", [
    _save_a_checkpoint,
    lambda path: _store_with_a_trial().save(path),
], ids=["save_checkpoint", "save"])
def test_failed_replace_raises_and_leaves_no_temp_file(tmp_path, write):
    target = tmp_path / "out"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(IsADirectoryError):
        write(target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert not any(target.iterdir())


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "traces.bin"
    path.write_text("")
    with pytest.raises(TraceFormatError, match="not a v2 trace file") as exc:
        TraceStore.load(path)
    assert exc.value.offset == 0


def test_round_trip_extreme_finite_floats(tmp_path):
    store = TraceStore(DIMS)
    trial = make_trial(n_steps=2, rewards=np.array([[1e300], [-1e300]]))
    values = np.array([5e-324, -1e-308, 1e308, 0.1 + 0.2])
    trial.timesteps[0, DIMS.columns["in"]] = values[: DIMS.obs_dim]
    trial.timesteps[0, DIMS.columns["pred"]] = [1e16 + 1.0, -1e-200, 3.0]
    store.append(trial)
    path = tmp_path / "traces.jsonl"
    store.save(path)
    loaded = TraceStore.load(path)
    assert loaded.get(1) == store.get(1)


# ---------------------------------------------------------------------------
# v2: streaming, torn tails, corruption


def frame(obj) -> bytes:
    data = json.dumps(obj).encode()
    return struct.pack("<I", len(data)) + data


@pytest.fixture
def streamed(tmp_path):
    """Creates streamed stores under tmp_path, closed however the test ends."""
    stores = []

    def create(name="traces.jsonl"):
        stores.append(TraceStore.create(tmp_path / name, DIMS))
        return stores[-1], tmp_path / name

    yield create
    for store in stores:
        store.close()


def test_streamed_file_holds_each_record_once_its_call_returns(tmp_path, streamed):
    store, path = streamed()
    assert path.read_bytes().startswith(MAGIC)
    assert len(TraceStore.load(path)) == 0
    rng = np.random.default_rng(15)
    store.append(make_trial("a", success=True, rng=rng))
    assert TraceStore.load(path).trials == store.trials
    store.mark_relevant(1)
    assert TraceStore.load(path).get(1).relevant
    assert store.supersede_task("b") == 0
    size = path.stat().st_size
    assert store.supersede_task("a") == 1
    assert path.stat().st_size > size
    assert not TraceStore.load(path).get(1).relevant
    # save of the streamed file only flushes it; another path gets a whole file
    data = path.read_bytes()
    store.save(tmp_path / "." / path.name)
    assert path.read_bytes() == data
    store.save(tmp_path / "copy")
    assert TraceStore.load(tmp_path / "copy").trials == store.trials
    store.close()
    assert path.read_bytes() == data


def test_torn_tail_is_dropped_at_every_byte(tmp_path, streamed):
    rng = np.random.default_rng(16)
    trials = [make_trial("a", success=True, rng=rng),
              make_trial("b", n_steps=2, rng=rng),
              make_trial("a", success=True, n_steps=1, rng=rng)]
    ops = [
        lambda s: s.append(trials[0]),
        lambda s: s.mark_relevant(1),
        lambda s: s.append(trials[1]),
        lambda s: s.append(trials[2]),
        lambda s: s.supersede_task("a"),
        lambda s: s.mark_relevant(3),
    ]
    store, path = streamed()
    ends = [path.stat().st_size]
    for op in ops:
        op(store)
        ends.append(path.stat().st_size)
    store.close()
    data = path.read_bytes()
    assert len(ends) == len(set(ends))  # every call wrote a record
    cut_path = tmp_path / "cut.jsonl"
    for cut in range(ends[0], len(data) + 1):
        done = bisect.bisect_right(ends, cut) - 1  # calls whose records are whole
        expected = TraceStore(DIMS)
        for op in ops[:done]:
            op(expected)
        cut_path.write_bytes(data[:cut])
        loaded = TraceStore.load(cut_path)
        assert loaded.trials == expected.trials, cut
        assert loaded.torn_tail_offset == (None if cut == ends[done] else ends[done]), cut
    for cut in range(len(MAGIC), ends[0]):
        cut_path.write_bytes(data[:cut])
        with pytest.raises(TraceFormatError, match="truncated") as exc:
            TraceStore.load(cut_path)
        assert exc.value.offset == len(MAGIC)


def test_extend_with_a_bad_trial_leaves_store_and_file_unchanged(streamed):
    rng = np.random.default_rng(20)
    store, path = streamed()
    store.append(make_trial("a", rng=rng))
    data = path.read_bytes()
    bad = make_trial("b", rng=rng)
    bad.final_return += 1.0
    with pytest.raises(ValueError, match="final_return"):
        store.extend([make_trial("b", rng=rng), make_trial("b", rng=rng), bad])
    assert len(store) == 1
    assert path.read_bytes() == data
    assert store.extend([make_trial("c", rng=rng)]) == [2]  # no id was used up


class _FlushSpy:
    """Stands in for a streamed store's file and counts its flushes."""

    def __init__(self, fh):
        self.fh, self.flushes = fh, 0
        self.write, self.close = fh.write, fh.close

    def flush(self):
        self.flushes += 1
        self.fh.flush()


def test_streamed_extend_flushes_once_per_call(streamed):
    rng = np.random.default_rng(21)
    store, path = streamed()
    spy = store._log = _FlushSpy(store._log)
    trials = [make_trial("a", n_steps=n, rng=rng) for n in (1, 2, 3)]
    assert store.extend(trials) == [1, 2, 3]
    assert spy.flushes == 1
    assert TraceStore.load(path).trials == store.trials  # flushed, so all on disk
    store.append(make_trial("b", rng=rng))
    assert spy.flushes == 2


def test_one_extend_writes_the_bytes_of_appends_one_at_a_time(streamed):
    rng = np.random.default_rng(22)
    trials = [make_trial("a", n_steps=n, success=n % 2 == 1, rng=rng) for n in (1, 4, 2, 3)]
    one, one_path = streamed("one.bin")
    assert one.extend(trials) == [1, 2, 3, 4]
    one.close()
    each, each_path = streamed("each.bin")
    assert [each.append(t) for t in trials] == [1, 2, 3, 4]
    each.close()
    assert one_path.read_bytes() == each_path.read_bytes()
    assert one.trials == each.trials


@pytest.mark.parametrize("call, message", [
    (lambda s: s.append(make_trial(5)), r"^task_id: must be a string$"),
    (lambda s: s.extend([make_trial("b"), make_trial("b", success=1)]),
     r"^success: must be a boolean$"),
    (lambda s: s.mark_relevant(True), r"^mark_relevant: must be an integer$"),
    (lambda s: s.supersede_task(1), r"^supersede_task: must be a string$"),
], ids=["task_id", "success", "mark_relevant", "supersede_task"])
def test_store_writes_only_what_load_accepts(streamed, call, message):
    store, path = streamed()
    store.append(make_trial("a", success=True, rng=np.random.default_rng(23)))
    trials, data = [(t.trial_id, t.relevant) for t in store], path.read_bytes()
    with pytest.raises(ValueError, match=message) as exc:
        call(store)
    assert type(exc.value) is ValueError  # a program fault, not a ConfigError
    assert [(t.trial_id, t.relevant) for t in store] == trials
    assert path.read_bytes() == data
    assert TraceStore.load(path).trials == store.trials


@pytest.mark.parametrize("value", [2.0, True, 2**63])
def test_store_dims_take_only_what_the_header_reader_takes(tmp_path, value):
    with pytest.raises(ValueError, match="^obs_dim: must") as exc:
        TraceStore.create(tmp_path / "traces.bin", StoreDims(value, 1, 1, 1))
    assert type(exc.value) is ValueError
    assert list(tmp_path.iterdir()) == []


def _second_record(tmp_path, second):
    """A streamed file of one failed trial, then `second` (a store call);
    returns (file bytes, offset of the second record)."""
    path = tmp_path / "traces.jsonl"
    store = TraceStore.create(path, DIMS)
    try:
        store.append(make_trial("a", rng=np.random.default_rng(17)))
        start = path.stat().st_size
        second(store)
    finally:
        store.close()
    return path.read_bytes(), start


def _flip(data, at, old, new):
    assert data[at:at + len(old)] == old
    return data[:at] + new + data[at + len(old):]


NAN = struct.pack("<d", float("nan"))


@pytest.mark.parametrize("corrupt, match", [
    (lambda d, s: _flip(d, s, b"T", b"X"), "unknown record type"),
    (lambda d, s: _flip(d, s + 5, b"{", b"["), "invalid JSON"),
    (lambda d, s: d.replace(b'"task_id":"b"', b'"task_id":7  '), "task_id"),
    (lambda d, s: d[:-8] + NAN, "non-finite"),
    (lambda d, s: _flip(d, s + 5 + d[s + 5:].index(b'"T":') + 4, b"2", b"1"), "final_return"),
    (lambda d, s: d.replace(b'"trial_id":2', b'"trial_id":1'), "increasing"),
], ids=["type_byte", "json", "task_id", "nan_row", "short_T", "repeated_id"])
def test_corrupt_complete_record_names_its_offset(tmp_path, corrupt, match):
    trial = make_trial("b", n_steps=2, rng=np.random.default_rng(18))
    data, start = _second_record(tmp_path, lambda s: s.append(trial))
    path = tmp_path / "bad.jsonl"
    path.write_bytes(corrupt(data, start))
    with pytest.raises(TraceFormatError, match=match) as exc:
        TraceStore.load(path)
    assert exc.value.offset == start
    assert f"byte {start}" in str(exc.value)


@pytest.mark.parametrize("encode", [
    lambda text: text.encode("utf-16"),
    lambda text: b"\xef\xbb\xbf" + text.encode(),
    lambda text: text.encode()[:-1] + b"\xff",
], ids=["utf16", "bom", "bad_byte"])
def test_frame_that_is_not_plain_utf8_names_its_offset(tmp_path, encode):
    # the format says UTF-8: a UTF-16 or BOM-prefixed frame is corrupt
    data, start = _second_record(tmp_path, lambda s: None)
    body = encode('{"mark_relevant":1}')
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data + FLAG_RECORD + struct.pack("<I", len(body)) + body)
    with pytest.raises(TraceFormatError, match="invalid JSON in frame") as exc:
        TraceStore.load(path)
    assert exc.value.offset == start


@pytest.mark.parametrize("flag, match", [
    ({"mark_relevant": 9}, "unknown trial 9"),
    ({"mark_relevant": 1}, "not successful"),
    # ids kept from when both read "unknown flag change"; the flag table now
    # names the key and the type it wants
    pytest.param({"mark_relevant": True}, "mark_relevant: must be an integer",
                 id="flag2-unknown flag change"),
    pytest.param({"supersede_task": 3}, "supersede_task: must be a string",
                 id="flag3-unknown flag change"),
    ({"mark_relevant": 1, "supersede_task": "a"}, "one flag change"),
])
def test_bad_flag_record_is_format_error(tmp_path, flag, match):
    data, start = _second_record(tmp_path, lambda s: None)
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data + FLAG_RECORD + frame(flag))
    with pytest.raises(TraceFormatError, match=match) as exc:
        TraceStore.load(path)
    assert exc.value.offset == start


def _edit_head(data, start, drop=(), **changes):
    """The file `data` with the frame of the trial record at `start` changed:
    the keys in `drop` removed from its JSON head and `changes` set."""
    (length,) = struct.unpack_from("<I", data, start + 1)
    body = start + 5 + length
    head = {k: v for k, v in json.loads(data[start + 5:body]).items() if k not in drop}
    return data[:start + 1] + frame({**head, **changes}) + data[body:]


def test_loaded_ids_must_increase(tmp_path):
    trial = make_trial("b", rng=np.random.default_rng(8))
    data, start = _second_record(tmp_path, lambda s: s.append(trial))
    header_end = len(MAGIC) + 4 + struct.unpack_from("<I", data, len(MAGIC))[0]
    first, second = data[header_end:start], data[start:]
    path = tmp_path / "swapped.bin"
    path.write_bytes(data[:header_end] + second + first)
    with pytest.raises(TraceFormatError, match="increasing") as exc:
        TraceStore.load(path)
    assert exc.value.offset == header_end + len(second)


@pytest.mark.parametrize("key, value", [
    ("m", "25"), ("p", 2.0), ("n", True), ("o", 0), ("m", -1), ("p", None),
])
def test_header_dimensions_must_be_positive_ints(tmp_path, key, value):
    path = tmp_path / "traces.bin"
    path.write_bytes(MAGIC + frame({"m": 2, "p": 2, "n": 1, "o": 2, key: value}))
    with pytest.raises(TraceFormatError, match=f"header.{key}: ") as exc:
        TraceStore.load(path)
    assert exc.value.offset == len(MAGIC)


@pytest.mark.parametrize("edit, match", [
    ({"T": 0}, "T must be an int >= 1, got 0"),
    ({"drop": ("success",)}, "success: missing required field"),
], ids=["no_rows", "no_success"])
def test_trial_frame_with_no_rows_or_no_success_names_its_offset(tmp_path, edit, match):
    trial = make_trial("b", rng=np.random.default_rng(12))
    data, start = _second_record(tmp_path, lambda s: s.append(trial))
    path = tmp_path / "bad.bin"
    path.write_bytes(_edit_head(data, start, **edit))
    with pytest.raises(TraceFormatError, match=match) as exc:
        TraceStore.load(path)
    assert exc.value.offset == start
    assert str(exc.value).startswith(f"byte {start}: ")


@pytest.mark.parametrize("key, value", [
    ("success", "no"),
    ("relevant", 0),
    ("trial_id", True),
    ("trial_id", "2"),
    ("trial_id", 2.0),
    ("task_id", 7),
    ("final_cr", True),
    ("final_cr", "0.5"),
    ("note", "an unknown key"),
])
def test_trial_field_types_checked_not_coerced(tmp_path, key, value):
    trial = make_trial("b", rng=np.random.default_rng(11))
    data, start = _second_record(tmp_path, lambda s: s.append(trial))
    path = tmp_path / "bad.bin"
    path.write_bytes(_edit_head(data, start, **{key: value}))
    with pytest.raises(TraceFormatError, match=key) as exc:
        TraceStore.load(path)
    assert exc.value.offset == start


@pytest.mark.parametrize("value", [float("nan"), pytest.param(10**400, id="huge_int")])
def test_nan_or_unrepresentable_final_cr_rejected(tmp_path, value):
    # NaN compares false against the tolerance; a huge JSON integer has no float
    trial = make_trial("b", rng=np.random.default_rng(12))
    data, start = _second_record(tmp_path, lambda s: s.append(trial))
    path = tmp_path / "bad.bin"
    path.write_bytes(_edit_head(data, start, final_cr=value))
    with pytest.raises(TraceFormatError) as exc:
        TraceStore.load(path)
    assert exc.value.offset == start


def test_int_final_cr_still_loads(tmp_path):
    # a whole-number return written as a JSON integer is a number, not a coercion
    trial = make_trial("b", rewards=np.array([[1.0], [0.0]]), n_steps=2)
    data, start = _second_record(tmp_path, lambda s: s.append(trial))
    assert b'"final_cr":1.0' in data[start:]
    path = tmp_path / "int.bin"
    path.write_bytes(_edit_head(data, start, final_cr=1))
    final_return = TraceStore.load(path).get(2).final_return
    assert final_return == 1.0 and type(final_return) is float


# ---------------------------------------------------------------------------
# a store keeps no rows in memory: trials read theirs from the file


def _three_generations(store, rng):
    """Three extends with flag records between them; returns the trials given."""
    given = []
    for n_steps in (1, 4, 2):
        batch = [make_trial("a", n_steps=n_steps + i, success=True, rng=rng) for i in range(3)]
        ids = store.extend(batch)
        store.mark_relevant(ids[1])
        store.supersede_task("a")
        given += batch
    return given


def test_streamed_trials_read_back_their_rows_bit_for_bit_and_read_only(streamed):
    rng = np.random.default_rng(30)
    store, path = streamed()
    first = make_trial("a", n_steps=2, rng=rng)
    first.timesteps[0, :2] = (-0.0, 5e-324)  # a signed zero and a subnormal
    store.append(first)
    given = [first, *_three_generations(store, rng)]
    assert [len(t) for t in store] == [len(t) for t in given]
    for trial, original in zip(store, given):
        rows = trial.timesteps
        assert rows.shape == original.timesteps.shape and rows.dtype == np.float64
        assert rows.tobytes() == original.timesteps.tobytes()
        assert not rows.flags.writeable
        assert trial.timesteps is not rows  # a fresh array on each read
    assert TraceStore.load(path).trials == store.trials


def test_streamed_trial_length_reads_no_rows(streamed, monkeypatch):
    store, _ = streamed()
    _three_generations(store, np.random.default_rng(31))
    reads = []
    read_rows = _TraceFile.read_rows
    monkeypatch.setattr(_TraceFile, "read_rows",
                        lambda self, *args: reads.append(args) or read_rows(self, *args))
    assert sum(len(t) for t in store) == 1 + 2 + 3 + 4 + 5 + 6 + 2 + 3 + 4
    assert reads == []
    store.get(2).timesteps
    assert len(reads) == 1


@pytest.mark.parametrize("n_steps", [1, 400])
def test_streamed_store_memory_does_not_grow_with_row_bytes(tmp_path, n_steps):
    # 200 trials of 400 rows hold 7.7 MB of rows; a store keeps ~0.3 kB a
    # trial, whether it streams to a named file or an unnamed one, or was loaded
    trial = make_trial("a", n_steps=n_steps, rng=np.random.default_rng(32))
    path = tmp_path / "traces.bin"

    def filled(store):
        for _ in range(200):
            store.append(trial)
        return store

    for form, build in (("create", lambda: filled(TraceStore.create(path, DIMS))),
                        ("unnamed", lambda: filled(TraceStore(DIMS))),
                        ("load", lambda: TraceStore.load(path))):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = build()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        store.close()
        assert len(store) == 200, form
        assert grown < 200 * 1024, form


def test_dropped_stores_close_their_files_without_the_garbage_collector():
    # a trial holds its store's file, not the store: no cycle keeps it open
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    trial = make_trial("a", rng=np.random.default_rng(36))
    gc.disable()
    try:
        before = open_fds()
        for _ in range(100):
            store = TraceStore(DIMS)
            store.extend([trial, trial])
            trials = store.trials
            del store
            assert trials[1].timesteps.tobytes() == trial.timesteps.tobytes()
            del trials
        assert open_fds() == before
    finally:
        gc.enable()


def test_closed_store_takes_no_records(streamed):
    # a closed store once took records into memory only, and its file, saved
    # as if whole, then lacked them
    rng = np.random.default_rng(37)
    named, path = streamed()
    unnamed = TraceStore(DIMS)
    for store, store_path in ((named, path), (unnamed, None)):
        store.append(make_trial("a", success=True, rng=rng))
        store.close()
        _assert_takes_no_records(store, rng, store_path)
    named.save(path)
    assert TraceStore.load(path).trials == named.trials


class _BrokenLog:
    """Stands in for a streamed store's file: passes on `good` writes, then
    fails, as a full disk would."""

    def __init__(self, fh, good):
        self.fh, self.good = fh, good
        self.flush, self.close = fh.flush, fh.close

    def write(self, part):
        if self.good == 0:
            raise OSError(28, "No space left on device")
        self.good -= 1
        return self.fh.write(part)


def test_failed_write_adds_no_trial_and_ends_streaming(streamed):
    rng = np.random.default_rng(33)
    store, path = streamed()
    store.append(make_trial("a", success=True, rng=rng))
    real = store._log
    store._log = _BrokenLog(real, good=2)  # the next record's type byte and frame
    with pytest.raises(OSError, match="No space"):
        store.extend([make_trial("b", rng=rng), make_trial("b", rng=rng)])
    assert [t.trial_id for t in store] == [1]
    # the file's end is unknown now, so no later record may land after it,
    # and a flag changes only once its record is written
    store._log = real
    for call in (lambda: store.append(make_trial("c", rng=rng)),
                 lambda: store.mark_relevant(1)):
        with pytest.raises(OSError, match="earlier write"):
            call()
    assert [(t.trial_id, t.relevant) for t in store] == [(1, False)]
    assert store.get(1) == TraceStore.load(path).get(1)


def test_named_and_unnamed_stores_save_the_same_bytes(tmp_path, streamed):
    named, _ = streamed()
    unnamed = TraceStore(DIMS)
    _three_generations(named, np.random.default_rng(34))
    _three_generations(unnamed, np.random.default_rng(34))
    for name, each in (("named", named), ("unnamed", unnamed)):
        each.save(tmp_path / f"{name}.bin")
    assert (tmp_path / "named.bin").read_bytes() == (tmp_path / "unnamed.bin").read_bytes()
    named.close()
    named.save(tmp_path / "closed.bin")
    assert (tmp_path / "closed.bin").read_bytes() == (tmp_path / "unnamed.bin").read_bytes()


def test_streamed_rows_stay_readable_after_close(tmp_path, streamed):
    rng = np.random.default_rng(35)
    store, path = streamed()
    given = _three_generations(store, rng)
    given.append(make_trial("b", n_steps=3, rng=rng))
    store.append(given[-1])  # the file ends with its rows
    store.close()
    assert [t.timesteps.tobytes() for t in store] == [t.timesteps.tobytes() for t in given]
    data = path.read_bytes()
    store.save(tmp_path / "." / path.name)  # its own file: made durable, not rewritten
    assert path.read_bytes() == data
    assert store.trials == TraceStore.load(path).trials
    path.write_bytes(data[:-8])  # the last trial's rows now end early
    last = store.trials[-1]
    with pytest.raises(TraceFormatError, match=f"trial {last.trial_id}: ") as exc:
        last.timesteps
    assert exc.value.offset == len(data) - len(last) * DIMS.row_width * 8
    assert store.trials[0].timesteps.tobytes() == given[0].timesteps.tobytes()


@st.composite
def store_calls(draw):
    """Store dims and a list of store calls: appends, with mark_relevant and
    supersede_task calls between them."""
    dims = StoreDims(*(draw(st.integers(1, 4)) for _ in range(4)))
    finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
    calls = []
    for i in range(draw(st.integers(0, 4))):
        t_len = draw(st.integers(1, 6))
        rows = draw(hnp.arrays(np.float64, (t_len, dims.row_width), elements=finite))
        rewards = rows[:, dims.columns["r"]]
        success = draw(st.booleans())
        calls.append(("append", Trial(
            task_id=f"task{i % 2}", success=success,
            relevant=success and draw(st.booleans()), timesteps=rows,
            final_return=float(np.cumsum(rewards.sum(axis=1))[-1]),
        )))
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.booleans()):
                calls.append(("mark_relevant", draw(st.integers(0, i))))
            else:
                calls.append(("supersede_task", f"task{draw(st.integers(0, 2))}"))
    return dims, calls


def make_calls(store, calls):
    for name, arg in calls:
        if name == "append":
            store.append(arg)
        elif name == "mark_relevant":
            if store.trials[arg].success:
                store.mark_relevant(store.trials[arg].trial_id)
        else:
            store.supersede_task(arg)


@settings(max_examples=60, deadline=None)
@given(store_calls())
def test_save_load_save_is_exact(dims_calls):
    dims, calls = dims_calls
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.bin", Path(tmp) / "b.bin"
        # the streamed file, flag records and all, loads as the same store
        streamed = Path(tmp) / "streamed.bin"
        store = TraceStore.create(streamed, dims)
        make_calls(store, calls)
        store.close()
        loaded = TraceStore.load(streamed)
        assert loaded.dims == store.dims
        assert list(loaded) == list(store)
        store.save(first)
        loaded = TraceStore.load(first)
        assert loaded.dims == store.dims
        assert list(loaded) == list(store)
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()


# any JSON-ish value a caller might pass where a record field goes
ANY_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-2, 2**64), st.floats(),
                      st.text(max_size=3))


@st.composite
def loose_calls(draw):
    """Store calls whose fields and arguments may be of any type."""
    calls = []
    for i in range(draw(st.integers(1, 5))):
        rows = np.random.default_rng(i).normal(size=(draw(st.integers(1, 3)), DIMS.row_width))
        success = draw(st.one_of(st.booleans(), ANY_VALUE))
        trial = Trial(task_id=draw(st.one_of(st.sampled_from(["a", "b"]), ANY_VALUE)),
                      success=success, relevant=draw(st.one_of(st.booleans(), ANY_VALUE)),
                      timesteps=rows, final_return=float(rows[:, DIMS.columns["r"]].sum()))
        name = draw(st.sampled_from(["mark_relevant", "supersede_task"]))
        arg = draw(st.one_of(st.integers(0, i + 1), st.sampled_from(["a", "b"]), ANY_VALUE))
        calls += [("extend", [trial]), (name, arg)]
    return calls


@settings(max_examples=80, deadline=None)
@given(loose_calls())
def test_whatever_the_store_accepts_loads_back_equal(calls):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "streamed.bin"
        store = TraceStore.create(path, DIMS)
        for name, arg in calls:
            data = path.read_bytes()
            try:
                getattr(store, name)(arg)
            except (KeyError, ValueError):
                assert path.read_bytes() == data
        store.close()
        assert TraceStore.load(path).trials == store.trials
