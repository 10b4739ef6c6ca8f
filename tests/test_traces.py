import bisect
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from skillnet.traces import (
    FLAG_RECORD,
    MAGIC,
    ReplayPolicy,
    StoreDims,
    TraceFormatError,
    TraceStore,
    Trial,
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


def test_truncated_file_error_names_line(tmp_path):
    store = TraceStore(DIMS)
    rng = np.random.default_rng(7)
    store.append(make_trial(rng=rng))
    store.append(make_trial(rng=rng))
    path = tmp_path / "traces.jsonl"
    store.export_v1(path)
    text = path.read_text()
    path.write_text(text[: len(text) - 40])  # chop the tail of the last trial
    with pytest.raises(TraceFormatError) as exc:
        TraceStore.load(path)
    assert exc.value.line_no == 3
    assert "line 3" in str(exc.value)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text('{"format_version": 2, "m": 2, "p": 2, "n": 1, "o": 2}\n')
    with pytest.raises(TraceFormatError, match="format_version"):
        TraceStore.load(path)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text("")
    with pytest.raises(TraceFormatError):
        TraceStore.load(path)


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


def test_loaded_ids_must_increase(tmp_path):
    store = TraceStore(DIMS)
    rng = np.random.default_rng(8)
    store.append(make_trial(rng=rng))
    store.append(make_trial(rng=rng))
    path = tmp_path / "traces.jsonl"
    store.export_v1(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    with pytest.raises(TraceFormatError, match="increasing"):
        TraceStore.load(path)


def test_appending_after_load_continues_id_sequence(tmp_path):
    store = TraceStore(DIMS)
    rng = np.random.default_rng(9)
    store.append(make_trial(rng=rng))
    path = tmp_path / "traces.jsonl"
    store.save(path)
    loaded = TraceStore.load(path)
    assert loaded.append(make_trial(rng=rng)) == 2


def test_saved_trial_line_is_exact_v1_text(tmp_path):
    # pins the v1 key order and the float text: round-trip repr, signed zero,
    # the smallest subnormal
    rows = np.array([
        [0.1 + 0.2, -0.0, 1.0, 0.0, 0.0, 5e-324, -1.5, 0.5, 0.25, -0.0, 1e300, 2.0],
        [0.0, 1.0, 1.0, 0.0, 1.0, 0.75, 0.0, 1.0, -2.0, 3.0, 0.0, -0.0],
    ])
    store = TraceStore(DIMS)
    store.append(Trial(task_id="g", success=True, relevant=True, timesteps=rows,
                       final_return=1.0))
    path = tmp_path / "traces.jsonl"
    store.export_v1(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == '{"format_version": 1, "m": 2, "p": 2, "n": 1, "o": 2}'
    assert lines[1] == (
        '{"trial_id": 1, "task_id": "g", "success": true, "relevant": true, '
        '"final_cr": 1.0, "timesteps": ['
        '{"in": [0.30000000000000004, -0.0], "goal": [1.0, 0.0], "r": [0.0], '
        '"out": [5e-324, -1.5], "pred": [0.5, 0.25, -0.0], "pr": [1e+300, 2.0]}, '
        '{"in": [0.0, 1.0], "goal": [1.0, 0.0], "r": [1.0], '
        '"out": [0.75, 0.0], "pred": [1.0, -2.0, 3.0], "pr": [0.0, -0.0]}]}'
    )


def test_misaligned_fields_rejected_with_line_number(tmp_path):
    # `in` one value short and `goal` one value long: every row still has the
    # right total width, so only a per-key shape check catches it
    store = TraceStore(DIMS)
    rng = np.random.default_rng(10)
    store.append(make_trial(rng=rng))
    store.append(make_trial(rng=rng))
    path = tmp_path / "traces.jsonl"
    store.export_v1(path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[2])
    for ts in obj["timesteps"]:
        ts["goal"] = ts["in"][-1:] + ts["goal"]
        ts["in"] = ts["in"][:-1]
    lines[2] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match="'in'") as exc:
        TraceStore.load(path)
    assert exc.value.line_no == 3


@pytest.mark.parametrize("key, value", [
    ("m", "25"), ("p", 2.0), ("n", True), ("o", 0), ("m", -1), ("p", None),
])
def test_header_dimensions_must_be_positive_ints(tmp_path, key, value):
    header = {"format_version": 1, "m": 2, "p": 2, "n": 1, "o": 2, key: value}
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(TraceFormatError, match=f"header.{key}: ") as exc:
        TraceStore.load(path)
    assert exc.value.line_no == 1


def test_bool_format_version_rejected(tmp_path):
    # JSON true loads as a Python bool, and True == 1
    path = tmp_path / "traces.jsonl"
    path.write_text('{"format_version": true, "m": 2, "p": 2, "n": 1, "o": 2}\n')
    with pytest.raises(TraceFormatError, match="format_version") as exc:
        TraceStore.load(path)
    assert exc.value.line_no == 1


@pytest.mark.parametrize("key, value", [
    ("success", "no"),
    ("relevant", 0),
    ("trial_id", True),
    ("trial_id", "2"),
    ("trial_id", 2.0),
    ("task_id", 7),
    ("final_cr", True),
    ("final_cr", "0.5"),
])
def test_trial_field_types_checked_not_coerced(tmp_path, key, value):
    store = TraceStore(DIMS)
    rng = np.random.default_rng(11)
    store.append(make_trial(rng=rng))
    store.append(make_trial(rng=rng))
    path = tmp_path / "traces.jsonl"
    store.export_v1(path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[2])
    obj[key] = value
    lines[2] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match=key) as exc:
        TraceStore.load(path)
    assert exc.value.line_no == 3


@pytest.mark.parametrize("value", [float("nan"), pytest.param(10**400, id="huge_int")])
def test_nan_or_unrepresentable_final_cr_rejected(tmp_path, value):
    # NaN compares false against the tolerance; a huge JSON integer has no float
    store = TraceStore(DIMS)
    store.append(make_trial(rng=np.random.default_rng(12)))
    path = tmp_path / "traces.jsonl"
    store.export_v1(path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["final_cr"] = value
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError) as exc:
        TraceStore.load(path)
    assert exc.value.line_no == 2


def test_int_final_cr_still_loads(tmp_path):
    # a whole-number return written as a JSON integer is a number, not a coercion
    store = TraceStore(DIMS)
    store.append(make_trial(rewards=np.array([[1.0], [0.0]]), n_steps=2))
    path = tmp_path / "traces.jsonl"
    store.export_v1(path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["final_cr"] = 1
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    assert TraceStore.load(path).get(1).final_return == 1.0


# ---------------------------------------------------------------------------
# v1 reader


@pytest.mark.parametrize("value", [True, "0.5", None])
def test_v1_timestep_values_must_be_json_numbers(tmp_path, value):
    # numpy would read true as 1.0 and "0.5" as 0.5
    store = TraceStore(DIMS)
    store.append(make_trial(rng=np.random.default_rng(14)))
    path = tmp_path / "traces.jsonl"
    store.export_v1(path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["timesteps"][1]["out"][0] = value
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match="'out' values must be JSON numbers") as exc:
        TraceStore.load(path)
    assert exc.value.line_no == 2


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
    ({"mark_relevant": True}, "unknown flag change"),
    ({"supersede_task": 3}, "unknown flag change"),
    ({"mark_relevant": 1, "supersede_task": "a"}, "one flag change"),
])
def test_bad_flag_record_is_format_error(tmp_path, flag, match):
    data, start = _second_record(tmp_path, lambda s: None)
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data + FLAG_RECORD + frame(flag))
    with pytest.raises(TraceFormatError, match=match) as exc:
        TraceStore.load(path)
    assert exc.value.offset == start


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
@given(store_calls(), st.sampled_from(["v1", "v2"]))
def test_save_load_save_is_exact(dims_calls, file_format):
    dims, calls = dims_calls
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
        if file_format == "v2":
            # the streamed file, flag records and all, loads as the same store
            streamed = Path(tmp) / "streamed.jsonl"
            store = TraceStore.create(streamed, dims)
            make_calls(store, calls)
            store.close()
            loaded = TraceStore.load(streamed)
            assert loaded.dims == store.dims
            assert list(loaded) == list(store)
            write = TraceStore.save
        else:
            store = TraceStore(dims)
            make_calls(store, calls)
            write = TraceStore.export_v1
        write(store, first)
        loaded = TraceStore.load(first)
        assert loaded.dims == store.dims
        assert list(loaded) == list(store)
        write(loaded, second)
        assert first.read_bytes() == second.read_bytes()
