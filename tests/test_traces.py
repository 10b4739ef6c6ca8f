import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from skillnet.traces import (
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
    assert all(not t.relevant for t in store.task_trials("a"))
    assert len(store.relevant_trials()) == 1
    # traces themselves stay available (prediction training still sees them)
    assert len(store.task_trials("a")) == 3


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
    store.save(path)
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
    store.save(path)
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
    store.save(path)
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
    store.save(path)
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
    with pytest.raises(TraceFormatError, match=f"'{key}'") as exc:
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
    store.save(path)
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
    store.save(path)
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
    store.save(path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["final_cr"] = 1
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    assert TraceStore.load(path).get(1).final_return == 1.0


@st.composite
def stores(draw):
    dims = StoreDims(*(draw(st.integers(1, 4)) for _ in range(4)))
    finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
    store = TraceStore(dims)
    for i in range(draw(st.integers(0, 4))):
        t_len = draw(st.integers(1, 6))
        rows = draw(hnp.arrays(np.float64, (t_len, dims.row_width), elements=finite))
        rewards = rows[:, dims.columns["r"]]
        success = draw(st.booleans())
        store.append(Trial(
            task_id=f"task{i % 2}", success=success,
            relevant=success and draw(st.booleans()), timesteps=rows,
            final_return=float(np.cumsum(rewards.sum(axis=1))[-1]),
        ))
    return store


@settings(max_examples=60, deadline=None)
@given(stores())
def test_save_load_save_is_exact(store):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
        store.save(first)
        loaded = TraceStore.load(first)
        assert loaded.dims == store.dims
        assert list(loaded) == list(store)
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()
