import hashlib
import json
import os
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import skillnet
import skillnet.cli
from skillnet.cli import main
from skillnet.config import load_config
from skillnet.consolidate import retention_check
from skillnet.curriculum import retention_event
from skillnet.envs import step_counter
from skillnet.metrics import read_metrics, scrub, validate_event
from skillnet.network import NetConfig, init_network, load_checkpoint, save_checkpoint
from skillnet.traces import MAGIC, TraceStore


def write_config(tmp_path, **overrides):
    """A small, fast two-task 3x3 maze experiment."""
    config = {
        "master_seed": 7,
        "net": {"m": 9, "p": 4, "n": 1, "o": 4, "h": 12},
        "tasks": [
            {
                "task_id": "corner_ne",
                "goal_index": 0,
                "maze": {"width": 3, "height": 3, "start": [0, 0], "goal_cell": [2, 2]},
                "criterion": {"min_success_trials": 1},
            },
            {
                "task_id": "corner_nw",
                "goal_index": 1,
                "maze": {"width": 3, "height": 3, "start": [0, 0], "goal_cell": [0, 2]},
                "criterion": {"min_success_trials": 1},
            },
        ],
        "es": {"population": 8, "sigma": 0.2},
        "budgets": {"c0": 30000, "lambda": 0.04, "unit": "env_steps",
                    "max_total_budget": 400000},
        "consolidation": {"base_lr": 0.005,
                          "replay": {"mode": "relevant_only"}},
        "paths": {"trace_file": "traces.jsonl", "metrics_file": "metrics.jsonl",
                  "checkpoint_dir": "ckpt"},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_run_happy_path(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    events = read_metrics(tmp_path / "metrics.jsonl")
    assert events, "metrics file must not be empty"
    kinds = [e["event"] for e in events]
    assert kinds[0] == "run_start"
    assert kinds[-1] == "run_end"
    assert "solve" in kinds and "consolidation" in kinds
    end = events[-1]
    assert set(end["solved_task_ids"]) == {"corner_ne", "corner_nw"}
    retention = [e for e in events if e["event"] == "retention_check"]
    assert len(retention) >= 2
    assert (tmp_path / "traces.jsonl").exists()
    assert (tmp_path / "ckpt" / "final.ckpt").exists()


def test_run_missing_net_h_names_field(tmp_path, capsys):
    config_path = write_config(tmp_path, net={"m": 9, "p": 4, "n": 1, "o": 4})
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert "net.h" in err


def test_run_nan_budget_exits_1_naming_field(tmp_path, capsys):
    config_path = write_config(tmp_path, budgets={"c0": float("nan"), "lambda": 0.04})
    assert "NaN" in config_path.read_text()
    assert main(["run", "--config", str(config_path)]) == 1
    assert "budgets.c0" in capsys.readouterr().err


def test_run_integer_too_large_for_a_float_exits_1_naming_field(tmp_path, capsys):
    config_path = write_config(tmp_path, budgets={"c0": 10**400, "lambda": 0.04})
    assert main(["run", "--config", str(config_path)]) == 1
    assert "budgets.c0" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("net", "micro_steps"), ("es", "population")])
def test_run_integer_outside_64_bits_exits_1_naming_field(tmp_path, capsys, section, key):
    config_path = write_config(tmp_path)
    config = json.loads(config_path.read_text())
    config[section][key] = 10**30
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 1
    assert f"{section}.{key}: must fit in a signed 64-bit integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "transfer-probe", "eval"])
def test_negative_seed_flag_exits_1_naming_it(tmp_path, capsys, command):
    # numpy takes no negative seed; eval draws from its seed only on a slip
    # maze, so every command checks the flag before it runs anything
    config_path = write_config(tmp_path)
    cfg = NetConfig(obs_dim=9, goal_dim=4, reward_dim=1, action_dim=4, hidden_dim=12)
    save_checkpoint(tmp_path / "x.ckpt", cfg, init_network(cfg)[1])
    args = [] if command == "run" else ["--checkpoint", str(tmp_path / "x.ckpt"),
                                        "--task", "corner_ne"]
    assert main([command, "--config", str(config_path), "--seed", "-3", *args]) == 1
    assert capsys.readouterr().err == "error: --seed: must be >= 0, got -3\n"
    assert not (tmp_path / "traces.jsonl").exists()


def test_run_non_positive_step_cap_exits_1_naming_criterion(tmp_path, capsys):
    config_path = write_config(tmp_path)
    config = json.loads(config_path.read_text())
    config["tasks"][1]["criterion"]["max_steps_per_trial"] = 0
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 1
    assert "tasks[1].criterion" in capsys.readouterr().err


def test_run_rejects_duplicate_paths(tmp_path, capsys):
    config_path = write_config(
        tmp_path,
        paths={"trace_file": "same.jsonl", "metrics_file": "same.jsonl",
               "checkpoint_dir": "ckpt"},
    )
    assert main(["run", "--config", str(config_path)]) == 1
    assert "paths" in capsys.readouterr().err


def test_run_reproducible_byte_identical(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    out_a = main(["run", "--config", str(write_config(dir_a))])
    out_b = main(["run", "--config", str(write_config(dir_b))])
    assert out_a == out_b == 0
    assert (dir_a / "metrics.jsonl").read_bytes() == (dir_b / "metrics.jsonl").read_bytes()
    assert (dir_a / "traces.jsonl").read_bytes() == (dir_b / "traces.jsonl").read_bytes()
    assert (dir_a / "ckpt" / "final.ckpt").read_bytes() == \
        (dir_b / "ckpt" / "final.ckpt").read_bytes()


def test_run_reproducible_with_evaluations_unit(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        d.mkdir()
        config_path = write_config(
            d, budgets={"c0": 400, "lambda": 2.5, "unit": "evaluations",
                        "max_total_budget": 4000},
        )
        assert main(["run", "--config", str(config_path)]) == 0
    assert (dirs[0] / "metrics.jsonl").read_bytes() == (dirs[1] / "metrics.jsonl").read_bytes()
    assert (dirs[0] / "traces.jsonl").read_bytes() == (dirs[1] / "traces.jsonl").read_bytes()


def test_run_reads_no_clock(tmp_path, monkeypatch):
    # every budget is a count of work, so a run never reads the time
    dirs = [tmp_path / "clock", tmp_path / "no_clock"]
    for d in dirs:
        d.mkdir()
    assert main(["run", "--config", str(write_config(dirs[0]))]) == 0

    def no_clock(*args):
        raise AssertionError("the run read a clock")

    with monkeypatch.context() as patch:
        for name in ("monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
                     "time", "time_ns"):
            patch.setattr(time, name, no_clock)
        assert main(["run", "--config", str(write_config(dirs[1]))]) == 0
    for name in ("metrics.jsonl", "traces.jsonl", "ckpt/final.ckpt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_seed_override_changes_outcome_files(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    main(["run", "--config", str(write_config(dir_a))])
    main(["run", "--config", str(write_config(dir_b)), "--seed", "99"])
    assert (dir_a / "metrics.jsonl").read_bytes() != (dir_b / "metrics.jsonl").read_bytes()


def test_eval_solved_checkpoint(tmp_path, capsys):
    config_path = write_config(tmp_path)
    main(["run", "--config", str(config_path)])
    code = main(["eval", "--checkpoint", str(tmp_path / "ckpt" / "final.ckpt"),
                 "--config", str(config_path), "--task", "corner_ne",
                 "--trials", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "success_rate=1.000" in out


def test_eval_random_checkpoint_fails_task(tmp_path, capsys):
    config_path = write_config(tmp_path)
    cfg = NetConfig(obs_dim=9, goal_dim=4, reward_dim=1, action_dim=4,
                    hidden_dim=12, seed=1234)
    _, weights = init_network(cfg)
    ckpt = tmp_path / "random.ckpt"
    save_checkpoint(ckpt, cfg, weights)
    code = main(["eval", "--checkpoint", str(ckpt), "--config", str(config_path),
                 "--task", "corner_ne", "--trials", "5"])
    assert code == 0
    assert "success_rate=0.000" in capsys.readouterr().out


def test_eval_zero_trials_is_usage_error(tmp_path, capsys):
    config_path = write_config(tmp_path)
    cfg = NetConfig(obs_dim=9, goal_dim=4, reward_dim=1, action_dim=4, hidden_dim=12)
    ckpt = tmp_path / "x.ckpt"
    _, weights = init_network(cfg)
    save_checkpoint(ckpt, cfg, weights)
    code = main(["eval", "--checkpoint", str(ckpt), "--config", str(config_path),
                 "--task", "corner_ne", "--trials", "0"])
    assert code == 1
    assert "trials" in capsys.readouterr().err


def test_eval_unknown_task(tmp_path, capsys):
    config_path = write_config(tmp_path)
    cfg = NetConfig(obs_dim=9, goal_dim=4, reward_dim=1, action_dim=4, hidden_dim=12)
    ckpt = tmp_path / "x.ckpt"
    _, weights = init_network(cfg)
    save_checkpoint(ckpt, cfg, weights)
    code = main(["eval", "--checkpoint", str(ckpt), "--config", str(config_path),
                 "--task", "bogus"])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("checkpoint_net, key", [
    (dict(obs_dim=16), "m"),
    (dict(goal_dim=2), "goal_index"),
])
def test_eval_checkpoint_that_does_not_fit_task_is_usage_error(tmp_path, capsys,
                                                                checkpoint_net, key):
    # a 16-cell net cannot see a 3x3 maze; a 2-slot goal input has no slot 2
    config_path = write_config(tmp_path)
    config = json.loads(config_path.read_text())
    config["tasks"][1]["goal_index"] = 2
    config_path.write_text(json.dumps(config))
    cfg = NetConfig(**{**dict(obs_dim=9, goal_dim=4, reward_dim=1, action_dim=4,
                              hidden_dim=12), **checkpoint_net})
    ckpt = tmp_path / "x.ckpt"
    save_checkpoint(ckpt, cfg, init_network(cfg)[1])
    code = main(["eval", "--checkpoint", str(ckpt), "--config", str(config_path),
                 "--task", "corner_nw"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint: ")
    assert key in err


@pytest.mark.parametrize("checkpoint_net, key", [
    (dict(activation="sigmoid"), "activation"),
    (dict(micro_steps=2), "micro_steps"),
    (dict(hidden_dim=10), "h"),
])
def test_transfer_probe_rejects_checkpoint_of_another_net(tmp_path, capsys,
                                                          checkpoint_net, key):
    # same parameter count or not, a checkpoint of another net is no warm start
    config_path = write_config(tmp_path)
    cfg = NetConfig(**{**dict(obs_dim=9, goal_dim=4, reward_dim=1, action_dim=4,
                              hidden_dim=12), **checkpoint_net})
    ckpt = tmp_path / "other.ckpt"
    save_checkpoint(ckpt, cfg, init_network(cfg)[1])
    code = main(["transfer-probe", "--checkpoint", str(ckpt),
                 "--config", str(config_path), "--task", "corner_ne"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint: ")
    assert key in err


def test_transfer_probe_emits_schema_valid_event(tmp_path, capsys):
    config_path = write_config(tmp_path)
    main(["run", "--config", str(config_path)])
    capsys.readouterr()
    code = main(["transfer-probe", "--checkpoint", str(tmp_path / "ckpt" / "final.ckpt"),
                 "--config", str(config_path), "--task", "corner_ne"])
    assert code == 0
    event = json.loads(capsys.readouterr().out.strip())
    validate_event(event)
    assert event["event"] == "transfer_probe"
    # the warm arm already solves this task: one parent evaluation is enough
    assert event["status"] == "solved"
    assert event["winner"] == "warm"
    assert event["evaluations_warm"] == 1


def test_transfer_probe_symmetric_weights_still_races(tmp_path, capsys):
    config_path = write_config(tmp_path)
    cfg = NetConfig(obs_dim=9, goal_dim=4, reward_dim=1, action_dim=4,
                    hidden_dim=12, seed=7)
    _, weights = init_network(cfg)
    ckpt = tmp_path / "fresh.ckpt"
    save_checkpoint(ckpt, cfg, weights)
    code = main(["transfer-probe", "--checkpoint", str(ckpt),
                 "--config", str(config_path), "--task", "corner_ne"])
    assert code == 0
    event = json.loads(capsys.readouterr().out.strip())
    validate_event(event)
    assert event["budget_spent_warm"] > 0
    if event["status"] == "failed":
        gap = abs(event["budget_spent_warm"] - event["budget_spent_scratch"])
        assert gap <= event["max_batch_cost"]


def test_traces_listing_and_filters(tmp_path, capsys):
    config_path = write_config(tmp_path)
    main(["run", "--config", str(config_path)])
    capsys.readouterr()
    trace_file = str(tmp_path / "traces.jsonl")

    assert main(["traces", trace_file]) == 0
    all_rows = capsys.readouterr().out.strip().splitlines()
    assert len(all_rows) >= 2

    assert main(["traces", trace_file, "--relevant"]) == 0
    relevant_rows = capsys.readouterr().out.strip().splitlines()
    assert len(relevant_rows) == 2  # one relevant trial per solved task
    assert all("relevant=True" in row for row in relevant_rows)

    assert main(["traces", trace_file, "--task", "corner_ne", "--success"]) == 0
    ne_rows = capsys.readouterr().out.strip().splitlines()
    assert all("corner_ne" in row for row in ne_rows)


def test_traces_empty_store_lists_nothing(tmp_path, capsys):
    from skillnet.traces import StoreDims, TraceStore

    store = TraceStore(StoreDims(9, 4, 1, 4))
    path = tmp_path / "empty.jsonl"
    store.save(path)
    assert main(["traces", str(path)]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_traces_dump_unknown_id(tmp_path, capsys):
    from skillnet.traces import StoreDims, TraceStore

    store = TraceStore(StoreDims(9, 4, 1, 4))
    path = tmp_path / "empty.jsonl"
    store.save(path)
    assert main(["traces", str(path), "--dump", "42"]) == 1
    assert "42" in capsys.readouterr().err


def test_traces_dump_round_trips_trial_json(tmp_path, capsys):
    config_path = write_config(tmp_path)
    main(["run", "--config", str(config_path)])
    capsys.readouterr()
    assert main(["traces", str(tmp_path / "traces.jsonl"), "--dump", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["trial_id"] == 1
    assert {"in", "goal", "r", "out", "pred", "pr"} <= set(obj["timesteps"][0])


def test_traces_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"format_version": 1, "m": 9, "p": 4, "n": 1, "o": 4}\nnot json\n')
    assert main(["traces", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_traces_bad_header_dimension_is_format_error(tmp_path, capsys):
    # the same header rule in both formats: a dimension given as a string
    config_path = write_config(tmp_path)
    main(["run", "--config", str(config_path)])
    v2_path, v1_path = tmp_path / "traces.jsonl", tmp_path / "v1.jsonl"
    assert main(["traces", str(v2_path), "--export-v1", str(v1_path)]) == 0
    capsys.readouterr()

    lines = v1_path.read_text().splitlines()
    lines[0] = lines[0].replace('"m": 9', '"m": "9"')
    v1_path.write_text("\n".join(lines) + "\n")
    data = v2_path.read_bytes()
    (length,) = struct.unpack_from("<I", data, len(MAGIC))
    header_end = len(MAGIC) + 4 + length
    header = data[len(MAGIC) + 4:header_end].replace(b'"m":9', b'"m":"9"')
    v2_path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + data[header_end:])

    for path, where in ((v1_path, "line 1"), (v2_path, f"byte {len(MAGIC)}")):
        assert main(["traces", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {where}: header.m: must be an integer" in err


def test_run_export_v1_matches_recorded_trace_file(tmp_path, capsys):
    """The v1 export of a run's trace file is byte for byte the trace file
    that the same run wrote before the trace file became binary."""
    config_path = write_config(tmp_path)
    assert main(["run", "--config", str(config_path), "--seed", "3"]) == 0
    out = tmp_path / "v1.jsonl"
    assert main(["traces", str(tmp_path / "traces.jsonl"), "--export-v1", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "a48d50b9b16ec7a3dc9f3a34bba9e47e6893e5d5403a5a26c650ad6522aed6b0")


def test_run_killed_outright_keeps_every_complete_record(tmp_path):
    # a task no trial can solve (the goal is 12 steps away, a trial may take
    # 5), so the run searches until it is killed
    config_path = write_config(tmp_path, tasks=[{
        "task_id": "far",
        "goal_index": 0,
        "maze": {"width": 7, "height": 7, "start": [0, 0], "goal_cell": [6, 6]},
        "criterion": {"min_success_trials": 1, "max_steps_per_trial": 5},
    }], net={"m": 49, "p": 4, "n": 1, "o": 4, "h": 12},
        budgets={"c0": 1e12, "lambda": 0.04})
    trace_file = tmp_path / "traces.jsonl"
    src = str(Path(skillnet.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen(
        [sys.executable, "-m", "skillnet.cli", "run", "--config", str(config_path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not (trace_file.exists() and trace_file.stat().st_size > 200_000):
            assert child.poll() is None, child.stderr.read().decode()
            assert time.monotonic() < deadline, "the run wrote too little to kill it partway"
            time.sleep(0.01)
        child.send_signal(signal.SIGKILL)
        assert child.wait(timeout=30) == -signal.SIGKILL
    finally:
        child.kill()
        child.wait(timeout=30)
        child.stderr.close()
    store = TraceStore.load(trace_file)
    assert len(store) > 0
    assert [t.trial_id for t in store] == list(range(1, len(store) + 1))
    for trial in store:
        store._validate(trial)


def test_run_runtime_failure_exits_two(tmp_path, capsys):
    # a wildly large learning rate makes consolidation diverge mid-run
    config_path = write_config(
        tmp_path,
        consolidation={"base_lr": 1000.0, "replay": {"mode": "relevant_only"}},
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", str(config_path)])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err


def test_diverged_run_keeps_its_traces(tmp_path, capsys):
    # one 3x3 task; at this learning rate the first dream diverges after a
    # dozen gradient steps, once the search has recorded its trials
    config = {
        "master_seed": 1,
        "net": {"m": 9, "p": 2, "n": 1, "o": 4, "h": 8},
        "tasks": [{
            "task_id": "corner_ne",
            "goal_index": 0,
            "maze": {"width": 3, "height": 3, "start": [0, 0], "goal_cell": [2, 2]},
            "criterion": {"min_success_trials": 1},
        }],
        "es": {"population": 4, "sigma": 0.2},
        "budgets": {"c0": 20000, "lambda": 0.002, "unit": "env_steps",
                    "max_total_budget": 200000},
        "consolidation": {"base_lr": 1e12, "replay": {"mode": "relevant_only"}},
        "paths": {"trace_file": "traces.jsonl", "metrics_file": "metrics.jsonl",
                  "checkpoint_dir": "ckpt"},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", str(config_path)])
    assert code == 2
    assert "consolidation diverged" in capsys.readouterr().err
    store = TraceStore.load(tmp_path / "traces.jsonl")
    recorded = sum(e["trials_recorded"] for e in read_metrics(tmp_path / "metrics.jsonl")
                   if e["event"] == "task_attempt")
    assert len(store) == recorded > 0


def test_missing_checkpoint_is_usage_error(tmp_path, capsys):
    config_path = write_config(tmp_path)
    code = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                 "--config", str(config_path), "--task", "corner_ne"])
    assert code == 1
    assert "checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("key, old, new", [
    ("m", '"m": 9', '"m": "9"'),
    ("h", '"h": 12', '"h": 12.0'),
    ("format_version", '"format_version": 1', '"format_version": true'),
])
def test_eval_malformed_checkpoint_header_is_usage_error(tmp_path, capsys, key, old, new):
    # a malformed checkpoint is the user's input error (exit 1), not a crash
    config_path = write_config(tmp_path)
    cfg = NetConfig(obs_dim=9, goal_dim=4, reward_dim=1, action_dim=4, hidden_dim=12)
    ckpt = tmp_path / "x.ckpt"
    save_checkpoint(ckpt, cfg, init_network(cfg)[1])
    lines = ckpt.read_text().splitlines()
    assert old in lines[0]
    lines[0] = lines[0].replace(old, new)
    ckpt.write_text("\n".join(lines) + "\n")
    code = main(["eval", "--checkpoint", str(ckpt), "--config", str(config_path),
                 "--task", "corner_ne"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint: ")
    assert key in err


@pytest.mark.parametrize("value", [True, "0.1", float("nan")])
def test_eval_checkpoint_with_bad_weight_is_usage_error(tmp_path, capsys, value):
    # a weight must be a finite JSON number: true and "0.1" are not coerced,
    # and a NaN is caught at load rather than at the first network step
    config_path = write_config(tmp_path)
    cfg = NetConfig(obs_dim=9, goal_dim=4, reward_dim=1, action_dim=4, hidden_dim=12)
    ckpt = tmp_path / "x.ckpt"
    save_checkpoint(ckpt, cfg, init_network(cfg)[1])
    lines = ckpt.read_text().splitlines()
    body = json.loads(lines[1])
    body["weights"][5] = value
    ckpt.write_text(lines[0] + "\n" + json.dumps(body) + "\n")
    code = main(["eval", "--checkpoint", str(ckpt), "--config", str(config_path),
                 "--task", "corner_ne"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint: ")
    assert "weights[5]: must be a " in err


@pytest.mark.parametrize("argv", [
    ["run"],
    ["bogus"],
    ["run", "--config", "c.json", "--workers", "2"],
])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--success", "--failed"], "--failed: not allowed with argument --success"),
    (["--dump", "1", "--export-v1", "OUT"], "--export-v1: not allowed with argument --dump"),
])
def test_traces_contradictory_flags_are_usage_errors(tmp_path, capsys, flags, named):
    config_path = write_config(tmp_path)
    main(["run", "--config", str(config_path)])
    capsys.readouterr()
    flags = [str(tmp_path / "out.jsonl") if f == "OUT" else f for f in flags]
    with pytest.raises(SystemExit) as exc:
        main(["traces", str(tmp_path / "traces.jsonl"), *flags])
    assert exc.value.code == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_final_sweep_reports_retention_without_running_episodes(tmp_path, monkeypatch):
    config_path = write_config(tmp_path)
    curriculum_end = {}
    run_curriculum = skillnet.cli.run_curriculum

    def spy(*args, **kwargs):
        weights, report = run_curriculum(*args, **kwargs)
        curriculum_end.update(weights=weights, report=report, steps=step_counter.count)
        return weights, report

    monkeypatch.setattr(skillnet.cli, "run_curriculum", spy)
    assert main(["run", "--config", str(config_path)]) == 0
    assert step_counter.count == curriculum_end["steps"]  # no episode after the curriculum
    events = read_metrics(tmp_path / "metrics.jsonl")
    final = [e for e in events if e["event"] == "retention_check" and e["phase"] == "final"]
    # what an explicit sweep on the final weights reports, in config order
    config = load_config(config_path)
    report = curriculum_end["report"]
    solved = {r.task_id for r in report.solved}
    results = retention_check(curriculum_end["weights"],
                              [t for t in config.tasks if t.task_id in solved],
                              config.net, base_seed=config.master_seed)
    assert len(final) == len(solved) == 2
    assert final == [scrub(retention_event(task_id, res, pass_number=report.pass_count,
                                           phase="final"))
                     for task_id, res in results.items()]


def test_config_that_is_not_utf8_is_usage_error_naming_the_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(bytes.fromhex("fffe7b"))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path} is not UTF-8 text")


@pytest.mark.parametrize("name, message", [
    ("absent.json", "config file not found: {path}"),
    ("", "cannot read config file {path}: Is a directory"),
], ids=["missing", "directory"])
def test_config_file_error_prints_message_alone(tmp_path, capsys, name, message):
    path = tmp_path / name
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_missing_trace_file_is_usage_error(tmp_path, capsys):
    assert main(["traces", str(tmp_path / "nope.jsonl")]) == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command, named", [
    ("traces", "error: trace_file: cannot read"),
    ("run", "cannot read config file"),
    ("eval", "error: checkpoint: cannot read"),
])
def test_unreadable_path_is_usage_error(tmp_path, capsys, command, named):
    # a path that exists but cannot be read (a directory) is the user's
    # input error (exit 1), like a missing file
    config_path = write_config(tmp_path)
    argv = {"traces": ["traces", str(tmp_path)],
            "run": ["run", "--config", str(tmp_path)],
            "eval": ["eval", "--checkpoint", str(tmp_path), "--config", str(config_path),
                     "--task", "corner_ne"]}[command]
    assert main(argv) == 1
    assert named in capsys.readouterr().err


def test_checkpoint_round_trip_through_cli_artifacts(tmp_path):
    config_path = write_config(tmp_path)
    main(["run", "--config", str(config_path)])
    cfg, weights = load_checkpoint(tmp_path / "ckpt" / "final.ckpt")
    save_checkpoint(tmp_path / "again.ckpt", cfg, weights)
    cfg2, weights2 = load_checkpoint(tmp_path / "again.ckpt")
    assert cfg == cfg2
    assert np.array_equal(weights, weights2)
