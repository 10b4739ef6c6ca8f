import errno
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
import skillnet.curriculum
from skillnet.cli import main
from skillnet.config import load_config
from skillnet.consolidate import retention_check
from skillnet.curriculum import retention_event
from skillnet.envs import step_counter
from skillnet.metrics import read_metrics, validate_event
from skillnet.network import NetConfig, init_network, load_checkpoint, save_checkpoint
from skillnet.traces import MAGIC, StoreDims, TraceStore, Trial


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


def test_eval_reproduces_each_final_retention_check_of_a_run(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    finals = [e for e in read_metrics(tmp_path / "metrics.jsonl")
              if e["event"] == "retention_check" and e["phase"] == "final"]
    assert {e["task_id"] for e in finals} == {"corner_ne", "corner_nw"}
    capsys.readouterr()
    for event in finals:
        assert main(["eval", "--checkpoint", str(tmp_path / "ckpt" / "final.ckpt"),
                     "--config", str(config_path), "--task", event["task_id"],
                     "--seed", "7"]) == 0
        assert capsys.readouterr().out == (
            f"task {event['task_id']}: success_rate={event['success_rate']:.3f} "
            f"mean_return={event['mean_return']:.4f} mean_length={event['mean_length']:.1f} "
            f"over 1 trials\n")


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

    assert main(["traces", trace_file, "--success"]) == 0
    success_rows = capsys.readouterr().out.strip().splitlines()
    assert main(["traces", trace_file, "--failed"]) == 0
    failed_rows = capsys.readouterr().out.strip().splitlines()
    assert failed_rows and all("\tsuccess=False\t" in row for row in failed_rows)
    assert sorted(success_rows + failed_rows) == sorted(all_rows)


def test_traces_warns_of_a_torn_last_record_and_lists_the_rest(tmp_path, capsys):
    from skillnet.traces import StoreDims, TraceStore

    path = tmp_path / "traces.bin"
    config_path = write_config(tmp_path)
    main(["run", "--config", str(config_path)])
    capsys.readouterr()
    complete = TraceStore.load(tmp_path / "traces.jsonl")
    trials = complete.trials
    store = TraceStore.create(path, StoreDims(9, 4, 1, 4))
    store.extend(trials[:-1])
    start = path.stat().st_size
    store.append(trials[-1])
    store.close()
    path.write_bytes(path.read_bytes()[:-3])  # killed while writing the last rows
    assert main(["traces", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == f"warning: {path}: dropped a torn last record at byte {start}\n"
    assert len(out.strip().splitlines()) == len(trials) - 1


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
    store = TraceStore.load(tmp_path / "traces.jsonl")
    columns = list(store.dims.columns)
    for trial in store:
        assert main(["traces", str(tmp_path / "traces.jsonl"), "--dump",
                     str(trial.trial_id)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert ((obj["trial_id"], obj["task_id"], obj["success"], obj["relevant"],
                 obj["final_cr"]) == (trial.trial_id, trial.task_id, trial.success,
                                      trial.relevant, trial.final_return))
        assert list(obj) == ["trial_id", "task_id", "success", "relevant", "final_cr",
                             "timesteps"]
        assert [list(ts) for ts in obj["timesteps"]] == [columns] * len(trial)
        rows = [[v for key in columns for v in ts[key]] for ts in obj["timesteps"]]
        assert np.array(rows).tobytes() == trial.timesteps.tobytes()


def test_traces_dump_is_exact_json_text(tmp_path, capsys):
    # pins the key order and the float text: round-trip repr, signed zero,
    # the smallest subnormal
    rows = np.array([
        [0.1 + 0.2, -0.0, 1.0, 0.0, 0.0, 5e-324, -1.5, 0.5, 0.25, -0.0, 1e300, 2.0],
        [0.0, 1.0, 1.0, 0.0, 1.0, 0.75, 0.0, 1.0, -2.0, 3.0, 0.0, -0.0],
    ])
    store = TraceStore(StoreDims(obs_dim=2, goal_dim=2, reward_dim=1, action_dim=2))
    store.append(Trial(task_id="g", success=True, relevant=True, timesteps=rows,
                       final_return=1.0))
    store.save(tmp_path / "traces.bin")
    assert main(["traces", str(tmp_path / "traces.bin"), "--dump", "1"]) == 0
    out = capsys.readouterr().out
    assert "".join(out.split()) == (
        '{"trial_id":1,"task_id":"g","success":true,"relevant":true,"final_cr":1.0,'
        '"timesteps":['
        '{"in":[0.30000000000000004,-0.0],"goal":[1.0,0.0],"r":[0.0],'
        '"out":[5e-324,-1.5],"pred":[0.5,0.25,-0.0],"pr":[1e+300,2.0]},'
        '{"in":[0.0,1.0],"goal":[1.0,0.0],"r":[1.0],'
        '"out":[0.75,0.0],"pred":[1.0,-2.0,3.0],"pr":[0.0,-0.0]}]}'
    )
    # and the layout: json's two-space indent, one value a line
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3f2ecece26d013167446d176243df025ac7cc7eb5b8f7bb4a67d1f079c6d0357")


def test_traces_v1_file_is_export_only(tmp_path, capsys):
    # a JSON Lines trace file, in the v1 layout, is no trace file
    v1_path = tmp_path / "v1.jsonl"
    v1_path.write_text('{"format_version": 1, "m": 2, "p": 2, "n": 1, "o": 2}\n'
                       '{"trial_id": 1, "task_id": "g", "success": false, "relevant": false, '
                       '"final_cr": 0.0, "timesteps": []}\n')
    assert main(["traces", str(v1_path)]) == 1
    assert capsys.readouterr().err == "error: byte 0: not a v2 trace file\n"


def test_traces_bad_header_dimension_is_format_error(tmp_path, capsys):
    # the config's net rule: a dimension given as a string
    config_path = write_config(tmp_path)
    main(["run", "--config", str(config_path)])
    capsys.readouterr()
    v2_path = tmp_path / "traces.jsonl"
    data = v2_path.read_bytes()
    (length,) = struct.unpack_from("<I", data, len(MAGIC))
    header_end = len(MAGIC) + 4 + length
    header = data[len(MAGIC) + 4:header_end].replace(b'"m":9', b'"m":"9"')
    v2_path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + data[header_end:])
    assert main(["traces", str(v2_path)]) == 1
    assert f"error: byte {len(MAGIC)}: header.m: must be an integer" in capsys.readouterr().err


def test_run_trace_file_matches_recorded_run(tmp_path, capsys):
    """A run's trace file is byte for byte the one the same run wrote when
    its trajectory was first recorded; each dream stops at its first chunk
    of 50 steps after which every solved task passes."""
    config_path = write_config(tmp_path)
    assert main(["run", "--config", str(config_path), "--seed", "3"]) == 0
    assert hashlib.sha256((tmp_path / "traces.jsonl").read_bytes()).hexdigest() == (
        "7cad150c82c15de1f912e6cd4b870d03a4da26c67b85ff252cf4c0f28697ad2e")
    events = read_metrics(tmp_path / "metrics.jsonl")
    assert [(e["task_id"], e["steps"], e["verified"]) for e in events
            if e["event"] == "consolidation"] == [
        ("corner_ne", 50, 0), ("corner_ne", 50, 1), ("corner_nw", 50, 2)]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("flags, first", [(["--dump", "1"], b"{"), ([], b"")],
                         ids=["dump", "list"])
def test_closed_stdout_exits_141_quietly(tmp_path, unbuffered, flags, first):
    # a trial dump larger than a pipe buffer, whose reader goes after 1 byte,
    # and a one-line listing whose reader goes before it is written
    dims = StoreDims(obs_dim=2, goal_dim=2, reward_dim=1, action_dim=2)
    store = TraceStore(dims)
    store.append(Trial(task_id="g", success=False, relevant=False,
                       timesteps=np.zeros((2000, dims.row_width)), final_return=0.0))
    store.save(tmp_path / "traces.bin")
    src = str(Path(skillnet.__file__).parent.parent)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen(
        [sys.executable, "-m", "skillnet.cli", "traces", str(tmp_path / "traces.bin"), *flags],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert child.stdout.read(len(first)) == first
        child.stdout.close()
        assert child.wait(timeout=60) == 141
        assert child.stderr.read() == b""
    finally:
        child.kill()
        child.wait(timeout=30)
        child.stdout.close()
        child.stderr.close()


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
        store._validate(trial, trial.timesteps)


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


def test_non_finite_final_dream_loss_exits_two_and_keeps_traces(tmp_path, capsys):
    # one dream step at this learning rate leaves finite weights whose probe
    # loss overflows; the dream must fail there, not emit it as Infinity
    config_path = write_config(
        tmp_path,
        budgets={"c0": 30000, "lambda": 1e-5, "unit": "env_steps", "max_total_budget": 400000},
        consolidation={"base_lr": 1e200, "replay": {"mode": "relevant_only"}},
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", str(config_path)])
    assert code == 2
    assert "consolidation diverged: non-finite loss after the last" in capsys.readouterr().err

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert lines and all(json.loads(line, parse_constant=reject) for line in lines)
    events = read_metrics(tmp_path / "metrics.jsonl")
    recorded = sum(e["trials_recorded"] for e in events if e["event"] == "task_attempt")
    assert len(TraceStore.load(tmp_path / "traces.jsonl")) == recorded > 0


@pytest.mark.parametrize("metrics_file", ["out/../out/run.log", "link/run.log"])
def test_two_spellings_of_one_output_path_are_a_usage_error(tmp_path, capsys, metrics_file):
    (tmp_path / "out").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "out", target_is_directory=True)
    config_path = write_config(tmp_path, paths={
        "trace_file": "out/run.log", "metrics_file": metrics_file, "checkpoint_dir": "ckpt"})
    assert main(["run", "--config", str(config_path)]) == 1
    assert "must differ" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run.log").exists()
    assert not (tmp_path / "ckpt").exists()


def test_output_path_through_a_symlink_loop_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "loop").symlink_to("loop")
    config_path = write_config(tmp_path, paths={
        "trace_file": "loop/run.log", "metrics_file": "metrics.jsonl", "checkpoint_dir": "ckpt"})
    assert main(["run", "--config", str(config_path)]) == 1
    # the real cause, not the "File exists" of making the parent directory
    assert capsys.readouterr().err == (f"error: paths.trace_file: cannot write "
                                       f"{tmp_path / 'loop/run.log'}: {os.strerror(errno.ELOOP)}\n")


@pytest.mark.parametrize("field", ["trace_file", "metrics_file"])
def test_usage_error_leaves_an_earlier_runs_outputs_byte_identical(tmp_path, capsys, field):
    config_path = write_config(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    outputs = {name: (tmp_path / name).read_bytes() for name in ("traces.jsonl", "metrics.jsonl")}
    assert all(outputs.values())
    (tmp_path / "loop").symlink_to("loop")
    write_config(tmp_path, paths={"trace_file": "traces.jsonl", "metrics_file": "metrics.jsonl",
                                  "checkpoint_dir": "ckpt", field: "loop/out"})
    assert main(["run", "--config", str(config_path)]) == 1
    assert f"paths.{field}: cannot write {tmp_path / 'loop/out'}: " in capsys.readouterr().err
    assert {name: (tmp_path / name).read_bytes() for name in outputs} == outputs


def _tree(root):
    return sorted(os.path.relpath(os.path.join(d, n), root)
                  for d, dirs, files in os.walk(root) for n in dirs + files)


@pytest.mark.parametrize("name", ["final.ckpt", "final.ckpt.tmp"])
@pytest.mark.parametrize("field", ["trace_file", "metrics_file"])
def test_output_file_the_final_checkpoint_overwrites_is_a_usage_error(tmp_path, capsys,
                                                                      field, name):
    paths = {"trace_file": "traces.jsonl", "metrics_file": "metrics.jsonl",
             "checkpoint_dir": "ck", field: f"ck/./{name}"}
    config_path = write_config(tmp_path, paths=paths)
    before = _tree(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: paths.{field}: must not be checkpoint_dir/{name}, "
        "which the final checkpoint overwrites\n")
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("field", ["trace_file", "metrics_file"])
def test_output_that_cannot_be_opened_leaves_nothing_new(tmp_path, capsys, field):
    # the outputs opened before the bad one, in new directories, are removed too
    (tmp_path / "loop").symlink_to("loop")
    (tmp_path / "kept").mkdir()
    paths = {"trace_file": "new/a/traces.bin", "metrics_file": "kept/new/metrics.jsonl",
             "checkpoint_dir": "new/b/ckpt", field: "loop/out"}
    config_path = write_config(tmp_path, paths=paths)
    before = _tree(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 1
    assert f"paths.{field}: cannot write" in capsys.readouterr().err
    assert _tree(tmp_path) == before


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


@pytest.mark.parametrize("command", ["eval", "transfer-probe"])
@pytest.mark.parametrize("extra, message", [
    ({"junk": 1}, "junk: unknown field"),
    (["garbage"], "line 3: unexpected after the weights line"),
], ids=["extra-key", "third-line"])
def test_checkpoint_with_more_than_its_weights_is_usage_error(tmp_path, capsys, command,
                                                              extra, message):
    config_path = write_config(tmp_path)
    cfg = NetConfig(obs_dim=9, goal_dim=4, reward_dim=1, action_dim=4, hidden_dim=12)
    ckpt = tmp_path / "x.ckpt"
    save_checkpoint(ckpt, cfg, init_network(cfg)[1])
    header, body = ckpt.read_text().splitlines()
    if isinstance(extra, dict):
        body = json.dumps({**json.loads(body), **extra})
    ckpt.write_text("\n".join([header, body, *(extra if isinstance(extra, list) else [])]) + "\n")
    code = main([command, "--checkpoint", str(ckpt), "--config", str(config_path),
                 "--task", "corner_ne"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint: malformed file {ckpt}: {message}")


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
    (["--dump", "1", "--task", "corner_nw"], "--task: not allowed with --dump"),
    (["--success", "--dump", "1"], "--success: not allowed with --dump"),
    (["--dump", "1", "--failed"], "--failed: not allowed with --dump"),
    (["--relevant", "--dump", "1"], "--relevant: not allowed with --dump"),
])
def test_traces_contradictory_flags_are_usage_errors(tmp_path, capsys, flags, named):
    config_path = write_config(tmp_path)
    main(["run", "--config", str(config_path)])
    capsys.readouterr()
    try:
        code = main(["traces", str(tmp_path / "traces.jsonl"), *flags])
    except SystemExit as exc:  # argparse's own exclusive group
        code = exc.code
    assert code == 1
    assert named in capsys.readouterr().err


def test_final_sweep_reports_retention_without_running_episodes(tmp_path, monkeypatch):
    config_path = write_config(tmp_path)
    curriculum_end = {}
    check_ends = []  # the step count as each of the curriculum's checks returns
    run_curriculum = skillnet.cli.run_curriculum
    curriculum_check = skillnet.curriculum.retention_check

    def spy(*args, **kwargs):
        weights, report = run_curriculum(*args, **kwargs)
        curriculum_end.update(weights=weights, report=report, steps=step_counter.count)
        return weights, report

    def check_spy(*args, **kwargs):
        results = curriculum_check(*args, **kwargs)
        check_ends.append(step_counter.count)
        return results

    monkeypatch.setattr(skillnet.cli, "run_curriculum", spy)
    monkeypatch.setattr(skillnet.curriculum, "retention_check", check_spy)
    assert main(["run", "--config", str(config_path)]) == 0
    events = read_metrics(tmp_path / "metrics.jsonl")
    # one check per dream and none for the sweep, and no episode after the
    # last dream's check: not in the sweep, not after the curriculum
    assert len(check_ends) == sum(e["event"] == "consolidation" for e in events)
    assert step_counter.count == curriculum_end["steps"] == check_ends[-1]
    final = [e for e in events if e["event"] == "retention_check" and e["phase"] == "final"]
    # what an explicit sweep on the final weights reports, in config order
    config = load_config(config_path)
    solved = set(curriculum_end["report"].solved)
    results = retention_check(curriculum_end["weights"],
                              [t for t in config.tasks if t.task_id in solved],
                              config.net, base_seed=config.master_seed)
    assert len(final) == len(solved) == 2
    assert final == [retention_event(task_id, res, pass_number=events[-1]["pass_count"],
                                     phase="final")
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


@pytest.mark.parametrize("field", ["trace_file", "metrics_file", "checkpoint_dir"])
def test_unusable_output_path_is_usage_error_naming_the_field(tmp_path, capsys, field):
    taken = tmp_path / "taken"
    if field == "checkpoint_dir":
        taken.write_text("")  # a file where a directory must go
    else:
        taken.mkdir()  # a directory where a file must go
    paths = {"trace_file": "traces.jsonl", "metrics_file": "metrics.jsonl",
             "checkpoint_dir": "ckpt", field: "taken"}
    before = step_counter.count
    assert main(["run", "--config", str(write_config(tmp_path, paths=paths))]) == 1
    assert capsys.readouterr().err.startswith(f"error: paths.{field}: cannot write {taken}: ")
    assert step_counter.count == before  # the curriculum never started


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
