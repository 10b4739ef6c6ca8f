import json

import numpy as np
import pytest

from skillnet.cli import main
from skillnet.metrics import read_metrics, validate_event
from skillnet.network import NetConfig, init_network, load_checkpoint, save_checkpoint
from skillnet.traces import TraceStore


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
    config_path = write_config(tmp_path)
    main(["run", "--config", str(config_path)])
    capsys.readouterr()
    path = tmp_path / "traces.jsonl"
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"m": 9', '"m": "9"')
    path.write_text("\n".join(lines) + "\n")
    assert main(["traces", str(path)]) == 1
    assert "line 1" in capsys.readouterr().err


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


def test_missing_trace_file_is_usage_error(tmp_path, capsys):
    assert main(["traces", str(tmp_path / "nope.jsonl")]) == 1
    assert "not found" in capsys.readouterr().err


def test_checkpoint_round_trip_through_cli_artifacts(tmp_path):
    config_path = write_config(tmp_path)
    main(["run", "--config", str(config_path)])
    cfg, weights = load_checkpoint(tmp_path / "ckpt" / "final.ckpt")
    save_checkpoint(tmp_path / "again.ckpt", cfg, weights)
    cfg2, weights2 = load_checkpoint(tmp_path / "again.ckpt")
    assert cfg == cfg2
    assert np.array_equal(weights, weights2)
