import json
from pathlib import Path

import pytest

from skillnet import config as config_module
from skillnet.config import BudgetsConfig, ConfigError, load_config, with_seed
from skillnet.consolidate import ConsolidationConfig
from skillnet.envs import GridMazeSpec, SuccessCriterion
from skillnet.evolve import EsConfig
from skillnet.jsoncheck import INT, NUMBER, SEED
from skillnet.network import NET, NetConfig
from skillnet.traces import ReplayPolicy

REPO = Path(__file__).resolve().parent.parent


def base_config():
    return {
        "master_seed": 3,
        "net": {"m": 9, "p": 4, "n": 1, "o": 4, "h": 8},
        "tasks": [
            {"task_id": "a", "goal_index": 0,
             "maze": {"width": 3, "height": 3, "start": [0, 0], "goal_cell": [2, 2]}},
        ],
        "budgets": {"c0": 1000, "lambda": 0.1},
        "paths": {"trace_file": "t.jsonl", "metrics_file": "m.jsonl",
                  "checkpoint_dir": "ckpt"},
    }


def write(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_minimal_config_parses_with_defaults(tmp_path):
    config = load_config(write(tmp_path, base_config()))
    assert config.master_seed == 3
    assert config.net.hidden_dim == 8
    assert config.net.seed == 3  # defaults to master_seed
    assert config.es.population == 8
    assert config.budgets.unit == "env_steps"
    assert config.replay.mode == "relevant_only"
    assert config.paths.trace_file == tmp_path / "t.jsonl"


def test_omitted_fields_take_library_defaults(tmp_path):
    # the loader restates no default: a key left out means the dataclass's own
    config = load_config(write(tmp_path, base_config()))
    assert config.net == NetConfig(obs_dim=9, goal_dim=4, reward_dim=1, action_dim=4,
                                   hidden_dim=8, seed=3)
    assert config.tasks[0].env_spec == GridMazeSpec(width=3, height=3, start=(0, 0),
                                                    goal_cell=(2, 2))
    assert config.tasks[0].criterion == SuccessCriterion()
    assert config.es == EsConfig()
    assert config.budgets == BudgetsConfig(c0=1000.0, dream_multiplier=0.1)
    assert config.consolidation == ConsolidationConfig()
    assert config.replay == ReplayPolicy()


def test_shipped_configs_load():
    paths = sorted([*REPO.glob("configs/*.json"), *REPO.glob("perfbench/workloads/*.json")])
    assert len(paths) >= 2
    for path in paths:
        load_config(path)


def test_readme_config_block_parses_and_shows_every_key(tmp_path):
    # the README's schema is the loader's: it parses, and it names every key
    # of every section's table
    block = (REPO / "README.md").read_text(encoding="utf-8").split("```jsonc\n")[1]
    lines = block.split("```")[0].splitlines()
    raw = json.loads("\n".join(line.split("//")[0] for line in lines))
    config_module.parse_config(raw, tmp_path)
    task, consolidation = raw["tasks"][0], raw["consolidation"]
    c = config_module
    for section, table in [(raw["net"], NET), (task, c.TASK), (task["maze"], c.MAZE),
                           (task["criterion"], c.CRITERION), (raw["es"], c.ES),
                           (raw["budgets"], c.BUDGETS), (consolidation, c.CONSOLIDATION),
                           (consolidation["replay"], c.REPLAY), (raw["paths"], c.PATHS)]:
        assert set(table) <= set(section), set(table) - set(section)


def expect_error(tmp_path, config, fieldpath):
    with pytest.raises(ConfigError) as exc:
        load_config(write(tmp_path, config))
    assert fieldpath in str(exc.value)


def test_missing_sections_named(tmp_path):
    for key in ("master_seed", "net", "budgets", "paths"):
        config = base_config()
        del config[key]
        expect_error(tmp_path, config, key)


def test_missing_net_field_named(tmp_path):
    for key in ("m", "p", "n", "o", "h"):
        config = base_config()
        del config["net"][key]
        expect_error(tmp_path, config, f"net.{key}")


def test_maze_size_must_match_obs_width(tmp_path):
    config = base_config()
    config["net"]["m"] = 10
    expect_error(tmp_path, config, "maze")


def test_goal_index_must_fit_goal_width(tmp_path):
    config = base_config()
    config["tasks"][0]["goal_index"] = 9
    expect_error(tmp_path, config, "goal_index")


def test_duplicate_goal_indices_rejected(tmp_path):
    config = base_config()
    config["tasks"].append({
        "task_id": "b", "goal_index": 0,
        "maze": {"width": 3, "height": 3, "start": [0, 0], "goal_cell": [0, 2]},
    })
    expect_error(tmp_path, config, "tasks")


def test_bad_replay_mode_rejected(tmp_path):
    config = base_config()
    config["consolidation"] = {"replay": {"mode": "bogus"}}
    expect_error(tmp_path, config, "consolidation.replay.mode")


def test_bad_budget_unit_rejected(tmp_path):
    # a budget is a count of work; a wall-clock unit would make runs differ
    for unit in ("parsecs", "wall_seconds"):
        config = base_config()
        config["budgets"]["unit"] = unit
        expect_error(tmp_path, config, "budgets.unit")


def test_non_positive_budgets_rejected(tmp_path):
    config = base_config()
    config["budgets"]["c0"] = 0
    expect_error(tmp_path, config, "budgets.c0")
    config = base_config()
    config["budgets"]["lambda"] = -1
    expect_error(tmp_path, config, "budgets.lambda")


@pytest.mark.parametrize("field", ["c0", "dream_multiplier", "max_total_budget"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_budgets_config_rejects_non_positive_and_non_finite(field, value):
    # the loader's finite-number check, for a library caller too (a NaN
    # passes every `x <= 0` check, and a NaN budget used to double forever)
    settings = {"c0": 1.0, "dream_multiplier": 1.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        BudgetsConfig(**settings)


@pytest.mark.parametrize("cap", [0, -1])
def test_non_positive_max_steps_per_trial_rejected(tmp_path, cap):
    config = base_config()
    config["tasks"][0]["criterion"] = {"max_steps_per_trial": cap}
    expect_error(tmp_path, config, "tasks[0].criterion.max_steps_per_trial")


# the dream loss is the plain sum of its three terms, with no regularizer:
# each removed setting is an unknown key, even at its old default
REMOVED_CONSOLIDATION_KEYS = {"action_weight": 1.0, "pred_weight": 1.0, "return_weight": 1.0,
                              "reg_interval": 0, "reg_strength": 0.0, "reg_kind": "decay"}


@pytest.mark.parametrize("key", REMOVED_CONSOLIDATION_KEYS)
def test_removed_consolidation_keys_rejected(tmp_path, key):
    config = base_config()
    config["consolidation"] = {key: REMOVED_CONSOLIDATION_KEYS[key]}
    with pytest.raises(ConfigError) as exc:
        load_config(write(tmp_path, config))
    assert str(exc.value) == f"consolidation.{key}: unknown field"


@pytest.mark.parametrize("mode", ["all", "relevant_only"])
def test_replay_k_rejected_where_mode_ignores_it(tmp_path, mode):
    config = base_config()
    config["consolidation"] = {"replay": {"mode": mode, "k": 5}}
    expect_error(tmp_path, config, "consolidation.replay.k")


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_missing_file_reported(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")


def test_type_errors_named(tmp_path):
    config = base_config()
    config["net"]["h"] = "eight"
    expect_error(tmp_path, config, "net.h")
    config = base_config()
    config["tasks"][0]["maze"]["start"] = [0]
    expect_error(tmp_path, config, "start")


def _second_task(task_id="b", goal_index=1):
    return {"task_id": task_id, "goal_index": goal_index,
            "maze": {"width": 3, "height": 3, "start": [0, 0], "goal_cell": [0, 2]}}


@pytest.mark.parametrize("edit, fieldpath, message", [
    (lambda c: [c], "", "config root must be a JSON object"),
    (lambda c: {**c, "net": [9, 4, 1, 4, 8]}, "net", "must be an object"),
    (lambda c: {**c, "budgets": "cheap"}, "budgets", "must be an object"),
    (lambda c: {**c, "tasks": ["a"]}, "tasks[0]", "must be an object"),
    (lambda c: {**c, "tasks": [c["tasks"][0], 7]}, "tasks[1]", "must be an object"),
    (lambda c: {**c, "tasks": [{**c["tasks"][0], "maze": None}]}, "tasks[0].maze",
     "missing required section"),
    (lambda c: {**c, "tasks": [{**c["tasks"][0], "maze": [3, 3]}]}, "tasks[0].maze",
     "must be an object"),
    (lambda c: {**c, "tasks": []}, "tasks", "must be a non-empty list"),
    (lambda c: {**c, "tasks": {"a": c["tasks"][0]}}, "tasks", "must be a non-empty list"),
    (lambda c: {**c, "tasks": [c["tasks"][0], _second_task("a")]}, "tasks",
     "task_id values must be unique"),
    (lambda c: {**c, "net": {**c["net"], "n": 2}}, "net.n", "scalar reward"),
    (lambda c: {**c, "net": {**c["net"], "o": 3}}, "net.o", "at least 4 action units"),
    (lambda c: {**c, "tasks": [{**c["tasks"][0], "task_id": 7}]}, "tasks[0].task_id",
     "must be a string"),
    (lambda c: {**c, "budgets": {**c["budgets"], "unit": 1}}, "budgets.unit",
     "must be a string"),
    (lambda c: {**c, "paths": {**c["paths"], "trace_file": 0}}, "paths.trace_file",
     "must be a string"),
], ids=["root", "net", "budgets", "task", "second_task", "null_maze", "maze", "no_tasks",
        "tasks_object", "repeated_task_id", "net_n", "net_o", "task_id_number",
        "unit_number", "path_number"])
def test_malformed_structure_named_by_field(tmp_path, edit, fieldpath, message):
    with pytest.raises(ConfigError) as exc:
        load_config(write(tmp_path, edit(base_config())))
    assert exc.value.fieldpath == fieldpath
    assert message in str(exc.value)


def test_with_seed_overrides_master_and_net_seed(tmp_path):
    config = load_config(write(tmp_path, base_config()))
    reseeded = with_seed(config, 42)
    assert reseeded.master_seed == 42
    assert reseeded.net.seed == 42
    assert config.master_seed == 3  # original untouched


# every numeric field, as (section path, key, dotted name in the error)
NUMERIC_FIELDS = [
    ((), "master_seed", "master_seed"),
    *((("net",), key, f"net.{key}")
      for key in ("m", "p", "n", "o", "h", "micro_steps", "seed", "init_scale")),
    *((("tasks", 0, "maze"), key, f"tasks[0].maze.{key}")
      for key in ("width", "height", "step_reward", "goal_reward", "slip_prob")),
    *((("tasks", 0, "criterion"), key, f"tasks[0].criterion.{key}")
      for key in ("min_success_trials", "success_rate_threshold", "max_steps_per_trial")),
    *((("es",), key, f"es.{key}") for key in ("population", "sigma")),
    *((("budgets",), key, f"budgets.{key}")
      for key in ("c0", "lambda", "max_total_budget")),
    *((("consolidation",), key, f"consolidation.{key}")
      for key in ("base_lr", "momentum")),
    *((("consolidation", "replay"), key, f"consolidation.replay.{key}")
      for key in ("k", "rng_seed")),
]


# numeric keys the config no longer has: a value there, finite or not, is an error
# naming the field, never a silently ignored setting
REMOVED_NUMERIC_FIELDS = [
    (("tasks", 0, "maze"), "episode_cap", "tasks[0].maze.episode_cap"),
    (("budgets",), "dream_steps_per_unit", "budgets.dream_steps_per_unit"),
    *((("consolidation",), key, f"consolidation.{key}")
      for key in ("action_weight", "pred_weight", "return_weight", "reg_interval",
                  "reg_strength")),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("section,key,fieldpath", NUMERIC_FIELDS + REMOVED_NUMERIC_FIELDS,
                         ids=[f[2] for f in NUMERIC_FIELDS + REMOVED_NUMERIC_FIELDS])
def test_non_finite_numbers_rejected_by_field(tmp_path, section, key, fieldpath, value):
    config = base_config()
    config["tasks"][0]["criterion"] = {}
    config["es"] = {}
    config["consolidation"] = {"replay": {"mode": "recent", "k": 2}}
    target = config
    for part in section:
        target = target[part]
    target[key] = value
    path = write(tmp_path, config)
    assert ("NaN" if value != value else "Infinity") in path.read_text()
    expect_error(tmp_path, config, fieldpath)


# every field read with jsoncheck.NUMBER, as (section path, key, dotted name)
NUMBER_FIELDS = [
    (section, key, f"{path}.{key}")
    for section, path, table in [
        (("net",), "net", NET),
        (("tasks", 0, "maze"), "tasks[0].maze", config_module.MAZE),
        (("tasks", 0, "criterion"), "tasks[0].criterion", config_module.CRITERION),
        (("es",), "es", config_module.ES),
        (("budgets",), "budgets", config_module.BUDGETS),
        (("consolidation",), "consolidation", config_module.CONSOLIDATION),
    ]
    for key, (_, check) in table.items() if check in (NUMBER, config_module._float)
]


@pytest.mark.parametrize("section, key, fieldpath", NUMBER_FIELDS,
                         ids=[f[2] for f in NUMBER_FIELDS])
def test_integer_too_large_for_a_float_rejected_by_field(tmp_path, section, key, fieldpath):
    config = base_config()
    config["tasks"][0]["criterion"] = {}
    config["es"] = {}
    config["consolidation"] = {}
    target = config
    for part in section:
        target = target[part]
    target[key] = 10**400
    with pytest.raises(ConfigError, match="must fit in a float") as exc:
        load_config(write(tmp_path, config))
    assert str(exc.value).startswith(f"{fieldpath}: ")


# every field read with jsoncheck.INT or SEED, as (section path, key, dotted name)
INT_FIELDS = [((), "master_seed", "master_seed")] + [
    (section, key, f"{path}.{key}")
    for section, path, table in [
        (("net",), "net", NET),
        (("tasks", 0), "tasks[0]", config_module.TASK),
        (("tasks", 0, "maze"), "tasks[0].maze", config_module.MAZE),
        (("tasks", 0, "criterion"), "tasks[0].criterion", config_module.CRITERION),
        (("es",), "es", config_module.ES),
        (("consolidation",), "consolidation", config_module.CONSOLIDATION),
        (("consolidation", "replay"), "consolidation.replay", config_module.REPLAY),
    ]
    for key, (_, check) in table.items() if check in (INT, SEED)
]


@pytest.mark.parametrize("section, key, fieldpath", INT_FIELDS, ids=[f[2] for f in INT_FIELDS])
def test_integer_outside_64_bits_rejected_by_field(tmp_path, section, key, fieldpath):
    # 10**30 used to fail late: an overflow at net.h, or a run that never
    # ended at net.micro_steps or es.population
    config = base_config()
    config["tasks"][0]["criterion"] = {}
    config["es"] = {}
    config["consolidation"] = {"replay": {"mode": "recent", "k": 2}}
    target = config
    for part in section:
        target = target[part]
    target[key] = 10**30
    with pytest.raises(ConfigError, match="must fit in a signed 64-bit integer") as exc:
        load_config(write(tmp_path, config))
    assert str(exc.value).startswith(f"{fieldpath}: ")


@pytest.mark.parametrize("section, key, fieldpath", [
    ((), "master_seed", "master_seed"), (("net",), "seed", "net.seed"),
    (("consolidation", "replay"), "rng_seed", "consolidation.replay.rng_seed"),
], ids=["master_seed", "net.seed", "rng_seed"])
def test_negative_seed_rejected_by_field(tmp_path, section, key, fieldpath):
    # numpy takes no negative seed, and the replay seed is first drawn from at
    # the first dream, after the search: the loader rejects each one
    config = base_config()
    config["consolidation"] = {"replay": {}}
    target = config
    for part in section:
        target = target[part]
    target[key] = -1
    with pytest.raises(ConfigError) as exc:
        load_config(write(tmp_path, config))
    assert str(exc.value) == f"{fieldpath}: must be >= 0, got -1"


def test_int_check_bounds_are_the_signed_64_bit_range():
    for value in (2**63 - 1, -2**63, 0):
        assert INT(value, "x") == value
    for value in (2**63, -2**63 - 1):
        with pytest.raises(ConfigError, match="^x: must fit in a signed 64-bit integer"):
            INT(value, "x")


UNKNOWN_KEYS = [
    ((), "bogus", "bogus"),
    (("net",), "H", "net.H"),
    (("tasks", 0), "bogus", "tasks[0].bogus"),
    (("tasks", 0, "maze"), "colour", "tasks[0].maze.colour"),
    (("tasks", 0, "maze"), "episode_cap", "tasks[0].maze.episode_cap"),
    (("tasks", 0, "criterion"), "bogus", "tasks[0].criterion.bogus"),
    (("es",), "bogus", "es.bogus"),
    (("budgets",), "bogus", "budgets.bogus"),
    (("budgets",), "dream_steps_per_unit", "budgets.dream_steps_per_unit"),
    (("consolidation",), "base_Lr", "consolidation.base_Lr"),
    (("consolidation",), "use_variance_lr", "consolidation.use_variance_lr"),
    (("consolidation", "replay"), "bogus", "consolidation.replay.bogus"),
    (("paths",), "bogus", "paths.bogus"),
]


@pytest.mark.parametrize("section, key, fieldpath", UNKNOWN_KEYS,
                         ids=[f[2] for f in UNKNOWN_KEYS])
def test_unknown_key_rejected_at_every_level(tmp_path, section, key, fieldpath):
    # a misspelt field, or a removed one, must not silently mean the default
    config = base_config()
    config["tasks"][0]["criterion"] = {}
    config["es"] = {}
    config["consolidation"] = {"replay": {}}
    target = config
    for part in section:
        target = target[part]
    target[key] = 1
    with pytest.raises(ConfigError, match="unknown field") as exc:
        load_config(write(tmp_path, config))
    assert str(exc.value).startswith(f"{fieldpath}: ")
