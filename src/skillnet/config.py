"""Experiment configuration: a single JSON file with nested sections.

Required sections: master_seed, net, tasks, budgets, paths; es and
consolidation are optional. Each section is read through one table (JSON
key -> dataclass field and accepted JSON type): the keys present are
type-checked and passed to the dataclass, so an omitted key takes the
dataclass's own default (net.seed defaults to master_seed). Validation
errors always name the offending field by its dotted path (e.g. "net.h"); a
key the table does not have is an error too, so a misspelt field never
silently means its default. Relative paths resolve against the config
file's directory.

See the README for the full schema and a worked example.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .consolidate import ConsolidationConfig
from .envs import GridMazeSpec, SuccessCriterion, TaskDescription
from .evolve import BUDGET_UNITS, EsConfig
from .network import NET_KEYS, NetConfig
from .traces import ReplayPolicy


class ConfigError(ValueError):
    """Configuration problem; the message names the dotted field path."""

    def __init__(self, fieldpath: str, message: str):
        super().__init__(f"{fieldpath}: {message}")
        self.fieldpath = fieldpath


@dataclass(frozen=True)
class BudgetsConfig:
    c0: float
    dream_multiplier: float
    unit: str = "env_steps"
    max_total_budget: float | None = None

    def __post_init__(self):
        for name in ("c0", "dream_multiplier"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.unit not in BUDGET_UNITS:
            raise ValueError(f"unit must be one of {BUDGET_UNITS}")
        if self.max_total_budget is not None and self.max_total_budget <= 0:
            raise ValueError("max_total_budget must be positive when set")


@dataclass(frozen=True)
class PathsConfig:
    trace_file: Path
    metrics_file: Path
    checkpoint_dir: Path

    def __post_init__(self):
        if len({self.trace_file, self.metrics_file, self.checkpoint_dir}) != 3:
            raise ValueError("trace_file, metrics_file and checkpoint_dir must differ")


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int
    net: NetConfig
    tasks: tuple[TaskDescription, ...]
    es: EsConfig
    budgets: BudgetsConfig
    consolidation: ConsolidationConfig
    replay: ReplayPolicy
    paths: PathsConfig


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _typed(types: tuple, what: str):
    """A check that a JSON value has one of `types` (a bool counts only as
    bool) and is finite; it returns the value."""
    def check(value, fieldpath: str):
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise ConfigError(fieldpath, f"must be {what}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(fieldpath, f"must be a finite number, got {value}")
        return value
    return check


_int = _typed((int,), "an integer")
_number = _typed((int, float), "a number")
_string = _typed((str,), "a string")
_bool = _typed((bool,), "a boolean")


def _float(value, fieldpath: str) -> float:
    return float(_number(value, fieldpath))


def _cell(value, fieldpath: str) -> tuple[int, int]:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        raise ConfigError(fieldpath, "must be a [x, y] pair of integers")
    return (value[0], value[1])


def _same(**checks) -> dict:
    """Table entries whose JSON key is the dataclass field's name."""
    return {key: (key, check) for key, check in checks.items()}


# each section's table: JSON key -> (dataclass field, check of the JSON value)
# net: the checkpoint header's keys, all integers but activation and init_scale
NET = {key: (name, {"activation": _string, "init_scale": _number}.get(key, _int))
       for key, name in NET_KEYS.items()}
TASK = _same(task_id=_string, goal_index=_int)
MAZE = _same(width=_int, height=_int, start=_cell, goal_cell=_cell, step_reward=_number,
             goal_reward=_number, slip_prob=_number)
CRITERION = _same(min_success_trials=_int, success_rate_threshold=_number,
                  max_steps_per_trial=_int)
ES = _same(population=_int, sigma=_number, elitism=_bool)
BUDGETS = {"c0": ("c0", _float), "lambda": ("dream_multiplier", _float),
           **_same(unit=_string, max_total_budget=_number)}
CONSOLIDATION = _same(base_lr=_number, momentum=_number, action_weight=_number,
                      pred_weight=_number, return_weight=_number, reg_interval=_int,
                      reg_strength=_number, reg_kind=_string)
REPLAY = _same(mode=_string, k=_int, rng_seed=_int)
PATHS = ("trace_file", "metrics_file", "checkpoint_dir")


def _known(section: dict, path: str, keys) -> None:
    for key in section:
        if key not in keys:
            raise ConfigError(_join(path, key), "unknown field")


def _fill(cls, section: dict, path: str, table: dict, **given):
    """cls built from `given` and the keys of `section` present in `table`,
    each checked; a key that is absent or null takes cls's default. A
    ValueError from cls names the key whose field its message starts with."""
    _known(section, path, table)
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    kwargs = dict(given)
    for key, (name, check) in table.items():
        if section.get(key) is not None:
            kwargs[name] = check(section[key], _join(path, key))
        elif name in required and name not in kwargs:
            raise ConfigError(_join(path, key), "missing required field")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        message = str(exc)
        for key, (name, _) in table.items():
            if message.startswith(f"{name} "):
                raise ConfigError(_join(path, key), message[len(name) + 1:]) from None
        raise ConfigError(path, message) from None


def _section(parent: dict, key: str, path: str, required=True) -> dict:
    fieldpath = _join(path, key)
    if parent.get(key) is None:
        if required:
            raise ConfigError(fieldpath, "missing required section")
        return {}
    if not isinstance(parent[key], dict):
        raise ConfigError(fieldpath, "must be an object")
    return parent[key]


def _without(section: dict, *keys: str) -> dict:
    return {k: v for k, v in section.items() if k not in keys}


def check_task_fits_net(task: TaskDescription, net: NetConfig, path: str) -> None:
    """Raise ConfigError unless `net` can run the maze task configured at
    `path` (e.g. "tasks[0]")."""
    spec = task.env_spec
    if spec.width * spec.height != net.obs_dim:
        raise ConfigError(f"{path}.maze", f"maze has {spec.width * spec.height} cells "
                                          f"but net.m is {net.obs_dim}")
    if net.reward_dim != 1:
        raise ConfigError("net.n", "maze tasks use a scalar reward (net.n must be 1)")
    if net.action_dim < 4:
        raise ConfigError("net.o", "maze tasks need at least 4 action units")
    if not (0 <= task.goal_index < net.goal_dim):
        raise ConfigError(f"{path}.goal_index", f"must be in [0, net.p={net.goal_dim})")


def _parse_task(entry, index: int, net: NetConfig) -> TaskDescription:
    path = f"tasks[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(path, "must be an object")
    task = _fill(
        TaskDescription, _without(entry, "maze", "criterion"), path, TASK,
        env_spec=_fill(GridMazeSpec, _section(entry, "maze", path), f"{path}.maze", MAZE),
        criterion=_fill(SuccessCriterion, _section(entry, "criterion", path, required=False),
                        f"{path}.criterion", CRITERION),
    )
    check_task_fits_net(task, net, path)
    return task


def _parse_paths(raw: dict, base_dir: Path) -> PathsConfig:
    def resolve(value, fieldpath: str) -> Path:
        return base_dir / _string(value, fieldpath)

    return _fill(PathsConfig, _section(raw, "paths", ""), "paths",
                 {key: (key, resolve) for key in PATHS})


def parse_config(raw: dict, base_dir: Path) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("", "config root must be a JSON object")
    _known(raw, "", ("master_seed", "net", "tasks", "es", "budgets", "consolidation", "paths"))
    if "master_seed" not in raw:
        raise ConfigError("master_seed", "missing required field")
    master_seed = _int(raw["master_seed"], "master_seed")
    net = _fill(NetConfig, _section(raw, "net", ""), "net", NET, seed=master_seed)
    tasks_raw = raw.get("tasks")
    if not isinstance(tasks_raw, list) or not tasks_raw:
        raise ConfigError("tasks", "must be a non-empty list")
    tasks = tuple(_parse_task(t, i, net) for i, t in enumerate(tasks_raw))
    ids = [t.task_id for t in tasks]
    if len(set(ids)) != len(ids):
        raise ConfigError("tasks", "task_id values must be unique")
    goal_indices = [t.goal_index for t in tasks]
    if len(set(goal_indices)) != len(goal_indices):
        raise ConfigError("tasks", "goal_index values must be unique")
    consolidation = _section(raw, "consolidation", "", required=False)
    return ExperimentConfig(
        master_seed=master_seed,
        net=net,
        tasks=tasks,
        es=_fill(EsConfig, _section(raw, "es", "", required=False), "es", ES),
        budgets=_fill(BudgetsConfig, _section(raw, "budgets", ""), "budgets", BUDGETS),
        consolidation=_fill(ConsolidationConfig, _without(consolidation, "replay"),
                            "consolidation", CONSOLIDATION),
        replay=_fill(ReplayPolicy,
                     _section(consolidation, "replay", "consolidation", required=False),
                     "consolidation.replay", REPLAY),
        paths=_parse_paths(raw, base_dir),
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError("", f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"config is not valid JSON: {exc}") from exc
    return parse_config(raw, path.parent)


def with_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """A copy of the config with master_seed (and the net seed) overridden."""
    net = replace(config.net, seed=seed)
    return replace(config, master_seed=seed, net=net)
