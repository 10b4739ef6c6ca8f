"""Experiment configuration: a single JSON file with nested sections.

Required sections: master_seed, net, tasks, budgets, paths; es and
consolidation are optional. Each section fills a dataclass that lives with
the code it configures (`curriculum.BudgetsConfig` for budgets); only
`PathsConfig` and `ExperimentConfig` live here. Each is read through one
table (JSON key -> dataclass field and accepted JSON type) by
`jsoncheck.fill`, which also reads the checkpoint and trace-file headers:
the keys present are type-checked and passed to the dataclass, so an omitted
key takes the dataclass's own default (net.seed defaults to master_seed).
Validation errors always name the offending field by its dotted path (e.g.
"net.h"); a key the table does not have is an error too, so a misspelt field
never silently means its default. Relative paths resolve against the config
file's directory.

See the README for the full schema and a worked example.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

from .consolidate import ConsolidationConfig
from .curriculum import BudgetsConfig
from .envs import GridMazeSpec, SuccessCriterion, TaskDescription
from .evolve import EsConfig
from .jsoncheck import BOOL, INT, NUMBER, SEED, STRING, ConfigError, fill, is_json_int, join, known
from .network import NET, NetConfig
from .traces import ReplayPolicy


FINAL_CHECKPOINT = "final.ckpt"


@dataclass(frozen=True)
class PathsConfig:
    trace_file: Path
    metrics_file: Path
    checkpoint_dir: Path

    def __post_init__(self):
        # "a/x" and "a/../a/x" are one path; realpath leaves a symlink loop to fail at open
        if len(set(map(os.path.realpath, vars(self).values()))) != 3:
            raise ValueError("trace_file, metrics_file and checkpoint_dir must differ")
        # the final checkpoint and atomic_write's temp file would overwrite either file
        for name in (FINAL_CHECKPOINT, FINAL_CHECKPOINT + ".tmp"):
            taken = os.path.realpath(self.checkpoint_dir / name)
            for field in ("trace_file", "metrics_file"):
                if os.path.realpath(getattr(self, field)) == taken:
                    raise ValueError(f"{field} must not be checkpoint_dir/{name}, "
                                     f"which the final checkpoint overwrites")

    @property
    def checkpoint_file(self) -> Path:
        return self.checkpoint_dir / FINAL_CHECKPOINT


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


def _float(value, fieldpath: str) -> float:
    return float(NUMBER(value, fieldpath))


def _cell(value, fieldpath: str) -> tuple[int, int]:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(map(is_json_int, value))):
        raise ConfigError(fieldpath, "must be a [x, y] pair of integers")
    return (value[0], value[1])


def _same(**checks) -> dict:
    """Table entries whose JSON key is the dataclass field's name."""
    return {key: (key, check) for key, check in checks.items()}


# each section's table: JSON key -> (dataclass field, check of the JSON value)
# (net's table is network.NET, shared with the checkpoint header)
TASK = _same(task_id=STRING, goal_index=INT)
MAZE = _same(width=INT, height=INT, start=_cell, goal_cell=_cell, step_reward=NUMBER,
             goal_reward=NUMBER, slip_prob=NUMBER)
CRITERION = _same(min_success_trials=INT, success_rate_threshold=NUMBER,
                  max_steps_per_trial=INT)
ES = _same(population=INT, sigma=NUMBER, elitism=BOOL)
BUDGETS = {"c0": ("c0", _float), "lambda": ("dream_multiplier", _float),
           **_same(unit=STRING, max_total_budget=NUMBER)}
CONSOLIDATION = _same(base_lr=NUMBER, momentum=NUMBER)
REPLAY = _same(mode=STRING, k=INT, rng_seed=SEED)
PATHS = ("trace_file", "metrics_file", "checkpoint_dir")


def _section(parent: dict, key: str, path: str, required=True) -> dict:
    fieldpath = join(path, key)
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
    task = fill(
        TaskDescription, _without(entry, "maze", "criterion"), path, TASK,
        env_spec=fill(GridMazeSpec, _section(entry, "maze", path), f"{path}.maze", MAZE),
        criterion=fill(SuccessCriterion, _section(entry, "criterion", path, required=False),
                       f"{path}.criterion", CRITERION),
    )
    check_task_fits_net(task, net, path)
    return task


def _parse_paths(raw: dict, base_dir: Path) -> PathsConfig:
    def resolve(value, fieldpath: str) -> Path:
        return base_dir / STRING(value, fieldpath)

    return fill(PathsConfig, _section(raw, "paths", ""), "paths",
                {key: (key, resolve) for key in PATHS})


def parse_config(raw: dict, base_dir: Path) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("", "config root must be a JSON object")
    known(raw, "", ("master_seed", "net", "tasks", "es", "budgets", "consolidation", "paths"))
    if "master_seed" not in raw:
        raise ConfigError("master_seed", "missing required field")
    master_seed = SEED(raw["master_seed"], "master_seed")
    net = fill(NetConfig, _section(raw, "net", ""), "net", NET, seed=master_seed)
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
        es=fill(EsConfig, _section(raw, "es", "", required=False), "es", ES),
        budgets=fill(BudgetsConfig, _section(raw, "budgets", ""), "budgets", BUDGETS),
        consolidation=fill(ConsolidationConfig, _without(consolidation, "replay"),
                           "consolidation", CONSOLIDATION),
        replay=fill(ReplayPolicy,
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
    except OSError as exc:
        raise ConfigError("", f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("", f"config file {path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"config is not valid JSON: {exc}") from exc
    return parse_config(raw, path.parent)


def with_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """A copy of the config with master_seed (and the net seed) overridden."""
    net = replace(config.net, seed=seed)
    return replace(config, master_seed=seed, net=net)
