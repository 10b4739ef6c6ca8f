"""Experiment configuration: a single JSON file with nested sections.

Required sections: master_seed, net, tasks, budgets, paths. Optional
sections with defaults: es, consolidation. Validation errors always name
the offending field by its dotted path (e.g. "net.h"); a key the schema does
not have is an error too, so a misspelt field never silently means its
default. Relative paths resolve against the config file's directory.

See the README for the full schema and a worked example.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .consolidate import ConsolidationConfig
from .envs import GridMazeSpec, SuccessCriterion, TaskDescription
from .evolve import BUDGET_UNITS, EsConfig
from .network import ACTIVATIONS, NetConfig
from .traces import REPLAY_MODES, ReplayPolicy


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
    dream_steps_per_unit: float = 1.0


@dataclass(frozen=True)
class PathsConfig:
    trace_file: Path
    metrics_file: Path
    checkpoint_dir: Path


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


def _known(section: dict, path: str, keys: tuple[str, ...]) -> None:
    for key in section:
        if key not in keys:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")


def _require(section: dict, key: str, path: str, types, what="value"):
    fieldpath = f"{path}.{key}" if path else key
    if key not in section:
        raise ConfigError(fieldpath, "missing required field")
    value = section[key]
    allowed = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
        raise ConfigError(fieldpath, f"must be a {what}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(fieldpath, f"must be a finite {what}, got {value}")
    return value


def _optional(section: dict, key: str, default, path: str, types, what="value"):
    if key not in section or section[key] is None:
        return default
    return _require(section, key, path, types, what)


def _section(raw: dict, key: str, required=True) -> dict:
    if key not in raw or raw[key] is None:
        if required:
            raise ConfigError(key, "missing required section")
        return {}
    if not isinstance(raw[key], dict):
        raise ConfigError(key, "must be an object")
    return raw[key]


def _cell(value, path: str) -> tuple[int, int]:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        raise ConfigError(path, "must be a [x, y] pair of integers")
    return (value[0], value[1])


def _parse_net(raw: dict, master_seed: int) -> NetConfig:
    net = _section(raw, "net")
    _known(net, "net", ("m", "p", "n", "o", "h", "micro_steps", "activation", "seed",
                        "init_scale"))
    kwargs = dict(
        obs_dim=_require(net, "m", "net", int, "positive integer"),
        goal_dim=_require(net, "p", "net", int, "positive integer"),
        reward_dim=_require(net, "n", "net", int, "positive integer"),
        action_dim=_require(net, "o", "net", int, "positive integer"),
        hidden_dim=_require(net, "h", "net", int, "positive integer"),
        micro_steps=_optional(net, "micro_steps", 1, "net", int, "positive integer"),
        activation=_optional(net, "activation", "tanh", "net", str, "string"),
        seed=_optional(net, "seed", master_seed, "net", int, "integer"),
        init_scale=_optional(net, "init_scale", 0.1, "net", (int, float), "number"),
    )
    if kwargs["activation"] not in ACTIVATIONS:
        raise ConfigError("net.activation", f"must be one of {ACTIVATIONS}")
    try:
        return NetConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError("net", str(exc)) from exc


def _parse_task(entry: dict, index: int, net: NetConfig) -> TaskDescription:
    path = f"tasks[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(path, "must be an object")
    _known(entry, path, ("task_id", "goal_index", "maze", "criterion"))
    task_id = _require(entry, "task_id", path, str, "string")
    goal_index = _require(entry, "goal_index", path, int, "integer")
    maze = entry.get("maze")
    if not isinstance(maze, dict):
        raise ConfigError(f"{path}.maze", "missing required section")
    mpath = f"{path}.maze"
    _known(maze, mpath, ("width", "height", "start", "goal_cell", "step_reward",
                         "goal_reward", "episode_cap", "slip_prob"))
    try:
        spec = GridMazeSpec(
            width=_require(maze, "width", mpath, int, "positive integer"),
            height=_require(maze, "height", mpath, int, "positive integer"),
            start=_cell(_require(maze, "start", mpath, (list, tuple), "pair"), f"{mpath}.start"),
            goal_cell=_cell(_require(maze, "goal_cell", mpath, (list, tuple), "pair"),
                            f"{mpath}.goal_cell"),
            step_reward=_optional(maze, "step_reward", -0.01, mpath, (int, float), "number"),
            goal_reward=_optional(maze, "goal_reward", 1.0, mpath, (int, float), "number"),
            episode_cap=_optional(maze, "episode_cap", None, mpath, int, "integer"),
            slip_prob=_optional(maze, "slip_prob", 0.0, mpath, (int, float), "number"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(mpath, str(exc)) from exc
    crit_raw = entry.get("criterion") or {}
    cpath = f"{path}.criterion"
    if not isinstance(crit_raw, dict):
        raise ConfigError(cpath, "must be an object")
    _known(crit_raw, cpath, ("min_success_trials", "success_rate_threshold",
                             "max_steps_per_trial"))
    try:
        criterion = SuccessCriterion(
            min_success_trials=_optional(crit_raw, "min_success_trials", 1, cpath, int,
                                         "positive integer"),
            success_rate_threshold=_optional(crit_raw, "success_rate_threshold", 1.0, cpath,
                                             (int, float), "number"),
            max_steps_per_trial=_optional(crit_raw, "max_steps_per_trial", None, cpath, int,
                                          "integer"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(cpath, str(exc)) from exc

    if spec.width * spec.height != net.obs_dim:
        raise ConfigError(f"{mpath}", f"maze has {spec.width * spec.height} cells "
                                      f"but net.m is {net.obs_dim}")
    if net.reward_dim != 1:
        raise ConfigError("net.n", "maze tasks use a scalar reward (net.n must be 1)")
    if net.action_dim < 4:
        raise ConfigError("net.o", "maze tasks need at least 4 action units")
    if not (0 <= goal_index < net.goal_dim):
        raise ConfigError(f"{path}.goal_index",
                          f"must be in [0, net.p={net.goal_dim})")
    try:
        return TaskDescription(task_id=task_id, goal_index=goal_index, env_spec=spec,
                               criterion=criterion)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_es(raw: dict) -> EsConfig:
    es = _section(raw, "es", required=False)
    _known(es, "es", ("population", "sigma", "elitism"))
    try:
        return EsConfig(
            population=_optional(es, "population", 8, "es", int, "positive integer"),
            sigma=_optional(es, "sigma", 0.2, "es", (int, float), "number"),
            elitism=_optional(es, "elitism", True, "es", bool, "boolean"),
            seed=0,
        )
    except ValueError as exc:
        raise ConfigError("es", str(exc)) from exc


def _parse_budgets(raw: dict) -> BudgetsConfig:
    b = _section(raw, "budgets")
    _known(b, "budgets", ("c0", "lambda", "unit", "max_total_budget", "dream_steps_per_unit"))
    unit = _optional(b, "unit", "env_steps", "budgets", str, "string")
    if unit not in BUDGET_UNITS:
        raise ConfigError("budgets.unit", f"must be one of {BUDGET_UNITS}")
    c0 = _require(b, "c0", "budgets", (int, float), "positive number")
    lam = _require(b, "lambda", "budgets", (int, float), "positive number")
    if c0 <= 0:
        raise ConfigError("budgets.c0", "must be positive")
    if lam <= 0:
        raise ConfigError("budgets.lambda", "must be positive")
    max_total = _optional(b, "max_total_budget", None, "budgets", (int, float), "number")
    if max_total is not None and max_total <= 0:
        raise ConfigError("budgets.max_total_budget", "must be positive when set")
    per_unit = _optional(b, "dream_steps_per_unit", 1.0, "budgets", (int, float), "number")
    if per_unit <= 0:
        raise ConfigError("budgets.dream_steps_per_unit", "must be positive")
    return BudgetsConfig(c0=float(c0), dream_multiplier=float(lam), unit=unit,
                         max_total_budget=max_total, dream_steps_per_unit=float(per_unit))


def _parse_consolidation(raw: dict) -> tuple[ConsolidationConfig, ReplayPolicy]:
    c = _section(raw, "consolidation", required=False)
    _known(c, "consolidation", ("base_lr", "momentum", "action_weight", "pred_weight",
                                "return_weight", "reg_interval", "reg_strength", "reg_kind",
                                "replay"))
    replay_raw = c.get("replay") or {}
    if not isinstance(replay_raw, dict):
        raise ConfigError("consolidation.replay", "must be an object")
    _known(replay_raw, "consolidation.replay", ("mode", "k", "rng_seed"))
    mode = _optional(replay_raw, "mode", "relevant_only", "consolidation.replay", str, "string")
    if mode not in REPLAY_MODES:
        raise ConfigError("consolidation.replay.mode", f"must be one of {REPLAY_MODES}")
    try:
        replay = ReplayPolicy(
            mode=mode,
            k=_optional(replay_raw, "k", None, "consolidation.replay", int, "integer"),
            rng_seed=_optional(replay_raw, "rng_seed", 0, "consolidation.replay", int, "integer"),
        )
    except ValueError as exc:
        raise ConfigError("consolidation.replay", str(exc)) from exc
    try:
        cfg = ConsolidationConfig(
            base_lr=_optional(c, "base_lr", 0.005, "consolidation", (int, float), "number"),
            momentum=_optional(c, "momentum", 0.9, "consolidation", (int, float), "number"),
            action_weight=_optional(c, "action_weight", 1.0, "consolidation", (int, float), "number"),
            pred_weight=_optional(c, "pred_weight", 1.0, "consolidation", (int, float), "number"),
            return_weight=_optional(c, "return_weight", 1.0, "consolidation", (int, float), "number"),
            reg_interval=_optional(c, "reg_interval", 0, "consolidation", int, "integer"),
            reg_strength=_optional(c, "reg_strength", 0.0, "consolidation", (int, float), "number"),
            reg_kind=_optional(c, "reg_kind", "decay", "consolidation", str, "string"),
        )
    except ValueError as exc:
        raise ConfigError("consolidation", str(exc)) from exc
    return cfg, replay


def _parse_paths(raw: dict, base_dir: Path) -> PathsConfig:
    p = _section(raw, "paths")
    _known(p, "paths", ("trace_file", "metrics_file", "checkpoint_dir"))
    trace = _require(p, "trace_file", "paths", str, "path string")
    metrics = _require(p, "metrics_file", "paths", str, "path string")
    ckpt = _require(p, "checkpoint_dir", "paths", str, "path string")
    resolved = [base_dir / trace, base_dir / metrics, base_dir / ckpt]
    if len({str(r) for r in resolved}) != 3:
        raise ConfigError("paths", "trace_file, metrics_file and checkpoint_dir must differ")
    return PathsConfig(*resolved)


def parse_config(raw: dict, base_dir: Path) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("", "config root must be a JSON object")
    _known(raw, "", ("master_seed", "net", "tasks", "es", "budgets", "consolidation", "paths"))
    master_seed = _require(raw, "master_seed", "", int, "integer")
    net = _parse_net(raw, master_seed)
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
    consolidation, replay = _parse_consolidation(raw)
    return ExperimentConfig(
        master_seed=master_seed,
        net=net,
        tasks=tasks,
        es=_parse_es(raw),
        budgets=_parse_budgets(raw),
        consolidation=consolidation,
        replay=replay,
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
    from dataclasses import replace

    net = replace(config.net, seed=seed)
    return replace(config, master_seed=seed, net=net)
