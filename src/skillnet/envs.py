"""Task abstraction and built-in benchmark environments.

A task couples an environment spec with a unique one-hot goal encoding and a
success criterion. The built-in benchmark is a grid maze with corner-goal
tasks; an action-slip probability turns it stochastic.

Environments are duck-typed: a spec with `build()` (and optionally
`episode_cap` and `deterministic`) whose environment has `reset(seed)` and
`step(action)`, each returning an Observation, works; its reward may have
any number of channels. Rollouts step a task's episodes in lockstep through
`make_env_batch`: a maze through the vectorized `GridMazeBatch`, any other
environment through `EnvBatch`, which steps one single-episode environment
per episode; `lone_step` steps the last live episode of either alone. The
maze bumps the module-level `step_counter` on every transition, which lets
tests prove that consolidation never touches an environment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np


class StepCounter:
    """Global transition counter used to instrument environment contact."""

    def __init__(self):
        self.count = 0


step_counter = StepCounter()

# direction order for action decoding: argmax over the first four action
# units, ties broken by lowest index
DIRECTIONS = ("N", "E", "S", "W")
_MOVES = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}


@dataclass
class Observation:
    """What the environment hands the network at the start of a step."""

    obs: np.ndarray
    reward: np.ndarray
    done: bool
    reached: bool = False


@dataclass(frozen=True)
class SuccessCriterion:
    """User-given bar for calling a task solved: of the K most recent
    evaluation trials, at least a fraction rho must reach the goal."""

    min_success_trials: int = 1
    success_rate_threshold: float = 1.0
    max_steps_per_trial: int | None = None

    def __post_init__(self):
        if self.min_success_trials < 1:
            raise ValueError(f"min_success_trials must be >= 1, got {self.min_success_trials}")
        if not (0.0 < self.success_rate_threshold <= 1.0):
            raise ValueError(
                f"success_rate_threshold must be in (0, 1], got {self.success_rate_threshold}"
            )
        if self.max_steps_per_trial is not None and self.max_steps_per_trial < 1:
            raise ValueError(f"max_steps_per_trial must be >= 1, got {self.max_steps_per_trial}")


@dataclass(frozen=True)
class GridMazeSpec:
    """A rectangular maze: one-hot cell observations, four movement actions,
    a step penalty and a terminal goal bonus. slip_prob > 0 replaces the
    chosen direction with a uniformly random one."""

    width: int
    height: int
    start: tuple[int, int]
    goal_cell: tuple[int, int]
    step_reward: float = -0.01
    goal_reward: float = 1.0
    episode_cap: int | None = None
    slip_prob: float = 0.0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("maze must be at least 1x1")
        for name in ("start", "goal_cell"):
            x, y = getattr(self, name)
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"{name} {(x, y)} is outside the {self.width}x{self.height} grid")
        if tuple(self.start) == tuple(self.goal_cell):
            raise ValueError("goal_cell must differ from start")
        for name in ("step_reward", "goal_reward"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 <= self.slip_prob <= 1.0):
            raise ValueError(f"slip_prob must be in [0, 1], got {self.slip_prob}")
        if self.episode_cap is not None and self.episode_cap < 1:
            raise ValueError("episode_cap must be >= 1")

    @property
    def effective_cap(self) -> int:
        return self.episode_cap if self.episode_cap is not None else 4 * self.width * self.height

    @property
    def deterministic(self) -> bool:
        return self.slip_prob == 0.0

    def build(self) -> "GridMaze":
        return GridMaze(self)


# rollouts step mazes through GridMazeBatch; this single-episode form stays
# because the benchmark's tracer wraps its `step` and tests use it as the reference
class GridMaze:
    """The maze environment. Cell (x, y) maps to one-hot index y * width + x;
    north is +y, east is +x. Blocked moves leave the agent in place."""

    def __init__(self, spec: GridMazeSpec):
        self.spec = spec
        self.obs_dim = spec.width * spec.height
        self.reward_dim = 1
        self.deterministic = spec.deterministic
        self._pos = None
        self._steps = 0
        self._done = True
        self._rng = None

    def _observe(self, reward: float, reached: bool) -> Observation:
        onehot = np.zeros(self.obs_dim)
        x, y = self._pos
        onehot[y * self.spec.width + x] = 1.0
        return Observation(
            obs=onehot, reward=np.array([reward]), done=self._done, reached=reached
        )

    def reset(self, seed: int = 0) -> Observation:
        self._pos = tuple(self.spec.start)
        self._steps = 0
        self._done = False
        self._rng = np.random.default_rng(seed)
        return self._observe(0.0, reached=False)

    def step(self, action: np.ndarray) -> Observation:
        if self._done:
            raise RuntimeError("episode is finished; call reset first")
        action = np.asarray(action)
        if action.shape[0] < 4:
            raise ValueError("maze actions need at least 4 action units")
        step_counter.count += 1
        d = int(np.argmax(action[:4]))
        if self.spec.slip_prob > 0.0 and self._rng.random() < self.spec.slip_prob:
            d = int(self._rng.integers(4))
        dx, dy = _MOVES[DIRECTIONS[d]]
        x, y = self._pos
        nx, ny = x + dx, y + dy
        if 0 <= nx < self.spec.width and 0 <= ny < self.spec.height:
            self._pos = (nx, ny)
        self._steps += 1
        reached = self._pos == tuple(self.spec.goal_cell)
        reward = self.spec.goal_reward if reached else self.spec.step_reward
        self._done = reached or self._steps >= self.spec.effective_cap
        return self._observe(reward, reached)


@lru_cache(maxsize=64)
def _maze_tables(width: int, height: int, goal: int, rewards: bytes, goal_input: bytes):
    """A maze's read-only tables: next cell per (cell, direction) as an array
    and as tuples, sense row per cell and its reward. Floats come as bytes,
    so 0.0 and -0.0 get tables of their own."""
    n_cells = width * height
    cells = np.arange(n_cells)
    xs, ys = cells % width, cells // width
    next_cell = np.empty((n_cells, len(DIRECTIONS)), dtype=np.intp)
    for d, name in enumerate(DIRECTIONS):
        dx, dy = _MOVES[name]
        nx, ny = xs + dx, ys + dy
        inside = (nx >= 0) & (nx < width) & (ny >= 0) & (ny < height)
        next_cell[:, d] = np.where(inside, ny * width + nx, cells)
    step_reward, goal_reward = np.frombuffer(rewards)
    goal_input = np.frombuffer(goal_input)
    rows = np.zeros((n_cells, n_cells + len(goal_input) + 1))
    rows[cells, cells] = 1.0
    rows[:, n_cells:-1] = goal_input
    rows[:, -1] = step_reward
    rows[goal, -1] = goal_reward
    next_cell.setflags(write=False)
    rows.setflags(write=False)
    return next_cell, tuple(map(tuple, next_cell.tolist())), rows, tuple(rows[:, -1].tolist())


class GridMazeBatch:
    """Lockstep episodes of one maze, one per seed, each bit for bit the
    episode GridMaze runs with that seed; `cap`, when given, replaces the
    spec's episode cap.

    Episodes are cell indices in an int array. A step is one argmax over the
    first four action units and two table lookups: the next cell for each
    (cell, direction) and the net's sense row [one-hot cell | goal | reward]
    for each cell (`sense_rows`). The tables are built once per maze and
    goal input and shared read-only by every batch; a caller checks the
    senses once by checking `sense_rows`. Slip draws come from one
    default_rng(seed) per episode, in GridMaze.step's order. Once one
    episode is left, `lone_step` steps it on Python ints.
    """

    def __init__(self, spec: GridMazeSpec, goal: np.ndarray, seeds, cap: int | None = None):
        width = spec.width
        self._goal = spec.goal_cell[1] * width + spec.goal_cell[0]
        self._next, self._next_tuples, self.sense_rows, self._rewards = _maze_tables(
            width, spec.height, self._goal,
            np.array([spec.step_reward, spec.goal_reward], dtype=np.float64).tobytes(),
            np.asarray(goal, dtype=np.float64).tobytes())
        self._start = spec.start[1] * width + spec.start[0]
        self.cap = spec.effective_cap if cap is None else cap
        self._slip = spec.slip_prob
        self._seeds = list(seeds)
        self._cells = self._steps = self._rngs = None

    def reset(self):
        """(senses, rewards, done, reached) at the start of every episode."""
        n = len(self._seeds)
        self._cells = np.full(n, self._start)
        self._steps = 0
        self._rngs = [np.random.default_rng(s) for s in self._seeds] if self._slip > 0 else []
        senses = self.sense_rows[self._cells]
        senses[:, -1] = 0.0
        return senses, senses[:, -1], np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)

    def step(self, actions: np.ndarray):
        """Advance every live episode by its row of `actions` (at least four
        action units each)."""
        step_counter.count += len(actions)
        d = actions[:, :4].argmax(axis=1)
        for j, rng in enumerate(self._rngs):
            if rng.random() < self._slip:
                d[j] = rng.integers(4)
        self._cells = self._next[self._cells, d]
        self._steps += 1
        reached = self._cells == self._goal
        done = reached if self._steps < self.cap else np.ones(len(d), dtype=bool)
        senses = self.sense_rows.take(self._cells, axis=0)
        return senses, senses[:, -1], done, reached

    def keep(self, mask: np.ndarray) -> None:
        """Drop the episodes whose entry in `mask` is False."""
        self._cells = self._cells[mask]
        self._rngs = [rng for rng, k in zip(self._rngs, mask) if k]

    def lone_step(self):
        """A function that advances the one live episode by an action and
        returns its (sense, reward, done, reached) as a read-only row of
        `sense_rows`, a float and two bools."""
        cell, steps = int(self._cells[0]), self._steps
        rng = self._rngs[0] if self._rngs else None
        next_cell, rows, rewards = self._next_tuples, self.sense_rows, self._rewards
        goal, cap, slip = self._goal, self.cap, self._slip

        def step(action):
            nonlocal cell, steps
            step_counter.count += 1
            d = int(action[:4].argmax())
            if rng is not None and rng.random() < slip:
                d = int(rng.integers(4))
            cell = next_cell[cell][d]
            steps += 1
            reached = cell == goal
            return rows[cell], rewards[cell], reached or steps >= cap, reached
        return step


class EnvBatch:
    """Lockstep episodes over single-episode environments, one per seed:
    the path for every environment that has no vectorized form. It has no
    step limit of its own (`cap` is None)."""

    cap = None

    def __init__(self, envs, goal: np.ndarray, seeds):
        self._envs = list(envs)
        self._goal = goal
        self._seeds = list(seeds)

    def _one(self, ob):
        return (np.concatenate([ob.obs, self._goal, ob.reward]), float(ob.reward.sum()),
                bool(ob.done), bool(ob.reached))

    def _collect(self, observations):
        senses, rewards, done, reached = zip(*map(self._one, observations))
        return (np.array(senses, dtype=np.float64), list(rewards),
                np.array(done, dtype=bool), np.array(reached, dtype=bool))

    def reset(self):
        """(senses, rewards, done, reached) at the start of every episode."""
        return self._collect([env.reset(seed=seed)
                              for env, seed in zip(self._envs, self._seeds)])

    def step(self, actions: np.ndarray):
        """Advance every live episode by its row of `actions`."""
        return self._collect([env.step(a) for env, a in zip(self._envs, actions)])

    def keep(self, mask: np.ndarray) -> None:
        """Drop the episodes whose entry in `mask` is False."""
        self._envs = [env for env, k in zip(self._envs, mask) if k]

    def lone_step(self):
        """A function that advances the one live episode by an action and
        returns its (sense, reward, done, reached)."""
        env = self._envs[0]
        return lambda action: self._one(env.step(action))


@dataclass(frozen=True)
class TaskDescription:
    """A control task: environment, unique goal-input slot, success bar."""

    task_id: str
    goal_index: int
    env_spec: object
    criterion: SuccessCriterion

    def __post_init__(self):
        if self.goal_index < 0:
            raise ValueError(f"goal_index must be >= 0, got {self.goal_index}")


def goal_encoding(task: TaskDescription, goal_dim: int) -> np.ndarray:
    """The task's constant one-hot goal input vector."""
    if not (0 <= task.goal_index < goal_dim):
        raise ValueError(
            f"goal_index {task.goal_index} out of range for goal_dim {goal_dim}"
        )
    vec = np.zeros(goal_dim)
    vec[task.goal_index] = 1.0
    return vec


def make_env(task: TaskDescription):
    """Build the task's environment, applying any per-trial step limit from
    the success criterion as the episode cap."""
    spec, cap = task.env_spec, task.criterion.max_steps_per_trial
    if cap is not None and hasattr(spec, "episode_cap"):
        spec = replace(spec, episode_cap=cap)
    return spec.build()


def make_env_batch(task: TaskDescription, goal: np.ndarray, seeds):
    """Lockstep episodes of the task's environment, one per seed: a
    GridMazeBatch for a maze, an EnvBatch over `make_env` environments for
    anything else."""
    if isinstance(task.env_spec, GridMazeSpec):
        return GridMazeBatch(task.env_spec, goal, seeds, task.criterion.max_steps_per_trial)
    return EnvBatch([make_env(task) for _ in seeds], goal, seeds)


def check_success(trials, criterion: SuccessCriterion) -> bool:
    """True iff the K most recent trials exist and their success fraction
    meets the threshold."""
    k = criterion.min_success_trials
    if len(trials) < k:
        return False
    recent = trials[-k:]
    rate = sum(1 for t in recent if t.success) / k
    return rate >= criterion.success_rate_threshold


def corner_tasks(width: int = 5, height: int = 5, start: tuple[int, int] = (0, 0),
                 criterion: SuccessCriterion | None = None, slip_prob: float = 0.0,
                 corners: tuple[str, ...] = ("NE", "NW", "SE")) -> list[TaskDescription]:
    """The standard curriculum: one task per requested corner of a single
    maze, each with its own goal-input slot. The start cell is skipped if it
    coincides with a corner."""
    criterion = criterion or SuccessCriterion()
    corner_cells = {
        "NE": (width - 1, height - 1),
        "NW": (0, height - 1),
        "SE": (width - 1, 0),
        "SW": (0, 0),
    }
    tasks = []
    for i, name in enumerate(corners):
        cell = corner_cells[name]
        if cell == tuple(start):
            continue
        spec = GridMazeSpec(width=width, height=height, start=start, goal_cell=cell,
                            slip_prob=slip_prob)
        tasks.append(TaskDescription(
            task_id=f"corner_{name.lower()}", goal_index=i, env_spec=spec,
            criterion=criterion,
        ))
    return tasks
