"""Lockstep rollouts (`run_trials`) against the single-episode loop they
replace, which lives on here as `reference_run_trial`."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillnet.envs import (
    DIRECTIONS,
    GridMazeBatch,
    GridMazeSpec,
    Observation,
    SuccessCriterion,
    TaskDescription,
    goal_encoding,
    make_env,
    make_env_batch,
    step_counter,
)
from skillnet.network import ACTIVATIONS, NetConfig, Network, init_network
from skillnet.rollout import evaluate_policy, run_trial, run_trials
from skillnet.traces import Trial, frozen_rows
from reference import VectorRewardChainSpec, pack_weights


def reference_run_trial(net: Network, task: TaskDescription, seed: int) -> Trial:
    """One episode, one `Network.step` and one env step at a time."""
    cfg = net.config
    env = make_env(task)
    goal = goal_encoding(task, cfg.goal_dim)
    obs = env.reset(seed=seed)
    state = np.zeros(cfg.hidden_dim)
    rows = []
    total = 0.0
    while True:
        sense = np.concatenate([obs.obs, goal, obs.reward])
        state, out = net.step(state, sense)
        rows.append(np.concatenate([sense, out.action, out.pred, out.return_pred]))
        total += float(obs.reward.sum())
        if obs.done:
            break
        obs = env.step(out.action)
    return Trial(
        task_id=task.task_id, success=obs.reached, relevant=False,
        timesteps=frozen_rows(rows), final_return=total,
    )


@dataclass(frozen=True)
class CountdownSpec:
    """Duck-typed env whose episode length follows the seed: seed % 4 steps,
    so an episode can end at reset. Two reward channels; the observation
    depends on the actions taken."""

    obs_dim: int = 3
    deterministic: bool = True

    def build(self):
        return CountdownEnv(self)


class CountdownEnv:
    def __init__(self, spec):
        self.obs_dim = spec.obs_dim
        self.reward_dim = 2
        self.deterministic = True
        self._left = 0
        self._seed = 0

    def _obs(self, obs, reward):
        return Observation(obs=obs, reward=np.array(reward), done=self._left == 0,
                           reached=self._left == 0 and self._seed % 2 == 0)

    def reset(self, seed=0):
        self._seed = seed
        self._left = seed % 4
        return self._obs(np.zeros(self.obs_dim), [0.0, 0.0])

    def step(self, action):
        step_counter.count += 1
        self._left -= 1
        obs = np.tanh(np.asarray(action[: self.obs_dim]) * 3.0)
        return self._obs(obs, [float(action[0]), 0.1 * self._left])


def assert_same_trials(cfg, weights, task, seeds):
    """run_trials against one reference episode per (weights row, seed);
    returns run_trials' trials."""
    before = step_counter.count
    expected = [reference_run_trial(Network(cfg, w), task, s) for w, s in zip(weights, seeds)]
    reference_steps = step_counter.count - before
    before = step_counter.count
    got = run_trials(cfg, weights, task, seeds)
    assert step_counter.count - before == reference_steps
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.timesteps.tobytes() == e.timesteps.tobytes()
        assert type(g.success) is bool
        assert g.success == e.success
        assert g.final_return == e.final_return
        assert g.task_id == task.task_id and not g.relevant
        assert not g.timesteps.flags.writeable
    return got


@st.composite
def net_configs(draw, obs_dim, reward_dim, min_actions):
    return NetConfig(
        obs_dim=obs_dim, goal_dim=draw(st.integers(1, 3)), reward_dim=reward_dim,
        action_dim=draw(st.integers(min_actions, min_actions + 2)),
        hidden_dim=draw(st.integers(1, 8)), micro_steps=draw(st.integers(1, 3)),
        activation=draw(st.sampled_from(ACTIVATIONS)),
    )


@st.composite
def weight_stacks(draw, cfg, n_episodes):
    """Episodes share some weight rows and differ in others."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 3.0]))
    distinct = rng.normal(0.0, scale, size=(draw(st.integers(1, n_episodes)), cfg.n_params))
    pick = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n_episodes,
                         max_size=n_episodes))
    return distinct[pick]


@st.composite
def maze_cases(draw):
    width, height = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    cells = [(x, y) for x in range(width) for y in range(height)]
    start = draw(st.sampled_from(cells))
    goal = draw(st.sampled_from([c for c in cells if c != start]))
    cap = draw(st.integers(1, 30))
    cap_from_criterion = draw(st.booleans())
    spec = GridMazeSpec(width=width, height=height, start=start, goal_cell=goal,
                        slip_prob=draw(st.sampled_from([0.0, 0.3])),
                        episode_cap=None if cap_from_criterion else cap)
    cfg = draw(net_configs(width * height, 1, 4))
    criterion = SuccessCriterion(max_steps_per_trial=cap if cap_from_criterion else None)
    task = TaskDescription(task_id="maze", goal_index=draw(st.integers(0, cfg.goal_dim - 1)),
                           env_spec=spec, criterion=criterion)
    n_episodes = draw(st.integers(1, 9))
    seeds = draw(st.lists(st.integers(0, 2**31 - 1), min_size=n_episodes,
                          max_size=n_episodes))
    return cfg, draw(weight_stacks(cfg, n_episodes)), task, seeds


@given(maze_cases())
@settings(max_examples=150, deadline=None)
def test_lockstep_maze_matches_single_episode_loop(case):
    assert_same_trials(*case)


@st.composite
def adapter_cases(draw):
    cap = None
    if draw(st.booleans()):
        length = draw(st.integers(2, 6))
        spec = VectorRewardChainSpec(length=length, episode_cap=draw(st.integers(1, 30)))
        cap = draw(st.none() | st.integers(1, 30))
        cfg = draw(net_configs(length, 2, 2))
    else:
        spec = CountdownSpec()
        cfg = draw(net_configs(spec.obs_dim, 2, 3))
    task = TaskDescription(task_id="adapter", goal_index=0, env_spec=spec,
                           criterion=SuccessCriterion(max_steps_per_trial=cap))
    n_episodes = draw(st.integers(1, 9))
    seeds = draw(st.lists(st.integers(0, 50), min_size=n_episodes, max_size=n_episodes))
    return cfg, draw(weight_stacks(cfg, n_episodes)), task, seeds


@given(adapter_cases())
@settings(max_examples=100, deadline=None)
def test_lockstep_adapter_matches_single_episode_loop(case):
    # make_env applies a criterion step cap as the env's episode cap
    cap = case[2].criterion.max_steps_per_trial or np.inf
    assert all(len(trial) - 1 <= cap for trial in assert_same_trials(*case))


# ---------------------------------------------------------------------------
# the workloads' shapes, with episodes that end at chosen steps


def detour_moves(width, height, a):
    """A simple path from (0, 0) to the far corner, 2 * a steps longer than
    the shortest: a east, 1 north, a west, then north and east."""
    return "E" * a + "N" + "W" * a + "N" * (height - 2) + "E" * (width - 1)


def path_weights(cfg, width, height, moves, rng, noise=0.02):
    """Dense weights whose greedy action follows `moves` from (0, 0) and
    heads east, then north, on every other cell; hidden unit d fires on
    the cells whose action is direction d. `moves` None stays put (west)."""
    h, i = cfg.hidden_dim, cfg.input_width
    action = {(x, y): "E" if x < width - 1 else "N" for x in range(width) for y in range(height)}
    x, y = 0, 0
    step = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
    for move in moves or ():
        action[(x, y)] = move
        x, y = x + step[move][0], y + step[move][1]
    w_in = rng.normal(0.0, noise, (h, i))
    w_out = rng.normal(0.0, noise, (cfg.output_width, h))
    for d, name in enumerate(DIRECTIONS):
        for (cx, cy), move in action.items():
            w_in[d, cy * width + cx] += 2.0 if (move if moves else "W") == name else -2.0
        w_out[d, d] += 1.0
    return pack_weights(w_in, rng.normal(0.0, noise, (h, h)), rng.normal(0.0, noise, h),
                        w_out, rng.normal(0.0, noise, cfg.output_width))


@pytest.mark.parametrize("slip_prob", [0.0, 0.3])
@pytest.mark.parametrize("micro_steps", [1, 2])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("side, hidden_dim", [(5, 16), (9, 32)])
def test_lone_episode_path_matches_reference_at_workload_shapes(
        monkeypatch, side, hidden_dim, activation, micro_steps, slip_prob):
    lone_steps = []
    lone_step = GridMazeBatch.lone_step
    monkeypatch.setattr(GridMazeBatch, "lone_step",
                        lambda self: lone_steps.append(1) or lone_step(self))
    cfg = NetConfig(obs_dim=side * side, goal_dim=4, reward_dim=1, action_dim=4,
                    hidden_dim=hidden_dim, micro_steps=micro_steps, activation=activation)
    rng = np.random.default_rng(side * 10 + micro_steps)
    shortest = 2 * side - 2

    def task(cap=None):
        spec = GridMazeSpec(width=side, height=side, start=(0, 0), goal_cell=(side - 1, side - 1),
                            slip_prob=slip_prob)
        return TaskDescription(task_id="corner", goal_index=1, env_spec=spec,
                               criterion=SuccessCriterion(max_steps_per_trial=cap))

    def stack(detours):
        return np.array([path_weights(cfg, side, side, None if a is None else
                                      detour_moves(side, side, a), rng) for a in detours])

    # staggered ends, the longest alone at the end; all ending together;
    # mates ending one step before the lone one's cap; one-episode calls
    staggered = [0, 1, 1, 2, 0, 3, 2, side - 1]
    cases = [(stack(staggered), task(), 1), (stack([0] * 8), task(), 0),
             (stack([0] * 7 + [None]), task(cap=shortest + 1), 1)]
    cases += [(stack([a]), task(), 1) for a in (0, 2, side - 1, None)]
    for k, (weights, case_task, handoffs) in enumerate(cases):
        seeds = list(range(len(weights)))
        lengths = [len(reference_run_trial(Network(cfg, w), case_task, s))
                   for w, s in zip(weights, seeds)]
        del lone_steps[:]
        assert_same_trials(cfg, weights, case_task, seeds)
        if slip_prob == 0.0:
            assert len(lone_steps) == handoffs
            if len(weights) == 8 and handoffs:
                assert sorted(lengths)[-1] > sorted(lengths)[-2]
        if k == 0:
            assert len(set(lengths)) >= 4


def test_maze_tables_are_built_once_and_never_written():
    cfg = maze_config()
    task = maze_task(slip_prob=0.3)
    goal = goal_encoding(task, cfg.goal_dim)
    tables = make_env_batch(task, goal, [0]).sense_rows
    assert make_env_batch(task, goal, [1, 2]).sense_rows is tables
    assert not tables.flags.writeable
    other_goal = goal_encoding(maze_task(), cfg.goal_dim + 1)
    assert make_env_batch(maze_task(), other_goal, [0]).sense_rows is not tables
    before = tables.copy()
    weights = np.random.default_rng(2).normal(size=(3, cfg.n_params))
    for n in (3, 1):
        run_trials(cfg, weights[:n], task, range(n))
    assert tables.tobytes() == before.tobytes()
    # a later call still starts from a zero reward and a fresh maze's sense
    first = run_trials(cfg, weights[:2], task, [7, 8])[0].timesteps[0, : cfg.input_width]
    obs = make_env(task).reset(seed=7)
    assert first.tobytes() == np.concatenate([obs.obs, goal, obs.reward]).tobytes()
    assert first[-1] == 0.0


def test_maze_tables_tell_signed_zero_rewards_apart():
    cfg = maze_config()
    weights = np.random.default_rng(3).normal(size=(2, cfg.n_params))
    for step_reward in (0.0, -0.0):
        spec = GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2),
                            step_reward=step_reward, episode_cap=6)
        task = TaskDescription(task_id="z", goal_index=0, env_spec=spec,
                               criterion=SuccessCriterion())
        assert_same_trials(cfg, weights, task, [0, 1])


def test_maze_spec_with_list_cells_rolls_out():
    cfg = maze_config()
    weights = np.random.default_rng(4).normal(size=(3, cfg.n_params))
    spec = GridMazeSpec(width=3, height=3, start=[0, 0], goal_cell=[2, 2], slip_prob=0.3)
    task = TaskDescription(task_id="m", goal_index=0, env_spec=spec,
                           criterion=SuccessCriterion())
    assert_same_trials(cfg, weights, task, [0, 1, 2])
    assert run_trials(cfg, weights, task, [0, 1, 2]) == \
        run_trials(cfg, weights, maze_task(slip_prob=0.3), [0, 1, 2])


# ---------------------------------------------------------------------------
# checks


def maze_task(slip_prob=0.0, **crit):
    spec = GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2), slip_prob=slip_prob)
    return TaskDescription(task_id="m", goal_index=0, env_spec=spec,
                           criterion=SuccessCriterion(**crit))


def maze_config(**overrides):
    fields = dict(obs_dim=9, goal_dim=2, reward_dim=1, action_dim=4, hidden_dim=4)
    fields.update(overrides)
    return NetConfig(**fields)


def test_run_trials_checks_weight_stack():
    cfg = maze_config()
    with pytest.raises(ValueError, match="shape"):
        run_trials(cfg, np.zeros((2, cfg.n_params)), maze_task(), [0])
    with pytest.raises(ValueError, match="shape"):
        run_trials(cfg, np.zeros(cfg.n_params), maze_task(), [0])
    bad = np.zeros((2, cfg.n_params))
    bad[1, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        run_trials(cfg, bad, maze_task(), [0, 1])
    assert run_trials(cfg, np.zeros((0, cfg.n_params)), maze_task(), []) == []


def test_run_trials_checks_net_fits_maze():
    for cfg in (maze_config(action_dim=3), maze_config(obs_dim=8, reward_dim=2)):
        with pytest.raises(ValueError, match="maze"):
            run_trials(cfg, np.zeros((1, cfg.n_params)), maze_task(), [0])
    cfg = maze_config(obs_dim=10)
    with pytest.raises(ValueError, match="sense must have shape"):
        run_trials(cfg, np.zeros((1, cfg.n_params)), maze_task(), [0])


@dataclass(frozen=True)
class NanAfterOneStepSpec:
    obs_dim: int = 2
    deterministic: bool = True

    def build(self):
        return NanAfterOneStepEnv()


class NanAfterOneStepEnv:
    obs_dim, reward_dim, deterministic = 2, 1, True

    def reset(self, seed=0):
        return Observation(obs=np.zeros(2), reward=np.zeros(1), done=False)

    def step(self, action):
        return Observation(obs=np.array([np.nan, 0.0]), reward=np.zeros(1), done=False)


def test_run_trials_rejects_non_finite_senses():
    cfg = maze_config(obs_dim=2)
    task = TaskDescription(task_id="nan", goal_index=0, env_spec=NanAfterOneStepSpec(),
                           criterion=SuccessCriterion())
    with pytest.raises(ValueError, match="non-finite"):
        run_trials(cfg, np.zeros((3, cfg.n_params)), task, [0, 1, 2])


def test_evaluate_policy_needs_a_trial():
    cfg = maze_config()
    weights = np.zeros(cfg.n_params)
    for n_trials in (0, -1):
        with pytest.raises(ValueError, match="n_trials"):
            evaluate_policy(weights, cfg, maze_task(), n_trials)


def test_run_trial_is_one_episode_of_run_trials():
    cfg = maze_config()
    weights = np.random.default_rng(1).normal(size=cfg.n_params)
    task = maze_task(slip_prob=0.3)
    assert run_trial(Network(cfg, weights), task, seed=4) == \
        run_trials(cfg, weights[None], task, [4])[0]


# ---------------------------------------------------------------------------
# golden: values the single-episode loop produced, recorded before the
# lockstep path replaced it; the benchmark's workloads all use K=1 and no slip


def test_evaluate_policy_on_slip_maze_matches_recorded_values():
    cfg = NetConfig(obs_dim=16, goal_dim=2, reward_dim=1, action_dim=4, hidden_dim=6, seed=3)
    spec = GridMazeSpec(width=4, height=4, start=(0, 0), goal_cell=(3, 2), slip_prob=0.3)
    task = TaskDescription(task_id="slip", goal_index=1, env_spec=spec,
                           criterion=SuccessCriterion(min_success_trials=3))
    _, weights = init_network(cfg)
    before = step_counter.count
    stats = evaluate_policy(weights, cfg, task, n_trials=4, base_seed=5)
    assert step_counter.count - before == 246
    assert stats == {"n_trials": 4, "success_rate": 0.25, "mean_return": -0.3625000000000003,
                     "mean_length": 61.5, "successes": [True, False, False, False]}
