import numpy as np
import pytest

from skillnet.envs import (
    GridMaze,
    GridMazeSpec,
    SuccessCriterion,
    TaskDescription,
    check_success,
    corner_tasks,
    goal_encoding,
    make_env,
    step_counter,
)
from reference import VectorRewardChainSpec

SPEC_3X3 = GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2))


def act(direction):
    vec = np.zeros(4)
    vec["NESW".index(direction)] = 1.0
    return vec


def task_for(spec, goal_index=0, **crit):
    return TaskDescription(
        task_id="t", goal_index=goal_index, env_spec=spec,
        criterion=SuccessCriterion(**crit),
    )


# ---------------------------------------------------------------------------
# goal encodings


def test_goal_encoding_one_hot():
    task = task_for(SPEC_3X3, goal_index=2)
    assert np.array_equal(goal_encoding(task, 4), np.array([0, 0, 1, 0.0]))


def test_goal_encodings_distinct_per_task():
    a = goal_encoding(task_for(SPEC_3X3, goal_index=0), 4)
    b = goal_encoding(task_for(SPEC_3X3, goal_index=1), 4)
    assert not np.array_equal(a, b)


def test_goal_encoding_constant_across_queries():
    task = task_for(SPEC_3X3, goal_index=1)
    assert np.array_equal(goal_encoding(task, 4), goal_encoding(task, 4))


def test_goal_encoding_out_of_range():
    with pytest.raises(ValueError):
        goal_encoding(task_for(SPEC_3X3, goal_index=4), 4)


# ---------------------------------------------------------------------------
# maze dynamics


def test_reset_places_agent_at_start():
    env = SPEC_3X3.build()
    obs = env.reset(seed=0)
    assert obs.obs[0] == 1.0 and obs.obs.sum() == 1.0
    assert np.array_equal(obs.reward, np.array([0.0]))
    assert not obs.done


def test_reset_deterministic():
    env = SPEC_3X3.build()
    a = env.reset(seed=5)
    b = env.reset(seed=5)
    assert np.array_equal(a.obs, b.obs)
    assert np.array_equal(a.reward, b.reward)


def test_step_east_moves_and_costs():
    env = SPEC_3X3.build()
    env.reset(seed=0)
    obs = env.step(act("E"))
    # (1, 0) -> index 0*3 + 1
    assert obs.obs[1] == 1.0
    assert obs.reward[0] == pytest.approx(-0.01)
    assert not obs.done


def test_blocked_move_stays_put():
    env = SPEC_3X3.build()
    env.reset(seed=0)
    obs = env.step(act("S"))  # off the south edge from (0, 0)
    assert obs.obs[0] == 1.0


def test_entering_goal_gives_bonus_and_done():
    spec = GridMazeSpec(width=2, height=1, start=(0, 0), goal_cell=(1, 0))
    env = spec.build()
    env.reset(seed=0)
    obs = env.step(act("E"))
    assert obs.reached and obs.done
    assert obs.reward[0] == pytest.approx(1.0)


def test_stepping_finished_episode_raises():
    spec = GridMazeSpec(width=2, height=1, start=(0, 0), goal_cell=(1, 0))
    env = spec.build()
    env.reset(seed=0)
    env.step(act("E"))
    with pytest.raises(RuntimeError):
        env.step(act("E"))


def test_episode_cap_terminates_without_goal():
    spec = GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2), episode_cap=2)
    env = spec.build()
    env.reset(seed=0)
    env.step(act("W"))
    obs = env.step(act("W"))
    assert obs.done and not obs.reached


def test_argmax_tie_breaks_to_lowest_index():
    env = SPEC_3X3.build()
    env.reset(seed=0)
    obs = env.step(np.zeros(4))  # all equal -> N
    assert obs.obs[3] == 1.0  # (0, 1) -> index 1*3 + 0


def test_one_hot_everywhere_along_random_walk():
    env = SPEC_3X3.build()
    obs = env.reset(seed=0)
    rng = np.random.default_rng(0)
    while not obs.done:
        assert obs.obs.sum() == 1.0 and obs.obs.max() == 1.0
        obs = env.step(rng.normal(size=4))


def test_return_identity_random_walks():
    # CR == goal_reward * reached + step_reward * (non-goal transitions)
    spec = SPEC_3X3
    for seed in range(10):
        env = spec.build()
        obs = env.reset(seed=0)
        rng = np.random.default_rng(seed)
        total = obs.reward[0]
        transitions = 0
        while not obs.done:
            obs = env.step(rng.normal(size=4))
            total += obs.reward[0]
            transitions += 1
        penalized = transitions - (1 if obs.reached else 0)
        expected = spec.goal_reward * obs.reached + spec.step_reward * penalized
        assert total == pytest.approx(expected, abs=1e-12)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(0, 0))
    with pytest.raises(ValueError):
        GridMazeSpec(width=3, height=3, start=(5, 0), goal_cell=(2, 2))
    with pytest.raises(ValueError):
        GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2), slip_prob=1.5)


@pytest.mark.parametrize("field", ["step_reward", "goal_reward"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_maze_rewards_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2), **{field: value})


def test_determinism_same_seed_same_actions():
    spec = GridMazeSpec(width=4, height=4, start=(0, 0), goal_cell=(3, 3), slip_prob=0.3)
    actions = [act("NEEN"[i % 4]) for i in range(10)]

    def rollout(seed):
        env = spec.build()
        obs = env.reset(seed=seed)
        seen = [obs.obs.argmax()]
        for a in actions:
            if obs.done:
                break
            obs = env.step(a)
            seen.append(obs.obs.argmax())
        return seen

    assert rollout(3) == rollout(3)


def test_slips_change_trajectories():
    base = GridMazeSpec(width=4, height=4, start=(0, 0), goal_cell=(3, 3))
    slippery = GridMazeSpec(width=4, height=4, start=(0, 0), goal_cell=(3, 3), slip_prob=0.5)

    def positions(spec, seed):
        env = spec.build()
        obs = env.reset(seed=seed)
        out = []
        for _ in range(10):
            if obs.done:
                break
            obs = env.step(act("E"))
            out.append(int(obs.obs.argmax()))
        return out

    assert any(positions(base, s) != positions(slippery, s) for s in range(5))


def test_step_counter_counts_transitions():
    env = SPEC_3X3.build()
    env.reset(seed=0)
    before = step_counter.count
    env.step(act("E"))
    env.step(act("E"))
    assert step_counter.count == before + 2


# ---------------------------------------------------------------------------
# vector rewards


def test_chain_vector_rewards():
    spec = VectorRewardChainSpec(length=3)
    env = spec.build()
    obs = env.reset(seed=0)
    assert env.reward_dim == 2
    assert np.array_equal(obs.reward, np.zeros(2))
    obs = env.step(np.array([1.0, 0.0]))  # forward
    assert np.array_equal(obs.reward, np.array([-0.01, 0.0]))
    obs = env.step(np.array([1.0, 0.0]))
    assert np.array_equal(obs.reward, np.array([0.0, 1.0]))
    assert obs.done and obs.reached


# ---------------------------------------------------------------------------
# success criterion


def test_check_success_all_of_five():
    crit = SuccessCriterion(min_success_trials=5, success_rate_threshold=1.0)

    class T:
        def __init__(self, s):
            self.success = s

    assert check_success([T(True)] * 5, crit)
    assert not check_success([T(True)] * 4 + [T(False)], crit)
    assert not check_success([T(True)] * 4, crit)  # fewer than K trials


def test_check_success_single_trial_deterministic_case():
    crit = SuccessCriterion(min_success_trials=1)

    class T:
        success = True

    assert check_success([T()], crit)


def test_check_success_uses_most_recent():
    crit = SuccessCriterion(min_success_trials=2, success_rate_threshold=1.0)

    class T:
        def __init__(self, s):
            self.success = s

    assert check_success([T(False), T(True), T(True)], crit)
    assert not check_success([T(True), T(True), T(False)], crit)


def test_criterion_validation():
    with pytest.raises(ValueError):
        SuccessCriterion(min_success_trials=0)
    with pytest.raises(ValueError):
        SuccessCriterion(success_rate_threshold=0.0)
    with pytest.raises(ValueError):
        SuccessCriterion(success_rate_threshold=1.5)


# ---------------------------------------------------------------------------
# curriculum factory


def test_corner_tasks_reachable_within_cap():
    for size in (3, 5, 7):
        for task in corner_tasks(width=size, height=size):
            spec = task.env_spec
            manhattan = abs(spec.goal_cell[0] - spec.start[0]) + abs(
                spec.goal_cell[1] - spec.start[1]
            )
            assert manhattan <= spec.effective_cap


def test_corner_tasks_unique_goal_indices():
    tasks = corner_tasks()
    indices = [t.goal_index for t in tasks]
    assert len(set(indices)) == len(indices)


def test_make_env_applies_criterion_step_cap():
    task = task_for(SPEC_3X3, max_steps_per_trial=7)
    env = make_env(task)
    assert env.spec.effective_cap == 7
