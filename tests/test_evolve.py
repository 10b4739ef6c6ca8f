import gc
import hashlib
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillnet import evolve
from skillnet.envs import GridMazeSpec, Observation, SuccessCriterion, TaskDescription
from skillnet.evolve import (
    Budget,
    EsConfig,
    candidate_fitness,
    perturb,
    try_solve_task,
)
from skillnet.network import NetConfig, Network, init_network
from skillnet.rollout import run_trial
from skillnet.traces import StoreDims, TraceStore, _TraceFile
from reference import VectorRewardChainSpec


@dataclass(frozen=True)
class MockEnvSpec:
    """Single-step environment that either always or never reaches its goal."""

    solvable: bool
    obs_dim: int = 2
    deterministic: bool = True

    def build(self):
        return MockEnv(self)


class MockEnv:
    def __init__(self, spec):
        self.spec = spec
        self.obs_dim = spec.obs_dim
        self.reward_dim = 1
        self.deterministic = spec.deterministic
        self._done = True

    def _obs(self, reward, reached):
        onehot = np.zeros(self.obs_dim)
        onehot[0] = 1.0
        return Observation(obs=onehot, reward=np.array([reward]), done=self._done,
                           reached=reached)

    def reset(self, seed=0):
        self._done = False
        return self._obs(0.0, False)

    def step(self, action):
        if self._done:
            raise RuntimeError("episode finished")
        self._done = True
        reached = self.spec.solvable
        return self._obs(1.0 if reached else -1.0, reached)


def mock_task(solvable, task_id="mock"):
    return TaskDescription(
        task_id=task_id, goal_index=0, env_spec=MockEnvSpec(solvable),
        criterion=SuccessCriterion(min_success_trials=1),
    )


def net_config(obs_dim=2, **overrides):
    defaults = dict(obs_dim=obs_dim, goal_dim=2, reward_dim=1, action_dim=4,
                    hidden_dim=4, seed=0)
    defaults.update(overrides)
    return NetConfig(**defaults)


# ---------------------------------------------------------------------------
# perturb


def test_perturb_sigma_zero_is_identity():
    w = np.array([1.0, -2.0, 0.5])
    out = perturb(w, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, w)
    assert out is not w


def test_perturb_deterministic_given_rng_state():
    w = np.zeros(100)
    a = perturb(w, 0.3, np.random.default_rng(42))
    b = perturb(w, 0.3, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_perturb_noise_scale_matches_sigma():
    w = np.zeros(10_000)
    sigma = 0.25
    out = perturb(w, sigma, np.random.default_rng(7))
    measured = np.std(out - w)
    assert abs(measured - sigma) / sigma < 0.05


# ---------------------------------------------------------------------------
# candidate evaluation


def hand_simulated_zero_weight_fitness(spec):
    """Independent simulation: a zero-weight net emits all-zero actions, so
    argmax tie-breaking always picks North."""
    pos = list(spec.start)
    total = 0.0  # reward at reset is zero
    for _ in range(spec.effective_cap):
        ny = pos[1] + 1
        if ny < spec.height:
            pos[1] = ny
        if tuple(pos) == tuple(spec.goal_cell):
            total += spec.goal_reward
            break
        total += spec.step_reward
    return total


def test_zero_weight_fitness_matches_hand_simulation():
    cfg = net_config(obs_dim=9)
    spec = GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2))
    task = TaskDescription(task_id="corner", goal_index=0, env_spec=spec,
                           criterion=SuccessCriterion())
    weights = np.zeros(cfg.n_params)
    fitness = run_trial(Network(cfg, weights), task, seed=0).final_return
    assert fitness == pytest.approx(hand_simulated_zero_weight_fitness(spec), abs=1e-12)


def test_deterministic_env_gives_identical_trials():
    cfg = net_config(obs_dim=9)
    spec = GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2))
    task = TaskDescription(task_id="corner", goal_index=0, env_spec=spec,
                           criterion=SuccessCriterion())
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, weights = init_network(cfg)
    net = Network(cfg, weights)
    ids = [store.append(run_trial(net, task, seed=i)) for i in range(3)]
    trials = [store.get(i) for i in ids]
    assert np.array_equal(trials[0].timesteps, trials[1].timesteps)
    assert np.array_equal(trials[1].timesteps, trials[2].timesteps)


def test_recorded_trials_carry_success_flags():
    cfg = net_config()
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, weights = init_network(cfg)
    net = Network(cfg, weights)
    for i in range(2):
        store.append(run_trial(net, mock_task(False), seed=i))
    assert len(store) == 2
    assert all(not t.success for t in store)


# ---------------------------------------------------------------------------
# the race


def test_always_solvable_mock_solved_in_first_round():
    cfg = net_config()
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, weights = init_network(cfg)
    outcome = try_solve_task(weights, weights, mock_task(True),
                             Budget("evaluations", 10), EsConfig(seed=1), store,
                             config=cfg)
    assert outcome.solved
    assert outcome.winner == "warm"  # warm arm runs first and passes immediately
    assert len(outcome.relevant_trial_ids) == 1
    assert outcome.evaluations["warm"] == 1
    assert outcome.evaluations["scratch"] == 0


def test_unsolvable_mock_exhausts_budget():
    cfg = net_config()
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, weights = init_network(cfg)
    outcome = try_solve_task(weights, weights, mock_task(False),
                             Budget("evaluations", 10), EsConfig(population=4, seed=2),
                             store, config=cfg)
    assert not outcome.solved
    assert (outcome.status, outcome.winner) == ("failed", "none")
    assert outcome.relevant_trial_ids == []
    assert outcome.trials_recorded == len(store) > 0
    assert all(not t.relevant for t in store)
    for arm in ("warm", "scratch"):
        assert outcome.budget_spent[arm] >= 10


def test_base_weights_never_mutated():
    cfg = net_config()
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, current = init_network(cfg)
    original = np.random.default_rng(5).normal(size=cfg.n_params)
    current_copy = current.copy()
    original_copy = original.copy()
    try_solve_task(current, original, mock_task(False), Budget("evaluations", 6),
                   EsConfig(population=2, seed=3), store, config=cfg)
    assert np.array_equal(current, current_copy)
    assert np.array_equal(original, original_copy)


def test_race_fairness_budgets_within_one_batch():
    cfg = net_config()
    for solvable, seed in ((False, 0), (True, 1)):
        store = TraceStore(StoreDims.from_net_config(cfg))
        _, weights = init_network(cfg)
        outcome = try_solve_task(weights, weights, mock_task(solvable),
                                 Budget("evaluations", 9),
                                 EsConfig(population=4, seed=seed), store, config=cfg)
        gap = abs(outcome.budget_spent["warm"] - outcome.budget_spent["scratch"])
        assert gap <= outcome.max_batch_cost


def test_elitism_best_fitness_non_decreasing():
    cfg = net_config(obs_dim=9)
    spec = GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2), episode_cap=8)
    task = TaskDescription(task_id="corner", goal_index=0, env_spec=spec,
                           criterion=SuccessCriterion())
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, weights = init_network(cfg)
    outcome = try_solve_task(weights, weights, task, Budget("evaluations", 30),
                             EsConfig(population=3, seed=4), store, config=cfg)
    for arm in ("warm", "scratch"):
        history = outcome.best_fitness[arm]
        assert all(b >= a for a, b in zip(history, history[1:]))


def test_non_elitist_selection_can_regress():
    # without elitism the parent is replaced by the best child every
    # generation, so incumbent fitness may move backwards
    cfg = net_config(obs_dim=9)
    spec = GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2), episode_cap=8)
    task = TaskDescription(task_id="corner", goal_index=0, env_spec=spec,
                           criterion=SuccessCriterion())
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, weights = init_network(cfg)
    outcome = try_solve_task(weights, weights, task, Budget("evaluations", 40),
                             EsConfig(population=3, seed=15, elitism=False), store,
                             config=cfg)
    histories = outcome.best_fitness["warm"] + outcome.best_fitness["scratch"]
    assert len(histories) > 2
    regressed = any(b < a for a, b in zip(histories, histories[1:]))
    assert regressed or outcome.solved


def test_trace_completeness_trials_equal_evaluation_episodes():
    cfg = net_config()
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, weights = init_network(cfg)
    outcome = try_solve_task(weights, weights, mock_task(False),
                             Budget("evaluations", 7), EsConfig(population=3, seed=6),
                             store, config=cfg)
    n_evals = outcome.evaluations["warm"] + outcome.evaluations["scratch"]
    # one validation trial per evaluation for this criterion
    assert len(store) == n_evals == outcome.trials_recorded


def test_each_generation_is_stored_with_one_extend(monkeypatch):
    cfg = net_config()
    store = TraceStore(StoreDims.from_net_config(cfg))
    calls = []
    extend = store.extend

    def spy(trials):
        calls.append(len(trials))
        return extend(trials)

    monkeypatch.setattr(store, "extend", spy)
    monkeypatch.setattr(store, "append", None)
    _, weights = init_network(cfg)
    outcome = try_solve_task(weights, weights, mock_task(False), Budget("evaluations", 7),
                             EsConfig(population=3, seed=6), store, config=cfg)
    # each arm's parent, then generations of three children; one trial each
    assert sorted(calls) == [1, 1, 3, 3, 3, 3]
    generations = len(outcome.best_fitness["warm"]) + len(outcome.best_fitness["scratch"])
    assert len(calls) == generations
    assert sum(calls) == outcome.total_spent == outcome.trials_recorded == len(store)
    assert max(calls) == outcome.max_batch_cost
    assert [t.trial_id for t in store] == list(range(1, outcome.trials_recorded + 1))


def test_search_on_a_streamed_store_reads_no_rows(tmp_path, monkeypatch):
    reads = []
    read_rows = _TraceFile.read_rows
    monkeypatch.setattr(_TraceFile, "read_rows",
                        lambda self, *args: reads.append(args) or read_rows(self, *args))
    cfg = net_config(obs_dim=9)
    task = TaskDescription(
        task_id="corner", goal_index=0,
        env_spec=GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2)),
        criterion=SuccessCriterion(min_success_trials=2))
    _, weights = init_network(cfg)
    store = TraceStore.create(tmp_path / "traces.bin", StoreDims.from_net_config(cfg))
    try:
        outcome = try_solve_task(weights, weights, task, Budget("env_steps", 3000),
                                 EsConfig(population=4, sigma=0.3, seed=8), store, config=cfg)
        assert outcome.trials_recorded == len(store) > 0
        assert reads == []
        assert len(store.get(1).timesteps) == len(store.get(1))
        assert len(reads) == 1  # the spy sees a read
    finally:
        store.close()


@pytest.mark.parametrize("maze", [True, False])
def test_no_generations_row_buffer_outlives_its_generation(monkeypatch, maze):
    # the incumbent keeps the store's copies of its trials, so the rows a
    # rollout wrote (one buffer per maze generation) die with the generation
    if maze:
        cfg = net_config(obs_dim=25)
        task = TaskDescription(
            task_id="corner", goal_index=0,
            env_spec=GridMazeSpec(width=5, height=5, start=(0, 0), goal_cell=(4, 4)),
            criterion=SuccessCriterion(min_success_trials=2))
    else:
        cfg, task = net_config(), mock_task(False)
    alive = []  # weakrefs to the row buffers of earlier calls
    run_trials = evolve.run_trials

    def owner(rows):
        return rows if rows.base is None else rows.base

    def spy(*args):
        gc.collect()
        assert [ref() for ref in alive] == [None] * len(alive)
        trials = run_trials(*args)
        alive.extend(weakref.ref(owner(t.timesteps)) for t in trials)
        return trials

    monkeypatch.setattr(evolve, "run_trials", spy)
    _, weights = init_network(cfg)
    outcome = try_solve_task(weights, weights, task, Budget("evaluations", 9),
                             EsConfig(population=4, seed=3), TraceStore(StoreDims.from_net_config(cfg)), config=cfg)
    assert sum(outcome.evaluations.values()) >= 9 and len(alive) >= 4 * 2
    gc.collect()
    assert [ref() for ref in alive] == [None] * len(alive)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(1, 12), st.data())
def test_candidate_fitness_is_one_mean_per_candidate_bit_for_bit(n_trials, n_candidates, data):
    returns = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n_candidates * n_trials,
                                 max_size=n_candidates * n_trials))
    fitness = candidate_fitness(returns, n_trials)
    expected = [float(np.mean(returns[c * n_trials:(c + 1) * n_trials]))
                for c in range(n_candidates)]
    assert [f.hex() for f in fitness.tolist()] == [f.hex() for f in expected]


def test_solve_supersedes_older_relevant_trials_of_task():
    cfg = net_config()
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, weights = init_network(cfg)
    task = mock_task(True)
    first = try_solve_task(weights, weights, task, Budget("evaluations", 4),
                           EsConfig(seed=7), store, config=cfg)
    second = try_solve_task(weights, weights, task, Budget("evaluations", 4),
                            EsConfig(seed=8), store, config=cfg)
    relevant = [t.trial_id for t in store.relevant_trials()]
    assert relevant == second.relevant_trial_ids
    assert first.relevant_trial_ids != second.relevant_trial_ids


def test_stochastic_env_marks_all_successful_validation_trials():
    cfg = net_config()
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, weights = init_network(cfg)

    task = TaskDescription(
        task_id="noisy", goal_index=0,
        env_spec=MockEnvSpec(solvable=True, deterministic=False),
        criterion=SuccessCriterion(min_success_trials=3, success_rate_threshold=0.5),
    )
    outcome = try_solve_task(weights, weights, task, Budget("evaluations", 5),
                             EsConfig(seed=9), store, config=cfg)
    assert outcome.solved
    assert len(outcome.relevant_trial_ids) == 3  # every validation trial succeeded


def test_env_steps_budget_unit_counts_transitions():
    cfg = net_config()
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, weights = init_network(cfg)
    outcome = try_solve_task(weights, weights, mock_task(False),
                             Budget("env_steps", 3), EsConfig(population=2, seed=10),
                             store, config=cfg)
    # every mock episode is exactly one transition
    for arm in ("warm", "scratch"):
        assert outcome.budget_spent[arm] == outcome.evaluations[arm]
        assert outcome.budget_spent[arm] >= 3


@dataclass(frozen=True)
class SplitCostSpec:
    """Unsolvable env whose episode length depends on the policy's first
    action unit, creating arms with very different per-generation costs."""

    obs_dim: int = 2
    deterministic: bool = True

    def build(self):
        return SplitCostEnv(self)


class SplitCostEnv:
    def __init__(self, spec):
        self.spec = spec
        self.obs_dim = spec.obs_dim
        self.reward_dim = 1
        self.deterministic = True
        self._steps = 0
        self._limit = 10
        self._done = True

    def _obs(self, reward):
        onehot = np.zeros(self.obs_dim)
        onehot[0] = 1.0
        return Observation(obs=onehot, reward=np.array([reward]), done=self._done,
                           reached=False)

    def reset(self, seed=0):
        self._steps = 0
        self._limit = 10
        self._done = False
        return self._obs(0.0)

    def step(self, action):
        if self._done:
            raise RuntimeError("episode finished")
        if self._steps == 0:
            self._limit = 2 if action[0] > 0 else 10
        self._steps += 1
        self._done = self._steps >= self._limit
        return self._obs(-0.01)


def test_race_fairness_with_asymmetric_episode_costs():
    cfg = net_config()
    store = TraceStore(StoreDims.from_net_config(cfg))
    # bias the action-0 output unit positive for warm, negative for scratch,
    # so warm episodes cost 2 steps and scratch episodes cost 10
    base = np.zeros(cfg.n_params)
    warm = base.copy()
    warm[-cfg.output_width] = 5.0
    scratch = base.copy()
    scratch[-cfg.output_width] = -5.0
    task = TaskDescription(task_id="split", goal_index=0, env_spec=SplitCostSpec(),
                           criterion=SuccessCriterion())
    outcome = try_solve_task(warm, scratch, task, Budget("env_steps", 300),
                             EsConfig(population=4, sigma=0.01, seed=13), store,
                             config=cfg)
    assert not outcome.solved
    spent = outcome.budget_spent
    assert spent["warm"] != spent["scratch"]  # asymmetric costs really occurred
    assert abs(spent["warm"] - spent["scratch"]) <= outcome.max_batch_cost


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget("generations", 5)
    for amount in (0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="^amount must be positive"):
            Budget("env_steps", amount)
    assert Budget("env_steps", float("inf")).amount == float("inf")  # doubling can reach it
    for population in (0, float("nan")):
        with pytest.raises(ValueError, match="^population must be >= 1"):
            EsConfig(population=population)
    for sigma in (0.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="^sigma must be positive and finite"):
            EsConfig(sigma=sigma)


def test_same_seed_search_is_deterministic():
    cfg = net_config(obs_dim=9)
    spec = GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2))
    task = TaskDescription(task_id="corner", goal_index=0, env_spec=spec,
                           criterion=SuccessCriterion())

    def search():
        store = TraceStore(StoreDims.from_net_config(cfg))
        _, weights = init_network(cfg)
        return try_solve_task(weights, weights, task, Budget("env_steps", 5000),
                              EsConfig(population=4, sigma=0.2, seed=21), store,
                              config=cfg), store

    first, store_1 = search()
    second, store_2 = search()
    assert first.status == second.status
    assert first.winner == second.winner
    assert first.budget_spent == second.budget_spent
    assert first.trials_recorded == second.trials_recorded
    assert first.max_batch_cost == second.max_batch_cost
    assert first.best_fitness == second.best_fitness
    assert len(store_1) == len(store_2)
    for a, b in zip(store_1, store_2):
        assert a == b


def test_vector_reward_task_end_to_end():
    cfg = NetConfig(obs_dim=4, goal_dim=2, reward_dim=2, action_dim=2,
                    hidden_dim=4, seed=1)
    task = TaskDescription(
        task_id="chain", goal_index=0, env_spec=VectorRewardChainSpec(length=4),
        criterion=SuccessCriterion(),
    )
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, weights = init_network(cfg)
    outcome = try_solve_task(weights, weights, task, Budget("evaluations", 40),
                             EsConfig(population=4, sigma=0.3, seed=2), store,
                             config=cfg)
    assert outcome.solved
    winning = store.get(outcome.relevant_trial_ids[0])
    rewards = winning.timesteps[:, store.dims.columns["r"]]
    assert rewards.shape == (len(winning), 2)
    # the terminal row carries the goal bonus in channel 1
    assert rewards[-1, 1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# seeded regression fixture: 3x3 corner task from random weights
#
# Frozen from a run of this exact configuration; guards against accidental
# changes to seeding, alternation order, or bookkeeping.

FIXTURE = {
    "winner": "scratch",
    "budget_spent": {"warm": 324.0, "scratch": 292.0},
    "relevant_trial_ids": [17],
}


def seeded_corner_search():
    cfg = net_config(obs_dim=9, seed=123)
    spec = GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2))
    task = TaskDescription(task_id="corner_ne", goal_index=0, env_spec=spec,
                           criterion=SuccessCriterion())
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, weights = init_network(cfg)
    outcome = try_solve_task(weights, weights, task, Budget("env_steps", 50_000),
                             EsConfig(population=8, sigma=0.2, seed=99), store,
                             config=cfg)
    return outcome, store


def test_seeded_corner_search_regression():
    outcome, store = seeded_corner_search()
    assert outcome.solved
    gap = abs(outcome.budget_spent["warm"] - outcome.budget_spent["scratch"])
    assert gap <= outcome.max_batch_cost
    assert len(outcome.relevant_trial_ids) == 1
    winning = store.get(outcome.relevant_trial_ids[0])
    assert winning.success and winning.relevant
    if FIXTURE is not None:
        assert outcome.winner == FIXTURE["winner"]
        assert outcome.budget_spent == FIXTURE["budget_spent"]
        assert outcome.relevant_trial_ids == FIXTURE["relevant_trial_ids"]


def test_slip_race_with_several_trials_per_candidate_matches_recorded_run(tmp_path):
    """Golden values recorded from the one-episode-at-a-time search loop, for
    a race that draws slips and runs K=3 seeds (seed + i) per candidate."""
    cfg = NetConfig(obs_dim=16, goal_dim=2, reward_dim=1, action_dim=4, hidden_dim=6, seed=3)
    spec = GridMazeSpec(width=4, height=4, start=(0, 0), goal_cell=(3, 2), slip_prob=0.3)
    task = TaskDescription(task_id="slip", goal_index=1, env_spec=spec,
                           criterion=SuccessCriterion(min_success_trials=3))
    _, original = init_network(cfg)
    current = np.random.default_rng(11).normal(0.0, 0.1, cfg.n_params)
    store = TraceStore(StoreDims.from_net_config(cfg))
    outcome = try_solve_task(current, original, task, Budget("env_steps", 700),
                             EsConfig(population=4, sigma=0.5, seed=7), store, config=cfg)
    path = tmp_path / "traces.bin"
    store.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "cae5b7fec68e652e05d780e4a732fff5a558235fc0f1f5b89565198b274fcf34")
    assert (outcome.status, outcome.winner) == ("solved", "scratch")
    assert outcome.relevant_trial_ids == [25, 26, 27]
    assert outcome.trials_recorded == len(store) == 30
    assert outcome.budget_spent == {"warm": 708.0, "scratch": 794.0}
    assert outcome.max_batch_cost == 602.0
    assert outcome.best_fitness == {"warm": [0.3166666666666665, 0.3166666666666665],
                                    "scratch": [-0.3033333333333337, 0.87]}
    assert outcome.evaluations == {"warm": 5, "scratch": 5}
