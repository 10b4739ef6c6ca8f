from itertools import takewhile

import numpy as np
import pytest

from skillnet.consolidate import ConsolidationConfig, ConsolidationReport
from skillnet.curriculum import run_curriculum
from skillnet.envs import GridMazeSpec, SuccessCriterion, TaskDescription
from skillnet.evolve import EsConfig, SearchOutcome
from skillnet.network import NetConfig
from skillnet.traces import ReplayPolicy, StoreDims, TraceStore

CFG = NetConfig(obs_dim=4, goal_dim=2, reward_dim=1, action_dim=4, hidden_dim=3)

SPEC = GridMazeSpec(width=2, height=2, start=(0, 0), goal_cell=(1, 1))


def make_task(task_id, goal_index=0):
    return TaskDescription(task_id=task_id, goal_index=goal_index, env_spec=SPEC,
                           criterion=SuccessCriterion())


def fake_outcome(solved, spent=10.0):
    return SearchOutcome(
        status="solved" if solved else "failed",
        winner="warm" if solved else "none",
        final_weights=np.zeros(CFG.n_params) if solved else None,
        relevant_trial_ids=[1] if solved else [],
        all_trial_ids=[1],
        budget_spent={"warm": spent / 2, "scratch": spent / 2},
        batch_costs={"warm": [spent / 2], "scratch": [spent / 2]},
        best_fitness={"warm": [0.0], "scratch": [0.0]},
        evaluations={"warm": 1, "scratch": 1},
    )


class FakeSolver:
    """Solves a task iff its per-task threshold budget is met."""

    def __init__(self, thresholds):
        self.thresholds = thresholds
        self.calls = []

    def __call__(self, *, current_weights, original_weights, task, budget, es, store):
        self.calls.append((task.task_id, budget.amount))
        solvable = budget.amount >= self.thresholds.get(task.task_id, np.inf)
        return fake_outcome(solvable, spent=min(budget.amount, 10.0))


class FakeConsolidator:
    def __init__(self):
        self.calls = []

    def __call__(self, *, weights, store, steps):
        self.calls.append(steps)
        report = ConsolidationReport(steps_run=steps, initial=None, final=None)
        return weights.copy(), report


def run(tasks, solver, consolidator=None, c0=100.0, lam=0.5, max_total=None, **kw):
    store = TraceStore(StoreDims.from_net_config(CFG))
    consolidator = consolidator or FakeConsolidator()
    weights = np.zeros(CFG.n_params)
    final, report = run_curriculum(
        tasks, c0, lam, weights, store,
        net_config=CFG, es_config=EsConfig(),
        consolidation_config=ConsolidationConfig(),
        replay_policy=ReplayPolicy(mode="all"),
        max_total_budget=max_total,
        solver=solver, consolidator=consolidator,
        **kw,
    )
    return final, report, consolidator


def test_two_solvable_tasks_finish_in_first_pass():
    tasks = [make_task("a"), make_task("b", goal_index=1)]
    solver = FakeSolver({"a": 0.0, "b": 0.0})
    events = []
    _, report, consolidator = run(tasks, solver, on_event=events.append)
    assert [r.task_id for r in report.solved] == ["a", "b"]
    assert report.pass_count == 1
    assert report.unsolved_task_ids == []
    assert len(consolidator.calls) == 2
    assert not any(e["event"] == "budget_double" for e in events)
    assert report.final_budget == 100.0


def test_unsolvable_task_doubles_budget_each_pass():
    solver = FakeSolver({})  # nothing is ever solvable
    events = []
    run([make_task("a")], solver, c0=100.0, max_total=55.0,
        on_event=events.append)
    # spent 10 per attempt; the cap stops the loop after enough passes
    budgets = [amount for _, amount in solver.calls]
    assert budgets[:3] == [100.0, 200.0, 400.0]
    doubles = [e for e in events if e["event"] == "budget_double"]
    assert [d["old_budget"] for d in doubles[:3]] == [100.0, 200.0, 400.0]


def test_task_solvable_at_four_c0_and_reset():
    tasks = [make_task("hard"), make_task("other", goal_index=1)]
    solver = FakeSolver({"hard": 400.0, "other": 1e9})
    _, report, _ = run(tasks, solver, c0=100.0, max_total=65.0)
    solved_hard = next(r for r in report.solved if r.task_id == "hard")
    assert solved_hard.pass_number == 3
    assert solved_hard.budget_amount == 400.0
    # passes 1-2 double; pass 3 solves "hard" and finishes at the doubled
    # budget; pass 4 starts back at c0
    assert solver.calls == [
        ("hard", 100.0), ("other", 100.0),
        ("hard", 200.0), ("other", 200.0),
        ("hard", 400.0), ("other", 400.0),
        ("other", 100.0),
    ]


def test_budget_law_reset_only_after_progress():
    tasks = [make_task("a"), make_task("b", goal_index=1)]
    solver = FakeSolver({"a": 200.0, "b": np.inf})
    _, report, _ = run(tasks, solver, c0=100.0, max_total=120.0)
    # pass 1: both fail at 100 -> double; pass 2: a solves at 200, b fails;
    # pass 3 starts back at c0
    seq = solver.calls
    assert seq[0] == ("a", 100.0) and seq[1] == ("b", 100.0)
    assert seq[2] == ("a", 200.0) and seq[3] == ("b", 200.0)
    assert seq[4] == ("b", 100.0)


def test_solved_tasks_never_reattempted():
    tasks = [make_task("a"), make_task("b", goal_index=1)]
    solver = FakeSolver({"a": 0.0, "b": np.inf})
    _, report, _ = run(tasks, solver, max_total=100.0)
    attempted_a = [c for c in solver.calls if c[0] == "a"]
    assert len(attempted_a) == 1
    assert report.unsolved_task_ids == ["b"]


def test_every_solve_followed_by_exactly_one_consolidation_with_lam_c_budget():
    tasks = [make_task("a"), make_task("b", goal_index=1)]
    solver = FakeSolver({"a": 0.0, "b": 0.0})
    _, report, consolidator = run(tasks, solver, c0=80.0, lam=0.5)
    assert consolidator.calls == [40, 40]  # round(0.5 * 80) per solve
    assert report.consolidations == 2


def test_max_total_budget_terminates_unsolvable_curriculum():
    solver = FakeSolver({})
    _, report, _ = run([make_task("a")], solver, max_total=35.0)
    assert report.unsolved_task_ids == ["a"]
    assert report.total_search_spent >= 35.0
    assert len(solver.calls) == 4  # 10 spent per attempt


def test_events_are_ordered_attempt_then_solve_then_consolidation():
    solver = FakeSolver({"a": 0.0})
    events = []
    run([make_task("a")], solver, on_event=events.append)
    kinds = [e["event"] for e in events]
    assert kinds == ["task_attempt", "solve", "consolidation", "retention_check"]


def test_every_solved_task_retested_after_every_dream():
    # the winner is the unchanged current net, as when an arm's unperturbed
    # parent already passes; it is re-tested all the same
    def parent_wins(*, current_weights, original_weights, task, budget, es, store):
        outcome = fake_outcome(budget.amount >= thresholds[task.task_id])
        if outcome.solved:
            outcome.final_weights = current_weights.copy()
        return outcome

    thresholds = {"c": 0.0, "a": 0.0, "b": 200.0}
    tasks = [make_task("c"), make_task("a", goal_index=1), make_task("b", goal_index=1)]
    events = []
    _, _, consolidator = run(tasks, parent_wins, c0=100.0, on_event=events.append)
    assert len(consolidator.calls) == 3
    solved = []
    for i, event in enumerate(events):
        if event["event"] == "solve":
            solved.append(event["task_id"])
        if event["event"] != "consolidation":
            continue
        checks = list(takewhile(lambda e: e["event"] == "retention_check",
                                events[i + 1:]))
        assert [c["task_id"] for c in checks] == sorted(solved)
        assert all(c["phase"] == "after_dream" for c in checks)
        assert all(c["pass_number"] == event["pass_number"] for c in checks)
    assert solved == ["c", "a", "b"]


def test_empty_curriculum_rejected():
    with pytest.raises(ValueError):
        run([], FakeSolver({}))


def test_invalid_budgets_rejected():
    def solver(**_):
        pytest.fail("the solver ran on an invalid budget")

    # a NaN passes every `x <= 0` check, and a NaN budget used to double forever
    for value in (0.0, -1.0, float("nan"), float("inf")):
        for name, kwargs in (("budget_c0", {"c0": value}), ("dream_multiplier", {"lam": value}),
                             ("max_total_budget", {"max_total": value})):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                run([make_task("a")], solver, **kwargs)


def test_on_event_callback_receives_all_events():
    seen = []
    solver = FakeSolver({"a": 0.0})
    store = TraceStore(StoreDims.from_net_config(CFG))
    run_curriculum(
        [make_task("a")], 100.0, 0.5, np.zeros(CFG.n_params), store,
        net_config=CFG, es_config=EsConfig(),
        consolidation_config=ConsolidationConfig(),
        replay_policy=ReplayPolicy(mode="all"),
        solver=solver, consolidator=FakeConsolidator(), on_event=seen.append,
    )
    assert [e["event"] for e in seen] == ["task_attempt", "solve", "consolidation",
                                          "retention_check"]
