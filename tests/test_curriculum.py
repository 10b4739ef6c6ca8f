from itertools import takewhile

import numpy as np
import pytest

from skillnet import curriculum
from skillnet.consolidate import ConsolidationConfig
from skillnet.curriculum import BudgetsConfig, run_curriculum
from skillnet.envs import GridMazeSpec, SuccessCriterion, TaskDescription
from skillnet.evolve import EsConfig
from skillnet.metrics import validate_event
from skillnet.network import NetConfig, init_network
from skillnet.traces import ReplayPolicy, StoreDims, TraceStore
from reference import fake_outcome, fake_report

CFG = NetConfig(obs_dim=4, goal_dim=2, reward_dim=1, action_dim=4, hidden_dim=3)

SPEC = GridMazeSpec(width=2, height=2, start=(0, 0), goal_cell=(1, 1))


def make_task(task_id, goal_index=0):
    return TaskDescription(task_id=task_id, goal_index=goal_index, env_spec=SPEC,
                           criterion=SuccessCriterion())


class FakeSolver:
    """Solves a task iff its per-task threshold budget is met."""

    def __init__(self, thresholds):
        self.thresholds = thresholds
        self.calls = []

    def __call__(self, *, current_weights, original_weights, task, budget, es, store):
        self.calls.append((task.task_id, budget.amount))
        solvable = budget.amount >= self.thresholds.get(task.task_id, np.inf)
        return fake_outcome(solvable, min(budget.amount, 10.0))


class FakeConsolidator:
    def __init__(self):
        self.calls = []

    def __call__(self, *, weights, store, steps, state):
        self.calls.append(steps)
        return weights.copy(), fake_report(steps)


def run(tasks, solver, consolidator=None, c0=100.0, lam=0.5, max_total=None, **kw):
    store = TraceStore(StoreDims.from_net_config(CFG))
    consolidator = consolidator or FakeConsolidator()
    weights = np.zeros(CFG.n_params)
    final, report = run_curriculum(
        tasks, BudgetsConfig(c0=c0, dream_multiplier=lam, max_total_budget=max_total),
        weights, store,
        net_config=CFG, es_config=EsConfig(),
        consolidation_config=ConsolidationConfig(),
        replay_policy=ReplayPolicy(mode="all"),
        solver=solver, consolidator=consolidator,
        **kw,
    )
    return final, report, consolidator


def run_end(events):
    assert events[-1]["event"] == "run_end"
    return events[-1]


def test_two_solvable_tasks_finish_in_first_pass():
    tasks = [make_task("a"), make_task("b", goal_index=1)]
    solver = FakeSolver({"a": 0.0, "b": 0.0})
    events = []
    _, report, consolidator = run(tasks, solver, on_event=events.append)
    assert report.solved == ["a", "b"]
    assert run_end(events)["pass_count"] == 1
    assert run_end(events)["unsolved_task_ids"] == []
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
    events = []
    _, report, _ = run(tasks, solver, c0=100.0, max_total=65.0, on_event=events.append)
    assert report.solved == ["hard"]
    solve = next(e for e in events if e["event"] == "solve")
    assert (solve["task_id"], solve["pass_number"], solve["budget"]) == ("hard", 3, 400.0)
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
    events = []
    run(tasks, solver, max_total=100.0, on_event=events.append)
    attempted_a = [c for c in solver.calls if c[0] == "a"]
    assert len(attempted_a) == 1
    assert run_end(events)["unsolved_task_ids"] == ["b"]


def test_every_solve_followed_by_exactly_one_consolidation_with_lam_c_budget():
    tasks = [make_task("a"), make_task("b", goal_index=1)]
    solver = FakeSolver({"a": 0.0, "b": 0.0})
    events = []
    _, _, consolidator = run(tasks, solver, c0=80.0, lam=0.5, on_event=events.append)
    assert consolidator.calls == [40, 40]  # round(0.5 * 80) per solve
    assert [e["steps"] for e in events if e["event"] == "consolidation"] == [40, 40]
    assert run_end(events)["consolidations"] == 2


def test_max_total_budget_terminates_unsolvable_curriculum():
    solver = FakeSolver({})
    events = []
    run([make_task("a")], solver, max_total=35.0, on_event=events.append)
    assert run_end(events)["unsolved_task_ids"] == ["a"]
    assert run_end(events)["total_search_spent"] >= 35.0
    assert len(solver.calls) == 4  # 10 spent per attempt


def test_events_are_ordered_attempt_then_solve_then_consolidation():
    solver = FakeSolver({"a": 0.0})
    events = []
    run([make_task("a")], solver, on_event=events.append)
    kinds = [e["event"] for e in events]
    assert kinds == ["run_start", "task_attempt", "solve", "consolidation",
                     "retention_check", "retention_check", "run_end"]
    assert [e["phase"] for e in events if e["event"] == "retention_check"] == [
        "after_dream", "final"]


def test_every_solved_task_retested_after_every_dream():
    # every task solved so far is re-tested on the dreamed net, whichever
    # solver found it
    solver = FakeSolver({"c": 0.0, "a": 0.0, "b": 200.0})
    tasks = [make_task("c"), make_task("a", goal_index=1), make_task("b", goal_index=1)]
    events = []
    _, _, consolidator = run(tasks, solver, c0=100.0, on_event=events.append)
    # the fake dream never passes a check, so b's 100 granted steps run as two chunks
    assert consolidator.calls == [50, 50, 50, 50]
    solved = []
    for i, event in enumerate(events):
        if event["event"] == "solve":
            solved.append(event["task_id"])
        if event["event"] != "consolidation" or events[i + 1]["event"] == "consolidation":
            continue
        checks = list(takewhile(lambda e: e["event"] == "retention_check"
                                and e["phase"] == "after_dream", events[i + 1:]))
        assert [c["task_id"] for c in checks] == sorted(solved)
        assert all(c["pass_number"] == event["pass_number"] for c in checks)
    assert solved == ["c", "a", "b"]


def test_final_sweep_re_reports_the_last_checks_in_task_order():
    attempts = []

    def b_second_time(*, current_weights, original_weights, task, budget, es, store):
        attempts.append(task.task_id)
        return fake_outcome(task.task_id == "a" or attempts.count("b") == 2, 10.0)

    events = []
    run([make_task("b", goal_index=1), make_task("a")], b_second_time,
        on_event=events.append)
    solves = [(e["task_id"], e["pass_number"]) for e in events if e["event"] == "solve"]
    assert solves == [("a", 1), ("b", 2)]  # solve order and id order are both a, b
    checks = [e for e in events if e["event"] == "retention_check"]
    after_dream = [c for c in checks if c["phase"] == "after_dream"]
    assert [c["task_id"] for c in after_dream] == ["a", "a", "b"]  # id order
    final = [c for c in checks if c["phase"] == "final"]
    assert [c["task_id"] for c in final] == ["b", "a"]  # task (config) order
    assert events[-1 - len(final):-1] == final
    last_block = {c["task_id"]: c for c in after_dream[-2:]}
    assert final == [{**last_block[c["task_id"]], "pass_number": 2, "phase": "final"}
                     for c in final]


def test_no_pass_starts_once_the_total_budget_is_spent():
    solver = FakeSolver({})  # never solvable, 10 spent per attempt
    events = []
    run([make_task("a")], solver, c0=100.0, max_total=20.0, on_event=events.append)
    passes = [e["pass_number"] for e in events if e["event"] == "task_attempt"]
    assert passes == [1, 2]
    assert run_end(events)["pass_count"] == max(passes)


def test_total_budget_spent_mid_pass_ends_the_run_in_that_pass():
    # 10 spent per attempt. Pass 1 solves nothing and doubles c; in pass 2, a
    # solves and b spends the last of the 45, so c is never attempted, and
    # the cut pass neither doubles c nor resets it
    solver = FakeSolver({"a": 200.0})
    tasks = [make_task("a"), make_task("b", goal_index=1), make_task("c", goal_index=1)]
    events = []
    _, report, _ = run(tasks, solver, c0=100.0, max_total=45.0, on_event=events.append)
    assert solver.calls == [("a", 100.0), ("b", 100.0), ("c", 100.0),
                            ("a", 200.0), ("b", 200.0)]
    assert [e["pass_number"] for e in events if e["event"] == "budget_double"] == [1]
    assert run_end(events)["pass_count"] == 2
    assert run_end(events)["unsolved_task_ids"] == ["b", "c"]
    assert report.solved == ["a"] and report.final_budget == 200.0


def test_empty_curriculum_rejected():
    with pytest.raises(ValueError):
        run([], FakeSolver({}))


def test_on_event_callback_receives_all_events():
    seen = []
    solver = FakeSolver({"a": 0.0})
    store = TraceStore(StoreDims.from_net_config(CFG))
    run_curriculum(
        [make_task("a")], BudgetsConfig(c0=100.0, dream_multiplier=0.5),
        np.zeros(CFG.n_params), store,
        net_config=CFG, es_config=EsConfig(),
        consolidation_config=ConsolidationConfig(),
        replay_policy=ReplayPolicy(mode="all"),
        solver=solver, consolidator=FakeConsolidator(), on_event=seen.append,
    )
    assert [e["event"] for e in seen] == ["run_start", "task_attempt", "solve",
                                          "consolidation", "retention_check",
                                          "retention_check", "run_end"]
    for event in seen:  # as the metrics writer would check them
        validate_event(event)


# ---------------------------------------------------------------------------
# verified dreaming, on real searches and dreams

MAZE_CFG = NetConfig(obs_dim=9, goal_dim=2, reward_dim=1, action_dim=4, hidden_dim=8, seed=1)


def maze_task(task_id, goal_index, goal_cell, slip_prob=0.0, criterion=None):
    spec = GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=goal_cell,
                        slip_prob=slip_prob)
    return TaskDescription(task_id=task_id, goal_index=goal_index, env_spec=spec,
                           criterion=criterion or SuccessCriterion())


def real_run(tasks, seed, dream_multiplier, base_lr, on_event=None):
    """A run of the default solver and consolidator at budget c0 = 20000:
    dream_multiplier * c0 granted dream steps per solve."""
    events = []
    weights, _ = run_curriculum(
        tasks, BudgetsConfig(c0=20000.0, dream_multiplier=dream_multiplier),
        init_network(MAZE_CFG)[1],
        TraceStore(StoreDims.from_net_config(MAZE_CFG)),
        net_config=MAZE_CFG, es_config=EsConfig(population=4),
        consolidation_config=ConsolidationConfig(base_lr=base_lr), replay_policy=ReplayPolicy(),
        seed=seed, on_event=lambda e: (events.append(e), on_event and on_event(e)),
    )
    return weights, events


def dreams(events):
    """Each dream's consolidation events and the after_dream block after them."""
    out = []
    for i, event in enumerate(events):
        if event["event"] == "solve":
            chunks = list(takewhile(lambda e: e["event"] == "consolidation", events[i + 1:]))
            rest = events[i + 1 + len(chunks):]
            block = list(takewhile(lambda e: e["event"] == "retention_check"
                                   and e["phase"] == "after_dream", rest))
            out.append((chunks, block))
    return out


def test_each_dream_chunk_is_one_consolidate_call_and_one_event(monkeypatch):
    # the benchmark wraps the module global, as here, and pairs each
    # consolidate call with one consolidation event
    calls = []
    original = curriculum.consolidate

    def wrapper(*args, **kwargs):
        calls.append(kwargs["steps"])
        return original(*args, **kwargs)

    monkeypatch.setattr(curriculum, "consolidate", wrapper)
    # 200 granted steps, four chunks of 50; at this learning rate the
    # dreams run two and three chunks
    _, events = real_run([maze_task("ne", 0, (2, 2)), maze_task("nw", 1, (0, 2))], seed=1,
                         dream_multiplier=0.01, base_lr=0.001)
    chunks = [e for e in events if e["event"] == "consolidation"]
    assert calls == [e["steps"] for e in chunks]
    assert run_end(events)["consolidations"] == len(chunks)
    solved = run_end(events)["solved_task_ids"]
    assert len(dreams(events)) == len(solved) == 2
    assert any(len(dream) >= 2 for dream, _ in dreams(events))
    n_checked = 0
    for dream, block in dreams(events):
        n_checked += 1
        assert len({e["initial_loss"]["pred_steps"] for e in dream}) == 1
        assert all(a["final_loss"] == b["initial_loss"] for a, b in zip(dream, dream[1:]))
        assert len(block) == n_checked  # one block per dream, every solved task once
        assert dream[-1]["verified"] == sum(c["passed"] for c in block)
        # a dream stops at its first fully verified chunk, or at its granted steps
        assert all(e["verified"] < n_checked for e in dream[:-1])
        assert all(e["steps"] == curriculum.DREAM_CHUNK for e in dream)
        assert dream[-1]["verified"] == n_checked or len(dream) == 4
    after_dream = [e for e in events if e.get("phase") == "after_dream"]
    assert len(after_dream) == sum(len(block) for _, block in dreams(events))


def test_a_dream_that_never_verifies_runs_its_grant_and_ends_on_a_short_chunk():
    # 130 granted steps; at this learning rate no check of the first dream passes
    _, events = real_run([maze_task("ne", 0, (2, 2)), maze_task("nw", 1, (0, 2))], seed=2,
                         dream_multiplier=0.0065, base_lr=0.0005)
    dream, block = dreams(events)[0]
    assert [(e["steps"], e["verified"]) for e in dream] == [(50, 0), (50, 0), (30, 0)]
    assert [c["passed"] for c in block] == [False]


def test_chunk_checks_of_a_slip_task_use_other_seeds_than_its_verdict(monkeypatch):
    log = []  # retention_check calls and events, in order
    original = curriculum.retention_check

    def wrapper(weights, tasks, net_config, **kwargs):
        results = original(weights, tasks, net_config, **kwargs)
        log.append((kwargs["base_seed"], [t.task_id for t in tasks], results))
        return results

    monkeypatch.setattr(curriculum, "retention_check", wrapper)
    k = 3
    slip = maze_task("slip", 1, (0, 2), slip_prob=0.2,
                     criterion=SuccessCriterion(min_success_trials=k, success_rate_threshold=0.6))
    seed = 3
    # 100 granted steps; each dream passes every check after its first chunk of 50
    _, events = real_run([maze_task("ne", 0, (2, 2)), slip], seed=seed, dream_multiplier=0.005,
                         base_lr=0.005, on_event=log.append)
    checks = [entry for entry in log if isinstance(entry, tuple) and "slip" in entry[1]]
    # a chunk check runs seeds disjoint from the verdict's seed .. seed + k - 1
    assert all(base_seed == seed or base_seed >= seed + k for base_seed, _, _ in checks)
    assert any(base_seed != seed for base_seed, _, _ in checks)
    # a dream that stopped early on the chunk checks runs the slip verdict again
    assert any(base_seed == seed and ids == ["slip"] for base_seed, ids, _ in checks)
    verdicts = 0
    for i, entry in enumerate(log):
        if isinstance(entry, dict) and entry.get("phase") == "after_dream" \
                and entry["task_id"] == "slip":
            base_seed, _, results = next(e for e in reversed(log[:i]) if e in checks)
            assert base_seed == seed
            assert {key: entry[key] for key in vars(results["slip"])} == vars(results["slip"])
            verdicts += 1
    assert verdicts >= 1 and run_end(events)["solved_task_ids"] == ["ne", "slip"]
