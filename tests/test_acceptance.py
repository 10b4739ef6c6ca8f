"""Acceptance suite: every criterion prints its own pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Criteria 3, 4, 10 and 12 share one expensive fixture: the full
two-corner-task flow (search, consolidate, search, consolidate) over five
master seeds.
"""

import json
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from skillnet.cli import main
from skillnet.consolidate import (
    ConsolidationConfig,
    consolidate,
    retention_check,
    term_stats,
)
from skillnet.curriculum import run_curriculum
from skillnet.envs import GridMazeSpec, SuccessCriterion, TaskDescription, step_counter
from skillnet.evolve import Budget, EsConfig, SearchOutcome, try_solve_task
from skillnet.metrics import validate_event
from skillnet.network import (
    NetConfig,
    ReplayBatch,
    bptt_gradient,
    save_checkpoint,
)
from skillnet.rollout import run_trial
from skillnet.traces import ReplayPolicy, StoreDims, TraceStore, Trial
from reference import Network, build_batch, fake_report, init_network

MASTER_SEEDS = (1, 2, 3, 4, 5)

# settings shared by the desk-scale end-to-end criteria
NET = dict(obs_dim=25, goal_dim=4, reward_dim=1, action_dim=4, hidden_dim=16)
ES = dict(population=8, sigma=0.2)
SEARCH_BUDGET = Budget("env_steps", 200_000)
DREAM = ConsolidationConfig(base_lr=0.005)
DREAM_STEPS = 2000


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\ncriterion {num:2d} [{status}] {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def corner_task(task_id, goal_index, cell, size=5):
    spec = GridMazeSpec(width=size, height=size, start=(0, 0), goal_cell=cell)
    return TaskDescription(task_id=task_id, goal_index=goal_index, env_spec=spec,
                           criterion=SuccessCriterion())


TASK_A = corner_task("A", 0, (4, 4))
TASK_B = corner_task("B", 1, (0, 4))
TASK_C = corner_task("C", 2, (4, 0))


@dataclass
class SeedRun:
    seed: int
    ok: bool
    stage: str
    elapsed: float
    weights: np.ndarray | None = None
    net_config: NetConfig | None = None
    outcomes: list = field(default_factory=list)
    dream_env_steps: list = field(default_factory=list)
    retention: dict = field(default_factory=dict)


def run_two_task_flow(seed: int) -> SeedRun:
    cfg = NetConfig(**NET, seed=seed)
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, w0 = init_network(cfg)
    weights = w0.copy()
    outcomes = []
    dream_env_steps = []
    started = time.time()

    def dream(w):
        before = step_counter.count
        new_w, _ = consolidate(w, store, ReplayPolicy(mode="relevant_only"), DREAM,
                               net_config=cfg, steps=DREAM_STEPS)
        dream_env_steps.append(step_counter.count - before)
        return new_w

    for stage, task, es_seed in (("solveA", TASK_A, seed * 7 + 1),
                                 ("solveB", TASK_B, seed * 7 + 2)):
        outcome = try_solve_task(weights, w0, task, SEARCH_BUDGET,
                                 EsConfig(**ES, seed=es_seed), store, config=cfg)
        outcomes.append(outcome)
        if not outcome.solved:
            return SeedRun(seed=seed, ok=False, stage=stage,
                           elapsed=time.time() - started, net_config=cfg,
                           outcomes=outcomes, dream_env_steps=dream_env_steps)
        weights = dream(weights)

    retention = retention_check(weights, [TASK_A, TASK_B], cfg, n_trials=20,
                                threshold=0.9)
    ok = retention["A"].passed and retention["B"].passed
    return SeedRun(seed=seed, ok=ok, stage="done", elapsed=time.time() - started,
                   weights=weights, net_config=cfg, outcomes=outcomes,
                   dream_env_steps=dream_env_steps, retention=retention)


@pytest.fixture(scope="module")
def two_task_runs():
    return {seed: run_two_task_flow(seed) for seed in MASTER_SEEDS}


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def random_small_config(rng):
    while True:
        cfg = NetConfig(
            obs_dim=int(rng.integers(1, 3)),
            goal_dim=int(rng.integers(1, 3)),
            reward_dim=int(rng.integers(1, 3)),
            action_dim=int(rng.integers(1, 3)),
            hidden_dim=int(rng.integers(1, 4)),
            micro_steps=int(rng.integers(1, 3)),
            seed=int(rng.integers(0, 2**31)),
        )
        if cfg.n_params <= 50:
            return cfg


def random_replay_entry(cfg, t_len, rng):
    from skillnet.network import TrialTargets

    cloned = float(rng.random() < 0.7)
    mask = np.zeros((t_len, 3))
    mask[:-1] = (cloned, 1.0, cloned)
    return TrialTargets(senses=rng.normal(size=(t_len, cfg.input_width)),
                        target=rng.normal(size=(t_len, cfg.output_width)), mask=mask)


def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(20260808)
    started = time.time()
    worst = 0.0
    eps = 1e-5
    for _ in range(20):
        cfg = random_small_config(rng)
        net, _ = init_network(cfg)
        t_len = int(rng.integers(1, 6))
        batch = ReplayBatch(cfg, [random_replay_entry(cfg, t_len, rng)])
        analytic, _ = bptt_gradient(net, batch)
        base = net.get_weights()
        for i in range(cfg.n_params):
            w_plus, w_minus = base.copy(), base.copy()
            w_plus[i] += eps
            w_minus[i] -= eps
            lp = term_stats(Network(cfg, w_plus), batch)["total"]
            lm = term_stats(Network(cfg, w_minus), batch)["total"]
            numeric = (lp - lm) / (2 * eps)
            denom = max(abs(numeric), 1e-7 / 1e-4)
            worst = max(worst, abs(analytic[i] - numeric) / denom)
    elapsed = time.time() - started
    report(1, "BPTT matches central finite differences on 20 random nets",
           worst < 1e-4 and elapsed < 10.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: single-task learning


def test_criterion_02_single_task_learning():
    started = time.time()
    solved = 0
    details = []
    for seed in MASTER_SEEDS:
        cfg = NetConfig(**NET, seed=seed)
        store = TraceStore(StoreDims.from_net_config(cfg))
        _, weights = init_network(cfg)
        outcome = try_solve_task(weights, weights, TASK_A, SEARCH_BUDGET,
                                 EsConfig(**ES, seed=seed * 31 + 5), store, config=cfg)
        solved += outcome.solved
        details.append(f"seed {seed}: {outcome.status}")
    elapsed = time.time() - started
    report(2, "5x5 corner maze solved from random weights for >= 4 of 5 seeds",
           solved >= 4 and elapsed < 120.0,
           f"{solved}/5 solved, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 3 and 4: no-forgetting and goal dependence


def test_criterion_03_no_forgetting(two_task_runs):
    ok_seeds = [r.seed for r in two_task_runs.values() if r.ok]
    time_ok = all(r.elapsed < 300.0 for r in two_task_runs.values())
    detail = ", ".join(
        f"seed {r.seed}: {'ok' if r.ok else r.stage} ({r.elapsed:.0f}s)"
        for r in two_task_runs.values()
    )
    report(3, "retention of both corner tasks after sequential learning "
              "(>= 3 of 5 seeds)", len(ok_seeds) >= 3 and time_ok, detail)


def test_criterion_04_goal_input_dependence(two_task_runs):
    passing = [r for r in two_task_runs.values() if r.ok]
    assert passing, "criterion 3 produced no passing seeds"
    all_ok = True
    details = []
    for run in passing:
        net = Network(run.net_config, run.weights)
        trial_a = run_trial(net, TASK_A, seed=0)
        trial_b = run_trial(net, TASK_B, seed=0)
        obs = StoreDims.from_net_config(run.net_config).columns["in"]
        cells_a = trial_a.timesteps[:, obs].argmax(axis=1).tolist()
        cells_b = trial_b.timesteps[:, obs].argmax(axis=1).tolist()
        ok = trial_a.success and trial_b.success and cells_a != cells_b
        all_ok &= ok
        details.append(f"seed {run.seed}: pathA {len(cells_a)} cells, "
                       f"pathB {len(cells_b)} cells")
    report(4, "same start, different goal inputs -> different goal-reaching "
              "trajectories", all_ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 5: discard rule


def test_criterion_05_discard_rule():
    cfg = NetConfig(**NET, seed=0)
    store = TraceStore(StoreDims.from_net_config(cfg))
    rng = np.random.default_rng(12)
    for _ in range(6):
        w = rng.uniform(-0.5, 0.5, cfg.n_params)
        store.append(run_trial(Network(cfg, w), TASK_A, seed=int(rng.integers(2**31))))
    store_ok = len(store) == 6 and all(not t.success for t in store)

    ok = store_ok
    for policy in (ReplayPolicy(mode="all"),
                   ReplayPolicy(mode="uniform_sample", k=3, rng_seed=4),
                   ReplayPolicy(mode="recent", k=2)):
        batch = build_batch(store.sample_replay(policy), cfg)
        for entry in batch:
            action_mask, pred_mask, return_mask = entry.mask.T
            ok &= bool(np.all(action_mask == 0.0))
            ok &= bool(np.all(return_mask == 0.0))
            ok &= int((pred_mask == 0.0).sum()) == 1
            ok &= pred_mask[-1] == 0.0
    report(5, "failed-only store: action and reward-prediction targets fully "
              "masked, prediction masked only at the final step", ok)


# ---------------------------------------------------------------------------
# criterion 6: budget doubling


def test_criterion_06_budget_doubling():
    cfg = NetConfig(obs_dim=4, goal_dim=2, reward_dim=1, action_dim=4, hidden_dim=3)
    spec = GridMazeSpec(width=2, height=2, start=(0, 0), goal_cell=(1, 1))

    def make_solver(threshold):
        calls = []

        def solver(*, current_weights, original_weights, task, budget, es, store):
            calls.append(budget.amount)
            solved = budget.amount >= threshold
            return SearchOutcome(
                status="solved" if solved else "failed",
                winner="warm" if solved else "none",
                final_weights=current_weights.copy() if solved else None,
                relevant_trial_ids=[1] if solved else [],
                all_trial_ids=[1],
                budget_spent={"warm": 5.0, "scratch": 5.0},
                batch_costs={"warm": [5.0], "scratch": [5.0]},
                best_fitness={"warm": [0.0], "scratch": [0.0]},
                evaluations={"warm": 1, "scratch": 1},
            )

        return solver, calls

    def consolidator(*, weights, store, steps):
        return weights.copy(), fake_report(steps)

    def run(threshold, max_total):
        solver, calls = make_solver(threshold)
        task = TaskDescription(task_id="mock", goal_index=0, env_spec=spec,
                               criterion=SuccessCriterion())
        store = TraceStore(StoreDims.from_net_config(cfg))
        _, rep = run_curriculum(
            [task], 100.0, 0.5, np.zeros(cfg.n_params), store,
            net_config=cfg, es_config=EsConfig(),
            consolidation_config=ConsolidationConfig(),
            replay_policy=ReplayPolicy(mode="all"),
            max_total_budget=max_total, solver=solver, consolidator=consolidator,
        )
        return rep, calls

    rep_fail, calls_fail = run(threshold=np.inf, max_total=25.0)
    unsolvable_ok = calls_fail[:3] == [100.0, 200.0, 400.0]

    rep_solve, calls_solve = run(threshold=400.0, max_total=1000.0)
    solve_rec = rep_solve.solved[0]
    solvable_ok = (calls_solve == [100.0, 200.0, 400.0]
                   and solve_rec.pass_number == 3
                   and solve_rec.budget_amount == 400.0
                   and rep_solve.final_budget == 100.0)
    report(6, "failed passes double the budget exactly; a solve resets it",
           unsolvable_ok and solvable_ok,
           f"failed-pass budgets {calls_fail[:3]}, solve budgets {calls_solve}")


# ---------------------------------------------------------------------------
# criterion 7: dream-phase isolation


def test_criterion_07_dream_phase_isolation(two_task_runs):
    deltas = [d for r in two_task_runs.values() for d in r.dream_env_steps]
    standalone_cfg = NetConfig(**NET, seed=3)
    store = TraceStore(StoreDims.from_net_config(standalone_cfg))
    rng = np.random.default_rng(3)
    for _ in range(3):
        w = rng.uniform(-0.5, 0.5, standalone_cfg.n_params)
        store.append(run_trial(Network(standalone_cfg, w), TASK_A,
                               seed=int(rng.integers(2**31))))
    before = step_counter.count
    consolidate(init_network(standalone_cfg)[1], store, ReplayPolicy(mode="all"),
                DREAM, net_config=standalone_cfg, steps=100)
    deltas.append(step_counter.count - before)
    report(7, "zero environment interactions during every consolidate call",
           bool(deltas) and all(d == 0 for d in deltas),
           f"{len(deltas)} consolidate calls instrumented")


# ---------------------------------------------------------------------------
# criterion 8: prediction improvement


def test_criterion_08_prediction_improvement():
    cfg = NetConfig(obs_dim=9, goal_dim=2, reward_dim=1, action_dim=4,
                    hidden_dim=16, seed=5)
    spec = GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2))
    task = TaskDescription(task_id="m", goal_index=0, env_spec=spec,
                           criterion=SuccessCriterion())
    store = TraceStore(StoreDims.from_net_config(cfg))
    rng = np.random.default_rng(0)
    while len(store) < 20:
        w = rng.uniform(-0.5, 0.5, cfg.n_params)
        store.append(run_trial(Network(cfg, w), task, seed=int(rng.integers(2**31))))

    _, weights = init_network(cfg)
    full_batch = build_batch(store.trials, cfg)

    def pred_mean(w):
        stats = term_stats(Network(cfg, w), full_batch)
        return stats["pred"] / stats["pred_steps"]

    before = pred_mean(weights)
    trained, rep = consolidate(
        weights, store, ReplayPolicy(mode="uniform_sample", k=5, rng_seed=1),
        ConsolidationConfig(base_lr=5e-4), net_config=cfg, steps=2000,
    )
    after = pred_mean(trained)
    report(8, "mean next-sense prediction error under 0.25x after 2000 steps",
           rep.steps_run == 2000 and after < 0.25 * before,
           f"{before:.4f} -> {after:.4f} (ratio {after / before:.3f})")


# ---------------------------------------------------------------------------
# criterion 9: store round-trip


def test_criterion_09_store_round_trip(tmp_path):
    dims = StoreDims(obs_dim=3, goal_dim=2, reward_dim=2, action_dim=2)
    store = TraceStore(dims)
    rng = np.random.default_rng(99)
    for i in range(100):
        t_len = int(rng.integers(1, 8))
        rewards = rng.normal(size=(t_len, dims.reward_dim))
        rows = np.array([
            np.concatenate([
                rng.normal(size=dims.obs_dim),
                rng.normal(size=dims.goal_dim),
                rewards[t],
                rng.normal(size=dims.action_dim),
                rng.normal(size=dims.pred_dim),
                rng.normal(size=dims.return_pred_dim),
            ])
            for t in range(t_len)
        ])
        success = bool(rng.random() < 0.5)
        trial = Trial(task_id=f"task{i % 7}", success=success,
                      relevant=success and rng.random() < 0.5,
                      timesteps=rows, final_return=float(rewards.sum()))
        store.append(trial)
    path = tmp_path / "roundtrip.jsonl"
    store.save(path)
    loaded = TraceStore.load(path)
    ok = len(loaded) == 100 and loaded.dims == dims
    ok = ok and all(a == b for a, b in zip(store, loaded))
    report(9, "100 randomized trials survive save/load bit-exactly", ok)


# ---------------------------------------------------------------------------
# criterion 10: race fairness


def test_criterion_10_race_fairness(two_task_runs):
    checked = 0
    ok = True
    details = []
    for run in two_task_runs.values():
        for outcome in run.outcomes:
            gap = abs(outcome.budget_spent["warm"] - outcome.budget_spent["scratch"])
            ok &= gap <= outcome.max_batch_cost
            checked += 1
            details.append(f"{gap:.0f}<={outcome.max_batch_cost:.0f}")
    report(10, "per-arm budgets differ by at most one generation's cost",
           checked > 0 and ok, f"{checked} outcomes checked")


# ---------------------------------------------------------------------------
# criterion 11: reproducibility


def write_run_config(tmp_path):
    config = {
        "master_seed": 7,
        "net": {"m": 9, "p": 4, "n": 1, "o": 4, "h": 12},
        "tasks": [
            {"task_id": "corner_ne", "goal_index": 0,
             "maze": {"width": 3, "height": 3, "start": [0, 0], "goal_cell": [2, 2]}},
            {"task_id": "corner_nw", "goal_index": 1,
             "maze": {"width": 3, "height": 3, "start": [0, 0], "goal_cell": [0, 2]}},
        ],
        "es": {"population": 8, "sigma": 0.2},
        "budgets": {"c0": 30000, "lambda": 0.04, "unit": "env_steps",
                    "max_total_budget": 400000},
        "consolidation": {"base_lr": 0.005, "replay": {"mode": "relevant_only"}},
        "paths": {"trace_file": "traces.jsonl", "metrics_file": "metrics.jsonl",
                  "checkpoint_dir": "ckpt"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_criterion_11_reproducibility(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        d.mkdir()
        assert main(["run", "--config", str(write_run_config(d))]) == 0
    metrics_equal = (dirs[0] / "metrics.jsonl").read_bytes() == \
        (dirs[1] / "metrics.jsonl").read_bytes()
    traces_equal = (dirs[0] / "traces.jsonl").read_bytes() == \
        (dirs[1] / "traces.jsonl").read_bytes()
    report(11, "identical config and seed give byte-identical metrics files",
           metrics_equal and traces_equal,
           f"metrics equal: {metrics_equal}, traces equal: {traces_equal}")


# ---------------------------------------------------------------------------
# criterion 12: transfer probe


def test_criterion_12_transfer_probe(two_task_runs, tmp_path, capsys):
    config = {
        "master_seed": 1,
        "net": {"m": 25, "p": 4, "n": 1, "o": 4, "h": 16},
        "tasks": [
            {"task_id": "A", "goal_index": 0,
             "maze": {"width": 5, "height": 5, "start": [0, 0], "goal_cell": [4, 4]}},
            {"task_id": "B", "goal_index": 1,
             "maze": {"width": 5, "height": 5, "start": [0, 0], "goal_cell": [0, 4]}},
            {"task_id": "C", "goal_index": 2,
             "maze": {"width": 5, "height": 5, "start": [0, 0], "goal_cell": [4, 0]}},
        ],
        "es": {"population": 8, "sigma": 0.2},
        "budgets": {"c0": 50000, "lambda": 0.04, "unit": "env_steps"},
        "paths": {"trace_file": "t.jsonl", "metrics_file": "m.jsonl",
                  "checkpoint_dir": "ckpt"},
    }
    config_path = tmp_path / "probe_config.json"
    config_path.write_text(json.dumps(config))

    ok = True
    details = []
    for run in two_task_runs.values():
        weights = run.weights
        if weights is None:  # seed never finished both tasks; probe from scratch
            _, weights = init_network(run.net_config)
        ckpt = tmp_path / f"seed{run.seed}.ckpt"
        save_checkpoint(ckpt, run.net_config, weights)
        code = main(["transfer-probe", "--checkpoint", str(ckpt),
                     "--config", str(config_path), "--task", "C",
                     "--seed", str(run.seed)])
        out = capsys.readouterr().out.strip()
        event = json.loads(out.splitlines()[-1])
        validate_event(event)
        ok &= code == 0
        ok &= event["budget_spent_warm"] > 0 and event["budget_spent_scratch"] >= 0
        details.append(f"seed {run.seed}: {event['status']}/{event['winner']} "
                       f"warm={event['budget_spent_warm']:.0f} "
                       f"scratch={event['budget_spent_scratch']:.0f}")
    report(12, "transfer probe emits a schema-valid report with both arms' "
               "budgets for all seeds", ok, "; ".join(details))
