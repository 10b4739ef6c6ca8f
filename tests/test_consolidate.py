import numpy as np
import pytest

from skillnet.consolidate import (
    ConsolidationConfig,
    build_targets,
    consolidate,
    retention_check,
    term_stats,
)
from skillnet.envs import (
    GridMazeSpec,
    SuccessCriterion,
    TaskDescription,
    step_counter,
)
from skillnet.evolve import Budget, EsConfig, try_solve_task
from skillnet.network import (
    NetConfig,
    Network,
    ReplayBatch,
    apply_regularizer,
    batch_loss,
    bptt_gradient,
    init_network,
)
from skillnet.rollout import run_trial
from skillnet.traces import ReplayPolicy, StoreDims, TraceStore, Trial
from reference import build_batch, replay_forward

CFG = NetConfig(obs_dim=2, goal_dim=2, reward_dim=1, action_dim=2, hidden_dim=4, seed=3)


def make_trial(rewards, task_id="t", success=False, relevant=False, rng=None):
    rng = rng or np.random.default_rng(0)
    rewards = np.asarray(rewards, dtype=np.float64).reshape(-1, CFG.reward_dim)
    rows = np.array([
        np.concatenate([
            rng.normal(size=CFG.obs_dim),
            rng.normal(size=CFG.goal_dim),
            rewards[t],
            rng.normal(size=CFG.action_dim),
            rng.normal(size=CFG.pred_width),
            rng.normal(size=CFG.return_width),
        ])
        for t in range(len(rewards))
    ])
    return Trial(task_id=task_id, success=success, relevant=relevant,
                 timesteps=rows, final_return=float(rewards.sum()))


def store_with(trials):
    store = TraceStore(StoreDims.from_net_config(CFG))
    for t in trials:
        tid = store.append(t)
        if t.relevant:
            store.mark_relevant(tid) if not store.get(tid).relevant else None
    return store


# ---------------------------------------------------------------------------
# targets and masks


def test_failed_trial_masks():
    trial = make_trial([-0.01, -0.01, -0.01], success=False)
    entry = build_targets(trial, relevant_now=False, config=CFG)
    assert np.array_equal(entry.action_mask, np.zeros(3))
    assert np.array_equal(entry.return_mask, np.zeros(3))
    assert np.array_equal(entry.pred_mask, np.array([1.0, 1.0, 0.0]))


def test_relevant_trial_masks_mirror_pred_mask():
    trial = make_trial([-0.01, -0.01, 1.0], success=True, relevant=True)
    entry = build_targets(trial, relevant_now=True, config=CFG)
    assert np.array_equal(entry.action_mask, np.array([1.0, 1.0, 0.0]))
    assert np.array_equal(entry.return_mask, entry.action_mask)


def test_remaining_reward_targets():
    trial = make_trial([-0.01, -0.01, 1.0], success=True)
    entry = build_targets(trial, relevant_now=True, config=CFG)
    # after the first step the remaining reward is -0.01 + 1.0
    assert entry.return_target[0, 0] == pytest.approx(0.99)
    assert entry.return_target[0, 1] == pytest.approx(0.99)  # total column
    assert entry.return_target[1, 0] == pytest.approx(1.0)
    assert np.allclose(entry.return_target[2], 0.0)


def test_prediction_targets_are_next_obs_and_reward():
    trial = make_trial([0.0, 0.5], success=False)
    entry = build_targets(trial, relevant_now=False, config=CFG)
    cols = StoreDims.from_net_config(CFG).columns
    expected = np.concatenate([trial.timesteps[1, cols["in"]], trial.timesteps[1, cols["r"]]])
    assert np.array_equal(entry.pred_target[0], expected)
    assert np.array_equal(entry.pred_target[1], np.zeros(CFG.pred_width))


def test_single_step_trial_masks_everything():
    trial = make_trial([0.3], success=True)
    entry = build_targets(trial, relevant_now=True, config=CFG)
    assert entry.pred_mask.sum() == 0
    assert entry.action_mask.sum() == 0
    assert entry.return_mask.sum() == 0


def test_vector_reward_remaining_sums_are_per_channel():
    cfg = NetConfig(obs_dim=2, goal_dim=1, reward_dim=2, action_dim=2, hidden_dim=3)
    rng = np.random.default_rng(1)
    rewards = np.array([[-0.01, 0.0], [-0.01, 0.0], [0.0, 1.0]])
    rows = np.array([
        np.concatenate([
            rng.normal(size=2), rng.normal(size=1), rewards[t],
            rng.normal(size=2), rng.normal(size=4), rng.normal(size=3),
        ])
        for t in range(3)
    ])
    trial = Trial(task_id="v", success=True, relevant=False, timesteps=rows,
                  final_return=float(rewards.sum()))
    entry = build_targets(trial, relevant_now=True, config=cfg)
    assert np.allclose(entry.return_target[0], [-0.01, 1.0, 0.99])
    assert np.allclose(entry.return_target[1], [0.0, 1.0, 1.0])


def test_term_stats_counts_each_terms_masked_steps():
    # relevant and failed trials of mixed lengths: each count is the sum of
    # that term's per-trial masks, whether or not the batch is padded yet
    rng = np.random.default_rng(9)
    trials = [make_trial(np.zeros(t_len), relevant=relevant, rng=rng)
              for t_len, relevant in ((4, True), (1, True), (6, False), (3, True), (2, False))]
    entries = build_batch(trials, CFG)
    net, _ = init_network(CFG)
    for batch in (entries, ReplayBatch(CFG, entries)):
        stats = term_stats(net, batch)
        for term in ("action", "pred", "return"):
            expected = sum(getattr(entry, f"{term}_mask").sum() for entry in entries)
            assert stats[f"{term}_steps"] == expected
            assert type(stats[f"{term}_steps"]) is int
        assert (stats["action_steps"], stats["pred_steps"], stats["return_steps"]) == (5, 11, 5)


def test_replayed_senses_reproduce_recorded_outputs():
    # replaying a recorded trial's input columns must give back, bit for bit,
    # the output columns the net wrote while acting (odd row width, so rows
    # start at varying alignments)
    spec = GridMazeSpec(width=4, height=3, start=(0, 0), goal_cell=(3, 2))
    task = TaskDescription(task_id="r", goal_index=1, env_spec=spec,
                           criterion=SuccessCriterion())
    for micro, activation in ((1, "tanh"), (3, "tanh"), (2, "sigmoid")):
        cfg = NetConfig(obs_dim=12, goal_dim=3, reward_dim=1, action_dim=4, hidden_dim=6,
                        micro_steps=micro, activation=activation, seed=4)
        net, _ = init_network(cfg)
        store = TraceStore(StoreDims.from_net_config(cfg))
        assert store.dims.row_width % 2 == 1
        trial = store.get(store.append(run_trial(net, task, seed=5)))
        assert len(trial) > 1
        entry = build_targets(trial, trial.relevant, cfg)
        outputs, _ = replay_forward(net, entry.senses)
        first_out = store.dims.columns["out"].start
        assert np.array_equal(outputs, trial.timesteps[:, first_out:])


# ---------------------------------------------------------------------------
# the dream loop


def relevant_store():
    rng = np.random.default_rng(5)
    store = TraceStore(StoreDims.from_net_config(CFG))
    trial = make_trial([-0.01, -0.01, 1.0], success=True, rng=rng)
    tid = store.append(trial)
    store.mark_relevant(tid)
    return store


def test_consolidation_reduces_cloning_loss():
    store = relevant_store()
    _, weights = init_network(CFG)
    new_weights, report = consolidate(
        weights, store, ReplayPolicy(mode="relevant_only"),
        ConsolidationConfig(base_lr=0.02), net_config=CFG, steps=200,
    )
    assert report.steps_run == 200
    assert report.final["action"] < report.initial["action"]
    assert report.final["total"] < report.initial["total"]
    assert not np.array_equal(new_weights, weights)


def test_zero_budget_is_a_noop():
    store = relevant_store()
    _, weights = init_network(CFG)
    new_weights, report = consolidate(
        weights, store, ReplayPolicy(mode="all"), ConsolidationConfig(),
        net_config=CFG, steps=0,
    )
    assert report.steps_run == 0
    assert np.array_equal(new_weights, weights)


def test_superseded_trials_train_prediction_only():
    rng = np.random.default_rng(6)
    store = TraceStore(StoreDims.from_net_config(CFG))
    for _ in range(3):
        store.append(make_trial([-0.01, -0.01, -0.01, -0.01], rng=rng))
    _, weights = init_network(CFG)
    new_weights, report = consolidate(
        weights, store, ReplayPolicy(mode="all"), ConsolidationConfig(base_lr=0.02),
        net_config=CFG, steps=150,
    )
    assert report.initial["action"] == 0.0
    assert report.final["action"] == 0.0
    assert report.final["pred"] < report.initial["pred"]


def test_all_masks_zero_leaves_weights_unchanged():
    rng = np.random.default_rng(7)
    store = TraceStore(StoreDims.from_net_config(CFG))
    store.append(make_trial([0.2], rng=rng))  # single-step: every mask is zero
    _, weights = init_network(CFG)
    new_weights, _ = consolidate(
        weights, store, ReplayPolicy(mode="all"), ConsolidationConfig(),
        net_config=CFG, steps=25,
    )
    assert np.array_equal(new_weights, weights)


def test_empty_replay_selection_raises():
    store = TraceStore(StoreDims.from_net_config(CFG))
    _, weights = init_network(CFG)
    with pytest.raises(ValueError, match="selected no trials"):
        consolidate(weights, store, ReplayPolicy(mode="all"), ConsolidationConfig(),
                    net_config=CFG, steps=5)


def test_diverging_loss_aborts_with_diagnostic():
    store = relevant_store()
    _, weights = init_network(CFG)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite"):
            consolidate(weights, store, ReplayPolicy(mode="all"),
                        ConsolidationConfig(base_lr=50.0), net_config=CFG, steps=500)


def test_one_gradient_step_decreases_loss_with_small_enough_lr():
    store = relevant_store()
    _, weights = init_network(CFG)
    policy = ReplayPolicy(mode="all")
    batch = build_batch(store.trials, CFG)
    before, _ = batch_loss(Network(CFG, weights), batch)
    lr = 0.1
    for _ in range(20):  # halve until descent; must terminate for smooth loss
        new_weights, _ = consolidate(
            weights, store, policy, ConsolidationConfig(base_lr=lr, momentum=0.0),
            net_config=CFG, steps=1,
        )
        after, _ = batch_loss(Network(CFG, new_weights), batch)
        if after <= before:
            break
        lr /= 2
    assert after <= before


def test_regularizer_applied_every_interval():
    store = relevant_store()
    _, weights = init_network(CFG)
    cfg_on = ConsolidationConfig(base_lr=1e-9, reg_interval=1, reg_strength=0.5)
    new_weights, _ = consolidate(weights, store, ReplayPolicy(mode="all"), cfg_on,
                                 net_config=CFG, steps=2)
    # lr is negligible, so the change is dominated by two decay steps
    assert np.allclose(new_weights, weights * 0.25, atol=1e-6)


def test_budget_argument_validation():
    store = relevant_store()
    _, weights = init_network(CFG)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        consolidate(weights, store, ReplayPolicy(mode="all"), ConsolidationConfig(),
                    net_config=CFG, steps=-1)


def test_no_environment_contact_during_consolidation():
    store = relevant_store()
    _, weights = init_network(CFG)
    before = step_counter.count
    consolidate(weights, store, ReplayPolicy(mode="all"), ConsolidationConfig(),
                net_config=CFG, steps=50)
    assert step_counter.count == before


def test_fixed_replay_selection_is_padded_and_validated_once(monkeypatch):
    # relevant_only selects the same trials at every step, so the padded
    # batch is built, and each trial validated, once per consolidate call
    import skillnet.network as network

    rng = np.random.default_rng(14)
    store = TraceStore(StoreDims.from_net_config(CFG))
    for rewards in ([-0.01, 1.0], [-0.01, -0.01, 1.0], [-0.01, -0.01, -0.01, 1.0]):
        store.mark_relevant(store.append(make_trial(rewards, success=True, rng=rng)))
    calls = []
    validate = network._validate_trial_targets
    monkeypatch.setattr(network, "_validate_trial_targets",
                        lambda cfg, trial: calls.append(trial) or validate(cfg, trial))
    _, weights = init_network(CFG)
    _, report = consolidate(weights, store, ReplayPolicy(mode="relevant_only"),
                            ConsolidationConfig(base_lr=0.02), net_config=CFG, steps=50)
    assert report.steps_run == 50
    assert len(calls) == 3


def reference_consolidate(weights, store, policy, config, *, net_config, steps):
    """The dream loop written plainly: every step selects its replay batch,
    builds new velocity and weight arrays and sets them on the net."""
    weights = np.asarray(weights, dtype=np.float64).copy()
    rng = np.random.default_rng(policy.rng_seed)
    net = Network(net_config, weights)

    def select_batch():
        return build_batch(store.sample_replay(policy, rng=rng), net_config)

    probe_batch = select_batch()
    initial = term_stats(net, probe_batch, config.term_weights)
    velocity = np.zeros_like(weights)
    for step_idx in range(steps):
        batch = probe_batch if step_idx == 0 else select_batch()
        grad, loss = bptt_gradient(net, batch, config.term_weights)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"consolidation diverged: non-finite loss at gradient step {step_idx}"
            )
        velocity = config.momentum * velocity + grad
        weights = weights - config.base_lr * velocity
        if not np.all(np.isfinite(weights)):
            raise RuntimeError(
                f"consolidation diverged: non-finite weights at gradient step {step_idx}"
            )
        if config.reg_interval > 0 and (step_idx + 1) % config.reg_interval == 0:
            weights = apply_regularizer(weights, config.reg_strength, config.reg_kind)
        net.set_weights(weights)
    return weights, initial, term_stats(net, probe_batch, config.term_weights)


def mixed_store():
    """Trials of several lengths, two of them relevant."""
    rng = np.random.default_rng(16)
    store = TraceStore(StoreDims.from_net_config(CFG))
    for i, n_steps in enumerate((3, 5, 2, 5, 4)):
        tid = store.append(make_trial([-0.01] * (n_steps - 1) + [1.0], success=True, rng=rng))
        if i % 2:
            store.mark_relevant(tid)
    return store


POLICIES = [ReplayPolicy(mode="all"), ReplayPolicy(mode="relevant_only"),
            ReplayPolicy(mode="recent", k=3), ReplayPolicy(mode="uniform_sample", k=2, rng_seed=4)]


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
@pytest.mark.parametrize("micro_steps", [1, 2, 3])
@pytest.mark.parametrize("reg_kind", [None, "decay", "prune"])
@pytest.mark.parametrize("policy", POLICIES, ids=[p.mode for p in POLICIES])
def test_dream_loop_matches_plain_loop_bit_for_bit(policy, reg_kind, micro_steps, activation):
    net_config = NetConfig(obs_dim=2, goal_dim=2, reward_dim=1, action_dim=2, hidden_dim=4,
                           micro_steps=micro_steps, activation=activation, seed=3)
    reg = {} if reg_kind is None else {"reg_interval": 3, "reg_strength": 0.05,
                                       "reg_kind": reg_kind}
    config = ConsolidationConfig(base_lr=0.05, **reg)
    store = mixed_store()
    _, weights = init_network(net_config)
    given = weights.copy()
    new_weights, report = consolidate(weights, store, policy, config,
                                      net_config=net_config, steps=20)
    assert np.array_equal(weights, given)  # the caller's array is left alone
    ref_weights, initial, final = reference_consolidate(given, store, policy, config,
                                                        net_config=net_config, steps=20)
    assert new_weights.tobytes() == ref_weights.tobytes()
    assert report.initial == initial and report.final == final


@pytest.mark.parametrize("base_lr, message", [
    (50.0, r"^consolidation diverged: non-finite loss at gradient step \d+$"),
    (1e308, r"^consolidation diverged: non-finite weights at gradient step 0$"),
])
def test_divergence_messages_match_plain_loop(base_lr, message):
    store = mixed_store()
    _, weights = init_network(CFG)
    config = ConsolidationConfig(base_lr=base_lr)
    policy = ReplayPolicy(mode="all")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=message) as expected:
            reference_consolidate(weights, store, policy, config, net_config=CFG, steps=50)
        with pytest.raises(RuntimeError) as got:
            consolidate(weights, store, policy, config, net_config=CFG, steps=50)
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# retention fixtures (seeded end-to-end at desk scale)


def corner_task_3x3():
    spec = GridMazeSpec(width=3, height=3, start=(0, 0), goal_cell=(2, 2))
    return TaskDescription(task_id="corner_ne", goal_index=0, env_spec=spec,
                           criterion=SuccessCriterion())


def test_fresh_random_net_fails_corner_task():
    cfg = NetConfig(obs_dim=9, goal_dim=2, reward_dim=1, action_dim=4,
                    hidden_dim=8, seed=2024)
    _, weights = init_network(cfg)
    results = retention_check(weights, [corner_task_3x3()], cfg, n_trials=5)
    assert not results["corner_ne"].passed
    assert results["corner_ne"].success_rate == 0.0


def test_retention_check_needs_a_trial():
    cfg = NetConfig(obs_dim=9, goal_dim=2, reward_dim=1, action_dim=4, hidden_dim=8)
    _, weights = init_network(cfg)
    with pytest.raises(ValueError, match="n_trials"):
        retention_check(weights, [corner_task_3x3()], cfg, n_trials=0)


def test_single_task_learned_then_consolidated_then_retained():
    cfg = NetConfig(obs_dim=9, goal_dim=2, reward_dim=1, action_dim=4,
                    hidden_dim=8, seed=77)
    task = corner_task_3x3()
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, weights = init_network(cfg)
    outcome = try_solve_task(weights, weights, task, Budget("env_steps", 50_000),
                             EsConfig(population=8, sigma=0.2, seed=11), store,
                             config=cfg)
    assert outcome.solved
    consolidated, report = consolidate(
        weights, store, ReplayPolicy(mode="relevant_only"),
        ConsolidationConfig(base_lr=0.05), net_config=cfg, steps=1500,
    )
    assert report.final["action"] < report.initial["action"]
    results = retention_check(consolidated, [task], cfg, n_trials=5, threshold=1.0)
    assert results["corner_ne"].passed


def test_consolidation_from_reloaded_trace_file(tmp_path):
    # the trace file is the contract between a training run and a later
    # consolidation-only run
    cfg = NetConfig(obs_dim=9, goal_dim=2, reward_dim=1, action_dim=4,
                    hidden_dim=8, seed=77)
    task = corner_task_3x3()
    store = TraceStore(StoreDims.from_net_config(cfg))
    _, weights = init_network(cfg)
    outcome = try_solve_task(weights, weights, task, Budget("env_steps", 50_000),
                             EsConfig(population=8, sigma=0.2, seed=11), store,
                             config=cfg)
    assert outcome.solved
    path = tmp_path / "traces.jsonl"
    store.save(path)

    reloaded = TraceStore.load(path)
    assert [t.trial_id for t in reloaded.relevant_trials()] == outcome.relevant_trial_ids
    consolidated, _ = consolidate(
        weights, reloaded, ReplayPolicy(mode="relevant_only"),
        ConsolidationConfig(base_lr=0.05), net_config=cfg, steps=1500,
    )
    results = retention_check(consolidated, [task], cfg, n_trials=5, threshold=1.0)
    assert results["corner_ne"].passed


def test_retention_check_counts_env_steps_outside_consolidation():
    cfg = NetConfig(obs_dim=9, goal_dim=2, reward_dim=1, action_dim=4, hidden_dim=4)
    _, weights = init_network(cfg)
    before = step_counter.count
    retention_check(weights, [corner_task_3x3()], cfg, n_trials=1)
    assert step_counter.count > before
