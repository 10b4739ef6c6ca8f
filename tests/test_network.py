import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from skillnet.network import (
    ACTIVATIONS,
    NetConfig,
    Network,
    ReplayBatch,
    TrialTargets,
    bptt_gradient,
    init_network,
    load_checkpoint,
    save_checkpoint,
    unpack_weights,
)
from skillnet.consolidate import term_stats
from reference import pack_weights, replay_forward


def small_config(**overrides):
    defaults = dict(obs_dim=2, goal_dim=2, reward_dim=1, action_dim=2, hidden_dim=3, seed=11)
    defaults.update(overrides)
    return NetConfig(**defaults)


def random_targets(cfg, t_len, rng, relevant=True):
    """Random replay entry with the standard mask shape (final step unmasked
    for prediction, action/return masks mirroring it when relevant)."""
    mask = np.zeros((t_len, 3))
    mask[:-1] = (relevant, 1.0, relevant)
    return TrialTargets(senses=rng.normal(size=(t_len, cfg.input_width)),
                        target=rng.normal(size=(t_len, cfg.output_width)), mask=mask)


def loss_and_terms(net, batch):
    """(total, per-term dict) of a replay batch's loss, read from term_stats."""
    stats = term_stats(net, batch)
    return stats["total"], {term: stats[term] for term in ("action", "pred", "return")}


# ---------------------------------------------------------------------------
# construction and initialization


def test_param_count_matches_independent_enumeration():
    cfg = NetConfig(obs_dim=1, goal_dim=1, reward_dim=1, action_dim=1, hidden_dim=1)
    # enumerate the documented topology by hand: input->hidden, hidden->hidden,
    # hidden bias, hidden->output, output bias
    m, p, n, o, h = 1, 1, 1, 1, 1
    i = m + p + n
    out = o + (m + n) + (n + 1)
    expected = h * i + h * h + h + out * h + out
    assert cfg.n_params == expected

    _, weights = init_network(cfg)
    assert weights.shape == (expected,)


def test_output_width_layout():
    cfg = small_config()
    assert cfg.output_width == cfg.action_dim + (cfg.obs_dim + cfg.reward_dim) + (cfg.reward_dim + 1)


def test_init_deterministic_given_seed():
    cfg = small_config(seed=7)
    _, w1 = init_network(cfg)
    _, w2 = init_network(cfg)
    assert np.array_equal(w1, w2)


def test_init_scale_zero_gives_zero_weights():
    cfg = small_config(init_scale=0.0)
    _, w = init_network(cfg)
    assert np.all(w == 0.0)


def test_init_range_bounded_by_scale():
    cfg = small_config(hidden_dim=20, init_scale=0.05)
    _, w = init_network(cfg)
    assert np.all(np.abs(w) <= 0.05)


@pytest.mark.parametrize("bad", [
    dict(obs_dim=0),
    dict(goal_dim=0),
    dict(reward_dim=0),
    dict(action_dim=0),
    dict(hidden_dim=0),
    dict(micro_steps=0),
    dict(activation="relu"),
    dict(hidden_dim=float("nan")),
    dict(init_scale=-0.1),
    dict(init_scale=float("nan")),
    dict(init_scale=float("inf")),
])
def test_invalid_config_rejected(bad):
    with pytest.raises(ValueError, match=f"^{next(iter(bad))} must"):
        small_config(**bad)


def test_weight_vector_length_enforced():
    cfg = small_config()
    with pytest.raises(ValueError):
        Network(cfg, np.zeros(cfg.n_params + 1))
    with pytest.raises(ValueError):
        Network(cfg, np.full(cfg.n_params, np.nan))


# ---------------------------------------------------------------------------
# forward pass


def test_zero_weights_give_zero_outputs():
    cfg = small_config(init_scale=0.0)
    net, _ = init_network(cfg)
    state = np.zeros(cfg.hidden_dim)
    sense = np.ones(cfg.input_width)
    new_state, y = net.step(state, sense)
    assert np.all(new_state == 0.0)
    assert np.all(y == 0.0)


def test_step_is_pure_and_repeatable():
    cfg = small_config()
    net, _ = init_network(cfg)
    rng = np.random.default_rng(0)
    state = rng.normal(size=cfg.hidden_dim)
    sense = rng.normal(size=cfg.input_width)
    state_before = state.copy()
    s1, o1 = net.step(state, sense)
    s2, o2 = net.step(state, sense)
    assert np.array_equal(state, state_before)
    assert np.array_equal(s1, s2)
    assert np.array_equal(o1, o2)


def reference_step(cfg, weights, state, sense):
    """Independent forward pass built from the documented flat layout."""
    h, i, o = cfg.hidden_dim, cfg.input_width, cfg.output_width
    idx = 0
    w_in = weights[idx:idx + h * i].reshape(h, i); idx += h * i
    w_rec = weights[idx:idx + h * h].reshape(h, h); idx += h * h
    b_h = weights[idx:idx + h]; idx += h
    w_out = weights[idx:idx + o * h].reshape(o, h); idx += o * h
    b_out = weights[idx:idx + o]
    s = state.copy()
    for _ in range(cfg.micro_steps):
        s = np.tanh(w_in @ sense + w_rec @ s + b_h)
    return s, w_out @ s + b_out


def test_micro_steps_change_result_and_match_reference():
    rng = np.random.default_rng(3)
    sense = rng.normal(size=5)
    results = {}
    for micro in (1, 2):
        cfg = small_config(micro_steps=micro, seed=5)
        net, weights = init_network(cfg)
        state = np.zeros(cfg.hidden_dim)
        new_state, y = net.step(state, sense)
        ref_state, ref_y = reference_step(cfg, weights, state, sense)
        assert np.allclose(new_state, ref_state, atol=0, rtol=0)
        assert np.allclose(y, ref_y, atol=0, rtol=0)
        results[micro] = new_state
    assert not np.array_equal(results[1], results[2])


def test_step_rejects_bad_inputs():
    cfg = small_config()
    net, _ = init_network(cfg)
    with pytest.raises(ValueError):
        net.step(np.zeros(cfg.hidden_dim + 1), np.zeros(cfg.input_width))
    with pytest.raises(ValueError):
        net.step(np.zeros(cfg.hidden_dim), np.zeros(cfg.input_width + 2))
    bad = np.zeros(cfg.input_width)
    bad[0] = np.inf
    with pytest.raises(ValueError):
        net.step(np.zeros(cfg.hidden_dim), bad)


def test_output_slices_partition_output_units():
    cfg = small_config()
    net, _ = init_network(cfg)
    rng = np.random.default_rng(1)
    state, y = net.step(np.zeros(cfg.hidden_dim), rng.normal(size=cfg.input_width))
    assert cfg.output_width == cfg.action_dim + cfg.obs_dim + 2 * cfg.reward_dim + 1
    assert y.shape == (cfg.output_width,)
    assert np.array_equal(y, net.w_out @ state + net.b_out)


def test_sigmoid_activation_supported():
    cfg = small_config(activation="sigmoid", init_scale=0.0)
    net, _ = init_network(cfg)
    state, _ = net.step(np.zeros(cfg.hidden_dim), np.zeros(cfg.input_width))
    assert np.allclose(state, 0.5)


# ---------------------------------------------------------------------------
# BPTT gradient


def test_all_zero_masks_give_zero_gradient_and_loss():
    cfg = small_config()
    net, _ = init_network(cfg)
    rng = np.random.default_rng(2)
    trial = random_targets(cfg, 4, rng)
    trial.mask[:] = 0.0
    grad, loss = bptt_gradient(net, ReplayBatch(cfg, [trial]))
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_duplicated_trial_doubles_gradient():
    cfg = small_config()
    net, _ = init_network(cfg)
    rng = np.random.default_rng(4)
    trial = random_targets(cfg, 3, rng)
    g1, l1 = bptt_gradient(net, ReplayBatch(cfg, [trial]))
    g2, l2 = bptt_gradient(net, ReplayBatch(cfg, [trial, trial]))
    assert l2 == pytest.approx(2 * l1)
    assert np.allclose(g2, 2 * g1, rtol=0, atol=1e-15)


def test_batch_gradient_is_sum_of_per_trial_gradients():
    cfg = small_config()
    net, _ = init_network(cfg)
    rng = np.random.default_rng(5)
    trials = [random_targets(cfg, t, rng) for t in (2, 3, 4)]
    g_all, l_all = bptt_gradient(net, ReplayBatch(cfg, trials))
    parts = [bptt_gradient(net, ReplayBatch(cfg, [t])) for t in trials]
    assert np.allclose(g_all, sum(g for g, _ in parts), atol=1e-14)
    assert l_all == pytest.approx(sum(l for _, l in parts))


def finite_difference_gradient(net, batch, eps=1e-5):
    """Central-difference loss gradient, independent of the BPTT path."""
    base = net.weights.copy()
    grad = np.zeros_like(base)
    for i in range(len(base)):
        w_plus = base.copy()
        w_plus[i] += eps
        w_minus = base.copy()
        w_minus[i] -= eps
        lp, _ = loss_and_terms(Network(net.config, w_plus), batch)
        lm, _ = loss_and_terms(Network(net.config, w_minus), batch)
        grad[i] = (lp - lm) / (2 * eps)
    return grad


def assert_gradients_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    denom = np.maximum(np.abs(numeric), atol / rtol)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < rtol, f"max relative error {rel.max():.3e}"


@pytest.mark.parametrize("micro_steps,t_len,seed", [(1, 3, 0), (2, 3, 1), (1, 5, 2), (3, 2, 3)])
def test_bptt_matches_finite_differences(micro_steps, t_len, seed):
    cfg = NetConfig(
        obs_dim=1, goal_dim=1, reward_dim=1, action_dim=1,
        hidden_dim=3, micro_steps=micro_steps, seed=seed,
    )
    assert cfg.n_params <= 50
    net, _ = init_network(cfg)
    rng = np.random.default_rng(seed + 100)
    batch = ReplayBatch(cfg, [random_targets(cfg, t_len, rng)])
    analytic, _ = bptt_gradient(net, batch)
    numeric = finite_difference_gradient(net, batch)
    assert_gradients_close(analytic, numeric)


def test_bptt_rejects_empty_batch_and_bad_shapes():
    cfg = small_config()
    net, _ = init_network(cfg)
    with pytest.raises(ValueError, match="empty"):
        bptt_gradient(net, ReplayBatch(cfg, []))
    rng = np.random.default_rng(6)
    for name, cut in (("mask", np.s_[:-1]), ("mask", np.s_[:, :2]),
                      ("target", np.s_[:, :-1]), ("senses", np.s_[:, 1:])):
        trial = random_targets(cfg, 3, rng)
        setattr(trial, name, getattr(trial, name)[cut])
        with pytest.raises(ValueError, match=f"^{name} must have shape"):
            bptt_gradient(net, ReplayBatch(cfg, [trial]))


def test_replay_forward_matches_online_stepping():
    # the training-time unrolled forward pass must agree bitwise with the
    # step-by-step pass used during rollouts
    for micro, activation in ((1, "tanh"), (3, "tanh"), (2, "sigmoid")):
        cfg = small_config(micro_steps=micro, activation=activation, seed=21)
        net, _ = init_network(cfg)
        rng = np.random.default_rng(31)
        senses = rng.normal(size=(6, cfg.input_width))
        outputs, states = replay_forward(net, senses)
        state = np.zeros(cfg.hidden_dim)
        for t in range(6):
            state, y = net.step(state, senses[t])
            assert np.array_equal(state, states[t, -1])
            assert np.array_equal(y, outputs[t])


def test_bptt_matches_finite_differences_sigmoid():
    cfg = NetConfig(obs_dim=1, goal_dim=1, reward_dim=1, action_dim=1,
                    hidden_dim=3, micro_steps=2, activation="sigmoid", seed=8)
    net, _ = init_network(cfg)
    rng = np.random.default_rng(88)
    batch = ReplayBatch(cfg, [random_targets(cfg, 4, rng)])
    analytic, _ = bptt_gradient(net, batch)
    numeric = finite_difference_gradient(net, batch)
    assert_gradients_close(analytic, numeric)


# ---------------------------------------------------------------------------
# the trial-batched BPTT against the plain per-trial loop


def reference_forward_trial(net, senses):
    """One trial's unrolled forward pass, one timestep at a time."""
    cfg = net.config
    t_len, k = senses.shape[0], cfg.micro_steps
    states = np.empty((t_len, k, cfg.hidden_dim))
    outputs = np.empty((t_len, cfg.output_width))
    state = np.zeros(cfg.hidden_dim)
    for t in range(t_len):
        drive = net.w_in @ senses[t] + net.b_h
        for j in range(k):
            state = net._act(drive + net.w_rec @ state)
            states[t, j] = state
        outputs[t] = net.w_out @ state + net.b_out
    return outputs, states


def reference_residuals(cfg, outputs, trial):
    o, pw = cfg.action_dim, cfg.pred_width
    a, p, r = slice(0, o), slice(o, o + pw), slice(o + pw, None)
    res_a = (outputs[:, a] - trial.target[:, a]) * trial.mask[:, 0:1]
    res_p = (outputs[:, p] - trial.target[:, p]) * trial.mask[:, 1:2]
    res_r = (outputs[:, r] - trial.target[:, r]) * trial.mask[:, 2:3]
    losses = (float(np.sum(res_a * res_a)), float(np.sum(res_p * res_p)),
              float(np.sum(res_r * res_r)))
    return (res_a, res_p, res_r), losses


def reference_batch_loss(net, batch):
    per_term = {"action": 0.0, "pred": 0.0, "return": 0.0}
    for trial in batch:
        outputs, _ = reference_forward_trial(net, trial.senses)
        _, (la, lp, lr) = reference_residuals(net.config, outputs, trial)
        per_term["action"] += la
        per_term["pred"] += lp
        per_term["return"] += lr
    total = 0.0  # not sum(), which compensates from Python 3.12
    for loss in per_term.values():
        total += loss
    return total, per_term


def reference_bptt_gradient(net, batch):
    """The per-trial BPTT loop: every trial and timestep on its own."""
    cfg = net.config
    k = cfg.micro_steps
    o, pw = cfg.action_dim, cfg.pred_width
    g_w_in = np.zeros_like(net.w_in)
    g_w_rec = np.zeros_like(net.w_rec)
    g_b_h = np.zeros_like(net.b_h)
    g_w_out = np.zeros_like(net.w_out)
    g_b_out = np.zeros_like(net.b_out)
    total_loss = 0.0
    for trial in batch:
        t_len = len(trial)
        outputs, states = reference_forward_trial(net, trial.senses)
        (res_a, res_p, res_r), losses = reference_residuals(cfg, outputs, trial)
        total_loss += sum(losses)
        d_y = np.zeros((t_len, cfg.output_width))
        d_y[:, :o] = 2.0 * res_a
        d_y[:, o : o + pw] = 2.0 * res_p
        d_y[:, o + pw :] = 2.0 * res_r
        g_w_out += d_y.T @ states[:, k - 1, :]
        g_b_out += d_y.sum(axis=0)
        prev = np.zeros_like(states)
        prev[:, 1:, :] = states[:, :-1, :]
        prev[1:, 0, :] = states[:-1, k - 1, :]
        d_z = np.empty_like(states)
        d_state = np.zeros(cfg.hidden_dim)
        for t in range(t_len - 1, -1, -1):
            d_state = d_state + net.w_out.T @ d_y[t]
            for j in range(k - 1, -1, -1):
                dz = d_state * net._act_deriv(states[t, j])
                d_z[t, j] = dz
                d_state = net.w_rec.T @ dz
        dz_flat = d_z.reshape(t_len * k, cfg.hidden_dim)
        g_w_in += dz_flat.T @ np.repeat(trial.senses, k, axis=0)
        g_w_rec += dz_flat.T @ prev.reshape(t_len * k, cfg.hidden_dim)
        g_b_h += dz_flat.sum(axis=0)
    return pack_weights(g_w_in, g_w_rec, g_b_h, g_w_out, g_b_out), total_loss


@st.composite
def replay_cases(draw):
    """A random net and a batch of 1-5 trials of mixed lengths 1-8."""
    cfg = NetConfig(
        obs_dim=draw(st.integers(1, 3)), goal_dim=draw(st.integers(1, 2)),
        reward_dim=draw(st.integers(1, 2)), action_dim=draw(st.integers(1, 3)),
        hidden_dim=draw(st.integers(1, 6)), micro_steps=draw(st.integers(1, 3)),
        activation=draw(st.sampled_from(["tanh", "sigmoid"])),
        seed=draw(st.integers(0, 2**16)), init_scale=draw(st.sampled_from([0.1, 0.5, 1.5])),
    )
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    batch = []
    for t_len in lengths:
        batch.append(TrialTargets(
            senses=rng.normal(size=(t_len, cfg.input_width)),
            target=rng.normal(size=(t_len, cfg.output_width)),
            mask=(rng.random((t_len, 3)) < 0.7).astype(float),  # arbitrary 0/1 masks
        ))
    return cfg, batch


def one_unit_case(lengths, micro_steps):
    """A net with hidden_dim 1, whose batch keeps its recurrent buffers
    batch-major, and a batch of trials of the given lengths."""
    cfg = NetConfig(obs_dim=2, goal_dim=1, reward_dim=1, action_dim=2, hidden_dim=1,
                    micro_steps=micro_steps, seed=sum(lengths), init_scale=0.5)
    rng = np.random.default_rng(micro_steps)
    return cfg, [random_targets(cfg, t_len, rng) for t_len in lengths]


@settings(max_examples=150, deadline=None)
@given(replay_cases())
@example(one_unit_case([3, 3], 1))
@example(one_unit_case([3, 3], 2))
@example(one_unit_case([1, 3], 1))
@example(one_unit_case([1, 3], 2))
def test_batched_bptt_equals_per_trial_loop_bit_for_bit(case):
    cfg, batch = case
    net, _ = init_network(cfg)
    ref_grad, ref_loss = reference_bptt_gradient(net, batch)
    ref_total, ref_terms = reference_batch_loss(net, batch)
    replay = ReplayBatch(cfg, batch)
    grad, loss = bptt_gradient(net, replay)
    assert np.array_equal(grad, ref_grad)
    assert grad.tobytes() == ref_grad.tobytes()  # signed zeros too
    assert loss == ref_loss
    total, terms = loss_and_terms(net, replay)
    assert total == ref_total
    assert terms == ref_terms


@settings(max_examples=60, deadline=None)
@given(replay_cases(), st.integers(0, 2**16))
@example(one_unit_case([1, 3], 1), 0)
@example(one_unit_case([1, 3], 2), 0)
def test_reused_batch_gives_the_same_bits_on_every_call(case, seed):
    # a ReplayBatch keeps its work buffers between calls; under new weights,
    # and with losses and gradients interleaved, every call must match a
    # fresh batch and the per-trial loop bit for bit, so no buffer may carry
    # state over (padded rows past a trial's end stay zero)
    cfg, batch = case
    assume(len({len(trial) for trial in batch}) > 1)
    reused = ReplayBatch(cfg, batch)
    rng = np.random.default_rng(seed)
    for scale in (0.1, 1.0, 2.5):
        net = Network(cfg, rng.uniform(-scale, scale, cfg.n_params))
        ref_grad, ref_loss = reference_bptt_gradient(net, batch)
        ref_loss_only = reference_batch_loss(net, batch)
        for _ in range(2):
            assert loss_and_terms(net, reused) == ref_loss_only
            assert loss_and_terms(net, ReplayBatch(cfg, batch)) == ref_loss_only
            for given_batch in (reused, ReplayBatch(cfg, batch)):
                grad, loss = bptt_gradient(net, given_batch)
                assert grad.tobytes() == ref_grad.tobytes()
                assert loss == ref_loss
        for row, b in enumerate(reused.order):
            assert not reused.hs[row, 1 + len(batch[b]) * cfg.micro_steps:].any()


@pytest.mark.parametrize("obs_dim,hidden_dim", [(25, 16), (81, 32)])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("micro_steps", [1, 2])
def test_batched_bptt_equals_per_trial_loop_at_workload_shapes(obs_dim, hidden_dim, activation,
                                                               micro_steps):
    # the maze workloads' nets are past the hypothesis cases' sizes, where
    # one-row and stacked BLAS calls could take different kernels
    cfg = NetConfig(obs_dim=obs_dim, goal_dim=4, reward_dim=1, action_dim=4,
                    hidden_dim=hidden_dim, micro_steps=micro_steps, activation=activation,
                    seed=obs_dim + hidden_dim, init_scale=0.5)
    net, _ = init_network(cfg)
    rng = np.random.default_rng(micro_steps)
    for lengths in ([9], [11, 5], [33, 9], rng.integers(1, 25, 32).tolist()):
        batch = [random_targets(cfg, t_len, rng, relevant=rng.random() < 0.5)
                 for t_len in lengths]
        ref_grad, ref_loss = reference_bptt_gradient(net, batch)
        replay = ReplayBatch(cfg, batch)
        grad, loss = bptt_gradient(net, replay)
        assert grad.tobytes() == ref_grad.tobytes()  # signed zeros too
        assert loss == ref_loss
        assert loss_and_terms(net, replay) == reference_batch_loss(net, batch)


def test_reused_batch_gradient_allocates_no_batch_sized_buffer():
    # after the first call, a gradient on a reused batch allocates only the
    # returned gradient, the per-trial gradients gathered in trial order and
    # numpy's fixed-size iterator buffers (at most three operands, of
    # np.getbufsize() elements each)
    cfg = small_config(obs_dim=25, goal_dim=4, action_dim=4, hidden_dim=16)
    net, _ = init_network(cfg)
    rng = np.random.default_rng(16)
    batch = ReplayBatch(cfg, [random_targets(cfg, t_len, rng) for t_len in (6000, 2000, 1000)])
    grad, _ = bptt_gradient(net, batch)
    bound = grad.nbytes * (1 + len(batch)) + 3 * np.getbufsize() * 8 + 16384
    # the narrowest batch-sized buffer: the return term's squares
    assert batch.mask[..., batch.spans[2]].nbytes > bound
    tracemalloc.start()
    try:
        bptt_gradient(net, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_replay_batch_arrays_are_read_only():
    cfg = small_config()
    rng = np.random.default_rng(15)
    batch = ReplayBatch(cfg, [random_targets(cfg, t, rng) for t in (3, 2)])
    for name in ("order", "live", "senses", "target", "mask"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(batch, name)[0] = 0


@pytest.mark.parametrize("micro_steps", [1, 2])
def test_replay_batch_steps_running_trials_in_contiguous_blocks(micro_steps):
    # the recurrent buffers lie time-major behind their (B, time, h) views,
    # so each wide step's running rows are one C-contiguous (n, h) block;
    # at h = 1 they stay batch-major
    rng = np.random.default_rng(17)
    for hidden_dim in (1, 2, 3, 16):
        cfg = small_config(hidden_dim=hidden_dim, micro_steps=micro_steps)
        batch = ReplayBatch(cfg, [random_targets(cfg, t, rng) for t in (2, 5, 3, 5, 1)])
        if hidden_dim == 1:
            assert batch.hs.flags.c_contiguous and batch.d_act.flags.c_contiguous
            continue
        assert batch.forward_wide and batch.backward_wide
        for state_in, _, _, drive, state in batch.forward_wide:
            assert state_in.flags.c_contiguous and drive.flags.c_contiguous
            assert state.flags.c_contiguous
        for _, _, from_out, d_act, dz, _ in batch.backward_wide:
            assert d_act.flags.c_contiguous and dz.flags.c_contiguous
            assert from_out is None or from_out.flags.c_contiguous


def test_replay_batch_iterates_trials_in_order_and_pads_with_zero_masks():
    cfg = small_config()
    rng = np.random.default_rng(12)
    trials = [random_targets(cfg, t, rng) for t in (2, 5, 3, 5)]
    batch = ReplayBatch(cfg, trials)
    assert list(batch) == trials
    assert len(batch) == 4 and sum(len(t) for t in batch) == 15
    assert batch.senses.shape == (4, 5, cfg.input_width)
    assert batch.live.tolist() == [4, 4, 3, 2, 2]
    assert batch.order.tolist() == [1, 3, 2, 0]
    assert batch.trial_order.tolist() == [3, 0, 2, 1]
    for row, b in enumerate(batch.order):
        t_len = len(trials[b])
        assert np.all(batch.mask[row, t_len:] == 0.0)
        assert np.all(batch.target[row, t_len:] == 0.0)
        assert np.array_equal(batch.senses[row, :t_len], trials[b].senses)


def test_replay_batch_validates_every_trial():
    cfg = small_config()
    rng = np.random.default_rng(13)
    trials = [random_targets(cfg, 3, rng), random_targets(cfg, 2, rng)]
    trials[1].target = trials[1].target[:, :1]
    with pytest.raises(ValueError, match="target"):
        ReplayBatch(cfg, trials)
    with pytest.raises(ValueError, match="empty"):
        ReplayBatch(cfg, [])


# ---------------------------------------------------------------------------
# weight packing and checkpoints


def test_pack_unpack_round_trip():
    cfg = small_config()
    _, w = init_network(cfg)
    assert np.array_equal(pack_weights(*unpack_weights(cfg, w)), w)


def test_checkpoint_round_trip(tmp_path):
    cfg = small_config(micro_steps=2, seed=13)
    _, w = init_network(cfg)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, cfg, w)
    cfg2, w2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert np.array_equal(w, w2)


def test_checkpoint_rejects_bad_version(tmp_path):
    path = tmp_path / "net.ckpt"
    path.write_text('{"format_version": 99}\n{"weights": []}\n')
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [
    ("format_version", True),
    ("format_version", 1.0),
    ("h", 16.0),
    ("m", "25"),
    ("p", True),
    ("micro_steps", 0),
    ("n", -1),
    ("o", None),
    ("seed", "x"),
    ("seed", 1.5),
    ("seed", -1),
    ("init_scale", True),
    ("bogus", 1),
])
def test_checkpoint_header_types_checked(tmp_path, key, value):
    cfg = small_config()
    _, w = init_network(cfg)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, cfg, w)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header[key] = value
    path.write_text(json.dumps(header) + "\n" + lines[1] + "\n")
    with pytest.raises(ValueError, match=key):
        load_checkpoint(path)


@pytest.mark.parametrize("value, message", [
    (True, r"weights\[0\]: must be a number"),
    ("0.1", r"weights\[0\]: must be a number"),
    (float("nan"), r"weights\[0\]: must be a finite number"),
    pytest.param(10**400, r"weights\[0\]: must fit in a float", id="int-beyond-float"),
    # a dict is merged into the weights line, a list appended as lines after it
    pytest.param({"junk": 1}, r"^junk: unknown field$", id="extra-key"),
    pytest.param(["garbage"], r"^line 3: unexpected after the weights line$", id="third-line"),
])
def test_checkpoint_weights_checked_not_coerced(tmp_path, value, message):
    cfg = small_config()
    _, w = init_network(cfg)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, cfg, w)
    lines = path.read_text().splitlines()
    body, tail = json.loads(lines[1]), []
    if isinstance(value, dict):
        body.update(value)
    elif isinstance(value, list):
        tail = value
    else:
        body["weights"][0] = value
    path.write_text("\n".join([lines[0], json.dumps(body), *tail]) + "\n")
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


def test_checkpoint_weights_count_checked(tmp_path):
    cfg = small_config()
    _, w = init_network(cfg)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, cfg, w)
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n" + json.dumps({"weights": w.tolist()[:-1]}) + "\n")
    with pytest.raises(ValueError, match=f"weights: must be a list of {cfg.n_params} numbers"):
        load_checkpoint(path)
