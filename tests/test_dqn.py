import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dosebench import nets
from dosebench.dqn import (DqnConfig, ReplayBuffer, bin_to_rate, eps_schedule,
                           featurize, select_action, train_dqn, train_step,
                           uniform_probs, warm_start_fill, zero_biased_probs)
from dosebench.env import OBS_DIM, GlucoseEnv
from dosebench.patients import Cohort


def test_zero_biased_prior_value_for_eleven_bins():
    probs = zero_biased_probs(11)
    assert probs[0] == pytest.approx(132.0 / 232.0)
    assert probs[0] == pytest.approx(0.5690, abs=1e-4)
    assert np.all(probs[1:] == (1 - probs[0]) / 10)


@given(st.integers(min_value=2, max_value=101))
def test_zero_biased_prior_consistency(n):
    probs = zero_biased_probs(n)
    assert probs.shape == (n,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert probs[0] / probs[1] == pytest.approx(n * (n + 1) / (n - 1),
                                                abs=1e-10)
    assert np.all(probs[1:] == probs[1])
    assert probs[0] > probs[1] > 0


def test_uniform_probs():
    assert np.allclose(uniform_probs(11), 1.0 / 11)
    with pytest.raises(ValueError):
        uniform_probs(1)
    with pytest.raises(ValueError):
        zero_biased_probs(1)


def test_bin_to_rate_grid():
    assert [bin_to_rate(b) for b in range(11)] == \
        pytest.approx([0.9 * b for b in range(11)])
    assert bin_to_rate(10) == 9.0
    with pytest.raises(ValueError):
        bin_to_rate(11)
    with pytest.raises(ValueError):
        bin_to_rate(-1)


def test_eps_schedule_endpoints_and_monotonicity():
    cfg = DqnConfig()
    total = 9600
    assert eps_schedule(0, total, cfg) == pytest.approx(0.9)
    assert eps_schedule(total - 1, total, cfg) == pytest.approx(0.1)
    assert eps_schedule(2 * total, total, cfg) == pytest.approx(0.1)
    values = [eps_schedule(s, total, cfg) for s in range(0, total, 480)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert eps_schedule(5, 1, cfg) == cfg.eps_final


def test_featurize_scaling():
    flat = np.tile([200.0, 9.0, 2.25], 16)
    assert np.allclose(featurize(flat), 1.0)
    assert featurize(np.zeros(48)).shape == (48,)


def test_replay_buffer_ring_and_sampling():
    buf = ReplayBuffer(capacity=5)
    for i in range(8):
        buf.add(np.full(OBS_DIM, i), i % 3, float(i), np.full(OBS_DIM, i + 1),
                i % 2 == 0)
    assert buf.size == 5
    # Oldest three entries were overwritten by 5, 6, 7.
    stored = sorted(buf.rewards.tolist())
    assert stored == [3.0, 4.0, 5.0, 6.0, 7.0]

    rng = np.random.default_rng(0)
    obs, actions, rewards, next_obs, term = buf.sample(5, rng)
    assert sorted(rewards.tolist()) == stored  # without replacement
    assert np.array_equal(obs, np.repeat(rewards[:, None], OBS_DIM, axis=1))
    assert np.array_equal(next_obs, obs + 1)
    with pytest.raises(ValueError):
        buf.sample(6, rng)


def test_select_action_greedy_tie_breaks_to_lowest_bin():
    net = nets.DenseNet([48, 11], np.zeros(48 * 11 + 11))
    rng = np.random.default_rng(0)
    a = select_action(net, np.zeros(48), eps=0.0,
                      probs=uniform_probs(11), rng=rng)
    assert a == 0

    net.biases[0][7] = 1.0
    assert select_action(net, np.zeros(48), 0.0, uniform_probs(11), rng) == 7
    with pytest.raises(ValueError):
        select_action(net, np.zeros(48), 1.5, uniform_probs(11), rng)


def test_select_action_exploration_follows_prior():
    net = nets.DenseNet([48, 11], np.zeros(48 * 11 + 11))
    probs = zero_biased_probs(11)
    rng = np.random.default_rng(1)
    draws = np.array([select_action(net, np.zeros(48), 1.0, probs, rng)
                      for _ in range(4000)])
    freq0 = float(np.mean(draws == 0))
    assert abs(freq0 - probs[0]) < 0.03
    other = np.bincount(draws[draws > 0], minlength=11)[1:] / len(draws)
    assert np.all(np.abs(other - probs[1:]) < 0.02)


def test_td_target_hand_computed():
    # Zeroed Q and target nets make the TD target equal the reward, and the
    # loss the mean squared reward.
    cfg = DqnConfig(gamma=0.5, lr=0.0)
    qnet = nets.DenseNet([48, 11], np.zeros(48 * 11 + 11))
    target = qnet.copy()
    target.biases[0][:] = 2.0  # max Q_target = 2 everywhere
    opt = nets.make_optimizer(qnet, learning_rate=0.0)
    obs = np.zeros((2, 48))
    batch = (obs, np.array([3, 4]), np.array([1.0, -1.0]), obs,
             np.array([False, True]))
    loss = train_step(qnet, target, batch, opt, cfg)
    # targets: 1 + 0.5*2 = 2 (bootstrapped), -1 (terminal masks bootstrap)
    assert loss == pytest.approx((2.0 ** 2 + 1.0 ** 2) / 2)


def test_train_step_overfits_single_transition():
    cfg = DqnConfig(gamma=0.0, lr=1e-2)
    qnet = nets.init_standard([48, 16, 11], seed=0)
    target = qnet.copy()
    opt = nets.make_optimizer(qnet, learning_rate=cfg.lr)
    rng = np.random.default_rng(0)
    obs = rng.normal(size=(1, 48))
    batch = (obs, np.array([5]), np.array([3.0]), obs, np.array([True]))
    losses = [train_step(qnet, target, batch, opt, cfg) for _ in range(300)]
    assert losses[-1] < 1e-3 < losses[0]
    with pytest.raises(ValueError):
        train_step(qnet, target, (obs[:0], np.array([], dtype=int),
                                  np.array([]), obs[:0],
                                  np.array([], dtype=bool)), opt, cfg)


def test_warm_start_uses_only_low_bins():
    buf = ReplayBuffer(capacity=200)
    env = GlucoseEnv(Cohort.ADULT, 0)
    warm_start_fill(buf, env, 150, np.random.default_rng(0))
    assert buf.size == 150
    assert set(np.unique(buf.actions[:150])) <= {0, 1, 2}
    with pytest.raises(ValueError):
        warm_start_fill(buf, env, -1, np.random.default_rng(0))


def test_train_dqn_smoke_and_determinism():
    cfg = DqnConfig(epochs=2, steps_per_epoch=80, warm_start_steps=140,
                    batch_size=32)
    runs = [train_dqn("adult", cfg, seed=3) for _ in range(2)]
    for res in runs:
        assert len(res.checkpoints) == 2
        assert len(res.log) == 2
        assert [e.epoch for e in res.log] == [0, 1]
    a, b = runs
    assert [vars(x) for x in a.log] == [vars(y) for y in b.log]
    for (_, na), (_, nb) in zip(a.checkpoints, b.checkpoints):
        for w1, w2 in zip(na.weights, nb.weights):
            assert np.array_equal(w1, w2)
