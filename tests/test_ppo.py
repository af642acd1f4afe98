import math
from itertools import chain, islice, repeat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from dosebench import nets, ppo
from dosebench.ppo import (PpoConfig, PpoUpdateError, RolloutBuffer, act_clip,
                           default_mu_offset, gae, log_prob_clip,
                           log_prob_tanh_z, make_policy, ppo_update,
                           squash_tanh, train_ppo, unsquash_tanh,
                           warm_start_ppo)
from dosebench.env import OBS_DIM, GlucoseEnv, featurize, rollout
from dosebench.patients import Cohort

from _helpers import log_prob_tanh_grad
from _oracles import gae_brute_force


def test_tanh_transform_round_trip_and_bounds():
    for z in (-15.0, -2.0, 0.0, 1.3, 15.0):
        a = squash_tanh(z)
        assert 0.0 < a < 9.0
        if abs(z) < 10:
            assert unsquash_tanh(a) == pytest.approx(z, abs=1e-9)
    assert squash_tanh(0.0) == pytest.approx(4.5)
    with pytest.raises(ValueError):
        unsquash_tanh(0.0)
    with pytest.raises(ValueError):
        unsquash_tanh(9.0)


def test_clip_transform_saturates():
    assert act_clip(-5.0) == 0.0
    assert act_clip(5.0) == 9.0
    assert act_clip(0.0) == 4.5
    assert act_clip(0.5) == pytest.approx(6.75)


def test_tanh_density_integrates_to_one():
    rng = np.random.default_rng(42)
    for _ in range(20):
        mu = float(rng.uniform(-2.0, 2.0))
        sigma = float(rng.uniform(0.3, 1.5))
        total, err = quad(
            lambda a: math.exp(log_prob_tanh_z(unsquash_tanh(a), mu, sigma)),
            1e-9, 9 - 1e-9, limit=200)
        assert 0.999 <= total <= 1.001, (mu, sigma, total)


def test_tanh_log_density_against_naive_change_of_variables():
    # Naive formula: gaussian pdf of z minus log|da/dz|.
    for a, mu, sigma in ((1.0, 0.3, 0.8), (4.5, -1.0, 0.5), (8.2, 2.0, 1.2)):
        z = math.atanh(2 * a / 9 - 1)
        jac = 9 / 2 * (1 - math.tanh(z) ** 2)
        naive = (-0.5 * ((z - mu) / sigma) ** 2
                 - math.log(sigma * math.sqrt(2 * math.pi)) - math.log(jac))
        assert log_prob_tanh_z(unsquash_tanh(a), mu, sigma) == \
            pytest.approx(naive, abs=1e-10)


def test_tanh_log_density_stable_for_extreme_logits():
    val = log_prob_tanh_z(50.0, 0.0, 1.0)
    assert math.isfinite(val)
    val = log_prob_tanh_z(-50.0, 0.0, 1.0)
    assert math.isfinite(val)


def test_tanh_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(25):
        a = float(rng.uniform(0.2, 8.8))
        mu = float(rng.uniform(-2, 2))
        sigma = float(rng.uniform(0.3, 1.5))
        d_mu, d_sigma = log_prob_tanh_grad(a, mu, sigma)
        z = unsquash_tanh(a)
        fd_mu = (log_prob_tanh_z(z, mu + h, sigma)
                 - log_prob_tanh_z(z, mu - h, sigma)) / (2 * h)
        fd_sigma = (log_prob_tanh_z(z, mu, sigma + h)
                    - log_prob_tanh_z(z, mu, sigma - h)) / (2 * h)
        assert d_mu == pytest.approx(fd_mu, rel=1e-4, abs=1e-6)
        assert d_sigma == pytest.approx(fd_sigma, rel=1e-4, abs=1e-6)


def test_clip_density_is_plain_gaussian():
    assert log_prob_clip(0.0, 0.0, 1.0) == \
        pytest.approx(-0.5 * math.log(2 * math.pi))
    assert log_prob_clip(2.0, 0.0, 2.0) == pytest.approx(
        -0.5 - math.log(2.0) - 0.5 * math.log(2 * math.pi))


def test_gae_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        t_len = int(rng.integers(1, 7))
        rewards = rng.normal(size=t_len)
        values = rng.normal(size=t_len)
        next_values = rng.normal(size=t_len)
        terminals = rng.random(t_len) < 0.3
        gamma = float(rng.uniform(0.8, 1.0))
        lam = float(rng.uniform(0.8, 1.0))
        adv, rets = gae(rewards, values, next_values, terminals, gamma, lam)
        o_adv, o_rets = gae_brute_force(rewards, values, next_values,
                                        terminals, gamma, lam)
        assert np.allclose(adv, o_adv, atol=1e-10)
        assert np.allclose(rets, o_rets, atol=1e-10)


def test_gae_validation_and_simple_case():
    with pytest.raises(ValueError):
        gae([1.0], [0.0], [0.0], [False, True], 0.99, 0.95)
    adv, rets = gae([1.0], [0.5], [2.0], [True], 0.9, 0.95)
    assert adv[0] == pytest.approx(0.5)      # terminal masks the bootstrap
    assert rets[0] == pytest.approx(1.0)


@given(st.integers(min_value=1, max_value=6), st.integers(0, 2**31 - 1))
def test_gae_property_random_instances(t_len, seed):
    rng = np.random.default_rng(seed)
    rewards = rng.normal(size=t_len)
    values = rng.normal(size=t_len)
    next_values = rng.normal(size=t_len)
    terminals = rng.random(t_len) < 0.5
    adv, _ = gae(rewards, values, next_values, terminals, 0.99, 0.95)
    o_adv, _ = gae_brute_force(rewards, values, next_values, terminals,
                               0.99, 0.95)
    assert np.allclose(adv, o_adv, atol=1e-10)


def test_default_mu_offset_targets_half_unit():
    off = default_mu_offset("tanh")
    assert squash_tanh(off) == pytest.approx(0.5, abs=1e-12)
    assert default_mu_offset("clip") == 0.0


def test_fresh_tanh_policy_starts_conservative():
    policy = make_policy(PpoConfig(transform="tanh"), seed=0)
    (a,) = policy.mean_actions(np.zeros((1, 1, 48)))
    assert a == pytest.approx(0.5, abs=0.05)
    z, a, logp = policy.sample(np.zeros(48), np.random.default_rng(0))
    assert 0.0 < a < 9.0
    assert math.isfinite(logp)


def test_warm_start_ppo_doses_low():
    buf = RolloutBuffer()
    env = GlucoseEnv(Cohort.ADULT, 0)
    warm_start_ppo(buf, env, 100, np.random.default_rng(0), "tanh")
    assert len(buf) == 100
    _, z, logp, *_ = buf.arrays()
    doses = np.array([squash_tanh(zi) for zi in z])
    assert np.all((doses >= 0.0) & (doses <= 2.0 + 1e-12))
    assert np.allclose(logp, math.log(0.5))
    assert np.all(np.isfinite(z))
    with pytest.raises(ValueError):
        warm_start_ppo(buf, env, -5, np.random.default_rng(0), "tanh")


def _tiny_rollout(policy, n=64, seed=0):
    rng = np.random.default_rng(seed)

    def act(obs, env):
        z, a, logp = policy.sample(featurize(obs), rng)
        return (z, a, logp), float(np.clip(a, 0, 9))

    env = GlucoseEnv(Cohort.ADULT, 0)
    seeds = chain([seed], repeat(seed + 1))
    buf = RolloutBuffer()
    for obs, (z, a, logp), res, _ in islice(
            rollout([env], act, seeds.__next__), n):
        buf.add(obs, z, logp, res.reward, 0.0, 0.0,
                res.terminated or res.truncated)
    return buf


def test_ppo_update_runs_and_reports_finite_stats():
    cfg = PpoConfig(repeat_per_collect=3, batch_size=32)
    policy = make_policy(cfg, seed=0)
    value_net = nets.init_standard([48, 64, 64, 1], seed=1)
    buf = _tiny_rollout(policy)
    stats = ppo_update(policy, value_net, buf, cfg,
                       nets.make_optimizer(policy.actor, 1e-3),
                       nets.make_optimizer(value_net, 1e-3),
                       np.random.default_rng(0))
    assert all(math.isfinite(v) for v in stats.values())


def test_ppo_update_rejects_corrupt_log_probs():
    cfg = PpoConfig(repeat_per_collect=1, batch_size=32)
    policy = make_policy(cfg, seed=0)
    value_net = nets.init_standard([48, 8, 1], seed=1)
    buf = _tiny_rollout(policy, n=40)
    buf.log_probs = [-1e6] * len(buf)  # ratio overflows to inf
    with np.errstate(over="ignore"), pytest.raises(PpoUpdateError):
        ppo_update(policy, value_net, buf, cfg,
                   nets.make_optimizer(policy.actor, 1e-3),
                   nets.make_optimizer(value_net, 1e-3),
                   np.random.default_rng(0))


def test_value_function_learns_constant_returns():
    cfg = PpoConfig(repeat_per_collect=40, batch_size=64, entropy_coef=0.0,
                    lr=3e-3)
    policy = make_policy(cfg, seed=0)
    value_net = nets.init_standard([48, 16, 1], seed=2)
    buf = _tiny_rollout(policy, n=64)
    buf.rewards = [1.0] * len(buf)
    buf.terminals = [True] * len(buf)   # returns-to-go all equal 1
    ppo_update(policy, value_net, buf, cfg,
               nets.make_optimizer(policy.actor, 1e-4),
               nets.make_optimizer(value_net, cfg.lr),
               np.random.default_rng(0))
    obs = buf.arrays()[0]
    preds, _ = nets.forward(value_net, featurize(obs))
    assert float(np.abs(preds[:, 0] - 1.0).mean()) < 0.25


@given(st.sampled_from(["tanh", "clip"]), st.floats(-7.0, 3.0),
       st.integers(0, 2**31 - 1))
def test_sample_and_mean_action_equal_the_batch_heads(transform, log_sigma,
                                                      seed):
    # sample works on one observation and mean_actions on a row-stacked
    # batch; a one-row batch through heads must give the same bits.
    rng = np.random.default_rng(seed)
    policy = make_policy(PpoConfig(transform=transform), seed=seed)
    policy.actor.params[:] = rng.normal(size=policy.actor.params.shape) * 0.3
    policy.log_sigma = np.array(log_sigma)
    feats = rng.normal(size=48) * 3.0
    mu, ls, _ = policy.heads(feats[None, :])
    sigma = np.exp(ls)
    noise_rng = np.random.default_rng(seed + 1)
    z = float(mu[0] + sigma[0] * noise_rng.standard_normal())
    expected = (z, policy.to_action(z),
                float(policy.log_prob_z(z, mu[0], sigma[0])))
    assert policy.sample(feats, np.random.default_rng(seed + 1)) == expected
    assert policy.mean_actions(feats[None, None, :]) \
        == [policy.to_action(float(mu[0]))]


# Collects of 12 steps: episodes (64 steps, or fewer when one terminates)
# end inside collects, and collects end inside episodes, where the critic
# changes between a step and the next one.
_SHORT_RUN = PpoConfig(epochs=2, steps_per_epoch=60, steps_per_collect=12,
                       repeat_per_collect=2, warm_start_steps=0, batch_size=8,
                       transform="clip")


def _recorded_rollout(monkeypatch):
    """Make train_ppo's rollout record every step it yields in a list."""
    steps = []

    def recorded(*args):
        for step in rollout(*args):
            steps.append(step)
            yield step

    monkeypatch.setattr(ppo, "rollout", recorded)
    return steps


def test_collect_values_equal_fresh_critic_forwards(monkeypatch):
    steps = _recorded_rollout(monkeypatch)
    checked = []

    def checked_update(policy, value_net, collect, *args):
        obs, *_, values, next_values, _ = collect.arrays()
        for t, (o, _, res, _) in enumerate(steps[-len(collect):]):
            assert np.array_equal(obs[t], o)
            fresh, _ = nets.forward(value_net, featurize(o))
            assert values[t] == fresh[0]
            if res.terminated:
                assert next_values[t] == 0.0
            else:
                fresh, _ = nets.forward(value_net, featurize(res.observation))
                assert next_values[t] == fresh[0]
        checked.append(len(collect))
        return ppo_update(policy, value_net, collect, *args)

    monkeypatch.setattr(ppo, "ppo_update", checked_update)
    train_ppo("child", _SHORT_RUN, seed=2)
    assert checked == [12] * 10
    ends = {i for i, (_, _, res, _) in enumerate(steps)
            if res.terminated or res.truncated}
    assert any(res.terminated for _, _, res, _ in steps)
    assert any(i % 12 != 11 for i in ends)            # inside a collect
    assert any(i % 12 == 11 and i not in ends         # inside an episode
               for i in range(len(steps)))


def test_collect_makes_two_row_stacked_critic_forwards(monkeypatch):
    # Before its update, a collect asks its critic for values in one
    # (steps, 1, OBS_DIM) forward over its observations and for bootstrap
    # values in one over their next observations; no forward has one row.
    critics, calls, updating = [], [], [False]
    init_standard, forward, update = (nets.init_standard, nets.forward,
                                      ppo.ppo_update)

    def recorded_init(*args, **kwargs):
        critics.append(init_standard(*args, **kwargs))
        return critics[-1]

    def recorded_forward(net, x):
        if any(net is c for c in critics) and not updating[0]:
            calls.append(np.shape(x))
        return forward(net, x)

    def flagged_update(*args):
        calls.append("update")
        updating[0] = True
        try:
            return update(*args)
        finally:
            updating[0] = False

    monkeypatch.setattr(nets, "init_standard", recorded_init)
    monkeypatch.setattr(nets, "forward", recorded_forward)
    monkeypatch.setattr(ppo, "ppo_update", flagged_update)
    train_ppo("child", _SHORT_RUN, seed=2)
    assert len(critics) == 1
    stacked = (_SHORT_RUN.steps_per_collect, 1, OBS_DIM)
    assert calls == [stacked, stacked, "update"] * 10


def test_train_ppo_smoke_and_determinism():
    cfg = PpoConfig(epochs=2, steps_per_epoch=96, steps_per_collect=48,
                    repeat_per_collect=2, warm_start_steps=48, batch_size=32)
    runs = [train_ppo("adult", cfg, seed=5) for _ in range(2)]
    for res in runs:
        assert [e.epoch for e in res.log] == [0, 1]
        assert len(res.checkpoints) == 2
        assert all(math.isfinite(e.actor_loss) and math.isfinite(e.value_loss)
                   for e in res.log)
    assert [vars(x) for x in runs[0].log] == [vars(y) for y in runs[1].log]
