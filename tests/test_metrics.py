import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dosebench import metrics

from _helpers import survival_rate
from _oracles import risk_index_hp, risk_root_hp, step_reward_hp


class _Ep:
    def __init__(self, truncated):
        self.truncated = truncated


def test_bg_transform_matches_high_precision_oracle():
    for bg in range(41, 500):
        lbgi, hbgi = risk_index_hp(bg)
        got = metrics.risk_index(float(bg))
        assert got.lbgi == pytest.approx(float(lbgi), abs=1e-9)
        assert got.hbgi == pytest.approx(float(hbgi), abs=1e-9)
        assert got.ri == pytest.approx(float(lbgi + hbgi), abs=1e-9)


def test_transform_root_location():
    root = float(risk_root_hp())
    assert 112.0 <= root <= 114.0
    assert metrics.bg_transform(root) == pytest.approx(0.0, abs=1e-12)


def test_step_reward_at_root_is_essentially_one():
    root = float(risk_root_hp())
    assert 0.999 <= metrics.step_reward(root, False) <= 1.0


def test_step_reward_matches_oracle_with_termination():
    for bg in (39.0, 41.0, 70.0, 112.0, 180.0, 499.0, 505.0):
        for terminated in (False, True):
            assert metrics.step_reward(bg, terminated) == pytest.approx(
                float(step_reward_hp(bg, terminated)), abs=1e-9)


def test_bg_transform_rejects_bad_input():
    for bad in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            metrics.bg_transform(bad)


@given(st.floats(min_value=1.0, max_value=600.0))
def test_risk_is_one_sided(bg):
    r = metrics.risk_index(bg)
    assert r.lbgi >= 0 and r.hbgi >= 0
    assert r.lbgi == 0 or r.hbgi == 0


@given(st.floats(min_value=1.0, max_value=599.0),
       st.floats(min_value=0.01, max_value=1.0))
def test_transform_is_strictly_increasing(bg, step):
    assert metrics.bg_transform(bg + step) > metrics.bg_transform(bg)


def test_return_normalization_anchors():
    assert metrics.normalized_return(-99.7) == pytest.approx(0.0, abs=1e-12)
    assert metrics.normalized_return(64.0) == pytest.approx(100.0, abs=1e-12)


def test_episode_pinned_at_root_scores_near_100():
    root = float(risk_root_hp())
    total = sum(metrics.step_reward(root, False) for _ in range(64))
    assert metrics.normalized_return(total) >= 99.0


def test_tir_inclusive_boundaries():
    assert metrics.tir([70.0, 180.0]) == 1.0
    assert metrics.tir([69.99, 180.01]) == 0.0
    assert metrics.tir([50, 100, 200, 150]) == 0.5
    with pytest.raises(ValueError):
        metrics.tir([])


def test_survival_rate():
    eps = [_Ep(True), _Ep(False), _Ep(True), _Ep(True)]
    assert survival_rate(eps) == 0.75
    with pytest.raises(ValueError):
        survival_rate([])


def test_bootstrap_is_deterministic_and_ordered():
    data = np.random.default_rng(3).normal(50, 5, size=40)
    a = metrics.bootstrap_ci(data, resamples=1000, seed=7)
    b = metrics.bootstrap_ci(data, resamples=1000, seed=7)
    assert a == b
    assert a.ci_low <= a.mean <= a.ci_high
    assert a.n == 40
    c = metrics.bootstrap_ci(data, resamples=1000, seed=8)
    assert c != a


def test_bootstrap_degenerate_samples_zero_width():
    s = metrics.bootstrap_ci([5.0] * 30, resamples=1000, seed=0)
    assert s.mean == 5.0
    assert s.ci_low == s.ci_high == 5.0


def test_bootstrap_rejects_empty():
    with pytest.raises(ValueError):
        metrics.bootstrap_ci([], resamples=1000, seed=0)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2,
                max_size=25))
def test_bootstrap_ci_brackets_sample_range(values):
    s = metrics.bootstrap_ci(values, resamples=200, seed=1)
    assert min(values) - 1e-9 <= s.ci_low <= s.ci_high <= max(values) + 1e-9
