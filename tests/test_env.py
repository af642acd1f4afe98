from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dosebench.dqn import ReplayBuffer, warm_start_fill
from dosebench.env import (ACTION_HIGH, ACTION_LOW, CONTROL_INTERVAL_MIN,
                           INITIAL_BG_RANGE, MAX_STEPS, MEAL_JITTER_CARB_FRAC,
                           MEAL_JITTER_MIN, OBS_DIM, START_CLOCK, WINDOW_STEPS,
                           GlucoseEnv, cohort_envs, format_clock, meal_plan,
                           parse_clock, rollout)
from dosebench.patients import Cohort, MealEvent

import _oracles
from _helpers import apply_meal, noiseless


def test_clock_helpers():
    assert parse_clock("05:00") == 300
    assert parse_clock("23:59") == 1439
    assert format_clock(300) == (1, "05:00:00")
    assert format_clock(315) == (1, "05:15:00")
    assert format_clock(24 * 60 + 30) == (2, "00:30:00")


def test_meal_plan_scaling():
    adult = meal_plan(Cohort.ADULT)
    child = meal_plan(Cohort.CHILD)
    assert [m.carbs for m in adult] == [45.0, 60.0, 20.0]
    assert [m.carbs for m in child] == pytest.approx([27.0, 36.0, 12.0])
    assert [m.time_offset for m in adult] == [120.0, 420.0, 600.0]
    assert [m.time_offset for m in child] == [120.0, 420.0, 600.0]
    assert INITIAL_BG_RANGE == (120.0, 180.0)
    assert parse_clock(START_CLOCK) == 300


def test_reset_is_deterministic_per_seed():
    rollouts = []
    for _ in range(2):
        env = GlucoseEnv(Cohort.ADULT, 0)
        obs = [env.reset(42)]
        for _ in range(10):
            obs.append(env.step(1.5).observation)
        rollouts.append(np.stack(obs))
    assert np.array_equal(rollouts[0], rollouts[1])

    env = GlucoseEnv(Cohort.ADULT, 0)
    other = env.reset(43)
    assert not np.array_equal(other, rollouts[0][0])


def test_initial_bg_within_configured_range():
    for seed in range(25):
        env = GlucoseEnv(Cohort.ADOLESCENT, 1)
        env.reset(seed)
        assert 120.0 <= env.history[0].bg_true <= 180.0


def test_meal_jitter_stays_within_bounds():
    assert (MEAL_JITTER_MIN, MEAL_JITTER_CARB_FRAC) == (30.0, 0.2)
    for seed in range(25):
        env = GlucoseEnv(Cohort.ADULT, 0)
        env.reset(seed)
        for meal, base in zip(env._meals, meal_plan(Cohort.ADULT)):
            assert abs(meal.time_offset - base.time_offset) <= 30.0 + 1e-9
            assert abs(meal.carbs / base.carbs - 1.0) <= 0.2 + 1e-9


def test_episode_truncates_at_64_steps():
    env = noiseless(Cohort.ADULT, 0)
    env.reset(1)
    for step in range(MAX_STEPS):
        res = env.step(1.0)
    assert res.truncated and not res.terminated
    assert env.termination_cause is None
    assert len(env.history) == MAX_STEPS + 1
    with pytest.raises(RuntimeError):
        env.step(0.0)


def test_zero_dose_child_terminates_hyper():
    env = noiseless(Cohort.CHILD, 0)
    env.reset(1)
    while True:
        res = env.step(0.0)
        if res.terminated or res.truncated:
            break
    assert res.terminated
    assert env.termination_cause == "hyper"
    assert env.history[-1].bg_true > 500.0


def test_termination_only_judged_at_interval_end():
    # Every recorded interval-end BG before the last one is inside bounds,
    # whatever the trajectory did inside the interval.
    env = noiseless(Cohort.CHILD, 2)
    env.reset(7)
    while True:
        res = env.step(0.0)
        if res.terminated or res.truncated:
            break
    for rec in env.history[1:-1]:
        assert 40.0 <= rec.bg_true <= 500.0


def test_action_validation_and_lifecycle():
    env = GlucoseEnv(Cohort.ADULT, 0)
    with pytest.raises(RuntimeError):
        env.step(0.0)
    env.reset(1)
    for bad in (-0.1, 9.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            env.step(bad)


def test_dose_is_quarter_of_rate():
    env = GlucoseEnv(Cohort.ADULT, 0)
    env.reset(5)
    env.step(3.0)
    assert env.history[0].rate == 3.0
    assert env.history[0].dose == pytest.approx(0.75)
    assert env.history[1].rate == 0.0  # current row: not yet acted


def test_observation_padding_and_layout():
    env = GlucoseEnv(Cohort.ADULT, 0)
    obs = env.reset(2)
    first = env.history[0].bg_sensor
    assert obs.shape == (OBS_DIM,) and obs.dtype == np.float64
    # Padding repeats the initial sensor glucose with zero insulin.
    assert obs.reshape(WINDOW_STEPS, 3).tolist() == \
        [[first, 0.0, 0.0]] * WINDOW_STEPS

    rows = env.step(2.0).observation.reshape(WINDOW_STEPS, 3).tolist()
    # Most recent last: the new measurement, not yet acted on, after the
    # row the dose was chosen on.
    assert rows[-1] == [env.history[1].bg_sensor, 0.0, 0.0]
    assert rows[-2] == [first, 2.0, 0.5]
    assert rows[:-2] == [[first, 0.0, 0.0]] * (WINDOW_STEPS - 2)


def test_window_slides_after_sixteen_steps():
    env = GlucoseEnv(Cohort.ADULT, 0)
    env.reset(2)
    for i in range(20):
        res = env.step(0.5 * (i % 4))
    window = env.history[-WINDOW_STEPS:]
    assert window[0].clock == 300 + 5 * CONTROL_INTERVAL_MIN
    assert res.observation.reshape(WINDOW_STEPS, 3).tolist() == \
        [[rec.bg_sensor, rec.rate, rec.dose] for rec in window]


def test_every_observation_is_a_new_array():
    # RolloutBuffer.add keeps the array it is given: a reused or rewritten
    # one would change the observations of a PPO collect.
    env = GlucoseEnv(Cohort.ADULT, 0)
    kept = [env.reset(2)]
    for _ in range(WINDOW_STEPS + 4):
        kept.append(env.step(1.0).observation)
    snapshots = [obs.copy() for obs in kept]
    for _ in range(WINDOW_STEPS):
        env.step(1.0)
    for i, obs in enumerate(kept):
        assert obs.tobytes() == snapshots[i].tobytes()
        assert not any(np.shares_memory(obs, other) for other in kept[i + 1:])


_DOSES = st.one_of(st.sampled_from([0.0, -0.0, ACTION_HIGH]),
                   st.floats(ACTION_LOW, ACTION_HIGH))


def _play_checking_the_window(env, seed, episodes):
    """Play each dose list as one episode (until it ends), checking every
    observation against the history-based window; returns each episode's
    (steps, terminated)."""
    played, previous = [], None

    def check(obs):
        nonlocal previous
        expected = _oracles.observation_from_history(env.history)
        # tobytes tells -0.0 from 0.0: a dose's sign must survive.
        assert obs.dtype == np.float64 and obs.tobytes() == expected.tobytes()
        assert previous is None or not np.shares_memory(obs, previous)
        previous = obs

    for k, doses in enumerate(episodes):
        check(env.reset(seed + k))
        res = None
        for dose in doses:
            res = env.step(dose)
            check(res.observation)
            if res.terminated or res.truncated:
                break
        played.append((len(env.history) - 1, res is not None and res.terminated))
    return played


@given(patient=st.integers(0, 3), seed=st.integers(0, 2**31 - 1),
       episodes=st.lists(st.lists(_DOSES, max_size=70), min_size=1,
                         max_size=3))
def test_rolling_window_equals_the_history_window(patient, seed, episodes):
    _play_checking_the_window(GlucoseEnv(Cohort.CHILD, patient), seed,
                              episodes)


def test_rolling_window_survives_a_long_episode_that_terminates_early():
    # Zero doses end this child episode in a hyper termination after the
    # window has rolled past its padding, and the reset after it starts a
    # new window.
    env = GlucoseEnv(Cohort.CHILD, 0)
    (steps, terminated), second = _play_checking_the_window(
        env, 1, [[-0.0] * 40, [1.0] * 20])
    assert terminated and WINDOW_STEPS < steps < MAX_STEPS
    assert second == (20, False)


def test_noiseless_env_has_equal_true_and_sensor_bg():
    env = noiseless(Cohort.CHILD, 1)
    env.reset(9)
    env.step(1.0)
    for rec in env.history:
        assert rec.bg_true == rec.bg_sensor


def test_sensor_noise_differs_from_truth():
    env = GlucoseEnv(Cohort.ADULT, 0)
    env.reset(9)
    diffs = [abs(r.bg_true - r.bg_sensor) for r in env.history]
    env.step(1.0)
    diffs += [abs(r.bg_true - r.bg_sensor) for r in env.history[-1:]]
    assert max(diffs) > 0.0


def test_rewards_use_true_bg_not_sensor():
    from dosebench import metrics
    env = GlucoseEnv(Cohort.ADULT, 0)
    env.reset(4)
    res = env.step(1.0)
    assert res.reward == pytest.approx(
        metrics.step_reward(env.history[-1].bg_true, False))


def test_meals_enter_before_their_substep_as_per_minute_scan():
    # Meals on an interval boundary (15.0), in its last minute (29.5), two in
    # one minute (45.0, 45.5) and one at the last substep of a later step.
    # Reset draws the jitter from a stream of its own, so planting the meals
    # after it leaves every other stream as it was.
    meals = [MealEvent(15.0, 8.0), MealEvent(29.5, 4.0),
             MealEvent(45.0, 6.0), MealEvent(45.5, 2.5),
             MealEvent(74.999, 5.0)]
    env, ref = GlucoseEnv(Cohort.ADULT, 2), GlucoseEnv(Cohort.ADULT, 2)
    env.reset(21)
    ref.reset(21)
    env._meals, ref._meals = list(meals), list(meals)
    for _ in range(6):
        res = env.step(0.9)
        assert not res.terminated
        # The per-minute scan the interval kernel replaced.
        t0, eaten = ref.state.t_elapsed, 0.0
        for minute in range(CONTROL_INTERVAL_MIN):
            t = t0 + minute
            for meal in ref._meals:
                if t <= meal.time_offset < t + 1.0:
                    ref.state = apply_meal(ref.state, meal.carbs)
                    eaten += meal.carbs
            ref.state = _oracles.step_physiology(ref.state, ref.params, 0.9,
                                                 1.0, ref._noise_rng)
        ref.state.clock += CONTROL_INTERVAL_MIN
        assert env.state == ref.state
        assert env.history[-1].meal_carbs == eaten
    assert [r.meal_carbs for r in env.history[1:6]] == [
        0.0, 12.0, 0.0, 8.5, 5.0]


def _max_dose(obs, env):
    return "max", 9.0


def test_rollout_visits_envs_in_cycle_order():
    envs = cohort_envs("child")[:3]
    seeds = iter(range(100, 200))
    episodes = []   # (env, steps) per finished episode
    steps = 0
    for obs, action, res, env in rollout(envs, _max_dose, seeds.__next__):
        assert action == "max" and env.history[-1].reward == res.reward
        steps += 1
        if res.terminated or res.truncated:
            episodes.append((env, steps))
            steps = 0
            if len(episodes) == 7:
                break
    assert [env for env, _ in episodes] == [*envs, *envs, envs[0]]
    assert all(n == len(env.history) - 1 for env, n in episodes[-3:])
    assert next(seeds) == 107   # one seed per episode, none ahead


def test_rollout_ending_on_an_episode_end_resets_nothing_more():
    ref = GlucoseEnv(Cohort.CHILD, 1)
    ref.reset(5)
    n = 1
    while not ref.step(9.0).terminated:
        n += 1
    first, second = GlucoseEnv(Cohort.CHILD, 1), GlucoseEnv(Cohort.CHILD, 1)
    seeds = []

    def next_seed():
        seeds.append(5)
        return 5

    steps = rollout([first, second], _max_dose, next_seed)
    *_, (_, _, last, env) = islice(steps, n)
    assert env is first and last.terminated
    assert seeds == [5] and second.state is None
    _, _, res, env = next(steps)
    assert env is second and seeds == [5, 5] and len(second.history) == 2


def test_warm_start_fill_of_zero_steps_draws_nothing():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    env = GlucoseEnv(Cohort.ADULT, 0)
    buffer = warm_start_fill(ReplayBuffer(8), env, 0, rng)
    assert rng.bit_generator.state == before
    assert buffer.size == 0 and env.state is None
