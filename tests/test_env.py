import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dosebench import env as env_module
from dosebench import metrics, patients
from dosebench.dqn import DqnConfig, ReplayBuffer, train_dqn, warm_start_fill
from dosebench.env import (ACTION_HIGH, ACTION_LOW, CONTROL_INTERVAL_MIN,
                           INITIAL_BG_RANGE, MAX_STEPS, MEAL_JITTER_CARB_FRAC,
                           MEAL_JITTER_MIN, OBS_DIM, START_CLOCK, WINDOW_STEPS,
                           GlucoseEnv, cohort_envs, format_clock, meal_plan,
                           parse_clock, rollout)
from dosebench.patients import Cohort, MealEvent, PatientState
from dosebench.ppo import PpoConfig, train_ppo

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
    env = GlucoseEnv(Cohort.ADULT, 0)
    env.reset(4)
    res = env.step(1.0)
    assert res.reward == pytest.approx(
        metrics.step_reward(env.history[-1].bg_true, False))


def _core_state(env):
    """The patient state in env's row of its core, on either branch."""
    core = env.core
    if core.fields is None:
        fields = core.lanes[env.row][0]
    else:
        fields = [f[env.row].item() for f in core.fields]
    return PatientState(*fields, clock=core.clock)


@pytest.mark.parametrize("min_lanes", [1, patients.ARRAY_MIN_LANES],
                         ids=["arrays", "floats"])
def test_meals_enter_before_their_substep_as_per_minute_scan(min_lanes,
                                                             monkeypatch):
    # Meals on an interval boundary (15.0), in its last minute (29.5), two in
    # one minute (45.0, 45.5) and one at the last substep of a later step,
    # through the core's array branch and through its float branch. Reset
    # draws the jitter from a stream of its own, and the core takes the
    # meals at the first step, so planting them between the two leaves every
    # other stream as it was.
    monkeypatch.setattr(patients, "ARRAY_MIN_LANES", min_lanes)
    meals = [MealEvent(15.0, 8.0), MealEvent(29.5, 4.0),
             MealEvent(45.0, 6.0), MealEvent(45.5, 2.5),
             MealEvent(74.999, 5.0)]
    env = GlucoseEnv(Cohort.ADULT, 2)
    env.reset(21)
    env._meals = list(meals)
    state = env.state
    # The reference draws its process noise one scalar at a time from the
    # episode's noise stream, as the env drew it before it drew an episode's
    # noise at reset.
    noise_rng = np.random.default_rng(np.random.SeedSequence(21).spawn(4)[2])
    for _ in range(6):
        res = env.step(0.9)
        assert not res.terminated
        assert (env.core.fields is None) == (min_lanes > 1)
        # The per-minute scan the interval kernel replaced.
        t0, eaten = state.t_elapsed, 0.0
        for minute in range(CONTROL_INTERVAL_MIN):
            t = t0 + minute
            for meal in meals:
                if t <= meal.time_offset < t + 1.0:
                    state = apply_meal(state, meal.carbs)
                    eaten += meal.carbs
            state = _oracles.step_physiology(state, env.params, 0.9, 1.0,
                                             noise_rng)
        state.clock += CONTROL_INTERVAL_MIN
        assert _core_state(env) == state
        assert repr(_core_state(env)) == repr(state)
        assert env.history[-1].meal_carbs == eaten
    assert [r.meal_carbs for r in env.history[1:6]] == [
        0.0, 12.0, 0.0, 8.5, 5.0]


@pytest.mark.parametrize("cohort", list(Cohort))
def test_reset_draws_the_noise_of_scalar_draws_from_the_episode_streams(cohort):
    # An episode's noise comes from the third and fourth streams its seed
    # spawns: one process-noise value per substep and one sensor-noise value
    # per measurement, drawn at reset in one call each. Those calls give the
    # values of one call per interval and of one scalar draw per value.
    env = GlucoseEnv(cohort, 1)
    for seed in range(200):
        env.reset(seed)
        noise_ss, sensor_ss = np.random.SeedSequence(seed).spawn(4)[2:]
        per_interval = np.random.default_rng(noise_ss)
        scalars = np.random.default_rng(noise_ss)
        noise = env.core.noise[env.row]
        sensor_noise = env.core.sensor_noise[env.row]
        assert noise.shape == (MAX_STEPS, CONTROL_INTERVAL_MIN)
        for row in noise:
            assert row.tobytes() == per_interval.standard_normal(
                CONTROL_INTERVAL_MIN).tobytes()
            assert row.tolist() == [scalars.standard_normal()
                                    for _ in range(CONTROL_INTERVAL_MIN)]
        sensor = np.random.default_rng(sensor_ss)
        assert sensor_noise.tolist() == [
            sensor.standard_normal() for _ in range(MAX_STEPS + 1)]
    # The first measurement's reading uses the first sensor value.
    assert env.history[0].bg_sensor == max(
        env.history[0].bg_true + env.params.cgm_sigma * sensor_noise[0], 1.0)


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


@pytest.mark.parametrize("train, config", [
    (train_dqn, DqnConfig(epochs=2, steps_per_epoch=320, warm_start_steps=64,
                          batch_size=16)),
    (train_ppo, PpoConfig(epochs=2, steps_per_epoch=320, steps_per_collect=160,
                          warm_start_steps=64, batch_size=32,
                          repeat_per_collect=1)),
], ids=["dqn", "ppo"])
def test_training_runs_each_env_as_a_lane_of_one(train, config, monkeypatch):
    # Training steps the evaluation's core: each env builds its one-row core
    # once, not once per episode, and each env step advances it once, in
    # one float kernel call and through no other integrator.
    calls = {}

    def counting(owner, name):
        wrapped = getattr(owner, name)

        def count(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return wrapped(*args, **kwargs)
        monkeypatch.setattr(owner, name, count)

    for owner, name in ((env_module.Columns, "__init__"),
                        (env_module.Columns, "advance"),
                        (env_module.GlucoseEnv, "step"),
                        (env_module.GlucoseEnv, "reset"),
                        (patients, "_rk4"), (patients, "integrate_lanes"),
                        (patients, "step_physiology")):
        counting(owner, name)
    train("child", config, 1)
    assert calls["__init__"] == len(cohort_envs("child"))
    assert calls["reset"] > calls["__init__"]      # envs play many episodes
    assert calls["advance"] == calls["step"] == calls["_rk4"] \
        == 64 + config.epochs * config.steps_per_epoch
    assert "integrate_lanes" not in calls and "step_physiology" not in calls


# Glucose values at which numpy's SIMD log differs from libm's in the last
# bit on AVX-512 x86-64 builds of numpy 2.4: an array np.log there would
# give these lanes other rewards.
_NP_LOG_DIFFERS = [float.fromhex(v) for v in (
    "0x1.d4152a403fae1p+8", "0x1.13c556bb8bb78p+7", "0x1.0d537c3c8637cp+9",
    "0x1.119c20c0aa3d4p+7", "0x1.1e3361963a8fcp+8", "0x1.755fe2a70ac35p+6")]


def _reward_grid(lanes):
    """(MAX_STEPS, lanes) glucose values in [1, 600] mg/dL: an even grid,
    the termination thresholds and their neighbours, and _NP_LOG_DIFFERS."""
    edges = [v for bg in (env_module.BG_TERMINATE_LOW,
                          env_module.BG_TERMINATE_HIGH)
             for v in (math.nextafter(bg, 0.0), bg, math.nextafter(bg, 600.0))]
    special = [1.0, 600.0, *edges, *_NP_LOG_DIFFERS]
    even = np.linspace(1.0, 600.0, MAX_STEPS * lanes - len(special))
    grid = np.concatenate([special, even])
    return np.random.default_rng(0).permutation(grid).reshape(MAX_STEPS, lanes)


@pytest.mark.parametrize("min_lanes", [1, patients.ARRAY_MIN_LANES],
                         ids=["arrays", "floats"])
def test_round_rewards_equal_step_reward_bit_for_bit(min_lanes, monkeypatch):
    # A round scores all its lanes in one pass; each reward must have the
    # bits of the scalar step_reward, hypo and hyper terminations included.
    # The kernel is replaced by one that lands each lane on a grid value.
    lanes = patients.ARRAY_MIN_LANES - 4
    grid = _reward_grid(lanes)
    monkeypatch.setattr(patients, "ARRAY_MIN_LANES", min_lanes)
    values = iter(grid.reshape(-1).tolist())
    kernels = []

    def float_kernel(g, s1, s2, x, q, t, *args):
        kernels.append("floats")
        return next(values), s1, s2, x, q, t + CONTROL_INTERVAL_MIN

    def array_kernel(fields, *args):
        kernels.append("arrays")
        g = np.array([next(values) for _ in range(lanes)])
        return (g, *fields[1:5], fields[5] + CONTROL_INTERVAL_MIN), {}

    monkeypatch.setattr(patients, "_rk4", float_kernel)
    monkeypatch.setattr(patients, "integrate_lanes", array_kernel)
    core = env_module.Columns(lanes)
    envs = [GlucoseEnv(Cohort.ADULT, row % 4) for row in range(lanes)]
    for row, env in enumerate(envs):
        env.core, env.row = core, row
        env.reset(row)
    core.start(envs)
    for k, bgs in enumerate(grid.tolist()):
        core.advance([1.0] * lanes)
        terminated = [bg < 40.0 or bg > 500.0 for bg in bgs]
        expected = [metrics.step_reward(bg, ended).hex()
                    for bg, ended in zip(bgs, terminated)]
        assert core.ended == terminated
        assert [r.hex() for r in core.rewards] == expected
        assert [r.hex() for r in core.reward[:, k + 1].tolist()] == expected
        assert core.bg_true[:, k + 1].tolist() == bgs
    assert set(kernels) == {"arrays" if min_lanes == 1 else "floats"}
    assert 0 < np.mean([bg < 40.0 for bg in grid.flat]) < 0.1
    assert 0 < np.mean([bg > 500.0 for bg in grid.flat]) < 0.2
