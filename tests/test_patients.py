import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dosebench import patients
from dosebench.patients import (Cohort, MealEvent, PatientState, get_patient,
                                integrate_lanes, make_cohort, step_physiology)

import _oracles
from _helpers import (apply_bolus, apply_meal, correction_drop,
                      meal_response_std, steady_state)


def _quiet(params):
    return replace(params, noise_sigma=0.0, cgm_sigma=0.0)


def _simulate(params, state, minutes, rate=0.0):
    traj = [state.g]
    for _ in range(minutes):
        state = step_physiology(state, params, rate, 1.0, None)
        traj.append(state.g)
    return state, np.array(traj)


def test_cohorts_have_four_patients_each():
    for cohort in Cohort:
        group = make_cohort(cohort)
        assert len(group) == 4
        assert [p.patient_id for p in group] == [0, 1, 2, 3]
        assert all(p.cohort == cohort for p in group)


def test_get_patient_is_deterministic():
    assert get_patient(Cohort.CHILD, 2) == get_patient("child", 2)


def test_param_validation():
    base = get_patient(Cohort.ADULT, 0)
    with pytest.raises(ValueError):
        replace(base, v_g=0.0)
    with pytest.raises(ValueError):
        replace(base, f_bio=1.5)
    with pytest.raises(ValueError):
        replace(base, noise_sigma=-0.1)


def test_basal_glucose_is_an_equilibrium():
    for cohort in Cohort:
        params = _quiet(get_patient(cohort, 0))
        state, traj = _simulate(params, steady_state(params), 120)
        assert abs(state.g - params.g_b) < 1e-9
        assert np.allclose(traj, params.g_b)


def test_gut_decay_matches_exact_exponential():
    params = _quiet(get_patient(Cohort.ADULT, 0))
    state = apply_meal(steady_state(params), 40.0)
    for minute in (1, 30, 120):
        s = state
        for _ in range(minute):
            s = step_physiology(s, params, 0.0, 1.0, None)
        exact = 40.0 * math.exp(-params.k_abs * minute)
        assert s.q_gut == pytest.approx(exact, rel=1e-8)


def test_subcutaneous_chain_matches_exact_solution():
    # Constant infusion u: s1(t) = (u/60)*tau*(1 - exp(-t/tau)).
    params = _quiet(get_patient(Cohort.ADULT, 0))
    rate, tau = 3.0, params.tau_sc
    state, _ = _simulate(params, steady_state(params), 90, rate=rate)
    exact = rate / 60.0 * tau * (1.0 - math.exp(-90.0 / tau))
    assert state.s1 == pytest.approx(exact, rel=1e-8)


def test_meal_raises_glucose_then_decays():
    params = _quiet(get_patient(Cohort.ADOLESCENT, 0))
    _, traj = _simulate(params, apply_meal(steady_state(params), 30.0), 480)
    peak = int(np.argmax(traj))
    assert traj[peak] > params.g_b + 20
    assert 0 < peak < 300
    assert traj[-1] < traj[peak] - 10  # back toward basal


def test_bolus_lowers_glucose_with_delay():
    params = _quiet(get_patient(Cohort.CHILD, 0))
    state = apply_bolus(steady_state(params, g=164.0), 1.0)
    _, traj = _simulate(params, state, 240)
    trough = int(np.argmin(traj))
    assert trough > 30  # delayed action through the s1 -> s2 -> x chain
    assert traj[trough] < 164.0


def test_child_correction_factor_calibration():
    params = get_patient(Cohort.CHILD, 0)
    drop_1u = correction_drop(params, 164.0, 1.0)
    drop_full = correction_drop(params, 164.0, 2.36)
    assert 20.0 <= drop_1u <= 30.0           # CF approximately 25 mg/dL per U
    assert abs(drop_full - 59.0) <= 12.0


def test_volatility_ordering_noiseless():
    stds = {c: [meal_response_std(p, 140.0) for p in make_cohort(c)]
            for c in Cohort}
    assert min(stds[Cohort.CHILD]) > max(stds[Cohort.ADOLESCENT])
    assert min(stds[Cohort.ADOLESCENT]) > max(stds[Cohort.ADULT])


def test_glucose_floor_under_extreme_insulin():
    params = _quiet(get_patient(Cohort.CHILD, 0))
    state = apply_bolus(steady_state(params, g=120.0), 50.0)
    state, traj = _simulate(params, state, 600, rate=9.0)
    assert traj.min() >= 1.0
    state.check_finite()


def test_step_physiology_validation():
    params = get_patient(Cohort.ADULT, 0)
    state = steady_state(params)
    with pytest.raises(ValueError):
        step_physiology(state, params, 1.0, 0.0, None)
    with pytest.raises(ValueError):
        step_physiology(state, params, 1.0, 16.0, None)
    with pytest.raises(ValueError):
        step_physiology(state, params, -1.0, 1.0, None)
    with pytest.raises(ValueError):
        step_physiology(state, params, float("nan"), 1.0, None)
    with pytest.raises(FloatingPointError):
        step_physiology(replace(state, g=float("nan")), params, 0.0, 1.0,
                        None)


def test_meal_and_bolus_validation():
    state = steady_state(get_patient(Cohort.ADULT, 0))
    with pytest.raises(ValueError):
        apply_meal(state, 0.0)
    with pytest.raises(ValueError):
        apply_bolus(state, -1.0)
    with pytest.raises(ValueError):
        MealEvent(time_offset=960.0, carbs=30.0)
    with pytest.raises(ValueError):
        MealEvent(time_offset=100.0, carbs=0.0)


def test_process_noise_is_reproducible():
    params = get_patient(Cohort.ADULT, 0)
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(11)
        state = steady_state(params)
        for _ in range(30):
            state = step_physiology(state, params, 1.0, 1.0, rng)
        outs.append(state.g)
    assert outs[0] == outs[1]


def test_larger_dose_never_raises_glucose():
    # Noiseless dominance: more insulin -> pointwise lower or equal glucose.
    params = _quiet(get_patient(Cohort.ADOLESCENT, 1))
    trajs = {}
    for rate in (0.0, 2.0, 4.0):
        _, trajs[rate] = _simulate(
            params, apply_meal(steady_state(params, g=150.0), 20.0), 300,
            rate=rate)
    assert np.all(trajs[2.0] <= trajs[0.0] + 1e-9)
    assert np.all(trajs[4.0] <= trajs[2.0] + 1e-9)


def _integrate(state, params, rate, dt, carbs, noise):
    """A lane's float kernel call, as ``env.Columns`` makes it: len(carbs)
    substeps of dt minutes from ``state`` at ``rate``, noise[k] the draw of
    substep k (None: no noise)."""
    *fields, t = patients._rk4(
        state.g, state.s1, state.s2, state.x, state.q_gut, state.t_elapsed,
        params.rk4_constants, rate / 60.0, dt, carbs, noise,
        params.noise_sigma * math.sqrt(dt), None, state.clock)
    return PatientState(*fields, t_elapsed=t, clock=state.clock)


def _per_minute_reference(state, params, rate, dt, carbs, rng):
    """n verbatim per-minute steps, each meal applied before its substep."""
    for minute_meals in carbs:
        for grams in minute_meals:
            state = apply_meal(state, grams)
        state = _oracles.step_physiology(state, params, rate, dt, rng)
    return state


def _assert_kernel_matches_reference(params, state, rate, dt, carbs, noise,
                                     seed):
    # One standard_normal(n) draw gives the values, and leaves the generator
    # in the state, of the reference's n scalar draws.
    ref_rng = np.random.default_rng(seed) if noise else None
    new_rng = np.random.default_rng(seed) if noise else None
    ref = _per_minute_reference(state, params, rate, dt, carbs, ref_rng)
    new = _integrate(state, params, rate, dt, carbs,
                     new_rng.standard_normal(len(carbs)).tolist() if noise
                     else None)
    assert new == ref
    # == treats 0.0 and -0.0 as equal; repr does not.
    assert repr(new) == repr(ref)
    if noise:
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def _kernel_cases(draw):
    params = make_cohort(draw(st.sampled_from(list(Cohort))))[
        draw(st.integers(0, 3))]
    n = draw(st.integers(1, 15))
    meals = draw(st.lists(
        st.tuples(st.integers(0, n - 1),
                  st.floats(1.0, 120.0, allow_nan=False)), max_size=4))
    carbs = [()] * n
    for minute, grams in meals:
        carbs[minute] += (grams,)
    state = PatientState(
        g=draw(st.floats(1.0, 600.0)),
        s1=draw(st.floats(0.0, 10.0)),
        s2=draw(st.floats(0.0, 10.0)),
        x=draw(st.floats(0.0, 0.1)),
        q_gut=draw(st.floats(0.0, 150.0)),
        t_elapsed=float(draw(st.integers(0, 945))),
        clock=draw(st.integers(0, 2000)))
    return dict(params=params, state=state,
                rate=draw(st.floats(0.0, 9.0)),
                dt=draw(st.sampled_from((1.0, 0.5, 1.0 / 3.0, 2.0))),
                carbs=carbs, noise=draw(st.booleans()),
                seed=draw(st.integers(0, 2**32 - 1)))


@given(_kernel_cases())
def test_integrate_matches_per_minute_reference(case):
    _assert_kernel_matches_reference(**case)


@st.composite
def _lanes(draw):
    """Lanes for integrate_lanes, some of them faulty: each is one float
    kernel call's arguments, all with the same dt, substep count and
    clock."""
    n = draw(st.integers(1, 15))
    dt = draw(st.sampled_from((1.0, 0.5, 1.0 / 3.0, 2.0)))
    clock = draw(st.integers(0, 2000))
    lanes = []
    for _ in range(draw(st.integers(1, 45))):
        case = draw(_kernel_cases())
        carbs = case["carbs"][:n] + [()] * (n - len(case["carbs"]))
        state = replace(case["state"], clock=clock)
        fault = draw(st.sampled_from(
            [None] * 6 + ["nan", "inf", "overflow", "-0.0", "no-noise"]))
        if fault == "nan":
            state = replace(state, x=float("nan"))
        elif fault == "inf":
            state = replace(state, g=float("inf"))
        elif fault == "overflow":        # non-finite in a later substep
            carbs = carbs[:-1] + [(1e308,)]
        elif fault == "-0.0":
            state = replace(state, s1=-0.0, s2=-0.0, x=-0.0, q_gut=-0.0)
        noise = None
        if fault != "no-noise" and case["noise"]:
            noise = np.random.default_rng(case["seed"]).standard_normal(n)
        lanes.append((state, case["params"], case["rate"], carbs, noise))
    return dt, clock, lanes


def _integrate_or_raise(state, params, rate, dt, carbs, noise):
    try:
        return _integrate(state, params, rate, dt, carbs,
                          None if noise is None else noise.tolist())
    except FloatingPointError as exc:
        return exc


@given(_lanes())
def test_integrate_lanes_equals_one_integrate_per_lane(lanes):
    dt, clock, lanes = lanes
    n = len(lanes[0][3])
    states = [lane[0] for lane in lanes]
    fields = tuple(np.array([getattr(s, name) for s in states])
                   for name in ("g", "s1", "s2", "x", "q_gut", "t_elapsed"))
    # Meal j of substep k: lane i's j-th meal grams in it, -0.0 for none.
    carbs = [[np.array([c[k][j] if j < len(c[k]) else -0.0
                        for *_, c, _ in lanes])
              for j in range(max(len(c[k]) for *_, c, _ in lanes))]
             for k in range(n)]
    noise = np.array([np.zeros(n) if z is None else z
                      for *_, z in lanes]).T.copy()
    sigma = np.array([0.0 if z is None else p.noise_sigma * math.sqrt(dt)
                      for _, p, _, _, z in lanes])
    got, errors = integrate_lanes(
        fields, np.array([p.rk4_constants for _, p, *_ in lanes]).T,
        np.array([rate for _, _, rate, *_ in lanes]) / 60.0, dt, carbs,
        noise, sigma, clock)
    assert len(got) == 6 and all(f.shape == (len(lanes),) for f in got)
    for i, lane in enumerate(lanes):
        want = _integrate_or_raise(*lane[:3], dt, *lane[3:])
        if isinstance(want, FloatingPointError):
            # repr tells an error by its message.
            assert repr(errors[i]) == repr(want)
        else:
            assert i not in errors
            # repr tells -0.0 from 0.0.
            assert repr([f[i].item() for f in got]) == repr(
                [want.g, want.s1, want.s2, want.x, want.q_gut, want.t_elapsed])


@pytest.mark.parametrize("noise", [False, True])
@pytest.mark.parametrize("carbs", [
    [(30.0,)] + [()] * 14,                      # meal in minute 0
    [()] * 14 + [(25.0,)],                      # meal in minute 14
    [()] * 6 + [(20.0, 7.5)] + [()] * 8,         # two meals in one minute
    [(12.0,), (), (40.0, 0.1, 3.0)] + [()] * 12,
])
def test_integrate_meal_placement_matches_reference(carbs, noise):
    params = get_patient(Cohort.CHILD, 1)
    state = PatientState(g=143.0, s1=0.4, s2=0.3, x=0.002, q_gut=11.0,
                         t_elapsed=105.0, clock=405)
    _assert_kernel_matches_reference(params, state, 2.7, 1.0, carbs, noise, 7)


def test_integrate_floors_match_reference():
    # A crushing dose drives glucose to its floor inside the interval.
    params = get_patient(Cohort.CHILD, 0)
    state = PatientState(g=45.0, s1=30.0, s2=30.0, x=0.5, q_gut=0.0,
                         t_elapsed=0.0, clock=300)
    _assert_kernel_matches_reference(params, state, 9.0, 1.0, [()] * 15,
                                     True, 3)


def test_integrate_sum_overflow_with_finite_fields_is_not_an_error():
    # s1 + s2 overflows to inf although every field stays finite (a tiny
    # insulin sensitivity keeps the remote action from overflowing x * g).
    params = replace(_quiet(get_patient(Cohort.ADULT, 0)), s_i=1e-300)
    state = PatientState(g=120.0, s1=1e308, s2=1e308, x=0.0, q_gut=0.0,
                         t_elapsed=0.0, clock=300)
    _assert_kernel_matches_reference(params, state, 0.0, 1.0, [()] * 3,
                                     False, 0)


def test_integrate_rejects_non_finite_input_state():
    params = get_patient(Cohort.ADULT, 0)
    for field in ("g", "s1", "s2", "x", "q_gut"):
        state = replace(steady_state(params), **{field: float("nan")})
        with pytest.raises(FloatingPointError):
            _integrate(state, params, 1.0, 1.0, [()] * 15, None)
    state = replace(steady_state(params), s2=float("inf"))
    with pytest.raises(FloatingPointError):
        _integrate(state, params, 1.0, 1.0, [()] * 15, None)


def test_integrate_raises_when_state_turns_non_finite_mid_interval():
    # A finite but enormous meal in minute 7 overflows the gut dynamics.
    params = get_patient(Cohort.ADULT, 0)
    carbs = [()] * 7 + [(1e308,)] + [()] * 7
    state = steady_state(params)
    with pytest.raises(FloatingPointError):
        _per_minute_reference(state, params, 1.0, 1.0, carbs,
                              np.random.default_rng(0))
    noise = np.random.default_rng(0).standard_normal(15).tolist()
    with pytest.raises(FloatingPointError):
        _integrate(state, params, 1.0, 1.0, carbs, noise)
    # The first seven substeps alone stay finite.
    _integrate(state, params, 1.0, 1.0, carbs[:7], noise[:7])
