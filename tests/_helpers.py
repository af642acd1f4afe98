"""Helpers that only the tests use: a noise-free environment, direct meal
and bolus inputs to a patient state, the cohort volatility and correction
metrics, the survival fraction of a list of episodes, the closed-form
gradient of the squashed-Gaussian log-density and one training run for a
worker process."""

from dataclasses import replace

import numpy as np

from dosebench import harness
from dosebench.env import START_CLOCK, GlucoseEnv, parse_clock
from dosebench.patients import (Cohort, PatientParams, PatientState,
                                step_physiology)
from dosebench.ppo import unsquash_tanh


def survival_rate(episodes) -> float:
    """Fraction of episodes that reached the 64-step horizon (truncated)."""
    episodes = list(episodes)
    if not episodes:
        raise ValueError("survival_rate requires a non-empty episode list")
    return sum(1 for e in episodes if e.truncated) / len(episodes)


def noiseless(cohort: Cohort, patient_id: int) -> GlucoseEnv:
    """Environment with process and sensor noise switched off."""
    env = GlucoseEnv(cohort, patient_id)
    env.params = replace(env.params, noise_sigma=0.0, cgm_sigma=0.0)
    return env


def log_prob_tanh_grad(a: float, mu: float,
                       sigma: float) -> tuple[float, float]:
    """(d/dmu, d/dsigma) of the log-density of the squashed-Gaussian dose a,
    ``ppo.log_prob_tanh_z(unsquash_tanh(a), mu, sigma)``; the Jacobian term
    has no theta."""
    z = unsquash_tanh(a)
    d_mu = (z - mu) / sigma ** 2
    d_sigma = (z - mu) ** 2 / sigma ** 3 - 1.0 / sigma
    return d_mu, d_sigma


def meal_response_std(params: PatientParams, initial_bg: float,
                      carbs: float = 30.0, horizon_min: int = 240) -> float:
    """Std over time of the noiseless BG trajectory after a single meal.

    Used as the cohort volatility metric: for the same meal, the smaller the
    patient's distribution volume, the larger the excursion and the std.
    """
    quiet = replace(params, noise_sigma=0.0)
    state = apply_meal(steady_state(quiet, g=initial_bg), carbs)
    traj = [state.g]
    for _ in range(horizon_min):
        state = step_physiology(state, quiet, 0.0, 1.0, None)
        traj.append(state.g)
    return float(np.std(traj))


def apply_meal(state: PatientState, carbs: float) -> PatientState:
    """Add carbs to the gut compartment; glucose is untouched at this instant."""
    if carbs <= 0:
        raise ValueError("carbs must be positive")
    return replace(state, q_gut=state.q_gut + carbs)


def apply_bolus(state: PatientState, units: float) -> PatientState:
    """Instantaneous subcutaneous bolus."""
    if units < 0:
        raise ValueError("bolus units must be non-negative")
    return replace(state, s1=state.s1 + units)


def steady_state(params: PatientParams, g: float | None = None) -> PatientState:
    """Resting state with no insulin on board and an empty gut, at the
    start of an episode."""
    return PatientState(g=params.g_b if g is None else g,
                        s1=0.0, s2=0.0, x=0.0, q_gut=0.0, t_elapsed=0.0,
                        clock=parse_clock(START_CLOCK))


def correction_drop(params: PatientParams, initial_bg: float, units: float,
                    horizon_min: int = 180) -> float:
    """Peak glucose drop attributable to a correction bolus, noise off.

    Measured against the untreated trajectory from the same start, so the
    slow p1 relaxation toward basal does not count toward the correction
    factor.
    """
    quiet = replace(params, noise_sigma=0.0)
    treated = apply_bolus(steady_state(quiet, g=initial_bg), units)
    untreated = steady_state(quiet, g=initial_bg)
    best = 0.0
    for _ in range(horizon_min):
        treated = step_physiology(treated, quiet, 0.0, 1.0, None)
        untreated = step_physiology(untreated, quiet, 0.0, 1.0, None)
        best = max(best, untreated.g - treated.g)
    return best


def train_in_worker(train, cohort: str, config, seed: int):
    """``train(cohort, config, seed)``, for a process pool: the log rows
    ``dosebench train`` writes and the parameter vector of the best
    checkpoint (a PPO checkpoint's actor)."""
    result = train(cohort, config, seed)
    best = dict(result.checkpoints)[harness.select_best_checkpoint(result.log)]
    return [vars(entry) for entry in result.log], \
        getattr(best, "actor", best).params
