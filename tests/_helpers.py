"""Helpers that only the tests use: a noise-free environment, the cohort
volatility metric and the survival fraction of a list of episodes."""

from dataclasses import replace

import numpy as np

from dosebench.env import GlucoseEnv, Scenario
from dosebench.patients import (PatientParams, apply_meal, get_patient,
                                steady_state, step_physiology)


def survival_rate(episodes) -> float:
    """Fraction of episodes that reached the 64-step horizon (truncated)."""
    episodes = list(episodes)
    if not episodes:
        raise ValueError("survival_rate requires a non-empty episode list")
    return sum(1 for e in episodes if e.truncated) / len(episodes)


def noiseless(scenario: Scenario) -> GlucoseEnv:
    """Environment with process and sensor noise switched off."""
    params = get_patient(scenario.cohort, scenario.patient_id)
    params = replace(params, noise_sigma=0.0, cgm_sigma=0.0)
    return GlucoseEnv(scenario, params=params)


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
        state = step_physiology(state, quiet, 0.0, 1.0)
        traj.append(state.g)
    return float(np.std(traj))
