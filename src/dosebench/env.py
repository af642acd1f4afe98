"""Discrete-time glucose-insulin environment (15-minute control interval).

An environment is one patient, ``GlucoseEnv(cohort, patient_id)``. Every
episode starts at 05:00 with glucose drawn in 120-180 mg/dL and follows the
cohort's ``meal_plan``, each meal moved by up to +-30 min and +-20% carbs.
The protocol hash covers these constants.

An episode covers 16 hours (64 control steps). Its reset draws all of its
noise from two streams of its seed, one array draw each: 15 process-noise
values per step and one sensor-noise value per measurement. Each step
integrates the patient physiology at 1-minute RK4 substeps in one kernel
call, with any meal falling in the interval entering before its substep, and
scores the resulting true glucose with the risk reward. Observations report
sensor glucose (true + Gaussian noise); reward and termination always use
true glucose. The env keeps the observation window as a flat list of OBS_DIM
floats and rolls it by one row per step, so an observation costs the same at
every step of an episode.

In lock-step evaluation (``harness.Lane``) a round integrates, reads the
sensor and rolls the window of many envs at once, on arrays, and ``step``
keeps each env's own bookkeeping: the rate check, the reward, the
termination and the history (see ``GlucoseEnv._advance``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .patients import (Cohort, MealEvent, PatientState, get_patient,
                       integrate)

CONTROL_INTERVAL_MIN = 15
SUBSTEP_MIN = 1.0
MAX_STEPS = 64
WINDOW_STEPS = 16
OBS_DIM = 3 * WINDOW_STEPS

# The dose range every policy acts in, in U/h. The policies' dose maps (the
# DQN grid, the PPO transforms) start at zero.
ACTION_LOW = 0.0
ACTION_HIGH = 9.0

BG_TERMINATE_LOW = 40.0
BG_TERMINATE_HIGH = 500.0

INITIAL_BG_RANGE = (120.0, 180.0)   # mg/dL, drawn uniformly per episode
START_CLOCK = "05:00"
MEAL_JITTER_MIN = 30.0              # each meal moves by up to +- this
MEAL_JITTER_CARB_FRAC = 0.2         # and its carbs by up to +- this share

# Meal plan: breakfast / lunch / afternoon snack, grams before the cohort
# scale factor, minutes after episode start (05:00 + offset).
_MEALS = ((120.0, 45.0), (420.0, 60.0), (600.0, 20.0))
_COHORT_MEAL_SCALE = {Cohort.ADULT: 1.0, Cohort.ADOLESCENT: 0.8, Cohort.CHILD: 0.6}

# Fixed feature scaling applied to the raw observation before the policy
# networks: glucose, rate and dose live on very different ranges.
_OBS_SCALE = np.tile(np.array(
    [200.0, ACTION_HIGH, ACTION_HIGH * CONTROL_INTERVAL_MIN / 60.0]),
    WINDOW_STEPS)


def parse_clock(text: str) -> int:
    """'HH:MM' -> minutes since midnight."""
    hh, mm = text.split(":")[:2]
    return int(hh) * 60 + int(mm)


def format_clock(total_minutes: int) -> tuple[int, str]:
    """Absolute minutes since day-1 midnight -> (day index, 'HH:MM:SS')."""
    day = total_minutes // (24 * 60) + 1
    rem = total_minutes % (24 * 60)
    return day, f"{rem // 60:02d}:{rem % 60:02d}:00"


def meal_plan(cohort: Cohort) -> tuple[MealEvent, ...]:
    """The cohort's meals in time order, before each episode's jitter."""
    scale = _COHORT_MEAL_SCALE[Cohort(cohort)]
    return tuple(MealEvent(time_offset=t, carbs=c * scale) for t, c in _MEALS)


@dataclass(slots=True)
class StepRecord:
    """One measurement plus the action taken at that time.

    `rate` is the infusion chosen at this measurement (0.0 for the current,
    not-yet-acted row and for the initial measurement). `meal_carbs` is the
    carbohydrate amount ingested during the interval ending at this
    measurement.
    """

    step: int
    clock: int
    bg_true: float
    bg_sensor: float
    rate: float = 0.0
    dose: float = 0.0
    meal_carbs: float = 0.0
    reward: float = 0.0


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    terminated: bool
    truncated: bool


def build_observation(window: list[float]) -> np.ndarray:
    """The observation: an env's OBS_DIM-float window as a new array.

    The window holds the trailing 16 (sensor glucose, rate, dose) triples,
    chronological, most recent last; rows before episode start replicate the
    initial sensor glucose with zero insulin. Every call returns a new array,
    so a kept observation never changes when the window rolls on.
    """
    return np.array(window, dtype=np.float64)


def featurize(flat_obs: np.ndarray) -> np.ndarray:
    """Scaled policy-network input for one flat observation or a batch."""
    return np.asarray(flat_obs, dtype=np.float64) / _OBS_SCALE


def row_stacked(observations) -> np.ndarray:
    """Scaled network input with one (1, OBS_DIM) row per observation: a
    forward on it gives each row the bytes of its own one-row forward."""
    return featurize(observations)[:, None, :]


class GlucoseEnv:
    """Single-patient simulation environment; owns its random streams.

    ``history`` holds one StepRecord per measurement. ``_window`` is the
    observation window over it as a flat list of (sensor glucose, rate, dose)
    triples: a step writes the chosen rate and dose into the current row,
    drops the oldest row and appends the new measurement.
    """

    def __init__(self, cohort: Cohort, patient_id: int):
        self.params = get_patient(cohort, patient_id)
        self._plan = meal_plan(cohort)
        self.history: list[StepRecord] = []
        self._window: list[float] = []
        self.state: PatientState | None = None
        self._meals: list[MealEvent] = []
        # The episode's noise, which reset draws: one process-noise value
        # per substep and one sensor-noise value per measurement.
        self._noise = np.empty((MAX_STEPS, CONTROL_INTERVAL_MIN))
        self._sensor_noise = np.empty(MAX_STEPS + 1)
        self._step_count = 0
        self._done = False
        self.termination_cause: str | None = None

    def reset(self, seed) -> np.ndarray:
        """Start an episode. `seed` is an int or a numpy SeedSequence."""
        ss = seed if isinstance(seed, np.random.SeedSequence) \
            else np.random.SeedSequence(int(seed))
        init_ss, jitter_ss, noise_ss, sensor_ss = ss.spawn(4)
        # One array draw per stream gives the values of as many scalar draws.
        np.random.default_rng(noise_ss).standard_normal(out=self._noise)
        np.random.default_rng(sensor_ss).standard_normal(out=self._sensor_noise)

        init_rng = np.random.default_rng(init_ss)
        bg0 = float(init_rng.uniform(*INITIAL_BG_RANGE))

        jitter_rng = np.random.default_rng(jitter_ss)
        self._meals = []
        for meal in self._plan:
            dt = jitter_rng.uniform(-MEAL_JITTER_MIN, MEAL_JITTER_MIN)
            dc = jitter_rng.uniform(-MEAL_JITTER_CARB_FRAC,
                                    MEAL_JITTER_CARB_FRAC)
            t = min(max(meal.time_offset + dt, 0.0), 959.0)
            self._meals.append(MealEvent(time_offset=t,
                                         carbs=max(meal.carbs * (1 + dc), 1.0)))
        self._meals.sort(key=lambda m: m.time_offset)

        clock0 = parse_clock(START_CLOCK)
        self.state = PatientState(g=bg0, s1=0.0, s2=0.0, x=0.0, q_gut=0.0,
                                  t_elapsed=0.0, clock=clock0)
        self._step_count = 0
        self._done = False
        self.termination_cause = None
        sensor0 = self._sense(bg0, 0)
        self.history = [StepRecord(step=0, clock=clock0, bg_true=bg0,
                                   bg_sensor=sensor0)]
        self._window = [sensor0, 0.0, 0.0] * WINDOW_STEPS
        return build_observation(self._window)

    def interval_meals(self) -> tuple[list[tuple[float, ...]], float]:
        """The meals of the next control interval: the grams eaten in each
        of its substeps, as ``integrate`` takes them, and their sum."""
        # A meal is eaten in substep k when t0 + k <= offset < t0 + k + 1; t0
        # is a whole number of minutes, so k is floor(offset - t0).
        t0 = self.state.t_elapsed
        carbs = [()] * CONTROL_INTERVAL_MIN
        meal_carbs = 0.0
        for meal in self._meals:
            minute = math.floor(meal.time_offset - t0)
            if 0 <= minute < CONTROL_INTERVAL_MIN:
                carbs[minute] += (meal.carbs,)
                meal_carbs += meal.carbs
        return carbs, meal_carbs

    def _sense(self, bg_true: float, measurement: int) -> float:
        """The sensor reading of true glucose at the episode's measurement
        with that index (0 at reset)."""
        noise = self.params.cgm_sigma * float(self._sensor_noise[measurement])
        return max(bg_true + noise, 1.0)

    def _advance(self, rate: float, dose: float) -> tuple[float, float, float]:
        """Integrate this interval at ``rate`` and roll the window; returns
        the true glucose at its end, its sensor reading and the grams eaten
        in it. A lock-step lane (``harness.Lane``) takes these from its row
        of the round's columns instead."""
        carbs, meal_carbs = self.interval_meals()
        step = self._step_count
        state = self.state = integrate(self.state, self.params, rate,
                                       SUBSTEP_MIN, carbs,
                                       self._noise[step].tolist())
        state.clock += CONTROL_INTERVAL_MIN
        sensor = self._sense(state.g, step + 1)
        window = self._window
        window[-2] = rate
        window[-1] = dose
        del window[:3]
        window += (sensor, 0.0, 0.0)
        return state.g, sensor, meal_carbs

    def _observation(self) -> np.ndarray:
        return build_observation(self._window)

    def step(self, action: float) -> StepResult:
        if self.state is None:
            raise RuntimeError("call reset() before step()")
        if self._done:
            raise RuntimeError("episode is over; call reset()")
        if not math.isfinite(action) or not (ACTION_LOW <= action <= ACTION_HIGH):
            raise ValueError(f"action must lie in [{ACTION_LOW}, {ACTION_HIGH}], "
                             f"got {action!r}")

        # Record the chosen action on the current measurement row.
        rate = float(action)
        dose = rate / 60.0 * CONTROL_INTERVAL_MIN
        last = self.history[-1]
        last.rate = rate
        last.dose = dose
        bg, sensor, meal_carbs = self._advance(rate, dose)
        self._step_count += 1

        terminated = bg < BG_TERMINATE_LOW or bg > BG_TERMINATE_HIGH
        truncated = not terminated and self._step_count >= MAX_STEPS
        risk = metrics.risk_index(bg).ri
        reward = metrics.risk_reward(risk, terminated)
        if terminated:
            self.termination_cause = "hypo" if bg < BG_TERMINATE_LOW else "hyper"
        self._done = terminated or truncated
        self.history.append(StepRecord(
            step=self._step_count, clock=last.clock + CONTROL_INTERVAL_MIN,
            bg_true=bg, bg_sensor=sensor, meal_carbs=meal_carbs,
            reward=reward))
        return StepResult(observation=self._observation(), reward=reward,
                          terminated=terminated, truncated=truncated)


def cohort_envs(env_group: str) -> list[GlucoseEnv]:
    """Training environments: a cohort's 4 patients, or all 12 for 'mixed'."""
    cohorts = list(Cohort) if env_group == "mixed" else [Cohort(env_group)]
    return [GlucoseEnv(c, pid) for c in cohorts for pid in range(4)]


def rollout(envs, act, next_seed):
    """Play one episode per env in turn, for ever.

    ``act(obs, env)`` returns (action to record, basal rate to apply) and
    ``next_seed()`` supplies each reset seed. Yields (obs, action, result,
    env) per step, where obs is the observation the action was chosen on.
    The next env is reset only when the step after an episode's last one is
    asked for, so a consumer that stops there leaves it untouched.
    """
    for env in itertools.cycle(envs):
        obs = env.reset(next_seed())
        while True:
            action, rate = act(obs, env)
            result = env.step(rate)
            yield obs, action, result, env
            if result.terminated or result.truncated:
                break
            obs = result.observation


def seeds_from(rng: np.random.Generator):
    """A rollout ``next_seed``: each call draws one reset seed from rng."""
    return lambda: int(rng.integers(2**31))


class EpisodeTally:
    """Normalised returns and termination causes of the episodes that ended
    since the last flush: the epoch-log fields DQN and PPO share."""

    def __init__(self):
        self._return = 0.0   # of the running episode; spans flushes
        self._returns, self._hypo, self._hyper = [], 0, 0

    def add(self, result: StepResult, env: GlucoseEnv):
        self._return += result.reward
        if result.terminated or result.truncated:
            self._returns.append(metrics.normalized_return(self._return))
            self._return = 0.0
            self._hypo += env.termination_cause == "hypo"
            self._hyper += env.termination_cause == "hyper"

    def flush(self) -> dict:
        returns = self._returns
        fields = {
            "train_return": float(np.mean(returns)) if returns else float("nan"),
            "episodes": len(returns),
            "hypo_terminations": self._hypo,
            "hyper_terminations": self._hyper,
        }
        self._returns, self._hypo, self._hyper = [], 0, 0
        return fields

