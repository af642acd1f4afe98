"""Discrete-time glucose-insulin environment (15-minute control interval).

An environment is one patient, ``GlucoseEnv(cohort, patient_id)``. Every
episode starts at 05:00 with glucose drawn in 120-180 mg/dL and follows the
cohort's ``meal_plan``, each meal moved by up to +-30 min and +-20% carbs.
The protocol hash covers these constants.

An episode covers 16 hours (64 control steps). Everything it draws is a
function of its seed alone, drawn at its start by ``episode_draws``: its
noise from two streams of the seed, one array draw each (15 process-noise
values per step and one sensor-noise value per measurement), its initial
glucose and its meal jitter. Episodes of one seed share these draws, so a
lock-step evaluation draws each seed once for all the patients that run it.
Each step integrates the patient physiology at 1-minute RK4 substeps in one
kernel call, with any meal falling in the interval entering before its
substep, and scores the resulting true glucose with the risk reward.
Observations report sensor glucose (true + Gaussian noise); reward and
termination always use true glucose.

There is one simulator core, ``Columns``: the lanes of a lock-step round,
which keep each lane's episode (noise, patient state, meals, observation
window and record so far) in its row of one store of arrays and run one
control interval of every lane per round, on floats or on arrays, both on
that store. A round also does every lane's bookkeeping at once: it records
the interval's rate, true glucose, sensor reading, grams eaten and reward
in the lane's row, decides termination for all lanes in one comparison and
scores them in one pass.
An env is a lane of one in a core of its own, built once with the env, and
a lock-step evaluation episode (``harness.Lane``) is a lane of the round's
core, started on its seed's shared draws; either way ``step`` checks the
rate, reads the lane's outcome from the core and keeps the step count,
truncation and termination cause. An env's ``history`` reads its row of the
core's arrays.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import metrics, patients
from .patients import Cohort, MealEvent, PatientState, get_patient

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

# A lane's row of ``Columns.lane``: g, s1, s2, x, q_gut and t_elapsed, the
# RK4 constants, the noise scales, then each meal's (offset, grams).
_LANE_STATE, _LANE_RK4 = slice(0, 6), slice(6, 15)
_LANE_SIGMA, _LANE_CGM_SIGMA, _LANE_MEALS = 15, 16, 17

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
    not-yet-acted row) and `dose` its insulin over the interval. `meal_carbs`
    is the carbohydrate amount ingested during the interval ending at this
    measurement, and `reward` the interval's reward (both 0.0 for the
    initial measurement).
    """

    step: int
    clock: int
    bg_true: float
    bg_sensor: float
    rate: float
    dose: float
    meal_carbs: float
    reward: float


class History(Sequence):
    """An env's episode so far, one StepRecord per measurement, read from the
    env's row of its core's arrays.

    A read-only sequence (``len``, indexing, slices, iteration) that builds a
    record only for the rows asked for. A row's dose is its rate / 60 * 15
    and its clock the start clock plus 15 minutes per step; the current row
    (the last) is not acted on yet, so its rate and dose read 0.0. A
    lock-step lane's history lasts as long as its lane: the round that ends
    it drops its row.
    """

    __slots__ = ("_env",)

    def __init__(self, env: GlucoseEnv):
        self._env = env

    def __len__(self) -> int:
        env = self._env
        return 0 if env.state is None else env._step_count + 1

    def __getitem__(self, index):
        rows = range(len(self))[index]   # IndexError past either end
        if isinstance(rows, int):
            return self._record(rows)
        return [self._record(step) for step in rows]

    def _record(self, step: int) -> StepRecord:
        env = self._env
        # The row's columns through the core's flat views, whose items are
        # floats already.
        flat = env.core._flat
        i = env.row * (MAX_STEPS + 1) + step
        rate = flat.rate[i] if step < env._step_count else 0.0
        return StepRecord(step, env.state.clock + CONTROL_INTERVAL_MIN * step,
                          flat.bg_true[i], flat.bg_sensor[i], rate,
                          rate / 60.0 * CONTROL_INTERVAL_MIN,
                          flat.meal_carbs[i], flat.reward[i])


@dataclass
class StepResult:
    observation: np.ndarray | None     # None for a lock-step lane
    reward: float
    terminated: bool
    truncated: bool


def build_observation(window: np.ndarray) -> np.ndarray:
    """The observation: a copy of an env's row of its core's window.

    The window holds the trailing 16 (sensor glucose, rate, dose) triples,
    chronological, most recent last; rows before episode start replicate the
    initial sensor glucose with zero insulin. Every call returns a new array,
    so a kept observation never changes when the window rolls on.
    """
    return window.copy()


def featurize(flat_obs: np.ndarray) -> np.ndarray:
    """Scaled policy-network input for one flat observation or a batch."""
    return np.asarray(flat_obs, dtype=np.float64) / _OBS_SCALE


def row_stacked(observations) -> np.ndarray:
    """Scaled network input with one (1, OBS_DIM) row per observation: a
    forward on it gives each row the bytes of its own one-row forward."""
    return featurize(observations)[:, None, :]


class EpisodeDraws(NamedTuple):
    """Everything an episode draws at its start, a function of its seed
    alone: the (MAX_STEPS, CONTROL_INTERVAL_MIN) process noise, the
    MAX_STEPS + 1 sensor-noise values, the initial glucose and each planned
    meal's (minutes, carbs share) jitter, in plan order."""

    noise: np.ndarray
    sensor_noise: np.ndarray
    bg0: float
    jitter: tuple[tuple[float, float], ...]


def episode_draws(ss: np.random.SeedSequence) -> EpisodeDraws:
    """The draws of the episode seeded by ``ss``, from four streams of it.

    One array draw per noise stream gives the values of as many scalar
    draws: one process-noise value per substep and one sensor-noise value
    per measurement. Episodes with the same seed (every patient of one
    protocol (seed, repeat)) share these draws, so one call serves them all.
    """
    init_ss, jitter_ss, noise_ss, sensor_ss = ss.spawn(4)
    noise = np.random.default_rng(noise_ss).standard_normal(
        (MAX_STEPS, CONTROL_INTERVAL_MIN))
    sensor_noise = np.random.default_rng(sensor_ss).standard_normal(
        MAX_STEPS + 1)
    bg0 = float(np.random.default_rng(init_ss).uniform(*INITIAL_BG_RANGE))
    jitter_rng = np.random.default_rng(jitter_ss)
    jitter = tuple((jitter_rng.uniform(-MEAL_JITTER_MIN, MEAL_JITTER_MIN),
                    jitter_rng.uniform(-MEAL_JITTER_CARB_FRAC,
                                       MEAL_JITTER_CARB_FRAC))
                   for _ in _MEALS)
    return EpisodeDraws(noise, sensor_noise, bg0, jitter)


class GlucoseEnv:
    """Single-patient simulation environment; owns its random streams.

    The env is row ``row`` of its ``core``, a one-row ``Columns`` built with
    it: reset draws the episode (``episode_draws``) and ``begin`` copies its
    noise into that row and writes its first measurement and observation
    window there, and each step advances the core by one interval, which
    records and scores the interval in the row. ``history`` reads the
    episode from the row, and ``state`` is the patient state the episode
    started in. A lock-step lane (``harness.Lane``) is a row of its round's
    core instead, which the round advances before its lanes step; it starts
    with ``begin`` on the draws its seed shares with the other lanes of that
    seed.
    """

    def __init__(self, cohort: Cohort, patient_id: int):
        self._join(cohort, patient_id, Columns(1), 0)

    def _join(self, cohort: Cohort, patient_id: int, core: Columns, row: int):
        """Make the env, as row ``row`` of ``core``."""
        self.params = get_patient(cohort, patient_id)
        self._plan = meal_plan(cohort)
        self.state: PatientState | None = None
        self._meals: list[MealEvent] = []
        self.core, self.row = core, row
        self._step_count = 0
        self._done = False
        self.termination_cause: str | None = None

    @property
    def history(self) -> History:
        """The episode so far, read from the env's row of its core."""
        return History(self)

    def reset(self, seed) -> np.ndarray:
        """Start an episode. `seed` is an int or a numpy SeedSequence; the
        episode's draws are ``episode_draws`` of it, and the returned
        observation is a copy of the env's row of its core's window."""
        ss = seed if isinstance(seed, np.random.SeedSequence) \
            else np.random.SeedSequence(int(seed))
        self.begin(episode_draws(ss))
        return build_observation(self.core.window[self.row])

    def begin(self, draws: EpisodeDraws):
        """Start an episode on ``draws``: copy its noise into the env's row
        of its core, place the jittered meals and write the first
        measurement and observation window there."""
        core, row = self.core, self.row
        core.noise[row] = draws.noise
        core.sensor_noise[row] = draws.sensor_noise
        bg0 = draws.bg0
        self._meals = []
        for meal, (dt, dc) in zip(self._plan, draws.jitter):
            t = min(max(meal.time_offset + dt, 0.0), 959.0)
            self._meals.append(MealEvent(time_offset=t,
                                         carbs=max(meal.carbs * (1 + dc), 1.0)))
        self._meals.sort(key=lambda m: m.time_offset)

        self.state = PatientState(g=bg0, s1=0.0, s2=0.0, x=0.0, q_gut=0.0,
                                  t_elapsed=0.0, clock=parse_clock(START_CLOCK))
        self._step_count = 0
        self._done = False
        self.termination_cause = None
        noise = self.params.cgm_sigma * float(draws.sensor_noise[0])
        sensor0 = max(bg0 + noise, 1.0)
        core.bg_true[row, 0] = bg0
        core.bg_sensor[row, 0] = sensor0
        window = core.window[row]
        window[:] = 0.0
        window[::3] = sensor0
        core.interval = 0       # the episode's first interval comes next

    def step(self, action: float) -> StepResult:
        if self.state is None:
            raise RuntimeError("call reset() before step()")
        if self._done:
            raise RuntimeError("episode is over; call reset()")
        if not ACTION_LOW <= action <= ACTION_HIGH:     # NaN fails too
            raise ValueError(f"action must lie in [{ACTION_LOW}, {ACTION_HIGH}], "
                             f"got {action!r}")

        rate = float(action)
        core, row, steps = self.core, self.row, self._step_count
        alone = core.interval == steps
        if alone:   # no lock-step round has run this interval
            if not steps:
                core.start([self])
            core.advance([rate])
        failed = core.failed.get(row)
        if failed is not None:
            raise failed
        self._step_count = steps = steps + 1
        terminated = core.ended[row]
        truncated = not terminated and steps >= MAX_STEPS
        if terminated:
            self.termination_cause = "hypo" \
                if core.bg_true[row, steps] < BG_TERMINATE_LOW else "hyper"
        self._done = terminated or truncated
        # A lock-step lane's observation is its row of the round's window.
        return StepResult(
            observation=build_observation(core.window[row]) if alone
            else None, reward=core.rewards[row], terminated=terminated,
            truncated=truncated)


class Columns:
    """The lanes of a lock-step round, lane i in row i: GlucoseEnvs whose
    episodes run together (an env on its own is a round of one lane).

    The core keeps each lane's episode in its row of one store of arrays. A
    lane's start (``GlucoseEnv.begin``) copies its episode's noise into
    ``noise`` and ``sensor_noise``, writes its first measurement into
    column 0 of ``bg_true`` and ``bg_sensor`` and its first observations
    into ``window``, the (lanes, OBS_DIM) observations a policy reads;
    ``start`` writes its patient state, RK4 constants, noise scales and
    meals into ``lane``. A round (``advance``) runs one control interval of
    every lane and rolls the window. It records the interval in each lane's
    row: the rate in column k of ``rate``, and the true glucose, sensor
    reading, grams eaten and reward of the measurement that ends it in
    column k + 1 of ``bg_true``, ``bg_sensor``, ``meal_carbs`` and
    ``reward``. It leaves each lane's outcome in ``ended`` (glucose outside
    the termination band), ``rewards`` and ``failed`` (lane -> the error of a
    lane whose state became non-finite). ``keep`` drops the lanes that
    ended, with their rows.

    Below ``patients.ARRAY_MIN_LANES`` lanes a round places the meals, runs
    the kernel and reads the sensor per lane on floats, one read of a lane's
    row of ``lane`` each; from there on it does so on (lanes,) columns of
    ``lane``, with operations that repeat the float ones element by element.
    Either branch reads and writes the one store, so a change of branch
    converts nothing. Either way the round scores all lanes in one
    ``metrics.step_rewards`` pass.
    """

    def __init__(self, rows: int):
        """Rows for ``rows`` lanes to reset into."""
        measurements = (rows, MAX_STEPS + 1)
        # Column 0 of meal_carbs and reward stays 0.0: nothing is eaten or
        # scored before the first measurement.
        self._hold(noise=np.empty((rows, MAX_STEPS, CONTROL_INTERVAL_MIN)),
                   window=np.empty((rows, OBS_DIM)), lane=np.empty((rows, 0)),
                   **{name: np.zeros(measurements) for name in (
                       "sensor_noise", "bg_true", "bg_sensor", "rate",
                       "meal_carbs", "reward")})
        self.interval = 0
        self.ended, self.rewards, self.failed = [], [], {}

    def _hold(self, **arrays):
        """Make these the lanes' arrays, each an attribute of its name. A
        float round reads and writes them through flat views of their
        doubles, by the same names in ``_flat``, which cost a lane less than
        array indexing does."""
        vars(self).update(arrays)
        self._arrays = arrays
        self._flat = SimpleNamespace(**{name: a.reshape(-1).data
                                        for name, a in arrays.items()})

    def start(self, envs: list[GlucoseEnv]):
        """Take the episodes of ``envs``, the lanes whose start succeeded, in
        that order."""
        if len(envs) < len(self.noise):     # a lane failed its start
            self.keep([env.row for env in envs], envs)
        lane = []
        for env in envs:
            s, p = env.state, env.params
            lane.append([s.g, s.s1, s.s2, s.x, s.q_gut, s.t_elapsed,
                         *p.rk4_constants,
                         p.noise_sigma * math.sqrt(SUBSTEP_MIN), p.cgm_sigma,
                         *(v for m in env._meals
                           for v in (m.time_offset, m.carbs))])
        self._hold(**dict(self._arrays, lane=np.array(lane)))
        self.clock = envs[0].state.clock    # every lane's: all start together

    def advance(self, rates: list[float]):
        """One control interval of every lane at its rate (U/h)."""
        # Shifting the whole window by three values moves each row's last 45
        # values to its front; the round then writes each row's last five: the
        # interval's rate and dose, and the new row (over the next row's first
        # three, which the shift left there).
        window = self._flat.window
        window[:-3] = window[3:]
        if len(rates) >= patients.ARRAY_MIN_LANES:
            glucose, self.ended = self._advance_arrays(rates)
        else:
            glucose, self.ended = self._advance_floats(rates)
        self.rewards = metrics.step_rewards(glucose, self.ended)
        self.interval += 1
        self.reward[:, self.interval] = self.rewards
        self.clock += CONTROL_INTERVAL_MIN

    def _advance_floats(self, rates):
        """The round on each lane's floats; returns the lanes' true glucose
        and termination flags, as lists."""
        interval, clock, rk4 = self.interval, self.clock, patients._rk4
        flat, width = self._flat, self.lane.shape[1]
        lane, noise, sensor_noise = flat.lane, flat.noise, flat.sensor_noise
        window, bg_true, bg_sensor = flat.window, flat.bg_true, flat.bg_sensor
        rate_at, meal_carbs = flat.rate, flat.meal_carbs
        glucose, ended, failed = [], [], {}
        for i, rate in enumerate(rates):
            b = i * width
            row = lane[b:b + width].tolist()
            # A meal is eaten in substep k when t0 + k <= offset < t0 + k + 1;
            # t0 is a whole number of minutes, so k is floor(offset - t0).
            t0 = row[5]
            carbs, eaten = [()] * CONTROL_INTERVAL_MIN, 0.0
            meals = iter(row[_LANE_MEALS:])
            for offset, grams in zip(meals, meals):
                minute = math.floor(offset - t0)
                if 0 <= minute < CONTROL_INTERVAL_MIN:
                    carbs[minute] += (grams,)
                    eaten += grams
            infusion = rate / 60.0
            # Lane i's noise of this interval; its measurement columns: m of
            # the measurement the rate was chosen at, m + 1 of the next.
            z = (i * MAX_STEPS + interval) * CONTROL_INTERVAL_MIN
            m = i * (MAX_STEPS + 1) + interval
            try:
                state = rk4(*row[_LANE_STATE], row[_LANE_RK4], infusion,
                            SUBSTEP_MIN, carbs,
                            noise[z:z + CONTROL_INTERVAL_MIN].tolist(),
                            row[_LANE_SIGMA], clock)
                for j, value in enumerate(state, b):
                    lane[j] = value
                g = state[0]
                sensor = max(g + row[_LANE_CGM_SIGMA] * sensor_noise[m + 1],
                             1.0)
            except FloatingPointError as exc:
                failed[i] = exc
                g = sensor = math.nan
            glucose.append(g)
            ended.append(g < BG_TERMINATE_LOW or g > BG_TERMINATE_HIGH)
            rate_at[m] = rate
            bg_true[m + 1] = g
            bg_sensor[m + 1] = sensor
            meal_carbs[m + 1] = eaten
            w = (i + 1) * OBS_DIM
            window[w - 5] = rate
            window[w - 4] = infusion * CONTROL_INTERVAL_MIN
            window[w - 3] = sensor
            window[w - 2] = window[w - 1] = 0.0
        self.failed = failed
        return glucose, ended

    def _advance_arrays(self, rates):
        """The round on (lanes,) columns of the store; returns the lanes' true
        glucose and termination flags, as lists."""
        k, lane = self.interval, self.lane
        state = lane[:, _LANE_STATE].T
        t = state[5]
        rates = np.array(rates, dtype=np.float64)
        # The float round's meal placement: meal j of substep k is one array
        # over the lanes.
        grams = lane[:, _LANE_MEALS + 1::2].T
        minute = np.floor(lane[:, _LANE_MEALS::2].T - t)
        eaten = (0.0 <= minute) & (minute < CONTROL_INTERVAL_MIN)
        carbs = [[] for _ in range(CONTROL_INTERVAL_MIN)]
        meal_carbs = np.zeros(len(t))
        if eaten.any():
            for j in range(len(minute)):
                for m in np.unique(minute[j][eaten[j]]).tolist():
                    carbs[int(m)].append(np.where(minute[j] == m, grams[j],
                                                  -0.0))
                meal_carbs = meal_carbs + np.where(eaten[j], grams[j], 0.0)
        infusion = rates / 60.0
        # The kernel reads each constant in every substep: a contiguous copy
        # of them costs less than strided columns there.
        fields, self.failed = patients.integrate_lanes(
            tuple(state), lane[:, _LANE_RK4].T.copy(), infusion, SUBSTEP_MIN,
            carbs, self.noise[:, k].T.copy(), lane[:, _LANE_SIGMA], self.clock)
        state[:] = fields
        g = fields[0]
        sensor = g + lane[:, _LANE_CGM_SIGMA] * self.sensor_noise[:, k + 1]
        np.copyto(sensor, 1.0, where=1.0 > sensor)     # max(reading, 1.0)
        tail = self.window[:, -5:]
        tail[:, 0] = rates
        tail[:, 1] = infusion * CONTROL_INTERVAL_MIN     # the dose
        tail[:, 2] = sensor
        tail[:, 3:] = 0.0
        self.rate[:, k] = rates
        self.bg_true[:, k + 1] = g
        self.bg_sensor[:, k + 1] = sensor
        self.meal_carbs[:, k + 1] = meal_carbs
        ended = (g < BG_TERMINATE_LOW) | (g > BG_TERMINATE_HIGH)
        return g.tolist(), ended.tolist()

    def keep(self, rows: list[int], envs: list[GlucoseEnv]):
        """Keep only ``envs``, the lanes of ``rows``, in that order."""
        self._hold(**{name: a[rows] for name, a in self._arrays.items()})
        for row, env in enumerate(envs):
            env.row = row


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

