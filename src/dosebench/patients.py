"""Virtual patient cohorts and the minimal glucose-insulin physiology.

Three cohorts of four patients each. Volatility ordering is built into the
parameters: children have the smallest glucose distribution volume (so the
same meal moves them the most), adults the largest. Insulin follows a
two-compartment subcutaneous chain into a remote-action state that lowers
glucose multiplicatively; carbs drain from a gut compartment into plasma.

State derivatives (u = infusion rate in U/h):

    s1' = u/60 - s1/tau_sc
    s2' = (s1 - s2)/tau_sc
    I   = s2 / (tau_sc * v_i)
    x'  = -p2*x + p2*s_i*I
    q'  = -k_abs*q
    g'  = -p1*(g - g_b) - x*g + 1000*f_bio*k_abs*q/v_g  (+ process noise)

Integration is RK4 at 1-minute substeps, one call per control interval:
``_rk4`` on one lane's floats, or ``integrate_lanes``, with the same float
operations, on a (5, lanes) stack of a lock-step round's state columns
(``env.Columns`` chooses by lane count, ``ARRAY_MIN_LANES``, and keeps the
lanes' state in one store that either call reads and is written back to). A
meal enters the gut before the substep it falls in; process noise enters
after each substep, from standard normal draws the caller passes in (an
episode's are drawn once, at its start: ``env.episode_draws``).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Cohort(str, Enum):
    ADULT = "adult"
    ADOLESCENT = "adolescent"
    CHILD = "child"


@dataclass(frozen=True)
class PatientParams:
    cohort: Cohort
    patient_id: int
    v_g: float          # glucose distribution volume, dL
    s_i: float          # insulin sensitivity, 1/min per U/L
    p1: float           # glucose self-regulation rate, 1/min
    p2: float           # insulin-action decay rate, 1/min
    tau_sc: float       # subcutaneous absorption time constant, min
    v_i: float          # insulin distribution volume, L
    k_abs: float        # carb absorption rate, 1/min
    f_bio: float        # meal bioavailability
    g_b: float          # basal glucose, mg/dL
    noise_sigma: float  # process noise, mg/dL per sqrt-min
    cgm_sigma: float    # sensor noise std, mg/dL

    def __post_init__(self):
        for name in ("v_g", "s_i", "p1", "p2", "tau_sc", "v_i", "k_abs", "g_b"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if not (0 < self.f_bio <= 1):
            raise ValueError("f_bio must lie in (0, 1]")
        if self.noise_sigma < 0 or self.cgm_sigma < 0:
            raise ValueError("noise scales must be non-negative")

    @functools.cached_property
    def rk4_constants(self) -> tuple[float, ...]:
        """The loop-invariant constants of the RK4 body, but the infusion."""
        return (-self.p1, self.g_b, -self.p2, self.p2 * self.s_i, self.tau_sc,
                self.tau_sc * self.v_i, 1000.0 * self.f_bio * self.k_abs,
                self.v_g, -self.k_abs)


@dataclass
class PatientState:
    g: float        # plasma glucose, mg/dL
    s1: float       # subcutaneous insulin, first compartment, U
    s2: float       # subcutaneous insulin, second compartment, U
    x: float        # remote insulin action, 1/min
    q_gut: float    # gut carbohydrate, g
    t_elapsed: float    # minutes since episode start
    clock: int          # wall-clock minutes since day-1 midnight

    def check_finite(self):
        vals = (self.g, self.s1, self.s2, self.x, self.q_gut)
        if not all(math.isfinite(v) for v in vals):
            raise FloatingPointError(f"non-finite patient state: {self}")


@dataclass(frozen=True)
class MealEvent:
    time_offset: float  # minutes from episode start
    carbs: float        # grams

    def __post_init__(self):
        if not (0 <= self.time_offset < 960):
            raise ValueError("meal time_offset must lie in [0, 960)")
        if self.carbs <= 0:
            raise ValueError("meal carbs must be positive")


# Cohort base parameters. Child s_i is frozen where the patient-0 correction
# factor lands near 25 mg/dL per unit (2.36 U from BG 164 gives a ~57 mg/dL
# peak drop vs the untreated trajectory); k_abs sets meal-spike sharpness and
# separates careless dosing from deliberate control on the child group.
# Adult/adolescent values scale with their larger distribution volumes and
# slower kinetics.
_BASE = {
    Cohort.ADULT: dict(
        v_g=120.0, s_i=3.6, p1=0.010, p2=0.020, tau_sc=60.0, v_i=12.0,
        k_abs=0.022, f_bio=0.8, g_b=140.0, noise_sigma=0.15, cgm_sigma=2.0,
    ),
    Cohort.ADOLESCENT: dict(
        v_g=75.0, s_i=1.9, p1=0.006, p2=0.030, tau_sc=40.0, v_i=8.0,
        k_abs=0.018, f_bio=0.8, g_b=130.0, noise_sigma=0.20, cgm_sigma=2.0,
    ),
    Cohort.CHILD: dict(
        v_g=45.0, s_i=1.51, p1=0.004, p2=0.040, tau_sc=25.0, v_i=5.0,
        k_abs=0.022, f_bio=0.8, g_b=120.0, noise_sigma=0.25, cgm_sigma=2.0,
    ),
}

# Mild deterministic within-cohort spread; patient 0 keeps the calibrated
# base values. v_g multipliers stay within +-10% so the cohort-level
# volatility ordering is preserved patient by patient.
_SI_SPREAD = (1.00, 0.92, 1.06, 0.97)
_VG_SPREAD = (1.00, 1.05, 0.93, 1.08)


def make_cohort(cohort: Cohort) -> list[PatientParams]:
    """Deterministic parameter sets for the four patients of a cohort."""
    cohort = Cohort(cohort)
    base = _BASE[cohort]
    patients = []
    for pid in range(4):
        patients.append(PatientParams(
            cohort=cohort,
            patient_id=pid,
            v_g=base["v_g"] * _VG_SPREAD[pid],
            s_i=base["s_i"] * _SI_SPREAD[pid],
            p1=base["p1"],
            p2=base["p2"],
            tau_sc=base["tau_sc"],
            v_i=base["v_i"],
            k_abs=base["k_abs"],
            f_bio=base["f_bio"],
            g_b=base["g_b"],
            noise_sigma=base["noise_sigma"],
            cgm_sigma=base["cgm_sigma"],
        ))
    return patients


@functools.cache
def get_patient(cohort: Cohort, patient_id: int) -> PatientParams:
    return make_cohort(cohort)[patient_id]


# env.Columns runs a control interval (meal placement, the kernel and the
# sensor read) as array operations over its lanes from this many lanes on, and
# per lane on floats below it: the array round has a fixed cost of about
# 0.6 ms, which floats undercut up to 23 lanes and stay within 6% of up to
# 25. Measured on a 2-vCPU x86-64 VM, one pinned CPU, per lock-step interval
# (least of 7 runs of 64 intervals, floats against arrays): 0.41 against
# 0.59 ms at 16 lanes, 0.56 against 0.59 at 22, 0.59 against 0.59 at 23,
# 0.61 against 0.59 at 24, 0.64 against 0.60 at 25, 0.67 against 0.60 at 26,
# 0.81 against 0.60 at 32, 1.01 against 0.63 at 40, 1.68 against 0.63 at 64,
# 6.24 against 0.85 at 240.
ARRAY_MIN_LANES = 26


def integrate_lanes(fields: Sequence[np.ndarray], constants: np.ndarray,
                    infusion: np.ndarray, dt: float,
                    carbs: Sequence[Sequence[np.ndarray]], noise: np.ndarray,
                    sigma: np.ndarray, clock: int
                    ) -> tuple[tuple[np.ndarray, ...],
                               dict[int, FloatingPointError]]:
    """One control interval of every lane of a lock-step round. g, s1, s2, x
    and q are the rows of one (5, lanes) stack, so per substep a stage point
    is two numpy calls, the final update six, and the floors and the
    finiteness check two each. Each expression is ``_rk4``'s, at most with
    the operands of a + or * swapped (IEEE + and * commute exactly), so
    every lane gets the bits of its float call.

    ``fields`` are the lanes' g, s1, s2, x, q_gut and t_elapsed, and
    ``clock`` is every lane's clock. ``constants`` has one row per entry of
    ``rk4_constants``, ``infusion`` is each lane's rate / 60, ``carbs[k]``
    holds one array of grams per meal eaten in substep k, -0.0 where a lane
    eats none (x + -0.0 is x for every float x), ``noise[k]`` is substep
    k's draws and ``sigma`` each lane's noise_sigma * sqrt(dt), 0.0 for a
    lane without noise (which then adds 0.0 * z to glucose before its
    floor, leaving the floored value as it is).

    Returns the fields at the end of the interval and the
    FloatingPointError that the float call raises for each lane that fails,
    one with a non-finite field at the start or after a substep; a failed
    lane runs on as NaN or inf and leaves the others as they are.
    """
    neg_p1, g_b, neg_p2, p2_s_i, tau, tau_v_i, ra_gain, v_g, neg_k_abs = \
        constants
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    y, t = np.array(fields[:5]), fields[5]
    floors = np.array([[1.0], [0.0], [0.0], [0.0], [0.0]])
    # Scratch made once per call: the stage point, the four slopes, the
    # final update's sum and one lane-long temporary.
    stage, acc, k = np.empty_like(y), np.empty_like(y), np.empty((4, *y.shape))
    rows, stage_rows, slopes = tuple(y), tuple(stage), [tuple(r) for r in k]
    w, errors = np.empty(len(t)), {}

    def check():
        finite = np.isfinite(y)
        if not finite.all():
            for i in np.flatnonzero(~finite.all(axis=0)).tolist():
                if i not in errors:     # a float call raises at the first
                    try:
                        PatientState(*y[:, i].tolist(), float(t[i]),
                                     clock).check_finite()
                    except FloatingPointError as exc:
                        errors[i] = exc

    def slope(at, out):
        """The derivatives at the fields ``at`` into the rows ``out``."""
        gs, s1s, s2s, xs, qs = at
        kg, ka, kb, kx, kq = out
        np.subtract(gs, g_b, out=kg)        # neg_p1 * (gs - g_b)
        kg *= neg_p1
        np.multiply(xs, gs, out=w)          # - xs * gs
        kg -= w
        np.multiply(ra_gain, qs, out=w)     # + ra_gain * qs / v_g
        np.divide(w, v_g, out=w)
        kg += w
        np.divide(s1s, tau, out=ka)         # infusion - s1s / tau
        np.subtract(infusion, ka, out=ka)
        np.subtract(s1s, s2s, out=kb)       # (s1s - s2s) / tau
        kb /= tau
        np.divide(s2s, tau_v_i, out=w)      # neg_p2 * xs + p2_s_i * (...)
        np.multiply(w, p2_s_i, out=w)
        np.multiply(neg_p2, xs, out=kx)
        kx += w
        np.multiply(neg_k_abs, qs, out=kq)

    check()
    g, q = rows[0], rows[4]
    with np.errstate(all="ignore"):
        for n in range(len(carbs)):
            for grams in carbs[n]:
                q += grams
            slope(rows, slopes[0])
            for j, c in ((1, half_dt), (2, half_dt), (3, dt)):
                np.multiply(k[j - 1], c, out=stage)     # y + c * k[j - 1]
                stage += y
                slope(stage_rows, slopes[j])
            # y + sixth_dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4), left to right.
            k[1:3] *= 2.0
            np.add(k[0], k[1], out=acc)
            acc += k[2]
            acc += k[3]
            acc *= sixth_dt
            y += acc
            np.multiply(sigma, noise[n], out=w)
            g += w
            t = t + dt
            np.copyto(y, floors, where=floors > y)      # max(field, floor)
            check()
    return (*rows, t), errors


def _rk4(g, s1, s2, x, q, t, constants, infusion, dt, carbs, noise, sigma,
         clock):
    """RK4 over len(carbs) substeps of dt minutes at a constant infusion
    (rate / 60), on the floats of one lane.

    carbs[k] holds the grams of each meal eaten in substep k; they enter the
    gut one at a time, in order, before the substep is integrated. noise[k]
    is the standard normal draw of substep k's process noise, which enters
    as sigma * noise[k] (None: no noise). Non-negativity is restored by
    flooring after every substep; glucose is floored at a small positive
    value so downstream logs stay defined.

    A state that does not sum to a finite value, at the start or after a
    substep, raises the ``check_finite`` error of its state at ``clock`` (a
    sum of finite fields that overflows passes); so the kernel makes no call
    per substep. Every expression keeps the operand order of the module's
    derivatives and of y + dt/6 * (k1 + 2*k2 + 2*k3 + k4), term by term, so
    n substeps here are bit-identical to n one-substep calls; only
    loop-invariant constants are hoisted. Returns g, s1, s2, x, q and t at
    the end.
    """
    neg_p1, g_b, neg_p2, p2_s_i, tau, tau_v_i, ra_gain, v_g, neg_k_abs = \
        constants
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    isfinite = math.isfinite
    if not isfinite(g + s1 + s2 + x + q):
        PatientState(g, s1, s2, x, q, t, clock).check_finite()

    for k in range(len(carbs)):
        for grams in carbs[k]:
            q = q + grams
        # Stage j derivatives: gj, aj, bj, xj, qj for g, s1, s2, x, q.
        g1 = neg_p1 * (g - g_b) - x * g + ra_gain * q / v_g
        a1 = infusion - s1 / tau
        b1 = (s1 - s2) / tau
        x1 = neg_p2 * x + p2_s_i * (s2 / tau_v_i)
        q1 = neg_k_abs * q

        gs, s1s, s2s = g + half_dt * g1, s1 + half_dt * a1, s2 + half_dt * b1
        xs, qs = x + half_dt * x1, q + half_dt * q1
        g2 = neg_p1 * (gs - g_b) - xs * gs + ra_gain * qs / v_g
        a2 = infusion - s1s / tau
        b2 = (s1s - s2s) / tau
        x2 = neg_p2 * xs + p2_s_i * (s2s / tau_v_i)
        q2 = neg_k_abs * qs

        gs, s1s, s2s = g + half_dt * g2, s1 + half_dt * a2, s2 + half_dt * b2
        xs, qs = x + half_dt * x2, q + half_dt * q2
        g3 = neg_p1 * (gs - g_b) - xs * gs + ra_gain * qs / v_g
        a3 = infusion - s1s / tau
        b3 = (s1s - s2s) / tau
        x3 = neg_p2 * xs + p2_s_i * (s2s / tau_v_i)
        q3 = neg_k_abs * qs

        gs, s1s, s2s = g + dt * g3, s1 + dt * a3, s2 + dt * b3
        xs, qs = x + dt * x3, q + dt * q3
        g4 = neg_p1 * (gs - g_b) - xs * gs + ra_gain * qs / v_g
        a4 = infusion - s1s / tau
        b4 = (s1s - s2s) / tau
        x4 = neg_p2 * xs + p2_s_i * (s2s / tau_v_i)
        q4 = neg_k_abs * qs

        g = g + sixth_dt * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
        s1 = s1 + sixth_dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        s2 = s2 + sixth_dt * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        x = x + sixth_dt * (x1 + 2.0 * x2 + 2.0 * x3 + x4)
        q = q + sixth_dt * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
        if noise is not None:
            g += sigma * noise[k]
        t = t + dt
        # Written out, these are exactly max(v, floor), NaN and -0.0 included.
        if 1.0 > g:
            g = 1.0
        if 0.0 > s1:
            s1 = 0.0
        if 0.0 > s2:
            s2 = 0.0
        if 0.0 > x:
            x = 0.0
        if 0.0 > q:
            q = 0.0
        if not isfinite(g + s1 + s2 + x + q):
            # A NaN or infinite field makes the sum non-finite; name it.
            PatientState(g, s1, s2, x, q, t, clock).check_finite()
    return g, s1, s2, x, q, t


def step_physiology(state: PatientState, params: PatientParams, rate: float,
                    dt: float, noise_stream: np.random.Generator | None
                    ) -> PatientState:
    """One RK4 step of the surrogate dynamics plus optional process noise.

    dt is in minutes, rate in U/h held constant over the step. This is one
    meal-free float substep of ``_rk4``, with its inputs validated; the
    noise is one draw from noise_stream.
    """
    if not (0 < dt <= 15):
        raise ValueError("dt must lie in (0, 15] minutes")
    if rate < 0 or not math.isfinite(rate):
        raise ValueError("infusion rate must be finite and non-negative")
    noise = sigma = None
    if noise_stream is not None and params.noise_sigma > 0:
        noise = (noise_stream.standard_normal(),)
        sigma = params.noise_sigma * math.sqrt(dt)
    *fields, t = _rk4(state.g, state.s1, state.s2, state.x, state.q_gut,
                      state.t_elapsed, params.rk4_constants, rate / 60.0, dt,
                      ((),), noise, sigma, state.clock)
    # The clock advances per control interval, not here.
    return PatientState(*fields, t_elapsed=t, clock=state.clock)
