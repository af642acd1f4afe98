"""Glucose risk index, step reward, episode metrics and bootstrap CIs.

All functions here are pure; they are shared by the environment (per-step
reward), the training loops (normalised training return) and the evaluation
harness (aggregate metrics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Transformed-glucose constants (risk-space mapping of blood glucose).
F_SCALE = 1.509
F_POWER = 1.084
F_OFFSET = 5.381

# Return normalisation anchors: worst achievable episode return and the best
# one (64 surviving steps at zero risk).
RETURN_MIN = -99.7
RETURN_MAX = 64.0

# Time-in-range band (clinical reporting) vs the tighter control objective
# band used in the dosing prompts. Kept separate on purpose.
TIR_LOW = 70.0
TIR_HIGH = 180.0
TARGET_LOW = 70.0
TARGET_HIGH = 140.0

TERMINATION_PENALTY = -100.0

# Resample rows bootstrap_ci draws at once. A whole draw of 1000 x 240 (the
# protocol's) makes two 1.9 MB temporaries, which glibc maps and unmaps on
# every call; 64 rows of 240 stay under its 128 KiB mmap threshold and reuse
# the heap.
_BOOTSTRAP_BLOCK = 64


class RiskBreakdown(NamedTuple):
    """Risk decomposition at a single glucose value."""

    f_bg: float
    lbgi: float
    hbgi: float

    @property
    def ri(self) -> float:
        return self.lbgi + self.hbgi


@dataclass(frozen=True)
class MetricSummary:
    """Bootstrap summary of one metric over a set of episodes."""

    mean: float
    ci_low: float
    ci_high: float
    n: int


def bg_transform(bg: float) -> float:
    """Map a glucose value (mg/dL) into symmetric risk space.

    Strictly increasing; crosses zero near 112.5 mg/dL.
    """
    if not (bg > 0) or not math.isfinite(bg):
        raise ValueError(f"bg must be a positive finite number, got {bg!r}")
    return F_SCALE * (math.log(bg) ** F_POWER - F_OFFSET)


def risk_index(bg: float) -> RiskBreakdown:
    """Low/high blood-glucose indices for a single reading.

    Exactly one of lbgi/hbgi is nonzero away from the transform root.
    """
    f = bg_transform(bg)
    penalty = 10.0 * f * f
    if f < 0:
        return RiskBreakdown(f_bg=f, lbgi=penalty, hbgi=0.0)
    if f > 0:
        return RiskBreakdown(f_bg=f, lbgi=0.0, hbgi=penalty)
    return RiskBreakdown(f_bg=f, lbgi=0.0, hbgi=0.0)


def step_reward(bg: float, terminated: bool) -> float:
    """Per-step reward: scaled risk term plus the termination penalty."""
    r = (100.0 - risk_index(bg).ri) / 100.0
    if terminated:
        r += TERMINATION_PENALTY
    return r


def step_rewards(bgs: list[float], terminated: list[bool]) -> list[float]:
    """``step_reward`` of each glucose value and termination flag, in one
    pass: the lanes of a lock-step round.

    Per element this is ``step_reward``'s float arithmetic written out
    (``math.log`` and float ``**``; an array ``np.log`` or ``**`` changes the
    last bit of some rewards), so each reward has its bits. A NaN or +inf
    glucose value (a round's lane whose state failed) gives a NaN or -inf
    reward, not an error.
    """
    log = math.log
    rewards = []
    for bg, ended in zip(bgs, terminated):
        f = F_SCALE * (log(bg) ** F_POWER - F_OFFSET)
        r = (100.0 - 10.0 * f * f) / 100.0
        rewards.append(r + TERMINATION_PENALTY if ended else r)
    return rewards


def normalized_return(total: float) -> float:
    """Min-max scale an episode return to [0, 100] percent."""
    return (total - RETURN_MIN) / (RETURN_MAX - RETURN_MIN) * 100.0


def tir(bg_trajectory) -> float:
    """Fraction of samples inside the 70-180 mg/dL band (inclusive)."""
    traj = np.asarray(bg_trajectory, dtype=float)
    if traj.size == 0:
        raise ValueError("tir requires a non-empty trajectory")
    hits = (traj >= TIR_LOW) & (traj <= TIR_HIGH)
    return float(hits.mean())


def bootstrap_ci(samples, resamples: int, seed: int) -> MetricSummary:
    """Percentile bootstrap: mean of resample means plus 2.5/97.5 percentiles.

    Deterministic for a given seed; uses its own generator so simulation
    streams are never disturbed.
    """
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("bootstrap_ci requires non-empty samples")
    rng = np.random.default_rng(seed)
    # Blocks of rows draw the same integers and take the same row means as
    # one (resamples, n) draw.
    means = np.empty(resamples)
    for start in range(0, resamples, _BOOTSTRAP_BLOCK):
        rows = means[start:start + _BOOTSTRAP_BLOCK]
        idx = rng.integers(0, data.size, size=(len(rows), data.size))
        rows[:] = data[idx].mean(axis=1)
    return MetricSummary(
        mean=float(means.mean()),
        ci_low=float(np.percentile(means, 2.5)),
        ci_high=float(np.percentile(means, 97.5)),
        n=int(data.size),
    )
