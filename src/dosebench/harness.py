"""Evaluation protocol: stratified episodes, bootstrap aggregation, reports.

The protocol runs 3 cohorts x 4 patients x 4 seeds x 5 repeats = 240
episodes, each named by one ``EpisodeKey``. Repeats perturb the episode
stream deterministically (the stream seed mixes seed and repeat), otherwise
repeats of a deterministic policy would be vacuous.

Every evaluation policy acts on the arguments ``env.rollout`` hands its
``act``: ``Policy.act(obs, env)`` returns the basal rate, and the LLM policy
reads ``env.history``.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import metrics, nets
from .dqn import N_ACTIONS, bin_to_rate
from .env import (ACTION_HIGH, ACTION_LOW, INITIAL_BG_RANGE,
                  MEAL_JITTER_CARB_FRAC, MEAL_JITTER_MIN, OBS_DIM, START_CLOCK,
                  GlucoseEnv, featurize, meal_plan, rollout)
from .patients import Cohort

DEFAULT_SEEDS = (1, 100, 1000, 10000)
REPEATS_PER_SEED = 5
METRIC_NAMES = ("normalized_return", "tir", "survival", "mean_dosage")
EPS_TEST = 0.001   # chance that a DQN evaluation step draws a random bin


@dataclass(frozen=True)
class EvalProtocol:
    cohorts: tuple[Cohort, ...] = (Cohort.ADULT, Cohort.ADOLESCENT, Cohort.CHILD)
    patients_per_cohort: int = 4
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    repeats_per_seed: int = REPEATS_PER_SEED
    bootstrap_resamples: int = 1000


@dataclass(frozen=True, order=True)
class EpisodeKey:
    """One protocol episode; keys sort as (cohort, patient_id, seed, repeat)."""

    cohort: str          # a Cohort value
    patient_id: int
    seed: int
    repeat: int


@dataclass
class EpisodeRecord:
    key: EpisodeKey
    bg: list
    actions: list
    rewards: list
    termination_cause: str | None
    truncated: bool
    error: str | None = None

    cohort = property(lambda self: self.key.cohort)
    patient_id = property(lambda self: self.key.patient_id)
    seed = property(lambda self: self.key.seed)
    repeat = property(lambda self: self.key.repeat)

    @property
    def episode_return(self) -> float:
        return float(sum(self.rewards))

    @property
    def survived(self) -> bool:
        return self.truncated

    @property
    def tir(self) -> float:
        return metrics.tir(self.bg)

    @property
    def mean_dosage(self) -> float:
        return float(np.mean(self.actions)) if self.actions else 0.0


class Policy:
    """Per-episode decision policy. Subclasses override act()."""

    def reset(self, rng: np.random.Generator):
        """Start an episode; ``rng`` is its policy stream."""
        self._rng = rng

    def act(self, obs, env: GlucoseEnv) -> float:
        """The basal rate (U/h) for observation ``obs`` of ``env``."""
        raise NotImplementedError


class ScriptedPolicy(Policy):
    """Named scripted baselines used in tests and as comparison anchors."""

    def __init__(self, name: str):
        self.name = name
        if name.startswith("constant:"):
            try:
                self._dose = float(name.split(":", 1)[1])
            except ValueError:
                self._dose = math.nan
            if not ACTION_LOW <= self._dose <= ACTION_HIGH:  # NaN fails too
                raise ValueError(f"{name!r}: the dose must be a number in "
                                 f"[{ACTION_LOW}, {ACTION_HIGH}] U/h")
        elif name == "zero":
            self._dose = 0.0
        elif name == "max":
            self._dose = ACTION_HIGH
        elif name == "warmstart-random":
            self._dose = None
        else:
            raise ValueError(f"unknown scripted policy {name!r}")

    def act(self, obs, env):
        if self._dose is not None:
            return self._dose
        return bin_to_rate(int(self._rng.integers(0, 3)))


class DqnPolicy(Policy):
    def __init__(self, qnet: nets.DenseNet):
        self.qnet = qnet

    def act(self, obs, env):
        if self._rng.random() < EPS_TEST:
            return bin_to_rate(int(self._rng.integers(0, N_ACTIONS)))
        q, _ = nets.forward(self.qnet, featurize(obs))
        return bin_to_rate(int(np.argmax(q)))


class PpoEvalPolicy(Policy):
    """Deterministic PPO evaluation: transformed mean action."""

    def __init__(self, ppo_policy):
        self.policy = ppo_policy

    def act(self, obs, env):
        return self.policy.mean_action(featurize(obs))


class LlmPolicy(Policy):
    """A ``transport`` of None sends each request with ``http_transport``."""

    def __init__(self, kind, config, transport):
        from .llm import PromptKind
        self.kind = PromptKind(kind)
        self.config = config
        self.transport = transport

    def act(self, obs, env):
        from .llm import llm_act
        action, _ = llm_act(env.history, self.kind, self.config,
                            transport=self.transport)
        return action


@dataclass
class PolicySpec:
    """Discriminated policy description resolvable to a Policy instance."""

    kind: str                        # dqn | ppo | llm | scripted
    label: str = ""
    checkpoint_path: str | None = None
    scripted_name: str = "zero"
    llm_kind: str = "base"
    llm_config: object = None
    llm_transport: object = None

    def resolve(self) -> Policy:
        if self.kind == "scripted":
            return ScriptedPolicy(self.scripted_name)
        if self.kind == "dqn":
            if not self.checkpoint_path:
                raise ValueError("dqn policy requires a checkpoint path")
            return DqnPolicy(_load_net(self.checkpoint_path, N_ACTIONS))
        if self.kind == "ppo":
            if not self.checkpoint_path:
                raise ValueError("ppo policy requires a checkpoint path")
            return PpoEvalPolicy(load_ppo_checkpoint(self.checkpoint_path))
        if self.kind == "llm":
            from .llm.client import LlmConfig, check_base_url
            config = self.llm_config or LlmConfig()
            if self.llm_transport is None:
                # Refused here, not as a fallback dose at every decision.
                check_base_url(config.resolved_base_url())
            return LlmPolicy(self.llm_kind, config, self.llm_transport)
        raise ValueError(f"unknown policy kind {self.kind!r}")


def _load_net(path, out_width: int) -> nets.DenseNet:
    """The net saved at path, refused unless it maps OBS_DIM to out_width."""
    net = nets.load_params(path)
    if (net.layer_sizes[0], net.layer_sizes[-1]) != (OBS_DIM, out_width):
        raise nets.CheckpointError(
            f"{path}: layer sizes {net.layer_sizes} do not run from the "
            f"observation width {OBS_DIM} to {out_width} outputs")
    return net


def save_ppo_checkpoint(policy, path):
    """Actor parameters plus a JSON side-car with the policy head config."""
    nets.save_params(policy.actor, path)
    meta = {
        "log_sigma": float(policy.log_sigma),
        "transform": policy.transform,
        "d_max": ACTION_HIGH,
        "conditioned_sigma": False,
        "mu_offset": policy.mu_offset,
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(meta, fh, sort_keys=True)


def load_ppo_checkpoint(path):
    from .ppo import PpoPolicy
    actor = _load_net(path, 1)
    with open(str(path) + ".json") as fh:
        meta = json.load(fh)
    if meta["d_max"] != ACTION_HIGH:
        raise nets.CheckpointError(
            f"{path}: trained for doses up to {meta['d_max']} U/h, "
            f"the environment's range ends at {ACTION_HIGH}")
    if meta["conditioned_sigma"]:
        raise nets.CheckpointError(f"{path}: has a state-conditioned sigma "
                                   f"head; PPO's log sigma is one parameter")
    return PpoPolicy(actor=actor, log_sigma=np.array(meta["log_sigma"]),
                     transform=meta["transform"],
                     mu_offset=meta["mu_offset"])


def episode_seed_sequence(seed: int, repeat: int) -> np.random.SeedSequence:
    """Deterministic stream for one (seed, repeat) pair."""
    return np.random.SeedSequence([int(seed), int(repeat), 0xE7A1])


def run_episode(policy: Policy, key: EpisodeKey) -> EpisodeRecord:
    env_ss, policy_ss = episode_seed_sequence(key.seed, key.repeat).spawn(2)
    policy.reset(np.random.default_rng(policy_ss))

    def act(obs, env):
        rate = float(policy.act(obs, env))
        return rate, rate

    env = GlucoseEnv(key.cohort, key.patient_id)
    for _, _, res, _ in rollout([env], act, lambda: env_ss):
        if res.terminated or res.truncated:
            break
    history = env.history
    return EpisodeRecord(key=key,
                         bg=[rec.bg_true for rec in history],
                         actions=[rec.rate for rec in history[:-1]],
                         rewards=[rec.reward for rec in history[1:]],
                         termination_cause=env.termination_cause,
                         truncated=res.truncated)


def run_protocol(policy_spec: PolicySpec, protocol: EvalProtocol,
                 workers: int = 1) -> list[EpisodeRecord]:
    """All protocol episodes. Per-episode failures are recorded, not fatal.

    The policy is resolved once, so a checkpoint that cannot be loaded raises
    here. Each episode acts through its own shallow copy of it: the rng that
    ``reset`` installs never crosses episodes or worker threads.
    """
    policy = policy_spec.resolve()
    keys = [EpisodeKey(cohort.value, pid, seed, repeat)
            for cohort in protocol.cohorts
            for pid in range(protocol.patients_per_cohort)
            for seed in protocol.seeds
            for repeat in range(protocol.repeats_per_seed)]

    def one(key):
        try:
            return run_episode(copy.copy(policy), key)
        except Exception as exc:  # noqa: BLE001 - recorded per episode
            return EpisodeRecord(key=key, bg=[], actions=[], rewards=[],
                                 termination_cause=None, truncated=False,
                                 error=f"{type(exc).__name__}: {exc}")

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, keys))
    return [one(key) for key in keys]


@dataclass
class MetricsReport:
    policy_label: str
    protocol_hash: str
    strata: dict      # stratum -> metric name -> MetricSummary
    incomplete_strata: list

    def to_dict(self) -> dict:
        def enc(summary):
            return {"mean": round(summary.mean, 6),
                    "ci_low": round(summary.ci_low, 6),
                    "ci_high": round(summary.ci_high, 6),
                    "n": summary.n}
        return {
            "policy": self.policy_label,
            "protocol_hash": self.protocol_hash,
            "incomplete_strata": sorted(self.incomplete_strata),
            "strata": {name: {m: enc(s) for m, s in group.items()}
                       for name, group in self.strata.items()},
        }


def protocol_hash(protocol: EvalProtocol) -> str:
    """Digest over every knob that shapes the episode set."""
    desc = {
        "cohorts": [c.value for c in protocol.cohorts],
        "patients_per_cohort": protocol.patients_per_cohort,
        "seeds": list(protocol.seeds),
        "repeats_per_seed": protocol.repeats_per_seed,
        "bootstrap_resamples": protocol.bootstrap_resamples,
        "scenarios": {},
    }
    from .patients import get_patient
    for cohort in protocol.cohorts:
        for pid in range(protocol.patients_per_cohort):
            params = get_patient(cohort, pid)
            desc["scenarios"][f"{cohort.value}/{pid}"] = {
                "meals": [(m.time_offset, m.carbs) for m in meal_plan(cohort)],
                "initial_bg_range": list(INITIAL_BG_RANGE),
                "start_clock": START_CLOCK,
                "jitter": [MEAL_JITTER_MIN, MEAL_JITTER_CARB_FRAC],
                "noise": [params.noise_sigma, params.cgm_sigma],
            }
    blob = json.dumps(desc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _metric_values(records):
    return {
        "normalized_return": [metrics.normalized_return(r.episode_return)
                              for r in records],
        "tir": [r.tir for r in records],
        "survival": [1.0 if r.survived else 0.0 for r in records],
        "mean_dosage": [r.mean_dosage for r in records],
    }


def aggregate(records, protocol: EvalProtocol,
              policy_label: str) -> MetricsReport:
    # Stable order so aggregation is permutation-invariant.
    records = sorted(records, key=lambda r: r.key)
    if not records:
        raise ValueError("aggregate requires at least one record")
    ok = [r for r in records if r.error is None]
    incomplete = sorted({r.cohort for r in records if r.error is not None})

    strata = {}
    groups = {c.value: [r for r in ok if r.cohort == c.value]
              for c in protocol.cohorts}
    groups["overall"] = ok
    for name, group in groups.items():
        if not group:
            incomplete.append(name)
            continue
        summaries = {}
        for metric_name, values in _metric_values(group).items():
            seed = zlib.crc32(f"{name}/{metric_name}".encode())
            summaries[metric_name] = metrics.bootstrap_ci(
                values, resamples=protocol.bootstrap_resamples, seed=seed)
        strata[name] = summaries
    return MetricsReport(policy_label=policy_label,
                         protocol_hash=protocol_hash(protocol),
                         strata=strata,
                         incomplete_strata=sorted(set(incomplete)))


def select_best_checkpoint(training_log) -> int:
    """Epoch with the highest normalised training return; ties -> earliest."""
    entries = list(training_log)
    if not entries:
        raise ValueError("training log is empty")
    best_epoch, best_return = None, -math.inf
    for entry in entries:
        ret = entry.train_return
        if ret is None or (isinstance(ret, float) and math.isnan(ret)):
            continue
        if ret > best_return:
            best_epoch, best_return = entry.epoch, ret
    if best_epoch is None:
        raise ValueError("training log carries no finite returns")
    return best_epoch


def compare_policies(reports: list[MetricsReport]) -> dict:
    """Side-by-side table of >= 2 reports sharing a protocol hash.

    Reports rank by overall normalised return, best first. The rows cover
    every stratum that any report has, cohorts in ``Cohort`` order and then
    ``overall``. A report without the stratum (every episode of it failed)
    has a null cell, and overlap is judged against the best-ranked report
    that has the stratum.
    """
    if len(reports) < 2:
        raise ValueError("need at least two reports to compare")
    hashes = sorted({r.protocol_hash for r in reports})
    if len(hashes) != 1:
        raise ValueError(f"protocol hash mismatch across reports: "
                         f"{', '.join(hashes)}")

    def rank(report):
        overall = report.strata.get("overall")
        return -overall["normalized_return"].mean if overall else math.inf

    ordered = sorted(reports, key=rank)
    table = {"policies": [r.policy_label for r in ordered],
             "protocol_hash": hashes[0], "rows": []}
    present = {name for r in reports for name in r.strata}
    for stratum in [*(c.value for c in Cohort), "overall"]:
        if stratum not in present:
            continue
        best = next(r for r in ordered if stratum in r.strata)
        for metric_name in METRIC_NAMES:
            cells = []
            ref = best.strata[stratum][metric_name]
            for report in ordered:
                if stratum not in report.strata:
                    cells.append(None)
                    continue
                s = report.strata[stratum][metric_name]
                overlap = not (s.ci_low > ref.ci_high or s.ci_high < ref.ci_low)
                cells.append({"mean": s.mean, "ci": [s.ci_low, s.ci_high],
                              "ci_overlaps_best": overlap})
            table["rows"].append({"stratum": stratum, "metric": metric_name,
                                  "cells": cells})
    return table


def emit_report(report: MetricsReport, path, format: str):
    """Write the report with stable field order; re-emission is byte-stable."""
    if format == "json":
        blob = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(blob)
    elif format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["stratum"]
            for m in METRIC_NAMES:
                header += [f"{m}_mean", f"{m}_ci_low", f"{m}_ci_high"]
            writer.writerow(header)
            for stratum in report.strata:
                row = [stratum]
                for m in METRIC_NAMES:
                    s = report.strata[stratum][m]
                    row += [round(s.mean, 6), round(s.ci_low, 6),
                            round(s.ci_high, 6)]
                writer.writerow(row)
    else:
        raise ValueError(f"unknown report format {format!r}")


def load_report(path) -> MetricsReport:
    with open(path) as fh:
        raw = json.load(fh)
    strata = {}
    for name, group in raw["strata"].items():
        strata[name] = {m: metrics.MetricSummary(
            mean=v["mean"], ci_low=v["ci_low"], ci_high=v["ci_high"], n=v["n"])
            for m, v in group.items()}
    return MetricsReport(policy_label=raw["policy"],
                         protocol_hash=raw["protocol_hash"],
                         strata=strata,
                         incomplete_strata=list(raw["incomplete_strata"]))
