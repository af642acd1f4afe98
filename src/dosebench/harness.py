"""Evaluation protocol: stratified episodes, bootstrap aggregation, reports.

The protocol runs 3 cohorts x 4 patients x 4 seeds x 5 repeats = 240
episodes, each named by one ``EpisodeKey``. Repeats perturb the episode
stream deterministically (the stream seed mixes seed and repeat), otherwise
repeats of a deterministic policy would be vacuous.

The episodes run in lock-step, one round per control interval: every live
episode is a ``Lane`` (its env, key and policy stream) and a row of the
round's ``env.Columns``, the simulator core that training envs run as lanes
of one. An episode's streams depend only on its (seed, repeat), so all
patients of one (seed, repeat) see the same noise, initial glucose and meal
jitter (common random numbers): a run draws each (seed, repeat)'s episode
draws (``env.episode_draws``) once, and each of its lanes copies them into
its row and makes its own generator of the shared policy seed. The draws
live for the run only.

A round asks the policy for all live lanes' rates in one
``Policy.act(obs, lanes)`` call on the core's window, advances the core by
one interval (on arrays from ``patients.ARRAY_MIN_LANES`` live lanes on, on
each lane's floats below), which also records, scores and judges every
lane, and then steps each lane's env, which keeps that lane's step count and
outcome. A lane's record is sliced from its row of the core when it ends.
The records are bit for bit those of playing the episodes one by one.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import metrics, nets
from .dqn import N_ACTIONS, bin_to_rate
from .env import (ACTION_HIGH, ACTION_LOW, INITIAL_BG_RANGE,
                  MEAL_JITTER_CARB_FRAC, MEAL_JITTER_MIN, OBS_DIM,
                  START_CLOCK, Columns, EpisodeDraws, GlucoseEnv,
                  episode_draws, meal_plan, row_stacked)
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
    """Decision policy of a lock-step round. Subclasses override act()."""

    def act(self, obs: np.ndarray, lanes: list[Lane]):
        """The basal rates (U/h) of the round's live ``lanes``: a sequence
        with one entry per lane, in lane order. Row i of ``obs`` is lane i's
        observation, and ``lanes[i].rng`` is its episode's policy stream;
        ``obs`` is the round's window, which the next round rolls in place,
        so a policy that keeps an observation copies it. An exception in
        lane i's entry fails that lane's episode; one raised by the call,
        or an answer that is not one rate per lane, fails every lane of the
        call."""
        raise NotImplementedError

    def close(self):
        """Called by ``run_protocol`` once the run has ended."""


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

    def act(self, obs, lanes):
        if self._dose is not None:
            # No lanes (None, as perfbench's tracer test passes) get no rates.
            return [self._dose] * len(lanes or ())
        return [bin_to_rate(int(lane.rng.integers(0, 3))) for lane in lanes]


class DqnPolicy(Policy):
    def __init__(self, qnet: nets.DenseNet):
        self.qnet = qnet

    def act(self, obs, lanes):
        q, _ = nets.forward(self.qnet, row_stacked(obs))
        greedy = np.argmax(q[:, 0], axis=1).tolist()
        rates = []
        for lane, best in zip(lanes, greedy):
            rng = lane.rng
            if rng.random() < EPS_TEST:
                best = int(rng.integers(0, N_ACTIONS))
            rates.append(bin_to_rate(best))
        return rates


class PpoEvalPolicy(Policy):
    """Deterministic PPO evaluation: transformed mean action."""

    def __init__(self, ppo_policy):
        self.policy = ppo_policy

    def act(self, obs, lanes):
        return self.policy.mean_actions(row_stacked(obs))


class LlmPolicy(Policy):
    """A ``transport`` of None sends each request with ``http_transport``.
    A round asks for its lanes' rates in turn, or over a run-long pool of up
    to ``config.workers`` threads; a lane whose ``llm_act`` raises fails alone.

    ``finished`` keeps each lane's finished prompt lines for the run, so a
    decision formats only its episode's newest rows. It is keyed by the lane
    itself: a protocol may repeat a seed, and so an ``EpisodeKey``."""

    def __init__(self, kind, config, transport):
        from .llm import PromptKind
        self.kind = PromptKind(kind)
        self.config = config
        self.transport = transport
        self.finished = {}
        self._pool = None
        self._threads = []      # the pool's thread ids

    def act(self, obs, lanes):
        from .llm import llm_act

        def ask(lane):
            try:
                return llm_act(lane.history, self.finished.setdefault(lane, []),
                               self.kind, self.config, self.transport)[0]
            except Exception as exc:  # noqa: BLE001 - recorded per episode
                return exc

        workers = min(self.config.workers, len(lanes))
        if self._pool is None and workers > 1:  # the first round is widest
            self._pool = ThreadPoolExecutor(
                workers, initializer=lambda: self._threads.append(
                    threading.get_ident()))
        return list((self._pool.map if self._pool else map)(ask, lanes))

    def close(self):
        # Not left to collection: a lane's exception holds this in a cycle,
        # and a connection that collection closes warns (ResourceWarning).
        from .llm.client import close_connections
        close_connections([*self._threads, threading.get_ident()])
        if self._pool is not None:
            self._pool.shutdown()


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
        if self.kind in ("dqn", "ppo") and not self.checkpoint_path:
            raise ValueError(f"{self.kind} policy requires a checkpoint path")
        if self.kind == "dqn":
            return DqnPolicy(_load_net(self.checkpoint_path, N_ACTIONS))
        if self.kind == "ppo":
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
    try:
        with open(str(path) + ".json") as fh:
            meta = json.load(fh)
        d_max, conditioned = meta["d_max"], meta["conditioned_sigma"]
        policy = PpoPolicy(actor=actor, log_sigma=np.array(meta["log_sigma"]),
                           transform=meta["transform"],
                           mu_offset=meta["mu_offset"])
    except (ValueError, KeyError, TypeError) as exc:
        raise nets.CheckpointError(f"{path}.json: not a PPO side-car "
                                   f"({type(exc).__name__}: {exc})") from exc
    if d_max != ACTION_HIGH:
        raise nets.CheckpointError(
            f"{path}: trained for doses up to {d_max} U/h, "
            f"the environment's range ends at {ACTION_HIGH}")
    if conditioned:
        raise nets.CheckpointError(f"{path}: has a state-conditioned sigma "
                                   f"head; PPO's log sigma is one parameter")
    return policy


def episode_seed_sequence(seed: int, repeat: int) -> np.random.SeedSequence:
    """Deterministic stream for one (seed, repeat) pair."""
    return np.random.SeedSequence([int(seed), int(repeat), 0xE7A1])


class Lane(GlucoseEnv):
    """One protocol episode in lock-step: its patient's env, its key and its
    policy stream, in ``row`` of the round's core ``columns``, which the
    round advances, records and scores before its lanes step. ``slot`` is
    the episode's place in the protocol, the row it was built in. The lane
    starts on ``draws``, its (seed, repeat)'s episode draws, and its policy
    stream is a generator of ``policy_ss``, its (seed, repeat)'s policy
    seed."""

    def __init__(self, key: EpisodeKey, columns: Columns, row: int,
                 draws: EpisodeDraws, policy_ss: np.random.SeedSequence):
        self._join(key.cohort, key.patient_id, columns, row)
        self.key, self.slot = key, row
        self.rng = np.random.default_rng(policy_ss)
        self.begin(draws)

    def record(self, truncated: bool) -> EpisodeRecord:
        """The episode's record, sliced from the lane's row of the core."""
        core, row, steps = self.core, self.row, self._step_count
        return EpisodeRecord(key=self.key,
                             bg=core.bg_true[row, :steps + 1].tolist(),
                             actions=core.rate[row, :steps].tolist(),
                             rewards=core.reward[row, 1:steps + 1].tolist(),
                             termination_cause=self.termination_cause,
                             truncated=truncated)


def _failed(key: EpisodeKey, exc: Exception) -> EpisodeRecord:
    return EpisodeRecord(key=key, bg=[], actions=[], rewards=[],
                         termination_cause=None, truncated=False,
                         error=f"{type(exc).__name__}: {exc}")


def _play(policy: Policy, keys: list[EpisodeKey]) -> list[EpisodeRecord]:
    """The episodes of ``keys`` in lock-step, one round per control interval.

    A round asks the policy for every live lane's rate at once, advances
    the lanes' ``Columns`` by one interval, and steps each lane's env. A lane
    whose start, rate or step raises fails its own episode; the other lanes
    go on. An exception raised by the ``act`` call itself, or an answer that
    is not one rate per lane, fails every lane of the round. Each record
    stays in its key's place, so a repeated key keeps both episodes. Each
    (seed, repeat) of ``keys`` is drawn once, for all of its lanes.
    """
    records, lanes = [None] * len(keys), []
    columns = Columns(len(keys))
    shared = {}     # (seed, repeat) -> (its episode draws, its policy seed)
    for slot, key in enumerate(keys):
        try:
            group = key.seed, key.repeat
            if group not in shared:
                env_ss, policy_ss = episode_seed_sequence(*group).spawn(2)
                shared[group] = episode_draws(env_ss), policy_ss
            lanes.append(Lane(key, columns, slot, *shared[group]))
        except Exception as exc:  # noqa: BLE001 - recorded per episode
            records[slot] = _failed(key, exc)
    if lanes:
        columns.start(lanes)
    while lanes:
        try:
            acted = policy.act(columns.window, lanes)
            if not hasattr(acted, "__len__"):
                raise ValueError(f"{type(policy).__name__}.act gave "
                                 f"{acted!r}, not one rate per lane")
            if len(acted) != len(lanes):
                raise ValueError(f"{type(policy).__name__}.act gave "
                                 f"{len(acted)} rates for {len(lanes)} lanes")
        except Exception as exc:  # noqa: BLE001 - recorded per episode
            for lane in lanes:
                records[lane.slot] = _failed(lane.key, exc)
            break
        rates = []
        for lane, rate in zip(lanes, acted):
            try:
                if isinstance(rate, Exception):
                    raise rate
                rates.append(float(rate))
            except Exception as exc:  # noqa: BLE001 - recorded per episode
                records[lane.slot] = _failed(lane.key, exc)
                rates.append(math.nan)      # the lane's row runs on unused
        columns.advance(rates)
        live = []
        for row, (lane, rate) in enumerate(zip(lanes, rates)):
            if records[lane.slot] is not None:   # its rate failed it
                continue
            try:
                res = lane.step(rate)
            except Exception as exc:  # noqa: BLE001 - recorded per episode
                records[lane.slot] = _failed(lane.key, exc)
                continue
            if res.terminated or res.truncated:
                records[lane.slot] = lane.record(res.truncated)
            else:
                live.append(row)
        if len(live) < len(lanes):
            lanes = [lanes[row] for row in live]
            columns.keep(live, lanes)
    return records


def run_protocol(policy_spec: PolicySpec,
                 protocol: EvalProtocol) -> list[EpisodeRecord]:
    """All protocol episodes, in protocol order. Per-episode failures are
    recorded, not fatal.

    The policy is resolved once, so a checkpoint that cannot be loaded raises
    here. The episodes run together in one lock-step (``_play``). Every
    lane has its own policy generator, so against a server whose reply
    depends only on the prompt the records do not depend on
    ``LlmConfig.workers``.
    """
    policy = policy_spec.resolve()
    keys = [EpisodeKey(cohort.value, pid, seed, repeat)
            for cohort in protocol.cohorts
            for pid in range(protocol.patients_per_cohort)
            for seed in protocol.seeds
            for repeat in range(protocol.repeats_per_seed)]
    with contextlib.closing(policy):
        return _play(policy, keys)


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


def _metric_values(records) -> dict[str, np.ndarray]:
    """Each metric's value per record, in record order."""
    return {
        "normalized_return": np.array([
            metrics.normalized_return(r.episode_return) for r in records]),
        "tir": np.array([r.tir for r in records]),
        "survival": np.array([1.0 if r.survived else 0.0 for r in records]),
        "mean_dosage": np.array([r.mean_dosage for r in records]),
    }


def aggregate(records, protocol: EvalProtocol,
              policy_label: str) -> MetricsReport:
    """Bootstrap summaries per cohort stratum and ``overall``. Each
    successful record is scored once; a stratum without one is listed in
    ``incomplete_strata``, as is a cohort with a failed episode."""
    # Stable order so aggregation is permutation-invariant.
    records = sorted(records, key=lambda r: r.key)
    if not records:
        raise ValueError("aggregate requires at least one record")
    ok = [r for r in records if r.error is None]
    incomplete = sorted({r.cohort for r in records if r.error is not None})
    values = _metric_values(ok)

    strata = {}
    groups = {c.value: [i for i, r in enumerate(ok) if r.cohort == c.value]
              for c in protocol.cohorts}
    groups["overall"] = list(range(len(ok)))
    for name, rows in groups.items():
        if not rows:
            incomplete.append(name)
            continue
        summaries = {}
        for metric_name, column in values.items():
            seed = zlib.crc32(f"{name}/{metric_name}".encode())
            summaries[metric_name] = metrics.bootstrap_ci(
                column[rows], resamples=protocol.bootstrap_resamples, seed=seed)
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
    """The report ``emit_report`` wrote to path. A file that is not JSON, or
    not a report, raises ValueError naming it; an unreadable one, OSError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        raw = json.loads(blob)
        strata = {}
        for name, group in raw["strata"].items():
            strata[name] = {m: metrics.MetricSummary(
                mean=v["mean"], ci_low=v["ci_low"], ci_high=v["ci_high"],
                n=v["n"]) for m, v in group.items()}
        return MetricsReport(policy_label=raw["policy"],
                             protocol_hash=raw["protocol_hash"],
                             strata=strata,
                             incomplete_strata=list(raw["incomplete_strata"]))
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not a dosebench report "
                         f"({type(exc).__name__}: {exc})") from exc
