"""The benchmark's workloads: inputs made from a seed, one timed operation
through dosebench's public entry points, and the checks on its outputs.

Every workload keeps ``run_protocol``'s default ``workers=1``, as the CLI does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dosebench import dqn, harness, ppo
from dosebench.llm import LlmConfig, PromptKind, ScriptedMockServer, client

HERE = Path(__file__).resolve().parent
# Best epoch (15) of `dosebench train --algo dqn --env child --seed 1`; it
# survives all 240 episodes of the paper's protocol (15,360 steps).
FIXTURE = HERE / "fixtures" / "dqn-child-seed1-epoch015.dnet"
PINS_PATH = HERE / "pins.json"
DEFAULT_SEED = 1

# One reply for every request, so each parsed dose is independent of request
# order and a concurrent client yields the same report bytes. All 12
# patients survive 64 steps at this constant rate.
LLM_DOSE = 1.2
LLM_REPLY = ("Sensor glucose is inside the target band and the last meal has "
             "been absorbed, so a moderate basal rate keeps it there. "
             f"<ans>{LLM_DOSE}</ans>")
LLM_KIND = PromptKind.PRIOR_MEAL_COT


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def protocol_seeds(seed: int) -> tuple[int, ...]:
    """The paper's four episode seeds for the default seed, derived ones otherwise."""
    if seed == DEFAULT_SEED:
        return tuple(harness.DEFAULT_SEEDS)
    return tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(4))


@dataclass
class OpResult:
    """One timed operation and what its output checks found."""

    wall_s: float
    env_steps: int
    attempted: int
    failed: int
    digest: str
    problems: list = field(default_factory=list)
    call_ms: list = field(default_factory=list)
    prompt_chars: list = field(default_factory=list)
    fallbacks: int = 0
    peak_rss_mb: float | None = None


class EvalWorkload:
    """run_protocol + aggregate + emit_report; checks records and report bytes."""

    def __init__(self, name: str, spec: harness.PolicySpec,
                 protocol: harness.EvalProtocol, out_dir: Path, pin=None):
        self.name = name
        self.spec = spec
        self.protocol = protocol
        self.out_dir = Path(out_dir)
        self.pin = pin

    def warm_up(self):
        """One episode through the same path, untimed and unchecked."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        p = self.protocol
        tiny = dataclasses.replace(p, cohorts=p.cohorts[-1:],
                                   patients_per_cohort=1, seeds=p.seeds[:1],
                                   repeats_per_seed=1)
        records = harness.run_protocol(self.spec, tiny)
        harness.emit_report(harness.aggregate(records, tiny,
                                              policy_label=self.spec.label),
                            self.out_dir / "warm-up.json", "json")

    def run_once(self, region=contextlib.nullcontext) -> OpResult:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        report_path = self.out_dir / "report.json"
        with region():
            start = time.perf_counter()
            records = harness.run_protocol(self.spec, self.protocol)
            report = harness.aggregate(records, self.protocol,
                                       policy_label=self.spec.label)
            harness.emit_report(report, report_path, "json")
            wall = time.perf_counter() - start
        return self.check(records, report_path, wall)

    def check(self, records, report_path: Path, wall: float) -> OpResult:
        p = self.protocol
        expected = (len(p.cohorts) * p.patients_per_cohort * len(p.seeds)
                    * p.repeats_per_seed)
        problems = []
        keys = {(r.cohort, r.patient_id, r.seed, r.repeat) for r in records}
        if len(records) != expected or len(keys) != expected:
            problems.append(f"{len(keys)} unique of {len(records)} episodes, "
                            f"expected {expected}")
        errors = [r.error for r in records if r.error is not None]
        if errors:
            problems.append(f"{len(errors)} episodes failed, first: {errors[0]}")
        blob = report_path.read_bytes()
        again = self.out_dir / "report-again.json"
        harness.emit_report(harness.aggregate(records, p,
                                              policy_label=self.spec.label),
                            again, "json")
        if again.read_bytes() != blob:
            problems.append("re-emitted report differs")
        result = OpResult(wall_s=wall,
                          env_steps=sum(len(r.actions) for r in records),
                          attempted=len(records), failed=len(errors),
                          digest=sha256(blob), problems=problems)
        check_pin(result, self.pin)
        return result

    def close(self):
        pass


class TimedTransport:
    """LLM transport hook: times and counts each ``http_transport`` call."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.call_ms: list[float] = []
        self.prompt_chars: list[int] = []
        self.errors = 0

    def __call__(self, messages, config, kind):
        self.prompt_chars.append(sum(len(m["content"]) for m in messages))
        start = time.perf_counter()
        try:
            return client.http_transport(messages, config, kind)
        except Exception:
            self.errors += 1
            raise
        finally:
            self.call_ms.append((time.perf_counter() - start) * 1e3)


class EvalLlmWorkload(EvalWorkload):
    """The protocol subset through ``http_transport`` against the mock server."""

    def __init__(self, protocol: harness.EvalProtocol, out_dir: Path, pin=None):
        self.server = ScriptedMockServer([LLM_REPLY]).start()
        try:
            config = LlmConfig(base_url=self.server.base_url)
            messages = [{"role": "user", "content": "ready?"}]
            reply = client.http_transport(messages, config, LLM_KIND)
            if reply != LLM_REPLY:
                raise RuntimeError(f"mock server answered {reply!r}")
        except BaseException:
            self.server.stop()
            raise
        self.transport = TimedTransport()
        spec = harness.PolicySpec(kind="llm", llm_kind=LLM_KIND.value,
                                  llm_config=config,
                                  llm_transport=self.transport,
                                  label="mock-llm-meal-cot")
        super().__init__("eval-llm", spec, protocol, out_dir, pin)

    def run_once(self, region=contextlib.nullcontext) -> OpResult:
        self.server.requests.clear()  # the mock keeps every payload
        self.transport.reset()
        return super().run_once(region)

    def check(self, records, report_path, wall) -> OpResult:
        result = super().check(records, report_path, wall)
        t = self.transport
        decisions = result.env_steps
        result.fallbacks = sum(a != LLM_DOSE for r in records for a in r.actions)
        result.call_ms, result.prompt_chars = t.call_ms, t.prompt_chars
        result.attempted += decisions
        result.failed += result.fallbacks + t.errors
        if result.fallbacks or t.errors:
            result.problems.append(f"{result.fallbacks} LLM fallbacks, "
                                   f"{t.errors} transport errors")
        if len(t.call_ms) != decisions:
            result.problems.append(f"{len(t.call_ms)} transport calls for "
                                   f"{decisions} decisions")
        return result

    def close(self):
        self.server.stop()


class TrainWorkload:
    """One training run on the child cohort; checks checkpoints and log bytes."""

    def __init__(self, name: str, train, config, seed: int, pin=None):
        self.name = name
        self.train = train
        self.config = config
        self.seed = seed
        self.pin = pin

    def warm_up(self):
        """One short epoch through the same path, untimed and unchecked."""
        # Enough steps for one learner update: a DQN batch or a PPO collect.
        steps = max(self.config.batch_size,
                    getattr(self.config, "steps_per_collect", 0))
        self.train("child", dataclasses.replace(
            self.config, epochs=1, steps_per_epoch=steps,
            warm_start_steps=steps), self.seed)

    def run_once(self, region=contextlib.nullcontext) -> OpResult:
        with region():
            start = time.perf_counter()
            result = self.train("child", self.config, self.seed)
            wall = time.perf_counter() - start
        # The rows `dosebench train` writes to training_log.json.
        log = json.dumps([vars(e) for e in result.log], indent=2, sort_keys=True)
        epochs = self.config.epochs
        problems = []
        if len(result.checkpoints) != epochs or len(result.log) != epochs:
            problems.append(f"{len(result.checkpoints)} checkpoints and "
                            f"{len(result.log)} log rows, expected {epochs}")
        steps = (self.config.warm_start_steps
                 + epochs * self.config.steps_per_epoch)
        out = OpResult(wall_s=wall, env_steps=steps, attempted=1, failed=0,
                       digest=sha256(log.encode()), problems=problems)
        check_pin(out, self.pin)
        return out

    def close(self):
        pass


def check_pin(result: OpResult, pin):
    if pin is None:
        return
    if result.digest != pin["digest"]:
        result.problems.append(f"digest {result.digest} != pinned {pin['digest']}")
    if result.env_steps != pin["env_steps"]:
        result.problems.append(f"{result.env_steps} env steps != pinned "
                               f"{pin['env_steps']}")


def make(name: str, seed: int, out_dir: Path):
    """The paper-size workload ``name`` for ``seed``; pins apply to the default seed."""
    pins = json.loads(PINS_PATH.read_text())
    pin = pins[name] if seed == DEFAULT_SEED else None
    seeds = protocol_seeds(seed)
    if name == "eval-dqn":
        if sha256(FIXTURE.read_bytes()) != pins["fixture_sha256"]:
            raise RuntimeError(f"fixture {FIXTURE.name} does not match its pin")
        spec = harness.PolicySpec(kind="dqn", checkpoint_path=str(FIXTURE),
                                  label="dqn-child-seed1-epoch015")
        return EvalWorkload(name, spec, harness.EvalProtocol(seeds=seeds),
                            out_dir, pin)
    if name == "eval-llm":
        # All 12 patients, two episode seeds, one repeat: 24 episodes.
        protocol = harness.EvalProtocol(seeds=seeds[:2], repeats_per_seed=1)
        return EvalLlmWorkload(protocol, out_dir, pin)
    if name == "train-dqn":
        return TrainWorkload(name, dqn.train_dqn, dqn.DqnConfig(), seed, pin)
    if name == "train-ppo":
        return TrainWorkload(name, ppo.train_ppo, ppo.PpoConfig(), seed, pin)
    raise ValueError(f"unknown workload {name!r}")
