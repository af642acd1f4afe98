"""Byte pins on report, training-log and checkpoint output.

The report and training-log digests were recorded from the per-minute
physiology path that the interval kernel replaced; any change to the
simulator's arithmetic, meal handling, noise draws or reward shows up here as
a digest mismatch. The checkpoint and PPO-report digests were recorded from
the per-trainer rollout loops that the shared ``env.rollout`` replaced; they
cover how training snapshots and saves its checkpoints. The DQN-checkpoint and
clamped-LLM report digests were recorded while observations were still wrapped
in an ``Observation`` object and each module wrote out the dose range itself;
they cover the DQN evaluation grid and LLM dose clamping.
"""

import hashlib
import json

import pytest

from dosebench import harness
from dosebench.cli import main
from dosebench.dqn import DqnConfig, train_dqn
from dosebench.llm import LlmConfig
from dosebench.patients import Cohort
from dosebench.ppo import PpoConfig, train_ppo

# Child cohort, two seeds, two repeats: 16 episodes. warmstart-random ends
# some episodes in hyperglycaemia and survives the rest; max ends every
# episode in hypoglycaemia.
REPORT_DIGESTS = {
    "warmstart-random":
        "c3d85a6675ea2b1c2b001e1b76a15a8a952aed32b1342d3376027e0018fa4ecf",
    "max": "e109e87dbfd0aaff60d532cf4178126d4c21d5edf2f9a71c82c07800924ad04e",
}

# Two epochs on the child cohort, seed 1, rows as `dosebench train` writes them.
# "dqn-prior" explores with the zero-biased draw; "ppo" uses the tanh prior.
TRAINING_LOG_DIGESTS = {
    "dqn": "0d417fa0d997abeff033e63f08d329f8565899d239f9b552e10917f814bd51ab",
    "dqn-prior":
        "52c0b360f002d3b128dd474b21d05c7c15b7333caf9cb920acaf79fc05ba72bf",
    "ppo": "5ff3260ca0bbc4471a7eb3fd6f130386f5660ffabe34a0c9d9629b4c519a622e",
}


# Files `dosebench train --env child --seed 1` writes with `epochs: 2`.
CHECKPOINT_DIGESTS = {
    ("dqn", "off"): {
        "checkpoint-000.dnet":
            "e2beb574ba673861ae8092de1d1adb81edf9ee4bac372ac5253524be66b08808",
        "checkpoint-001.dnet":
            "eeeb9e9d56f774818a7df4597d370291fb9cb2d62d8fac5625f1b437a1325347",
    },
    ("dqn", "on"): {
        "checkpoint-000.dnet":
            "30fbc113022d1ea4fa507af5230c6de62e9060ab11d7db5226ecb942f5e42cc0",
        "checkpoint-001.dnet":
            "c090c6215bf0f3c95639f857683162083b022ebd64208088b1296983767f7b1e",
    },
    ("ppo", "on"): {
        "checkpoint-000.dnet":
            "9c16e915d9b684a0c5aba21d357200d4137db1fcd7e1a99dd9e6a3bd06931776",
        "checkpoint-000.dnet.json":
            "755f484b14e8844539e92e98c7a503ae120c7c3cbebe1ebf8ce5becc12802a92",
        "checkpoint-001.dnet":
            "01e49bc8cda078bbc7a0fdba5edae22654c455fabfb647bd8021ae9130a8137a",
        "checkpoint-001.dnet.json":
            "98117babb3151caf89505a4840811f70a805f8bfa8f8e0a40aec888a7b9e7071",
    },
    ("ppo", "off"): {
        "checkpoint-000.dnet":
            "c2f32dcf395db4e6eeb6eb731b4e7433e2b4696b0c7f6d4c3dc0ea9c6d646320",
        "checkpoint-000.dnet.json":
            "65d42f41cb9a3703c5ddeaf9ee61b41f852f886bb55dcc28c551a9fd21963805",
        "checkpoint-001.dnet":
            "61676d7eb2cf030a934a0fb785a7c14e039d2d11c32b09cb9aae335d1696517f",
        "checkpoint-001.dnet.json":
            "a7eec22d22a2cce7363d6994c929cf0fca281079a1963a591a332f25ec85b02c",
    },
}

# The epoch-1 PPO checkpoint above, on the report protocol of
# test_scripted_report_bytes, by --prior (tanh or clip transform).
PPO_REPORT_DIGESTS = {
    "on": "dfdce9691df47910bf43223568349515f57bbac50dcf44b423f781314e6c7eff",
    "off": "f4607e5ccfe67c3cfa8091793547d944b7d4d62f8babc9e1381e291f04d05370",
}

# The epoch-1 DQN checkpoint above on the same protocol: its EPS_TEST draws
# and the bin-to-rate grid.
DQN_REPORT_DIGEST = \
    "4a7b1d5bca74e8b686869c49fb0d53c4874cf17b259eeac60b776429116aec81"

# An LLM policy whose every reply is the out-of-range dose 12, clamped to the
# top of the dose range, on the same protocol.
LLM_CLAMPED_REPORT_DIGEST = \
    "c0fa8a44f49b7f5eed470bdd98efb5c305ae99b0e287ccfa652b2ecba85665b5"

CHILD_PROTOCOL = harness.EvalProtocol(cohorts=(Cohort.CHILD,), seeds=(1, 100),
                                      repeats_per_seed=2)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_scripted_report_bytes(name, tmp_path):
    spec = harness.PolicySpec(kind="scripted", scripted_name=name,
                              label=f"scripted-{name}")
    assert _report_digest(spec, tmp_path) == REPORT_DIGESTS[name]


def _report_digest(spec, tmp_path) -> str:
    records = harness.run_protocol(spec, CHILD_PROTOCOL)
    report = harness.aggregate(records, CHILD_PROTOCOL, policy_label=spec.label)
    path = tmp_path / "report.json"
    harness.emit_report(report, path, "json")
    return _sha256(path.read_bytes())


@pytest.mark.parametrize("name", sorted(TRAINING_LOG_DIGESTS))
def test_training_log_bytes(name):
    if name == "ppo":
        result = train_ppo("child", PpoConfig(epochs=2), 1)
    else:
        config = DqnConfig(epochs=2, use_prior=name == "dqn-prior")
        result = train_dqn("child", config, 1)
    log = json.dumps([vars(e) for e in result.log], indent=2, sort_keys=True)
    assert _sha256(log.encode()) == TRAINING_LOG_DIGESTS[name]


@pytest.fixture(scope="module")
def train_runs(tmp_path_factory):
    """Run directory of a 2-epoch `dosebench train` per (algo, prior)."""
    base = tmp_path_factory.mktemp("train")
    cfg = base / "cfg.yaml"
    cfg.write_text("epochs: 2\n")
    runs = {}
    for algo, prior in CHECKPOINT_DIGESTS:
        out = base / f"{algo}-{prior}"
        main(["train", "--algo", algo, "--env", "child", "--prior", prior,
              "--seed", "1", "--config", str(cfg), "--out", str(out)])
        (runs[algo, prior],) = out.iterdir()
    return runs


@pytest.mark.parametrize("key", sorted(CHECKPOINT_DIGESTS))
def test_checkpoint_bytes(key, train_runs):
    run = train_runs[key]
    digests = {p.name: _sha256(p.read_bytes())
               for p in sorted(run.glob("checkpoint-*"))}
    assert digests == CHECKPOINT_DIGESTS[key]


@pytest.mark.parametrize("prior", sorted(PPO_REPORT_DIGESTS))
def test_ppo_checkpoint_report_bytes(prior, train_runs, tmp_path):
    spec = harness.PolicySpec(
        kind="ppo", label="ppo-epoch-1",
        checkpoint_path=str(train_runs["ppo", prior] / "checkpoint-001.dnet"))
    assert _report_digest(spec, tmp_path) == PPO_REPORT_DIGESTS[prior]


def test_dqn_checkpoint_report_bytes(train_runs, tmp_path):
    spec = harness.PolicySpec(
        kind="dqn", label="dqn-epoch-1",
        checkpoint_path=str(train_runs["dqn", "off"] / "checkpoint-001.dnet"))
    assert _report_digest(spec, tmp_path) == DQN_REPORT_DIGEST


def test_llm_clamped_report_bytes(tmp_path):
    spec = harness.PolicySpec(
        kind="llm", llm_kind="cot", label="llm-clamped",
        llm_config=LlmConfig(base_url="http://127.0.0.1:9"),
        llm_transport=lambda messages, config, kind: "<ans>12</ans>")
    assert _report_digest(spec, tmp_path) == LLM_CLAMPED_REPORT_DIGEST
