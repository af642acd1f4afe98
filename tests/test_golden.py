"""Byte pins on report and training-log output.

The digests were recorded from the per-minute physiology path that the
interval kernel replaced; any change to the simulator's arithmetic, meal
handling, noise draws or reward shows up here as a digest mismatch.
"""

import hashlib
import json

import pytest

from dosebench import harness
from dosebench.dqn import DqnConfig, train_dqn
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
TRAINING_LOG_DIGESTS = {
    "dqn": "0d417fa0d997abeff033e63f08d329f8565899d239f9b552e10917f814bd51ab",
    "ppo": "5ff3260ca0bbc4471a7eb3fd6f130386f5660ffabe34a0c9d9629b4c519a622e",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_scripted_report_bytes(name, tmp_path):
    protocol = harness.EvalProtocol(cohorts=(Cohort.CHILD,), seeds=(1, 100),
                                    repeats_per_seed=2)
    spec = harness.PolicySpec(kind="scripted", scripted_name=name,
                              label=f"scripted-{name}")
    records = harness.run_protocol(spec, protocol)
    report = harness.aggregate(records, protocol, policy_label=spec.label)
    path = tmp_path / "report.json"
    harness.emit_report(report, path)
    assert _sha256(path.read_bytes()) == REPORT_DIGESTS[name]


@pytest.mark.parametrize("algo", sorted(TRAINING_LOG_DIGESTS))
def test_training_log_bytes(algo):
    if algo == "dqn":
        result = train_dqn("child", DqnConfig(epochs=2), 1)
    else:
        result = train_ppo("child", PpoConfig(epochs=2), 1)
    log = json.dumps([vars(e) for e in result.log], indent=2, sort_keys=True)
    assert _sha256(log.encode()) == TRAINING_LOG_DIGESTS[algo]
