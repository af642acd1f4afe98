"""Tests of the benchmark's own code: tracer arithmetic, the percentile rule,
and a tiny-size run of each workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
import threading

import pytest

from dosebench import dqn, harness, metrics, ppo
from dosebench.patients import Cohort
from perfbench import stats, tracer, workloads


def test_self_time_subtracts_child_coverage():
    # root [0, 10] > a [1, 4] > aa [2, 3]; root > b [5, 6]; root > c [5.5, 8]
    # (b and c overlap, as spans of two concurrent callers would).
    start = [0.0, 1.0, 2.0, 5.0, 5.5]
    end = [10.0, 4.0, 3.0, 6.0, 8.0]
    parent = [-1, 0, 1, 0, 0]
    own = tracer.self_times(start, end, parent)
    assert own.tolist() == pytest.approx([10 - 3 - 3, 3 - 1, 1, 1, 2.5])


def test_self_time_clips_children_to_parent():
    own = tracer.self_times([0.0, -1.0], [2.0, 1.0], [-1, 0])
    assert own.tolist() == pytest.approx([1.0, 2.0])


def test_wrapped_spans_account_for_root_wall_time():
    t = tracer.Tracer()

    def inner():
        return sum(range(1000))

    def outer():
        return t.wrap("inner", inner)() + t.wrap("inner", inner)()

    with t.span("root"):
        t.wrap("outer", outer)()
    summary = t.summary()
    assert summary["inner"][0] == 2 and summary["outer"][0] == 1
    root_s = t.end[0] - t.start[0]
    assert sum(secs for _, secs in summary.values()) == pytest.approx(root_s)
    assert t.parent == [-1, 0, 1, 1]


def test_concurrent_threads_keep_their_own_parents():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: None)

    def outer():
        for _ in range(200):
            inner()

    threads = [threading.Thread(target=t.wrap("outer", outer))
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    names = [t.names[i] for i in t.name_idx]
    assert names.count("outer") == 4 and names.count("inner") == 800
    for name, p, s, e in zip(names, t.parent, t.start, t.end):
        if name == "outer":
            assert p == -1
        else:
            assert names[p] == "outer" and t.start[p] <= s <= e <= t.end[p]


def test_installed_wraps_internal_callers_and_restores():
    original = metrics.risk_index
    layers = (("metrics.risk_index", "dosebench.metrics", ("risk_index",)),
              ("env.gone", "dosebench.env", ("GlucoseEnv.no_such_method",)),
              ("harness.act", "dosebench.harness", ("ScriptedPolicy.act",)))
    t = tracer.Tracer()
    with tracer.installed(t, layers):
        metrics.step_reward(150.0, False)  # calls risk_index internally
        harness.ScriptedPolicy("zero").act(None, None)
    assert metrics.risk_index is original
    assert "act" in vars(harness.ScriptedPolicy)
    assert {k: n for k, (n, _) in t.summary().items()} \
        == {"metrics.risk_index": 1, "harness.act": 1}
    assert t.absent == ["dosebench.env.GlucoseEnv.no_such_method"]


def test_every_layer_resolves():
    t = tracer.Tracer()
    with tracer.installed(t):
        pass
    assert t.absent == []


def test_percentile_nearest_rank_and_sample_rule():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.beyond(1536, 99) == 15
    assert stats.supports(1000, 99) and not stats.supports(999, 99)
    assert stats.supports(100, 90) and not stats.supports(100, 99)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_protocol_seeds_default_is_the_papers():
    assert workloads.protocol_seeds(workloads.DEFAULT_SEED) \
        == harness.DEFAULT_SEEDS
    other = workloads.protocol_seeds(7)
    assert other == workloads.protocol_seeds(7) and len(set(other)) == 4


TINY_PROTOCOL = harness.EvalProtocol(cohorts=(Cohort.CHILD,),
                                     patients_per_cohort=2, seeds=(1,),
                                     repeats_per_seed=1, bootstrap_resamples=20)


def tiny_workloads(tmp_path):
    spec = harness.PolicySpec(kind="dqn",
                              checkpoint_path=str(workloads.FIXTURE),
                              label="tiny")
    yield workloads.EvalWorkload("eval-dqn", spec, TINY_PROTOCOL,
                                 tmp_path / "dqn")
    yield workloads.EvalLlmWorkload(TINY_PROTOCOL, tmp_path / "llm")
    yield workloads.TrainWorkload(
        "train-dqn", dqn.train_dqn,
        dqn.DqnConfig(epochs=2, steps_per_epoch=24, warm_start_steps=16,
                      batch_size=8), seed=3)
    yield workloads.TrainWorkload(
        "train-ppo", ppo.train_ppo,
        ppo.PpoConfig(epochs=2, steps_per_epoch=24, steps_per_collect=12,
                      warm_start_steps=12, batch_size=8,
                      repeat_per_collect=2), seed=3)


def test_tiny_workloads_pass_their_checks_and_trace(tmp_path):
    for wl in tiny_workloads(tmp_path):
        try:
            wl.warm_up()
            first = wl.run_once()
            t = tracer.Tracer()
            second = wl.run_once(
                lambda: tracer.traced_region(t, f"bench.{wl.name}"))
        finally:
            wl.close()
        assert first.problems == [] and second.problems == [], wl.name
        assert first.failed == 0 and first.attempted >= 1
        assert (first.digest, first.env_steps) \
            == (second.digest, second.env_steps)
        summary = t.summary()
        assert summary["env.step"][0] == second.env_steps, wl.name
        if wl.name == "eval-llm":
            assert summary["llm.http_transport"][0] == second.env_steps
            assert len(first.call_ms) == first.env_steps
            assert first.attempted == 2 + first.env_steps


def test_pin_mismatch_is_a_problem(tmp_path):
    wl = workloads.TrainWorkload(
        "train-dqn", dqn.train_dqn,
        dqn.DqnConfig(epochs=1, steps_per_epoch=8, warm_start_steps=4),
        seed=1, pin={"digest": "0" * 64, "env_steps": 12})
    result = wl.run_once()
    assert len(result.problems) == 1 and "pinned" in result.problems[0]


def test_region_covers_only_the_timed_operation(tmp_path):
    wl = workloads.EvalWorkload(
        "eval-dqn", harness.PolicySpec(kind="scripted",
                                       scripted_name="constant:1.0"),
        TINY_PROTOCOL, tmp_path)
    t = tracer.Tracer()
    result = wl.run_once(lambda: tracer.traced_region(t, "bench.x"))
    # The re-emission check aggregates again, outside the traced region.
    assert t.summary()["harness.aggregate"][0] == 1
    assert result.problems == []
