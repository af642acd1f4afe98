import itertools
import json
import os
import subprocess
import sys
import threading
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosebench import env, harness, metrics, nets, patients
from dosebench.llm import LlmConfig, ScriptedMockServer
from dosebench.patients import Cohort
from dosebench.ppo import PpoConfig, make_policy

import _oracles


class Spec:
    """Stands in for a PolicySpec that resolves to ``policy``."""

    def __init__(self, policy):
        self.policy = policy

    def resolve(self):
        return self.policy


def test_protocol_dimensions():
    protocol = harness.EvalProtocol()
    assert len(protocol.cohorts) == 3
    assert protocol.patients_per_cohort == 4
    assert protocol.seeds == (1, 100, 1000, 10000)
    assert protocol.repeats_per_seed == 5


def test_scripted_policy_names():
    lanes = [SimpleNamespace(rng=np.random.default_rng(0))] * 3
    for name, expected in (("zero", 0.0), ("max", 9.0), ("constant:2.5", 2.5)):
        # A constant is one rate per lane, like every policy's answer.
        assert harness.ScriptedPolicy(name).act(None, lanes) == [expected] * 3
    p = harness.ScriptedPolicy("warmstart-random")
    lanes = [SimpleNamespace(rng=np.random.default_rng(0))] * 100
    assert set(p.act(None, lanes)) == {0.0, 0.9, 1.8}
    with pytest.raises(ValueError):
        harness.ScriptedPolicy("nope")
    # A dose outside the action range would fail every episode at its first
    # step.
    for name in ("constant:20", "constant:-0.5", "constant:nan",
                 "constant:inf", "constant:abc"):
        with pytest.raises(ValueError, match=r"a number in \[0.0, 9.0\]"):
            harness.ScriptedPolicy(name)


# One patient, one seed: its episodes are the given repeats.
def _one_patient(cohort="adult", patient_id=0, seed=1, repeats=1):
    return harness.EvalProtocol(cohorts=(Cohort(cohort),),
                                patients_per_cohort=patient_id + 1,
                                seeds=(seed,), repeats_per_seed=repeats)


def test_protocol_episodes_are_deterministic():
    spec = harness.PolicySpec(kind="scripted", scripted_name="constant:1.0")
    a0, a1 = harness.run_protocol(spec, _one_patient(repeats=2))
    b0, b1 = harness.run_protocol(spec, _one_patient(repeats=2))
    assert a0.key == harness.EpisodeKey("adult", 0, 1, 0)
    assert a0.rewards == b0.rewards and a1.rewards == b1.rewards
    assert a0.bg == b0.bg
    # The repeat perturbs the stream.
    assert a1.bg != a0.bg


def test_policy_acts_on_the_rollouts_observation_and_env():
    seen = []

    class Recording(harness.Policy):
        def act(self, obs, lanes):
            assert obs.shape == (len(lanes), 48)
            for row, lane in zip(obs, lanes):
                seen.append((lane.key, row[-3], lane.history[-1].bg_sensor,
                             len(lane.history)))
            return [1.0] * len(lanes)

    protocol = _one_patient("child", patient_id=1)
    records = harness.run_protocol(Spec(Recording()), protocol)
    # Patients 0 and 1, one round per step: each round sees both lanes.
    assert [len(r.actions) for r in records] == [64, 64]
    assert [key for key, *_ in seen] == [r.key for r in records] * 64
    for i, (_, obs_sensor, env_sensor, measurements) in enumerate(seen):
        assert obs_sensor == env_sensor       # obs is the lane's latest
        assert measurements == i // 2 + 1


def test_run_protocol_keys_episodes_in_protocol_order():
    spec = harness.PolicySpec(kind="scripted", scripted_name="zero")
    protocol = harness.EvalProtocol(cohorts=(Cohort.CHILD, Cohort.ADULT),
                                    patients_per_cohort=2, seeds=(100, 1),
                                    repeats_per_seed=2)
    keys = [r.key for r in harness.run_protocol(spec, protocol)]
    assert keys == [harness.EpisodeKey(c, pid, seed, rep)
                    for c in ("child", "adult") for pid in (0, 1)
                    for seed in (100, 1) for rep in (0, 1)]
    assert sorted(keys) == sorted(keys, key=lambda k: (
        k.cohort, k.patient_id, k.seed, k.repeat))


def test_llm_policy_needs_a_base_url_only_without_a_transport(monkeypatch):
    from dosebench.llm import LlmConfig
    monkeypatch.delenv("DOSEBENCH_LLM_BASE_URL", raising=False)
    with pytest.raises(ValueError, match="DOSEBENCH_LLM_BASE_URL"):
        harness.PolicySpec(kind="llm").resolve()
    with pytest.raises(ValueError, match="http:// or https://"):
        harness.PolicySpec(kind="llm", llm_config=LlmConfig(
            base_url="ftp://example")).resolve()
    monkeypatch.setenv("DOSEBENCH_LLM_BASE_URL", "http://127.0.0.1:9")
    assert harness.PolicySpec(kind="llm").resolve().transport is None

    monkeypatch.delenv("DOSEBENCH_LLM_BASE_URL")
    prompts = []

    def transport(messages, config, kind):
        prompts.append(messages[-1]["content"])
        return "1.5"

    spec = harness.PolicySpec(kind="llm", llm_transport=transport)
    (rec,) = harness.run_protocol(spec, _one_patient())
    assert rec.actions == [1.5] * 64 and len(prompts) == 64
    assert "(initial measurement)" in prompts[0]


def test_run_protocol_emits_240_records():
    spec = harness.PolicySpec(kind="scripted", scripted_name="zero")
    protocol = harness.EvalProtocol()
    records = harness.run_protocol(spec, protocol)
    assert len(records) == 240
    keys = {(r.cohort, r.patient_id, r.seed, r.repeat) for r in records}
    assert len(keys) == 240
    assert all(r.error is None for r in records)


def test_run_protocol_records_policy_failures(monkeypatch):
    def broken(self, obs, env):
        raise RuntimeError("kaput")

    monkeypatch.setattr(harness.ScriptedPolicy, "act", broken)
    spec = harness.PolicySpec(kind="scripted")
    protocol = harness.EvalProtocol(cohorts=(Cohort.ADULT,),
                                    seeds=(1,), repeats_per_seed=1)
    records = harness.run_protocol(spec, protocol)
    assert len(records) == 4
    # The error keeps its class, as ``dosebench eval`` reports it.
    assert all(r.error == "RuntimeError: kaput" for r in records)
    report = harness.aggregate(records, protocol, policy_label="")
    assert report.incomplete_strata == ["adult", "overall"]
    assert report.strata == {}


def test_aggregate_reports_the_cohorts_that_did_not_fail():
    # The child lanes fail at their first round; the other cohorts' strata,
    # and overall, summarise the successful records alone.
    class ChildFails(harness.Policy):
        def act(self, obs, lanes):
            return [RuntimeError("kaput") if lane.key.cohort == "child"
                    else 1.2 for lane in lanes]

    protocol = harness.EvalProtocol(seeds=(1, 100), repeats_per_seed=1,
                                    bootstrap_resamples=200)
    records = harness.run_protocol(Spec(ChildFails()), protocol)
    # aggregate scores the records in key order.
    ok = sorted((r for r in records if r.error is None), key=lambda r: r.key)
    assert {r.cohort for r in records if r.error is not None} == {"child"}
    assert len(ok) == 16
    report = harness.aggregate(records, protocol, policy_label="")
    assert report.incomplete_strata == ["child"]
    assert list(report.strata) == ["adult", "adolescent", "overall"]
    groups = {name: [r for r in ok if r.cohort == name]
              for name in ("adult", "adolescent")}
    for name, group in [*groups.items(), ("overall", ok)]:
        returns = [metrics.normalized_return(r.episode_return) for r in group]
        expected = metrics.bootstrap_ci(
            returns, resamples=200,
            seed=zlib.crc32(f"{name}/normalized_return".encode()))
        assert report.strata[name]["normalized_return"] == expected
        assert report.strata[name]["tir"].n == len(group)


def test_aggregate_permutation_invariant():
    spec = harness.PolicySpec(kind="scripted", scripted_name="constant:1.0")
    protocol = harness.EvalProtocol(seeds=(1, 100), repeats_per_seed=2)
    records = harness.run_protocol(spec, protocol)
    report = harness.aggregate(records, protocol, policy_label="c1")
    rng = np.random.default_rng(0)
    shuffled = [records[i] for i in rng.permutation(len(records))]
    report2 = harness.aggregate(shuffled, protocol, policy_label="c1")
    assert report.to_dict() == report2.to_dict()
    assert set(report.strata) == {"adult", "adolescent", "child", "overall"}
    with pytest.raises(ValueError):
        harness.aggregate([], protocol, policy_label="")


def test_degenerate_bootstrap_zero_width():
    rec = harness.EpisodeRecord(key=harness.EpisodeKey("adult", 0, 1, 0),
                                bg=[100.0] * 65, actions=[1.0] * 64,
                                rewards=[0.5] * 64, termination_cause=None,
                                truncated=True)
    records = [rec] * 12
    protocol = harness.EvalProtocol(cohorts=(Cohort.ADULT,))
    report = harness.aggregate(records, protocol, policy_label="")
    for summary in report.strata["adult"].values():
        assert summary.ci_low == summary.ci_high
        assert summary.mean == pytest.approx(summary.ci_low, abs=1e-12)


def test_protocol_hash_sensitivity():
    base = harness.EvalProtocol()
    assert harness.protocol_hash(base) == harness.protocol_hash(
        harness.EvalProtocol())
    changed = harness.EvalProtocol(seeds=(1, 2, 3, 4))
    assert harness.protocol_hash(changed) != harness.protocol_hash(base)
    assert len(harness.protocol_hash(base)) == 16


def test_select_best_checkpoint():
    class E:
        def __init__(self, epoch, train_return):
            self.epoch = epoch
            self.train_return = train_return

    log = [E(0, 10.0), E(1, float("nan")), E(2, 30.0), E(3, 30.0), E(4, 20.0)]
    assert harness.select_best_checkpoint(log) == 2  # ties go to the earliest
    with pytest.raises(ValueError):
        harness.select_best_checkpoint([])
    with pytest.raises(ValueError):
        harness.select_best_checkpoint([E(0, float("nan"))])


def _small_reports():
    spec_a = harness.PolicySpec(kind="scripted", scripted_name="constant:1.8",
                                label="c18")
    spec_b = harness.PolicySpec(kind="scripted", scripted_name="zero",
                                label="zero")
    protocol = harness.EvalProtocol(seeds=(1,), repeats_per_seed=1)
    rep_a = harness.aggregate(harness.run_protocol(spec_a, protocol), protocol,
                              policy_label="c18")
    rep_b = harness.aggregate(harness.run_protocol(spec_b, protocol), protocol,
                              policy_label="zero")
    return rep_a, rep_b, protocol


def test_compare_policies_orders_and_flags_overlap():
    rep_a, rep_b, _ = _small_reports()
    table = harness.compare_policies([rep_b, rep_a])
    assert table["policies"] == ["c18", "zero"]  # best overall return first
    row = next(r for r in table["rows"]
               if r["stratum"] == "overall" and r["metric"] == "normalized_return")
    assert row["cells"][0]["ci_overlaps_best"] is True  # best overlaps itself
    with pytest.raises(ValueError):
        harness.compare_policies([rep_a])
    rep_b.protocol_hash = "deadbeefdeadbeef"
    with pytest.raises(ValueError):
        harness.compare_policies([rep_a, rep_b])


def _cells(table, stratum, metric="normalized_return"):
    return next(r["cells"] for r in table["rows"]
                if r["stratum"] == stratum and r["metric"] == metric)


@pytest.mark.parametrize("lacking, stratum, ranked", [
    ("c18", "child", ["c18", "zero"]),
    ("zero", "child", ["c18", "zero"]),
    ("c18", "overall", ["zero", "c18"]),   # no overall return ranks last
], ids=["best-lacks-child", "worst-lacks-child", "lacks-overall"])
def test_compare_policies_covers_a_stratum_one_report_lacks(lacking, stratum,
                                                            ranked):
    # A report has no stratum for a cohort whose every episode failed.
    reports = dict(zip(("c18", "zero"), _small_reports()))
    del reports[lacking].strata[stratum]
    for order in (["c18", "zero"], ["zero", "c18"]):
        table = harness.compare_policies([reports[name] for name in order])
        assert table["policies"] == ranked
        assert [(r["stratum"], r["metric"]) for r in table["rows"]] == [
            (name, metric)
            for name in ("adult", "adolescent", "child", "overall")
            for metric in harness.METRIC_NAMES]
        cells = _cells(table, stratum)
        missing = ranked.index(lacking)
        assert cells[missing] is None
        # Judged against the best-ranked report that has the stratum.
        assert cells[1 - missing]["ci_overlaps_best"] is True
        assert all(cell is not None for cell in _cells(table, "adult"))


def test_emit_report_byte_stable_and_round_trip(tmp_path):
    rep_a, _, _ = _small_reports()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    harness.emit_report(rep_a, p1, "json")
    harness.emit_report(rep_a, p2, "json")
    assert p1.read_bytes() == p2.read_bytes()

    loaded = harness.load_report(p1)
    assert loaded.policy_label == rep_a.policy_label
    assert loaded.protocol_hash == rep_a.protocol_hash
    got = loaded.strata["overall"]["normalized_return"]
    want = rep_a.strata["overall"]["normalized_return"]
    assert got.mean == pytest.approx(want.mean, abs=1e-6)

    csv_path = tmp_path / "a.csv"
    harness.emit_report(rep_a, csv_path, "csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("stratum,normalized_return_mean")
    assert len(lines) == 1 + len(rep_a.strata)
    with pytest.raises(ValueError):
        harness.emit_report(rep_a, tmp_path / "a.xml", "xml")


def test_ppo_checkpoint_sidecar_round_trip(tmp_path):
    policy = make_policy(PpoConfig(transform="tanh"), seed=3)
    path = tmp_path / "actor.dnet"
    harness.save_ppo_checkpoint(policy, path)
    loaded = harness.load_ppo_checkpoint(path)
    assert loaded.transform == "tanh"
    assert float(loaded.log_sigma) == float(policy.log_sigma)
    assert loaded.mu_offset == policy.mu_offset
    obs = np.zeros((1, 1, 48))
    assert loaded.mean_actions(obs) == policy.mean_actions(obs)


@pytest.mark.parametrize("key, value, message", [
    ("d_max", 5.0, "5.0"),
    ("conditioned_sigma", True, "state-conditioned sigma"),
], ids=["d_max", "conditioned_sigma"])
def test_ppo_checkpoint_for_another_dose_range_is_rejected(key, value, message,
                                                           tmp_path):
    # A side-car written for another dose range or another policy head.
    path = tmp_path / "actor.dnet"
    harness.save_ppo_checkpoint(make_policy(PpoConfig(), seed=3), path)
    sidecar = tmp_path / "actor.dnet.json"
    meta = json.loads(sidecar.read_text())
    assert meta["d_max"] == 9.0 and meta["conditioned_sigma"] is False
    sidecar.write_text(json.dumps({**meta, key: value}))
    with pytest.raises(nets.CheckpointError, match=message):
        harness.load_ppo_checkpoint(path)


@pytest.mark.parametrize("kind, sizes", [
    ("dqn", [48, 8, 5]),
    ("dqn", [48, 8, 20]),
    ("dqn", [47, 8, 11]),
    ("ppo", [48, 8, 3]),
    ("ppo", [40, 8, 1]),
], ids=["dqn-5-bins", "dqn-20-bins", "dqn-47-inputs", "ppo-3-outputs",
        "ppo-40-inputs"])
def test_checkpoint_with_the_wrong_layer_widths_is_refused(kind, sizes,
                                                           tmp_path):
    # Loaded unchecked, such a net acts on a few of the bins only, on one
    # column of several, or fails once per episode instead of once per run.
    path = tmp_path / "net.dnet"
    net = nets.init_standard(sizes, seed=0)
    if kind == "dqn":
        nets.save_params(net, path)
    else:
        policy = make_policy(PpoConfig(), seed=0)
        policy.actor = net
        harness.save_ppo_checkpoint(policy, path)
    spec = harness.PolicySpec(kind=kind, checkpoint_path=str(path))
    with pytest.raises(nets.CheckpointError, match=r"layer sizes \["):
        spec.resolve()


def test_policy_spec_resolution_errors():
    with pytest.raises(ValueError):
        harness.PolicySpec(kind="dqn").resolve()
    with pytest.raises(ValueError):
        harness.PolicySpec(kind="ppo").resolve()
    with pytest.raises(ValueError):
        harness.PolicySpec(kind="wat").resolve()


def test_dqn_policy_eps_zero_is_deterministic(monkeypatch):
    monkeypatch.setattr(harness, "EPS_TEST", 0.0)
    qnet = nets.init_standard([48, 8, 11], seed=0)
    policy = harness.DqnPolicy(qnet)
    lanes = [SimpleNamespace(rng=np.random.default_rng(0))] * 5
    a = policy.act(np.tile(np.linspace(0, 200, 48), (5, 1)), lanes)
    assert len(a) == 5 and len(set(a)) == 1
    assert a[0] in [0.9 * b for b in range(11)]


def _dqn_checkpoint(tmp_path):
    path = tmp_path / "q.dnet"
    nets.save_params(nets.init_standard([48, 8, 11], seed=0), path)
    return str(path)


def test_run_protocol_loads_the_checkpoint_once(tmp_path, monkeypatch):
    path = _dqn_checkpoint(tmp_path)
    loads = []
    load_params = nets.load_params
    monkeypatch.setattr(nets, "load_params",
                        lambda p: loads.append(p) or load_params(p))
    spec = harness.PolicySpec(kind="dqn", checkpoint_path=path)
    records = harness.run_protocol(spec, harness.EvalProtocol())
    assert len(records) == 240
    assert all(r.error is None for r in records)
    assert loads == [path]


def test_an_llm_run_starts_no_more_threads_than_lanes_and_ends_them():
    threads = set()

    def transport(messages, config, kind):
        threads.add(threading.current_thread())
        if len(messages[-1]["content"]) % 7 == 0:
            # Fails its lane; the exception's traceback then holds the
            # policy, and its pool, in a reference cycle.
            raise RuntimeError("not a transport error")
        return _prompt_dose(messages, config, kind)

    protocol = harness.EvalProtocol(cohorts=(Cohort.CHILD,), seeds=(1,),
                                    repeats_per_seed=1)
    serial = harness.run_protocol(harness.PolicySpec(
        kind="llm", llm_transport=transport), protocol)
    assert threads == {threading.current_thread()}
    assert any(r.error is not None for r in serial)
    threads.clear()
    spec = harness.PolicySpec(kind="llm", llm_config=LlmConfig(workers=64),
                              llm_transport=transport)
    records = harness.run_protocol(spec, protocol)
    assert records == serial
    # Four lanes: at most four pool threads, none of them this one, and
    # every one joined before run_protocol returned.
    assert 1 <= len(threads) <= 4
    assert threading.current_thread() not in threads
    assert not any(thread.is_alive() for thread in threads)
    # An empty protocol asks for nothing.
    assert harness.run_protocol(spec, harness.EvalProtocol(seeds=())) == []


def test_workers_give_same_records_as_serial(tmp_path):
    # One LlmPolicy keeps every lane's prompt lines for all its threads; over
    # HTTP each thread has its own connection to the one-reply server.
    protocol = harness.EvalProtocol(cohorts=(Cohort.CHILD,), seeds=(1, 100),
                                    repeats_per_seed=2)
    with ScriptedMockServer(["1.5"]) as server:
        specs = {
            "llm": lambda workers: harness.PolicySpec(
                kind="llm", llm_kind="meal-cot",
                llm_config=LlmConfig(workers=workers),
                llm_transport=_prompt_dose),
            "http": lambda workers: harness.PolicySpec(
                kind="llm", llm_kind="base",
                llm_config=LlmConfig(base_url=server.base_url,
                                     workers=workers)),
        }
        for name, spec in specs.items():
            runs = {}
            for workers in (1, 4):
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-5)  # switch threads often, mid-round
                try:
                    records = harness.run_protocol(spec(workers), protocol)
                finally:
                    sys.setswitchinterval(interval)
                assert all(r.error is None for r in records), name
                path = tmp_path / f"{name}-{workers}.json"
                harness.emit_report(harness.aggregate(records, protocol, name),
                                    path, "json")
                runs[workers] = (records, path.read_bytes())
            assert runs[1] == runs[4], name
        # One request per decision of either HTTP run.
        decisions = sum(len(r.actions) for r in runs[1][0])
        assert len(server.requests) == 2 * decisions


def test_run_protocol_raises_on_a_missing_checkpoint(tmp_path):
    spec = harness.PolicySpec(kind="dqn",
                              checkpoint_path=str(tmp_path / "absent.dnet"))
    with pytest.raises(FileNotFoundError):
        harness.run_protocol(spec, harness.EvalProtocol())


def test_run_protocol_raises_on_a_corrupt_checkpoint(tmp_path):
    path = tmp_path / "corrupt.dnet"
    path.write_bytes(b"not a checkpoint")
    spec = harness.PolicySpec(kind="dqn", checkpoint_path=str(path))
    with pytest.raises(nets.CheckpointError):
        harness.run_protocol(spec, harness.EvalProtocol())


# Lock-step evaluation against the per-episode loop it replaced
# (``_oracles.run_protocol``), policy by policy.

def _prompt_dose(messages, config, kind):
    # A pure function of the prompt, so the request order does not matter.
    return f"<ans>{len(messages[-1]['content']) % 11 * 0.9:.1f}</ans>"


def _policies(name, workers=1):
    """(lock-step policy, per-episode policy) acting alike; the LLM policy
    keeps ``workers`` requests in flight."""
    if name.startswith("dqn"):
        qnet = nets.init_standard([48, 64, 64, 11], seed=int(name[3:]))
        return harness.DqnPolicy(qnet), _oracles.DqnPolicy(qnet)
    if name.startswith("ppo-"):
        ppo = make_policy(PpoConfig(transform=name[4:]), seed=0)
        ppo.actor.params[:] = np.random.default_rng(5).normal(
            scale=0.05, size=ppo.actor.params.shape)
        return harness.PpoEvalPolicy(ppo), _oracles.PpoEvalPolicy(ppo)
    if name == "llm":
        return (harness.LlmPolicy("meal-cot", LlmConfig(workers=workers),
                                  _prompt_dose),
                _oracles.LlmPolicy("meal-cot", LlmConfig(), _prompt_dose))
    return harness.ScriptedPolicy(name), _oracles.ScriptedPolicy(name)


POLICIES = ("zero", "max", "constant:1.2", "warmstart-random", "dqn0", "dqn1",
            "ppo-tanh", "ppo-clip", "llm")


def _assert_lockstep_matches_per_episode_loop(name, protocol, workers=1):
    new, old = _policies(name, workers)
    records = harness.run_protocol(Spec(new), protocol)
    expected = _oracles.run_protocol(old, protocol)
    assert records == expected, name
    assert repr(records) == repr(expected), name   # -0.0 and 0.0 too
    return records


def _recording_rounds(monkeypatch):
    """A list that gets (lanes, whether it ran on arrays) for each round of
    more than one lane, in order: the lock-step's rounds, not the per-episode
    loop's."""
    rounds, kernel_calls = [], []
    integrate_lanes = patients.integrate_lanes
    monkeypatch.setattr(patients, "integrate_lanes",
                        lambda *args: kernel_calls.append(1)
                        or integrate_lanes(*args))
    advance = env.Columns.advance

    def recording(self, rates):
        before = len(kernel_calls)
        advance(self, rates)
        if len(rates) > 1:
            rounds.append((len(rates), len(kernel_calls) > before))
    monkeypatch.setattr(env.Columns, "advance", recording)
    return rounds


@pytest.mark.parametrize("name", POLICIES)
@pytest.mark.parametrize("seeds", [(1,), (1, 100, 1000, 10000)],
                         ids=["12-lanes", "48-lanes"])
def test_lockstep_records_equal_the_per_episode_loop(name, seeds,
                                                     monkeypatch):
    # 12 lanes take one scalar kernel call per lane, 48 one array call.
    protocol = harness.EvalProtocol(seeds=seeds, repeats_per_seed=1)
    lanes = 12 * len(seeds)
    assert (lanes >= patients.ARRAY_MIN_LANES) == (lanes == 48)
    rounds = _recording_rounds(monkeypatch)
    records = _assert_lockstep_matches_per_episode_loop(name, protocol)
    assert all(on_arrays == (n >= patients.ARRAY_MIN_LANES)
               for n, on_arrays in rounds)
    if name in ("zero", "max"):
        # Lanes end early, and at different rounds.
        cause = "hyper" if name == "zero" else "hypo"
        assert any(r.termination_cause == cause for r in records)
        assert len({len(r.actions) for r in records}) > 1
        if lanes == 48:
            # The round's branch changes in the middle of the run: array
            # rounds first, float rounds once fewer lanes are left.
            on_arrays = [on_arrays for _, on_arrays in rounds]
            assert on_arrays[0] and not all(on_arrays)


def test_lockstep_records_equal_the_per_episode_loop_on_the_full_protocol():
    # All 240 lanes of the paper's protocol, in one array kernel call per
    # round.
    _assert_lockstep_matches_per_episode_loop("dqn0", harness.EvalProtocol())


@st.composite
def _lockstep_cases(draw):
    cohorts = draw(st.lists(st.sampled_from(list(Cohort)), min_size=1,
                            max_size=3, unique=True))
    protocol = harness.EvalProtocol(
        cohorts=tuple(cohorts), patients_per_cohort=draw(st.integers(1, 4)),
        seeds=tuple(draw(st.lists(st.sampled_from((1, 100, 1000, 7, 8)),
                                  min_size=1, max_size=3, unique=True))),
        repeats_per_seed=draw(st.integers(1, 2)))
    return dict(name=draw(st.sampled_from(POLICIES)), protocol=protocol,
                min_lanes=draw(st.sampled_from(
                    (1, patients.ARRAY_MIN_LANES, 10**6))),
                two_meals=draw(st.booleans()),
                eps=draw(st.sampled_from((harness.EPS_TEST, 0.3))),
                workers=draw(st.sampled_from((1, 3))))


@settings(max_examples=20)
@given(_lockstep_cases())
def test_lockstep_parity_on_random_protocols(case):
    with pytest.MonkeyPatch.context() as mp:
        # Either call shape of the kernel, whatever the lane count.
        mp.setattr(patients, "ARRAY_MIN_LANES", case["min_lanes"])
        for module in (harness, _oracles):
            mp.setattr(module, "EPS_TEST", case["eps"])
        if case["two_meals"]:
            # Unjittered, breakfast and a second meal fall in one substep.
            mp.setattr(env, "_MEALS", ((120.0, 45.0), (120.0, 30.0),
                                       (600.0, 20.0)))
            mp.setattr(env, "MEAL_JITTER_MIN", 0.0)
        _assert_lockstep_matches_per_episode_loop(
            case["name"], case["protocol"], case["workers"])


@pytest.mark.parametrize("min_lanes", [1, 10**6, 40],
                         ids=["arrays", "scalars", "arrays-then-floats"])
def test_a_non_finite_lane_fails_only_its_own_episode(min_lanes, monkeypatch):
    # Patient 1 overflows in the first substep of its first interval, and
    # patient 2 starts non-finite; each fails with the scalar kernel's
    # exception, and the other lanes run on. With 40 lanes to a round on
    # arrays, the child protocol's 40 lanes take round 1 on arrays and the
    # 20 left take every later round on floats.
    # Both a lock-step lane and the per-episode loop's reset start their
    # episode with ``begin``.
    begin = env.GlucoseEnv.begin

    def faulty_begin(self, draws):
        begin(self, draws)
        if self.params.patient_id == 1:
            self.state.q_gut = 1e308
        elif self.params.patient_id == 2:
            self.state.g = float("nan")

    monkeypatch.setattr(env.GlucoseEnv, "begin", faulty_begin)
    monkeypatch.setattr(patients, "ARRAY_MIN_LANES", min_lanes)
    rounds = _recording_rounds(monkeypatch)
    protocol = harness.EvalProtocol(cohorts=(Cohort.CHILD,), seeds=(1, 100))
    records = _assert_lockstep_matches_per_episode_loop("constant:1.2",
                                                        protocol)
    on_arrays = min_lanes <= 20     # the lanes left after round 1
    assert rounds == [(40, min_lanes <= 40)] + [(20, on_arrays)] * 63
    failed = {r.patient_id for r in records if r.error is not None}
    assert failed == {1, 2}
    assert all(r.error.startswith("FloatingPointError: non-finite patient "
                                  "state: PatientState(") for r in records
               if r.error is not None)
    assert all(len(r.actions) == 64 for r in records if r.error is None)


@pytest.mark.parametrize("reply", [None, RuntimeError("no reply")],
                         ids=["null-content", "raises"])
def test_one_lanes_failed_llm_call_fails_only_its_own_episode(reply):
    # Some prompts get a null reply (which the parser refuses with a
    # TypeError) or an exception that llm_act does not retry; those episodes
    # fail at their own round, and the others run to the end.
    def transport(messages, config, kind):
        if zlib.crc32(messages[-1]["content"].encode()) % 97 == 0:
            if isinstance(reply, Exception):
                raise reply
            return reply
        return _prompt_dose(messages, config, kind)

    protocol = harness.EvalProtocol(cohorts=(Cohort.ADULT,), seeds=(1, 100),
                                    repeats_per_seed=2)
    new = harness.LlmPolicy("meal-cot", LlmConfig(), transport)
    old = _oracles.LlmPolicy("meal-cot", LlmConfig(), transport)
    records = harness.run_protocol(Spec(new), protocol)
    assert records == _oracles.run_protocol(old, protocol)
    failed = [r for r in records if r.error is not None]
    assert 0 < len(failed) < len(records)
    error = "TypeError: " if reply is None else "RuntimeError: no reply"
    assert all(r.error.startswith(error) for r in failed)


def test_a_policy_must_give_one_rate_per_lane(monkeypatch):
    protocol = harness.EvalProtocol(cohorts=(Cohort.ADULT,), seeds=(1,),
                                    repeats_per_seed=1)
    monkeypatch.setattr(harness.ScriptedPolicy, "act",
                        lambda self, obs, lanes: [1.0])
    records = harness.run_protocol(harness.PolicySpec(kind="scripted"),
                                   protocol)
    assert [r.error for r in records] == [
        "ValueError: ScriptedPolicy.act gave 1 rates for 4 lanes"] * 4

    # A bare float is no rate per lane either, one for every lane included.
    class OneFloat(harness.Policy):
        def act(self, obs, lanes):
            return 1.0

    records = harness.run_protocol(Spec(OneFloat()), protocol)
    assert [r.error for r in records] == [
        "ValueError: OneFloat.act gave 1.0, not one rate per lane"] * 4
    assert all(r.actions == [] for r in records)


def test_a_repeated_seed_keeps_both_episodes():
    # Each request gets the next of three replies, so the two episodes of
    # the repeated key act differently.
    replies = itertools.cycle(["<ans>0.9</ans>", "<ans>1.8</ans>",
                               "<ans>2.7</ans>"])
    spec = harness.PolicySpec(kind="llm", llm_kind="meal-cot",
                              llm_transport=lambda m, c, k: next(replies))
    protocol = harness.EvalProtocol(cohorts=(Cohort.CHILD,),
                                    patients_per_cohort=1, seeds=(1, 1),
                                    repeats_per_seed=1)
    first, second = harness.run_protocol(spec, protocol)
    assert first is not second
    assert first.key == second.key == harness.EpisodeKey("child", 0, 1, 0)
    assert first.error is None and second.error is None
    assert first.actions[:3] == [0.9, 2.7, 1.8]
    assert second.actions[:3] == [1.8, 0.9, 2.7]


# The work of a round on the paper's 240 lanes: the lanes stay in arrays
# from reset to their last round.

def _full_protocol_run(monkeypatch, owner, name, wrapper):
    """The paper's protocol at a constant 1.2 U/h, with ``owner.name``
    replaced by ``wrapper`` of it; every lane runs all 64 rounds."""
    monkeypatch.setattr(owner, name, wrapper(getattr(owner, name)))
    spec = harness.PolicySpec(kind="scripted", scripted_name="constant:1.2")
    records = harness.run_protocol(spec, harness.EvalProtocol())
    assert len(records) == 240
    assert all(r.error is None and len(r.actions) == 64 for r in records)
    return records


def test_a_lane_builds_one_patient_state(monkeypatch):
    built = []

    def counting(init):
        def __init__(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        return __init__

    _full_protocol_run(monkeypatch, patients.PatientState, "__init__",
                       counting)
    assert len(built) == 240        # one per reset, none per round


def test_a_round_is_one_kernel_call_on_the_arrays_the_last_one_left(
        monkeypatch):
    cores, calls, shapes = [], [], set()
    init = env.Columns.__init__

    def recording_init(self, rows):
        cores.append(self)
        init(self, rows)

    def recording(integrate_lanes):
        def recorded(fields, *args):
            shapes.update(f.shape for f in fields)
            g = fields[0]
            in_store = np.shares_memory(g, cores[0].lane)
            g_in = g.copy()
            out, errors = integrate_lanes(fields, *args)
            calls.append((g_in, in_store, out[0]))
            return out, errors
        return recorded

    monkeypatch.setattr(env.Columns, "__init__", recording_init)
    _full_protocol_run(monkeypatch, patients, "integrate_lanes", recording)
    assert len(cores) == 1 and len(calls) == 64
    assert shapes == {(240,)}       # every field of every call
    # Each round integrates the glucose column of the core's one store, and
    # no lane ends before round 64, so that column holds what the round
    # before it left.
    assert all(in_store for _, in_store, _ in calls)
    assert all(g.tobytes() == left.tobytes()
               for (g, _, _), (_, _, left) in zip(calls[1:], calls))


def test_rounds_draw_no_noise(monkeypatch):
    # Every draw is an episode's start: one noise and one sensor draw per
    # distinct (seed, repeat), which its 12 lanes share.
    draws = {"start": 0, "round": 0}
    phase = ["round"]

    class Counting:
        """A generator that counts its standard_normal calls by phase."""

        def __init__(self, rng):
            self._rng = rng

        def standard_normal(self, *args, **kwargs):
            draws[phase[0]] += 1
            return self._rng.standard_normal(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    def in_start(start):
        def traced(*args):
            phase[0] = "start"
            try:
                return start(*args)
            finally:
                phase[0] = "round"
        return traced

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: Counting(default_rng(*a)))
    monkeypatch.setattr(env.GlucoseEnv, "begin",
                        in_start(env.GlucoseEnv.begin))
    _full_protocol_run(monkeypatch, harness, "episode_draws", in_start)
    assert draws == {"start": 2 * 4 * 5, "round": 0}


def test_a_run_draws_each_seed_and_repeat_once(monkeypatch):
    # The 12 lanes of a (seed, repeat) copy one draw of its episode streams,
    # and the draws last one run: the next run draws them again.
    drawn = []
    episode_draws = harness.episode_draws

    def recording(ss):
        drawn.append(tuple(ss.entropy))
        return episode_draws(ss)

    monkeypatch.setattr(harness, "episode_draws", recording)
    spec = harness.PolicySpec(kind="scripted", scripted_name="constant:1.2")
    for runs in (1, 2):
        records = harness.run_protocol(spec, harness.EvalProtocol())
        assert all(r.error is None for r in records)
        groups = {(r.seed, r.repeat) for r in records}
        assert len(groups) == 20
        assert sorted(drawn) == sorted(
            [(seed, repeat, 0xE7A1) for seed, repeat in groups] * runs)


@pytest.mark.parametrize("name", ["dqn0", "ppo-tanh"])
def test_evaluation_makes_at_most_one_forward_per_round(name, monkeypatch):
    calls = []
    forward = nets.forward
    monkeypatch.setattr(nets, "forward",
                        lambda net, x: calls.append(x.shape) or forward(net, x))
    new, _ = _policies(name)
    protocol = harness.EvalProtocol(seeds=(1, 100, 1000), repeats_per_seed=1)
    records = harness.run_protocol(Spec(new), protocol)
    rounds = max(len(r.actions) for r in records)
    assert len(calls) == rounds
    assert calls[0] == (36, 1, 48)


# The round's bookkeeping: one traced ``GlucoseEnv.step`` per env step, as the
# benchmark's trace check counts them, and records sliced from the core.

def _counting(monkeypatch, counts, owner, name, key):
    wrapped = getattr(owner, name)

    def count(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return wrapped(*args, **kwargs)
    monkeypatch.setattr(owner, name, count)


@pytest.mark.parametrize("name, seeds", [("dqn0", (1,)),
                                         ("max", (1, 100, 1000, 10000))],
                         ids=["dqn-12-lanes", "max-48-lanes"])
def test_a_round_steps_each_lane_once_and_builds_no_step_record(
        name, seeds, monkeypatch):
    counts = {}
    for owner, attr, key in ((env.GlucoseEnv, "step", "step"),
                             (env.StepRecord, "__init__", "StepRecord"),
                             (harness.EpisodeRecord, "__init__",
                              "EpisodeRecord"),
                             (env.Columns, "__init__", "Columns")):
        _counting(monkeypatch, counts, owner, attr, key)
    new, _ = _policies(name)
    protocol = harness.EvalProtocol(seeds=seeds, repeats_per_seed=1)
    records = harness.run_protocol(Spec(new), protocol)
    assert all(r.error is None for r in records)
    assert counts["step"] == sum(len(r.actions) for r in records)
    assert "StepRecord" not in counts
    assert counts["EpisodeRecord"] == len(records) == 12 * len(seeds)
    assert counts["Columns"] == 1   # the round's core; a lane builds none
    if name == "max":   # lanes end at different rounds
        assert len({len(r.actions) for r in records}) > 1


def test_an_llm_decision_builds_only_the_rows_it_formats(monkeypatch):
    # The first decision of an episode formats its first row; each later one
    # the row finished since, and the current row. Each such row's
    # StepRecord is built once, for its line: 2n - 1 for n decisions.
    from dosebench.llm import prompts
    counts = {}
    _counting(monkeypatch, counts, env.StepRecord, "__init__", "StepRecord")
    _counting(monkeypatch, counts, prompts, "_line", "line")
    new, _ = _policies("llm")
    protocol = harness.EvalProtocol(cohorts=(Cohort.CHILD,), seeds=(1,),
                                    repeats_per_seed=1)
    records = harness.run_protocol(Spec(new), protocol)
    assert all(r.error is None for r in records)
    decisions = [len(r.actions) for r in records]
    assert counts["StepRecord"] == counts["line"] \
        == sum(2 * n - 1 for n in decisions)


def test_closing_an_llm_run_closes_its_connections():
    # Each pool thread's keep-alive connection, and the calling thread's, is
    # closed by the run, not by collection, which would warn.
    script = """
import gc
from dosebench import harness
from dosebench.llm import LlmConfig, ScriptedMockServer
from dosebench.llm.client import http_transport
from dosebench.patients import Cohort

with ScriptedMockServer(["<ans>1.2</ans>"]) as server:
    config = LlmConfig(base_url=server.base_url, workers=2)
    http_transport([{"role": "user", "content": "ready?"}], config, "base")
    spec = harness.PolicySpec(kind="llm", llm_kind="meal-cot",
                              llm_config=config)
    protocol = harness.EvalProtocol(cohorts=(Cohort.CHILD,),
                                    patients_per_cohort=2, seeds=(1,),
                                    repeats_per_seed=1)
    records = harness.run_protocol(spec, protocol)
    gc.collect()
    print(sum(len(r.actions) for r in records if r.error is None))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
         script], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")])})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["128"]
    assert "ResourceWarning" not in done.stderr, done.stderr
