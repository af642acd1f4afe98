import datetime
import json

import pytest

from dosebench import harness, nets
from dosebench.cli import _make_config, build_parser, main
from dosebench.dqn import DqnConfig
from dosebench.patients import Cohort
from dosebench.ppo import PpoConfig, make_policy


def test_parser_rejects_unknown_algo():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--algo", "sarsa", "--env", "adult"])


def test_train_dqn_writes_run_artifacts(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("epochs: 2\nsteps_per_epoch: 60\nwarm_start_steps: 130\n"
                   "batch_size: 32\n")
    main(["train", "--algo", "dqn", "--env", "adult", "--seed", "1",
          "--config", str(cfg), "--out", str(tmp_path / "runs")])
    runs = list((tmp_path / "runs").iterdir())
    assert len(runs) == 1
    run = runs[0]
    assert sorted(p.name for p in run.glob("checkpoint-*.dnet")) == \
        ["checkpoint-000.dnet", "checkpoint-001.dnet"]
    log = json.loads((run / "training_log.json").read_text())
    assert len(log) == 2
    best = int((run / "best_checkpoint.txt").read_text())
    assert best in (0, 1)


def test_train_ppo_writes_sidecars(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("epochs: 1\nsteps_per_epoch: 48\nsteps_per_collect: 48\n"
                   "repeat_per_collect: 1\nwarm_start_steps: 48\n"
                   "batch_size: 32\n")
    main(["train", "--algo", "ppo", "--env", "adult", "--prior", "on",
          "--seed", "1", "--config", str(cfg), "--out", str(tmp_path / "runs")])
    run = next((tmp_path / "runs").iterdir())
    ckpt = run / "checkpoint-000.dnet"
    assert ckpt.exists()
    meta = json.loads((run / "checkpoint-000.dnet.json").read_text())
    assert meta["transform"] == "tanh"


def test_eval_and_compare_round_trip(tmp_path, capsys):
    out = tmp_path / "runs"
    for name, label in (("constant:1.8", "a"), ("zero", "b")):
        main(["eval", "scripted", "--name", name, "--label", label,
              "--out", str(out)])
    reports = sorted(out.glob("*/report.json"))
    assert len(reports) == 2
    capsys.readouterr()
    main(["compare"] + [str(p) for p in reports])
    text = capsys.readouterr().out
    table = json.loads(text[text.index("{"):])
    assert table["policies"] == ["a", "b"]


def test_compare_exits_with_a_message_on_reports_it_cannot_compare(tmp_path):
    protocol = harness.EvalProtocol(cohorts=(Cohort.CHILD,),
                                    patients_per_cohort=1, seeds=(1,),
                                    repeats_per_seed=1)
    paths = []
    for name in ("zero", "max"):
        spec = harness.PolicySpec(kind="scripted", scripted_name=name)
        report = harness.aggregate(harness.run_protocol(spec, protocol),
                                   protocol, policy_label=name)
        paths.append(tmp_path / f"{name}.json")
        harness.emit_report(report, paths[-1], "json")
    with pytest.raises(SystemExit,
                       match="^dosebench compare: need at least two reports"):
        main(["compare", str(paths[0])])
    blob = json.loads(paths[1].read_text())
    blob["protocol_hash"] = "deadbeefdeadbeef"
    paths[1].write_text(json.dumps(blob))
    with pytest.raises(SystemExit,
                       match="^dosebench compare: protocol hash mismatch"):
        main(["compare", str(paths[0]), str(paths[1])])


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory"),
    ("report.json:\n  strata: {}\n", "not a dosebench report "
                                       r"\(JSONDecodeError"),
    ("{}", r"not a dosebench report \(KeyError: 'strata'\)"),
    ("[]", r"not a dosebench report \(TypeError"),
], ids=["missing", "not-json", "empty-object", "a-list"])
def test_compare_exits_with_a_message_on_a_file_that_is_not_a_report(
        content, message, tmp_path):
    good = tmp_path / "good.json"
    protocol = harness.EvalProtocol(cohorts=(Cohort.CHILD,),
                                    patients_per_cohort=1, seeds=(1,),
                                    repeats_per_seed=1)
    spec = harness.PolicySpec(kind="scripted", scripted_name="zero")
    harness.emit_report(harness.aggregate(harness.run_protocol(spec, protocol),
                                          protocol, policy_label="zero"),
                        good, "json")
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    with pytest.raises(SystemExit, match=f"^dosebench compare: .*{message}"):
        main(["compare", str(good), str(bad)])


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_eval_refuses_fewer_than_one_worker_before_the_run(workers, tmp_path):
    out = tmp_path / "runs"
    with pytest.raises(SystemExit, match="^dosebench eval llm: workers "
                                         f"must be at least 1, got {workers}"):
        main(["eval", "llm", "--workers", workers,
              "--base-url", "http://127.0.0.1:9", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("argv", [["scripted"], ["checkpoint", "ckpt.dnet"]],
                         ids=["scripted", "checkpoint"])
def test_eval_takes_workers_only_for_llm_runs(argv, tmp_path, capsys):
    # Their rounds wait on no server, so more threads could only slow them.
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", *argv, "--workers", "2", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not out.exists()


# A small budget, so that a config that is wrongly accepted trains quickly.
_SMALL = "epochs: 1\nsteps_per_epoch: 48\nwarm_start_steps: 48\nbatch_size: 32\n"


@pytest.mark.parametrize("algo, extra, rejected", [
    ("dqn", "learning_rate: 0.5\neps_test: 0.2\n", "eps_test, learning_rate"),
    ("dqn", "use_prior: true\nn_actions: 5\n", "n_actions, use_prior"),
    ("ppo", "transform: tanh\nd_max: 5.0\nvalue_clip: true\n"
            "conditioned_sigma: true\n",
     "conditioned_sigma, d_max, transform, value_clip"),
    ("ppo", "1: 2\n", "rejected: 1 "),
], ids=["unknown", "set-by-prior", "removed", "not-a-name"])
def test_train_rejects_config_keys_it_would_not_use(algo, extra, rejected,
                                                    tmp_path):
    # Unknown keys, and keys that --prior sets, stop the run before it starts.
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(_SMALL + extra)
    out = tmp_path / "runs"
    with pytest.raises(SystemExit, match=rejected):
        main(["train", "--algo", algo, "--env", "adult", "--seed", "1",
              "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory"),
    ("epochs: 2\n  steps_per_epoch: 48\n",
     "mapping values are not allowed here"),
    ("epochs: [2\n", "while parsing a flow sequence"),
    (b"epochs: \xff\n", "can't decode byte 0xff"),
], ids=["missing", "bad-indent", "unclosed", "not-utf-8"])
def test_train_exits_with_one_line_on_a_config_it_cannot_read(
        content, message, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    if isinstance(content, bytes):
        cfg.write_bytes(content)
    elif content is not None:
        cfg.write_text(content)
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--algo", "dqn", "--env", "adult", "--config", str(cfg),
              "--out", str(out)])
    text = str(exit_info.value.code)
    assert text.startswith(f"dosebench train: --config {cfg}: ")
    assert message in text
    assert "\n" not in text
    assert not out.exists()


def test_train_rejects_a_config_that_is_not_a_mapping(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("- epochs\n- 2\n")
    with pytest.raises(SystemExit, match="not a YAML mapping"):
        main(["train", "--algo", "dqn", "--env", "adult", "--config", str(cfg),
              "--out", str(tmp_path / "runs")])


@pytest.mark.parametrize("algo, config, rejected", [
    ("dqn", "epochs: 0\n", "integers: epochs$"),
    ("dqn", "steps_per_epoch: 48\nbatch_size: -1\n", "integers: batch_size$"),
    ("ppo", "epochs: 1\nsteps_per_epoch: -5\nsteps_per_collect: 0\n"
            "repeat_per_collect: 1.5\n",
     "integers: repeat_per_collect, steps_per_collect, steps_per_epoch$"),
], ids=["dqn-no-epochs", "dqn-negative-batch", "ppo-counts"])
def test_train_rejects_counts_that_are_not_positive(algo, config, rejected,
                                                    tmp_path):
    # A count of zero or less would train nothing, or crash after the run
    # directory exists; the run stops before it starts.
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config)
    out = tmp_path / "runs"
    with pytest.raises(SystemExit, match=rejected):
        main(["train", "--algo", algo, "--env", "adult", "--seed", "1",
              "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("algo, config, rejected", [
    ("dqn", "epochs: 1\nsteps_per_epoch: 48\nwarm_start_steps: -1\n",
     "integers: warm_start_steps$"),
    ("dqn", "epochs: 1\nsteps_per_epoch: 48\nreplay_capacity: 0\n",
     "integers: replay_capacity$"),
    ("ppo", "epochs: 1\nsteps_per_epoch: 48\nwarm_start_steps: -1\n",
     "integers: warm_start_steps$"),
], ids=["dqn-negative-warm-start", "dqn-empty-replay", "ppo-negative-warm-start"])
def test_train_rejects_warm_starts_and_replay_buffers_out_of_range(
        algo, config, rejected, tmp_path):
    # Training would make the run directory, then die in warm_start_fill
    # (ValueError) or at the first ReplayBuffer.add (IndexError).
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config)
    out = tmp_path / "runs"
    with pytest.raises(SystemExit, match=rejected):
        main(["train", "--algo", algo, "--env", "child", "--seed", "1",
              "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


def test_train_accepts_a_config_without_a_warm_start():
    config = _make_config(DqnConfig, {"warm_start_steps": 0})
    assert config.warm_start_steps == 0


@pytest.mark.parametrize("algo, extra, rejected", [
    ("dqn", "lr: 1e-3\n",
     r"finite numbers: lr \(YAML reads 1e-3 as a string; write 1.0e-3\)$"),
    ("ppo", "gamma: high\nclip_eps: .nan\nentropy_coef: true\n",
     "finite numbers: clip_eps, entropy_coef, gamma "),
    ("dqn", "eps_start: 1.5\neps_final: -0.1\n",
     r"eps_start must be in \[0, 1\]; eps_final must be in \[0, 1\]$"),
    ("ppo", "sigma_init: 0.0\ninit_scale: -1.0e-3\n",
     "sigma_init must be positive; init_scale must be non-negative$"),
    ("ppo", "hidden_sizes: [64, 0]\n",
     r"hidden_sizes must be a list of positive integers, got \[64, 0\]$"),
    ("dqn", "hidden_sizes: 64\n",
     "hidden_sizes must be a list of positive integers, got 64$"),
], ids=["string-lr", "ppo-not-numbers", "dqn-eps", "ppo-sigma-and-scale",
        "zero-width", "not-a-list"])
def test_train_rejects_real_values_it_cannot_train_with(algo, extra, rejected,
                                                        tmp_path):
    # Each died after the run directory existed: in adam_step, the warm-start
    # update, select_action, math.log or init_near_zero.
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(_SMALL + extra)
    out = tmp_path / "runs"
    with pytest.raises(SystemExit, match=f"^dosebench train: --config .*"
                                         f"{rejected}"):
        main(["train", "--algo", algo, "--env", "adult", "--seed", "1",
              "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


def test_train_accepts_whole_numbers_for_real_fields():
    config = _make_config(PpoConfig, {"lr": 1, "sigma_init": 2,
                                      "init_scale": 0, "hidden_sizes": [8]})
    assert (config.lr, config.sigma_init, config.init_scale,
            config.hidden_sizes) == (1, 2, 0, [8])


def test_train_refuses_a_negative_seed_before_the_run(tmp_path):
    out = tmp_path / "runs"
    with pytest.raises(SystemExit, match="^dosebench train: --seed must be "
                                         "non-negative, got -1$"):
        main(["train", "--algo", "dqn", "--env", "adult", "--seed", "-1",
              "--out", str(out)])
    assert not out.exists()


def _damage(path, fault):
    """Leave at path a checkpoint with the fault, or nothing."""
    if fault == "corrupt":
        nets.save_params(nets.init_standard([48, 8, 11], seed=0), path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 1
        path.write_bytes(bytes(data))
    elif fault == "sidecar-without-a-key":
        harness.save_ppo_checkpoint(make_policy(PpoConfig(), seed=0), path)
        sidecar = path.with_name(path.name + ".json")
        meta = json.loads(sidecar.read_text())
        del meta["log_sigma"]
        sidecar.write_text(json.dumps(meta))


@pytest.mark.parametrize("fault, message", [
    ("missing", "No such file or directory"),
    ("corrupt", r"ckpt.dnet: checkpoint CRC mismatch \(corrupted file\)$"),
    ("sidecar-without-a-key",
     r"ckpt.dnet.json: not a PPO side-car \(KeyError: 'log_sigma'\)$"),
], ids=["missing", "corrupt", "sidecar-without-a-key"])
def test_eval_checkpoint_exits_with_a_message_on_a_file_it_cannot_load(
        fault, message, tmp_path):
    path = tmp_path / "ckpt.dnet"
    _damage(path, fault)
    out = tmp_path / "runs"
    with pytest.raises(SystemExit,
                       match=f"^dosebench eval checkpoint: .*{message}"):
        main(["eval", "checkpoint", str(path), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory"),
    ("\n  \n", "script.txt has no reply"),
], ids=["missing", "blank"])
def test_mock_llm_exits_with_a_message_on_a_script_without_replies(
        content, message, tmp_path):
    script = tmp_path / "script.txt"
    if content is not None:
        script.write_text(content)
    with pytest.raises(SystemExit, match=f"^dosebench mock-llm: .*{message}"):
        main(["mock-llm", "--script", str(script)])


@pytest.mark.parametrize("port", ["-1", "70000"])
def test_mock_llm_exits_with_a_message_on_a_port_out_of_range(port, tmp_path):
    script = tmp_path / "script.txt"
    script.write_text("1.0\n")
    with pytest.raises(SystemExit,
                       match="^dosebench mock-llm: .*port must be 0-65535"):
        main(["mock-llm", "--script", str(script), "--port", port])


def test_runs_that_start_in_the_same_second_get_their_own_directories(
        tmp_path, monkeypatch):
    # Say checkpoint-005.dnet of two training runs, evaluated under their
    # default label, the file stem.
    class Frozen(datetime.datetime):
        @classmethod
        def now(cls, tz=None):
            return cls(2026, 1, 2, 3, 4, 5)

    monkeypatch.setattr(datetime, "datetime", Frozen)
    out = tmp_path / "runs"
    for _ in range(3):
        main(["eval", "scripted", "--label", "same", "--out", str(out)])
    runs = sorted(p.name for p in out.iterdir())
    assert runs == [runs[0], f"{runs[0]}-2", f"{runs[0]}-3"]
    assert all((out / run / "report.json").exists() for run in runs)


def test_eval_llm_rejects_a_nan_temperature_before_the_run(tmp_path):
    out = tmp_path / "runs"
    with pytest.raises(SystemExit, match="temperature must be finite"):
        main(["eval", "llm", "--temperature", "nan",
              "--base-url", "http://127.0.0.1:9", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("base_url, message", [
    (None, "dosebench eval llm: no base URL configured "
           r"\(set DOSEBENCH_LLM_BASE_URL\)"),
    ("ftp://example", "dosebench eval llm: base URL must be http://"),
], ids=["none", "ftp"])
def test_eval_llm_without_a_usable_server_stops_before_the_run(
        base_url, message, tmp_path, monkeypatch):
    # Otherwise every decision falls back to 0 U/h and the run still writes
    # a report under the model's name.
    monkeypatch.delenv("DOSEBENCH_LLM_BASE_URL", raising=False)
    out = tmp_path / "runs"
    argv = ["eval", "llm", "--out", str(out)]
    if base_url is not None:
        argv += ["--base-url", base_url]
    with pytest.raises(SystemExit, match=message):
        main(argv)
    assert not out.exists()


@pytest.mark.parametrize("name", ["constant:20", "constant:nan",
                                  "constant:abc"])
def test_eval_scripted_rejects_a_bad_dose_before_the_run(name, tmp_path):
    # 20 and nan used to run 240 failing episodes, then die on a report
    # with no strata; abc died with a bare ValueError.
    out = tmp_path / "runs"
    with pytest.raises(SystemExit, match="dosebench eval scripted: "
                                         f"'{name}': the dose must be"):
        main(["eval", "scripted", "--name", name, "--out", str(out)])
    assert not out.exists()


def test_eval_stops_when_every_episode_failed(tmp_path, monkeypatch):
    def broken(self, obs, env):
        raise RuntimeError("kaput")

    monkeypatch.setattr(harness.ScriptedPolicy, "act", broken)
    out = tmp_path / "runs"
    with pytest.raises(SystemExit, match="every episode failed.*kaput"):
        main(["eval", "scripted", "--name", "zero", "--out", str(out)])
    assert not out.exists()
