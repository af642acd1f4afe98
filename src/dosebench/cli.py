"""Command-line entry point: train, eval, compare, mock-llm."""

from __future__ import annotations

import argparse
import datetime
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

from . import harness, nets
from .patients import Cohort


def _run_dir(base: str, tag: str) -> Path:
    """A new directory named by the second and a digest of tag; a run that
    finds the name taken adds -2, -3, ... rather than share it."""
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    name = f"{stamp}-{hashlib.sha256(tag.encode()).hexdigest()[:8]}"
    path = Path(base) / name
    for n in itertools.count(2):
        try:
            path.mkdir(parents=True)
        except FileExistsError:
            path = Path(base) / f"{name}-{n}"
        else:
            return path


def _load_config(path):
    import yaml
    if path is None:
        return {}
    try:
        with open(path) as fh:
            overrides = yaml.safe_load(fh) or {}
        if not isinstance(overrides, dict):
            raise ValueError("not a YAML mapping of config fields")
    except (OSError, ValueError, yaml.YAMLError) as exc:
        # A YAML error names where, then what, over several lines.
        raise SystemExit(f"dosebench train: --config {path}: "
                         f"{' '.join(str(exc).split())}") from exc
    return overrides


# Config fields that must be integers, with the least value each may take.
_COUNTS = {"epochs": 1, "steps_per_epoch": 1, "batch_size": 1,
           "steps_per_collect": 1, "repeat_per_collect": 1,
           "replay_capacity": 1, "warm_start_steps": 0}

# Real-valued config fields that training refuses outside a range: the
# exploration rates (select_action), PPO's initial sigma (its log is taken)
# and the actor's init scale (init_near_zero).
_RANGES = {"eps_start": (lambda x: 0 <= x <= 1, "in [0, 1]"),
           "eps_final": (lambda x: 0 <= x <= 1, "in [0, 1]"),
           "sigma_init": (lambda x: x > 0, "positive"),
           "init_scale": (lambda x: x >= 0, "non-negative")}


def _make_config(cls, overrides: dict, **from_flags):
    """``cls(**from_flags, **overrides)``; exits naming every override key
    that is not a field of ``cls``, that a flag sets, a count below its
    least value, a real-valued field that is not a finite number or lies
    outside its range, or hidden sizes that are not positive integers."""
    rejected = sorted(map(str, set(overrides) - (set(cls.__dataclass_fields__)
                                                 - set(from_flags))))
    if rejected:
        raise SystemExit(f"dosebench train: --config keys rejected: "
                         f"{', '.join(rejected)} (keys must be {cls.__name__} "
                         f"fields that --prior does not set)")
    bad = sorted(key for key, least in _COUNTS.items() if key in overrides
                 and not (type(overrides[key]) is int
                          and overrides[key] >= least))
    if bad:
        raise SystemExit(f"dosebench train: --config counts must be positive "
                         f"(warm_start_steps: non-negative) integers: "
                         f"{', '.join(bad)}")
    fields = cls.__dataclass_fields__
    bad = sorted(key for key, value in overrides.items()
                 if type(fields[key].default) is float
                 and not (type(value) is int or type(value) is float
                          and math.isfinite(value)))
    if bad:
        raise SystemExit(f"dosebench train: --config values must be finite "
                         f"numbers: {', '.join(bad)} (YAML reads 1e-3 as a "
                         f"string; write 1.0e-3)")
    bad = [f"{key} must be {what}" for key, (ok, what) in _RANGES.items()
           if key in overrides and not ok(overrides[key])]
    if bad:
        raise SystemExit(f"dosebench train: --config {'; '.join(bad)}")
    sizes = overrides.get("hidden_sizes", [])
    if not (type(sizes) is list
            and all(type(n) is int and n >= 1 for n in sizes)):
        raise SystemExit(f"dosebench train: --config hidden_sizes must be a "
                         f"list of positive integers, got {sizes!r}")
    return cls(**from_flags, **overrides)


def cmd_train(args):
    if args.seed < 0:
        raise SystemExit(f"dosebench train: --seed must be non-negative, "
                         f"got {args.seed}")
    overrides = _load_config(args.config)
    if args.algo == "dqn":
        from .dqn import DqnConfig, train_dqn
        config = _make_config(DqnConfig, overrides,
                              use_prior=args.prior == "on")
        train, save = train_dqn, nets.save_params
    else:
        from .ppo import PpoConfig, train_ppo
        config = _make_config(PpoConfig, overrides,
                              transform="tanh" if args.prior == "on" else "clip")
        train, save = train_ppo, harness.save_ppo_checkpoint
    run = _run_dir(args.out, f"{args.algo}-{args.env}-{args.prior}-{args.seed}")
    result = train(args.env, config, args.seed)
    for epoch, snapshot in result.checkpoints:
        save(snapshot, run / f"checkpoint-{epoch:03d}.dnet")
    log_rows = [vars(entry) for entry in result.log]
    with open(run / "training_log.json", "w") as fh:
        json.dump(log_rows, fh, indent=2, sort_keys=True)
    try:
        best = harness.select_best_checkpoint(result.log)
    except ValueError:
        best = result.log[-1].epoch  # no finished episode yet: keep latest
    with open(run / "best_checkpoint.txt", "w") as fh:
        fh.write(f"{best}\n")
    print(f"run dir: {run}")
    print(f"best checkpoint (training return): epoch {best}")


def cmd_eval(args):
    protocol = harness.EvalProtocol()
    if args.policy == "checkpoint":
        kind = "ppo" if Path(str(args.path) + ".json").exists() else "dqn"
        spec = harness.PolicySpec(kind=kind, checkpoint_path=args.path,
                                  label=args.label or Path(args.path).stem)
    elif args.policy == "llm":
        from .llm import LlmConfig
        try:
            config = LlmConfig(base_url=args.base_url or "",
                               model_name=args.model,
                               temperature=args.temperature,
                               workers=args.workers)
        except ValueError as exc:
            raise SystemExit(f"dosebench eval llm: {exc}") from exc
        spec = harness.PolicySpec(
            kind="llm", llm_kind=args.kind, llm_config=config,
            label=args.label or f"llm-{args.model}-{args.kind}")
    else:
        spec = harness.PolicySpec(kind="scripted", scripted_name=args.name,
                                  label=args.label or f"scripted-{args.name}")
    try:
        records = harness.run_protocol(spec, protocol)
    except (OSError, ValueError, nets.CheckpointError) as exc:
        # An unknown scripted dose, an unreadable checkpoint, a bad URL.
        raise SystemExit(f"dosebench eval {args.policy}: {exc}") from exc
    if all(r.error is not None for r in records):
        raise SystemExit(f"dosebench eval {args.policy}: every episode "
                         f"failed; the first with: {records[0].error}")
    report = harness.aggregate(records, protocol, policy_label=spec.label)
    run = _run_dir(args.out, spec.label)
    harness.emit_report(report, run / "report.json", "json")
    harness.emit_report(report, run / "report.csv", "csv")
    overall = report.strata["overall"]
    print(f"run dir: {run}")
    for name, summary in overall.items():
        print(f"{name}: {summary.mean:.2f} "
              f"[{summary.ci_low:.2f}, {summary.ci_high:.2f}]")


def cmd_compare(args):
    try:
        reports = [harness.load_report(p) for p in args.reports]
        table = harness.compare_policies(reports)
    except (OSError, ValueError) as exc:
        # An unreadable report, one report, or protocol hashes that differ.
        raise SystemExit(f"dosebench compare: {exc}") from exc
    print(json.dumps(table, indent=2, sort_keys=True))


def cmd_mock_llm(args):
    from .llm import ScriptedMockServer
    try:
        with open(args.script) as fh:
            script = [line.rstrip("\n") for line in fh if line.strip()]
        if not script:
            raise ValueError(f"{args.script} has no reply (one per line)")
        server = ScriptedMockServer(script, port=args.port).start()
    except (OSError, ValueError, OverflowError) as exc:  # bad script or port
        raise SystemExit(f"dosebench mock-llm: {exc}") from exc
    print(f"mock chat-completions server on {server.base_url} "
          f"({len(script)} scripted replies, cycling)")
    try:
        import time
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        server.stop()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dosebench",
        description="Insulin-dosing benchmark: simulator, RL agents, "
                    "LLM policies, evaluation protocol.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a DQN or PPO agent")
    p_train.add_argument("--algo", choices=["dqn", "ppo"], required=True)
    p_train.add_argument("--env", required=True,
                         choices=[c.value for c in Cohort] + ["mixed"])
    p_train.add_argument("--prior", choices=["on", "off"], default="off")
    p_train.add_argument("--seed", type=int, default=1)
    p_train.add_argument("--config", default=None,
                         help="YAML overrides for the algorithm config; keys "
                              "must be config fields not set by --prior")
    p_train.add_argument("--out", default="runs")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="run the 240-episode protocol")
    eval_sub = p_eval.add_subparsers(dest="policy", required=True)
    p_ck = eval_sub.add_parser("checkpoint")
    p_ck.add_argument("path")
    p_llm = eval_sub.add_parser("llm")
    p_llm.add_argument("--kind", default="base",
                       choices=["base", "prior", "cot", "meal-cot"])
    p_llm.add_argument("--model", default="qwen2.5-7b-instruct")
    p_llm.add_argument("--temperature", type=float, default=0.7)
    p_llm.add_argument("--base-url", default=None)
    p_llm.add_argument("--workers", type=int, default=1)
    p_sc = eval_sub.add_parser("scripted")
    p_sc.add_argument("--name", default="zero")
    for sp in (p_ck, p_llm, p_sc):
        sp.add_argument("--label", default=None)
        sp.add_argument("--out", default="runs")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="compare emitted reports")
    p_cmp.add_argument("reports", nargs="+")
    p_cmp.set_defaults(func=cmd_compare)

    p_mock = sub.add_parser("mock-llm", help="serve scripted replies")
    p_mock.add_argument("--script", required=True,
                        help="text file, one reply per line")
    p_mock.add_argument("--port", type=int, default=0)
    p_mock.set_defaults(func=cmd_mock_llm)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
