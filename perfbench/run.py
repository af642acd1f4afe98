"""dosebench benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload eval-dqn --seed 1 --seconds 30 --trace 0

Run from the root of a dosebench checkout; the program is imported from its
``src/``. With ``--trace 0`` the workload's operation repeats until
``--seconds`` would be exceeded and the end-to-end metrics are medians over
the repeats. With ``--trace 1`` the operation runs once untraced and once
with every layer in ``tracer.LAYERS`` wrapped, and the per-layer metrics come
from the traced run. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload is a single lane (``workers=1``), so the process and all its
threads run pinned to one CPU: handing a request between the client and the
in-process mock server then never wakes a second vCPU, whose wake-up latency
on a shared host would be measured instead of the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
WORKLOADS = ("eval-dqn", "train-dqn", "train-ppo", "eval-llm")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process (and the threads and children it starts) to one CPU.

    The highest allowed CPU is taken, as CPU 0 usually serves device interrupts.
    BLAS is held to one thread too, so that it never spins beside the program.
    Returns the CPU and how many CPUs the process was allowed before.
    """
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    return cpu, len(allowed)


def setup_seconds(args) -> list[float]:
    """Cold starts in fresh interpreters: imports plus the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float) -> list:
    """Repeat the operation while another one still fits in ``seconds``."""
    ops = []
    begin = time.perf_counter()
    while True:
        ops.append(workload.run_once())
        ops[-1].peak_rss_mb = peak_rss_mb()
        elapsed = time.perf_counter() - begin
        if elapsed * (len(ops) + 1) / len(ops) > seconds:
            return ops


def end_to_end(ops, setup) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(o.wall_s for o in ops), "s"),
        "env_steps_per_s": (statistics.median(o.env_steps / o.wall_s
                                              for o in ops), "1/s"),
        # Through the first operation: later repeats can reuse or add to what
        # the allocator kept, and how many repeats fit depends on speed.
        "peak_rss_mb": (ops[0].peak_rss_mb, "MB"),
    }


def per_layer(untraced, traced, tracer, summary) -> dict:
    from perfbench import stats
    from perfbench.tracer import LAYER_NAMES

    root_s = tracer.end[0] - tracer.start[0]
    metrics = {}
    for layer in LAYER_NAMES:
        calls, secs = summary.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (secs, "s")
    acts = summary.get("llm.llm_act", (0, 0.0))[0]
    sends = summary.get("llm.http_transport", (0, 0.0))[0]
    calls = untraced.call_ms
    metrics.update({
        "llm.attempts_per_act": (sends / acts if acts else 0.0, "ratio"),
        "llm.fallback_frac": (traced.fallbacks / traced.env_steps
                              if traced.call_ms else 0.0, "ratio"),
        "llm.prompt_chars_mean": (statistics.fmean(traced.prompt_chars)
                                  if traced.prompt_chars else 0.0, "chars"),
        "llm_call_p50_ms": (stats.percentile(calls, 50) if calls else 0.0, "ms"),
        "llm_call_p99_ms": (stats.percentile(calls, 99) if calls else 0.0, "ms"),
        "trace.overhead_s": (root_s - untraced.wall_s, "s"),
        "trace.overhead_frac": ((root_s - untraced.wall_s) / untraced.wall_s,
                                "ratio"),
    })
    if calls:
        n = len(calls)
        print(f"llm calls: p50 {metrics['llm_call_p50_ms'][0]:.3f} ms, "
              f"p99 {metrics['llm_call_p99_ms'][0]:.3f} ms, n={n}"
              + ("" if stats.supports(n, 99) else
                 f" (fewer than {stats.MIN_BEYOND} samples beyond p99)"))

    print(f"{'layer':32s} {'calls':>9s} {'self_s':>10s} {'share':>7s}")
    rows = sorted(summary.items(), key=lambda kv: -kv[1][1])
    for layer, (n, secs) in rows:
        print(f"{layer:32s} {n:9d} {secs:10.4f} {secs / root_s:7.1%}")
    print(f"traced wall {root_s:.3f} s, untraced {untraced.wall_s:.3f} s")
    if tracer.absent:
        print("absent: " + ", ".join(tracer.absent))
    return metrics


def machine_facts(nproc: int) -> dict:
    import numpy
    import requests

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dosebench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {"nproc": nproc,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "requests": requests.__version__,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "platform": platform.platform()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dosebench" / "__init__.py").is_file():
        print(f"perfbench: no dosebench sources at {SRC}", file=sys.stderr)
        return 2
    cpu, nproc = pin_to_one_cpu()
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads
    from perfbench.tracer import Tracer, traced_region

    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    if args.setup_probe:
        workloads.make(args.workload, args.seed, out_dir).close()
        return 0

    setup = [] if args.trace else setup_seconds(args)
    workload = workloads.make(args.workload, args.seed, out_dir)
    try:
        workload.warm_up()
        warm_rss = peak_rss_mb()
        if args.trace:
            untraced = workload.run_once()
            untraced.peak_rss_mb = peak_rss_mb()
            tracer = Tracer()
            traced = workload.run_once(
                lambda: traced_region(tracer, f"bench.{workload.name}"))
            traced.peak_rss_mb = peak_rss_mb()
            ops = [untraced, traced]
            summary = tracer.summary()
            steps = summary.get("env.step", (0, 0.0))[0]
            if steps != traced.env_steps:
                traced.problems.append(f"{steps} traced env.step calls, "
                                       f"{traced.env_steps} env steps counted")
            metrics = per_layer(untraced, traced, tracer, summary)
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.save(out_dir / "spans.npz")
        else:
            ops = measure(workload, args.seconds)
            metrics = end_to_end(ops, setup)
    finally:
        workload.close()

    problems = [p for o in ops for p in o.problems]
    if len({o.digest for o in ops}) > 1 or len({o.env_steps for o in ops}) > 1:
        problems.append("outputs differ between repeats")
    attempted = sum(o.attempted for o in ops)
    failed = attempted if problems else sum(o.failed for o in ops)
    if args.trace:
        metrics["failure_rate"] = (failed / attempted, "ratio")
    facts = machine_facts(nproc)
    facts["pinned_cpu"] = cpu
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": facts, "ops": len(ops),
        "wall_s": [o.wall_s for o in ops], "setup_s": setup,
        "peak_rss_mb_after": {"warm_up": warm_rss,
                              "ops": [o.peak_rss_mb for o in ops]},
        "env_steps": ops[0].env_steps, "digest": ops[0].digest,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, "
          f"{ops[0].env_steps} env steps each, digest {ops[0].digest}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not args.trace:
        for name, (value, unit) in metrics.items():
            n = len(setup) if name == "setup_s" else len(ops)
            print(f"{name:18s} {value:14.4f} {unit:6s} (n={n})")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
