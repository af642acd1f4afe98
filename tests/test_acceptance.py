"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test prints a single PASS/FAIL line (visible with -v or on failure)
naming the criterion it certifies. Training-based checks use the full
20 x 480-step budget; their independent trainings run in parallel processes.
"""

import math
import multiprocessing
import os
import zlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.integrate import quad

from dosebench import harness, metrics, nets
from dosebench.dqn import N_ACTIONS, DqnConfig, train_dqn, zero_biased_probs
from dosebench.env import OBS_DIM
from dosebench.llm import (LlmConfig, PromptKind, ScriptedMockServer,
                           clamp_action, llm_act, parse_cot)
from dosebench.patients import (Cohort, get_patient, make_cohort,
                                step_physiology)
from dosebench.ppo import (PpoConfig, gae, log_prob_tanh_z, train_ppo,
                           unsquash_tanh)

from _helpers import (apply_meal, correction_drop, log_prob_tanh_grad,
                      steady_state, train_in_worker)
from _oracles import gae_brute_force, risk_index_hp, risk_root_hp
from test_llm import FIXED_HISTORY


def _verdict(n, ok, detail):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_01_exploration_formula():
    p0 = zero_biased_probs(11)[0]
    ok = abs(p0 - 0.5690) <= 1e-4
    worst = 0.0
    for n in range(2, 102):
        probs = zero_biased_probs(n)
        worst = max(worst, abs(probs[0] / probs[1] - n * (n + 1) / (n - 1)))
    ok = ok and worst <= 1e-10
    _verdict(1, ok, f"p0(11)={p0:.6f}, max ratio deviation {worst:.2e}")


def test_criterion_02_risk_math_oracle():
    worst = 0.0
    for bg in range(41, 500):
        lbgi, hbgi = risk_index_hp(bg)
        got = metrics.risk_index(float(bg))
        worst = max(worst, abs(got.lbgi - float(lbgi)),
                    abs(got.hbgi - float(hbgi)))
    root = float(risk_root_hp())
    reward_at_root = metrics.step_reward(root, False)
    ok = (worst <= 1e-9 and 112.0 <= root <= 114.0
          and 0.999 <= reward_at_root <= 1.0)
    _verdict(2, ok, f"max |err| {worst:.2e}, root {root:.3f}, "
                    f"reward(root) {reward_at_root:.6f}")


def test_criterion_03_return_normalization():
    lo = metrics.normalized_return(-99.7)
    hi = metrics.normalized_return(64.0)
    root = float(risk_root_hp())
    pinned = metrics.normalized_return(
        sum(metrics.step_reward(root, False) for _ in range(64)))
    ok = abs(lo) < 1e-12 and abs(hi - 100.0) < 1e-12 and pinned >= 99.0
    _verdict(3, ok, f"-99.7 -> {lo}, 64 -> {hi}, pinned episode {pinned:.3f}")


def test_criterion_04_tanh_density():
    rng = np.random.default_rng(2024)
    worst_mass, worst_grad = 0.0, 0.0
    h = 1e-6
    for _ in range(20):
        mu = float(rng.uniform(-2, 2))
        sigma = float(rng.uniform(0.3, 1.5))
        mass, _ = quad(
            lambda a: math.exp(log_prob_tanh_z(unsquash_tanh(a), mu, sigma)),
            1e-9, 9 - 1e-9, limit=200)
        worst_mass = max(worst_mass, abs(mass - 1.0))
        a = float(rng.uniform(0.5, 8.5))
        d_mu, d_sigma = log_prob_tanh_grad(a, mu, sigma)
        z = unsquash_tanh(a)
        fd_mu = (log_prob_tanh_z(z, mu + h, sigma)
                 - log_prob_tanh_z(z, mu - h, sigma)) / (2 * h)
        fd_sigma = (log_prob_tanh_z(z, mu, sigma + h)
                    - log_prob_tanh_z(z, mu, sigma - h)) / (2 * h)
        scale = max(abs(fd_mu), abs(fd_sigma), 1.0)
        worst_grad = max(worst_grad, abs(d_mu - fd_mu) / scale,
                         abs(d_sigma - fd_sigma) / scale)
    ok = worst_mass <= 1e-3 and worst_grad < 1e-4
    _verdict(4, ok, f"max |mass-1| {worst_mass:.2e}, "
                    f"max grad rel err {worst_grad:.2e}")


def test_criterion_05_gae_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        t_len = int(rng.integers(1, 7))
        rewards = rng.normal(size=t_len)
        values = rng.normal(size=t_len)
        next_values = rng.normal(size=t_len)
        terminals = rng.random(t_len) < 0.3
        gamma = float(rng.uniform(0.8, 1.0))
        lam = float(rng.uniform(0.8, 1.0))
        adv, _ = gae(rewards, values, next_values, terminals, gamma, lam)
        o_adv, _ = gae_brute_force(rewards, values, next_values, terminals,
                                   gamma, lam)
        worst = max(worst, float(np.max(np.abs(adv - o_adv))))
    ok = worst <= 1e-10
    _verdict(5, ok, f"max |adv err| {worst:.2e} over 1000 instances")


def test_criterion_06_neural_gradients():
    from _oracles import finite_difference_grads, relative_error
    from test_nets import _random_net, _safe_input
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        net, sizes = _random_net(rng)
        # Inputs whose pre-activations avoid the ReLU kink, where central
        # differences are not a valid derivative estimate.
        x = _safe_input(net, rng)
        g_out = rng.normal(size=(3, sizes[-1]))

        def loss():
            out, _ = nets.forward(net, x)
            return float(np.sum(out * g_out))

        _, cache = nets.forward(net, x)
        grads = nets.backward(net, cache, g_out)
        numeric = finite_difference_grads(loss, [net.params])
        worst = max(worst, relative_error([grads], numeric))
    ok = worst < 1e-4
    _verdict(6, ok, f"max gradient rel err {worst:.2e} over 50 nets")


def test_criterion_07_simulator_calibration():
    drop = correction_drop(get_patient(Cohort.CHILD, 0), 164.0, 2.36,
                           horizon_min=180)
    ok = abs(drop - 59.0) <= 12.0

    # Volatility ordering with process noise, 20 seeds, patients cycling.
    orderings_ok = True
    for seed in range(20):
        stds = {}
        for cohort in Cohort:
            params = make_cohort(cohort)[seed % 4]
            rng = np.random.default_rng(
                [seed, zlib.crc32(cohort.value.encode()) & 0xFFFF])
            state = apply_meal(steady_state(params, g=140.0), 30.0)
            traj = [state.g]
            for _ in range(240):
                state = step_physiology(state, params, 0.0, 1.0, rng)
                traj.append(state.g)
            stds[cohort] = float(np.std(traj))
        orderings_ok = orderings_ok and (
            stds[Cohort.CHILD] > stds[Cohort.ADOLESCENT] > stds[Cohort.ADULT])
    ok = ok and orderings_ok
    _verdict(7, ok, f"2.36 U peak drop {drop:.1f} mg/dL, "
                    f"volatility ordering held on all 20 seeds: {orderings_ok}")


def _eval_policy_spec(spec, cohort, seeds=(1, 100, 1000, 10000), repeats=2):
    protocol = harness.EvalProtocol(cohorts=(cohort,), seeds=seeds,
                                    repeats_per_seed=repeats)
    rets = [metrics.normalized_return(rec.episode_return)
            for rec in harness.run_protocol(spec, protocol)]
    return float(np.mean(rets))


def _train_in_parallel(jobs, monkeypatch):
    """``train_in_worker(*job)`` for each job, in job order. The trainings
    are independent and seeded, so they run in fresh processes, one per CPU
    this process may use, each with one BLAS thread."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")   # read by each worker's numpy import
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(train_in_worker, *zip(*jobs)))


def test_criterion_08_training_smoke(tmp_path, monkeypatch):
    seeds = (1, 2, 3, 4)
    dqn_config = DqnConfig(use_prior=False)
    results = _train_in_parallel(
        [(train_dqn, "child", dqn_config, seed) for seed in seeds]
        + [(train_ppo, "child", PpoConfig(transform="tanh"), seed)
           for seed in seeds], monkeypatch)
    dqn_results, ppo_results = results[:len(seeds)], results[len(seeds):]

    dqn_scores = []
    sizes = [OBS_DIM, *dqn_config.hidden_sizes, N_ACTIONS]
    for seed, (_, params) in zip(seeds, dqn_results):
        path = tmp_path / f"dqn-seed{seed}.dnet"
        nets.save_params(nets.DenseNet(sizes, params), path)   # bit-exact
        spec = harness.PolicySpec(kind="dqn", checkpoint_path=str(path))
        dqn_scores.append(_eval_policy_spec(spec, Cohort.CHILD))
    baseline = _eval_policy_spec(
        harness.PolicySpec(kind="scripted",
                           scripted_name="warmstart-random"), Cohort.CHILD)
    margin = float(np.mean(dqn_scores)) - baseline

    ppo_finite = all(
        math.isfinite(row["actor_loss"]) and math.isfinite(row["value_loss"])
        for rows, _ in ppo_results for row in rows)
    ok = margin >= 10.0 and ppo_finite
    _verdict(8, ok, f"DQN mean {np.mean(dqn_scores):.1f} vs warm-start random "
                    f"{baseline:.1f} (margin {margin:+.1f}), "
                    f"PPO losses finite: {ppo_finite}")


def test_criterion_09_prior_injection_direction(monkeypatch):
    seeds = (1, 2, 3, 4)
    jobs = [(train_dqn, "adult", DqnConfig(use_prior=use_prior), seed)
            for use_prior in (False, True) for seed in seeds]
    early = {True: [], False: []}
    for (_, _, config, _), (rows, _) in zip(
            jobs, _train_in_parallel(jobs, monkeypatch)):
        early[config.use_prior].append(
            sum(row["hypo_terminations"] for row in rows[:5]))
    mean_with = float(np.mean(early[True]))
    mean_without = float(np.mean(early[False]))
    ok = mean_with < mean_without
    _verdict(9, ok, f"early hypo terminations: prior {mean_with:.1f} "
                    f"vs no prior {mean_without:.1f} (epochs 0-4, 4 seeds)")


def test_criterion_10_llm_pipeline(tmp_path):
    from test_llm import GOLDEN_DIR, render_prompt

    golden_ok = all(
        render_prompt(kind).encode()
        == (GOLDEN_DIR / f"prompt_{kind.value}.txt").read_bytes()
        for kind in PromptKind)

    parser_ok = (parse_cot("thinking... <ans>2.84</ans>") == 2.84
                 and clamp_action(130.67)[0] == 9.0)
    with ScriptedMockServer(["junk reply"]) as server:
        cfg = LlmConfig(base_url=server.base_url)
        action, ex = llm_act(FIXED_HISTORY, [], PromptKind.BASE_ZERO_SHOT, cfg,
                             transport=None)
        parser_ok = parser_ok and action == 0.0 and ex.attempts == 3

    with ScriptedMockServer(["1.0"]) as server:
        spec = harness.PolicySpec(
            kind="llm", llm_kind="base",
            llm_config=LlmConfig(base_url=server.base_url, workers=8),
            label="mock-llm")
        protocol = harness.EvalProtocol()
        records = harness.run_protocol(spec, protocol)
        report = harness.aggregate(records, protocol, policy_label="mock-llm")
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        harness.emit_report(report, p1, "json")
        harness.emit_report(
            harness.aggregate(records, protocol, policy_label="mock-llm"),
            p2, "json")
    run_ok = (len(records) == 240
              and all(r.error is None for r in records)
              and p1.read_bytes() == p2.read_bytes())
    ok = golden_ok and parser_ok and run_ok
    _verdict(10, ok, f"golden prompts {golden_ok}, parsers {parser_ok}, "
                     f"240-episode mock run byte-stable {run_ok}")


def test_criterion_11_metrics_protocol_arithmetic():
    spec = harness.PolicySpec(kind="scripted", scripted_name="constant:1.0")
    protocol = harness.EvalProtocol()
    records = harness.run_protocol(spec, protocol)
    count_ok = (len(records) == 240
                and len({(r.cohort, r.patient_id, r.seed, r.repeat)
                         for r in records}) == 240)
    summary = metrics.bootstrap_ci([3.25] * 50, resamples=1000, seed=0)
    degen_ok = summary.ci_low == summary.ci_high
    ok = count_ok and degen_ok
    _verdict(11, ok, f"records {len(records)}/240 unique, "
                     f"degenerate CI width "
                     f"{summary.ci_high - summary.ci_low:.1e}")
