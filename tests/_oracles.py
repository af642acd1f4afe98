"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in a different style from the library
code: high-precision arithmetic (mpmath), brute-force double loops, and
numerical quadrature / finite differences instead of closed forms. The
physiology reference, the history-based observation window, the unflushed
Adam step and the per-episode evaluation loop are the exception: each is the
code the package used before a faster form replaced it, kept verbatim so the
new form can be held to it bit for bit.
"""

import copy
import math

import mpmath
import numpy as np

from dosebench import nets
from dosebench.dqn import N_ACTIONS, bin_to_rate
from dosebench.env import (ACTION_HIGH, ACTION_LOW, WINDOW_STEPS, GlucoseEnv,
                           featurize, rollout)
from dosebench.harness import (EPS_TEST, EpisodeKey, EpisodeRecord,
                               EvalProtocol, episode_seed_sequence)
from dosebench.patients import PatientParams, PatientState

mpmath.mp.dps = 50


def risk_f_hp(bg):
    """High-precision transformed glucose."""
    bg = mpmath.mpf(bg)
    return mpmath.mpf("1.509") * (mpmath.log(bg) ** mpmath.mpf("1.084")
                                  - mpmath.mpf("5.381"))


def risk_index_hp(bg):
    """High-precision (lbgi, hbgi) pair."""
    f = risk_f_hp(bg)
    pen = 10 * f * f
    if f < 0:
        return pen, mpmath.mpf(0)
    if f > 0:
        return mpmath.mpf(0), pen
    return mpmath.mpf(0), mpmath.mpf(0)


def step_reward_hp(bg, terminated):
    lbgi, hbgi = risk_index_hp(bg)
    r = (100 - (lbgi + hbgi)) / 100
    if terminated:
        r -= 100
    return r


def risk_root_hp():
    """Glucose value where the transform crosses zero."""
    return mpmath.findroot(risk_f_hp, 113)


def gae_brute_force(rewards, values, next_values, terminals, gamma, lam):
    """Advantages as explicit discounted sums of TD errors.

    The sum for step t runs forward until (and including) the first terminal
    step at or after t.
    """
    t_len = len(rewards)
    deltas = [
        rewards[t]
        + gamma * next_values[t] * (0.0 if terminals[t] else 1.0)
        - values[t]
        for t in range(t_len)
    ]
    adv = np.zeros(t_len)
    for t in range(t_len):
        total = 0.0
        for k in range(t, t_len):
            total += (gamma * lam) ** (k - t) * deltas[k]
            if terminals[k]:
                break
        adv[t] = total
    return adv, adv + np.asarray(values, dtype=float)


def finite_difference_grads(loss_fn, arrays, h=1e-6):
    """Central finite differences of loss_fn w.r.t. a list of arrays."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            hi = loss_fn()
            arr[idx] = orig - h
            lo = loss_fn()
            arr[idx] = orig
            g[idx] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def relative_error(analytic, numeric):
    a = np.concatenate([np.asarray(g, dtype=float).ravel() for g in analytic])
    b = np.concatenate([np.asarray(g, dtype=float).ravel() for g in numeric])
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def _derivs(s, p: PatientParams, rate: float):
    g, s1, s2, x, q = s
    plasma_insulin = s2 / (p.tau_sc * p.v_i)
    ra = 1000.0 * p.f_bio * p.k_abs * q / p.v_g
    return (
        -p.p1 * (g - p.g_b) - x * g + ra,
        rate / 60.0 - s1 / p.tau_sc,
        (s1 - s2) / p.tau_sc,
        -p.p2 * x + p.p2 * p.s_i * plasma_insulin,
        -p.k_abs * q,
    )


def step_physiology(state: PatientState, params: PatientParams, rate: float,
                    dt: float, noise_stream: np.random.Generator | None = None
                    ) -> PatientState:
    """One RK4 step of the surrogate dynamics plus optional process noise.

    dt is in minutes, rate in U/h held constant over the step. Non-negativity
    is restored by flooring; glucose is floored at a small positive value so
    downstream logs stay defined.
    """
    if not (0 < dt <= 15):
        raise ValueError("dt must lie in (0, 15] minutes")
    if rate < 0 or not math.isfinite(rate):
        raise ValueError("infusion rate must be finite and non-negative")
    state.check_finite()

    y0 = (state.g, state.s1, state.s2, state.x, state.q_gut)
    k1 = _derivs(y0, params, rate)
    k2 = _derivs(tuple(y + 0.5 * dt * k for y, k in zip(y0, k1)), params, rate)
    k3 = _derivs(tuple(y + 0.5 * dt * k for y, k in zip(y0, k2)), params, rate)
    k4 = _derivs(tuple(y + dt * k for y, k in zip(y0, k3)), params, rate)
    y1 = [y + dt / 6.0 * (a + 2 * b + 2 * c + d)
          for y, a, b, c, d in zip(y0, k1, k2, k3, k4)]

    g, s1, s2, x, q = y1
    if noise_stream is not None and params.noise_sigma > 0:
        g += params.noise_sigma * math.sqrt(dt) * noise_stream.standard_normal()

    new = PatientState(
        g=max(g, 1.0),
        s1=max(s1, 0.0),
        s2=max(s2, 0.0),
        x=max(x, 0.0),
        q_gut=max(q, 0.0),
        t_elapsed=state.t_elapsed + dt,
        clock=state.clock,  # clock advances per control interval, not here
    )
    new.check_finite()
    return new


def observation_from_history(history) -> np.ndarray:
    """The observation rebuilt from a whole history: the trailing 16-step
    window of (sensor glucose, rate, dose) triples as OBS_DIM floats,
    chronological, most recent last.

    Padded rows before episode start replicate the initial sensor glucose with
    zero insulin. Every call returns a new array.
    """
    if not history:
        raise ValueError("history must contain at least one measurement")
    first = history[0]
    values = [first.bg_sensor, 0.0, 0.0] * (WINDOW_STEPS - len(history))
    for rec in history[-WINDOW_STEPS:]:
        values += (rec.bg_sensor, rec.rate, rec.dose)
    return np.array(values, dtype=np.float64)


def adam_step_unflushed(net, grads, opt):
    """Bias-corrected Adam with no subnormal flush, as plain expressions."""
    opt.step += 1
    b1c = 1.0 - nets._BETA1 ** opt.step
    b2c = 1.0 - nets._BETA2 ** opt.step
    opt.m *= nets._BETA1
    opt.m += (1 - nets._BETA1) * grads
    opt.v *= nets._BETA2
    opt.v += (1 - nets._BETA2) * grads * grads
    net.params -= opt.learning_rate * (opt.m / b1c) \
        / (np.sqrt(opt.v / b2c) + nets._EPSILON)


# The per-episode evaluation loop that lock-step evaluation replaced: each
# episode runs to its end before the next starts, through its own shallow
# copy of a policy that acts on one observation. PpoEvalPolicy.act inlines
# the one-row ``PpoPolicy.mean_action`` it called, and run_protocol takes a
# resolved policy and runs serially.

class Policy:
    """Per-episode decision policy. Subclasses override act()."""

    def reset(self, rng: np.random.Generator):
        """Start an episode; ``rng`` is its policy stream."""
        self._rng = rng

    def act(self, obs, env: GlucoseEnv) -> float:
        """The basal rate (U/h) for observation ``obs`` of ``env``."""
        raise NotImplementedError


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

    def act(self, obs, env):
        if self._dose is not None:
            return self._dose
        return bin_to_rate(int(self._rng.integers(0, 3)))


class DqnPolicy(Policy):
    def __init__(self, qnet: nets.DenseNet):
        self.qnet = qnet

    def act(self, obs, env):
        if self._rng.random() < EPS_TEST:
            return bin_to_rate(int(self._rng.integers(0, N_ACTIONS)))
        q, _ = nets.forward(self.qnet, featurize(obs))
        return bin_to_rate(int(np.argmax(q)))


class PpoEvalPolicy(Policy):
    """Deterministic PPO evaluation: transformed mean action."""

    def __init__(self, ppo_policy):
        self.policy = ppo_policy

    def act(self, obs, env):
        return self.policy.to_action(
            self.policy._mean_logit(featurize(obs)))


class LlmPolicy(Policy):
    """A ``transport`` of None sends each request with ``http_transport``.
    Every decision serializes its history afresh."""

    def __init__(self, kind, config, transport):
        from dosebench.llm import PromptKind
        self.kind = PromptKind(kind)
        self.config = config
        self.transport = transport

    def act(self, obs, env):
        from dosebench.llm import llm_act
        action, _ = llm_act(env.history, [], self.kind, self.config,
                            transport=self.transport)
        return action


def run_episode(policy: Policy, key: EpisodeKey) -> EpisodeRecord:
    env_ss, policy_ss = episode_seed_sequence(key.seed, key.repeat).spawn(2)
    policy.reset(np.random.default_rng(policy_ss))

    def act(obs, env):
        rate = float(policy.act(obs, env))
        return rate, rate

    env = GlucoseEnv(key.cohort, key.patient_id)
    for _, _, res, _ in rollout([env], act, lambda: env_ss):
        if res.terminated or res.truncated:
            break
    history = env.history
    return EpisodeRecord(key=key,
                         bg=[rec.bg_true for rec in history],
                         actions=[rec.rate for rec in history[:-1]],
                         rewards=[rec.reward for rec in history[1:]],
                         termination_cause=env.termination_cause,
                         truncated=res.truncated)


def run_protocol(policy: Policy,
                 protocol: EvalProtocol) -> list[EpisodeRecord]:
    """All protocol episodes. Per-episode failures are recorded, not fatal."""
    keys = [EpisodeKey(cohort.value, pid, seed, repeat)
            for cohort in protocol.cohorts
            for pid in range(protocol.patients_per_cohort)
            for seed in protocol.seeds
            for repeat in range(protocol.repeats_per_seed)]

    def one(key):
        try:
            return run_episode(copy.copy(policy), key)
        except Exception as exc:  # noqa: BLE001 - recorded per episode
            return EpisodeRecord(key=key, bg=[], actions=[], rewards=[],
                                 termination_cause=None, truncated=False,
                                 error=f"{type(exc).__name__}: {exc}")

    return [one(key) for key in keys]
