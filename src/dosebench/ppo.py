"""PPO with clipped surrogate, GAE, and two action transforms.

The actor's one output is the mean logit; log sigma is one state-independent
parameter. Advantages are normalised per update and the value loss is the
unclipped squared error. The tanh transform squashes an unbounded Gaussian
logit into the open dose range (0, ACTION_HIGH) with the exact
change-of-variables log-density; the hard clip transform keeps the naive
unsquashed Gaussian density on purpose, reproducing the common (theoretically
inconsistent) baseline. Gradients are computed by hand and pushed through the
dense-net backward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from . import nets
from .dqn import TrainResult
from .env import (ACTION_HIGH, OBS_DIM, EpisodeTally, GlucoseEnv, cohort_envs,
                  featurize, rollout, row_stacked, seeds_from)

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_SIGMA_MIN, _LOG_SIGMA_MAX = -5.0, 2.0


class PpoUpdateError(RuntimeError):
    """Non-finite loss encountered during an update."""


@dataclass
class PpoConfig:
    steps_per_collect: int = 192
    repeat_per_collect: int = 20
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.1
    value_coef: float = 0.5
    entropy_coef: float = 0.001
    lr: float = 1e-3
    batch_size: int = 128
    transform: str = "tanh"          # "tanh" (prior) or "clip" (no prior)
    hidden_sizes: tuple[int, ...] = (64, 64)
    init_scale: float = 1e-3
    sigma_init: float = 0.5
    warm_start_steps: int = 192
    epochs: int = 20
    steps_per_epoch: int = 480


def squash_tanh(z: float) -> float:
    """Map an unbounded logit into the open dose range (0, ACTION_HIGH)."""
    return ACTION_HIGH / 2.0 * (math.tanh(z) + 1.0)


def unsquash_tanh(a: float) -> float:
    if not (0 < a < ACTION_HIGH):
        raise ValueError(f"action must lie in (0, {ACTION_HIGH}), got {a!r}")
    return math.atanh(2.0 * a / ACTION_HIGH - 1.0)


def act_clip(z: float) -> float:
    """Hard-clip transform: saturates at the dose bounds."""
    return ACTION_HIGH / 2.0 * (min(max(z, -1.0), 1.0) + 1.0)


def _log_sech2(z):
    """log(1 - tanh(z)^2), stable for large |z|."""
    z = np.abs(z)
    return 2.0 * (math.log(2.0) - z - np.log1p(np.exp(-2.0 * z)))


def _gauss_logpdf(z, mu, sigma):
    return -0.5 * ((z - mu) / sigma) ** 2 - np.log(sigma) - 0.5 * _LOG_2PI


def log_prob_tanh_z(z, mu, sigma):
    """Exact log-density of the squashed-Gaussian action squash_tanh(z),
    expressed in logit space (numerically stable)."""
    return _gauss_logpdf(z, mu, sigma) - (math.log(ACTION_HIGH / 2.0)
                                       + _log_sech2(z))


def log_prob_clip(z, mu, sigma):
    """Naive Gaussian density of the raw logit (clip baseline, on purpose)."""
    return _gauss_logpdf(z, mu, sigma)


def gae(rewards, values, next_values, terminals, gamma: float, lam: float):
    """Recursive GAE; returns (advantages, returns-to-go).

    `next_values[t]` is the critic's bootstrap at s_{t+1} (already 0 for
    terminated steps is not required: terminals masks it). Episode ends
    (terminated or truncated) must be marked in `terminals` so the advantage
    recursion does not leak across boundaries; truncated tails bootstrap via
    next_values.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    next_values = np.asarray(next_values, dtype=float)
    terminals = np.asarray(terminals, dtype=bool)
    if not (len(rewards) == len(values) == len(next_values) == len(terminals)):
        raise ValueError("gae inputs must have equal lengths")
    t_len = len(rewards)
    adv = np.zeros(t_len)
    running = 0.0
    for t in reversed(range(t_len)):
        not_term = 0.0 if terminals[t] else 1.0
        delta = rewards[t] + gamma * next_values[t] * not_term - values[t]
        running = delta + gamma * lam * not_term * running
        adv[t] = running
    return adv, adv + values


@dataclass
class PpoPolicy:
    actor: nets.DenseNet             # one output: the mean logit
    log_sigma: np.ndarray            # scalar, the same for every state
    transform: str
    mu_offset: float

    def heads(self, feats):
        """(mu, log_sigma) per row of a batch plus the actor forward cache."""
        out, cache = nets.forward(self.actor, feats)
        mu = out[:, 0] + self.mu_offset
        return mu, np.full(len(mu), self._clipped_log_sigma()), cache

    def _clipped_log_sigma(self) -> float:
        return min(max(float(self.log_sigma), _LOG_SIGMA_MIN), _LOG_SIGMA_MAX)

    def _mean_logit(self, feats) -> float:
        """mu of one observation, as heads computes it for a row."""
        out, _ = nets.forward(self.actor, feats)
        return float(out[0]) + self.mu_offset

    def to_action(self, z: float) -> float:
        if self.transform == "tanh":
            return squash_tanh(z)
        return act_clip(z)

    def log_prob_z(self, z, mu, sigma):
        if self.transform == "tanh":
            return log_prob_tanh_z(z, mu, sigma)
        return log_prob_clip(z, mu, sigma)

    def sample(self, feats, rng: np.random.Generator):
        """One observation's (logit, dose, log-prob): heads' operations on
        scalars, with no one-element arrays."""
        mu = self._mean_logit(feats)
        sigma = np.exp(self._clipped_log_sigma())
        z = float(mu + sigma * rng.standard_normal())
        logp = float(self.log_prob_z(z, mu, sigma))
        return z, self.to_action(z), logp

    def mean_actions(self, feats) -> list[float]:
        """The transformed mean action of each row of a row-stacked
        (L, 1, OBS_DIM) batch, each row's mu as sample computes it."""
        out, _ = nets.forward(self.actor, feats)
        return [self.to_action(mu + self.mu_offset)
                for mu in out[:, 0, 0].tolist()]


def default_mu_offset(transform: str) -> float:
    """Logit offset making the fresh tanh actor start near 0.5 U/h.

    The literal near-zero init maps to mid-range under tanh; the offset keeps
    initial doses conservative instead. Clip keeps the literal architecture.
    """
    if transform == "tanh":
        return unsquash_tanh(0.5)
    return 0.0


def make_policy(config: PpoConfig, seed: int) -> PpoPolicy:
    actor = nets.init_near_zero([OBS_DIM, *config.hidden_sizes, 1],
                                scale=config.init_scale, seed=seed)
    return PpoPolicy(actor=actor,
                     log_sigma=np.array(math.log(config.sigma_init)),
                     transform=config.transform,
                     mu_offset=default_mu_offset(config.transform))


class RolloutBuffer:
    """Chronological on-policy transitions for one or more collects."""

    def __init__(self):
        self.obs, self.z = [], []
        self.log_probs, self.rewards = [], []
        self.values, self.next_values = [], []
        self.terminals = []

    def __len__(self):
        return len(self.obs)

    def add(self, obs, z, log_prob, reward, value, next_value, terminal):
        self.obs.append(np.asarray(obs, dtype=float))
        self.z.append(z)
        self.log_probs.append(log_prob)
        self.rewards.append(reward)
        self.values.append(value)
        self.next_values.append(next_value)
        self.terminals.append(terminal)

    def arrays(self):
        return (np.stack(self.obs), np.asarray(self.z),
                np.asarray(self.log_probs), np.asarray(self.rewards),
                np.asarray(self.values), np.asarray(self.next_values),
                np.asarray(self.terminals, dtype=bool))


def warm_start_ppo(buffer: RolloutBuffer, env: GlucoseEnv, steps: int,
                   rng: np.random.Generator, transform: str) -> RolloutBuffer:
    """Fill a rollout with uniform actions on [0, 2] U/h.

    Behaviour log-prob is the uniform density log(1/2); logits are recovered
    through the inverse transform so later updates can evaluate the new
    policy on them.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    behaviour_logp = math.log(1.0 / 2.0)

    def act(obs, env):
        a = float(rng.uniform(0.0, 2.0))
        if transform == "tanh":
            z = math.atanh(np.clip(2.0 * a / ACTION_HIGH - 1.0,
                                   -1 + 1e-9, 1 - 1e-9))
        else:
            z = 2.0 * a / ACTION_HIGH - 1.0
        return z, a

    for obs, z, res, _ in islice(rollout([env], act, seeds_from(rng)), steps):
        buffer.add(obs, z, behaviour_logp, res.reward, 0.0, 0.0,
                   res.terminated or res.truncated)
    return buffer


def ppo_update(policy: PpoPolicy, value_net: nets.DenseNet,
               rollout: RolloutBuffer, config: PpoConfig,
               actor_opt: nets.OptimizerState, critic_opt: nets.OptimizerState,
               rng: np.random.Generator) -> dict:
    """Minibatch PPO update over `repeat_per_collect` passes.

    Returns mean losses. Raises PpoUpdateError on non-finite losses.
    """
    obs, z, logp_old, rewards, values, next_values, terminals = \
        rollout.arrays()
    feats = featurize(obs)
    adv, returns = gae(rewards, values, next_values, terminals,
                       config.gamma, config.gae_lambda)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    n = len(obs)
    stats = {"actor_loss": [], "value_loss": [], "entropy": []}
    for _ in range(config.repeat_per_collect):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            f = feats[idx]
            mu, log_sigma, cache = policy.heads(f)
            sigma = np.exp(log_sigma)
            logp = policy.log_prob_z(z[idx], mu, sigma)
            ratio = np.exp(logp - logp_old[idx])
            a_batch = adv[idx]
            surr1 = ratio * a_batch
            surr2 = np.clip(ratio, 1 - config.clip_eps, 1 + config.clip_eps) \
                * a_batch
            entropy = log_sigma + 0.5 * (1.0 + _LOG_2PI)
            actor_loss = float(-np.minimum(surr1, surr2).mean()
                               - config.entropy_coef * entropy.mean())
            if not math.isfinite(actor_loss):
                raise PpoUpdateError(
                    f"non-finite actor loss (ratio range "
                    f"[{ratio.min():.3g}, {ratio.max():.3g}])")

            # Gradient flows through the unclipped branch only where it is
            # the active minimum; the clipped branch is flat in theta.
            active = surr1 <= surr2
            m = len(idx)
            d_logp = np.where(active, -a_batch * ratio, 0.0) / m
            d_mu = d_logp * (z[idx] - mu) / sigma ** 2
            d_log_sigma = d_logp * (((z[idx] - mu) / sigma) ** 2 - 1.0) \
                - config.entropy_coef / m
            grads = nets.backward(policy.actor, cache, d_mu[:, None])
            nets.adam_step(policy.actor, grads, actor_opt)
            policy.log_sigma = np.clip(
                policy.log_sigma - actor_opt.learning_rate
                * float(d_log_sigma.sum()),
                _LOG_SIGMA_MIN, _LOG_SIGMA_MAX)

            v_pred, v_cache = nets.forward(value_net, f)
            err = v_pred[:, 0] - returns[idx]
            value_loss = float((err ** 2).mean())
            d_v = 2 * err / m
            if not math.isfinite(value_loss):
                raise PpoUpdateError("non-finite value loss")
            v_grad_out = (config.value_coef * d_v)[:, None]
            v_grads = nets.backward(value_net, v_cache, v_grad_out)
            nets.adam_step(value_net, v_grads, critic_opt)

            stats["actor_loss"].append(actor_loss)
            stats["value_loss"].append(value_loss)
            stats["entropy"].append(float(entropy.mean()))
    return {k: float(np.mean(v)) for k, v in stats.items()}


@dataclass
class PpoEpochLog:
    epoch: int
    train_return: float
    episodes: int
    hypo_terminations: int
    hyper_terminations: int
    actor_loss: float
    value_loss: float


def _critic_values(value_net: nets.DenseNet, observations) -> list[float]:
    """The critic's value of each observation, from one row-stacked forward."""
    out, _ = nets.forward(value_net, row_stacked(observations))
    return out[:, 0, 0].tolist()


def train_ppo(env_group: str, config: PpoConfig, seed: int) -> TrainResult:
    """Collect/update cycles with checkpoints at 480-env-step epochs."""
    root = np.random.SeedSequence([seed, 0xBB0])
    actor_ss, critic_ss, warm_ss, samp_ss, ep_ss, shuf_ss = root.spawn(6)
    policy = make_policy(config, seed=int(actor_ss.generate_state(1)[0]))
    value_net = nets.init_standard([OBS_DIM, *config.hidden_sizes, 1],
                                   seed=int(critic_ss.generate_state(1)[0]))
    actor_opt = nets.make_optimizer(policy.actor, learning_rate=config.lr)
    critic_opt = nets.make_optimizer(value_net, learning_rate=config.lr)
    rng_sample = np.random.default_rng(samp_ss)
    rng_shuffle = np.random.default_rng(shuf_ss)
    envs = cohort_envs(env_group)

    # Warm start: one off-policy update on conservative uniform-[0,2] doses.
    warm = RolloutBuffer()
    warm_start_ppo(warm, envs[0], config.warm_start_steps,
                   np.random.default_rng(warm_ss), transform=config.transform)
    if len(warm):
        ppo_update(policy, value_net, warm, config, actor_opt, critic_opt,
                   rng_shuffle)

    def act(obs, env):
        z, a, logp = policy.sample(featurize(obs), rng_sample)
        return (z, logp), a

    steps = rollout(envs, act, seeds_from(np.random.default_rng(ep_ss)))
    tally = EpisodeTally()
    total_steps = 0
    checkpoints, log = [], []
    next_epoch_at = config.steps_per_epoch
    epoch = 0

    while epoch < config.epochs:
        taken = []
        for obs, action, res, env in islice(steps, config.steps_per_collect):
            taken.append((obs, action, res))
            tally.add(res, env)   # before a later reset clears env's cause
        # The critic is fixed until the update, so one forward values the
        # collect's observations and one bootstraps their successors.
        values = _critic_values(value_net, [obs for obs, _, _ in taken])
        next_values = _critic_values(value_net,
                                     [res.observation for _, _, res in taken])
        collect = RolloutBuffer()
        for (obs, (z, logp), res), v, nv in zip(taken, values, next_values):
            collect.add(obs, z, logp, res.reward, v,
                        0.0 if res.terminated else nv,
                        res.terminated or res.truncated)
        total_steps += len(collect)
        stats = ppo_update(policy, value_net, collect, config,
                           actor_opt, critic_opt, rng_shuffle)

        # An epoch ends at the first update after its last step.
        while total_steps >= next_epoch_at and epoch < config.epochs:
            checkpoints.append((epoch, replace(
                policy, actor=policy.actor.copy(),
                log_sigma=np.array(policy.log_sigma))))
            log.append(PpoEpochLog(epoch=epoch, **tally.flush(),
                                   actor_loss=stats["actor_loss"],
                                   value_loss=stats["value_loss"]))
            epoch += 1
            next_epoch_at += config.steps_per_epoch
    return TrainResult(checkpoints=checkpoints, log=log)
