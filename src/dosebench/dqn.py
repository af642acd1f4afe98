"""DQN over an evenly spaced grid on the dose range, with zero-dose-biased
exploration.

The exploration prior puts probability p0 = n(n+1)/(2n^2 - n + 1) on the
zero-dose bin and spreads the rest uniformly, which keeps the ratio
p0/p_other = n(n+1)/(n-1). The buffer is warm-started with a conservative
scripted policy over bins {0, 1, 2} before any gradient step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from . import nets
from .env import (ACTION_HIGH, OBS_DIM, EpisodeTally, GlucoseEnv, cohort_envs,
                  featurize, rollout, seeds_from)

N_ACTIONS = 11   # dose bins, 0 to ACTION_HIGH inclusive
_BIN_WIDTH = ACTION_HIGH / (N_ACTIONS - 1)


@dataclass
class DqnConfig:
    gamma: float = 0.99
    lr: float = 1e-3
    batch_size: int = 128
    target_sync_every: int = 100
    eps_start: float = 0.9
    eps_final: float = 0.1
    use_prior: bool = False
    warm_start_steps: int = 480
    replay_capacity: int = 50_000
    hidden_sizes: tuple[int, ...] = (64, 64)
    epochs: int = 20
    steps_per_epoch: int = 480


def zero_biased_probs(n_actions: int) -> np.ndarray:
    """Closed-form zero-dose prior over an n-bin dose grid, bin 0 first."""
    if n_actions < 2:
        raise ValueError("n_actions must be at least 2")
    n = n_actions
    p0 = n * (n + 1) / (2 * n * n - n + 1)
    probs = np.full(n, (1.0 - p0) / (n - 1))
    probs[0] = p0
    return probs


def uniform_probs(n_actions: int) -> np.ndarray:
    if n_actions < 2:
        raise ValueError("n_actions must be at least 2")
    return np.full(n_actions, 1.0 / n_actions)


def bin_to_rate(bin_index: int) -> float:
    """Basal rate of a bin on the linear grid over the dose range."""
    if not (0 <= bin_index < N_ACTIONS):
        raise ValueError(f"bin must lie in [0, {N_ACTIONS - 1}]")
    return _BIN_WIDTH * bin_index


class ReplayBuffer:
    """Ring buffer of (obs, action bin, reward, next obs, terminated).

    Each transition's obs and next obs are one (2, OBS_DIM) row of
    ``obs_pairs``, so a sample gathers both with one index.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.obs_pairs = np.zeros((capacity, 2, OBS_DIM))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.terminated = np.zeros(capacity, dtype=bool)
        self.size = 0
        self._pos = 0

    def add(self, obs, action, reward, next_obs, terminated):
        i = self._pos
        self.obs_pairs[i, 0] = obs
        self.obs_pairs[i, 1] = next_obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.terminated[i] = terminated
        self._pos = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        if batch_size > self.size:
            raise ValueError("not enough transitions to sample a batch")
        idx = rng.choice(self.size, size=batch_size, replace=False)
        pairs = self.obs_pairs[idx]
        return (pairs[:, 0], self.actions[idx], self.rewards[idx],
                pairs[:, 1], self.terminated[idx])


def select_action(qnet: nets.DenseNet, obs, eps: float, probs: np.ndarray,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy; exploratory bins are drawn with probabilities probs.

    Greedy ties break toward the lowest bin (safest dose).
    """
    if not (0 <= eps <= 1):
        raise ValueError("eps must lie in [0, 1]")
    if eps > 0 and rng.random() < eps:
        return int(rng.choice(len(probs), p=probs))
    q, _ = nets.forward(qnet, featurize(obs))
    return int(np.argmax(q))


def eps_schedule(step: int, total_steps: int, config: DqnConfig) -> float:
    """Linear decay from eps_start to eps_final over the training horizon."""
    if total_steps <= 1:
        return config.eps_final
    frac = min(max(step / (total_steps - 1), 0.0), 1.0)
    return config.eps_start + frac * (config.eps_final - config.eps_start)


def warm_start_fill(buffer: ReplayBuffer, env: GlucoseEnv, steps: int,
                    rng: np.random.Generator) -> ReplayBuffer:
    """Fill the buffer with a uniform policy over bins {0, 1, 2}."""
    if steps < 0:
        raise ValueError("steps must be non-negative")

    def act(obs, env):
        a = int(rng.integers(0, 3))
        return a, bin_to_rate(a)

    for obs, a, res, _ in islice(rollout([env], act, seeds_from(rng)), steps):
        buffer.add(obs, a, res.reward, res.observation, res.terminated)
    return buffer


def train_step(qnet: nets.DenseNet, target_net: nets.DenseNet, batch,
               opt: nets.OptimizerState, config: DqnConfig) -> float:
    """One Adam step on the mean-squared TD error; returns the loss."""
    obs, actions, rewards, next_obs, terminated = batch
    n = len(actions)
    if n == 0:
        raise ValueError("empty batch")
    feats = featurize(obs)
    next_feats = featurize(next_obs)
    q_next, _ = nets.forward(target_net, next_feats)
    targets = rewards + config.gamma * q_next.max(axis=1) * (~terminated)
    q, cache = nets.forward(qnet, feats)
    taken = q[np.arange(n), actions]
    td = taken - targets
    loss = float(np.mean(td ** 2))
    grad_out = np.zeros_like(q)
    grad_out[np.arange(n), actions] = 2.0 * td / n
    grads = nets.backward(qnet, cache, grad_out)
    nets.adam_step(qnet, grads, opt)
    return loss


@dataclass
class EpochLog:
    epoch: int
    train_return: float          # mean normalised return of episodes this epoch
    episodes: int
    hypo_terminations: int
    hyper_terminations: int
    mean_loss: float


@dataclass
class TrainResult:              # of train_dqn and train_ppo
    checkpoints: list    # (epoch, snapshot): a DenseNet copy, or a PpoPolicy
    log: list            # one EpochLog (PPO: PpoEpochLog) per epoch


def train_dqn(env_group: str, config: DqnConfig, seed: int) -> TrainResult:
    """Train over config.epochs x config.steps_per_epoch env steps.

    One gradient update per environment step once the warm-started buffer can
    fill a batch; one checkpoint per epoch; the log carries per-epoch
    normalised training return and termination causes.
    """
    root = np.random.SeedSequence([seed, 0xD09])
    net_ss, warm_ss, act_ss, sample_ss, ep_ss = root.spawn(5)
    rng_act = np.random.default_rng(act_ss)
    rng_sample = np.random.default_rng(sample_ss)
    rng_episode = np.random.default_rng(ep_ss)

    sizes = [OBS_DIM, *config.hidden_sizes, N_ACTIONS]
    qnet = nets.init_standard(sizes, seed=int(net_ss.generate_state(1)[0]))
    target = qnet.copy()
    opt = nets.make_optimizer(qnet, learning_rate=config.lr)

    envs = cohort_envs(env_group)
    buffer = ReplayBuffer(config.replay_capacity)
    warm_start_fill(buffer, envs[0], config.warm_start_steps,
                    np.random.default_rng(warm_ss))

    probs = zero_biased_probs(N_ACTIONS) if config.use_prior \
        else uniform_probs(N_ACTIONS)
    total_steps = config.epochs * config.steps_per_epoch
    global_step = count()

    def act(obs, env):
        eps = eps_schedule(next(global_step), total_steps, config)
        a = select_action(qnet, obs, eps, probs, rng_act)
        return a, bin_to_rate(a)

    steps = rollout(envs, act, seeds_from(rng_episode))
    tally = EpisodeTally()
    grad_steps = 0
    checkpoints, log = [], []
    for epoch in range(config.epochs):
        losses = []
        for obs, a, res, env in islice(steps, config.steps_per_epoch):
            buffer.add(obs, a, res.reward, res.observation, res.terminated)
            tally.add(res, env)
            if buffer.size >= config.batch_size:
                batch = buffer.sample(config.batch_size, rng_sample)
                losses.append(train_step(qnet, target, batch, opt, config))
                grad_steps += 1
                if grad_steps % config.target_sync_every == 0:
                    target.copy_from(qnet)

        checkpoints.append((epoch, qnet.copy()))
        log.append(EpochLog(
            epoch=epoch, **tally.flush(),
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
        ))
    return TrainResult(checkpoints=checkpoints, log=log)
