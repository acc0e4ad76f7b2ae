"""Training procedures: strategy evaluation, CMA-ES wiring, and the
advantage actor-critic loop with generalized advantage estimation.

The actor-critic trainer rolls the Gaussian bidding policy through 90-day
windows sampled from the training split, computes GAE advantages, and takes
one joint RMSprop step per rollout.  Periodically the deterministic (mean
action) policy is scored on a fixed validation window; the parameters with
the best validation reward are the ones later scored on the test range, never
the final ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cmaes import CmaesConfig, GenerationRecord, cmaes_optimize
from .market import DayResult, TradingEnv, delivery_window, observation_size
from .nets import (PolicyParams, backward, clip_gradient_norm, forward_cached,
                   init_policy, rmsprop_step)
from .strategies import (LOG2PI, blackbox_bids, log_density, mean_action,
                         params_class, sample_action)


# ---------------------------------------------------------------------------
# Strategy adapters: anything mapping a DecisionContext to a bid schedule
# ---------------------------------------------------------------------------

def policy_strategy(policy: PolicyParams):
    """Deterministic mean-action wrapper around a trained policy, which reads
    the first ``policy.input_size`` values of each observation: 141, or the
    69 without weather; any other input size is refused."""
    size = policy.input_size
    if size not in (observation_size(True), observation_size(False)):
        raise ValueError(f"a policy reads 141 or 69 observation values, this one {size}")

    def bids(ctx):
        action = mean_action(policy, ctx.observation()[:size])
        return blackbox_bids(action, ctx.vbar, ctx.pbar)

    return bids


def fixed_action_strategy(action: np.ndarray):
    """Always plays the same (4, 24) action matrix; the zero matrix is the
    canonical untrained baseline."""
    action = np.asarray(action, dtype=float)

    def bids(ctx):
        return blackbox_bids(action, ctx.vbar, ctx.pbar)

    return bids


def evaluate_strategy(bids_fn, env: TradingEnv, day_range: tuple[int, int],
                      seed: int, collect_results: bool = False):
    """Cumulative profit of ``bids_fn`` over the delivery days in ``day_range``.

    ``bids_fn`` maps a decision context, values without the environment,
    to the next day's bid schedule, which ``step`` checks unless it is a
    :class:`~dayahead.market.Schedule`, as package strategies return.
    Deterministic per seed: an episode of ``hi - lo`` days restarts with
    consumption noise seeded from ``seed`` (one tape, reused while the seed
    repeats), so one environment serves any number of evaluations; the
    strategy itself must be a pure function of the context.  Every day of
    the range is scored: ``reset`` refuses a range unless each day from
    ``lo - 1`` to ``hi - 1`` has a forecast, naming the first that has none.
    With ``collect_results`` the list of :class:`~dayahead.market.DayResult`
    records is returned as well, for :meth:`~dayahead.market.Episode.collect`
    to turn into arrays outside the scoring.
    """
    lo, hi = day_range
    ctx = env.reset(lo, seed, hi - lo)
    total = 0.0
    results: list[DayResult] = []
    for _ in range(lo, hi):
        ctx, reward, result = env.step(bids_fn(ctx), collect_results)
        total += reward
        results.append(result)
    return (total, results) if collect_results else total


# ---------------------------------------------------------------------------
# CMA-ES wiring for the parametric strategies
# ---------------------------------------------------------------------------

def initial_parameter_mean(kind: str, rng: np.random.Generator) -> np.ndarray:
    """CMA-ES starting mean of a parametric strategy kind."""
    return params_class(kind).initial_mean(rng)


def optimize_parametric(kind: str, env: TradingEnv, cma_config: CmaesConfig, seed: int
                        ) -> tuple[np.ndarray, list[GenerationRecord]]:
    """CMA-ES over the training split; returns the final mean parameters and
    each generation's record, as :func:`~dayahead.cmaes.cmaes_optimize` does.

    Every objective evaluation replays ``env``.
    """
    split = env.dataset.split
    if split is None:
        raise ValueError("dataset needs split boundaries before optimization")
    train_range = delivery_window(split.train)
    seeds = np.random.SeedSequence(seed).spawn(2)
    init_rng = np.random.default_rng(seeds[0])
    objective_seed = int(seeds[1].generate_state(1)[0])

    def objective(vector: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite income ranks worst
            return evaluate_strategy(params_class(kind).from_vector(vector).bids, env, train_range,
                                     objective_seed)

    x0 = initial_parameter_mean(kind, init_rng)
    try:
        return cmaes_optimize(objective, x0, replace(cma_config, seed=seed))
    except FloatingPointError as exc:
        raise FloatingPointError(f"seed {seed}, {exc}") from None


# ---------------------------------------------------------------------------
# Generalized advantage estimation
# ---------------------------------------------------------------------------

def gae_advantages(rewards: np.ndarray, values: np.ndarray, bootstrap: float,
                   gamma: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Advantages and value targets for one rollout.

    ``bootstrap`` is the value estimate past the last step: 0 at a true
    episode end, V(s_T) when the episode merely continues past the rollout.
    Returns (advantages, returns) with returns = advantages + values.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    if rewards.shape != values.shape:
        raise ValueError("rewards and values must have equal length")
    n = rewards.shape[0]
    advantages = np.empty(n)
    acc = 0.0
    next_value = float(bootstrap)
    for t in range(n - 1, -1, -1):
        delta = rewards[t] + gamma * next_value - values[t]
        acc = delta + gamma * lam * acc
        advantages[t] = acc
        next_value = values[t]
    return advantages, advantages + values


# ---------------------------------------------------------------------------
# A2C
# ---------------------------------------------------------------------------

@dataclass
class A2cConfig:
    total_days: int = field(default=200_000,  # training budget in simulated days
                            metadata={"key": "timesteps"})
    n_steps: int = 90                # days per rollout and update; one episode,
                                     # whose window lies inside the training split
    gamma: float = 0.9
    gae_lambda: float = 0.9
    learning_rate: float = 1e-4
    vf_coef: float = 0.5
    ent_coef: float = 0.0
    rms_eps: float = field(default=1e-5, metadata={"key": "rms_prop_eps"})
    max_grad_norm: float = 0.5
    eval_frequency: int = field(default=2_250,  # days between validation evaluations
                                metadata={"key": "evaluation_frequency"})
    eval_days: int = 90
    hidden_size: int = field(default=200, metadata={"key": "net_arch"})
    log_std_init: float = -1.0
    include_weather: bool = field(default=True, metadata={"key": None})  # --no-weather

    def __post_init__(self) -> None:
        for name in ("learning_rate", "vf_coef", "ent_coef", "rms_eps", "max_grad_norm",
                     "log_std_init"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)}")
        if not 0 <= self.gamma <= 1:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0 <= self.gae_lambda <= 1:
            raise ValueError("gae_lambda must lie in [0, 1]")
        if not self.rms_eps > 0:  # 0 divides a zero gradient by zero
            raise ValueError(f"rms_eps must be positive, got {self.rms_eps}")
        for name in ("total_days", "n_steps", "eval_frequency", "eval_days", "hidden_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        try:
            math.exp(self.log_std_init)
        except OverflowError:
            raise ValueError(f"log_std_init must have a finite exponential, "
                             f"got {self.log_std_init}") from None


@dataclass
class EvalPoint:
    step: int
    val_reward: float
    is_best: bool


@dataclass
class TrainingRun:
    """Everything a finished training run reports."""

    eval_log: list[EvalPoint]
    best_policy: PolicyParams
    best_val_reward: float
    best_step: int
    seed: int

    def log_rows(self) -> list[tuple[int, float, int]]:
        return [(p.step, p.val_reward, int(p.is_best)) for p in self.eval_log]


class A2cUpdater:
    """One joint actor-critic RMSprop update per rollout.

    The critic regresses on GAE returns computed with the pre-update value
    snapshot; the actor ascends log-probability weighted advantages.  Losses
    are averaged over the rollout, SB-style; their gradient, one policy-shaped
    vector kept across updates, is norm-clipped before the optimizer step.
    """

    def __init__(self, policy: PolicyParams, config: A2cConfig):
        self.policy = policy
        self.config = config
        self._grad = PolicyParams(policy.sizes)
        self._square_avg = np.zeros_like(policy.vector)

    def update(self, observations: np.ndarray, noise: np.ndarray,
               rewards: np.ndarray, bootstrap: float) -> dict:
        cfg = self.config
        policy = self.policy
        t_steps = observations.shape[0]

        means, actor_cache = forward_cached(policy.actor, observations)
        values_col, critic_cache = forward_cached(policy.critic, observations)
        values = values_col[:, 0]
        advantages, returns = gae_advantages(rewards, values, bootstrap,
                                             cfg.gamma, cfg.gae_lambda)

        sigma = np.exp(policy.log_std)
        value_errors = values - returns

        # d policy_loss / d mean = -A * xi / sigma, averaged over steps
        actor_out_grad = (-advantages[:, None] * noise / sigma[None, :]) / t_steps
        grad = self._grad
        grad.log_std[:] = -(advantages[:, None] * (noise ** 2 - 1.0)).sum(axis=0) / t_steps
        if cfg.ent_coef != 0.0:
            grad.log_std -= cfg.ent_coef  # d entropy / d log_std = 1 per dimension
        critic_out_grad = (cfg.vf_coef * 2.0 * value_errors[:, None]) / t_steps

        backward(policy.actor, actor_cache, actor_out_grad, grad.actor)
        backward(policy.critic, critic_cache, critic_out_grad, grad.critic)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is refused next
            policy_loss = float(-(log_density(policy.log_std, noise) * advantages).mean())
            value_loss = float((value_errors ** 2).mean())
            grad_norm = clip_gradient_norm(grad, cfg.max_grad_norm)
        if not math.isfinite(grad_norm):
            raise FloatingPointError("non-finite gradient; training diverged")
        # the squared-gradient decay is rmsprop_step's default, Stable-Baselines3's alpha
        rmsprop_step(policy.vector, grad.vector, self._square_avg, lr=cfg.learning_rate,
                     eps=cfg.rms_eps)
        return {
            "policy_loss": policy_loss,
            "value_loss": value_loss,
            "entropy": float(np.sum(policy.log_std + 0.5 * (LOG2PI + 1.0))),
            "grad_norm": grad_norm,
            "mean_advantage": float(advantages.mean()),
        }


def _rollout(env: TradingEnv, policy: PolicyParams, start_day: int,
             n_steps: int, env_rng: np.random.Generator,
             noise_rng: np.random.Generator):
    """Roll the stochastic policy for ``n_steps`` days from ``start_day``,
    with consumption noise from ``env_rng`` and exploration noise from
    ``noise_rng``; the policy sees the first ``policy.input_size``
    observation values."""
    ctx = env.reset(start_day, env_rng, n_steps)
    obs = np.empty((n_steps, policy.input_size))
    noise = noise_rng.standard_normal((n_steps, policy.action_size))  # the stream of a draw per day
    rewards = np.empty(n_steps)
    for t in range(n_steps):
        obs[t] = s = ctx.observation()[:policy.input_size]
        action = sample_action(policy, s, noise[t])
        ctx, rewards[t], _ = env.step(blackbox_bids(action, ctx.vbar, ctx.pbar), collect=False)
    return obs, noise, rewards


def a2c_train(env: TradingEnv, config: A2cConfig, seed: int) -> TrainingRun:
    """Full training run on ``env``: rollouts, updates and periodic
    validation; returns the best validated policy, unscored on the test range.

    All randomness (init, window sampling, environment noise, exploration
    noise, validation noise) derives from ``seed``.
    """
    split = env.dataset.split
    if split is None:
        raise ValueError("dataset needs split boundaries before training")

    ss = np.random.SeedSequence(seed)
    init_seed, window_seed, env_seed, noise_seed, val_seed = ss.spawn(5)
    window_rng = np.random.default_rng(window_seed)
    noise_rng = np.random.default_rng(noise_seed)
    val_eval_seed = int(val_seed.generate_state(1)[0])

    env_rng = np.random.default_rng(env_seed)
    policy = init_policy(
        observation_size(config.include_weather), hidden_size=config.hidden_size,
        seed=np.random.default_rng(init_seed), log_std_init=config.log_std_init,
        meta={"include_weather": config.include_weather, "price_scale": env.price_scale,
              **env.config.policy_binding()},
    )
    updater = A2cUpdater(policy, config)

    first_start, train_hi = delivery_window(split.train)
    last_start = train_hi - config.n_steps
    if last_start < first_start:
        raise ValueError("training split shorter than one episode")
    env.check_episode(first_start, train_hi - first_start)  # every window a rollout may draw
    val_range = delivery_window(split.validation, config.eval_days)

    eval_log: list[EvalPoint] = []
    best_policy = policy.copy()
    best_val = -math.inf
    best_step = 0
    steps = 0
    next_eval = config.eval_frequency

    while steps < config.total_days:
        start = int(window_rng.integers(first_start, last_start + 1))
        # Rollouts continue one noise stream; scoring seeds its own.
        obs, noise, rewards = _rollout(env, policy, start, config.n_steps, env_rng, noise_rng)
        # Fixed-length episodes end at the rollout boundary: no bootstrap.
        try:
            updater.update(obs, noise, rewards, bootstrap=0.0)
        except FloatingPointError as exc:
            raise FloatingPointError(f"seed {seed}, update {steps // config.n_steps + 1}: "
                                     f"{exc}") from None
        steps += config.n_steps

        if steps >= next_eval or steps >= config.total_days:
            val_reward = evaluate_strategy(policy_strategy(policy), env, val_range,
                                           val_eval_seed)
            is_best = val_reward > best_val
            if is_best:
                best_val = val_reward
                best_policy = policy.copy()
                best_step = steps
            eval_log.append(EvalPoint(steps, float(val_reward), is_best))
            while next_eval <= steps:
                next_eval += config.eval_frequency

    return TrainingRun(eval_log=eval_log, best_policy=best_policy,
                       best_val_reward=best_val, best_step=best_step, seed=seed)
