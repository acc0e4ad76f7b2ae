import hashlib
import json
import math

import numpy as np
import pytest

from dayahead import cli, training
from dayahead.cmaes import CmaesConfig, CmaesSearch, cmaes_optimize, default_population
from dayahead.data import read_columns
from dayahead.market import EnvConfig, TradingEnv, delivery_window, observation_size
from dayahead.nets import PolicyParams, forward, init_policy
from dayahead.strategies import (LOG2PI, OpportunisticParams, TimingParams, log_density,
                                 params_class)
from dayahead.training import (A2cConfig, A2cUpdater, a2c_train, evaluate_strategy,
                               fixed_action_strategy, gae_advantages, initial_parameter_mean,
                               optimize_parametric, policy_strategy)

from conftest import bid_schedule, flat_dataset, with_forecast_gap, with_perfect_forecasts


# ---------------------------------------------------------------------------
# Generalized advantage estimation
# ---------------------------------------------------------------------------

def discounted_returns(rewards, bootstrap, gamma):
    """Monte-Carlo oracle: plain discounted sums of the truncated episode."""
    out = np.empty(len(rewards))
    acc = bootstrap
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def test_gae_lambda_one_telescopes_to_monte_carlo():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        rewards = rng.normal(0, 100, n)
        values = rng.normal(0, 100, n)
        bootstrap = float(rng.normal(0, 100))
        gamma = float(rng.uniform(0.0, 1.0))
        adv, returns = gae_advantages(rewards, values, bootstrap, gamma, lam=1.0)
        mc = discounted_returns(rewards, bootstrap, gamma)
        np.testing.assert_allclose(adv + values, mc, atol=1e-9)
        np.testing.assert_allclose(returns, mc, atol=1e-9)


def test_gae_gamma_zero_is_one_step_residual():
    rng = np.random.default_rng(1)
    rewards = rng.normal(0, 10, 50)
    values = rng.normal(0, 10, 50)
    adv, _ = gae_advantages(rewards, values, bootstrap=123.0, gamma=0.0, lam=0.37)
    np.testing.assert_array_equal(adv, rewards - values)


def test_gae_constant_reward_at_bellman_fixed_point():
    """V = c/(1-gamma) with bootstrap V makes every advantage vanish."""
    gamma = 0.9
    c = 7.0
    v = c / (1 - gamma)
    rewards = np.full(60, c)
    values = np.full(60, v)
    adv, _ = gae_advantages(rewards, values, bootstrap=v, gamma=gamma, lam=0.9)
    np.testing.assert_allclose(adv, 0.0, atol=1e-9)


def test_gae_lambda_changes_advantages():
    """lambda 0 vs 0.9 must differ on any non-constant-reward rollout."""
    rng = np.random.default_rng(2)
    rewards = rng.normal(0, 1, 30)
    values = rng.normal(0, 1, 30)
    a0, _ = gae_advantages(rewards, values, 0.0, gamma=0.9, lam=0.0)
    a9, _ = gae_advantages(rewards, values, 0.0, gamma=0.9, lam=0.9)
    assert not np.allclose(a0, a9)
    # lambda = 0 is the plain TD residual
    deltas = rewards + 0.9 * np.append(values[1:], 0.0) - values
    np.testing.assert_allclose(a0, deltas, atol=1e-12)


def test_gae_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        gae_advantages(np.zeros(5), np.zeros(4), 0.0, 0.9, 0.9)


# ---------------------------------------------------------------------------
# CMA-ES
# ---------------------------------------------------------------------------

def best_of(records):
    """The best objective value a run saw, over all its generations."""
    return max(r.best_objective for r in records)


def neg_sphere_at_1_5(x):
    return -float(np.sum((x - 1.5) ** 2))


def drive_by_hand(objective, x0, config):
    """``config.generations`` rounds of ask, evaluate each row in order, and
    tell: every asked candidate, the final mean and the records."""
    search = CmaesSearch(x0, config)
    candidates, records = [], []
    for _ in range(config.generations):
        asked = search.ask()
        candidates.append(asked.copy())
        records.append(search.tell([objective(x) for x in asked]))
    return np.concatenate(candidates), search.mean, records


def seeing(objective, seen):
    """``objective``, keeping a copy of each point it is called with in ``seen``."""
    def wrapped(x):
        seen.append(x.copy())
        return objective(x)
    return wrapped


@pytest.mark.parametrize("sigma0", [0.0, -1.0, math.nan, math.inf])
def test_cmaes_config_refuses_a_sigma_that_is_not_positive_and_finite(sigma0):
    """A NaN sigma ran every generation and returned a NaN mean."""
    with pytest.raises(ValueError, match="initial sigma"):
        CmaesConfig(sigma0=sigma0)


@pytest.mark.parametrize("generations", [0, -3])
def test_cmaes_config_refuses_fewer_than_one_generation(generations):
    """It returned the initial mean with an empty log."""
    with pytest.raises(ValueError, match=f"generations must be at least 1, got {generations}"):
        CmaesConfig(generations=generations)


def test_population_formula():
    assert default_population(2) == 6
    assert default_population(10) == 10
    assert default_population(100) == 17


def test_sphere_benchmark():
    """10-D sphere below 1e-8 within the 100-generation budget, 5/5 seeds."""
    def neg_sphere(x):
        return -float(np.sum(x * x))

    for seed in range(5):
        cfg = CmaesConfig(population=20, sigma0=0.3, generations=100, seed=seed)
        mean, records = cmaes_optimize(neg_sphere, np.full(10, 0.3), cfg)
        assert best_of(records) > -1e-8, f"seed {seed}"
        assert float(np.sum(mean * mean)) < 1e-7


def test_objective_shift_invariance():
    """Adding a constant changes neither the sampled candidates nor the ranks."""
    def run(shift):
        """Every candidate in evaluation order, and each generation's ranks."""
        candidates, values = [], []

        def objective(x):
            candidates.append(x.copy())
            values.append(neg_sphere_at_1_5(x) + shift)
            return values[-1]

        cmaes_optimize(objective, np.zeros(5), CmaesConfig(population=12, generations=25, seed=3))
        ranks = np.argsort(-np.reshape(values, (25, 12)), axis=1, kind="stable")
        return np.array(candidates), ranks

    (base, base_ranks), (shifted, shifted_ranks) = run(0.0), run(1000.0)
    assert base.shape == (25 * 12, 5)
    np.testing.assert_array_equal(base, shifted)
    np.testing.assert_array_equal(base_ranks, shifted_ranks)


def test_constant_objective_no_systematic_drift():
    """Uninformative ranking leaves only a zero-mean random walk of the mean.

    The walk scale per coordinate is sigma * sqrt(G * sum w_i^2); systematic
    per-generation drift would overshoot the 3x bound immediately.
    """
    for seed in (0, 2, 4, 6):
        generations = 20
        cfg = CmaesConfig(population=64, sigma0=1.0, generations=generations, seed=seed)
        mean, _ = cmaes_optimize(lambda x: 1.0, np.zeros(10), cfg)
        mu = 32
        weights = np.log(64 / 2 + 0.5) - np.log(np.arange(1, mu + 1))
        weights /= weights.sum()
        walk_scale = math.sqrt(generations * float(np.sum(weights ** 2)))
        assert np.max(np.abs(mean)) <= 3.0 * walk_scale


def test_non_finite_objective_ranked_worst():
    """A NaN region must never attract the mean."""
    def objective(x):
        if x[0] > 0.0:
            return float("nan")
        return float(x[0])  # maximized at the boundary from below

    cfg = CmaesConfig(population=12, generations=40, seed=1)
    mean, records = cmaes_optimize(objective, np.full(3, -2.0), cfg)
    assert math.isfinite(best_of(records))


def test_generation_without_a_finite_objective_raises():
    """Its ranking was the candidates' order; an optimize run with such
    generations exited 0 on a test income of NaN."""
    def objective(x):
        return float("nan") if x[0] > 5.0 else -float(np.sum(x ** 2))

    cfg = CmaesConfig(population=6, generations=3, seed=0)
    assert best_of(cmaes_optimize(objective, np.zeros(2), cfg)[1]) <= 0.0
    with pytest.raises(FloatingPointError, match="generation 1: no candidate has a finite"):
        cmaes_optimize(objective, np.full(2, 10.0), cfg)


def test_a_search_driven_by_hand_is_cmaes_optimize():
    """ask, evaluate, tell: the same candidates, final mean and records, bit
    for bit, and ``cmaes_optimize``'s objective sees exactly ask's rows."""
    config = CmaesConfig(population=12, generations=25, seed=3)
    seen = []
    mean, records = cmaes_optimize(seeing(neg_sphere_at_1_5, seen), np.zeros(5), config)
    candidates, hand_mean, hand_records = drive_by_hand(neg_sphere_at_1_5, np.zeros(5), config)
    assert candidates.shape == (25 * 12, 5)
    assert np.array(seen).tobytes() == candidates.tobytes()
    assert hand_mean.tobytes() == mean.tobytes()
    assert hand_records == records


def search_state(search):
    """Every attribute of ``search``, arrays as bytes and the sampler as its state."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return value.tobytes()
        if isinstance(value, np.random.Generator):
            return value.bit_generator.state
        return tuple(map(plain, value)) if isinstance(value, tuple) else value
    return {name: plain(value) for name, value in vars(search).items()}


@pytest.mark.parametrize("values, error, match", [
    ([0.0] * 5, ValueError, r"tell takes lambda = 6 values, got shape \(5,\)"),
    ([0.0] * 7, ValueError, r"tell takes lambda = 6 values, got shape \(7,\)"),
    ([math.nan] * 6, FloatingPointError, "generation 2: no candidate has a finite"),
])
def test_a_refused_tell_leaves_the_search_as_it_was(values, error, match):
    """Without the count check a short list would rank only as many rows as
    it holds, and a long one could select a row that ask never drew."""
    search = CmaesSearch(np.zeros(3), CmaesConfig(population=6, seed=0))
    search.tell([neg_sphere_at_1_5(x) for x in search.ask()])
    asked = search.ask()
    before = search_state(search)
    with pytest.raises(error, match=match):
        search.tell(values)
    assert search_state(search) == before
    twin = CmaesSearch(np.zeros(3), CmaesConfig(population=6, seed=0))
    twin.tell([neg_sphere_at_1_5(x) for x in twin.ask()])
    assert twin.ask().tobytes() == asked.tobytes()
    scores = [neg_sphere_at_1_5(x) for x in asked]
    assert search.tell(scores) == twin.tell(scores)


def test_tell_ranks_the_candidates_of_one_ask():
    """Before any ask, and a second time after one, there is nothing to rank."""
    search = CmaesSearch(np.zeros(2), CmaesConfig(population=6, seed=0))
    with pytest.raises(RuntimeError, match="ranks the candidates of an ask"):
        search.tell([0.0] * 6)
    scores = [neg_sphere_at_1_5(x) for x in search.ask()]
    assert search.tell(scores).generation == 0
    with pytest.raises(RuntimeError, match="ranks the candidates of an ask"):
        search.tell(scores)
    assert search.generation == 1


def test_rosenbrock_progress():
    """Harder curved valley: large improvement within the default budget."""
    def neg_rosenbrock(x):
        return -float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))

    cfg = CmaesConfig(generations=300, seed=0)
    mean, records = cmaes_optimize(neg_rosenbrock, np.zeros(5), cfg)
    assert best_of(records) > -1e-3


def test_initial_parameter_means():
    rng = np.random.default_rng(0)
    timing = initial_parameter_mean("timing", rng)
    assert timing.shape == (2,)
    draws = np.stack([initial_parameter_mean("opportunistic", np.random.default_rng(s))
                      for s in range(200)])
    idx = OpportunisticParams.volume_offset_indices()
    rest = np.setdiff1d(np.arange(100), idx)
    assert abs(draws[:, idx].mean() + 2.0) < 0.1   # shifted to N(-2, 1)
    assert abs(draws[:, rest].mean()) < 0.1        # default N(0, 1)
    assert params_class("timing").size == 2
    assert params_class("opportunistic").size == 100


# ---------------------------------------------------------------------------
# Strategy evaluation
# ---------------------------------------------------------------------------

def test_evaluate_no_bids_on_balanced_fixture():
    profile = np.full(24, 0.0004)
    ds = with_perfect_forecasts(flat_dataset(num_days=8, cloudiness=4, profile=profile))
    env = TradingEnv(ds, EnvConfig(consumption_noise_std=0.0, initial_charge=0.0))
    income = evaluate_strategy(lambda ctx: bid_schedule(), env, (2, 8), seed=0)
    assert income == pytest.approx(0.0, abs=1e-9)


def test_evaluate_deterministic_per_seed(small_dataset):
    strategy = TimingParams(1.2, 0.6).bids
    env = TradingEnv(small_dataset, EnvConfig())
    a = evaluate_strategy(strategy, env, (30, 60), seed=5)
    c = evaluate_strategy(strategy, env, (30, 60), seed=6)
    b = evaluate_strategy(strategy, env, (30, 60), seed=5)  # reused after seed 6
    fresh = evaluate_strategy(strategy, TradingEnv(small_dataset, EnvConfig()), (30, 60),
                              seed=5)
    assert a == b == fresh
    assert a != c


def test_evaluate_timing_hand_computed_fixture():
    """Two flat-price days, no production or consumption: 180 by hand.

    Day one: buy 4 x 0.2 at 250, sell 4 x 0.3 at 250 -> +100 with the battery
    going 1.0 -> 1.68 -> 0.48.  Day two bids from the projected level 0.24:
    again 0.2/0.3, but the last evening sale finds only 0.26 MWh stored, so
    0.04 MWh is force-bought at 500: -200 + 300 - 20 = +80.
    """
    ds = with_perfect_forecasts(flat_dataset(num_days=5, price=250.0))
    config = EnvConfig(consumption_noise_std=0.0, initial_charge=0.5)
    income = evaluate_strategy(TimingParams(1.0, 0.2).bids,
                               TradingEnv(ds, config), (2, 4), seed=0)
    assert income == pytest.approx(180.0, abs=1e-9)


def test_evaluate_collecting_traces(small_dataset):
    income, results = evaluate_strategy(
        fixed_action_strategy(np.zeros((4, 24))), TradingEnv(small_dataset, EnvConfig()),
        (30, 40), seed=1, collect_results=True)
    assert len(results) == 10
    assert income == pytest.approx(sum(r.reward for r in results))


# Final means and per-generation records (generation, best, median, sigma) of
# short seed-0 runs on small_dataset, recorded before bids became per-hour
# schedules.  A flipped candidate ranking in any generation would change them.
PINNED_TIMING_MEAN = [1.5316055484810531, 1.0751627399512818]
PINNED_TIMING_RECORDS = [
    (0, 11486.391828531965, -3229.381639434539, 0.8039444841200153),
    (1, 12818.28971088142, 8329.09229447907, 1.0557420446172696),
    (2, 12616.586052527304, 11902.514298665392, 1.178415639115416),
]
PINNED_OPPORTUNISTIC_MEAN_SHA256 = \
    "5aa2ab4d5984563b75b64063c9afb3ad0c4e5ee186c58579c8529f57de86676a"
PINNED_OPPORTUNISTIC_MEAN_HEAD = [0.8875742503452063, -0.373723279072246,
                                  0.46694826300572684, -0.023122136860337567]
PINNED_OPPORTUNISTIC_RECORDS = [(0, 3765.3400222317055, -13483.414883948451, 0.9625277333727228)]


def records_of(records):
    return [(r.generation, r.best_objective, r.median_objective, r.sigma) for r in records]


def test_optimize_parametric_matches_pinned_runs(small_dataset):
    env = TradingEnv(small_dataset, EnvConfig())
    mean, records = optimize_parametric("timing", env, CmaesConfig(generations=3), seed=0)
    assert mean.tolist() == PINNED_TIMING_MEAN
    assert records_of(records) == PINNED_TIMING_RECORDS
    mean, records = optimize_parametric("opportunistic", env, CmaesConfig(generations=1), seed=0)
    assert mean[:4].tolist() == PINNED_OPPORTUNISTIC_MEAN_HEAD
    assert hashlib.sha256(mean.astype("<f8").tobytes()).hexdigest() == \
        PINNED_OPPORTUNISTIC_MEAN_SHA256
    assert records_of(records) == PINNED_OPPORTUNISTIC_RECORDS


def test_a_search_driven_by_hand_is_the_pinned_timing_run(small_dataset, monkeypatch):
    """The objective, start and config ``optimize_parametric`` hands to
    ``cmaes_optimize``, driven by ask and tell instead: the pinned mean and
    records, and the objective saw exactly ask's rows, in order."""
    calls = []

    def recording(objective, x0, config):
        seen = []
        calls.append((objective, x0, config, seen))
        return cmaes_optimize(seeing(objective, seen), x0, config)

    monkeypatch.setattr(training, "cmaes_optimize", recording)
    env = TradingEnv(small_dataset, EnvConfig())
    mean, records = optimize_parametric("timing", env, CmaesConfig(generations=3), seed=0)
    [(objective, x0, config, seen)] = calls
    candidates, hand_mean, hand_records = drive_by_hand(objective, x0, config)
    assert np.array(seen).tobytes() == candidates.tobytes()
    assert hand_mean.tolist() == mean.tolist() == PINNED_TIMING_MEAN
    assert records_of(hand_records) == records_of(records) == PINNED_TIMING_RECORDS


def test_evaluate_total_is_the_sum_of_collected_rewards(small_dataset):
    env = TradingEnv(small_dataset, EnvConfig())
    for strategy in (TimingParams(1.2, 0.6).bids, fixed_action_strategy(np.zeros((4, 24)))):
        total = evaluate_strategy(strategy, env, (30, 60), seed=3)
        collected, results = evaluate_strategy(strategy, env, (30, 60), seed=3,
                                               collect_results=True)
        assert total == collected == sum(r.reward for r in results)


def test_evaluation_over_a_forecast_gap_is_refused(small_dataset):
    """It scored the days before the gap, days 30 to 44 here, and returned
    their income as the range's."""
    env = TradingEnv(with_forecast_gap(small_dataset, 45), EnvConfig())
    with pytest.raises(ValueError, match="no forecast available for day 45"):
        evaluate_strategy(TimingParams(1.2, 0.6).bids, env, (30, 60), 1)


def test_a2c_train_refuses_a_training_split_with_a_forecast_gap(small_dataset, monkeypatch):
    """Before the first rollout, whichever windows the seed would draw."""
    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out before refusing the training split")

    monkeypatch.setattr(training, "_rollout", no_rollout)
    env = TradingEnv(with_forecast_gap(small_dataset, 50), EnvConfig())
    with pytest.raises(ValueError, match="no forecast available for day 50"):
        a2c_train(env, tiny_a2c_config(), seed=0)


@pytest.mark.parametrize("size", [observation_size(False) - 1, 100, observation_size(True) + 1])
def test_policy_strategy_refuses_another_input_size(size):
    """A policy reads a prefix of the 141 observation values: the 69 without
    weather or all of them; any other length would read a cut block."""
    with pytest.raises(ValueError, match=f"141 or 69 observation values, this one {size}"):
        policy_strategy(init_policy(size, hidden_size=4, seed=0))


def test_seed_tapes_do_not_leak_between_evaluations(small_dataset):
    """Seeds 1, 2, 1, 1 on one environment, with a generator-driven rollout
    before the second 1, score as on fresh environments."""
    strategy = TimingParams(1.2, 0.6).bids
    fresh = {seed: evaluate_strategy(strategy, TradingEnv(small_dataset, EnvConfig()),
                                     (30, 60), seed) for seed in (1, 2)}
    env = TradingEnv(small_dataset, EnvConfig())
    got = [evaluate_strategy(strategy, env, (30, 60), 1),
           evaluate_strategy(strategy, env, (30, 60), 2)]
    policy = init_policy(observation_size(True), hidden_size=8, seed=0)
    training._rollout(env, policy, 30, 30, np.random.default_rng(1),
                      np.random.default_rng(2))
    got += [evaluate_strategy(strategy, env, (30, 60), 1) for _ in range(2)]
    assert got == [fresh[1], fresh[2], fresh[1], fresh[1]]


def test_optimize_parametric_improves_timing(small_dataset):
    """A short CMA-ES run must beat the raw initial mean on its own objective."""
    env_config = EnvConfig()
    cma = CmaesConfig(generations=15, seed=0)
    best, records = optimize_parametric("timing", TradingEnv(small_dataset, env_config), cma,
                                        seed=0)
    assert best_of(records) >= records[0].best_objective
    assert best.shape == (2,)


# Per-seed incomes (seeds 0, 1, 2) over year_dataset's test range, recorded
# when each strategy family still had its own battery netting, production
# formula and bid decoding; the shared rules must reproduce them.
GOLDEN_INCOMES = {
    "timing": [16447.995502038564, 16455.277705631383, 16463.83508036782],
    "opportunistic": [5661.6204826223675, 5658.1327346046955, 5664.583872041146],
    "zero": [-5747.019985052514, -5758.692459367749, -5743.170422358027],
}
GOLDEN_A2C_TEST_INCOME = -825.1248385093685  # tiny_a2c_config(total_days=120), seed 0


def test_golden_incomes(year_dataset):
    strategies = {
        "timing": params_class("timing").from_vector(np.array([1.2, 0.6])).bids,
        "opportunistic": params_class("opportunistic").from_vector(
            initial_parameter_mean("opportunistic", np.random.default_rng(0))).bids,
        "zero": fixed_action_strategy(np.zeros((4, 24))),
    }
    env = TradingEnv(year_dataset, EnvConfig())
    for name, strategy in strategies.items():
        incomes = [evaluate_strategy(strategy, env, year_dataset.split.test, seed)
                   for seed in (0, 1, 2)]
        np.testing.assert_allclose(incomes, GOLDEN_INCOMES[name], rtol=1e-9, atol=0,
                                   err_msg=name)


def test_golden_a2c_test_income(small_dataset):
    env = TradingEnv(small_dataset, EnvConfig())
    run = a2c_train(env, tiny_a2c_config(total_days=120), seed=0)
    assert sixth_child_test_income(env, run) == pytest.approx(GOLDEN_A2C_TEST_INCOME,
                                                              rel=1e-9, abs=0)


def test_overflowing_opportunistic_candidate_scores_non_finite(small_dataset):
    """An offset whose exponential overflows yields an income the optimizer
    ranks worst instead of an exception that aborts it."""
    vector = np.zeros(100)
    vector[OpportunisticParams.volume_offset_indices()[0]] = 1000.0
    env = TradingEnv(small_dataset, EnvConfig())
    with np.errstate(over="ignore"):
        income = evaluate_strategy(params_class("opportunistic").from_vector(vector).bids, env,
                                   (30, 60), seed=0)
    assert not math.isfinite(income)


# ---------------------------------------------------------------------------
# A2C updater
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("frequency", [0, -5])
def test_a2c_config_rejects_evaluation_frequency_below_one(frequency):
    """The training loop advances its next evaluation step by this amount."""
    with pytest.raises(ValueError, match="eval_frequency"):
        A2cConfig(eval_frequency=frequency)


@pytest.mark.parametrize("name", ["total_days", "n_steps", "eval_days", "hidden_size"])
@pytest.mark.parametrize("value", [0, -2])
def test_a2c_config_rejects_sizes_below_one(name, value):
    """``total_days`` 0 scored an untrained policy, ``eval_days`` 0 scored
    every validation over zero days, and ``hidden_size`` 0 built an actor
    without hidden units."""
    with pytest.raises(ValueError, match=f"{name} must be at least 1, got {value}"):
        A2cConfig(**{name: value})


@pytest.mark.parametrize("name", ["learning_rate", "vf_coef", "ent_coef", "rms_eps",
                                  "max_grad_norm", "log_std_init"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a2c_config_rejects_non_finite_reals(name, value):
    """A NaN or infinite rate or coefficient was accepted, and a direct
    caller of a2c_train failed only mid-run."""
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        A2cConfig(**{name: value})


@pytest.mark.parametrize("value", [0.0, -1e-5])
def test_a2c_config_rejects_an_rms_eps_that_is_not_positive(value):
    """0 divided a zero gradient by zero: NaN parameters, then a failure to
    round a NaN volume."""
    with pytest.raises(ValueError, match=f"rms_eps must be positive, got {value}"):
        A2cConfig(rms_eps=value)


def test_a2c_config_names_the_first_non_finite_field():
    with pytest.raises(ValueError, match="learning_rate"):
        A2cConfig(learning_rate=math.nan, max_grad_norm=math.inf, vf_coef=math.nan)


def make_updater(action_size=4, seed=0, **cfg_kwargs):
    cfg_kwargs.setdefault("learning_rate", 1e-3)
    cfg = A2cConfig(**cfg_kwargs)
    policy = init_policy(3, hidden_size=8, action_size=action_size, seed=seed)
    return policy, A2cUpdater(policy, cfg)


def test_update_gradient_matches_finite_differences_of_the_a2c_loss(monkeypatch):
    """The vector the update hands to RMSprop is the gradient of
    ``-mean(A log pi) + vf_coef MSE - ent_coef entropy``, with the
    advantages, returns and actions of the rollout held fixed."""
    policy, updater = make_updater(ent_coef=0.01, gae_lambda=0.8, max_grad_norm=1e9)
    rng = np.random.default_rng(3)
    obs, noise, rewards = rng.normal(0, 1, (6, 3)), rng.normal(0, 1, (6, 4)), rng.normal(0, 1, 6)
    actions = forward(policy.actor, obs) + np.exp(policy.log_std) * noise
    advantages, returns = gae_advantages(rewards, forward(policy.critic, obs)[:, 0], 0.5,
                                         gamma=0.9, lam=0.8)

    def loss(vector):
        p = PolicyParams(policy.sizes, vector)
        log_pi = log_density(p.log_std, (actions - forward(p.actor, obs)) / np.exp(p.log_std))
        value_loss = ((forward(p.critic, obs)[:, 0] - returns) ** 2).mean()
        entropy = np.sum(p.log_std + 0.5 * (LOG2PI + 1.0))
        return -(advantages * log_pi).mean() + 0.5 * value_loss - 0.01 * entropy

    step, numeric = 1e-6, np.empty_like(policy.vector)
    for i in range(policy.vector.size):
        up, down = policy.vector.copy(), policy.vector.copy()
        up[i] += step
        down[i] -= step
        numeric[i] = (loss(up) - loss(down)) / (2 * step)
    handed = []
    monkeypatch.setattr(training, "rmsprop_step",
                        lambda params, grad, *args, **kwargs: handed.append(grad.copy()))
    updater.update(obs, noise, rewards, bootstrap=0.5)
    assert np.max(np.abs(handed[0] - numeric)) <= 1e-6 * np.max(np.abs(numeric))


def test_update_moves_parameters_and_reports_losses():
    policy, updater = make_updater()
    rng = np.random.default_rng(0)
    before = [p.copy() for p in policy.parameters()]
    info = updater.update(rng.normal(0, 1, (16, 3)), rng.normal(0, 1, (16, 4)),
                          rng.normal(0, 1, 16), bootstrap=0.0)
    assert set(info) >= {"policy_loss", "value_loss", "grad_norm"}
    changed = any(not np.array_equal(a, b)
                  for a, b in zip(before, policy.parameters()))
    assert changed


def test_update_zero_advantages_leave_actor_untouched():
    """At the Bellman fixed point only the critic could move, and it has zero
    error too, so nothing changes."""
    policy, updater = make_updater()
    gamma = policy_gamma = 0.9
    c = 2.0
    v = c / (1 - gamma)
    # force the critic to output exactly v
    policy.critic.weights[0][:] = 0.0
    policy.critic.biases[0][:] = 0.0
    policy.critic.weights[1][:] = 0.0
    policy.critic.biases[1][:] = v
    before = [p.copy() for p in policy.parameters()]
    obs = np.tile(np.array([1.0, 0.0, 0.0]), (8, 1))
    updater.update(obs, np.zeros((8, 4)), np.full(8, c), bootstrap=v)
    for a, b in zip(before, policy.parameters()):
        np.testing.assert_array_equal(a, b)


def test_update_rejects_non_finite_rewards():
    policy, updater = make_updater()
    rng = np.random.default_rng(0)
    with pytest.raises(FloatingPointError):
        updater.update(rng.normal(0, 1, (8, 3)), rng.normal(0, 1, (8, 4)),
                       np.array([1.0, np.nan, 0, 0, 0, 0, 0, 0]), 0.0)


def test_bandit_policy_gradient_direction():
    """Two-region bandit: the mean action must move into the rewarded region
    within 2000 updates for at least 19 of 20 seeds."""
    obs = np.array([1.0, 0.0, 0.0])
    obs_batch = np.tile(obs, (8, 1))
    wins = 0
    for seed in range(20):
        policy = init_policy(3, hidden_size=8, action_size=1, seed=seed)
        updater = A2cUpdater(policy, A2cConfig(learning_rate=1e-3, gamma=0.0))
        rng = np.random.default_rng(1000 + seed)
        for _ in range(2000):
            mean = forward(policy.actor, obs)[0]
            xi = rng.normal(0, 1, (8, 1))
            actions = mean + xi * np.exp(policy.log_std[0])
            rewards = np.where(actions[:, 0] > 0.0, 1.0, -1.0)
            updater.update(obs_batch, xi, rewards, bootstrap=0.0)
        if forward(policy.actor, obs)[0] > 0.0:
            wins += 1
    assert wins >= 19


# ---------------------------------------------------------------------------
# Full training loop
# ---------------------------------------------------------------------------

def tiny_a2c_config(**kwargs):
    kwargs.setdefault("total_days", 360)
    kwargs.setdefault("n_steps", 30)
    kwargs.setdefault("eval_frequency", 90)
    kwargs.setdefault("eval_days", 20)
    kwargs.setdefault("hidden_size", 16)
    return A2cConfig(**kwargs)


TINY_TEST_DAYS = 25


def sixth_child_test_income(env, run):
    """The best policy of ``run`` over the first TINY_TEST_DAYS test days,
    scored with a seed drawn from the sixth child of ``SeedSequence(run.seed)``,
    next to the five that a2c_train spawns; GOLDEN_A2C_TEST_INCOME was
    recorded so."""
    test_range = delivery_window(env.dataset.split.test, TINY_TEST_DAYS)
    bids = policy_strategy(run.best_policy)
    seed = int(np.random.SeedSequence(run.seed, spawn_key=(5,)).generate_state(1)[0])
    return evaluate_strategy(bids, env, test_range, seed)


def test_a2c_train_runs_and_checkpoints(small_dataset):
    run = a2c_train(TradingEnv(small_dataset, EnvConfig()), tiny_a2c_config(), seed=0)
    assert run.eval_log, "expected at least one validation evaluation"
    best_from_log = max(p.val_reward for p in run.eval_log)
    assert run.best_val_reward == best_from_log
    flagged = [p for p in run.eval_log if p.is_best]
    assert flagged and flagged[-1].val_reward == best_from_log
    assert run.best_step == flagged[-1].step


def test_a2c_reported_test_income_comes_from_best_checkpoint(data_dir, config_path, tmp_path):
    """The income in ``result.json`` is the best validated policy's, scored
    on the test range at the run seed."""
    out = tmp_path / "sweep"
    assert cli.main(["sweep-battery", "--capacities", "2.0", "--data", str(data_dir),
                     "--config", config_path, "--seeds", "1", "--out", str(out)]) == 0
    result = json.loads((out / "capacity2.0" / "result.json").read_text())
    cfg = cli.load_config(config_path)
    dataset = cli.load_data_dir(data_dir, cfg)
    env = TradingEnv(dataset, EnvConfig(battery_capacity=2.0))
    run = a2c_train(env, cli.a2c_config_from(cfg, include_weather=True), seed=1)
    replayed = evaluate_strategy(policy_strategy(run.best_policy), env,
                                 tuple(result["test_range"]), 1)
    assert replayed == pytest.approx(result["incomes"][0])


def test_a2c_train_deterministic_per_seed(small_dataset):
    cfg = tiny_a2c_config(total_days=120)
    env_a, env_b = TradingEnv(small_dataset, EnvConfig()), TradingEnv(small_dataset, EnvConfig())
    a = a2c_train(env_a, cfg, seed=3)
    b = a2c_train(env_b, cfg, seed=3)
    assert sixth_child_test_income(env_a, a) == sixth_child_test_income(env_b, b)
    assert [p.val_reward for p in a.eval_log] == [p.val_reward for p in b.eval_log]
    for pa, pb in zip(a.best_policy.parameters(), b.best_policy.parameters()):
        np.testing.assert_array_equal(pa, pb)


def test_reused_environment_matches_fresh(small_dataset):
    """An environment carries no randomness between episodes: training and
    optimization on one shared instance equal runs on fresh ones, per seed."""
    shared = TradingEnv(small_dataset, EnvConfig())
    a2c = tiny_a2c_config(total_days=120)
    cma = CmaesConfig(generations=2)
    for seed in (0, 1):
        run = a2c_train(shared, a2c, seed)
        fresh = TradingEnv(small_dataset, EnvConfig())
        fresh_run = a2c_train(fresh, a2c, seed)
        assert (sixth_child_test_income(shared, run)
                == sixth_child_test_income(fresh, fresh_run))
        assert run.log_rows() == fresh_run.log_rows()
        mean, _ = optimize_parametric("opportunistic", shared, cma, seed)
        fresh_mean, _ = optimize_parametric("opportunistic",
                                            TradingEnv(small_dataset, EnvConfig()), cma, seed)
        np.testing.assert_array_equal(mean, fresh_mean)


def test_a2c_rollouts_stay_in_training_split(year_dataset, monkeypatch):
    """Windows longer than the old 90-day default must still end inside the
    training split; validation and test days are never trained on."""
    stepped = []
    real_rollout = training._rollout

    def recording_rollout(env, *args, **kwargs):
        real_reset = env.reset

        def reset(start_day, rng, days):
            stepped.extend(range(start_day, start_day + days))
            return real_reset(start_day, rng, days)

        env.reset = reset
        try:
            return real_rollout(env, *args, **kwargs)
        finally:
            del env.reset

    monkeypatch.setattr(training, "_rollout", recording_rollout)
    cfg = tiny_a2c_config(total_days=2400, n_steps=120, eval_frequency=2400,
                          eval_days=5)
    a2c_train(TradingEnv(year_dataset, EnvConfig()), cfg, seed=0)
    lo, hi = year_dataset.split.train
    assert len(stepped) == 2400
    assert lo <= min(stepped) and max(stepped) < hi


def test_a2c_no_weather_uses_69_inputs(small_dataset):
    run = a2c_train(TradingEnv(small_dataset, EnvConfig()),
                    tiny_a2c_config(total_days=60, include_weather=False), seed=0)
    assert run.best_policy.input_size == 69
    assert run.best_policy.meta["include_weather"] is False


def test_a2c_policy_records_the_environment_it_is_bound_to(small_dataset):
    """The meta that ``evaluate --policy`` checks a config against."""
    env = TradingEnv(small_dataset, EnvConfig(battery_capacity=1.5, max_wind_speed=9.0))
    run = a2c_train(env, tiny_a2c_config(total_days=60), seed=0)
    assert env.config.policy_binding() == {"battery_capacity": 1.5, "max_wind_speed": 9.0,
                                           "temperature_range": [-20.0, 40.0]}
    assert run.best_policy.meta == {"include_weather": True, "price_scale": env.price_scale,
                                    **env.config.policy_binding()}


# ---------------------------------------------------------------------------
# Battery sweep, run through the command line
# ---------------------------------------------------------------------------

def sweep(data_dir, config_path, out, capacities, seeds):
    """Exit code of ``sweep-battery`` over ``capacities`` and ``seeds``."""
    return cli.main(["sweep-battery", "--capacities", capacities, "--data", str(data_dir),
                     "--config", config_path, "--seeds", seeds, "--out", str(out)])


def sweep_rows(out):
    """``battery_sweep.csv`` as (capacity, mean, std, incomes) rows."""
    path = out / "battery_sweep.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "capacity,mean_income,std,incomes"
    numeric = read_columns(path, cli.BATTERY_SWEEP_HEADER[:3], (float, float, float))
    incomes = [[float(v) for v in line.split(",")[3].split()] for line in lines[1:]]
    return list(zip(*(column.tolist() for column in numeric), incomes, strict=True))


def test_battery_sweep_shapes(data_dir, config_path, tmp_path):
    assert sweep(data_dir, config_path, tmp_path / "s", "2.0,1.0", "0,1") == 0
    rows = sweep_rows(tmp_path / "s")
    assert [capacity for capacity, *_ in rows] == [1.0, 2.0]  # sorted ascending
    for _, mean, std, incomes in rows:
        assert len(incomes) == 2
        assert mean == pytest.approx(np.mean(incomes))
        assert std == pytest.approx(np.std(incomes, ddof=1))


def test_battery_sweep_single_seed_zero_std(data_dir, config_path, tmp_path):
    assert sweep(data_dir, config_path, tmp_path / "s", "1.5", "4") == 0
    rows = sweep_rows(tmp_path / "s")
    assert len(rows) == 1
    assert rows[0][2] == 0.0


def test_battery_sweep_rejects_non_positive_capacity(data_dir, config_path, tmp_path,
                                                     monkeypatch):
    monkeypatch.setattr(cli, "a2c_train", lambda *args: pytest.fail("trained"))
    for capacities in ("1.0,0", "1.0,-1"):
        assert sweep(data_dir, config_path, tmp_path / "s", capacities, "0") == 2, capacities
        assert not (tmp_path / "s").exists()


def test_battery_sweep_checks_every_capacity_before_training(data_dir, config_path, tmp_path,
                                                             monkeypatch):
    """A NaN capacity failed only after the capacities before it had trained."""
    monkeypatch.setattr(cli, "a2c_train", lambda *args: pytest.fail("trained"))
    for capacities in ("1.0,nan", "1.0,inf", "1.0,-1"):
        assert sweep(data_dir, config_path, tmp_path / "s", capacities, "0") == 2, capacities
        assert not (tmp_path / "s").exists()
