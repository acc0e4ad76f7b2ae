import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dayahead.cli import CONFIG_KEYS, env_config_from, load_config
from dayahead.market import (BUY, SELL, EnvConfig, TradingEnv, hourly_production,
                             observation_size, reference_balance, rolling_price_stats,
                             round_volumes)
from dayahead.strategies import TimingParams
from dayahead.training import evaluate_strategy

from conftest import (bid_schedule, day_array, flat_dataset, with_forecast_gap,
                      with_perfect_forecasts)


# ---------------------------------------------------------------------------
# Volume rounding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("raw,expected", [
    (0.0, 0.0),
    (0.04, 0.0),
    (0.049999, 0.0),
    (0.05, 0.1),       # ties away from zero
    (0.225, 0.2),
    (0.25, 0.3),
    (0.275, 0.3),
    (2.611, 2.6),
    (-0.3, 0.0),       # negative volumes mean no bid
])
def test_round_volume(raw, expected):
    assert round_volumes([raw]) == [pytest.approx(expected, abs=1e-12)]


def test_round_volume_keeps_overflow_non_finite():
    assert round_volumes([math.inf, 1e308]) == [math.inf, math.inf]
    assert round_volumes([1.0, 2.0], scale=1e308) == [math.inf, math.inf]


# ---------------------------------------------------------------------------
# Clearing
# ---------------------------------------------------------------------------

def executed(bid, market_price):
    """Whether ``bid`` executes in the clearing of ``TradingEnv.step`` on a
    flat-price day; its executed volume and its bid record must agree."""
    # a fixed price scale: the default, the mean price, would be 0 at price 0
    env = make_env(flat_dataset(num_days=4, price=market_price), quiet_config(price_scale=1.0))
    env.reset(2, rng=0, days=1)
    _, _, result = env.step(bid_schedule(bid))
    hour, side, volume, _ = bid
    done = bool(result.hourly("buy_exec" if side == BUY else "sell_exec")[hour])
    assert [row[-1] for row in result.bid_rows()] == ([done] if volume else [])
    return done


def test_buy_at_market_price_is_accepted():
    assert executed((6, BUY, 0.5, 100.0), 100.0)


def test_sell_below_market_price_is_accepted():
    assert executed((6, SELL, 0.5, 100.0), 101.0)


def test_sentinel_prices_always_execute():
    assert executed((0, BUY, 0.1, math.inf), 10_000.0)
    assert executed((0, SELL, 0.1, 0.0), 0.0)
    assert executed((0, SELL, 0.1, 0.0), 987.0)


def test_zero_volume_never_executes():
    assert not executed((0, BUY, 0.0, math.inf), 100.0)
    assert not executed((0, SELL, 0.0, 0.0), 100.0)


def test_clearing_matches_brute_force_grid():
    """Exhaustive 100x100x2 oracle, a direct restatement of the acceptance
    rule, against the clearing in ``step``: 100 market prices laid out over
    the hours of five delivery days, each met by a buy and a sell at each of
    100 bid prices."""
    prices = np.linspace(0.0, 495.0, 100)
    day_prices = np.full((8, 24), 250.0)
    day_prices[2:7].flat[:100] = prices
    ds = flat_dataset(num_days=8, price=day_prices)
    env = make_env(ds, quiet_config())
    mismatches = 0
    for bid_price in prices.tolist():
        env.reset(2, rng=0, days=5)
        for day in range(2, 7):
            schedule = [[0.1] * 24, [bid_price] * 24, [0.1] * 24, [bid_price] * 24]
            _, _, result = env.step(schedule)
            accepted = [row[-1] for row in result.bid_rows()]
            assert accepted[0::2] == (day_array(result, "buy_exec") != 0).tolist()
            assert accepted[1::2] == (day_array(result, "sell_exec") != 0).tolist()
            for hour, market_price in enumerate(ds.prices[day].tolist()):
                if (day - 2) * 24 + hour >= 100:
                    break
                if accepted[2 * hour] != (not bid_price < market_price):
                    mismatches += 1
                if accepted[2 * hour + 1] != (not bid_price > market_price):
                    mismatches += 1
    assert mismatches == 0


# ---------------------------------------------------------------------------
# Production / consumption formulas
# ---------------------------------------------------------------------------

class ConstantNoise(np.random.Generator):
    """Consumption-noise stub: every draw is ``rho``."""

    def __init__(self, rho):
        super().__init__(np.random.PCG64(0))
        self.rho = rho

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.full(size, self.rho)


def day_consumption(households, rho):
    """Simulated consumption of one delivery day at 0.002 MWh per household-hour."""
    env = make_env(flat_dataset(profile=np.full(24, 0.002)), quiet_config(households=households))
    env.reset(2, rng=ConstantNoise(rho), days=1)
    return day_array(env.step(bid_schedule())[2], "consumption")


def test_consumption_formula():
    np.testing.assert_allclose(day_consumption(100, 0.0), 0.2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(day_consumption(100, 0.3), 0.26, rtol=0, atol=1e-12)
    # the absolute value keeps consumption positive for large negative draws
    np.testing.assert_allclose(day_consumption(100, -2.0), 0.2, rtol=0, atol=1e-12)
    assert not day_consumption(0, 0.3).any()


def test_solar_formula():
    cfg = EnvConfig()
    solar = hourly_production(np.array([0, 8, 4]), np.zeros(3), cfg)  # no wind
    np.testing.assert_allclose(solar, [0.08, 0.0, 0.04], rtol=0, atol=1e-12)
    # cloudiness outside 0..8 never reaches the formula as an actual ...
    with pytest.raises(ValueError):
        flat_dataset(cloudiness=9)
    # ... and a forecast beyond the scale counts as the nearest valid value
    clipped = hourly_production(np.array([9.5, -1.0]), np.zeros(2), cfg)
    np.testing.assert_array_equal(clipped, solar[[1, 0]])


def test_wind_formula():
    cfg = EnvConfig()
    overcast = np.full(4, 8)  # no solar
    wind = hourly_production(overcast, np.array([11.0, 12.0, 5.5, 0.0]), cfg)
    np.testing.assert_allclose(wind, [0.05, 0.0, 0.025, 0.0], rtol=0, atol=1e-12)
    assert wind[1] == 0.0 and wind[3] == 0.0


# One case per rule, each named by the field the error must name.
UNHONOURABLE = [
    ("penalty_sell_multiplier", 3.0),   # dumping energy would pay
    ("penalty_sell_multiplier", -0.1),
    ("penalty_buy_multiplier", 0.5),    # a shortfall would be cheaper than a bid
    ("penalty_buy_multiplier", math.inf),  # 0 * inf: NaN cash in every surplus hour
    ("price_stat_window", 0),           # an empty median window
    ("action_hour", 24),
    ("action_hour", -1),                # would net hour 23 first
    ("price_scale", 0.0),               # was silently replaced by the default
    ("price_scale", -5.0),
    ("consumption_noise_std", -0.1),    # failed only in reset, inside numpy
    # NaN and infinities passed: income nan or -inf, or no wind production
    ("battery_capacity", math.nan),
    ("battery_capacity", math.inf),
    ("max_solar_generation", math.inf),
    ("max_wind_generation", math.nan),
    ("max_wind_speed", math.nan),
    ("consumption_noise_std", math.inf),
    ("price_scale", math.nan),
    ("price_scale", math.inf),
]


@pytest.mark.parametrize("field,value", UNHONOURABLE)
def test_env_config_rejects_values_the_kernel_cannot_honour(field, value):
    with pytest.raises(ValueError, match=field):
        EnvConfig(**{field: value})


def test_env_config_accepts_the_boundaries():
    for kwargs in ({"penalty_sell_multiplier": 0.0, "penalty_buy_multiplier": 1.0},
                   {"penalty_sell_multiplier": 1.0}, {"price_stat_window": 1},
                   {"action_hour": 0}, {"action_hour": 23}, {"price_scale": 1e-9},
                   {"consumption_noise_std": 0.0}):
        EnvConfig(**kwargs)


def test_zero_mean_training_price_needs_an_explicit_price_scale():
    """The default scale, the training split's mean price, was 0 here: a
    RuntimeWarning, then inf/NaN price slots in every observation."""
    from dayahead.data import SplitBoundaries

    ds = with_perfect_forecasts(flat_dataset(num_days=6, price=0.0))
    with pytest.raises(ValueError, match=r"training split, days 0\.\.5, has mean price 0\.0.*"
                                         r"set price_scale"):
        TradingEnv(ds, EnvConfig())
    prices = np.zeros((6, 24))
    prices[3:] = 100.0  # only the split's own days count
    ds = with_perfect_forecasts(flat_dataset(num_days=6, price=prices))
    with pytest.raises(ValueError, match=r"training split, days 0\.\.2,"):
        TradingEnv(replace(ds, split=SplitBoundaries((0, 3), (3, 4), (4, 6))), EnvConfig())
    obs = TradingEnv(ds, EnvConfig(price_scale=1.0)).reset(2, 0, 1).observation()
    assert np.isfinite(obs).all() and not obs[:24].any()


def test_max_hourly_production_composition():
    assert EnvConfig().max_hourly_production == pytest.approx(0.13, abs=1e-12)


# ---------------------------------------------------------------------------
# Rolling price statistic
# ---------------------------------------------------------------------------

def test_rolling_median_constant_series():
    ds = flat_dataset(num_days=30, price=300.0)
    assert rolling_price_stats(ds, 29, window=28)[12] == 300.0


def test_rolling_median_odd_count():
    prices = np.zeros((4, 24))
    prices[0:3, 7] = [100.0, 300.0, 200.0]
    ds = flat_dataset(num_days=4, price=prices)
    assert rolling_price_stats(ds, 3, window=28)[7] == 200.0


def test_rolling_median_even_count_mean_of_middle():
    prices = np.zeros((3, 24))
    prices[0:2, 7] = [100.0, 200.0]
    ds = flat_dataset(num_days=3, price=prices)
    assert rolling_price_stats(ds, 2, window=28)[7] == 150.0


def test_rolling_median_uses_window_only():
    prices = np.zeros((41, 24))
    prices[:, 3] = 1000.0
    prices[12:40, 3] = 50.0  # the most recent 28 days; day 40 itself is excluded
    ds = flat_dataset(num_days=41, price=prices)
    assert rolling_price_stats(ds, 40, window=28)[3] == 50.0


def test_rolling_median_day_zero_errors():
    ds = flat_dataset(num_days=5, price=100.0)
    with pytest.raises(ValueError, match="warm-up"):
        rolling_price_stats(ds, 0)


# ---------------------------------------------------------------------------
# Day stepping
# ---------------------------------------------------------------------------

def quiet_config(**kwargs):
    """No consumption noise by default so fixtures are exactly computable."""
    kwargs.setdefault("consumption_noise_std", 0.0)
    kwargs.setdefault("initial_charge", 0.0)
    return EnvConfig(**kwargs)


def make_env(dataset, config):
    return TradingEnv(with_perfect_forecasts(dataset), config)


def test_step_balanced_flows_no_bids():
    """Production == consumption every hour: nothing moves, reward 0."""
    profile = np.full(24, 0.0004)  # 100 households -> 0.04 MWh/h
    ds = flat_dataset(num_days=6, cloudiness=4, wind=0.0, profile=profile)
    env = make_env(ds, quiet_config())  # solar at c=4 is exactly 0.04
    env.reset(2, rng=0, days=1)
    ctx, reward, result = env.step(bid_schedule())
    assert reward == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(day_array(result, "battery_level"), 0.0, atol=1e-12)


def test_step_single_buy_charges_battery_with_losses():
    """0.5 MWh bought at 200: cash -100, battery gains 0.425 at 85% efficiency."""
    ds = flat_dataset(num_days=6, price=200.0)  # no production, no consumption
    env = make_env(ds, quiet_config())
    env.reset(2, rng=0, days=1)
    bids = bid_schedule((9, BUY, 0.5, math.inf))
    ctx, reward, result = env.step(bids)
    assert reward == pytest.approx(-100.0, abs=1e-9)
    levels = day_array(result, "battery_level")
    assert levels[9] == pytest.approx(0.0, abs=1e-12)
    assert levels[10] == pytest.approx(0.425, abs=1e-12)
    assert levels[24] == pytest.approx(0.425, abs=1e-12)
    assert day_array(result, "charge_input")[9] == pytest.approx(0.5, abs=1e-12)


def test_step_full_battery_overflow_sells_at_half_price():
    """Surplus 0.2 MWh against a full battery: forced sale at 150 -> +30."""
    profile = np.zeros(24)
    ds = flat_dataset(num_days=6, price=300.0, cloudiness=4, profile=profile)
    # cloudiness 4 -> production 0.04 MWh/h; buy 0.16 more in one hour = 0.2 surplus
    env = make_env(ds, quiet_config(initial_charge=1.0))
    env.reset(2, rng=0, days=1)
    bids = bid_schedule((5, BUY, 0.2, math.inf))
    ctx, reward, result = env.step(bids)
    uns_sell, cash = day_array(result, "uns_sell"), day_array(result, "cash_delta")
    # every hour also overflows its 0.04 MWh of production
    assert uns_sell[5] == pytest.approx(0.24, abs=1e-12)
    assert cash[5] == pytest.approx(-0.2 * 300 + 0.24 * 150, abs=1e-9)
    # the bid-free hours each sell 0.04 at half price
    assert uns_sell[6] == pytest.approx(0.04, abs=1e-12)
    assert cash[6] == pytest.approx(0.04 * 150, abs=1e-9)


def test_step_empty_battery_deficit_buys_at_double_price():
    profile = np.full(24, 0.0005)  # 0.05 MWh consumption per hour, no production
    ds = flat_dataset(num_days=6, price=100.0, profile=profile)
    env = make_env(ds, quiet_config())
    env.reset(2, rng=0, days=1)
    ctx, reward, result = env.step(bid_schedule())
    np.testing.assert_allclose(day_array(result, "uns_buy"), 0.05, atol=1e-12)
    assert reward == pytest.approx(-24 * 0.05 * 200.0, abs=1e-9)


def test_bids_execute_at_market_price_not_bid_price():
    ds = flat_dataset(num_days=6, price=180.0)
    env = make_env(ds, quiet_config())
    env.reset(2, rng=0, days=1)
    # buy limit far above market still pays market price
    ctx, reward, result = env.step(bid_schedule((0, BUY, 0.5, 9_999.0),
                                                      (1, SELL, 0.4, 10.0)))
    cash = day_array(result, "cash_delta")
    assert cash[0] == pytest.approx(-0.5 * 180.0, abs=1e-9)
    # the sold 0.4 comes out of the 0.425 stored in hour 0
    assert cash[1] == pytest.approx(0.4 * 180.0, abs=1e-9)
    assert day_array(result, "battery_level")[2] == pytest.approx(0.425 - 0.4, abs=1e-12)


def test_rejected_bids_do_not_trade():
    ds = flat_dataset(num_days=6, price=180.0)
    env = make_env(ds, quiet_config())
    env.reset(2, rng=0, days=1)
    ctx, reward, result = env.step(bid_schedule(
        (0, BUY, 0.5, 100.0),     # below market
        (1, SELL, 0.4, 300.0)))   # above market
    assert reward == pytest.approx(0.0, abs=1e-12)
    assert [row[-1] for row in result.bid_rows()] == [False, False]


def test_step_rejects_malformed_bids():
    """Off-grid volumes, a 25th hour, a fifth row and negative or NaN prices."""
    ds = flat_dataset(num_days=6)
    env = make_env(ds, quiet_config())
    env.reset(2, rng=0, days=1)
    with pytest.raises(ValueError, match="sell volume 0.15 in hour 3 is not a multiple"):
        env.step(bid_schedule((3, SELL, 0.15, 100.0)))
    env.reset(2, rng=0, days=1)
    with pytest.raises(ValueError, match="4 rows of 24 hours"):
        env.step([row + [0.0] for row in bid_schedule()])
    env.reset(2, rng=0, days=1)
    with pytest.raises(ValueError, match="4 rows of 24 hours"):
        env.step(bid_schedule() + [[0.0] * 24])
    for price in (-1.0, math.nan):
        env.reset(2, rng=0, days=1)
        with pytest.raises(ValueError, match="buy price .* in hour 0 must be nonnegative"):
            env.step(bid_schedule((0, BUY, 0.1, price)))


@pytest.mark.parametrize("volume", [math.inf, math.nan])
def test_step_rejects_non_finite_volume(volume):
    """Untrusted non-finite volumes fail validation like any malformed bid."""
    env = make_env(flat_dataset(num_days=6), quiet_config())
    env.reset(2, rng=0, days=1)
    with pytest.raises(ValueError, match="finite"):
        env.step(bid_schedule((0, BUY, volume, 100.0)))


def test_no_context_after_the_replay_ends():
    ds = flat_dataset(num_days=6)
    env = make_env(ds, quiet_config())
    env.reset(4, rng=0, days=2)
    ctx, _, _ = env.step(bid_schedule())  # delivery day 4, next ctx for day 5
    assert ctx is not None
    ctx, _, _ = env.step(bid_schedule())  # delivery day 5, day 6 does not exist
    assert ctx is None


# ---------------------------------------------------------------------------
# Conservation, determinism, replay purity
# ---------------------------------------------------------------------------

def random_bids(rng):
    """A schedule of up to 9 random bids; a later draw for a side and hour
    replaces the earlier one."""
    bids = {}
    for _ in range(rng.integers(0, 10)):
        side = BUY if rng.random() < 0.5 else SELL
        volume = round_volumes([float(rng.uniform(0.0, 1.5))])[0]
        price = float(rng.uniform(50.0, 500.0))
        hour = int(rng.integers(0, 24))
        bids[side, hour] = (hour, side, volume, price)
    return bid_schedule(*bids.values())


def run_randomized_days(dataset, config, num_days, seed):
    env = TradingEnv(dataset, config)
    rng = np.random.default_rng(seed + 1)
    env.reset(2, rng=seed, days=num_days)
    results = []
    for _ in range(num_days):
        ctx, reward, result = env.step(random_bids(rng))
        results.append(result)
    return results


def assert_hourly_identities(results, config, atol=1e-9):
    capacity = config.battery_capacity
    eta = config.battery_efficiency
    for res in results:
        trace = day_array(res, "battery_level")
        assert np.all(trace >= -atol) and np.all(trace <= capacity + atol)
        buy, sell, consumption, charge_in, discharge, uns_buy, uns_sell, cash_delta = (
            day_array(res, name) for name in ("buy_exec", "sell_exec", "consumption",
                                              "charge_input", "discharge", "uns_buy",
                                              "uns_sell", "cash_delta"))
        for h in range(24):
            lhs = res.production_row[h] + buy[h] + discharge[h] + uns_buy[h]
            rhs = consumption[h] + sell[h] + charge_in[h] + uns_sell[h]
            assert abs(lhs - rhs) < atol
            stored = trace[h + 1] - trace[h]
            assert abs(stored - (eta * charge_in[h] - discharge[h])) < atol
            price = res.hourly("price")[h]
            cash = (sell[h] - buy[h]) * price \
                + uns_sell[h] * config.penalty_sell_multiplier * price \
                - uns_buy[h] * config.penalty_buy_multiplier * price
            assert abs(cash - cash_delta[h]) < atol
        assert abs(res.reward - cash_delta.sum()) < atol


def test_conservation_over_randomized_days(year_dataset):
    config = EnvConfig()
    results = run_randomized_days(year_dataset, config, 400, seed=21)
    assert len(results) * 24 >= 9_600
    assert_hourly_identities(results, config)


def test_determinism_of_day_results(year_dataset):
    a = run_randomized_days(year_dataset, EnvConfig(), 50, seed=5)
    b = run_randomized_days(year_dataset, EnvConfig(), 50, seed=5)
    for ra, rb in zip(a, b):
        for name in ("cash_delta", "battery_level", "consumption"):
            np.testing.assert_array_equal(day_array(ra, name), day_array(rb, name))


def reference_consumption(ref, config, profile, days):
    """Consumption of ``days`` delivery days by the per-stretch rule: draw the
    rest of the decision day, then 24 values per day, and scale the mean
    ``households * profile`` by ``|1 + rho|`` hour by hour."""
    base = (config.households * profile).tolist()
    std = config.consumption_noise_std
    ref.normal(0.0, std, 24 - config.action_hour)
    return [[base[h] * abs(1.0 + r) for h, r in enumerate(ref.normal(0.0, std, 24).tolist())]
            for _ in range(days)]


def test_consumption_tape_matches_per_day_draws(small_dataset):
    config = EnvConfig()
    env = TradingEnv(small_dataset, config)
    _, results = evaluate_strategy(TimingParams(1.2, 0.8).bids, env, (30, 60), 5,
                                   collect_results=True)
    want = reference_consumption(np.random.default_rng(5), config,
                                 small_dataset.profile.avg_per_household, 30)
    assert [res.hourly("consumption") for res in results] == want


def test_episode_leaves_generator_where_per_day_draws_did(small_dataset):
    """A2C's rollouts continue one generator across episodes."""
    config = EnvConfig()
    env = TradingEnv(small_dataset, config)
    stream, ref = np.random.default_rng(7), np.random.default_rng(7)
    profile = small_dataset.profile.avg_per_household
    for start, days in ((30, 10), (50, 4)):
        env.reset(start, stream, days)
        got = [env.step(bid_schedule())[2].hourly("consumption") for _ in range(days)]
        assert got == reference_consumption(ref, config, profile, days)
    assert stream.normal() == ref.normal()


def test_step_past_episode_raises(small_dataset):
    env = TradingEnv(small_dataset, EnvConfig())
    env.reset(30, 0, 2)
    env.step(bid_schedule())
    env.step(bid_schedule())
    with pytest.raises(RuntimeError, match="episode ended with day 31"):
        env.step(bid_schedule())
    with pytest.raises(ValueError, match="does not fit"):
        env.reset(110, 0, small_dataset.num_days - 109)


def test_replay_purity(year_dataset):
    before = year_dataset.content_hash()
    run_randomized_days(year_dataset, EnvConfig(), 60, seed=9)
    assert year_dataset.content_hash() == before


def test_strategies_cannot_write_the_replay_tape(small_dataset):
    """pbar is a read-only view and each observation a fresh array: writes
    raise or change nothing."""
    ds = replace(small_dataset, prices=small_dataset.prices.copy())
    before = ds.content_hash()

    def income(tamper):
        env = TradingEnv(ds, EnvConfig())
        rng = np.random.default_rng(5)
        ctx = env.reset(30, rng=4, days=20)
        total = 0.0
        for _ in range(20):
            if tamper:
                view = ctx.pbar
                with pytest.raises(ValueError, match="read-only"):
                    view *= 0.0
                ctx.observation()[:] = 0.0
            ctx, reward, _ = env.step(random_bids(rng))
            total += reward
        return total

    clean = income(False)
    assert income(True) == clean
    assert ds.content_hash() == before


# ---------------------------------------------------------------------------
# Midnight level estimation
# ---------------------------------------------------------------------------

def test_estimate_no_flows_keeps_level():
    ds = flat_dataset(num_days=6)  # no production, no consumption
    env = make_env(ds, quiet_config(initial_charge=0.4))
    ctx = env.reset(2, rng=0, days=1)
    assert ctx.est_midnight == pytest.approx(0.4, abs=1e-12)


def test_estimate_single_sell_empties_battery():
    """Selling exactly the stored energy at 11 pm projects an empty battery."""
    ds = flat_dataset(num_days=6, price=250.0)
    env = make_env(ds, quiet_config(initial_charge=0.4))  # 0.8 MWh stored
    env.reset(2, rng=0, days=1)
    ctx, _, result = env.step(bid_schedule((23, SELL, 0.8, 0.0)))
    assert ctx.est_midnight == pytest.approx(0.0, abs=1e-12)
    assert day_array(result, "battery_level")[24] == pytest.approx(0.0, abs=1e-12)


def test_estimate_matches_realized_level_without_noise(small_dataset):
    """With sigma-free forecasts and no consumption noise the estimate is exact."""
    ds = with_perfect_forecasts(small_dataset)
    config = EnvConfig(consumption_noise_std=0.0)
    env = TradingEnv(ds, config)
    rng = np.random.default_rng(3)
    ctx = env.reset(40, rng=0, days=30)
    for _ in range(30):
        est = ctx.est_midnight
        ctx, _, result = env.step(random_bids(rng))
        realized = day_array(result, "battery_level")[0] / config.battery_capacity
        assert est == pytest.approx(realized, abs=1e-12)


def test_estimate_reflects_scheduled_bids_mid_day(small_dataset):
    """After stepping, the context's estimate accounts for the day's own bids."""
    ds = with_perfect_forecasts(small_dataset)
    config = EnvConfig(consumption_noise_std=0.0)
    env = TradingEnv(ds, config)
    env.reset(40, rng=0, days=1)
    ctx, _, result = env.step(bid_schedule((15, BUY, 1.0, math.inf)))
    assert ctx.est_midnight * config.battery_capacity == pytest.approx(
        day_array(result, "battery_level")[24], abs=1e-12)


def test_estimate_clears_bids_whose_limit_equals_the_price(small_dataset):
    """A buy and a sell after the action hour whose limits equal the clearing
    price both trade, and the estimate nets them as the real pass does."""
    ds = with_perfect_forecasts(small_dataset)
    config = EnvConfig(consumption_noise_std=0.0)
    env = TradingEnv(ds, config)
    env.reset(40, rng=0, days=1)
    prices = ds.prices[40]
    ctx, _, result = env.step(bid_schedule((14, BUY, 0.7, float(prices[14])),
                                              (19, SELL, 0.4, float(prices[19]))))
    assert result.hourly("buy_exec")[14] == 0.7
    assert result.hourly("sell_exec")[19] == 0.4
    assert ctx.est_midnight == result.hourly("battery_level")[23] / config.battery_capacity


@pytest.mark.parametrize("capacity", [0.5, 2.0, 7.3])
def test_estimate_midnight_level_equals_the_reset_context(small_dataset, capacity):
    """The retained method, on a fresh environment, gives the estimate of the
    context ``reset`` returns for the next day, bit for bit."""
    config = EnvConfig(battery_capacity=capacity, initial_charge=0.3)
    for day in (1, 2, 29, 64, 117):
        estimate = TradingEnv(small_dataset, config).estimate_midnight_level(day)
        ctx = TradingEnv(small_dataset, config).reset(day + 1, rng=day, days=1)
        assert estimate == ctx.est_midnight, day


def test_reset_refuses_a_decision_day_without_forecast(small_dataset):
    env = TradingEnv(with_forecast_gap(small_dataset, 9), EnvConfig())
    with pytest.raises(ValueError, match="no forecast available for day 9"):
        env.reset(10, 0, 3)


def test_reset_needs_a_forecast_for_every_day_of_the_episode(small_dataset):
    """Days 9 to 12 for 3 delivery days from day 10: a gap on a delivery day
    is refused before the episode starts, with the day and its date named,
    where scoring used to stop at the gap.  The day after the episode may lack
    one: its last step then returns no context."""
    for day in (10, 11, 12):
        env = TradingEnv(with_forecast_gap(small_dataset, day), EnvConfig())
        with pytest.raises(ValueError, match=rf"no forecast available for day {day} "
                                             rf"\({small_dataset.date_of(day)}\)"):
            env.reset(10, 0, 3)
    env = TradingEnv(with_forecast_gap(small_dataset, 13), EnvConfig())
    env.reset(10, 0, 3)
    contexts = [env.step(bid_schedule())[0] for _ in range(3)]
    assert [ctx is None for ctx in contexts] == [False, False, True]


def test_battery_level_caps_and_floors():
    ds = flat_dataset(num_days=6)  # no production, no consumption
    env = make_env(ds, quiet_config(initial_charge=0.95))  # 1.9 of 2.0 MWh
    env.reset(2, rng=0, days=1)
    _, _, result = env.step(bid_schedule((0, BUY, 1.0, math.inf)))
    assert day_array(result, "battery_level")[1] == 2.0
    env = make_env(ds, quiet_config(initial_charge=0.05))  # 0.1 MWh
    env.reset(2, rng=0, days=1)
    _, _, result = env.step(bid_schedule((0, SELL, 1.0, 0.0)))
    assert day_array(result, "battery_level")[1] == 0.0


@pytest.fixture(scope="module")
def perfect_dataset(small_dataset):
    return with_perfect_forecasts(small_dataset)


bid_lists = st.lists(
    st.tuples(st.integers(0, 23),                                  # hour
              st.sampled_from([BUY, SELL]),                        # side
              st.integers(0, 20).map(lambda k: k / 10),            # volume
              st.one_of(st.floats(0.0, 600.0), st.just(math.inf))),  # price
    max_size=12, unique_by=lambda bid: bid[:2])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(days=st.lists(bid_lists, min_size=1, max_size=4),
       start=st.integers(2, 110),
       initial_charge=st.floats(0.0, 1.0))
def test_battery_rule_properties(perfect_dataset, days, start, initial_charge):
    """Random bid lists keep the hourly identities, and with perfect forecasts
    and no consumption noise the midnight estimate, netted by the battery
    loop's estimate lane, equals the level the real lane realizes, bit for bit."""
    config = EnvConfig(consumption_noise_std=0.0, initial_charge=initial_charge)
    env = TradingEnv(perfect_dataset, config)
    env.reset(start, rng=0, days=len(days))
    for bids in days:
        ctx, _, result = env.step(bid_schedule(*bids))
        assert_hourly_identities([result], config)
        assert ctx.est_midnight * config.battery_capacity == result.hourly("battery_level")[23]


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------

def test_observation_lengths(small_dataset):
    """141 values; a policy without weather reads the first 69, which leave
    out the forecast block that starts there (see the layout test)."""
    env = TradingEnv(small_dataset, EnvConfig())
    ctx = env.reset(30, rng=0, days=1)
    assert ctx.observation().shape == (observation_size(True),) == (141,)
    assert observation_size(False) == 69


def test_observation_layout(small_dataset):
    config = EnvConfig(price_scale=200.0)
    env = TradingEnv(small_dataset, config)
    ctx = env.reset(30, rng=0, days=1)
    obs = ctx.observation()
    np.testing.assert_allclose(obs[0:24], small_dataset.prices[29] / 200.0)
    profile = small_dataset.profile.avg_per_household
    np.testing.assert_allclose(obs[24:48], profile / profile.max())
    assert obs[48] == pytest.approx(ctx.rel_charge)
    assert obs[49] == pytest.approx(ctx.est_midnight)
    month_block, weekday_block = obs[50:62], obs[62:69]
    assert month_block.sum() == 1.0 and weekday_block.sum() == 1.0
    date = small_dataset.date_of(ctx.day)
    assert month_block[date.month - 1] == 1.0
    assert weekday_block[date.weekday()] == 1.0
    np.testing.assert_allclose(obs[69:93], small_dataset.forecast_cloudiness[30] / 8.0)
    np.testing.assert_allclose(obs[93:117],
                               small_dataset.forecast_wind_speed[30] / config.max_wind_speed)
    np.testing.assert_allclose(obs[117:141], (small_dataset.forecast_temperature[30] + 20.0) / 60.0)


def test_observation_one_hot_positions():
    """March Monday: month one-hot index 2, weekday one-hot index 0."""
    import datetime as dt

    ds = flat_dataset(num_days=60, start=dt.date(2021, 3, 1))  # a Monday
    env = make_env(ds, quiet_config())
    ctx = env.reset(2, rng=0, days=1)  # decision day 1 = Tuesday March 2nd
    obs = ctx.observation()
    assert obs[50 + 2] == 1.0          # March
    assert obs[62 + 1] == 1.0          # Tuesday
    ctx2 = env.reset(8, rng=0, days=1)  # decision day 7 = Monday March 8th
    obs2 = ctx2.observation()
    assert obs2[62 + 0] == 1.0


def test_weather_observation_requires_forecasts():
    """An observation reads the next day's forecast block; every context the
    environment builds has one, and a context without one refuses."""
    ds = flat_dataset(num_days=60)
    with_fc = with_perfect_forecasts(ds)
    # a context on the last day, whose next day has no forecast block
    env = TradingEnv(with_fc, quiet_config())
    ctx = env.reset(2, rng=0, days=1)
    last = replace(ctx, day=ds.num_days - 1)
    with pytest.raises(ValueError, match="no forecast for day 60"):
        last.observation()


# ---------------------------------------------------------------------------
# Reference balance
# ---------------------------------------------------------------------------

def test_reference_balance_zero_when_balanced():
    profile = np.full(24, 0.0004)
    ds = flat_dataset(num_days=6, cloudiness=4, profile=profile)
    assert reference_balance(ds, EnvConfig(), (0, 6)) == pytest.approx(0.0, abs=1e-9)


def test_reference_balance_one_day_fixture():
    """Production 1.0, consumption 0.4, flat price 250 -> 150 per day."""
    profile = np.zeros(24)
    profile[0] = 0.004  # 0.4 MWh over the day for 100 households
    ds = flat_dataset(num_days=6, price=250.0, cloudiness=4, wind=0.0,
                      profile=profile)
    # cloudiness 4 -> 0.04 MWh x 24 h = 0.96; nudge with wind for exactly 1.0
    # keep it exact instead: production is 0.96, so expected is (0.96-0.4)*250
    assert reference_balance(ds, EnvConfig(), (0, 1)) == pytest.approx(
        (0.96 - 0.4) * 250.0, abs=1e-9)


def test_reference_balance_negative_for_net_consumer():
    profile = np.full(24, 0.001)  # 2.4 MWh/day consumption vs 0.96 production
    ds = flat_dataset(num_days=6, price=250.0, cloudiness=4, profile=profile)
    assert reference_balance(ds, EnvConfig(), (0, 6)) < 0.0


# ---------------------------------------------------------------------------
# Config file round trip
# ---------------------------------------------------------------------------

def test_env_config_round_trip(tmp_path):
    config = EnvConfig(battery_capacity=1.5, households=250, price_scale=210.0)
    path = tmp_path / "env.json"
    path.write_text(json.dumps({key: getattr(config, field)
                                for key, (section, field, _) in CONFIG_KEYS.items()
                                if section == "env"}))
    loaded = env_config_from(load_config(str(path)))
    assert loaded == config
