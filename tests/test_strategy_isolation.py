"""A strategy sees only its context, and what it returns is checked.

On the 120-day set of ``generate-data --seed 7``, test days 96-116 and
seed 0, the zero action earns -160.77.  A strategy could once reach the
environment through its context: setting ``ctx.env.charge`` to the
capacity before each bid earned 2,241.90, and overwriting
``ctx.env._price_rows[ctx.day + 1]`` left every later clean run at
-118,138.17.  The dataset's arrays were writeable, and buy volumes of -5
were simulated to -494,695.67 because ``evaluate_strategy`` trusted every
schedule.  Each attempt below now raises, and a clean run afterwards still
earns -160.77.
"""
import numpy as np
import pytest

from dayahead import data as damod
from dayahead import market
from dayahead.market import TEMPERATURE_RANGE, EnvConfig, Schedule, TradingEnv
from dayahead.nets import init_policy
from dayahead.strategies import OpportunisticParams, TimingParams
from dayahead.training import evaluate_strategy, fixed_action_strategy, policy_strategy

TEST_DAYS = (96, 116)
ZERO_ACTION_INCOME = -160.77


@pytest.fixture(scope="module")
def dataset():
    """The 120-day set, built here so that a regression cannot edit the
    session's shared copy."""
    ds = damod.generate_synthetic_dataset(seed=7, num_days=120)
    return damod.split_dataset(damod.make_forecasts(ds, seed=8))


@pytest.fixture
def env(dataset):
    return TradingEnv(dataset, EnvConfig())


def zero_action_income(env):
    income = evaluate_strategy(fixed_action_strategy(np.zeros((4, 24))), env, TEST_DAYS, 0)
    return round(income, 2)


def test_zero_action_income(env):
    assert zero_action_income(env) == ZERO_ACTION_INCOME


def charge_the_battery(ctx):
    ctx.env.charge = 2.0
    return market.NO_BIDS


def rewrite_tomorrows_prices(ctx):
    ctx.env._price_rows[ctx.day + 1] = (1e6,) * 24
    return market.NO_BIDS


@pytest.mark.parametrize("strategy", [charge_the_battery, rewrite_tomorrows_prices])
def test_a_strategy_cannot_reach_the_environment(env, strategy):
    with pytest.raises(AttributeError, match="env"):
        evaluate_strategy(strategy, env, TEST_DAYS, 0)
    assert zero_action_income(env) == ZERO_ACTION_INCOME


def write_pbar(ctx):
    ctx.pbar[0] = 0.0


def write_observation_table(ctx):
    ctx.table[ctx.day + 1] = 0.0


def write_dataset_prices(dataset):
    def strategy(ctx):
        dataset.prices[ctx.day + 1] = 0.0
    return strategy


@pytest.mark.parametrize("make_strategy", [lambda ds: write_pbar,
                                           lambda ds: write_observation_table,
                                           write_dataset_prices],
                         ids=["pbar", "observation-table", "dataset-prices"])
def test_the_replay_tape_is_read_only(dataset, env, make_strategy):
    with pytest.raises(ValueError, match="read-only"):
        evaluate_strategy(make_strategy(dataset), env, TEST_DAYS, 0)
    assert zero_action_income(env) == ZERO_ACTION_INCOME


@pytest.mark.parametrize("name", ["prices", "cloudiness", "wind_speed", "temperature",
                                  *damod.FORECAST_FIELDS])
def test_every_dataset_array_is_read_only(dataset, name):
    with pytest.raises(ValueError, match="read-only"):
        getattr(dataset, name)[0, 0] = 1.0


def test_a_decoded_schedule_cannot_be_edited(env):
    ctx = env.reset(TEST_DAYS[0], 0, 1)
    for schedule in (TimingParams(1.0, 0.5).bids(ctx),
                     fixed_action_strategy(np.zeros((4, 24)))(ctx), market.NO_BIDS):
        assert type(schedule) is Schedule
        with pytest.raises(TypeError):
            schedule[0][3] = 1.0
        with pytest.raises(TypeError):
            schedule[0] = [0.0] * 24


def test_a_collected_day_keeps_a_frozen_copy_of_a_returned_list(env):
    env.reset(TEST_DAYS[0], 0, 1)
    bids = [[0.0] * 24 for _ in range(4)]
    bids[0][3], bids[1][3] = 0.5, 1e9
    _, _, result = env.step(bids)
    bids[0][3] = 0.0
    assert type(result.schedule) is Schedule
    assert result.schedule[0][3] == 0.5


def test_negative_buy_volumes_are_refused(env):
    """They were simulated to an income of -494,695.67."""
    def strategy(ctx):
        return [[-5.0] * 24, [1e9] * 24, [0.0] * 24, [0.0] * 24]

    with pytest.raises(ValueError, match="buy volume -5.0 in hour 0 must be finite and "
                                         "nonnegative"):
        evaluate_strategy(strategy, env, TEST_DAYS, 0)
    assert zero_action_income(env) == ZERO_ACTION_INCOME


def test_only_schedules_the_package_did_not_decode_are_checked(env, monkeypatch):
    """A list is checked once per day and then runs as its decoded twin."""
    checked = []
    real = market._check_schedule
    monkeypatch.setattr(market, "_check_schedule",
                        lambda schedule: checked.append(1) or real(schedule))
    timing = TimingParams(1.0, 0.5).bids
    opportunistic = OpportunisticParams.from_vector(
        OpportunisticParams.initial_mean(np.random.default_rng(0))).bids
    policy = policy_strategy(init_policy(141, hidden_size=8, seed=0))
    for strategy in (timing, opportunistic, policy, fixed_action_strategy(np.zeros((4, 24)))):
        evaluate_strategy(strategy, env, TEST_DAYS, 0)
    assert not checked
    as_lists = evaluate_strategy(lambda ctx: [list(row) for row in timing(ctx)], env,
                                 TEST_DAYS, 0)
    assert len(checked) == TEST_DAYS[1] - TEST_DAYS[0]
    assert as_lists == evaluate_strategy(timing, env, TEST_DAYS, 0)


def reference_observation(dataset, config, price_scale, ctx):
    """The 141 observation values, laid out value by value as the context
    once built them from the environment's per-day tables."""
    obs = np.zeros(141)
    obs[0:24] = dataset.prices[ctx.day] / price_scale
    profile = dataset.profile.avg_per_household
    if profile.max() > 0:
        obs[24:48] = profile / profile.max()
    obs[48] = ctx.rel_charge
    obs[49] = ctx.est_midnight
    date = dataset.date_of(ctx.day)
    obs[50 + date.month - 1] = 1.0
    obs[62 + date.weekday()] = 1.0
    t_lo, t_hi = TEMPERATURE_RANGE
    tomorrow = ctx.day + 1
    obs[69:] = np.concatenate([dataset.forecast_cloudiness[tomorrow] / 8.0,
                               dataset.forecast_wind_speed[tomorrow] / config.max_wind_speed,
                               (dataset.forecast_temperature[tomorrow] - t_lo) / (t_hi - t_lo)])
    return obs


@pytest.mark.parametrize("config", [EnvConfig(),
                                    EnvConfig(max_wind_speed=7.5, price_scale=123.0)])
def test_observation_matches_the_per_day_layout_exactly(dataset, config):
    """Every context of a 20-day episode, under the default and an explicit
    scale, observes the values built independently, compared with ==."""
    env = TradingEnv(dataset, config)
    timing = TimingParams(1.0, 0.5).bids
    ctx = env.reset(TEST_DAYS[0], 0, TEST_DAYS[1] - TEST_DAYS[0])
    contexts = [ctx]
    for _ in range(*TEST_DAYS):
        ctx, _, _ = env.step(timing(ctx), collect=False)
        contexts.append(ctx)
    assert len({c.rel_charge for c in contexts}) > 1  # the battery slots vary
    for ctx in contexts:
        want = reference_observation(dataset, config, env.price_scale, ctx)
        assert (ctx.observation() == want).all(), ctx.day
