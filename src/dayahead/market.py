"""Day-ahead market simulator for a battery-backed prosumer.

The environment replays recorded (or synthetic) prices and weather.  One
decision step covers one delivery day: bids for all 24 hours of day ``d+1``
are submitted at the scheduling time (10:30 am) of day ``d``, cleared against
the replayed prices, and the simulator then advances hour by hour through the
delivery day, netting production, consumption and executed bids against the
battery.  Residual energy the battery cannot absorb or supply is settled
immediately at penalty prices: forced buys at twice the market price, forced
sells at half of it.

A day's bids are one schedule: four rows of 24 floats (buy volume, buy limit
price, sell volume, sell limit price); a volume of 0 means no bid.

Because the prosumer is assumed too small to move market prices, replaying
the price/weather tape while simulating only the battery gives an unbiased
evaluation of any bidding strategy.  The inner loops run on plain floats;
production tables, the observation table and rolling price medians are
cached per environment or dataset, and the consumption tape per
episode, which keeps a simulated day in the tens of microseconds.  Build one
:class:`TradingEnv` per dataset and configuration and reuse it: ``reset``
restarts an episode.

Each simulator rule lives in one place:

* production from weather, for actuals, forecasts and the reference
  balance: :func:`hourly_production`;
* clearing, battery netting and penalty settlement, hour by hour, and the
  projected midnight level, as a charge-only lane through the same cleared
  trades: ``TradingEnv._net_hours``;
* consumption ``households * profile * |1 + rho|``, with the noise drawn
  once per episode: the consumption tape built by ``TradingEnv.reset``;
* the per-hour rolling median price: :func:`rolling_price_stats`;
* volume rounding to the market step: :func:`round_volumes`;
* the bids of a schedule, in ``bids.csv`` order: :func:`schedule_slots`,
  and whether each was accepted, for ``bids.csv`` and the benchmark's bid
  counter alike: :meth:`DayResult.bid_rows`;
* the days an episode needs, a forecast on each from its decision day to
  its last delivery day: :meth:`TradingEnv.check_episode`;
* the name of each hourly quantity: :data:`DAY_RESULT_HEADER`, the
  columns of ``trace.csv``, whose names :data:`TRACE_FIELDS` reuses;
* the per-hour trace layout of a collected day: :data:`TRACE_FIELDS`;
* the deliverable days of a day range: :func:`delivery_window`;
* the observation layout and size: the table of ``TradingEnv.__init__``;
* what a strategy sees: a :class:`DecisionContext` of values, whose arrays
  are read-only, as are a :class:`~dayahead.data.Dataset`'s, so that no
  strategy can change the replay tape;
* which schedules are checked: each that is not a :class:`Schedule`, by
  :meth:`TradingEnv.step`.

An episode's only randomness is the consumption noise generator given to
``reset``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from math import floor
from typing import NamedTuple

import numpy as np

from .data import Dataset, HOURS_PER_DAY, OKTA_MAX, write_lines

BUY = "buy"
SELL = "sell"

FIRST_DELIVERY_DAY = 2  # after a decision day, which needs a forecast (from day 1)
TEMPERATURE_RANGE = (-20.0, 40.0)  # degrees C scaled to 0..1 in observations


def round_volumes(values, scale: float = 1.0) -> list[float]:
    """Each ``scale * value`` rounded to the nearest 0.1 MWh, ties away from zero.

    Values below 0.05 (including negatives) collapse to 0.0, i.e. no bid.
    A volume too large to round becomes infinite instead of raising, so
    that it surfaces as a non-finite income, which optimizers rank worst;
    NaN raises.  One comprehension: a call per volume costs more than that.
    """
    try:
        return [0.0 if v < 0.05 else floor(v * 10.0 + 0.5) / 10.0
                for x in values for v in (scale * x,)]
    except OverflowError:  # rare: round again, value by value
        return [math.inf if scale * x * 10.0 + 0.5 == math.inf else round_volumes((x,), scale)[0]
                for x in values]


class Schedule(tuple):
    """A decoded day of bids: a tuple of four tuple rows of 24 floats, so it
    cannot be edited.  The package's decoders build one from volumes rounded
    to the market step, and :meth:`TradingEnv.step` takes it as it is where
    it checks any other schedule."""

    __slots__ = ()


NO_BIDS = Schedule(((0.0,) * HOURS_PER_DAY,) * 4)  # the empty schedule


def schedule_slots(schedule):
    """``(hour, side, volume, price)`` of each bid of a schedule, hour by hour
    with the buy before the sell, which is the row order of ``bids.csv``; a
    volume of 0 is no bid."""
    buy_volumes, buy_prices, sell_volumes, sell_prices = schedule
    for hour in range(HOURS_PER_DAY):
        if buy_volumes[hour]:
            yield hour, BUY, buy_volumes[hour], buy_prices[hour]
        if sell_volumes[hour]:
            yield hour, SELL, sell_volumes[hour], sell_prices[hour]


def _check_schedule(schedule) -> None:
    """Raise a ValueError unless ``schedule`` has 4 rows of 24 hours, volumes
    on the 0.1 MWh grid and nonnegative prices (+inf always buys)."""
    if len(schedule) != 4 or any(len(row) != HOURS_PER_DAY for row in schedule):
        raise ValueError("a bid schedule has 4 rows of 24 hours: volume, price, volume, price")
    for side, volumes, prices in ((BUY, *schedule[:2]), (SELL, *schedule[2:])):
        for hour, (volume, price) in enumerate(zip(volumes, prices)):
            if not (math.isfinite(volume) and volume >= 0):
                raise ValueError(f"{side} volume {volume} in hour {hour} "
                                 "must be finite and nonnegative")
            if abs(volume * 10.0 - floor(volume * 10.0 + 0.5)) > 1e-6:
                raise ValueError(f"{side} volume {volume} in hour {hour} "
                                 "is not a multiple of 0.1 MWh")
            if not price >= 0:  # rejects NaN
                raise ValueError(f"{side} price {price} in hour {hour} must be nonnegative")


@dataclass
class EnvConfig:
    """Environment parameters (battery, generation, prosumer scale, penalties)."""

    battery_capacity: float = 2.0        # MWh
    battery_efficiency: float = 0.85     # applied once, on charging
    max_solar_generation: float = 0.4    # MWh per hour at clear sky, before panel losses
    solar_efficiency: float = field(default=0.2, metadata={"key": "solar_panel_efficiency"})
    max_wind_generation: float = 0.05    # MWh per hour at cutoff wind speed
    max_wind_speed: float = 11.0         # m/s; turbines stop above this
    households: int = 100
    consumption_noise_std: float = 0.03
    action_hour: int = field(default=10,  # bids scheduled at 10:30 -> hour block 10
                             metadata={"key": "action_scheduling_hour"})
    price_stat_window: int = 28          # days for the per-hour rolling median
    penalty_buy_multiplier: float = 2.0
    penalty_sell_multiplier: float = 0.5
    initial_charge: float = 0.5          # starting battery level as a fraction of capacity
    price_scale: float | None = None     # observation normalization; None -> train-split mean

    def __post_init__(self) -> None:
        if not 0 < self.battery_capacity < math.inf:  # rejects NaN
            raise ValueError(f"battery_capacity must be positive and finite, "
                             f"got {self.battery_capacity}")
        if not 0 < self.battery_efficiency <= 1:
            raise ValueError("battery efficiency must lie in (0, 1]")
        if not 0 < self.solar_efficiency <= 1:
            raise ValueError("solar efficiency must lie in (0, 1]")
        for name in ("max_solar_generation", "max_wind_generation", "max_wind_speed"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.households < 0:
            raise ValueError("household count must be nonnegative")
        if not 0 <= self.initial_charge <= 1:
            raise ValueError("initial charge must be a fraction of capacity")
        if not 0 <= self.consumption_noise_std < math.inf:
            raise ValueError("consumption_noise_std must be finite and nonnegative")
        if not 0 <= self.action_hour < HOURS_PER_DAY:
            raise ValueError(f"action_hour must lie in 0..23, got {self.action_hour}")
        if self.price_stat_window < 1:
            raise ValueError("price_stat_window must be at least 1 day")
        # With k_s <= 1 <= k_b a settlement never pays better than the market.
        if not 0 <= self.penalty_sell_multiplier <= 1:
            raise ValueError("penalty_sell_multiplier must lie in [0, 1]")
        if not 1 <= self.penalty_buy_multiplier < math.inf:
            raise ValueError("penalty_buy_multiplier must be finite and at least 1")
        if self.price_scale is not None and not 0 < self.price_scale < math.inf:
            raise ValueError("price_scale must be positive and finite")

    @property
    def max_hourly_production(self) -> float:
        """Largest producible volume in one hour (clear sky, cutoff wind)."""
        return self.max_solar_generation * self.solar_efficiency + self.max_wind_generation

    def policy_binding(self) -> dict:
        """The values a policy trained here is bound to, by its meta key: its
        battery and the scales of the forecasts it sees."""
        return {"battery_capacity": self.battery_capacity,
                "max_wind_speed": self.max_wind_speed,
                "temperature_range": list(TEMPERATURE_RANGE)}


def delivery_window(day_range: tuple[int, int], days: int | None = None) -> tuple[int, int]:
    """The deliverable days of ``day_range``: none before
    :data:`FIRST_DELIVERY_DAY`, and at most ``days`` of them if given."""
    lo, hi = day_range
    lo = max(FIRST_DELIVERY_DAY, lo)
    return lo, hi if days is None else min(hi, lo + days)


def observation_size(include_weather: bool) -> int:
    """Length of :meth:`DecisionContext.observation`, 141, or of its first
    69 values, which leave out the weather forecast."""
    return 141 if include_weather else 69


# ---------------------------------------------------------------------------
# Production formula
# ---------------------------------------------------------------------------

def hourly_production(cloudiness, wind_speed, config: EnvConfig) -> np.ndarray:
    """Solar plus wind production [MWh] per hour, elementwise over any shape.

    Solar scales with the clear share of the sky; wind rises linearly with
    speed up to the cutoff and stops above it.  Cloudiness is clipped to
    0..8 Oktas and wind speed at zero, which only forecasts can need: the
    dataset rejects actuals outside those ranges.
    """
    cloud = np.clip(cloudiness, 0, OKTA_MAX)
    wind = np.maximum(wind_speed, 0.0)
    solar = config.max_solar_generation * config.solar_efficiency * (1.0 - cloud / OKTA_MAX)
    wind_prod = np.where(wind <= config.max_wind_speed,
                         config.max_wind_generation * wind / config.max_wind_speed, 0.0)
    return solar + wind_prod


# ---------------------------------------------------------------------------
# Rolling per-hour price statistic
# ---------------------------------------------------------------------------

def rolling_price_stats(dataset: Dataset, day_index: int, window: int = 28) -> np.ndarray:
    """Median price of each hour over the ``window`` days before ``day_index``.

    During warm-up (fewer than ``window`` prior days) all available history is
    used; an even count takes the mean of the two middle values.  The day
    itself is excluded, so day 0 has no history at all.  Rows are computed
    once per dataset and window, cached, and handed out read-only.
    """
    rows = dataset._pbar_cache.get(window)
    if rows is None:
        rows = dataset._pbar_cache[window] = [None] * dataset.num_days
    row = rows[day_index]
    if row is None:
        if day_index <= 0:
            raise ValueError("no price history before day 0; start after at least one warm-up day")
        lo = max(0, day_index - window)
        row = rows[day_index] = np.median(dataset.prices[lo:day_index], axis=0)
        row.flags.writeable = False  # strategies see the replay tape only read-only
    return row


# ---------------------------------------------------------------------------
# Decision context (observation) and day results
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class DecisionContext:
    """Everything a strategy may look at when bidding for the next day.

    Snapshotted at the scheduling time of ``day``; the bids produced from it
    are for delivery day ``day + 1``.  It holds values, not the environment:
    its arrays are read-only, and row ``d`` of the environment's observation
    ``table`` holds all of day ``d``'s observation but the battery levels.
    """

    day: int
    rel_charge: float                 # battery level at the decision snapshot / capacity
    est_midnight: float               # projected relative level at midnight
    pbar: np.ndarray                  # (24,) rolling per-hour median price, read-only
    vbar: float                       # largest producible volume per hour [MWh]
    table: np.ndarray                 # (num_days, 141) observation rows, read-only

    def observation(self) -> np.ndarray:
        """Normalized state vector of 141 values, the table's row with the
        two battery levels filled in; the first 69 leave out the forecast
        block, and a policy without weather reads only those."""
        obs = self.table[self.day].copy()
        if math.isnan(obs[69]):
            raise ValueError(f"no forecast for day {self.day + 1} to observe")
        obs[48] = self.rel_charge
        obs[49] = self.est_midnight
        return obs


# What ``TradingEnv._net_hours`` appends to a collected day's trace, per hour
# and in this order, under the ``trace.csv`` column names where there is one;
# ``battery_level`` is the level at the end of the hour.
TRACE_FIELDS = ("buy_exec", "sell_exec", "consumption", "charge_input", "discharge",
                "uns_buy", "uns_sell", "battery_level", "cash_delta")
_TRACE_INDEX = {name: k for k, name in enumerate(TRACE_FIELDS)}


class BidRow(NamedTuple):
    """One bid of a collected day and whether its side traded in its hour."""

    hour: int
    side: str
    volume: float
    price: float
    accepted: bool


@dataclass
class DayResult:
    """One simulated delivery day, as ``TradingEnv.step`` produced it.

    The record keeps what the simulator already holds: the flat per-hour
    ``trace`` that ``TradingEnv._net_hours`` appends to (nine values an hour,
    in :data:`TRACE_FIELDS` order), the day's :class:`Schedule`, the charge
    at the start of the day, the reward, and the day's price and production
    rows, which it shares with the environment.
    :meth:`hourly` reads one quantity by name and :meth:`bid_rows` the bids.
    """

    day: int
    trace: list[float]
    schedule: Schedule
    start_charge: float
    reward: float                   # sum of cash deltas
    price_row: tuple[float, ...] = field(repr=False)
    production_row: tuple[float, ...] = field(repr=False)

    def hourly(self, name: str):
        """The 24 values of ``"price"`` or of a :data:`TRACE_FIELDS` quantity,
        as Python floats."""
        if name == "price":
            return self.price_row
        return self.trace[_TRACE_INDEX[name]::len(TRACE_FIELDS)]

    def bid_rows(self) -> list[tuple]:
        """``(hour, side, volume, price, accepted)`` of each bid, in
        ``bids.csv`` order; a bid is accepted when its side traded in its hour."""
        executed = {BUY: self.hourly("buy_exec"), SELL: self.hourly("sell_exec")}
        return [(hour, side, volume, price, executed[side][hour] != 0.0)
                for hour, side, volume, price in schedule_slots(self.schedule)]

    @cached_property
    def bid_outcomes(self) -> list[BidRow]:
        """:meth:`bid_rows` as :class:`BidRow` records, built when first read;
        the benchmark's bid counter reads them."""
        return list(map(BidRow._make, self.bid_rows()))


DAY_RESULT_HEADER = ("day", "hour", "price", "buy_exec", "sell_exec",
                     "uns_buy", "uns_sell", "battery_level", "cash_delta")
BID_OUTCOME_HEADER = ("day", "hour", "side", "volume", "price", "accepted")


_HOUR_TEXTS = tuple(map(str, range(HOURS_PER_DAY)))


def export_day_results(results: list[DayResult], path) -> None:
    """Write ``trace.csv``: one row per hour of each day, with the columns of
    :data:`DAY_RESULT_HEADER`; battery_level is the level at the end of the
    hour.  Each day's 24 lines are formatted from its record, every value by
    ``str``, which writes a float as the csv module does and a numpy scalar
    as the same number."""
    names = DAY_RESULT_HEADER[2:]
    write_lines(path, DAY_RESULT_HEADER, chain.from_iterable(
        map(",".join, zip(repeat(str(res.day)), _HOUR_TEXTS,
                          *[map(str, res.hourly(name)) for name in names]))
        for res in results))


def export_bid_outcomes(results: list[DayResult], path) -> None:
    """Write ``bids.csv``: one row per bid, day,hour,side,volume,price,accepted,
    from each day's :meth:`DayResult.bid_rows`.  Volumes and prices pass
    through ``float`` so that a numpy scalar prints as a number."""
    write_lines(path, BID_OUTCOME_HEADER, (
        f"{res.day},{hour},{side},{float(volume)!r},{float(price)!r},{int(accepted)}"
        for res in results for hour, side, volume, price, accepted in res.bid_rows()))


# ---------------------------------------------------------------------------
# The environment
# ---------------------------------------------------------------------------

class TradingEnv:
    """Replay-driven day-step trading environment.

    ``reset(start_day, rng, days)`` positions the simulation at the decision
    point on ``start_day - 1`` (with an empty inherited schedule), draws the
    consumption noise of ``days`` delivery days from ``rng``, plays out the
    decision day from the action hour, and returns the context for bidding
    on ``start_day``.  It refuses an episode unless every day from
    ``start_day - 1`` to ``start_day + days - 1`` has a forecast
    (:meth:`check_episode`), so every context inside an episode exists.
    Each ``step(schedule)`` clears a bid schedule against the next delivery
    day, simulates its 24 hours, and returns the next decision context, the
    day's profit and the day's :class:`DayResult`; after the last day the
    context is None when the tape has no forecast for the day after it, and
    stepping beyond ``days`` raises.  Both end with one pass from the action
    hour to midnight that also carries the midnight estimate of the context
    they return.
    The default price scale, the training split's mean price, must be
    positive: a split whose mean is 0 needs an explicit ``price_scale``.
    """

    def __init__(self, dataset: Dataset, config: EnvConfig | None = None):
        self.dataset = dataset
        self.config = config or EnvConfig()
        cfg = self.config
        # Tuples: collected day records share these rows with the environment.
        self._production_rows = list(map(tuple, hourly_production(
            dataset.cloudiness, dataset.wind_speed, cfg).tolist()))
        self._price_rows = list(map(tuple, dataset.prices.tolist()))
        self._zero_noise_consumption = (cfg.households
                                        * dataset.profile.avg_per_household).tolist()
        self._vbar = cfg.max_hourly_production
        self.price_scale = cfg.price_scale
        if cfg.price_scale is None:  # the mean price of the training split
            lo, hi = dataset.split.train if dataset.split is not None else (0, dataset.num_days)
            train_prices = dataset.prices[lo:hi]
            self.price_scale = float(train_prices.mean()) if train_prices.size else 0.0
            if not self.price_scale > 0:
                raise ValueError(f"the training split, days {lo}..{hi - 1}, has mean price "
                                 f"{self.price_scale}, which cannot normalize observations; "
                                 "set price_scale explicitly")
        # The observation table: row d holds day d's prices, the profile, 0
        # for the battery levels, day d's month and weekday, and day d + 1's
        # forecast block, or NaN where there is none.
        days = range(dataset.num_days)
        dates = list(map(dataset.date_of, days))
        table = np.zeros((dataset.num_days, observation_size(True)))
        table[:, 0:24] = dataset.prices / self.price_scale
        profile = dataset.profile.avg_per_household
        table[:, 24:48] = profile / (profile.max() or 1.0)  # an all-zero profile stays 0
        table[days, [50 + date.month - 1 for date in dates]] = 1.0
        table[days, [62 + date.weekday() for date in dates]] = 1.0
        table[:, 69:] = np.nan
        if dataset.has_forecasts:
            t_lo, t_hi = TEMPERATURE_RANGE
            table[:-1, 69:] = np.concatenate(
                [dataset.forecast_cloudiness / 8.0,
                 dataset.forecast_wind_speed / cfg.max_wind_speed,
                 (dataset.forecast_temperature - t_lo) / (t_hi - t_lo)], axis=1)[1:]
            self._forecast_production_rows = hourly_production(
                dataset.forecast_cloudiness, dataset.forecast_wind_speed, cfg).tolist()
        table.flags.writeable = False  # shared by every context
        self._observations = table
        # Whether day d has a forecast, from row d - 1; no episode reads day 0.
        self._forecast_ok = [False, *(~np.isnan(table[:, 69])).tolist()]
        self.charge = cfg.initial_charge * cfg.battery_capacity
        self._next_day: int | None = None
        self._tape_key = None  # (seed, start_day, days) of a tape drawn from an integer seed
        self._schedule = NO_BIDS  # the schedule being delivered ...
        self._schedule_prices = self._price_rows[0]  # ... and its day's clearing prices

    # -- episode control ----------------------------------------------------

    def reset(self, start_day: int, rng: np.random.Generator | int,
              days: int) -> DecisionContext:
        """Start an episode of ``days`` delivery days from ``start_day``,
        which :meth:`check_episode` must accept.

        Its consumption noise is drawn here in one call from ``rng``, a
        generator (used as is, so its stream continues as if drawn day by
        day) or an integer seed.  The tape of an integer seed is kept: a reset
        with the same seed, start and length reuses it, as every candidate of
        one optimization run does.
        """
        self.check_episode(start_day, days)
        cfg = self.config
        decision_day = start_day - 1
        key = (rng, start_day, days) if isinstance(rng, int) else None
        if key is None or key != self._tape_key:
            # Row 0: the decision day, simulated from the action hour; row k: delivery day k.
            rho = np.zeros((days + 1, HOURS_PER_DAY))
            rho.flat[cfg.action_hour:] = np.random.default_rng(rng).normal(
                0.0, cfg.consumption_noise_std, rho.size - cfg.action_hour)
            self._consumption_rows = np.multiply(self._zero_noise_consumption,
                                                 abs(1.0 + rho)).tolist()
            self._tape_key = key
        self._tape_day, self._end_day = decision_day, start_day + days
        self.charge = cfg.initial_charge * cfg.battery_capacity
        self._next_day = start_day
        self._schedule = NO_BIDS
        self._schedule_prices = self._price_rows[decision_day]
        # Play out the rest of the decision day with no scheduled bids, so the
        # realized midnight level follows the dynamics the estimator assumes.
        return self._finish_day(decision_day, self._production_rows[decision_day],
                                self._consumption_rows[0], None)[1]

    def check_episode(self, start_day: int, days: int) -> None:
        """Raise a ValueError unless an episode of ``days`` delivery days from
        ``start_day`` fits the dataset after :data:`FIRST_DELIVERY_DAY` and
        every day from its decision day ``start_day - 1`` to its last
        delivery day has a forecast; the first day without one is named,
        with its date."""
        if start_day < FIRST_DELIVERY_DAY:
            raise ValueError(f"start_day must be at least {FIRST_DELIVERY_DAY}")
        if not 0 <= days <= self.dataset.num_days - start_day:
            raise ValueError(f"an episode of {days} days from day {start_day} "
                             f"does not fit the dataset's {self.dataset.num_days} days")
        if not all(self._forecast_ok[start_day - 1:start_day + days]):
            gap = self._forecast_ok.index(False, start_day - 1)
            raise ValueError(f"no forecast available for day {gap} ({self.dataset.date_of(gap)}); "
                             f"{days} delivery days from day {start_day} need one on each day "
                             f"from {start_day - 1} to {start_day + days - 1}")

    def step(self, schedule, collect: bool = True
             ) -> tuple[DecisionContext | None, float, DayResult | None]:
        """Deliver ``schedule`` on the next day: a :class:`Schedule` as it is,
        any other checked by :func:`_check_schedule` and frozen to one.  With
        ``collect=False`` it keeps no trace and returns no :class:`DayResult`,
        which saves about a third of a collected day's cost."""
        if self._next_day is None:
            raise RuntimeError("call reset() before step()")
        day = self._next_day
        if day >= self._end_day:
            raise RuntimeError(f"the episode ended with day {self._end_day - 1}; "
                               "reset() the environment")
        if type(schedule) is not Schedule:  # not decoded by the package: check, then freeze
            _check_schedule(schedule)
            schedule = Schedule(map(tuple, schedule))
        trace = [] if collect else None
        self._schedule = schedule
        self._schedule_prices = self._price_rows[day]
        start_charge = self.charge
        production = self._production_rows[day]
        consumption = self._consumption_rows[day - self._tape_day]
        self.charge, reward, _ = self._net_hours(self.charge, 0, self.config.action_hour,
                                                 production, consumption, trace)
        cash, ctx = self._finish_day(day, production, consumption, trace)
        reward += cash
        result = DayResult(day, trace, schedule, start_charge, reward, self._price_rows[day],
                           production) if collect else None
        self._next_day = day + 1
        return ctx, reward, result

    # -- internals ----------------------------------------------------------

    def _net_hours(self, charge: float, hour_lo: int, hour_hi: int,
                   production: list[float], consumption: list[float],
                   trace: list | None, forecast: list[float] | None = None
                   ) -> tuple[float, float, float | None]:
        """Net one stretch of hours against the battery: the battery rule.

        Each hour ``h`` clears the schedule's bids -- a buy executes at the
        market price when its limit is not below it, a sell when its limit
        is not above it -- and nets ``production[h]`` and the executed trades
        against ``consumption[h]``.  A surplus charges the battery with losses
        on the way in, a deficit drains it; what the battery cannot absorb or
        supply is settled at the penalty prices.  Given a ``forecast``
        production row, a second, charge-only lane nets ``forecast[h]`` and
        the same cleared trades against the mean consumption, from the same
        charge: the midnight estimate.  Returns the final charge, the cash
        earned and the estimate lane's final charge (None without a
        ``forecast``); with a ``trace`` list, each hour appends its trades,
        flows, end level and cash in :data:`TRACE_FIELDS` order.
        """
        cfg = self.config
        capacity = cfg.battery_capacity
        eta = cfg.battery_efficiency
        buy_mult = cfg.penalty_buy_multiplier
        sell_mult = cfg.penalty_sell_multiplier
        prices = self._schedule_prices
        buy_vol, buy_limit, sell_vol, sell_limit = self._schedule
        mean_consumption = self._zero_noise_consumption
        estimate = charge
        cash = 0.0
        for h in range(hour_lo, hour_hi):
            price = prices[h]
            buy = buy_vol[h]
            if not (buy and buy_limit[h] >= price):
                buy = 0.0
            sell = sell_vol[h]
            if not (sell and sell_limit[h] <= price):
                sell = 0.0
            if forecast is not None:  # in this order: another grouping is not bit-safe
                delta = forecast[h] + buy - mean_consumption[h] - sell
                if delta >= 0.0:
                    headroom = (capacity - estimate) / eta
                    estimate = estimate + eta * (delta if delta <= headroom else headroom)
                    if estimate > capacity:
                        estimate = capacity
                elif -delta <= estimate:
                    estimate -= -delta
                else:
                    estimate = 0.0
            cons = consumption[h]
            delta = production[h] + buy - cons - sell
            if delta >= 0.0:
                discharge = uns_buy = 0.0
                headroom = (capacity - charge) / eta  # charge never exceeds capacity
                if delta <= headroom:
                    charge_in = delta
                    uns_sell = 0.0
                else:
                    charge_in = headroom
                    uns_sell = delta - headroom
                charge = charge + eta * charge_in
                if charge > capacity:
                    charge = capacity
            else:
                charge_in = uns_sell = 0.0
                deficit = -delta
                if deficit <= charge:
                    discharge = deficit
                    uns_buy = 0.0
                else:
                    discharge = charge
                    uns_buy = deficit - charge
                charge -= discharge
            hour_cash = (sell - buy) * price \
                + uns_sell * sell_mult * price \
                - uns_buy * buy_mult * price
            cash += hour_cash
            if trace is not None:
                trace += (buy, sell, cons, charge_in, discharge, uns_buy, uns_sell, charge, hour_cash)
        return charge, cash, None if forecast is None else estimate

    def _finish_day(self, day: int, production: list[float], consumption: list[float],
                    trace: list | None) -> tuple[float, DecisionContext | None]:
        """Net ``day`` from the action hour to midnight, with the estimate lane
        on the day's forecast, which the episode's coverage guarantees.
        Returns the cash and the context for bidding on ``day + 1``, or None
        when the tape has no forecast for ``day + 1``, which only the day
        after an episode can lack."""
        cfg = self.config
        start = self.charge
        forecast = self._forecast_production_rows[day] if self._forecast_ok[day + 1] else None
        self.charge, cash, estimate = self._net_hours(start, cfg.action_hour, HOURS_PER_DAY,
                                                      production, consumption, trace, forecast)
        if forecast is None:
            return cash, None
        return cash, DecisionContext(
            day, start / cfg.battery_capacity, estimate / cfg.battery_capacity,
            rolling_price_stats(self.dataset, day, cfg.price_stat_window), self._vbar,
            self._observations)

    def estimate_midnight_level(self, decision_day: int) -> float:
        """Projected relative battery level at the upcoming midnight, from the
        current charge and schedule: the battery rule from the action hour on,
        with the day's forecast production and the mean consumption.  Each
        context gets its estimate from the lane of :meth:`_net_hours`; this
        stays because ``perfbench`` traces it by name."""
        self.check_episode(decision_day + 1, 0)  # a forecast for the decision day
        charge, _, _ = self._net_hours(self.charge, self.config.action_hour, HOURS_PER_DAY,
                                       self._forecast_production_rows[decision_day],
                                       self._zero_noise_consumption, None)
        return charge / self.config.battery_capacity


# ---------------------------------------------------------------------------
# Reference balance
# ---------------------------------------------------------------------------

def reference_balance(dataset: Dataset, config: EnvConfig,
                      day_range: tuple[int, int]) -> float:
    """No-skill baseline over ``day_range``: daily net production valued at
    the day's average price, summed over days."""
    lo, hi = day_range
    if not 0 <= lo <= hi <= dataset.num_days:
        raise ValueError(f"day range ({lo}, {hi}) outside the dataset")
    production = hourly_production(dataset.cloudiness[lo:hi], dataset.wind_speed[lo:hi],
                                   config).sum(axis=1)
    daily_consumption = config.households * dataset.profile.avg_per_household.sum()
    mean_prices = dataset.prices[lo:hi].mean(axis=1)
    return float(((production - daily_consumption) * mean_prices).sum())
