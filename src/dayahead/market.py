"""Day-ahead market simulator for a battery-backed prosumer.

The environment replays recorded (or synthetic) prices and weather.  One
decision step covers one delivery day: bids for all 24 hours of day ``d+1``
are submitted at the scheduling time (10:30 am) of day ``d``, cleared against
the replayed prices, and the simulator then advances hour by hour through the
delivery day, netting production, consumption and executed bids against the
battery.  Residual energy the battery cannot absorb or supply is settled
immediately at penalty prices: forced buys at twice the market price, forced
sells at half of it.

Because the prosumer is assumed too small to move market prices, replaying
the price/weather tape while simulating only the battery gives an unbiased
evaluation of any bidding strategy.  The inner loops run on plain floats;
production tables, normalized observation blocks, the decision calendar and
rolling price medians are cached per dataset, and the consumption tape per
episode, which keeps a simulated day in the tens of microseconds.  Build one
:class:`TradingEnv` per dataset and configuration and reuse it: ``reset``
restarts an episode.

Each simulator rule lives in one place:

* production from weather, for actuals, forecasts and the reference
  balance: :func:`hourly_production`;
* battery netting and penalty settlement, for the simulated hours and the
  midnight estimate: ``TradingEnv._net_hours``;
* consumption ``households * profile * |1 + rho|``, with the noise drawn
  once per episode: the consumption tape built by ``TradingEnv.reset``;
* the per-hour rolling median price: :func:`rolling_price_stats`;
* volume rounding to the market step: :func:`round_volume`;
* the deliverable days of a day range: :func:`delivery_window`;
* the observation layout and size: :func:`observation_size`.

Strategies see the replay tape only through read-only views.  An episode's
only randomness is the consumption noise generator given to ``reset``.
"""
from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .data import (Dataset, HOURS_PER_DAY, OKTA_MAX, day_hour_columns, hour_by_hour,
                   write_columns)

BUY = "buy"
SELL = "sell"

MARKET_VOLUME_STEP = 0.1  # minimum tradeable volume [MWh]
FIRST_DELIVERY_DAY = 2  # after a decision day, which needs a forecast (from day 1)


def round_volume(volume: float) -> float:
    """Round a bid volume to the nearest 0.1 MWh, ties away from zero.

    Values below 0.05 (including negatives) collapse to 0.0, i.e. no bid.
    A volume too large to round becomes infinite instead of raising, so
    that it surfaces as a non-finite income, which optimizers rank worst.
    """
    if volume < 0.05:
        return 0.0
    try:
        return math.floor(volume * 10.0 + 0.5) / 10.0
    except OverflowError:
        return math.inf


@dataclass(slots=True)
class Bid:
    """One day-ahead bid: volume [MWh], limit price [currency/MWh], side, hour."""

    volume: float
    price: float
    side: str
    hour: int

    def validate(self) -> None:
        if self.side not in (BUY, SELL):
            raise ValueError(f"bid side must be {BUY!r} or {SELL!r}")
        if not 0 <= self.hour < HOURS_PER_DAY:
            raise ValueError(f"bid hour {self.hour} outside 0..23")
        if not (math.isfinite(self.volume) and self.volume >= 0):
            raise ValueError(f"bid volume {self.volume} must be finite and nonnegative")
        scaled = self.volume * 10.0
        if abs(scaled - math.floor(scaled + 0.5)) > 1e-6:
            raise ValueError(f"bid volume {self.volume} is not a multiple of 0.1 MWh")
        if not self.price >= 0:  # rejects NaN; +inf allowed as always-accept sentinel
            raise ValueError("bid price must be nonnegative")


def clear_bid(bid: Bid, clearing_price: float) -> bool:
    """Market acceptance rule for a single bid.

    A buy bid executes when its price is not below the clearing price, a sell
    bid when its price is not above it.  Zero-volume bids never execute.
    """
    if bid.volume == 0.0:
        return False
    if bid.side == BUY:
        return bid.price >= clearing_price
    return bid.price <= clearing_price


@dataclass(slots=True)
class BidOutcome:
    bid: Bid
    accepted: bool


@dataclass
class EnvConfig:
    """Environment parameters (battery, generation, prosumer scale, penalties)."""

    battery_capacity: float = 2.0        # MWh
    battery_efficiency: float = 0.85     # applied once, on charging
    max_solar_generation: float = 0.4    # MWh per hour at clear sky, before panel losses
    solar_efficiency: float = 0.2
    max_wind_generation: float = 0.05    # MWh per hour at cutoff wind speed
    max_wind_speed: float = 11.0         # m/s; turbines stop above this
    households: int = 100
    consumption_noise_std: float = 0.03
    action_hour: int = 10                # bids scheduled at 10:30 -> hour block 10
    price_stat_window: int = 28          # days for the per-hour rolling median
    penalty_buy_multiplier: float = 2.0
    penalty_sell_multiplier: float = 0.5
    initial_charge: float = 0.5          # starting battery level as a fraction of capacity
    price_scale: float | None = None     # observation normalization; None -> train-split mean
    temperature_range: tuple[float, float] = (-20.0, 40.0)

    def __post_init__(self) -> None:
        if self.battery_capacity <= 0:
            raise ValueError("battery capacity must be positive")
        if not 0 < self.battery_efficiency <= 1:
            raise ValueError("battery efficiency must lie in (0, 1]")
        if not 0 < self.solar_efficiency <= 1:
            raise ValueError("solar efficiency must lie in (0, 1]")
        if min(self.max_solar_generation, self.max_wind_generation, self.max_wind_speed) <= 0:
            raise ValueError("generation limits must be positive")
        if self.households < 0:
            raise ValueError("household count must be nonnegative")
        if not 0 <= self.initial_charge <= 1:
            raise ValueError("initial charge must be a fraction of capacity")

    @property
    def max_hourly_production(self) -> float:
        """Largest producible volume in one hour (clear sky, cutoff wind)."""
        return self.max_solar_generation * self.solar_efficiency + self.max_wind_generation


def delivery_window(day_range: tuple[int, int], days: int | None = None) -> tuple[int, int]:
    """The deliverable days of ``day_range``: none before
    :data:`FIRST_DELIVERY_DAY`, and at most ``days`` of them if given."""
    lo, hi = day_range
    lo = max(FIRST_DELIVERY_DAY, lo)
    return lo, hi if days is None else min(hi, lo + days)


def observation_size(include_weather: bool) -> int:
    """Length of :meth:`DecisionContext.observation`: 141, or 69 without weather."""
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

def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that raises on writes; the replay tape is handed
    to strategies only through such views."""
    view = array.view()
    view.flags.writeable = False
    return view


def rolling_price_stats(dataset: Dataset, day_index: int, window: int = 28) -> np.ndarray:
    """Median price of each hour over the ``window`` days before ``day_index``.

    During warm-up (fewer than ``window`` prior days) all available history is
    used; an even count takes the mean of the two middle values.  The day
    itself is excluded, so day 0 has no history at all.  Rows are computed
    once per dataset and handed out as read-only views of the cache.
    """
    cached = dataset._pbar_cache.get(window)
    if cached is None:
        table = np.full((dataset.num_days, HOURS_PER_DAY), np.nan)
        cached = dataset._pbar_cache[window] = (table, _read_only(table))
    table, view = cached
    if math.isnan(table[day_index, 0]):
        if day_index <= 0:
            raise ValueError("no price history before day 0; start after at least one warm-up day")
        lo = max(0, day_index - window)
        table[day_index] = np.median(dataset.prices[lo:day_index], axis=0)
    return view[day_index]


# ---------------------------------------------------------------------------
# Decision context (observation) and day results
# ---------------------------------------------------------------------------

@dataclass
class DecisionContext:
    """Everything a strategy may look at when bidding for the next day.

    Snapshotted at the scheduling time of ``day``; the bids produced from it
    are for delivery day ``day + 1``.
    """

    day: int
    date: dt.date
    prices_today: np.ndarray          # (24,) prices of the decision day
    rel_charge: float                 # battery level at the decision snapshot / capacity
    est_midnight: float               # projected relative level at midnight
    month_index: int                  # 0..11
    weekday: int                      # 0 = Monday
    pbar: np.ndarray                  # (24,) rolling per-hour median price
    vbar: float                       # max producible volume per hour
    profile: np.ndarray               # (24,) per-household consumption profile
    households: int
    _prices_norm: np.ndarray          # (24,) prices_today / price_scale
    _profile_norm: np.ndarray         # (24,) profile / max(profile)
    _forecast_norm: np.ndarray | None # (72,) normalized forecast block

    def observation(self, include_weather: bool = True) -> np.ndarray:
        """Normalized state vector: 141 values, or 69 without the forecast block."""
        obs = np.zeros(observation_size(include_weather))
        obs[0:24] = self._prices_norm
        obs[24:48] = self._profile_norm
        obs[48] = self.rel_charge
        obs[49] = self.est_midnight
        obs[50 + self.month_index] = 1.0
        obs[62 + self.weekday] = 1.0
        if include_weather:
            if self._forecast_norm is None:
                raise ValueError("weather observation requested but no forecast block present")
            obs[69:] = self._forecast_norm
        return obs


@dataclass
class DayResult:
    """Full trace of one simulated delivery day."""

    day: int
    prices: np.ndarray            # (24,) clearing prices
    bid_outcomes: list[BidOutcome]
    buy_volumes: np.ndarray       # (24,) executed purchase volume per hour
    sell_volumes: np.ndarray      # (24,) executed sale volume per hour
    production: np.ndarray        # (24,) MWh generated
    consumption: np.ndarray       # (24,) MWh consumed
    charge_input: np.ndarray      # (24,) MWh fed into the battery (before losses)
    discharge: np.ndarray         # (24,) MWh drawn from the battery
    unscheduled_buys: np.ndarray  # (24,) forced purchases at 2x price
    unscheduled_sells: np.ndarray # (24,) forced sales at 0.5x price
    battery_trace: np.ndarray     # (25,) level at each hour boundary
    cash_deltas: np.ndarray       # (24,) per-hour profit
    reward: float                 # sum of cash deltas


DAY_RESULT_HEADER = ("day", "hour", "price", "buy_exec", "sell_exec",
                     "uns_buy", "uns_sell", "battery_level", "cash_delta")
BID_OUTCOME_HEADER = ("day", "hour", "side", "volume", "price", "accepted")


def hourly_columns(results: list[DayResult], *names: str) -> list:
    """Day, hour and the named arrays of ``results`` as columns for
    :func:`~dayahead.data.write_columns`, one item per hour; of each array
    the last 24 values, so the end-of-hour levels of ``battery_trace``."""
    return [*day_hour_columns([res.day for res in results]),
            *(hour_by_hour([getattr(res, name)[-HOURS_PER_DAY:] for res in results])
              for name in names)]


def export_day_results(results: list[DayResult], path) -> None:
    """Write per-hour traces; battery_level is the level at the end of the hour."""
    write_columns(path, DAY_RESULT_HEADER, hourly_columns(
        results, "prices", "buy_volumes", "sell_volumes", "unscheduled_buys",
        "unscheduled_sells", "battery_trace", "cash_deltas"))


def export_bid_outcomes(results: list[DayResult], path) -> None:
    """Write one row per bid: day,hour,side,volume,price,accepted."""
    def column(value):
        return (value(res, outcome) for res in results for outcome in res.bid_outcomes)

    write_columns(path, BID_OUTCOME_HEADER, [
        column(lambda res, o: res.day), column(lambda res, o: o.bid.hour),
        column(lambda res, o: o.bid.side), column(lambda res, o: float(o.bid.volume)),
        column(lambda res, o: float(o.bid.price)), column(lambda res, o: int(o.accepted)),
    ])


# ---------------------------------------------------------------------------
# The environment
# ---------------------------------------------------------------------------

class TradingEnv:
    """Replay-driven day-step trading environment.

    ``reset(start_day, rng, days)`` positions the simulation at the decision
    point on ``start_day - 1`` (with an empty inherited schedule), draws the
    consumption noise of ``days`` delivery days from ``rng``, and returns the
    context for bidding on ``start_day``.  Each ``step(bids)`` clears the
    bids against the next delivery day, simulates its 24 hours, and returns
    the next decision context, the day's profit, the full :class:`DayResult`
    and ``done``, signalled when the replay tape runs out of forecast data
    for the next decision; stepping beyond ``days`` raises.  ``collect=False``
    skips the per-day trace, which roughly halves the cost of rollouts.
    """

    def __init__(self, dataset: Dataset, config: EnvConfig | None = None):
        self.dataset = dataset
        self.config = config or EnvConfig()
        cfg = self.config
        self._production = hourly_production(dataset.cloudiness, dataset.wind_speed, cfg)
        self._production_rows = self._production.tolist()
        self._price_rows = dataset.prices.tolist()
        self._profile = _read_only(dataset.profile.avg_per_household)
        self._zero_noise_consumption = (cfg.households
                                        * dataset.profile.avg_per_household).tolist()
        self._price_scale = cfg.price_scale or self._default_price_scale()
        profile_max = dataset.profile.avg_per_household.max()
        self._profile_norm = _read_only(dataset.profile.avg_per_household / profile_max
                                       if profile_max > 0 else np.zeros(HOURS_PER_DAY))
        # The decision calendar and the read-only rows each context hands out.
        self._calendar = [(date, date.month - 1, date.weekday())
                          for date in map(dataset.date_of, range(dataset.num_days))]
        self._price_views = list(_read_only(dataset.prices))
        self._prices_norm_views = list(_read_only(dataset.prices / self._price_scale))
        self._forecast_ok = [dataset.forecast_available(d) for d in range(dataset.num_days)]
        self._forecast_ok.append(False)  # sentinel for day num_days
        self._forecast_views = [None] * len(self._forecast_ok)  # None: no forecast that day
        if dataset.has_forecasts:
            t_lo, t_hi = cfg.temperature_range
            forecast_norm = _read_only(np.concatenate(
                [
                    dataset.forecast_cloudiness / 8.0,
                    dataset.forecast_wind_speed / cfg.max_wind_speed,
                    (dataset.forecast_temperature - t_lo) / (t_hi - t_lo),
                ],
                axis=1,
            ))
            self._forecast_views[:-1] = [row if ok else None for row, ok
                                         in zip(forecast_norm, self._forecast_ok)]
            self._forecast_production_rows = hourly_production(
                dataset.forecast_cloudiness, dataset.forecast_wind_speed, cfg).tolist()
        else:
            self._forecast_production_rows = None
        self.charge = cfg.initial_charge * cfg.battery_capacity
        self._next_day: int | None = None
        self._schedule_buys = [0.0] * HOURS_PER_DAY
        self._schedule_sells = [0.0] * HOURS_PER_DAY

    def _default_price_scale(self) -> float:
        split = self.dataset.split
        if split is not None:
            lo, hi = split.train
            return float(self.dataset.prices[lo:hi].mean())
        return float(self.dataset.prices.mean())

    @property
    def price_scale(self) -> float:
        return self._price_scale

    # -- episode control ----------------------------------------------------

    def reset(self, start_day: int, rng: np.random.Generator | int,
              days: int) -> DecisionContext:
        """Start an episode of ``days`` delivery days from ``start_day``.

        Needs one prior day for the decision context and a forecast for that
        prior day (forecasts exist from day 1), so ``start_day >= 2``; the
        episode must end within the dataset.  Its consumption noise is drawn
        here in one call from ``rng``, a generator (used as is, so its stream
        continues as if drawn day by day) or an integer seed.
        """
        if start_day < FIRST_DELIVERY_DAY:
            raise ValueError(f"start_day must be at least {FIRST_DELIVERY_DAY}")
        if not 0 <= days <= self.dataset.num_days - start_day:
            raise ValueError(f"an episode of {days} days from day {start_day} "
                             f"does not fit the dataset's {self.dataset.num_days} days")
        if not self.dataset.forecast_available(start_day):
            raise ValueError(f"no forecast for day {start_day}; generate forecasts first")
        cfg = self.config
        decision_day = start_day - 1
        # Row 0 of the tape is the decision day, of which only the hours
        # from the action hour on are simulated; row k is the k-th delivery day.
        rho = np.zeros((days + 1, HOURS_PER_DAY))
        rho.flat[cfg.action_hour:] = np.random.default_rng(rng).normal(
            0.0, cfg.consumption_noise_std, rho.size - cfg.action_hour)
        self._consumption_rows = np.multiply(self._zero_noise_consumption, abs(1.0 + rho)).tolist()
        self._tape_day, self._end_day = decision_day, start_day + days
        self.charge = cfg.initial_charge * cfg.battery_capacity
        self._next_day = start_day
        self._schedule_buys = [0.0] * HOURS_PER_DAY
        self._schedule_sells = [0.0] * HOURS_PER_DAY
        ctx = self._build_context(decision_day)
        # Play out the remainder of the decision day with no scheduled bids so
        # the realized midnight level follows the same dynamics the estimator
        # assumes.
        self.charge, _ = self._net_hours(self.charge, decision_day, cfg.action_hour,
                                         HOURS_PER_DAY, self._production_rows[decision_day],
                                         self._consumption_rows[0], None)
        return ctx

    def step(self, bids: list[Bid], collect: bool = True, trusted: bool = False
             ) -> tuple[DecisionContext | None, float, DayResult | None, bool]:
        if self._next_day is None:
            raise RuntimeError("call reset() before step()")
        day = self._next_day
        if day >= self._end_day:
            raise RuntimeError(f"the episode ended with day {self._end_day - 1}; "
                               "reset() the environment")
        prices = self._price_rows[day]

        outcomes: list[BidOutcome] = []
        buy_vol = [0.0] * HOURS_PER_DAY
        sell_vol = [0.0] * HOURS_PER_DAY
        for bid in bids:
            if not trusted:
                bid.validate()
            if bid.volume == 0.0:
                continue
            price = prices[bid.hour]
            if bid.side == BUY:
                accepted = bid.price >= price
                if accepted:
                    buy_vol[bid.hour] += bid.volume
            else:
                accepted = bid.price <= price
                if accepted:
                    sell_vol[bid.hour] += bid.volume
            if collect:
                outcomes.append(BidOutcome(bid, accepted))

        if collect:
            result = DayResult(
                day=day,
                prices=self.dataset.prices[day].copy(),
                bid_outcomes=outcomes,
                buy_volumes=np.array(buy_vol),
                sell_volumes=np.array(sell_vol),
                production=self._production[day].copy(),
                consumption=np.zeros(HOURS_PER_DAY),
                charge_input=np.zeros(HOURS_PER_DAY),
                discharge=np.zeros(HOURS_PER_DAY),
                unscheduled_buys=np.zeros(HOURS_PER_DAY),
                unscheduled_sells=np.zeros(HOURS_PER_DAY),
                battery_trace=np.zeros(HOURS_PER_DAY + 1),
                cash_deltas=np.zeros(HOURS_PER_DAY),
                reward=0.0,
            )
            result.battery_trace[0] = self.charge
        else:
            result = None

        action_hour = self.config.action_hour
        production = self._production_rows[day]
        consumption = self._consumption_rows[day - self._tape_day]
        self._schedule_buys = buy_vol
        self._schedule_sells = sell_vol
        self.charge, reward = self._net_hours(self.charge, day, 0, action_hour, production,
                                              consumption, result)

        # Decision snapshot for the *next* delivery day, taken mid-delivery.
        done = not self._forecast_ok[day + 1]
        ctx = None if done else self._build_context(day)

        self.charge, cash = self._net_hours(self.charge, day, action_hour, HOURS_PER_DAY,
                                            production, consumption, result)
        reward += cash
        if result is not None:
            result.reward = reward
        self._next_day = day + 1
        return ctx, reward, result, done

    @property
    def next_delivery_day(self) -> int | None:
        return self._next_day

    # -- internals ----------------------------------------------------------

    def _net_hours(self, charge: float, day: int, hour_lo: int, hour_hi: int,
                   production: list[float], consumption: list[float],
                   result: DayResult | None) -> tuple[float, float]:
        """Net one stretch of hours against the battery; the only battery rule.

        Each hour ``h`` nets ``production[h]`` and the scheduled trades of
        ``day`` against ``consumption[h]``.  A surplus charges the battery
        with losses on the way in, a deficit drains it; what the battery
        cannot absorb or supply is settled at the penalty prices.  Returns
        the final charge and the cash earned.  The simulator passes actual
        production and a row of the consumption tape, the midnight estimate
        forecast production and the zero-noise consumption row.
        """
        cfg = self.config
        capacity = cfg.battery_capacity
        eta = cfg.battery_efficiency
        buy_mult = cfg.penalty_buy_multiplier
        sell_mult = cfg.penalty_sell_multiplier
        prices = self._price_rows[day]
        buy_vol = self._schedule_buys
        sell_vol = self._schedule_sells
        cash = 0.0
        for h in range(hour_lo, hour_hi):
            cons = consumption[h]
            buy = buy_vol[h]
            sell = sell_vol[h]
            price = prices[h]
            delta = production[h] + buy - cons - sell
            if delta >= 0.0:
                discharge = uns_buy = 0.0
                headroom = (capacity - charge) / eta
                if headroom < 0.0:
                    headroom = 0.0
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
            if result is not None:
                result.consumption[h] = cons
                result.charge_input[h] = charge_in
                result.discharge[h] = discharge
                result.unscheduled_buys[h] = uns_buy
                result.unscheduled_sells[h] = uns_sell
                result.cash_deltas[h] = hour_cash
                result.battery_trace[h + 1] = charge
        return charge, cash

    def _build_context(self, decision_day: int) -> DecisionContext:
        cfg = self.config
        date, month_index, weekday = self._calendar[decision_day]
        return DecisionContext(
            day=decision_day,
            date=date,
            prices_today=self._price_views[decision_day],
            rel_charge=self.charge / cfg.battery_capacity,
            est_midnight=self.estimate_midnight_level(decision_day),
            month_index=month_index,
            weekday=weekday,
            pbar=rolling_price_stats(self.dataset, decision_day, cfg.price_stat_window),
            vbar=cfg.max_hourly_production,
            profile=self._profile,
            households=cfg.households,
            _prices_norm=self._prices_norm_views[decision_day],
            _profile_norm=self._profile_norm,
            _forecast_norm=self._forecast_views[decision_day + 1],
        )

    def estimate_midnight_level(self, decision_day: int) -> float:
        """Projected relative battery level at the upcoming midnight.

        Runs the battery rule over the remaining hours of the decision day
        with the already cleared bid schedule, production implied by the
        day's weather forecast, and consumption at its mean (zero noise).
        """
        if self._forecast_production_rows is None or not self._forecast_ok[decision_day]:
            raise ValueError(f"no forecast available for day {decision_day}")
        charge, _ = self._net_hours(self.charge, decision_day, self.config.action_hour,
                                    HOURS_PER_DAY, self._forecast_production_rows[decision_day],
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
