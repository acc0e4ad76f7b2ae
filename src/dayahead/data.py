"""Hourly market/weather/consumption series: loading, synthesis, forecasts, splits.

The central container is :class:`Dataset`, a gap-free hourly record of
day-ahead prices, weather actuals (cloudiness in Oktas, wind speed,
temperature), an optional block of next-day weather forecasts, and a 24-hour
average consumption profile per household.  Everything downstream treats a
``Dataset`` as an immutable replay tape.

Real price/weather data can be loaded from CSV (see the schemas next to the
``load_dataset`` / ``write_dataset`` pair).  When no real data is at hand,
``generate_synthetic_dataset`` produces a seeded artificial market with the
qualitative structure trading strategies care about: a double-peaked daily
price shape (cheap nights, expensive mornings and evenings), weekend and
seasonal modulation, and prices coupled to the weather that also drives the
prosumer's own production.
"""
from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field, replace

import numpy as np

OKTA_MAX = 8
HOURS_PER_DAY = 24

# Forecast deviation walk, indexed from the 10 am issuance of the previous
# day: step t=1 is 11 am, t=14 is midnight of the target day, t=37 is 11 pm.
FORECAST_WALK_STEPS = 37
FORECAST_TARGET_LO = 14
FORECAST_TARGET_HI = 37


class DataError(ValueError):
    """A dataset file or record violates the schema or a domain invariant."""


def _check_finite(values: np.ndarray, what: str, start_date: dt.date) -> None:
    """Raise a DataError naming the first non-finite hour of a (days, 24) array."""
    bad = ~np.isfinite(values)
    if bad.any():
        day, hour = (int(i) for i in np.argwhere(bad)[0])
        raise DataError(f"{what}: non-finite value on {start_date + dt.timedelta(days=day)} "
                        f"(day {day}) hour {hour}")


@dataclass(frozen=True)
class HourlyRecord:
    """One hour of actual market and weather data."""

    date: dt.date
    hour: int
    price: float
    cloudiness: int
    wind_speed: float
    temperature: float


@dataclass
class ConsumptionProfile:
    """Average consumption per household for each hour of the day [MWh]."""

    avg_per_household: np.ndarray

    def __post_init__(self) -> None:
        self.avg_per_household = np.asarray(self.avg_per_household, dtype=float)
        if self.avg_per_household.shape != (HOURS_PER_DAY,):
            raise DataError("consumption profile must have exactly 24 hourly values")
        if np.any(self.avg_per_household < 0):
            raise DataError("consumption profile values must be nonnegative")


@dataclass(frozen=True)
class SplitBoundaries:
    """Half-open day-index ranges for train/validation/test."""

    train: tuple[int, int]
    validation: tuple[int, int]
    test: tuple[int, int]

    def ranges(self) -> tuple[tuple[int, int], ...]:
        return (self.train, self.validation, self.test)


@dataclass
class Dataset:
    """Aligned hourly series over consecutive calendar days.

    All per-hour arrays have shape ``(num_days, 24)``.  Forecast arrays hold
    NaN for days that have no forecast (at least day 0, whose forecast would
    have been issued before the data starts).
    """

    start_date: dt.date
    prices: np.ndarray
    cloudiness: np.ndarray
    wind_speed: np.ndarray
    temperature: np.ndarray
    profile: ConsumptionProfile
    forecast_cloudiness: np.ndarray | None = None
    forecast_wind_speed: np.ndarray | None = None
    forecast_temperature: np.ndarray | None = None
    split: SplitBoundaries | None = None
    # raw pre-clip forecast deviations, kept only when make_forecasts is asked to
    forecast_deviations: dict[str, np.ndarray] | None = None

    def __post_init__(self) -> None:
        self.prices = np.asarray(self.prices, dtype=float)
        self.cloudiness = np.asarray(self.cloudiness)
        self.wind_speed = np.asarray(self.wind_speed, dtype=float)
        self.temperature = np.asarray(self.temperature, dtype=float)
        shape = self.prices.shape
        if len(shape) != 2 or shape[1] != HOURS_PER_DAY:
            raise DataError("price array must have shape (num_days, 24)")
        for name in ("prices", "cloudiness", "wind_speed", "temperature"):
            if getattr(self, name).shape != shape:
                raise DataError(f"{name} array shape differs from prices")
            _check_finite(getattr(self, name), name, self.start_date)
        if np.any(self.prices < 0):
            raise DataError("prices must be nonnegative")
        if np.any((self.cloudiness < 0) | (self.cloudiness > OKTA_MAX)):
            raise DataError(f"cloudiness must lie in 0..{OKTA_MAX}")
        if np.any(self.wind_speed < 0):
            raise DataError("wind speed must be nonnegative")
        self._weekdays = np.array(
            [(self.start_date + dt.timedelta(days=i)).weekday() for i in range(shape[0])],
            dtype=int,
        )
        self._months = np.array(
            [(self.start_date + dt.timedelta(days=i)).month for i in range(shape[0])],
            dtype=int,
        )
        self._pbar_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def num_days(self) -> int:
        return self.prices.shape[0]

    def date_of(self, day: int) -> dt.date:
        return self.start_date + dt.timedelta(days=int(day))

    def day_of(self, date: dt.date) -> int:
        return (date - self.start_date).days

    def weekday_of(self, day: int) -> int:
        return int(self._weekdays[day])

    def month_of(self, day: int) -> int:
        return int(self._months[day])

    @property
    def has_forecasts(self) -> bool:
        return self.forecast_cloudiness is not None

    def forecast_available(self, day: int) -> bool:
        if not self.has_forecasts or not 0 <= day < self.num_days:
            return False
        return not math.isnan(self.forecast_cloudiness[day, 0])

    def forecast_block(self, day: int) -> np.ndarray:
        """(3, 24) array of cloudiness/wind/temperature forecasts for ``day``."""
        if not self.forecast_available(day):
            raise DataError(f"no forecast available for day {day}")
        return np.stack(
            [
                self.forecast_cloudiness[day],
                self.forecast_wind_speed[day],
                self.forecast_temperature[day],
            ]
        )

    def iter_records(self):
        for day in range(self.num_days):
            date = self.date_of(day)
            for hour in range(HOURS_PER_DAY):
                yield HourlyRecord(
                    date=date,
                    hour=hour,
                    price=float(self.prices[day, hour]),
                    cloudiness=int(self.cloudiness[day, hour]),
                    wind_speed=float(self.wind_speed[day, hour]),
                    temperature=float(self.temperature[day, hour]),
                )

    def content_hash(self) -> str:
        """Stable hash of the replayed content, for run manifests."""
        import hashlib

        h = hashlib.sha256()
        h.update(self.start_date.isoformat().encode())
        for arr in (self.prices, self.cloudiness.astype(float), self.wind_speed,
                    self.temperature, self.profile.avg_per_household):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        if self.has_forecasts:
            for arr in (self.forecast_cloudiness, self.forecast_wind_speed,
                        self.forecast_temperature):
                h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# CSV I/O
#
# prices.csv    date,hour,price
# weather.csv   date,hour,cloudiness,wind_speed,temperature
# profile.csv   hour,avg_consumption_mwh
# forecasts.csv issue_date,target_date,target_hour,cloudiness,wind_speed,temperature
# ---------------------------------------------------------------------------

def _parse_date(text: str, path, line: int) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"{path}:{line}: bad date {text!r}") from exc


def _read_hourly_csv(path, value_columns: list[str]):
    """Read a date/hour keyed CSV into (start_date, {col: (days, 24) array}).

    Rows must be sorted by (date, hour) and form a gap-free hourly grid; the
    first missing slot is reported by date, day index, and hour.
    """
    rows: list[tuple[dt.date, int, list[str]]] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ["date", "hour", *value_columns] if c not in (reader.fieldnames or [])]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        for i, row in enumerate(reader, start=2):
            date = _parse_date(row["date"], path, i)
            try:
                hour = int(row["hour"])
            except ValueError as exc:
                raise DataError(f"{path}:{i}: bad hour {row['hour']!r}") from exc
            rows.append((date, hour, [row[c] for c in value_columns]))
    if not rows:
        raise DataError(f"{path}: no data rows")

    start_date = rows[0][0]
    num_days = (rows[-1][0] - start_date).days + 1
    arrays = {c: np.full((num_days, HOURS_PER_DAY), np.nan) for c in value_columns}
    expected = 0
    for date, hour, values in rows:
        day = (date - start_date).days
        slot = day * HOURS_PER_DAY + hour
        if slot != expected:
            exp_day, exp_hour = divmod(expected, HOURS_PER_DAY)
            exp_date = start_date + dt.timedelta(days=exp_day)
            raise DataError(
                f"{path}: gap in hourly sequence, missing {exp_date} "
                f"(day {exp_day}) hour {exp_hour}"
            )
        for col, value in zip(value_columns, values):
            try:
                arrays[col][day, hour] = float(value)
            except ValueError as exc:
                raise DataError(f"{path}: bad value {value!r} for {col} on {date} hour {hour}") from exc
        expected += 1
    if expected != num_days * HOURS_PER_DAY:
        exp_day, exp_hour = divmod(expected, HOURS_PER_DAY)
        raise DataError(
            f"{path}: gap in hourly sequence, missing "
            f"{start_date + dt.timedelta(days=exp_day)} (day {exp_day}) hour {exp_hour}"
        )
    for col, values in arrays.items():
        _check_finite(values, f"{path}: {col}", start_date)
    return start_date, arrays


def load_dataset(price_path, weather_path, profile_path, forecast_path=None) -> Dataset:
    """Load and validate a dataset from its CSV files.

    Forecasts are optional; without ``forecast_path`` the returned dataset has
    no forecast block and one can be generated later with ``make_forecasts``.
    """
    price_start, price_arrays = _read_hourly_csv(price_path, ["price"])
    weather_start, weather_arrays = _read_hourly_csv(
        weather_path, ["cloudiness", "wind_speed", "temperature"]
    )
    if price_start != weather_start or price_arrays["price"].shape != weather_arrays["cloudiness"].shape:
        raise DataError("price and weather files cover different day ranges")

    cloud = weather_arrays["cloudiness"]
    if np.any(cloud != np.round(cloud)):
        bad = np.argwhere(cloud != np.round(cloud))[0]
        raise DataError(
            f"{weather_path}: cloudiness must be an integer Okta value "
            f"(day {bad[0]}, hour {bad[1]})"
        )
    cloud = cloud.astype(int)
    if np.any((cloud < 0) | (cloud > OKTA_MAX)):
        bad = np.argwhere((cloud < 0) | (cloud > OKTA_MAX))[0]
        raise DataError(
            f"{weather_path}: cloudiness {cloud[bad[0], bad[1]]} outside 0..{OKTA_MAX} "
            f"(day {bad[0]}, hour {bad[1]})"
        )

    profile = np.full(HOURS_PER_DAY, np.nan)
    with open(profile_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not reader.fieldnames or "hour" not in reader.fieldnames or "avg_consumption_mwh" not in reader.fieldnames:
            raise DataError(f"{profile_path}: expected columns hour,avg_consumption_mwh")
        for i, row in enumerate(reader, start=2):
            hour = int(row["hour"])
            if not 0 <= hour < HOURS_PER_DAY:
                raise DataError(f"{profile_path}:{i}: hour {hour} outside 0..23")
            profile[hour] = float(row["avg_consumption_mwh"])
    if np.any(np.isnan(profile)):
        raise DataError(f"{profile_path}: profile must define all 24 hours")

    dataset = Dataset(
        start_date=price_start,
        prices=price_arrays["price"],
        cloudiness=cloud,
        wind_speed=weather_arrays["wind_speed"],
        temperature=weather_arrays["temperature"],
        profile=ConsumptionProfile(profile),
    )
    if forecast_path is not None:
        _load_forecasts_into(dataset, forecast_path)
    return dataset


def _load_forecasts_into(dataset: Dataset, path) -> None:
    """Read the forecast block; each forecast day must have all 24 hours."""
    names = ("cloudiness", "wind_speed", "temperature")
    days, hours, values = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = ["issue_date", "target_date", "target_hour", "cloudiness", "wind_speed", "temperature"]
        if any(c not in (reader.fieldnames or []) for c in needed):
            raise DataError(f"{path}: expected columns {','.join(needed)}")
        for i, row in enumerate(reader, start=2):
            issue = _parse_date(row["issue_date"], path, i)
            target = _parse_date(row["target_date"], path, i)
            if (target - issue).days != 1:
                raise DataError(f"{path}:{i}: forecasts must be issued one day ahead")
            day = dataset.day_of(target)
            hour = int(row["target_hour"])
            if not 0 <= day < dataset.num_days:
                raise DataError(f"{path}:{i}: target date {target} outside the dataset")
            if not 0 <= hour < HOURS_PER_DAY:
                raise DataError(f"{path}:{i}: target hour {hour} outside 0..23")
            days.append(day)
            hours.append(hour)
            values.append([float(row[name]) for name in names])
    table = np.array(values, dtype=float).reshape(-1, len(names))
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise DataError(f"{path}:{int(np.argmax(bad)) + 2}: non-finite forecast value")
    fc = np.full((len(names), *dataset.prices.shape), np.nan)
    fc[:, days, hours] = table.T
    seen = ~np.isnan(fc[0])
    partial = np.flatnonzero(seen.any(axis=1) & ~seen.all(axis=1))
    if partial.size:
        raise DataError(f"{path}: forecasts for {dataset.date_of(partial[0])} miss "
                        f"hour {int(np.argmin(seen[partial[0]]))}")
    dataset.forecast_cloudiness, dataset.forecast_wind_speed, dataset.forecast_temperature = fc


def write_dataset(dataset: Dataset, out_dir) -> list[str]:
    """Write the dataset CSVs into ``out_dir``; returns the written paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = []

    path = os.path.join(out_dir, "prices.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "hour", "price"])
        for day in range(dataset.num_days):
            date = dataset.date_of(day).isoformat()
            for hour in range(HOURS_PER_DAY):
                w.writerow([date, hour, repr(float(dataset.prices[day, hour]))])
    paths.append(path)

    path = os.path.join(out_dir, "weather.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "hour", "cloudiness", "wind_speed", "temperature"])
        for day in range(dataset.num_days):
            date = dataset.date_of(day).isoformat()
            for hour in range(HOURS_PER_DAY):
                w.writerow([
                    date, hour,
                    int(dataset.cloudiness[day, hour]),
                    repr(float(dataset.wind_speed[day, hour])),
                    repr(float(dataset.temperature[day, hour])),
                ])
    paths.append(path)

    path = os.path.join(out_dir, "profile.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["hour", "avg_consumption_mwh"])
        for hour in range(HOURS_PER_DAY):
            w.writerow([hour, repr(float(dataset.profile.avg_per_household[hour]))])
    paths.append(path)

    if dataset.has_forecasts:
        path = os.path.join(out_dir, "forecasts.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["issue_date", "target_date", "target_hour",
                        "cloudiness", "wind_speed", "temperature"])
            for day in range(dataset.num_days):
                if not dataset.forecast_available(day):
                    continue
                issue = dataset.date_of(day - 1).isoformat()
                target = dataset.date_of(day).isoformat()
                for hour in range(HOURS_PER_DAY):
                    w.writerow([
                        issue, target, hour,
                        repr(float(dataset.forecast_cloudiness[day, hour])),
                        repr(float(dataset.forecast_wind_speed[day, hour])),
                        repr(float(dataset.forecast_temperature[day, hour])),
                    ])
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Synthetic market generator
# ---------------------------------------------------------------------------

# Additive daily price shapes [currency/MWh].  The realized shape each day is
# a seasonal blend: winter days show a deep night trough with morning and
# early-evening demand peaks, summer days a midday solar dip with a late
# evening peak.  Peak hours therefore migrate through the year, so no fixed
# set of buy/sell hours is good year-round.
DEFAULT_WINTER_SHAPE = (
    -55.0, -60.0, -62.0, -58.0, -45.0, -18.0,
    8.0, 32.0, 45.0, 40.0, 28.0, 18.0,
    14.0, 12.0, 14.0, 22.0, 38.0, 55.0,
    52.0, 38.0, 22.0, 8.0, -12.0, -35.0,
)
DEFAULT_SUMMER_SHAPE = (
    -38.0, -42.0, -44.0, -42.0, -35.0, -22.0,
    -5.0, 8.0, 12.0, 2.0, -12.0, -22.0,
    -28.0, -30.0, -26.0, -16.0, -2.0, 12.0,
    26.0, 38.0, 44.0, 40.0, 18.0, -12.0,
)

# Relative household consumption by hour; normalized so that the daily total
# matches `household_daily_kwh`. Evening-peaked, low at night.
DEFAULT_PROFILE_SHAPE = (
    0.13, 0.11, 0.10, 0.10, 0.11, 0.14,
    0.22, 0.28, 0.26, 0.22, 0.20, 0.20,
    0.21, 0.20, 0.20, 0.22, 0.26, 0.34,
    0.42, 0.46, 0.44, 0.38, 0.28, 0.18,
)

MIN_SYNTHETIC_DAYS = 56  # two 28-day price-statistic warm-up windows


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic market generator.

    The coupling coefficients tie hourly prices to the same weather that
    drives the prosumer's production: cloudy hours are more expensive (less
    solar supply), windy hours cheaper, and temperature extremes add heating
    or cooling demand.  Day-level price shocks persist across days, so the
    current day's prices carry information about the next day's level.
    Setting couplings and shock persistence to zero gives a memoryless,
    weather-independent market.
    """

    start_date: dt.date = dt.date(2016, 1, 1)
    base_price: float = 220.0
    winter_shape: tuple = DEFAULT_WINTER_SHAPE
    summer_shape: tuple = DEFAULT_SUMMER_SHAPE
    weekend_discount: float = 50.0
    weekend_shape_factor: float = 0.35
    seasonal_price_amplitude: float = 20.0
    day_shock_ar: float = 0.75
    day_shock_std: float = 0.08
    hour_noise_std: float = 0.05
    cloud_price_coef: float = 6.0
    wind_price_coef: float = 9.0
    cold_price_coef: float = 1.5
    heat_price_coef: float = 1.0
    mean_temperature: float = 8.5
    seasonal_temperature_amplitude: float = 10.5
    daily_temperature_amplitude: float = 4.0
    temperature_ar: float = 0.97
    temperature_innovation_std: float = 0.55
    mean_cloudiness: float = 4.4
    seasonal_cloudiness_amplitude: float = 1.3
    cloudiness_ar: float = 0.93
    cloudiness_innovation_std: float = 0.85
    mean_wind: float = 4.6
    seasonal_wind_amplitude: float = 1.2
    wind_ar: float = 0.90
    wind_innovation_std: float = 1.0
    profile_shape: tuple = DEFAULT_PROFILE_SHAPE
    household_daily_kwh: float = 5.8


def generate_synthetic_dataset(seed: int, num_days: int,
                               config: SyntheticConfig | None = None) -> Dataset:
    """Generate a seeded synthetic dataset of ``num_days`` consecutive days.

    Reproducible: the same (seed, num_days, config) always yields bit-identical
    arrays.  Requires at least 56 days so that downstream price statistics
    have a warm-up window.
    """
    cfg = config or SyntheticConfig()
    if num_days < MIN_SYNTHETIC_DAYS:
        raise DataError(
            f"num_days must be at least {MIN_SYNTHETIC_DAYS} (got {num_days})"
        )
    rng = np.random.default_rng(seed)
    total_hours = num_days * HOURS_PER_DAY

    day_index = np.arange(num_days)
    doy = np.array([
        (cfg.start_date + dt.timedelta(days=int(i))).timetuple().tm_yday
        for i in day_index
    ])
    season = np.cos(2 * np.pi * (doy - 15) / 365.25)  # ~1 mid-January, ~-1 mid-July
    hours = np.arange(HOURS_PER_DAY)

    # Weather: seasonal sinusoids plus AR(1) noise, simulated hour by hour.
    temp_innov = rng.normal(0.0, cfg.temperature_innovation_std, total_hours)
    cloud_innov = rng.normal(0.0, cfg.cloudiness_innovation_std, total_hours)
    wind_innov = rng.normal(0.0, cfg.wind_innovation_std, total_hours)
    temp_noise = np.empty(total_hours)
    cloud_noise = np.empty(total_hours)
    wind_noise = np.empty(total_hours)
    t = c = w = 0.0
    for k in range(total_hours):
        t = cfg.temperature_ar * t + temp_innov[k]
        c = cfg.cloudiness_ar * c + cloud_innov[k]
        w = cfg.wind_ar * w + wind_innov[k]
        temp_noise[k] = t
        cloud_noise[k] = c
        wind_noise[k] = w

    daily_cycle = cfg.daily_temperature_amplitude * np.cos(2 * np.pi * (hours - 15) / 24)
    temperature = (
        cfg.mean_temperature
        - cfg.seasonal_temperature_amplitude * season[:, None]
        + daily_cycle[None, :]
        + temp_noise.reshape(num_days, HOURS_PER_DAY)
    )
    cloud_latent = (
        cfg.mean_cloudiness
        + cfg.seasonal_cloudiness_amplitude * season[:, None]
        + cloud_noise.reshape(num_days, HOURS_PER_DAY)
    )
    cloudiness = np.clip(np.floor(cloud_latent + 0.5), 0, OKTA_MAX).astype(int)
    wind_latent = (
        cfg.mean_wind
        + cfg.seasonal_wind_amplitude * season[:, None]
        + wind_noise.reshape(num_days, HOURS_PER_DAY)
    )
    wind_speed = np.maximum(0.0, wind_latent)

    # Prices: seasonally blended daily shape (flattened on weekends) plus
    # weather coupling, under a persistent multiplicative day shock and hourly
    # lognormal noise.  Cloudiness only moves prices where solar would have
    # supplied, i.e. weighted by daylight.
    weekday = np.array([
        (cfg.start_date + dt.timedelta(days=int(i))).weekday() for i in day_index
    ])
    weekend = (weekday >= 5).astype(float)
    winter_weight = (1.0 + season) / 2.0  # 1 mid-January, 0 mid-July
    shape = (winter_weight[:, None] * np.asarray(cfg.winter_shape)[None, :]
             + (1.0 - winter_weight)[:, None] * np.asarray(cfg.summer_shape)[None, :])
    shape *= (1.0 - (1.0 - cfg.weekend_shape_factor) * weekend)[:, None]
    daylight = np.maximum(0.0, np.sin(np.pi * (hours - 6.0) / 12.0))
    level = (
        cfg.base_price
        + shape
        + cfg.seasonal_price_amplitude * season[:, None]
        - cfg.weekend_discount * weekend[:, None]
        + cfg.cloud_price_coef * (cloudiness - 4.0) * (0.25 + daylight[None, :])
        - cfg.wind_price_coef * (np.minimum(wind_speed, 12.0) - 4.0)
        + cfg.cold_price_coef * np.maximum(0.0, 16.0 - temperature)
        + cfg.heat_price_coef * np.maximum(0.0, temperature - 24.0)
    )
    shock_innov = rng.normal(0.0, cfg.day_shock_std, num_days)
    day_shock = np.empty(num_days)
    z = 0.0
    for i in range(num_days):
        z = cfg.day_shock_ar * z + shock_innov[i]
        day_shock[i] = z
    hour_shock = rng.normal(0.0, cfg.hour_noise_std, (num_days, HOURS_PER_DAY))
    prices = np.maximum(0.0, level) * np.exp(day_shock[:, None] + hour_shock)

    shape = np.asarray(cfg.profile_shape, dtype=float)
    profile = shape / shape.sum() * (cfg.household_daily_kwh / 1000.0)

    return Dataset(
        start_date=cfg.start_date,
        prices=prices,
        cloudiness=cloudiness,
        wind_speed=wind_speed,
        temperature=temperature,
        profile=ConsumptionProfile(profile),
    )


# ---------------------------------------------------------------------------
# Forecast generation: noised actual weather
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForecastSigmas:
    """24-hour forecast accuracy per variable (std of the day-ahead deviation)."""

    cloudiness: float = 2.0   # Oktas
    wind_speed: float = 1.0   # m/s
    temperature: float = 2.0  # degrees C

    def as_dict(self) -> dict[str, float]:
        return {
            "cloudiness": self.cloudiness,
            "wind_speed": self.wind_speed,
            "temperature": self.temperature,
        }


def make_forecasts(dataset: Dataset, sigmas: ForecastSigmas | None = None,
                   seed: int = 0, clip: bool = True,
                   keep_deviations: bool = False) -> Dataset:
    """Attach next-day weather forecasts obtained by noising the actuals.

    For every target day (all but the first), a deviation random walk starts
    at the 10 am issuance of the previous day with per-step noise of variance
    sigma^2/24, so the accumulated deviation at a 24-hour horizon has standard
    deviation sigma.  Only the 24 steps covering the target day are kept.
    Cloudiness forecasts are clipped to 0..8 and projected to the nearest
    integer (ties away from zero); wind forecasts are clipped at zero.
    ``clip=False`` skips both projections, which is useful for validating the
    deviation walk itself.
    """
    sigmas = sigmas or ForecastSigmas()
    for name, sigma in sigmas.as_dict().items():
        if sigma < 0:
            raise DataError(f"negative forecast sigma for {name}")
    rng = np.random.default_rng(seed)
    num_days = dataset.num_days
    shape = (num_days, HOURS_PER_DAY)
    forecast = {name: np.full(shape, np.nan) for name in sigmas.as_dict()}
    deviations = {name: np.full(shape, np.nan) for name in sigmas.as_dict()} if keep_deviations else None

    actual = {
        "cloudiness": dataset.cloudiness.astype(float),
        "wind_speed": dataset.wind_speed,
        "temperature": dataset.temperature,
    }
    lo, hi = FORECAST_TARGET_LO, FORECAST_TARGET_HI
    for day in range(1, num_days):
        for name, sigma in sigmas.as_dict().items():
            eps = rng.normal(0.0, sigma / math.sqrt(24.0), FORECAST_WALK_STEPS)
            walk = np.cumsum(eps)
            dev = walk[lo - 1: hi]  # deviations at steps 14..37 -> target hours 0..23
            values = actual[name][day] + dev
            if clip:
                if name == "cloudiness":
                    values = np.floor(np.clip(values, 0.0, OKTA_MAX) + 0.5)
                elif name == "wind_speed":
                    values = np.maximum(0.0, values)
            forecast[name][day] = values
            if deviations is not None:
                deviations[name][day] = dev

    out = replace(
        dataset,
        forecast_cloudiness=forecast["cloudiness"],
        forecast_wind_speed=forecast["wind_speed"],
        forecast_temperature=forecast["temperature"],
        forecast_deviations=deviations,
    )
    return out


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

DEFAULT_SPLIT_FRACTIONS = (11 / 16, 1 / 16, 4 / 16)


def split_dataset(dataset: Dataset, fractions: tuple[float, float, float] | None = None,
                  ranges: tuple[tuple[int, int], ...] | None = None) -> Dataset:
    """Record train/validation/test day ranges on the dataset.

    Either explicit half-open day ranges (must be disjoint and in order) or
    fractions of the whole span.  The default split mirrors an 11:1:4 quarter
    layout: about 2.75 years of training, one validation quarter, one test year.
    """
    if ranges is not None:
        if fractions is not None:
            raise DataError("pass either fractions or ranges, not both")
        if len(ranges) != 3:
            raise DataError("expected exactly three (start, end) ranges")
        for start, end in ranges:
            if not (0 <= start < end <= dataset.num_days):
                raise DataError(f"range ({start}, {end}) outside the dataset")
        (t0, t1), (v0, v1), (s0, s1) = ranges
        if not (t1 <= v0 and v1 <= s0):
            raise DataError("ranges must be disjoint and ordered train < validation < test")
        split = SplitBoundaries((t0, t1), (v0, v1), (s0, s1))
    else:
        fractions = fractions or DEFAULT_SPLIT_FRACTIONS
        if len(fractions) != 3 or any(f <= 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
            raise DataError("fractions must be three positive values summing to 1")
        n = dataset.num_days
        b1 = round(n * fractions[0])
        b2 = round(n * (fractions[0] + fractions[1]))
        if not (0 < b1 < b2 < n):
            raise DataError("dataset too small for the requested split")
        split = SplitBoundaries((0, b1), (b1, b2), (b2, n))
    return replace(dataset, split=split)
