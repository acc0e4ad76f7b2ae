import json

import numpy as np
import pytest

from dayahead import data as damod
from dayahead.cli import main
from dayahead.market import BUY, Episode

TINY_CONFIG = {
    # small synthetic market and desk-tiny budgets so the pipeline runs in seconds
    "generations": 4,
    "timesteps": 120,
    "n_steps": 30,
    "evaluation_frequency": 60,
    "eval_days": 15,
    "net_arch": 16,
    "test_days": 20,
    "split_fractions": [0.7, 0.1, 0.2],
}


@pytest.fixture(scope="session")
def small_dataset():
    """120 synthetic days with forecasts and default splits, shared read-only."""
    ds = damod.generate_synthetic_dataset(seed=7, num_days=120)
    ds = damod.make_forecasts(ds, seed=8)
    return damod.split_dataset(ds)


@pytest.fixture(scope="session")
def year_dataset():
    """One synthetic year with forecasts, for longer-horizon checks."""
    ds = damod.generate_synthetic_dataset(seed=11, num_days=420)
    ds = damod.make_forecasts(ds, seed=12)
    return damod.split_dataset(ds)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A 120-day dataset directory written by ``generate-data``."""
    path = tmp_path_factory.mktemp("data")
    assert main(["generate-data", "--seed", "7", "--days", "120",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    """A config file holding TINY_CONFIG."""
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


def flat_dataset(num_days=6, price=250.0, cloudiness=8, wind=0.0, temperature=10.0,
                 profile=None, start=None):
    """Hand-buildable dataset: constant price/weather, optional custom profile;
    ``price`` may also be an array that broadcasts to ``(num_days, 24)``.

    cloudiness=8 and wind=0 silence production so fixtures can reason about
    bids and the battery alone.
    """
    import datetime as dt

    shape = (num_days, 24)
    profile_values = np.zeros(24) if profile is None else np.asarray(profile, dtype=float)
    return damod.Dataset(
        start_date=start or dt.date(2020, 1, 6),  # a Monday
        prices=np.full(shape, price, dtype=float),
        cloudiness=np.full(shape, int(cloudiness)),
        wind_speed=np.full(shape, float(wind)),
        temperature=np.full(shape, float(temperature)),
        profile=damod.ConsumptionProfile(profile_values),
    )


def with_perfect_forecasts(dataset):
    """Forecasts equal to actuals (sigma = 0)."""
    return damod.make_forecasts(dataset, damod.ForecastSigmas(0.0, 0.0, 0.0), seed=0)


def with_forecast_gap(dataset, day):
    """``dataset`` without the weather forecast for ``day``."""
    from dataclasses import replace

    gap = {name: getattr(dataset, name).copy() for name in damod.FORECAST_FIELDS}
    for values in gap.values():
        values[day] = np.nan
    return replace(dataset, **gap)


def bid_schedule(*bids):
    """A day's bid schedule holding ``bids``, ``(hour, side, volume, price)``
    tuples, at most one per side and hour; every other slot is no bid."""
    rows = [[0.0] * 24 for _ in range(4)]
    for hour, side, volume, price in bids:
        row = 0 if side == BUY else 2
        assert rows[row][hour] == 0.0, "at most one bid per side and hour"
        rows[row][hour] = volume
        rows[row + 1][hour] = price
    return rows


def day_array(result, name):
    """The 24 values of ``"price"`` or of a ``TRACE_FIELDS`` quantity of one
    collected day, from its :meth:`Episode.collect` row; for
    ``"battery_level"`` the 25 levels at the hour boundaries, from the start
    charge on."""
    values = Episode.collect([result]).tables[name][0]
    if name == "battery_level":
        values = np.concatenate(([result.start_charge], values))
    return values
