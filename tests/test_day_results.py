"""A collected day keeps only the simulator's hour trace, schedule, start
charge, reward and price and production rows.  These tests hold it to the
eager record of arrays it replaced: the same values bit for bit, the same CSV
bytes, and no change when a strategy edits its schedule lists after the step."""
import csv
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dayahead.data import day_hour_columns, hour_by_hour
from dayahead.market import (BID_OUTCOME_HEADER, BUY, DAY_RESULT_HEADER, FIRST_DELIVERY_DAY,
                             HOURS_PER_DAY, SELL, TRACE_FIELDS, EnvConfig, Episode, TradingEnv,
                             export_bid_outcomes, export_day_results, hourly_production,
                             schedule_slots)
from dayahead.reports import read_day_results

from conftest import day_array

# The eager record's array of each quantity the lean record names.
EAGER_NAMES = {"price": "prices", "buy_exec": "buy_volumes", "sell_exec": "sell_volumes",
               "consumption": "consumption", "charge_input": "charge_input",
               "discharge": "discharge", "uns_buy": "unscheduled_buys",
               "uns_sell": "unscheduled_sells", "battery_level": "battery_trace",
               "cash_delta": "cash_deltas"}


def eager_record(dataset, config, day, start_charge, reward, schedule, trace):
    """The record as ``TradingEnv.step`` built it eagerly, formula for formula."""
    buys, sells, cons, charge_in, discharge, uns_buys, uns_sells, levels, cash_deltas = \
        np.fromiter(trace, float, len(trace)).reshape(HOURS_PER_DAY, -1).T.copy()
    executed = {BUY: buys.tolist(), SELL: sells.tolist()}
    production = hourly_production(dataset.cloudiness, dataset.wind_speed, config)
    return SimpleNamespace(
        day=day, prices=dataset.prices[day].copy(),
        bid_outcomes=[(day, hour, side, volume, price, executed[side][hour] != 0.0)
                      for hour, side, volume, price in schedule_slots(schedule)],
        buy_volumes=buys, sell_volumes=sells, production=production[day].copy(),
        consumption=cons, charge_input=charge_in, discharge=discharge,
        unscheduled_buys=uns_buys, unscheduled_sells=uns_sells,
        battery_trace=np.concatenate(([start_charge], levels)), cash_deltas=cash_deltas,
        reward=reward)


def write_csv(path, header, rows):
    """The table as ``csv.writer`` writes it, which the exporters match."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def eager_export_day_results(records, path):
    """The trace writer that read the eager record's arrays."""
    write_csv(path, DAY_RESULT_HEADER, zip(
        *day_hour_columns([r.day for r in records]),
        *(hour_by_hour([getattr(r, name)[-HOURS_PER_DAY:] for r in records])
          for name in ("prices", "buy_volumes", "sell_volumes", "unscheduled_buys",
                       "unscheduled_sells", "battery_trace", "cash_deltas"))))


def eager_export_bid_outcomes(records, path):
    """The bid writer that read one outcome record per bid."""
    write_csv(path, BID_OUTCOME_HEADER, (
        (day, hour, side, float(volume), float(price), int(accepted))
        for r in records for day, hour, side, volume, price, accepted in r.bid_outcomes))


@pytest.fixture(scope="module")
def env(small_dataset):
    return TradingEnv(small_dataset, EnvConfig())


def hours(values):
    return st.lists(values, min_size=HOURS_PER_DAY, max_size=HOURS_PER_DAY)


VOLUMES = hours(st.one_of(st.just(0.0), st.integers(1, 30).map(lambda k: k / 10)))
PRICES = st.floats(0.0, 800.0)
SCHEDULES = st.tuples(VOLUMES, hours(st.one_of(PRICES, st.just(math.inf))),
                      VOLUMES, hours(st.one_of(PRICES, st.just(0.0)))).map(list)


@settings(max_examples=40, deadline=None)
@given(start=st.integers(FIRST_DELIVERY_DAY, 110), seed=st.integers(0, 3),
       schedules=st.lists(SCHEDULES, min_size=1, max_size=4))
def test_lean_record_matches_the_eager_record(env, start, seed, schedules):
    env.reset(start, seed, len(schedules))
    records, eager = [], []
    for schedule in schedules:
        start_charge = env.charge
        copy = [list(row) for row in schedule]
        _, reward, record = env.step(schedule)
        for row in schedule:  # the strategy reuses its lists
            row[:] = [1.5] * HOURS_PER_DAY
        records.append(record)
        eager.append(eager_record(env.dataset, env.config, record.day, start_charge, reward,
                                  copy, record.trace))

    for got, want in zip(records, eager):
        assert (got.day, got.reward) == (want.day, want.reward)
        for name, eager_name in EAGER_NAMES.items():
            assert day_array(got, name).tobytes() == getattr(want, eager_name).tobytes(), name
        assert np.array(got.production_row).tobytes() == want.production.tobytes()
        assert got.bid_rows() == want.bid_outcomes
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        episode = Episode.collect(records)
        export_day_results(episode, out / "trace.csv")
        export_bid_outcomes(episode, out / "bids.csv")
        eager_export_day_results(eager, out / "eager_trace.csv")
        eager_export_bid_outcomes(eager, out / "eager_bids.csv")
        for name in ("trace.csv", "bids.csv"):
            assert (out / name).read_bytes() == (out / f"eager_{name}").read_bytes(), name


def test_run_tables_write_numpy_scalars_as_numbers(env, tmp_path):
    """A schedule of numpy rows leaves numpy scalars in the record; the trace
    and bid tables still hold the numbers, as the csv oracle writes them, and
    ``report`` reads them back."""
    schedule = np.zeros((4, HOURS_PER_DAY))
    schedule[0, 3], schedule[1, 3] = 0.3, 1e9  # a buy that clears
    schedule[2, 5], schedule[3, 5] = 0.2, 1e9  # a sell that does not
    env.reset(10, 0, 1)
    _, reward, record = env.step(schedule)
    assert any(isinstance(value, np.floating) for value in record.trace)
    eager = eager_record(env.dataset, env.config, record.day, record.start_charge, reward,
                         schedule.tolist(), record.trace)
    export_day_results(Episode.collect([record]), tmp_path / "trace.csv")
    export_bid_outcomes(Episode.collect([record]), tmp_path / "bids.csv")
    eager_export_day_results([eager], tmp_path / "eager_trace.csv")
    eager_export_bid_outcomes([eager], tmp_path / "eager_bids.csv")
    for name in ("trace.csv", "bids.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / f"eager_{name}").read_bytes(), name
    assert (tmp_path / "bids.csv").read_bytes().splitlines()[1:] == [
        b"10,3,buy,0.3,1000000000.0,1", b"10,5,sell,0.2,1000000000.0,0"]
    read = read_day_results(tmp_path / "trace.csv", tmp_path / "bids.csv", (10, 11))
    for name in ("buy_exec", "battery_level"):  # the day's trace slice of each
        want = record.trace[TRACE_FIELDS.index(name)::len(TRACE_FIELDS)]
        assert read.tables[name][0].tolist() == want, name
    assert read.bids == [(10, 3, BUY, 0.3, 1e9, True), (10, 5, SELL, 0.2, 1e9, False)]
