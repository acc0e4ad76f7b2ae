import math

import numpy as np
import pytest

from dayahead.data import DataError
from dayahead.market import (DAY_RESULT_HEADER, EnvConfig, Episode, TradingEnv,
                             export_bid_outcomes, export_day_results)
from dayahead.reports import read_day_results
from dayahead.strategies import TimingParams
from dayahead.training import evaluate_strategy, fixed_action_strategy


def test_exported_day_results_read_back_exactly(tmp_path, small_dataset):
    """Timing days (buy price +inf) and black-box days survive the CSV round trip."""
    env = TradingEnv(small_dataset, EnvConfig())
    _, timing = evaluate_strategy(TimingParams(1.2, 0.8).bids, env, (90, 96), 0,
                                  collect_results=True)
    action = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 24))
    _, blackbox = evaluate_strategy(fixed_action_strategy(action), env, (96, 102), 1,
                                    collect_results=True)
    results = timing + blackbox
    assert any(price == math.inf for r in timing for *_, price, _ in r.bid_rows())

    collected = Episode.collect(results)
    export_day_results(collected, tmp_path / "trace.csv")
    export_bid_outcomes(collected, tmp_path / "bids.csv")
    loaded = read_day_results(tmp_path / "trace.csv", tmp_path / "bids.csv", (90, 102))
    assert_same_days(loaded, collected)
    # a window converts only its own days
    inner = read_day_results(tmp_path / "trace.csv", tmp_path / "bids.csv", (93, 99))
    assert_same_days(inner, Episode.collect(results[3:9]))
    # a window the files do not cover is refused, its missing days named
    with pytest.raises(DataError, match=r"trace\.csv: trace window misses days \[102, 103\]$"):
        read_day_results(tmp_path / "trace.csv", tmp_path / "bids.csv", (99, 104))
    with pytest.raises(DataError, match=r"trace window misses days \[110, 111, 112, 113, 114\]$"):
        read_day_results(tmp_path / "trace.csv", tmp_path / "bids.csv", (110, 115))


def assert_same_days(loaded, collected):
    """The episode read back holds the collected one's days, each
    ``trace.csv`` column bit for bit, and its bid rows exactly."""
    assert loaded.days.tolist() == collected.days.tolist()
    assert set(loaded.tables) == set(DAY_RESULT_HEADER[2:])
    for name in DAY_RESULT_HEADER[2:]:
        assert loaded.tables[name].tobytes() == collected.tables[name].tobytes(), name
    assert loaded.bids == collected.bids


@pytest.mark.parametrize("file", ["trace.csv", "bids.csv"])
@pytest.mark.parametrize("hour", [24, -1])
def test_hour_outside_the_day_names_file_day_and_hour(tmp_path, small_dataset, file, hour):
    """An hour of 24 would index past the day and -1 would land in hour 23."""
    env = TradingEnv(small_dataset, EnvConfig())
    _, results = evaluate_strategy(TimingParams(1.2, 0.8).bids, env, (90, 93), 0,
                                   collect_results=True)
    episode = Episode.collect(results)
    export_day_results(episode, tmp_path / "trace.csv")
    export_bid_outcomes(episode, tmp_path / "bids.csv")
    path = tmp_path / file
    lines = path.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("91,"))
    fields = lines[row].split(",")
    fields[1] = str(hour)
    lines[row] = ",".join(fields)
    path.write_text("".join(lines))
    with pytest.raises(DataError, match=rf"{file}: day 91 has hour {hour} outside 0\.\.23"):
        read_day_results(tmp_path / "trace.csv", tmp_path / "bids.csv", (90, 93))


def scored_files(tmp_path, dataset):
    """trace.csv and bids.csv of a timing run over days 90..92, and the
    trace's lines."""
    env = TradingEnv(dataset, EnvConfig())
    _, results = evaluate_strategy(TimingParams(1.2, 0.8).bids, env, (90, 93), 0,
                                   collect_results=True)
    episode = Episode.collect(results)
    export_day_results(episode, tmp_path / "trace.csv")
    export_bid_outcomes(episode, tmp_path / "bids.csv")
    return (tmp_path / "trace.csv").read_text().splitlines(keepends=True)


def test_trace_day_lacking_an_hour_names_file_day_and_hour(tmp_path, small_dataset):
    """It read as price 0 and level 0, and the report wrote both."""
    lines = scored_files(tmp_path, small_dataset)
    lines.remove(next(line for line in lines if line.startswith("91,5,")))
    (tmp_path / "trace.csv").write_text("".join(lines))
    with pytest.raises(DataError, match=r"trace\.csv: day 91 lacks hour 5$"):
        read_day_results(tmp_path / "trace.csv", tmp_path / "bids.csv", (90, 93))


def test_trace_day_repeating_an_hour_names_file_day_and_hour(tmp_path, small_dataset):
    """A repeated hour silently took the place of the hour it displaced."""
    lines = scored_files(tmp_path, small_dataset)
    hour_4 = next(i for i, line in enumerate(lines) if line.startswith("91,4,"))
    lines[hour_4 + 1] = lines[hour_4]  # hour 5 becomes a second hour 4
    (tmp_path / "trace.csv").write_text("".join(lines))
    with pytest.raises(DataError, match=r"trace\.csv: day 91 repeats hour 4$"):
        read_day_results(tmp_path / "trace.csv", tmp_path / "bids.csv", (90, 93))
