"""Report assembly: balance tables and plot-ready hourly trace files.

A balance report has one row per strategy (mean income, spread, and the
per-seed incomes it was computed from) plus the no-skill reference balance.
Trace files cover a short day window -- by default five days from the middle
of the test range -- with per-hour battery levels aggregated across seeds and
the bid prices/volumes of the best run, the raw material for the usual
diagnostic figures.  :func:`read_day_results` reads a seed's exported
``trace.csv`` and ``bids.csv`` back as an :class:`~dayahead.market.Episode`
of the window's days, and refuses a window day the trace lacks or a value
that the exporters never write, so that ``report`` fails before it writes
anything; the trace writers take those episodes.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .data import (DataError, check_hours, day_hour_columns, place_rows, read_columns,
                   write_columns, write_json)
from .market import BID_OUTCOME_HEADER, BUY, DAY_RESULT_HEADER, HOURS_PER_DAY, SELL, Episode


@dataclass
class BalanceRow:
    name: str
    incomes: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.incomes))

    @property
    def std(self) -> float:
        if len(self.incomes) < 2:
            return 0.0
        return float(np.std(self.incomes, ddof=1))


@dataclass
class BalanceReport:
    rows: list[BalanceRow] = field(default_factory=list)
    reference: float | None = None

    def add(self, name: str, incomes: list[float]) -> BalanceRow:
        row = BalanceRow(name, [float(v) for v in incomes])
        self.rows.append(row)
        return row

    def to_dict(self) -> dict:
        payload = {
            "rows": [
                {"strategy": r.name, "mean_income": r.mean, "std": r.std,
                 "incomes": r.incomes}
                for r in self.rows
            ],
        }
        if self.reference is not None:
            payload["reference_balance"] = self.reference
        return payload

    def write_json(self, path) -> None:
        write_json(path, self.to_dict())

    def write_csv(self, path) -> None:
        columns = [[row.name for row in self.rows], [row.mean for row in self.rows],
                   [row.std for row in self.rows],
                   [" ".join(map(repr, row.incomes)) for row in self.rows]]
        if self.reference is not None:
            for column, value in zip(columns, ("reference", self.reference, 0.0, "")):
                column.insert(0, value)
        write_columns(path, ("strategy", "mean_income", "std", "incomes"), columns)


def middle_window(day_range: tuple[int, int], window_days: int = 5) -> tuple[int, int]:
    """The ``window_days`` slice centred in ``day_range``."""
    lo, hi = day_range
    span = hi - lo
    window_days = min(window_days, span)
    start = lo + (span - window_days) // 2
    return start, start + window_days


def write_battery_trace(episodes: list[Episode], path) -> None:
    """Per-hour battery level: mean with min/max streaks across the seeds'
    episodes of one window."""
    # (days, 24, seeds), seeds innermost and contiguous, so that each mean
    # sums its seeds in the same order as a mean over one hour's levels
    levels = np.stack([episode.tables["battery_level"] for episode in episodes], axis=-1)
    write_columns(path, ("day", "hour", "mean", "min", "max"), [
        *day_hour_columns(episodes[0].days.tolist()), levels.mean(axis=-1).ravel().tolist(),
        levels.min(axis=-1).ravel().tolist(), levels.max(axis=-1).ravel().tolist()])


def _write_bid_trace(episode: Episode, path, attribute: str) -> None:
    """Per hour of the episode's consecutive days, the market price and the
    ``attribute`` of the first buy and the first sell bid with their
    acceptance; empty where there is none."""
    days = episode.days.tolist()
    columns = {f"{side}_{name}": [""] * (len(days) * HOURS_PER_DAY)
               for side in (BUY, SELL) for name in (attribute, "accepted")}
    for day, hour, side, volume, price, accepted in reversed(episode.bids):  # the first bid wins
        slot = (day - days[0]) * HOURS_PER_DAY + hour
        columns[f"{side}_{attribute}"][slot] = volume if attribute == "volume" else price
        columns[f"{side}_accepted"][slot] = int(accepted)
    write_columns(path, ("day", "hour", "market_price", *columns),
                  [*day_hour_columns(days), episode.tables["price"].ravel().tolist(),
                   *columns.values()])


def write_bid_price_trace(episode: Episode, path) -> None:
    """Bid prices of one run; positive values only, so a log scale plots cleanly."""
    _write_bid_trace(episode, path, "price")


def write_bid_volume_trace(episode: Episode, path) -> None:
    """Bid volumes of one run with the unscaled market price alongside."""
    _write_bid_trace(episode, path, "volume")


def write_unscheduled_trace(episode: Episode, path) -> None:
    write_columns(path, ("day", "hour", "uns_buy", "uns_sell"), [
        *day_hour_columns(episode.days.tolist()),
        *(episode.tables[name].ravel().tolist() for name in ("uns_buy", "uns_sell"))])


def _check_values(path, days: np.ndarray, hours: np.ndarray, names, values, valid) -> None:
    """Raise a DataError naming the file, day, hour and column of the first
    row whose value its writer never writes: ``valid`` holds, per column of
    ``names`` and ``values``, whether each row's value is one."""
    bad = np.argwhere(~np.asarray(valid).T)
    if bad.size:
        i, k = bad[0]
        raise DataError(f"{path}: day {days[i]} hour {hours[i]}: bad {names[k]} {values[k][i]}")


def read_day_results(trace_path, bids_path, window: tuple[int, int]) -> Episode:
    """The :class:`~dayahead.market.Episode` of the days of ``window`` in an
    exported ``trace.csv`` and ``bids.csv``, for report assembly;
    ``bids_path`` may be None or missing.

    It holds one ``(days, 24)`` table per ``trace.csv`` quantity, for each
    day of the window, and the window's bid rows in file order, several per
    hour included.  Only the lines of the window's days are parsed (see
    :func:`~dayahead.data.read_columns`), in whatever order the files hold
    them, and :func:`~dayahead.data.place_rows` puts the trace's rows on the
    window's days and hours.  A DataError names the file when the trace
    misses a day of the window (naming the days), or a row of either file
    has an hour outside 0..23, or a trace day repeats or lacks an hour, or
    a trace value is not finite, or a bid volume is not finite and positive
    or a bid price is negative or NaN (naming the day and hour, and the
    column of a value).  A bid price of +inf stays: timing buys at any price.
    """
    lo, hi = window
    row_days, hours, *values = read_columns(
        trace_path, DAY_RESULT_HEADER, (int, int) + (float,) * (len(DAY_RESULT_HEADER) - 2),
        days=window)
    tables, filled = place_rows(trace_path, row_days - lo, hours, values, hi - lo, first_day=lo)
    missing = np.flatnonzero(~filled.any(axis=1))
    if missing.size:
        raise DataError(f"{trace_path}: trace window misses days {(missing + lo).tolist()}")
    lacking = np.argwhere(~filled)
    if lacking.size:
        day, hour = lacking[0]
        raise DataError(f"{trace_path}: day {day + lo} lacks hour {hour}")
    _check_values(trace_path, row_days, hours, DAY_RESULT_HEADER[2:], values, np.isfinite(values))
    bids = []
    if bids_path and os.path.exists(bids_path):
        columns = read_columns(bids_path, BID_OUTCOME_HEADER,
                               (int, int, (BUY, SELL), float, float, int), days=window)
        days, hours, _, volumes, prices, _ = columns
        check_hours(bids_path, days, hours, first_day=0)
        _check_values(bids_path, days, hours, ("volume", "price"), (volumes, prices),
                      (np.isfinite(volumes) & (volumes > 0), prices >= 0))
        bids = [(day, hour, side.decode(), volume, price, bool(accepted)) for
                day, hour, side, volume, price, accepted in zip(*map(np.ndarray.tolist, columns))]
    return Episode(np.arange(lo, hi), dict(zip(DAY_RESULT_HEADER[2:], tables)), bids)
