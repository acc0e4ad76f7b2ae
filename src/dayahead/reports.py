"""Report assembly: balance tables and plot-ready hourly trace files.

A balance report has one row per strategy (mean income, spread, and the
per-seed incomes it was computed from) plus the no-skill reference balance.
Trace files cover a short day window -- by default five days from the middle
of the test range -- with per-hour battery levels aggregated across seeds and
the bid prices/volumes of the best run, the raw material for the usual
diagnostic figures.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, read_columns, write_columns
from .market import (BID_OUTCOME_HEADER, BUY, DAY_RESULT_COLUMNS, DAY_RESULT_HEADER,
                     HOURS_PER_DAY, SELL, TRACE_FIELDS, DayResult, hourly_columns)


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
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

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


def _window_results(results: list[DayResult], window: tuple[int, int]) -> list[DayResult]:
    lo, hi = window
    picked = [r for r in results if lo <= r.day < hi]
    if len(picked) != hi - lo:
        missing = sorted(set(range(lo, hi)) - {r.day for r in picked})
        raise ValueError(f"trace window misses days {missing}")
    return sorted(picked, key=lambda r: r.day)


def write_battery_trace(results_by_seed: list[list[DayResult]],
                        window: tuple[int, int], path) -> None:
    """Per-hour battery level: mean with min/max streaks across seeds."""
    per_seed = [_window_results(results, window) for results in results_by_seed]
    # (days, 24, seeds), seeds innermost and contiguous, so that each mean
    # sums its seeds in the same order as a mean over one hour's levels
    levels = np.stack([[r.hourly("battery_trace") for r in picked] for picked in per_seed],
                      axis=-1)
    write_columns(path, ("day", "hour", "mean", "min", "max"), [
        *hourly_columns(per_seed[0]), levels.mean(axis=-1).ravel().tolist(),
        levels.min(axis=-1).ravel().tolist(), levels.max(axis=-1).ravel().tolist()])


def _write_bid_trace(results: list[DayResult], window: tuple[int, int], path,
                     attribute: str) -> None:
    """Per hour, the market price and the ``attribute`` of the first buy and
    the first sell bid with their acceptance; empty where there is none."""
    picked = _window_results(results, window)
    columns = {f"{side}_{name}": [""] * (len(picked) * HOURS_PER_DAY)
               for side in (BUY, SELL) for name in (attribute, "accepted")}
    for i, result in enumerate(picked):
        # the first bid of an hour wins
        for hour, side, volume, price, accepted in reversed(result.bid_rows()):
            slot = i * HOURS_PER_DAY + hour
            columns[f"{side}_{attribute}"][slot] = float(volume if attribute == "volume" else price)
            columns[f"{side}_accepted"][slot] = int(accepted)
    write_columns(path, ("day", "hour", "market_price", *columns),
                  [*hourly_columns(picked, "prices"), *columns.values()])


def write_bid_price_trace(results: list[DayResult], window: tuple[int, int], path) -> None:
    """Bid prices of one run; positive values only, so a log scale plots cleanly."""
    _write_bid_trace(results, window, path, "price")


def write_bid_volume_trace(results: list[DayResult], window: tuple[int, int], path) -> None:
    """Bid volumes of one run with the unscaled market price alongside."""
    _write_bid_trace(results, window, path, "volume")


def write_unscheduled_trace(results: list[DayResult], window: tuple[int, int], path) -> None:
    write_columns(path, ("day", "hour", "uns_buy", "uns_sell"), hourly_columns(
        _window_results(results, window), "unscheduled_buys", "unscheduled_sells"))


def _check_hours(path, days: np.ndarray, hours: np.ndarray) -> None:
    """Raise a DataError naming the first row whose hour is outside 0..23."""
    outside = np.flatnonzero((hours < 0) | (hours >= HOURS_PER_DAY))
    if outside.size:
        i = outside[0]
        raise DataError(f"{path}: day {days[i]} has hour {hours[i]} outside 0..23")


def _check_each_hour_once(path, days: np.ndarray, inverse: np.ndarray,
                          hours: np.ndarray) -> None:
    """Raise a DataError naming the first day and hour of ``days`` that the
    rows (day ``days[inverse[i]]``, hour ``hours[i]``) lack or repeat."""
    counts = np.bincount(inverse * HOURS_PER_DAY + hours, minlength=days.size * HOURS_PER_DAY)
    wrong = np.flatnonzero(counts != 1)
    if wrong.size:
        k, hour = divmod(int(wrong[0]), HOURS_PER_DAY)
        problem = "lacks" if counts[wrong[0]] == 0 else "repeats"
        raise DataError(f"{path}: day {days[k]} {problem} hour {hour}")


def read_day_results(trace_path, bids_path, window: tuple[int, int]) -> list[DayResult]:
    """Rebuild the day results of ``window`` from exported trace/bids CSVs,
    for report assembly; ``bids_path`` may be None or missing.

    Only the lines of the window's days are parsed (see
    :func:`~dayahead.data.read_columns`), in whatever order the files hold
    them.  Each day in the trace must have each hour once.  Only the
    columns the trace writers use are recovered; production, consumption
    and the battery flows stay zero, and the start level is NaN.  The bids
    are kept as the file holds them, several per hour included.  A day of
    the window that the files lack is left out, for the trace writers to
    report.
    """
    import os

    row_days, hours, *values = read_columns(
        trace_path, DAY_RESULT_HEADER, (int, int) + (float,) * (len(DAY_RESULT_HEADER) - 2),
        days=window)
    _check_hours(trace_path, row_days, hours)
    days, inverse = np.unique(row_days, return_inverse=True)
    _check_each_hour_once(trace_path, days, inverse, hours)
    tables = np.zeros((len(values), days.size, HOURS_PER_DAY))
    tables[:, inverse, hours] = values
    by_name = dict(zip(DAY_RESULT_COLUMNS, tables))
    zeros = np.zeros((days.size, HOURS_PER_DAY))
    traces = np.stack([by_name.get(name, zeros) for name in TRACE_FIELDS], axis=-1)
    prices, cash = by_name["prices"], by_name["cash_deltas"]
    bids = {day: [] for day in days.tolist()}
    if bids_path and os.path.exists(bids_path):
        columns = read_columns(bids_path, BID_OUTCOME_HEADER,
                               (int, int, (BUY, SELL), float, float, int), days=window)
        _check_hours(bids_path, *columns[:2])
        for day, hour, side, volume, price, accepted in zip(*map(np.ndarray.tolist, columns)):
            if day in bids:
                bids[day].append((hour, side.decode(), volume, price, bool(accepted)))
    return [DayResult(day, traces[k].ravel().tolist(), None, math.nan, float(cash[k].sum()),
                      tuple(prices[k].tolist()), (0.0,) * HOURS_PER_DAY, bids[day])
            for k, day in enumerate(days.tolist())]
