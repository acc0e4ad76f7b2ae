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
from dataclasses import dataclass, field

import numpy as np

from .data import read_columns, write_columns
from .market import (BID_OUTCOME_HEADER, BUY, DAY_RESULT_HEADER, HOURS_PER_DAY, SELL, Bid,
                     BidOutcome, DayResult, hourly_columns)


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
    levels = np.stack([[r.battery_trace[1:] for r in picked] for picked in per_seed], axis=-1)
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
        for outcome in reversed(result.bid_outcomes):  # the first bid of an hour wins
            slot = i * HOURS_PER_DAY + outcome.bid.hour
            columns[f"{outcome.bid.side}_{attribute}"][slot] = float(getattr(outcome.bid, attribute))
            columns[f"{outcome.bid.side}_accepted"][slot] = int(outcome.accepted)
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


def read_day_results(trace_path, bids_path, window: tuple[int, int]) -> list[DayResult]:
    """Rebuild the day results of ``window`` from exported trace/bids CSVs,
    for report assembly; ``bids_path`` may be None or missing.

    Only the lines of the window's days are parsed (see
    :func:`~dayahead.data.read_columns`), in whatever order the files hold
    them.  Only the columns the trace writers use are recovered; production
    and consumption stay zero.  A day of the window that the files lack is
    left out, for the trace writers to report.
    """
    import os

    row_days, hours, *values = read_columns(
        trace_path, DAY_RESULT_HEADER, (int, int) + (float,) * (len(DAY_RESULT_HEADER) - 2),
        days=window)
    days, inverse = np.unique(row_days, return_inverse=True)
    tables = np.zeros((len(values), days.size, HOURS_PER_DAY))
    tables[:, inverse, hours] = values
    prices, buys, sells, uns_buys, uns_sells, levels, cash = tables
    battery = np.full((days.size, HOURS_PER_DAY + 1), np.nan)
    battery[:, 1:] = levels
    zeros = np.zeros(HOURS_PER_DAY)
    results = {day: DayResult(
        day=day, prices=prices[k], bid_outcomes=[], buy_volumes=buys[k], sell_volumes=sells[k],
        production=zeros.copy(), consumption=zeros.copy(), charge_input=zeros.copy(),
        discharge=zeros.copy(), unscheduled_buys=uns_buys[k], unscheduled_sells=uns_sells[k],
        battery_trace=battery[k], cash_deltas=cash[k], reward=float(cash[k].sum()),
    ) for k, day in enumerate(days.tolist())}
    if bids_path and os.path.exists(bids_path):
        bids = read_columns(bids_path, BID_OUTCOME_HEADER,
                            (int, int, (BUY, SELL), float, float, int), days=window)
        for day, hour, side, volume, price, accepted in zip(*map(np.ndarray.tolist, bids)):
            if day in results:
                results[day].bid_outcomes.append(BidOutcome(Bid(volume, price, side.decode(), hour),
                                                            bool(accepted)))
    return list(results.values())
