"""Report assembly: balance tables and plot-ready hourly trace files.

A balance report has one row per strategy (mean income, spread, and the
per-seed incomes it was computed from) plus the no-skill reference balance.
Trace files cover a short day window -- by default five days from the middle
of the test range -- with per-hour battery levels aggregated across seeds and
the bid prices/volumes of the best run, the raw material for the usual
diagnostic figures.  The trace writers read a run's exported ``trace.csv``
and ``bids.csv`` through :func:`read_day_results`: one ``(days, 24)`` table
per ``trace.csv`` column and the window's bid rows.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, read_columns, write_columns, write_json
from .market import BID_OUTCOME_HEADER, BUY, DAY_RESULT_HEADER, HOURS_PER_DAY, SELL


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


def _check_window(tables: dict, window: tuple[int, int]) -> None:
    """Raise a ValueError naming the days of ``window`` that the trace
    ``tables`` of :func:`read_day_results` lack."""
    lo, hi = window
    days = tables["day"][:, 0].tolist()
    if days != list(range(lo, hi)):
        raise ValueError(f"trace window misses days {sorted(set(range(lo, hi)) - set(days))}")


def _columns(tables: dict, *names: str) -> list[list]:
    """The named ``(days, 24)`` tables as columns, hour by hour."""
    return [tables[name].ravel().tolist() for name in names]


def write_battery_trace(tables_by_seed: list[dict], window: tuple[int, int], path) -> None:
    """Per-hour battery level: mean with min/max streaks across seeds."""
    for tables in tables_by_seed:
        _check_window(tables, window)
    # (days, 24, seeds), seeds innermost and contiguous, so that each mean
    # sums its seeds in the same order as a mean over one hour's levels
    levels = np.stack([tables["battery_level"] for tables in tables_by_seed], axis=-1)
    write_columns(path, ("day", "hour", "mean", "min", "max"), [
        *_columns(tables_by_seed[0], "day", "hour"), levels.mean(axis=-1).ravel().tolist(),
        levels.min(axis=-1).ravel().tolist(), levels.max(axis=-1).ravel().tolist()])


def _write_bid_trace(tables: dict, bids: list[tuple], window: tuple[int, int], path,
                     attribute: str) -> None:
    """Per hour, the market price and the ``attribute`` of the first buy and
    the first sell bid with their acceptance; empty where there is none."""
    _check_window(tables, window)
    lo, hi = window
    columns = {f"{side}_{name}": [""] * ((hi - lo) * HOURS_PER_DAY)
               for side in (BUY, SELL) for name in (attribute, "accepted")}
    for day, hour, side, volume, price, accepted in reversed(bids):  # the first bid wins
        slot = (day - lo) * HOURS_PER_DAY + hour
        columns[f"{side}_{attribute}"][slot] = volume if attribute == "volume" else price
        columns[f"{side}_accepted"][slot] = int(accepted)
    write_columns(path, ("day", "hour", "market_price", *columns),
                  [*_columns(tables, "day", "hour", "price"), *columns.values()])


def write_bid_price_trace(tables: dict, bids: list[tuple], window: tuple[int, int], path) -> None:
    """Bid prices of one run; positive values only, so a log scale plots cleanly."""
    _write_bid_trace(tables, bids, window, path, "price")


def write_bid_volume_trace(tables: dict, bids: list[tuple], window: tuple[int, int], path) -> None:
    """Bid volumes of one run with the unscaled market price alongside."""
    _write_bid_trace(tables, bids, window, path, "volume")


def write_unscheduled_trace(tables: dict, window: tuple[int, int], path) -> None:
    header = ("day", "hour", "uns_buy", "uns_sell")
    _check_window(tables, window)
    write_columns(path, header, _columns(tables, *header))


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


def read_day_results(trace_path, bids_path, window: tuple[int, int]
                     ) -> tuple[dict[str, np.ndarray], list[tuple]]:
    """The days of ``window`` in an exported ``trace.csv`` and ``bids.csv``,
    for report assembly; ``bids_path`` may be None or missing.

    Returns one ``(days, 24)`` table per ``trace.csv`` column, keyed by
    column name and with the days ascending, and the window's
    ``(day, hour, side, volume, price, accepted)`` bid rows in file order,
    several per hour included.  Only the lines of the window's days are
    parsed (see :func:`~dayahead.data.read_columns`), in whatever order the
    files hold them.  Each day in the trace must have each hour once.  A day
    of the window that the trace lacks is left out, for the trace writers
    to report.
    """
    row_days, hours, *values = read_columns(
        trace_path, DAY_RESULT_HEADER, (int, int) + (float,) * (len(DAY_RESULT_HEADER) - 2),
        days=window)
    _check_hours(trace_path, row_days, hours)
    days, inverse = np.unique(row_days, return_inverse=True)
    _check_each_hour_once(trace_path, days, inverse, hours)
    tables = np.zeros((len(values), days.size, HOURS_PER_DAY))
    tables[:, inverse, hours] = values
    by_column = {"day": np.repeat(days[:, None], HOURS_PER_DAY, axis=1),
                 "hour": np.tile(np.arange(HOURS_PER_DAY), (days.size, 1)),
                 **dict(zip(DAY_RESULT_HEADER[2:], tables))}
    bids = []
    if bids_path and os.path.exists(bids_path):
        columns = read_columns(bids_path, BID_OUTCOME_HEADER,
                               (int, int, (BUY, SELL), float, float, int), days=window)
        _check_hours(bids_path, *columns[:2])
        bids = [(day, hour, side.decode(), volume, price, bool(accepted)) for
                day, hour, side, volume, price, accepted in zip(*map(np.ndarray.tolist, columns))]
    return by_column, bids
