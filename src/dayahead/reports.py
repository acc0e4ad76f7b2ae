"""Report assembly: balance tables and plot-ready hourly trace files.

A balance report has one row per strategy (mean income, spread, and the
per-seed incomes it was computed from) plus the no-skill reference balance.
Trace files cover a short day window -- by default five days from the middle
of the test range -- with per-hour battery levels aggregated across seeds and
the bid prices/volumes of the best run, the raw material for the usual
diagnostic figures.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .market import DayResult, HOURS_PER_DAY


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
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["strategy", "mean_income", "std", "incomes"])
            if self.reference is not None:
                w.writerow(["reference", repr(self.reference), repr(0.0), ""])
            for row in self.rows:
                w.writerow([row.name, repr(row.mean), repr(row.std),
                            " ".join(repr(v) for v in row.incomes)])


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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["day", "hour", "mean", "min", "max"])
        for i in range(window[1] - window[0]):
            day = per_seed[0][i].day
            levels = np.stack([seed_results[i].battery_trace[1:] for seed_results in per_seed])
            for h in range(HOURS_PER_DAY):
                col = levels[:, h]
                w.writerow([day, h, repr(float(col.mean())),
                            repr(float(col.min())), repr(float(col.max()))])


def _bids_by_hour(result: DayResult, side: str):
    by_hour = {}
    for outcome in result.bid_outcomes:
        if outcome.bid.side == side and outcome.bid.hour not in by_hour:
            by_hour[outcome.bid.hour] = outcome
    return by_hour


def write_bid_price_trace(results: list[DayResult], window: tuple[int, int], path) -> None:
    """Bid prices of one run; positive values only, so a log scale plots cleanly."""
    picked = _window_results(results, window)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["day", "hour", "market_price", "buy_price", "buy_accepted",
                    "sell_price", "sell_accepted"])
        for result in picked:
            buys = _bids_by_hour(result, "buy")
            sells = _bids_by_hour(result, "sell")
            for h in range(HOURS_PER_DAY):
                buy = buys.get(h)
                sell = sells.get(h)
                w.writerow([
                    result.day, h, repr(float(result.prices[h])),
                    repr(float(buy.bid.price)) if buy else "",
                    int(buy.accepted) if buy else "",
                    repr(float(sell.bid.price)) if sell else "",
                    int(sell.accepted) if sell else "",
                ])


def write_bid_volume_trace(results: list[DayResult], window: tuple[int, int], path) -> None:
    """Bid volumes of one run with the unscaled market price alongside."""
    picked = _window_results(results, window)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["day", "hour", "market_price", "buy_volume", "buy_accepted",
                    "sell_volume", "sell_accepted"])
        for result in picked:
            buys = _bids_by_hour(result, "buy")
            sells = _bids_by_hour(result, "sell")
            for h in range(HOURS_PER_DAY):
                buy = buys.get(h)
                sell = sells.get(h)
                w.writerow([
                    result.day, h, repr(float(result.prices[h])),
                    repr(float(buy.bid.volume)) if buy else "",
                    int(buy.accepted) if buy else "",
                    repr(float(sell.bid.volume)) if sell else "",
                    int(sell.accepted) if sell else "",
                ])


def write_unscheduled_trace(results: list[DayResult], window: tuple[int, int], path) -> None:
    picked = _window_results(results, window)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["day", "hour", "uns_buy", "uns_sell"])
        for result in picked:
            for h in range(HOURS_PER_DAY):
                w.writerow([result.day, h,
                            repr(float(result.unscheduled_buys[h])),
                            repr(float(result.unscheduled_sells[h]))])


def read_day_results(trace_path, bids_path=None) -> list[DayResult]:
    """Rebuild day results from exported trace/bids CSVs, for report assembly.

    Only the columns the trace writers use are recovered; production and
    consumption stay zero.
    """
    import os

    from .market import Bid, BidOutcome

    days: dict[int, DayResult] = {}
    with open(trace_path, newline="") as fh:
        for row in csv.DictReader(fh):
            day = int(row["day"])
            if day not in days:
                days[day] = DayResult(
                    day=day, prices=np.zeros(24), bid_outcomes=[],
                    buy_volumes=np.zeros(24), sell_volumes=np.zeros(24),
                    production=np.zeros(24), consumption=np.zeros(24),
                    charge_input=np.zeros(24), discharge=np.zeros(24),
                    unscheduled_buys=np.zeros(24), unscheduled_sells=np.zeros(24),
                    battery_trace=np.full(25, np.nan), cash_deltas=np.zeros(24),
                    reward=0.0,
                )
            res = days[day]
            h = int(row["hour"])
            res.prices[h] = float(row["price"])
            res.buy_volumes[h] = float(row["buy_exec"])
            res.sell_volumes[h] = float(row["sell_exec"])
            res.unscheduled_buys[h] = float(row["uns_buy"])
            res.unscheduled_sells[h] = float(row["uns_sell"])
            res.battery_trace[h + 1] = float(row["battery_level"])
            res.cash_deltas[h] = float(row["cash_delta"])
    if bids_path and os.path.exists(bids_path):
        with open(bids_path, newline="") as fh:
            for row in csv.DictReader(fh):
                day = int(row["day"])
                if day in days:
                    bid = Bid(float(row["volume"]), float(row["price"]),
                              row["side"], int(row["hour"]))
                    days[day].bid_outcomes.append(BidOutcome(bid, bool(int(row["accepted"]))))
    for res in days.values():
        res.reward = float(res.cash_deltas.sum())
    return [days[k] for k in sorted(days)]
