"""Hourly market/weather/consumption series: loading, synthesis, forecasts, splits.

The central container is :class:`Dataset`, a gap-free hourly record of
day-ahead prices, weather actuals (cloudiness in Oktas, wind speed,
temperature), an optional block of next-day weather forecasts, and a 24-hour
average consumption profile per household.  Everything downstream treats a
``Dataset`` as an immutable replay tape.

Real price/weather data can be loaded from CSV (see the header tuples next to
the ``load_dataset`` / ``write_dataset`` pair).  The dataset files, run traces
and report tables are written through ``write_lines``, and every CSV table the
package reads goes through ``read_columns``: one ``np.loadtxt`` pass per file,
optionally restricted to a window of days, and a csv row scan that runs only
to name the file and line of a bad field.  Every JSON document the package
reads goes through ``read_json``, which names the file and the key of what
a document lacks.

When no real data is at hand, ``generate_synthetic_dataset`` produces a seeded artificial market with the
qualitative structure trading strategies care about: a double-peaked daily
price shape (cheap nights, expensive mornings and evenings), weekend and
seasonal modulation, and prices coupled to the weather that also drives the
prosumer's own production.
"""
from __future__ import annotations

import csv
import datetime as dt
import json
import math
import re
import sys
import warnings
import zipfile
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, islice, repeat
from typing import NoReturn

import numpy as np

OKTA_MAX = 8
HOURS_PER_DAY = 24

# Forecast deviation walk, indexed from the 10 am issuance of the previous
# day: step t=1 is 11 am, t=14 is midnight of the target day, t=37 is 11 pm.
FORECAST_WALK_STEPS = 37
FORECAST_TARGET_LO = 14
FORECAST_TARGET_HI = 37

FORECAST_FIELDS = ("forecast_cloudiness", "forecast_wind_speed", "forecast_temperature")


class DataError(ValueError):
    """A dataset file or record violates the schema or a domain invariant."""


# The values each hourly Dataset array may hold: (lowest, highest, the
# words for a value beyond them).
HOURLY_DOMAINS = {
    "prices": (0.0, math.inf, "below 0"),
    "cloudiness": (0, OKTA_MAX, f"outside 0..{OKTA_MAX}"),
    "wind_speed": (0.0, math.inf, "below 0"),
    "temperature": (-math.inf, math.inf, ""),
}


def _check_hourly(values: np.ndarray, field: str, start_date: dt.date,
                  what: str | None = None) -> None:
    """Raise a DataError, starting with ``what`` (the field by default) and
    naming the date, day and hour, for the first value of a (days, 24) array
    of ``field`` that is not finite or lies outside its domain."""
    lo, hi, beyond = HOURLY_DOMAINS[field]
    bad = ~np.isfinite(values)
    if not bad.any():
        bad = (values < lo) | (values > hi)
        if not bad.any():
            return
    day, hour = (int(i) for i in np.argwhere(bad)[0])
    value = values[day, hour]
    problem = f"value {value} {beyond}" if np.isfinite(value) else "non-finite value"
    raise DataError(f"{what or field}: {problem} on {start_date + dt.timedelta(days=day)} "
                    f"(day {day}) hour {hour}")


@dataclass
class ConsumptionProfile:
    """Average consumption per household for each hour of the day [MWh],
    kept as a read-only view, as :class:`Dataset` keeps its arrays."""

    avg_per_household: np.ndarray

    def __post_init__(self) -> None:
        self.avg_per_household = np.asarray(self.avg_per_household, dtype=float).view()
        self.avg_per_household.flags.writeable = False  # no edit skips the checks below
        if self.avg_per_household.shape != (HOURS_PER_DAY,):
            raise DataError("consumption profile must have exactly 24 hourly values")
        bad = np.flatnonzero(~np.isfinite(self.avg_per_household))
        if bad.size:
            raise DataError(f"consumption profile: non-finite value at hour {bad[0]}")
        negative = np.flatnonzero(self.avg_per_household < 0)
        if negative.size:
            raise DataError(f"consumption profile: negative value "
                            f"{self.avg_per_household[negative[0]]} at hour {negative[0]}")


@dataclass(frozen=True)
class SplitBoundaries:
    """Half-open day-index ranges for train/validation/test."""

    train: tuple[int, int]
    validation: tuple[int, int]
    test: tuple[int, int]


@dataclass
class Dataset:
    """Aligned hourly series over consecutive calendar days.

    All per-hour arrays have shape ``(num_days, 24)``.  Forecast arrays hold
    NaN for days that have no forecast (at least day 0, whose forecast would
    have been issued before the data starts); a day with a forecast has all
    24 hours of all three arrays.  The dataset keeps read-only views of the
    seven arrays, so what it checked and cached stays true: build a changed
    dataset from new arrays instead.
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
            _check_hourly(getattr(self, name), name, self.start_date)
        self._check_forecasts()
        for name in ("prices", "cloudiness", "wind_speed", "temperature", *FORECAST_FIELDS):
            if getattr(self, name) is not None:  # read-only views: no edit skips the checks
                view = getattr(self, name).view()
                view.flags.writeable = False
                setattr(self, name, view)
        self._pbar_cache: dict[int, list] = {}

    def _check_forecasts(self) -> None:
        """All three forecast arrays or none, each (num_days, 24); in each day
        all 72 values are finite or all are NaN."""
        given = [name for name in FORECAST_FIELDS if getattr(self, name) is not None]
        if given and len(given) < len(FORECAST_FIELDS):
            raise DataError("forecast arrays must be given all three or none")
        for name in given:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
            if getattr(self, name).shape != self.prices.shape:
                raise DataError(f"{name} array must have shape (num_days, 24)")
        if given:
            block = np.stack([getattr(self, name) for name in given], axis=-1)
            bad = ~np.isfinite(block) & ~np.isnan(block).all(axis=(1, 2))[:, None, None]
            if bad.any():
                day, hour, k = (int(i) for i in np.argwhere(bad)[0])
                raise DataError(f"forecasts for {self.date_of(day)} miss hour {hour} "
                                f"({given[k]} on day {day} is {block[day, hour, k]})")

    @property
    def num_days(self) -> int:
        return self.prices.shape[0]

    def date_of(self, day: int) -> dt.date:
        return self.start_date + dt.timedelta(days=int(day))

    @property
    def has_forecasts(self) -> bool:
        return self.forecast_cloudiness is not None

    def forecast_available(self, day: int) -> bool:
        if not self.has_forecasts or not 0 <= day < self.num_days:
            return False
        return not math.isnan(self.forecast_cloudiness[day, 0])

    def content_hash(self) -> str:
        """Stable hash of the replayed content, for run manifests."""
        import hashlib

        h = hashlib.sha256()
        h.update(self.start_date.isoformat().encode())
        for arr in (self.prices, self.cloudiness.astype(float), self.wind_speed,
                    self.temperature, self.profile.avg_per_household):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        if self.has_forecasts:
            for name in FORECAST_FIELDS:
                h.update(np.ascontiguousarray(getattr(self, name), dtype=float).tobytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# File I/O: every table is written by write_lines, from lines the caller has
# formatted (trace.csv, bids.csv and the logs) or through write_columns, and
# every JSON document by write_json; tables are read by read_columns, and
# each file has one header tuple that its writer and its reader share.  Every
# JSON document is read by read_json, which checks it against its reader's
# schema (RESULT_SCHEMA, PARAMS_SCHEMA, POLICY_HEADER, and none for the
# config, whose casts check it), and a policy's arrays by read_arrays; no
# other module opens a file itself (np.savez writes policy.npz).  A
# table's bytes are those the csv module's default writer writes for a table
# of two or more columns: rows ended by CR LF, floats by repr, so they read
# back bit for bit, and a text quoted only when it holds a comma, a quote, CR
# or LF.  A JSON document has its keys sorted, an indent of 1 and LF line
# ends, on every platform.  read_columns parses a table in one np.loadtxt
# pass, numpy's C tokenizer and float parser; only when that pass or a check
# of its texts fails does _raise_bad_row scan the rows with csv.reader, to
# name the file and line of the first bad field.  The scan never returns data.
# ---------------------------------------------------------------------------

PRICES_HEADER = ("date", "hour", "price")
WEATHER_HEADER = ("date", "hour", "cloudiness", "wind_speed", "temperature")
PROFILE_HEADER = ("hour", "avg_consumption_mwh")
FORECASTS_HEADER = ("issue_date", "target_date", "target_hour",
                    "cloudiness", "wind_speed", "temperature")

DATE = "date"  # a read_columns kind: ISO date texts, returned as int64 day ordinals

_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": '"'}


def _dtype(kind) -> str:
    """The loadtxt field type of a read_columns kind.  Texts are bytes one
    wider than the longest valid text (10 characters for a date), so a longer
    text shows as invalid instead of passing truncated."""
    if kind is DATE:
        return "S11"
    if isinstance(kind, tuple):
        return f"S{max(map(len, kind)) + 1}"
    return {int: "i8", float: "f8"}[kind]


_QUOTED = re.compile('[,"\r\n]')
_QUOTED_LINE = re.compile('["\r\n]')  # a comma shows only by the count
_LINES_PER_WRITE = 256


def _cell(text: str) -> str:
    """``text`` as csv's QUOTE_MINIMAL writes it: quoted, with inner quotes
    doubled, when it holds a comma, a quote, CR or LF."""
    return '"' + text.replace('"', '""') + '"' if _QUOTED.search(text) else text


def write_lines(path, header: tuple[str, ...], lines) -> None:
    """Write the table of ``header`` and ``lines``, rows whose cells are
    already texts joined by commas, each ended by CR LF.  Streams:
    ``lines`` may be an iterator, and at most a few hundred lines are held
    at a time."""
    lines = iter(lines)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_cell, header)) + "\r\n")
        while batch := list(islice(lines, _LINES_PER_WRITE)):
            fh.write("\r\n".join(batch) + "\r\n")


def write_json(path, document) -> None:
    """Write ``document`` as JSON, keys sorted, indented by 1 and ended by LF."""
    with open(path, "w", newline="") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")


# read_json's kinds, each with the words for what a value of it holds.
_KINDS = {str: "a string", int: "a whole number", float: "a finite number",
          bool: "true or false", dict: "an object"}


def _holds(value, kind) -> bool:
    """Whether the JSON value ``value`` is of the schema kind ``kind``."""
    if isinstance(kind, list):  # [kind] or [kind, length]
        return (isinstance(value, list) and kind[1:] in ([], [len(value)])
                and all(_holds(item, kind[0]) for item in value))
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if isinstance(kind, tuple):
        return value in kind
    if kind is float:  # an int too, unless float() cannot hold it
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, dict if isinstance(kind, dict) else kind)


def _check_keys(path, document: dict, schema: dict, prefix: str = "") -> None:
    for key, kind in schema.items():
        name = key.rstrip("?")
        if (name == key or name in document) and not _holds(document.get(name), kind):
            want = (f"a list{f' of {kind[1]}' if kind[1:] else ''}, each {_KINDS[kind[0]]}"
                    if isinstance(kind, list) else f"one of {', '.join(map(str, kind))}"
                    if isinstance(kind, tuple) else _KINDS[dict if isinstance(kind, dict) else kind])
            raise DataError(f"{path} holds no {prefix}{name} ({want})")
        if isinstance(kind, dict) and name in document:
            _check_keys(path, document[name], kind, f"{prefix}{name}.")


def read_json(path, schema: dict, text: bytes | None = None) -> dict:
    """The JSON object in the file at ``path`` (or in ``text``, read from
    it), checked against ``schema``, which maps each key to its kind:
    ``str``, ``int`` (a whole number), ``float`` (a finite number, whole
    numbers included), ``bool``, ``dict`` (any object), ``[kind]`` (a list
    of that kind), ``[kind, n]`` (a list of ``n`` of them), a tuple of the
    values it may hold, or a schema (an object that holds it).  A key
    ending in ``?`` may be absent.  A document that is not JSON or not an
    object, or a key that is absent or of another kind, raises a DataError
    naming the file, and the key as ``<file> holds no <key> (<what it must
    hold>)``."""
    try:
        if text is None:
            with open(path, "rb") as fh:
                text = fh.read()
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:  # not UTF-8 text, not JSON, or nested too deep
        raise DataError(f"{path} holds no JSON ({exc})") from None
    if not isinstance(document, dict):
        raise DataError(f"{path} holds no JSON object")
    _check_keys(path, document, schema)
    return document


def read_arrays(path) -> dict[str, np.ndarray]:
    """The arrays of the ``.npz`` file at ``path``, by name; a file that is
    not one raises a DataError naming it."""
    try:  # the file is opened here: np.load leaves a bad zip's file open
        with open(path, "rb") as fh, np.load(fh) as npz:
            return {key: npz[key] for key in npz.files}
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile):  # TypeError: a lone .npy
        raise DataError(f"{path} holds no arrays (an .npz file of them)") from None


def write_columns(path, header: tuple[str, ...], columns) -> None:
    """Write equal-length ``columns`` (iterables of Python scalars) as rows,
    each value by ``str`` (``repr`` for a float), a text quoted where it
    needs it; unequal lengths raise a ValueError."""
    texts = [map(str, column) for column in columns]
    commas = len(texts) - 1

    def lines():
        for cells in zip(*texts, strict=True):
            line = ",".join(cells)
            if line.count(",") != commas or _QUOTED_LINE.search(line):
                line = ",".join(map(_cell, cells))
            yield line

    write_lines(path, header, lines())


def day_hour_columns(days: list) -> list[Iterator]:
    """A column with each of ``days`` 24 times, and the matching hours."""
    return [chain.from_iterable(repeat(day, HOURS_PER_DAY) for day in days),
            chain.from_iterable(repeat(range(HOURS_PER_DAY), len(days)))]


def hour_by_hour(rows) -> Iterator:
    """The values of (24,) day rows, hour by hour, as Python scalars."""
    return chain.from_iterable(map(np.ndarray.tolist, rows))


def read_columns(path, header: tuple[str, ...], kinds: tuple, days: tuple[int, int] | None = None,
                 messages: dict[str, str] | None = None) -> list[np.ndarray]:
    """Parse a CSV into one array per ``header`` column, each by its kind.

    Columns are found by name from the header line.  A kind is ``int``
    (int64), ``float`` (float64, bit for bit as ``float()`` reads the text),
    ``DATE`` (day ordinals; each distinct text goes through
    ``date.fromisoformat`` once) or a tuple of the texts a column may hold
    (bytes, one wider than the longest).  Blank lines are skipped, so item
    ``i`` comes from line ``i + 2`` only when the file has none
    (``_line_of`` finds its line otherwise).  With
    ``days=(lo, hi)`` only the lines whose ``day`` field lies in
    ``lo..hi-1`` are parsed; their items keep the file's order.

    A bad field raises a DataError naming the file and line: the template
    ``messages[column]``, formatted with ``path``, ``line``, ``text`` and the
    row's fields by column name, or else ``bad <column> <text>``.
    """
    with open(path) as fh:
        names = next(csv.reader([fh.readline()]))
        missing = [name for name in header if name not in names]
        if missing:
            raise DataError(f"{path}: missing columns {missing}; "
                            f"expected columns {','.join(header)}")
        indices = [names.index(name) for name in header]
        dtype = [(name, _dtype(kind)) for name, kind in zip(header, kinds)]
        try:
            with warnings.catch_warnings():  # a file of blank lines is an empty table
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                lines = fh if days is None else _window_lines(fh, indices[header.index("day")], days)
                table = np.loadtxt(lines, dtype, **_LOADTXT, usecols=indices, ndmin=1)
        except ValueError as exc:
            _raise_bad_row(path, header, indices, kinds, days, messages, exc)
    columns = []
    for name, kind in zip(header, kinds):
        column = np.ascontiguousarray(table[name])
        if kind is DATE:
            column = _day_ordinals(column)
        elif isinstance(kind, tuple) and not np.isin(column, np.array(kind, column.dtype)).all():
            column = None
        if column is None:
            _raise_bad_row(path, header, indices, kinds, days, messages,
                           DataError(f"bad text in column {name}"))
        columns.append(column)
    return columns


def _window_lines(fh, day_index: int, days: tuple[int, int]) -> list[str]:
    """The non-blank lines left in ``fh`` whose day field lies in ``days``;
    the day fields are parsed like the table is."""
    lines = [line for line in fh.read().split("\n") if line]
    day = np.loadtxt(lines, np.int64, **_LOADTXT, usecols=day_index, ndmin=1)
    return [lines[i] for i in np.flatnonzero((day >= days[0]) & (day < days[1])).tolist()]


def _day_ordinals(texts: np.ndarray) -> np.ndarray | None:
    """Day ordinals of ISO date texts, or None if one is not a date.  Each
    run of equal texts is looked up once, and each distinct text parsed once."""
    # the first index of each run; none for an empty column
    starts = np.flatnonzero(np.concatenate(([True], texts[1:] != texts[:-1])))[:texts.size]
    runs = texts[starts].tolist()
    ordinals: dict[bytes, int] = {}
    try:
        for text in dict.fromkeys(runs):
            ordinals[text] = dt.date.fromisoformat(text.decode("latin-1")).toordinal()
    except ValueError:
        return None
    return np.repeat(np.fromiter(map(ordinals.__getitem__, runs), np.int64, len(runs)),
                     np.diff(np.append(starts, texts.size)))


def _raise_bad_row(path, header, indices, kinds, days, messages, error: Exception) -> NoReturn:
    """Scan ``path`` row by row with csv and the Python parser of each kind,
    and raise a DataError for its first bad field; ``error`` tells why the
    column read failed, and is raised with the file named if no field is bad.
    With ``days``, a row's day is checked first, and a row outside them is
    not checked further."""
    checks = {int: lambda text: np.int64(int(text)), float: float, DATE: dt.date.fromisoformat}
    order = sorted(zip(header, kinds), key=lambda column: column[0] != "day")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            if len(row) <= max(indices):
                raise DataError(f"{path}:{reader.line_num}: too few fields")
            fields = {name: row[index] for name, index in zip(header, indices)}
            for name, kind in order:
                text = fields[name]
                try:
                    if isinstance(kind, tuple):
                        if text not in kind:
                            raise ValueError(text)
                    else:
                        value = checks[kind](text)
                except (ValueError, OverflowError):
                    label = "date" if kind is DATE else name
                    template = (messages or {}).get(name, f"{{path}}:{{line}}: bad {label} {{text!r}}")
                    raise DataError(template.format(path=path, line=reader.line_num, text=text,
                                                    **fields)) from None
                if name == "day" and days is not None and not days[0] <= value < days[1]:
                    break
    raise DataError(f"{path}: {error}") from error


def _line_of(path, item: int) -> int:
    """The line of ``path`` that item ``item`` of its table was read from,
    skipping blank lines as read_columns does; only for error messages."""
    with open(path) as fh:
        next(fh)
        return [n for n, line in enumerate(fh, 2) if line != "\n"][item]


def _check_hours(path, hours: np.ndarray, what: str = "hour") -> None:
    outside = (hours < 0) | (hours >= HOURS_PER_DAY)
    if outside.any():
        i = int(np.argmax(outside))
        raise DataError(f"{path}:{_line_of(path, i)}: {what} {hours[i]} outside 0..23")


def _read_hourly_csv(path, header: tuple[str, ...], fields: tuple[str, ...]):
    """Read a date/hour keyed CSV into (start_date, [(days, 24) array per value column]).

    Rows must be sorted by (date, hour) and form a gap-free hourly grid; the
    first missing slot is reported by date, day index, and hour.  The value
    columns fill the Dataset arrays ``fields``, and each is checked against
    its domain.
    """
    days, hours, *values = read_columns(
        path, header, (DATE, int) + (float,) * (len(header) - 2),
        messages={name: "{path}: bad value {text!r} for " + name + " on {date} hour {hour}"
                  for name in header[2:]})
    if not days.size:
        raise DataError(f"{path}: no data rows")
    _check_hours(path, hours)
    start_date = dt.date.fromordinal(int(days[0]))
    days -= days[0]
    slots = days * HOURS_PER_DAY + hours
    wrong = np.flatnonzero(slots != np.arange(slots.size))
    if wrong.size or slots.size != (days[-1] + 1) * HOURS_PER_DAY:
        exp_day, exp_hour = divmod(int(wrong[0]) if wrong.size else slots.size, HOURS_PER_DAY)
        raise DataError(f"{path}: gap in hourly sequence, missing "
                        f"{start_date + dt.timedelta(days=exp_day)} (day {exp_day}) hour {exp_hour}")
    arrays = [column.reshape(-1, HOURS_PER_DAY) for column in values]
    for name, field, column in zip(header[2:], fields, arrays):
        _check_hourly(column, field, start_date, f"{path}: {name}")
    return start_date, arrays


def _read_profile_csv(path) -> ConsumptionProfile:
    hours, values = read_columns(path, PROFILE_HEADER, (int, float), messages={
        "avg_consumption_mwh": "{path}:{line}: bad value {text!r}"})
    _check_hours(path, hours)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{path}:{_line_of(path, i)}: non-finite value '{values[i]}' "
                        f"for hour {hours[i]}")
    profile = np.full(HOURS_PER_DAY, np.nan)
    profile[hours] = values
    if np.any(np.isnan(profile)):
        raise DataError(f"{path}: profile must define all 24 hours")
    try:  # the profile rules live in ConsumptionProfile; name the file
        return ConsumptionProfile(profile)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_forecasts_csv(path, dataset: Dataset) -> np.ndarray:
    """(3, num_days, 24) forecasts in ``FORECAST_FIELDS`` order, NaN where none."""
    issued, targets, hours, *values = read_columns(
        path, FORECASTS_HEADER, (DATE, DATE, int, float, float, float), messages={
            "target_hour": "{path}:{line}: bad target hour {text!r}",
            **{name: "{path}:{line}: bad " + name + " value {text!r}"
               for name in FORECASTS_HEADER[3:]}})
    _check_hours(path, hours, "target hour")
    table = np.array(values)
    days = targets - dataset.start_date.toordinal()
    late = targets - issued != 1
    if late.any():
        raise DataError(f"{path}:{_line_of(path, np.argmax(late))}: "
                        "forecasts must be issued one day ahead")
    outside = (days < 0) | (days >= dataset.num_days)
    if outside.any():
        target = dt.date.fromordinal(int(targets[np.argmax(outside)]))
        raise DataError(f"{path}:{_line_of(path, np.argmax(outside))}: "
                        f"target date {target} outside the dataset")
    non_finite = ~np.isfinite(table).all(axis=0)
    if non_finite.any():
        raise DataError(f"{path}:{_line_of(path, np.argmax(non_finite))}: "
                        "non-finite forecast value")
    forecasts = np.full((len(FORECAST_FIELDS), *dataset.prices.shape), np.nan)
    forecasts[:, days, hours] = table
    return forecasts


def load_dataset(price_path, weather_path, profile_path, forecast_path=None) -> Dataset:
    """Load and validate a dataset from its CSV files.

    Forecasts are optional; without ``forecast_path`` the returned dataset has
    no forecast block and one can be generated later with ``make_forecasts``.
    """
    price_start, (prices,) = _read_hourly_csv(price_path, PRICES_HEADER, ("prices",))
    weather_start, (cloud, wind_speed, temperature) = _read_hourly_csv(
        weather_path, WEATHER_HEADER, ("cloudiness", "wind_speed", "temperature"))
    if price_start != weather_start or prices.shape != cloud.shape:
        raise DataError("price and weather files cover different day ranges")
    fractional = np.argwhere(cloud != np.round(cloud))
    if fractional.size:
        raise DataError(f"{weather_path}: cloudiness must be an integer Okta value "
                        f"(day {fractional[0, 0]}, hour {fractional[0, 1]})")
    dataset = Dataset(start_date=price_start, prices=prices, cloudiness=cloud.astype(int),
                      wind_speed=wind_speed, temperature=temperature,
                      profile=_read_profile_csv(profile_path))
    if forecast_path is None:
        return dataset
    forecasts = _read_forecasts_csv(forecast_path, dataset)
    try:  # the forecast rules live in Dataset; name the file they came from
        return replace(dataset, **dict(zip(FORECAST_FIELDS, forecasts)))
    except DataError as exc:
        raise DataError(f"{forecast_path}: {exc}") from exc


def write_dataset(dataset: Dataset, out_dir) -> list[str]:
    """Write the dataset CSVs into ``out_dir``; returns the written paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    dates = [dataset.date_of(day).isoformat() for day in range(dataset.num_days)]
    tables = [
        ("prices.csv", PRICES_HEADER, [*day_hour_columns(dates), hour_by_hour(dataset.prices)]),
        ("weather.csv", WEATHER_HEADER,
         [*day_hour_columns(dates), hour_by_hour(dataset.cloudiness.astype(int)),
          hour_by_hour(dataset.wind_speed), hour_by_hour(dataset.temperature)]),
        ("profile.csv", PROFILE_HEADER,
         [range(HOURS_PER_DAY), dataset.profile.avg_per_household.tolist()]),
    ]
    if dataset.has_forecasts:
        days = [day for day in range(dataset.num_days) if dataset.forecast_available(day)]
        tables.append(("forecasts.csv", FORECASTS_HEADER, [
            day_hour_columns([dataset.date_of(day - 1).isoformat() for day in days])[0],
            *day_hour_columns([dates[day] for day in days]),
            *(hour_by_hour(map(getattr(dataset, name).__getitem__, days))
              for name in FORECAST_FIELDS),
        ]))
    for name, header, columns in tables:
        write_columns(os.path.join(out_dir, name), header, columns)
    return [os.path.join(out_dir, name) for name, _, _ in tables]


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


def forecast_walk(num_days: int, sigmas: ForecastSigmas, seed: int) -> dict[str, np.ndarray]:
    """Day-ahead forecast deviations: one ``(num_days, 24)`` array per
    weather variable, NaN on day 0, which has no forecast.

    For every target day (all but the first), a deviation random walk starts
    at the 10 am issuance of the previous day with per-step noise of variance
    sigma^2/24, so the accumulated deviation at a 24-hour horizon has standard
    deviation sigma.  Only the 24 steps covering the target day are kept.
    The walks are drawn day by day, the variables in :class:`ForecastSigmas`
    order within a day.
    """
    for name, sigma in asdict(sigmas).items():
        if sigma < 0:
            raise DataError(f"negative forecast sigma for {name}")
    rng = np.random.default_rng(seed)
    walks = {name: np.full((num_days, HOURS_PER_DAY), np.nan) for name in asdict(sigmas)}
    lo, hi = FORECAST_TARGET_LO, FORECAST_TARGET_HI
    for day in range(1, num_days):
        for name, sigma in asdict(sigmas).items():
            eps = rng.normal(0.0, sigma / math.sqrt(24.0), FORECAST_WALK_STEPS)
            walks[name][day] = np.cumsum(eps)[lo - 1: hi]  # steps 14..37 -> target hours 0..23
    return walks


def make_forecasts(dataset: Dataset, sigmas: ForecastSigmas | None = None,
                   seed: int = 0) -> Dataset:
    """Attach next-day weather forecasts: the actuals plus the deviations of
    :func:`forecast_walk`, projected onto each variable's range.

    Cloudiness forecasts are clipped to 0..8 and projected to the nearest
    integer (ties away from zero); wind forecasts are clipped at zero.
    """
    deviations = forecast_walk(dataset.num_days, sigmas or ForecastSigmas(), seed)
    forecast = {name: getattr(dataset, name).astype(float) + deviation
                for name, deviation in deviations.items()}
    forecast["cloudiness"] = np.floor(np.clip(forecast["cloudiness"], 0.0, OKTA_MAX) + 0.5)
    forecast["wind_speed"] = np.maximum(0.0, forecast["wind_speed"])
    return replace(dataset, **{f"forecast_{name}": values for name, values in forecast.items()})


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitConfig:
    """The train, validation and test fractions of a split: three positive
    finite numbers summing to 1.  The default mirrors an 11:1:4 quarter
    layout: about 2.75 years of training, one validation quarter, one test
    year."""

    fractions: tuple[float, float, float] = field(default=(11 / 16, 1 / 16, 4 / 16),
                                                  metadata={"key": "split_fractions"})

    def __post_init__(self) -> None:
        if len(self.fractions) != 3 or not all(0 < f < math.inf for f in self.fractions) \
                or abs(sum(self.fractions) - 1.0) > 1e-9:  # NaN fails 0 < f
            raise DataError("fractions must be three positive values summing to 1")


def split_dataset(dataset: Dataset,
                  fractions: tuple[float, float, float] = SplitConfig.fractions) -> Dataset:
    """Record train/validation/test day ranges on the dataset: consecutive
    half-open ranges covering the whole span, sized by ``fractions``, which
    :class:`SplitConfig` checks; each range must hold at least one day."""
    SplitConfig(fractions)  # refuses fractions that break the rule
    n = dataset.num_days
    b1 = round(n * fractions[0])
    b2 = round(n * (fractions[0] + fractions[1]))
    if not (0 < b1 < b2 < n):
        raise DataError("dataset too small for the requested split")
    return replace(dataset, split=SplitBoundaries((0, b1), (b1, b2), (b2, n)))
