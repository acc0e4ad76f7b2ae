import csv
import datetime as dt
import math
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dayahead import data as damod
from dayahead.data import (ConsumptionProfile, DataError, ForecastSigmas, forecast_walk,
                           generate_synthetic_dataset,
                           load_dataset, make_forecasts, split_dataset,
                           write_dataset)

from conftest import flat_dataset, with_perfect_forecasts


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def write_fixture_csvs(tmp_path, num_days=3, skip=None, cloudiness_override=None):
    start = dt.date(2020, 1, 1)
    price_path = tmp_path / "prices.csv"
    weather_path = tmp_path / "weather.csv"
    profile_path = tmp_path / "profile.csv"
    with open(price_path, "w") as pf, open(weather_path, "w") as wf:
        pf.write("date,hour,price\n")
        wf.write("date,hour,cloudiness,wind_speed,temperature\n")
        for day in range(num_days):
            date = (start + dt.timedelta(days=day)).isoformat()
            for hour in range(24):
                if skip == (day, hour):
                    continue
                pf.write(f"{date},{hour},{200 + hour}\n")
                cloud = cloudiness_override if cloudiness_override is not None else hour % 9
                wf.write(f"{date},{hour},{cloud},{3.5},{8.0}\n")
    with open(profile_path, "w") as fh:
        fh.write("hour,avg_consumption_mwh\n")
        for hour in range(24):
            fh.write(f"{hour},0.0002\n")
    return price_path, weather_path, profile_path


def test_load_well_formed_three_days(tmp_path):
    paths = write_fixture_csvs(tmp_path, num_days=3)
    ds = load_dataset(*paths)
    assert ds.num_days == 3
    assert ds.prices.shape == (3, 24)
    assert ds.prices.size == 72
    assert ds.prices[1, 5] == 205.0
    assert ds.profile.avg_per_household[12] == 0.0002


def test_missing_hour_reports_first_gap(tmp_path):
    paths = write_fixture_csvs(tmp_path, num_days=4, skip=(2, 13))
    with pytest.raises(DataError, match=r"day 2.*hour 13"):
        load_dataset(*paths)


def test_out_of_range_cloudiness_rejected(tmp_path):
    paths = write_fixture_csvs(tmp_path, cloudiness_override=9)
    with pytest.raises(DataError, match="cloudiness"):
        load_dataset(*paths)


def test_non_integer_okta_rejected(tmp_path):
    paths = write_fixture_csvs(tmp_path, cloudiness_override=3.5)
    with pytest.raises(DataError, match="integer"):
        load_dataset(*paths)


def edit_line(path, line_no, transform):
    """Rewrite one line (1-based, header included) of a text file."""
    lines = path.read_text().splitlines(keepends=True)
    lines[line_no - 1] = transform(lines[line_no - 1])
    path.write_text("".join(lines))


def set_field(index, value):
    """A line transform that sets one comma-separated field."""
    def transform(line):
        fields = line.rstrip("\n").split(",")
        fields[index] = value
        return ",".join(fields) + "\n"
    return transform


@pytest.mark.parametrize("file,column,value", [
    ("prices.csv", 2, "nan"),
    ("weather.csv", 3, "inf"),
    ("weather.csv", 4, "-inf"),
])
def test_non_finite_csv_value_names_file_day_and_hour(tmp_path, file, column, value):
    paths = write_fixture_csvs(tmp_path, num_days=3)
    edit_line(tmp_path / file, 1 + 24 + 7 + 1, set_field(column, value))  # day 1, hour 7
    with pytest.raises(DataError, match=rf"{file}.*2020-01-02 \(day 1\) hour 7"):
        load_dataset(*paths)


@pytest.mark.parametrize("file,column,message", [
    ("prices.csv", 2, r"prices\.csv: price: value -3\.0 below 0 on 2020-01-02 \(day 1\) hour 7"),
    ("weather.csv", 3,
     r"weather\.csv: wind_speed: value -3\.0 below 0 on 2020-01-02 \(day 1\) hour 7"),
])
def test_negative_csv_value_names_file_day_and_hour(tmp_path, file, column, message):
    """Exited 2 with only ``prices must be nonnegative`` or ``wind speed must
    be nonnegative``."""
    paths = write_fixture_csvs(tmp_path, num_days=3)
    edit_line(tmp_path / file, 1 + 24 + 7 + 1, set_field(column, "-3.0"))  # day 1, hour 7
    with pytest.raises(DataError, match=message):
        load_dataset(*paths)


def test_negative_profile_value_names_file_and_hour(tmp_path):
    """Exited 2 with only ``consumption profile values must be nonnegative``."""
    paths = write_fixture_csvs(tmp_path, num_days=3)
    edit_line(paths[2], 4, set_field(1, "-0.0002"))  # hour 2
    with pytest.raises(DataError, match=r"profile\.csv: consumption profile: negative value "
                                        r"-0\.0002 at hour 2"):
        load_dataset(*paths)


def test_out_of_range_cloudiness_names_file_day_and_hour(tmp_path):
    paths = write_fixture_csvs(tmp_path, num_days=3)
    edit_line(paths[1], 1 + 24 + 7 + 1, set_field(2, "9"))  # day 1, hour 7
    with pytest.raises(DataError, match=r"weather\.csv: cloudiness: value 9\.0 outside 0\.\.8 "
                                        r"on 2020-01-02 \(day 1\) hour 7"):
        load_dataset(*paths)


@pytest.mark.parametrize("name,value,message", [
    ("prices", -1.0, r"prices: value -1\.0 below 0"),
    ("wind_speed", -0.5, r"wind_speed: value -0\.5 below 0"),
    ("cloudiness", 9, r"cloudiness: value 9 outside 0\.\.8"),
])
def test_dataset_rejects_values_outside_their_domain(name, value, message):
    ds = flat_dataset(num_days=6)
    values = getattr(ds, name).copy()
    values[3, 5] = value
    with pytest.raises(DataError, match=message + r" on 2020-01-09 \(day 3\) hour 5"):
        replace(ds, **{name: values})


@pytest.mark.parametrize("name", ["prices", "wind_speed", "temperature"])
def test_dataset_rejects_non_finite_values(name):
    ds = flat_dataset(num_days=6)
    values = getattr(ds, name).copy()
    values[3, 5] = math.nan if name == "prices" else math.inf
    with pytest.raises(DataError, match=rf"{name}.*\(day 3\) hour 5"):
        replace(ds, **{name: values})


def write_forecast_fixture(tmp_path):
    """Flat 4-day dataset whose forecasts.csv holds days 1..3, 24 rows each."""
    write_dataset(with_perfect_forecasts(flat_dataset(num_days=4)), tmp_path)
    return [tmp_path / f"{name}.csv" for name in ("prices", "weather", "profile", "forecasts")]


def test_forecast_hour_out_of_range_names_file_and_line(tmp_path):
    paths = write_forecast_fixture(tmp_path)
    edit_line(paths[3], 30, set_field(2, "-1"))  # would overwrite hour 23
    with pytest.raises(DataError, match=r"forecasts\.csv:30: target hour -1"):
        load_dataset(*paths)


def test_partial_forecast_day_names_date_and_first_missing_hour(tmp_path):
    paths = write_forecast_fixture(tmp_path)
    edit_line(paths[3], 26 + 5, lambda line: "")  # day 2 (2020-01-08), hour 5
    with pytest.raises(DataError, match=r"forecasts\.csv: forecasts for 2020-01-08 miss hour 5"):
        load_dataset(*paths)


def test_non_finite_forecast_value_names_file_and_line(tmp_path):
    paths = write_forecast_fixture(tmp_path)
    edit_line(paths[3], 40, set_field(5, "nan"))
    with pytest.raises(DataError, match=r"forecasts\.csv:40: non-finite"):
        load_dataset(*paths)


@pytest.mark.parametrize("file,line,column,value,message", [
    ("prices.csv", 5, 0, "2020-13-01", r"prices\.csv:5: bad date '2020-13-01'"),
    ("weather.csv", 10, 1, "x", r"weather\.csv:10: bad hour 'x'"),
    ("prices.csv", 1 + 24 + 7 + 1, 2, "abc",
     r"prices\.csv: bad value 'abc' for price on 2020-01-02 hour 7"),
    ("weather.csv", 1, 3, "wind",
     r"weather\.csv: missing columns \['wind_speed'\]"),
    ("profile.csv", 1, 1, "avg", r"profile\.csv: .*expected columns hour,avg_consumption_mwh"),
])
def test_loader_message_names_file_and_line(tmp_path, file, line, column, value, message):
    paths = write_fixture_csvs(tmp_path, num_days=3)
    edit_line(tmp_path / file, line, set_field(column, value))
    with pytest.raises(DataError, match=message):
        load_dataset(*paths)


def test_header_only_file_rejected(tmp_path):
    paths = write_fixture_csvs(tmp_path, num_days=3)
    paths[0].write_text("date,hour,price\n")
    with pytest.raises(DataError, match=r"prices\.csv: no data rows"):
        load_dataset(*paths)


def test_price_and_weather_files_must_cover_the_same_days(tmp_path):
    paths = write_fixture_csvs(tmp_path, num_days=3)
    lines = paths[1].read_text().splitlines(keepends=True)
    paths[1].write_text("".join(lines[:-24]))  # weather ends a day early
    with pytest.raises(DataError, match="price and weather files cover different day ranges"):
        load_dataset(*paths)


@pytest.mark.parametrize("issue,target,message", [
    ("2020-01-05", "2020-01-07", r"forecasts\.csv:2: forecasts must be issued one day ahead"),
    ("2020-01-09", "2020-01-10", r"forecasts\.csv:2: target date 2020-01-10 outside the dataset"),
])
def test_forecast_dates_checked_per_line(tmp_path, issue, target, message):
    paths = write_forecast_fixture(tmp_path)
    edit_line(paths[3], 2, set_field(0, issue))
    edit_line(paths[3], 2, set_field(1, target))
    with pytest.raises(DataError, match=message):
        load_dataset(*paths)


def test_forecast_header_checked(tmp_path):
    paths = write_forecast_fixture(tmp_path)
    edit_line(paths[3], 1, set_field(2, "hour"))
    with pytest.raises(DataError, match=r"forecasts\.csv: .*expected columns "
                                        r"issue_date,target_date,target_hour,"
                                        r"cloudiness,wind_speed,temperature"):
        load_dataset(*paths)


def test_hour_24_in_place_of_next_midnight_names_file_and_line(tmp_path):
    paths = write_fixture_csvs(tmp_path, num_days=3)
    edit_line(paths[0], 26, lambda line: "2020-01-01,24,200\n")  # day 1, hour 0
    with pytest.raises(DataError, match=r"prices\.csv:26: hour 24 outside 0\.\.23"):
        load_dataset(*paths)


@pytest.mark.parametrize("column,value,message", [
    (0, "x", r"profile\.csv:4: bad hour 'x'"),
    (1, "abc", r"profile\.csv:4: bad value 'abc'"),
    (1, "inf", r"profile\.csv:4: non-finite value 'inf' for hour 2"),
    (1, "nan", r"profile\.csv:4: non-finite value 'nan' for hour 2"),
])
def test_bad_profile_row_names_file_and_line(tmp_path, column, value, message):
    paths = write_fixture_csvs(tmp_path, num_days=3)
    edit_line(paths[2], 4, set_field(column, value))
    with pytest.raises(DataError, match=message):
        load_dataset(*paths)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_consumption_profile_rejects_non_finite_hour(value):
    values = np.full(24, 0.0002)
    values[5] = value
    with pytest.raises(DataError, match="non-finite value at hour 5"):
        ConsumptionProfile(values)


def test_consumption_profile_rejects_negative_hour():
    values = np.full(24, 0.0002)
    values[5] = -0.5
    with pytest.raises(DataError, match="negative value -0.5 at hour 5"):
        ConsumptionProfile(values)


@pytest.mark.parametrize("column,value,message", [
    (2, "x", r"forecasts\.csv:7: bad target hour 'x'"),
    (4, "abc", r"forecasts\.csv:7: bad wind_speed value 'abc'"),
])
def test_bad_forecast_row_names_file_and_line(tmp_path, column, value, message):
    paths = write_forecast_fixture(tmp_path)
    edit_line(paths[3], 7, set_field(column, value))
    with pytest.raises(DataError, match=message):
        load_dataset(*paths)


@pytest.mark.parametrize("file,line,column,value,message", [
    (2, 5, 1, "inf", r"profile\.csv:5: non-finite value 'inf' for hour 2"),
    (0, 27, 1, "24", r"prices\.csv:27: hour 24 outside 0\.\.23"),
    (3, 41, 5, "nan", r"forecasts\.csv:41: non-finite forecast value"),
])
def test_checks_after_parsing_count_blank_lines(tmp_path, file, line, column, value, message):
    """A blank line 2 moves every item down one line, and the message with it."""
    paths = write_forecast_fixture(tmp_path)
    edit_line(paths[file], 1, lambda header: header + "\n")
    edit_line(paths[file], line, set_field(column, value))
    with pytest.raises(DataError, match=message):
        load_dataset(*paths)


def test_dataset_rejects_partial_forecast_day():
    ds = with_perfect_forecasts(flat_dataset(num_days=60))
    wind = ds.forecast_wind_speed.copy()
    wind[40, 3] = math.nan
    with pytest.raises(DataError, match=r"forecasts for 2020-02-15 miss hour 3 "
                                        r"\(forecast_wind_speed on day 40"):
        replace(ds, forecast_wind_speed=wind)


def test_dataset_rejects_infinite_forecast_value():
    ds = with_perfect_forecasts(flat_dataset(num_days=60))
    temperature = ds.forecast_temperature.copy()
    temperature[7, 20] = math.inf
    with pytest.raises(DataError, match=r"2020-01-13 miss hour 20 "
                                        r"\(forecast_temperature on day 7 is inf"):
        replace(ds, forecast_temperature=temperature)


def test_dataset_rejects_misshapen_forecast_array():
    ds = with_perfect_forecasts(flat_dataset(num_days=60))
    with pytest.raises(DataError, match=r"forecast_cloudiness array must have shape"):
        replace(ds, forecast_cloudiness=ds.forecast_cloudiness[:, :10])


def test_column_codec_finds_columns_by_name(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("extra,b,a\nx,1,0.5\n\ny,2,inf\n")
    a, b = damod.read_columns(path, ("a", "b"), (float, int))
    assert a.tolist() == [0.5, math.inf] and b.tolist() == [1, 2]
    assert (a.dtype, b.dtype) == (np.float64, np.int64)
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataError, match=r"t\.csv:3: too few fields"):
        damod.read_columns(path, ("a", "b"), (int, int))
    with pytest.raises(ValueError):
        damod.write_columns(path, ("a", "b"), [[1, 2], [3]])


def test_column_codec_round_trips_floats_bit_for_bit(tmp_path):
    texts = ["0.1", "-0.0", "5e-324", "1e-300", repr(2.0 / 3.0), "inf", "-inf", "nan"]
    damod.write_columns(tmp_path / "t.csv", ("k", "v"), [range(len(texts)), map(float, texts)])
    keys, values = damod.read_columns(tmp_path / "t.csv", ("k", "v"), (int, float))
    assert keys.tolist() == list(range(len(texts)))
    assert values.view(np.int64).tolist() == \
        np.array([float(text) for text in texts]).view(np.int64).tolist()


# What a table cell can be: Python floats (edge values included), ints and
# texts that csv must quote (a comma, a quote, CR or LF), or the empty text.
TEXTS = st.text(st.sampled_from('ab ,"\r\n\t;\u00e9'), max_size=6)
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
    st.integers(-10**20, 10**20),
    TEXTS,
)


@st.composite
def tables(draw):
    """A header and equal-length columns (at least two), zero rows included."""
    width = draw(st.integers(2, 5))
    rows = draw(st.integers(0, 6))
    header = tuple(draw(st.lists(TEXTS, min_size=width, max_size=width)))
    return header, [draw(st.lists(CELLS, min_size=rows, max_size=rows)) for _ in range(width)]


@settings(max_examples=200, deadline=None)
@given(table=tables())
def test_write_columns_writes_the_bytes_of_csv_writer(table):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        got, want = f"{tmp}/got.csv", f"{tmp}/want.csv"
        damod.write_columns(got, header, columns)
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(zip(*columns))
        with open(got, "rb") as fh_got, open(want, "rb") as fh_want:
            assert fh_got.read() == fh_want.read()


def test_write_json_sorts_keys_and_ends_lines_with_lf(tmp_path):
    path = tmp_path / "doc.json"
    damod.write_json(path, {"b": [1, 0.1], "a": {"d": "x\ny", "c": None}})
    assert path.read_bytes() == (b'{\n "a": {\n  "c": null,\n  "d": "x\\ny"\n },\n'
                                 b' "b": [\n  1,\n  0.1\n ]\n}\n')


def test_column_codec_reads_dates_and_choices(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("date,side\n2020-01-01,buy\n2020-01-01,sell\n20200103,buy\n2020-01-01,buy\n")
    dates, sides = damod.read_columns(path, ("date", "side"), (damod.DATE, ("buy", "sell")))
    assert dates.tolist() == [dt.date(2020, 1, day).toordinal() for day in (1, 1, 3, 1)]
    assert sides.tolist() == [b"buy", b"sell", b"buy", b"buy"]
    path.write_text("date,side\n2020-01-01,buy\n2020-01-01,sellx\n")
    with pytest.raises(DataError, match=r"t\.csv:3: bad side 'sellx'"):
        damod.read_columns(path, ("date", "side"), (damod.DATE, ("buy", "sell")))


@pytest.mark.parametrize("text", ["2020-01-01T00", "2020-01-01T", "2020-01-011"])
def test_date_longer_than_ten_characters_is_a_bad_date(tmp_path, text):
    paths = write_fixture_csvs(tmp_path, num_days=3)
    edit_line(paths[0], 5, set_field(0, text))
    with pytest.raises(DataError, match=rf"prices\.csv:5: bad date '{text}'"):
        load_dataset(*paths)


def test_header_only_file_is_an_empty_table_without_warning(tmp_path):
    path = tmp_path / "t.csv"
    for body in ("", "\n\n"):
        path.write_text("day,date\n" + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for days in (None, (0, 5)):
                day, date = damod.read_columns(path, ("day", "date"), (int, damod.DATE), days)
                assert day.size == date.size == 0
        assert caught == []


def write_day_table(path, days):
    """A day/hour/value table with rows for ``days`` in that order."""
    damod.write_columns(path, ("day", "hour", "value"),
                        [*damod.day_hour_columns(days),
                         (day + hour / 100 for day in days for hour in range(24))])


def test_window_read_keeps_the_rows_a_full_read_has(tmp_path):
    path = tmp_path / "t.csv"
    days = [7, 3, 9, 4, 8, 3, 5]  # unsorted, day 3 twice
    write_day_table(path, days)
    full = damod.read_columns(path, ("day", "hour", "value"), (int, int, float))
    inside = (full[0] >= 4) & (full[0] < 8)
    window = damod.read_columns(path, ("day", "hour", "value"), (int, int, float), days=(4, 8))
    for got, want in zip(window, full):
        assert got.tolist() == want[inside].tolist()
    assert sorted(set(window[0].tolist())) == [4, 5, 7]


def test_window_read_names_a_bad_day_or_a_bad_row_inside_it(tmp_path):
    path = tmp_path / "t.csv"
    write_day_table(path, [1, 2, 3])
    edit_line(path, 2 + 24 + 5, set_field(2, "abc"))  # day 2, hour 5
    header, kinds = ("day", "hour", "value"), (int, int, float)
    assert damod.read_columns(path, header, kinds, days=(3, 4))[0].tolist() == [3] * 24
    with pytest.raises(DataError, match=r"t\.csv:31: bad value 'abc'"):
        damod.read_columns(path, header, kinds, days=(2, 3))
    edit_line(path, 60, set_field(0, "x"))  # day 3, outside the window
    with pytest.raises(DataError, match=r"t\.csv:60: bad day 'x'"):
        damod.read_columns(path, header, kinds, days=(1, 2))


@pytest.mark.parametrize("kind,text", [(int, "1_0"), (float, "1_0.5"), (int, "\u0661\u0662")])
def test_column_codec_rejects_what_numpy_cannot_parse(tmp_path, kind, text):
    """Python's int() and float() accept these; the reader names the file and
    gives numpy's message."""
    path = tmp_path / "t.csv"
    path.write_text(f"a\n1\n{text}\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"t\.csv: could not convert string '{text}'"):
        damod.read_columns(path, ("a",), (kind,))


def test_csv_round_trip_preserves_content(tmp_path, small_dataset):
    out = tmp_path / "out"
    paths = write_dataset(small_dataset, out)
    assert len(paths) == 4
    loaded = load_dataset(out / "prices.csv", out / "weather.csv",
                          out / "profile.csv", out / "forecasts.csv")
    np.testing.assert_array_equal(loaded.prices, small_dataset.prices)
    np.testing.assert_array_equal(loaded.cloudiness, small_dataset.cloudiness)
    np.testing.assert_array_equal(loaded.wind_speed, small_dataset.wind_speed)
    # day 0 has no forecast in either
    assert not loaded.forecast_available(0)
    for day in (1, 57, small_dataset.num_days - 1):
        for name in damod.FORECAST_FIELDS:
            np.testing.assert_array_equal(getattr(loaded, name)[day],
                                          getattr(small_dataset, name)[day])


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

def test_generator_is_deterministic():
    a = generate_synthetic_dataset(seed=7, num_days=365)
    b = generate_synthetic_dataset(seed=7, num_days=365)
    np.testing.assert_array_equal(a.prices, b.prices)
    np.testing.assert_array_equal(a.cloudiness, b.cloudiness)
    np.testing.assert_array_equal(a.wind_speed, b.wind_speed)
    np.testing.assert_array_equal(a.temperature, b.temperature)
    np.testing.assert_array_equal(a.profile.avg_per_household,
                                  b.profile.avg_per_household)


def test_generator_seed_changes_output():
    a = generate_synthetic_dataset(seed=7, num_days=60)
    b = generate_synthetic_dataset(seed=8, num_days=60)
    assert not np.array_equal(a.prices, b.prices)


def test_night_prices_below_evening_prices():
    ds = generate_synthetic_dataset(seed=3, num_days=365)
    assert ds.prices[:, 2].mean() < ds.prices[:, 19].mean()


def test_generated_domains():
    ds = generate_synthetic_dataset(seed=5, num_days=200)
    assert ds.cloudiness.min() >= 0 and ds.cloudiness.max() <= 8
    assert np.all(ds.wind_speed >= 0)
    assert np.all(ds.prices >= 0)
    assert np.all(ds.profile.avg_per_household >= 0)
    # evening peak in the consumption profile
    profile = ds.profile.avg_per_household
    assert profile[19] == profile.max()


def test_generator_rejects_short_spans():
    with pytest.raises(DataError, match="56"):
        generate_synthetic_dataset(seed=1, num_days=10)


# ---------------------------------------------------------------------------
# Forecasts
# ---------------------------------------------------------------------------

def test_zero_sigma_forecast_equals_actual(small_dataset):
    ds = make_forecasts(small_dataset, ForecastSigmas(0.0, 0.0, 0.0), seed=4)
    for day in (1, 50, ds.num_days - 1):
        np.testing.assert_array_equal(ds.forecast_cloudiness[day], ds.cloudiness[day].astype(float))
        np.testing.assert_array_equal(ds.forecast_wind_speed[day], ds.wind_speed[day])
        np.testing.assert_array_equal(ds.forecast_temperature[day], ds.temperature[day])


def test_cloudiness_clipped_and_projected():
    ds = flat_dataset(num_days=60, cloudiness=8)
    fc = make_forecasts(ds, ForecastSigmas(2.0, 0.0, 0.0), seed=1)
    cloud = fc.forecast_cloudiness[1:]
    assert np.all(cloud >= 0) and np.all(cloud <= 8)
    assert np.all(cloud == np.round(cloud))
    # positive deviations on a fully overcast sky must clip back to 8
    above = forecast_walk(60, ForecastSigmas(2.0, 0.0, 0.0), seed=1)["cloudiness"][1:] > 0
    assert above.any()
    assert np.all(cloud[above] == 8)


def test_wind_clipped_at_zero():
    ds = flat_dataset(num_days=60, wind=0.2)
    fc = make_forecasts(ds, ForecastSigmas(0.0, 1.0, 0.0), seed=2)
    assert np.all(fc.forecast_wind_speed[1:] >= 0)


def test_deviation_is_running_sum_of_noise(small_dataset):
    """Each forecast is the actual plus the walk, before the projection; the
    walk is the running sum of the generator's draws, day by day and
    variable by variable, from the issuance step on."""
    sigmas = ForecastSigmas()
    walks = forecast_walk(small_dataset.num_days, sigmas, seed=9)
    fc = make_forecasts(small_dataset, sigmas, seed=9)
    # the temperature forecast is not projected
    np.testing.assert_array_equal(fc.forecast_temperature,
                                  small_dataset.temperature + walks["temperature"])
    rng = np.random.default_rng(9)
    for day in range(1, 101):
        for name, sigma in zip(("cloudiness", "wind_speed", "temperature"),
                               (sigmas.cloudiness, sigmas.wind_speed, sigmas.temperature)):
            steps = rng.normal(0.0, sigma / np.sqrt(24.0), 37)  # from 10 am of day - 1
            if day in (1, 30, 100):  # steps 14..37 cover the target day
                np.testing.assert_allclose(walks[name][day], np.cumsum(steps)[13:37], atol=1e-12)
    assert np.isnan([walk[0] for walk in walks.values()]).all()


def test_deviation_std_at_24h_matches_sigma():
    """Monte-Carlo: Var(d_24) = 24 * sigma^2/24 = sigma^2 for sigma = 2."""
    ds = flat_dataset(num_days=501)
    samples = []
    for seed in range(20):
        walks = forecast_walk(ds.num_days, ForecastSigmas(0.0, 0.0, 2.0), seed=seed)
        # t = 24 is 10 am of the target day: deviation index hour 10
        samples.append(walks["temperature"][1:, 10])
    samples = np.concatenate(samples)
    assert samples.size == 10_000
    assert abs(samples.std() - 2.0) / 2.0 < 0.05


def test_negative_sigma_rejected(small_dataset):
    with pytest.raises(DataError, match="negative"):
        make_forecasts(small_dataset, ForecastSigmas(-1.0, 1.0, 1.0), seed=0)


def test_forecast_determinism(small_dataset):
    a = make_forecasts(small_dataset, seed=13)
    b = make_forecasts(small_dataset, seed=13)
    np.testing.assert_array_equal(a.forecast_temperature[1:], b.forecast_temperature[1:])


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def test_default_split_proportions():
    """16 synthetic quarters -> 11 train, 1 validation, 4 test quarters."""
    quarter = 365.25 / 4
    ds = generate_synthetic_dataset(seed=2, num_days=1461)  # 4 years
    ds = split_dataset(ds)
    train, val, test = ds.split.train, ds.split.validation, ds.split.test
    assert round((train[1] - train[0]) / quarter) == 11
    assert round((val[1] - val[0]) / quarter) == 1
    assert round((test[1] - test[0]) / quarter) == 4
    assert train[1] == val[0] and val[1] == test[0] and test[1] == ds.num_days


@pytest.mark.parametrize("fractions", [(0.7, math.nan, 0.2), (math.nan,) * 3,
                                       (0.7, math.inf, 0.2), (0.8, -0.1, 0.3)])
def test_split_refuses_fractions_that_are_not_positive_and_finite(small_dataset, fractions):
    """A NaN passed ``f <= 0`` and the sum check, and failed in ``round()``
    with a bare ``cannot convert float NaN to integer``."""
    with pytest.raises(DataError, match="three positive values summing to 1"):
        split_dataset(small_dataset, fractions)
