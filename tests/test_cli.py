import csv
import hashlib
import io
import json
import math
import os
import shutil
import warnings
from dataclasses import fields
from datetime import date

import numpy as np
import pytest

from dayahead import cli
from dayahead.cli import (CONFIG_KEYS, a2c_config_from, config_section, env_config_from,
                          load_config, load_data_dir, main)
from dayahead.cmaes import CmaesConfig
from dayahead.data import SyntheticConfig, read_columns
from dayahead.market import EnvConfig, TradingEnv
from dayahead.reports import BalanceRow
from dayahead.training import A2cConfig, evaluate_strategy

from conftest import TINY_CONFIG, day_array


def file_hashes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# generate-data
# ---------------------------------------------------------------------------

def test_generate_data_writes_expected_rows(tmp_path):
    out = tmp_path / "d"
    assert main(["generate-data", "--seed", "3", "--days", "60",
                 "--out", str(out)]) == 0
    names = {p for p in os.listdir(out)}
    assert {"prices.csv", "weather.csv", "profile.csv", "forecasts.csv",
            "manifest.json"} <= names
    with open(out / "prices.csv") as fh:
        assert sum(1 for _ in fh) == 60 * 24 + 1  # header plus one row per hour


def test_generate_data_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate-data", "--seed", "9", "--days", "60", "--out", str(a)]) == 0
    assert main(["generate-data", "--seed", "9", "--days", "60", "--out", str(b)]) == 0
    assert file_hashes(a) == file_hashes(b)


def test_generate_data_refuses_short_spans(tmp_path):
    code = main(["generate-data", "--seed", "1", "--days", "10",
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_generate_data_casts_its_config_keys(tmp_path, capsys):
    """A start date is parsed from ISO text and a number that is not one is
    refused by name; both crashed with a traceback before."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"start_date": "2017-03-01"}))
    out = tmp_path / "d"
    assert main(["generate-data", "--seed", "3", "--days", "60", "--config", str(config),
                 "--out", str(out)]) == 0
    assert "start: 2017-03-01" in capsys.readouterr().out
    config.write_text(json.dumps({"base_price": "abc"}))
    bad = tmp_path / "bad"
    assert main(["generate-data", "--seed", "3", "--days", "60", "--config", str(config),
                 "--out", str(bad)]) == 2
    assert "'base_price' has value 'abc'" in capsys.readouterr().err
    assert not bad.exists()


# ---------------------------------------------------------------------------
# The config table
# ---------------------------------------------------------------------------

# Every key the config accepted before the table existed; the table must
# accept exactly these.
ACCEPTED_CONFIG_KEYS = {
    # environment
    "action_scheduling_hour", "battery_capacity", "battery_efficiency",
    "max_solar_generation", "solar_panel_efficiency", "max_wind_generation",
    "max_wind_speed", "households", "consumption_noise_std", "price_stat_window",
    "penalty_buy_multiplier", "penalty_sell_multiplier", "initial_charge", "price_scale",
    # CMA-ES
    "initial_sigma", "population_size", "generations",
    # A2C
    "timesteps", "evaluation_frequency", "n_steps", "learning_rate", "gamma", "gae_lambda",
    "ent_coef", "vf_coef", "rms_prop_eps", "max_grad_norm", "net_arch", "log_std_init",
    "eval_days",
    # data split and test range
    "split_fractions", "test_days",
    # synthetic generator
    "start_date", "base_price", "winter_shape", "summer_shape", "weekend_discount",
    "weekend_shape_factor", "seasonal_price_amplitude", "day_shock_ar", "day_shock_std",
    "hour_noise_std", "cloud_price_coef", "wind_price_coef", "cold_price_coef",
    "heat_price_coef", "mean_temperature", "seasonal_temperature_amplitude",
    "daily_temperature_amplitude", "temperature_ar", "temperature_innovation_std",
    "mean_cloudiness", "seasonal_cloudiness_amplitude", "cloudiness_ar",
    "cloudiness_innovation_std", "mean_wind", "seasonal_wind_amplitude", "wind_ar",
    "wind_innovation_std", "profile_shape", "household_daily_kwh",
}

NON_DEFAULT_CONFIG = {
    "action_scheduling_hour": 9, "battery_capacity": 3.5, "battery_efficiency": 0.9,
    "max_solar_generation": 0.5, "solar_panel_efficiency": 0.25, "max_wind_generation": 0.06,
    "max_wind_speed": 12.0, "households": 50, "consumption_noise_std": 0.02,
    "price_stat_window": 14, "penalty_buy_multiplier": 2.5, "penalty_sell_multiplier": 0.4,
    "initial_charge": 0.3, "price_scale": 210.0,
    "initial_sigma": 0.5, "population_size": 8, "generations": 7,
    "timesteps": 1000, "evaluation_frequency": 300, "n_steps": 20, "learning_rate": 3e-4,
    "gamma": 0.95, "gae_lambda": 0.8, "ent_coef": 0.01, "vf_coef": 0.25, "rms_prop_eps": 1e-6,
    "max_grad_norm": 0.7, "net_arch": 32, "log_std_init": -0.5, "eval_days": 10,
    "split_fractions": [0.6, 0.15, 0.25], "test_days": 10,
    "start_date": "2017-03-01",
    **{f.name: f.default + 0.5 for f in fields(SyntheticConfig) if isinstance(f.default, float)},
    **{f.name: [v + 0.5 for v in f.default] for f in fields(SyntheticConfig)
       if isinstance(f.default, tuple)},
}


def test_config_table_sets_every_key_on_its_field(data_dir, tmp_path):
    assert set(CONFIG_KEYS) == ACCEPTED_CONFIG_KEYS
    assert set(NON_DEFAULT_CONFIG) == ACCEPTED_CONFIG_KEYS
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(NON_DEFAULT_CONFIG))
    cfg = load_config(str(path))
    built = {
        "env": (env_config_from(cfg), EnvConfig()),
        "cmaes": (CmaesConfig(**config_section(cfg, "cmaes")), CmaesConfig()),
        "a2c": (a2c_config_from(cfg, True), A2cConfig()),
        "synthetic": (SyntheticConfig(**config_section(cfg, "synthetic")), SyntheticConfig()),
    }
    for key, (section, field, _) in CONFIG_KEYS.items():
        if section in built:
            value = NON_DEFAULT_CONFIG[key]
            want = (date.fromisoformat(value) if key == "start_date"
                    else tuple(value) if isinstance(value, list) else value)
            config, default = built[section]
            assert getattr(config, field) == want != getattr(default, field), key
    dataset = load_data_dir(data_dir, cfg)  # 120 days
    assert dataset.split.train == (0, 72) and dataset.split.test == (90, 120)
    assert cli.test_range_of(dataset, cfg) == (90, 100)


def test_config_accepts_integral_floats_and_automatic_population(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"households": 2.0, "generations": "3",
                                "population_size": "automatic"}))
    cfg = load_config(str(path))
    assert env_config_from(cfg).households == 2
    assert config_section(cfg, "cmaes") == {"generations": 3, "population": None}


@pytest.mark.parametrize("text", ["{bad", "[1]"])
def test_config_that_is_not_a_json_object_exits_2_naming_the_file(data_dir, tmp_path, capsys,
                                                                   text):
    """``{bad`` exited 2 with the decoder's message alone, which did not name
    the file, and ``[1]`` said only that a config file must hold an object."""
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "o"
    assert main(["evaluate", "--zero-action", "--data", str(data_dir), "--config", str(path),
                 "--seeds", "0", "--out", str(out)]) == 2
    assert f"{path} holds no JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["generations", "timesteps", "population_size", "net_arch",
                                 "households"])
def test_config_refuses_a_whole_number_beyond_int64(tmp_path, key):
    """At 1e300 the first two ran without end, and the next two failed inside
    numpy with a message that named neither key nor value."""
    path = tmp_path / "cfg.json"
    for value in (1e300, 2**63, -2**63 - 1):
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=f"config key '{key}' has value .*: "
                                             "outside the 64-bit integer range"):
            load_config(str(path))
    path.write_text(json.dumps({key: 2**63 - 1}))
    assert load_config(str(path)) == {key: 2**63 - 1}


# ---------------------------------------------------------------------------
# optimize / train-rl / evaluate
# ---------------------------------------------------------------------------

def assert_run_directory(out, seeds, seed_files, artifact):
    """The layout of a scoring verb's run directory: one directory per seed
    holding ``seed_files``, ``result.json`` naming each seed's ``artifact``
    (none when None), and ``manifest.json``; returns ``result.json``."""
    assert set(os.listdir(out)) == {"result.json", "manifest.json",
                                    *(f"seed{seed}" for seed in seeds)}
    for seed in seeds:
        assert set(os.listdir(out / f"seed{seed}")) == seed_files, seed
    result = json.loads((out / "result.json").read_text())
    assert result["seeds"] == seeds
    assert result["artifacts"] == ({} if artifact is None else
                                   {f"seed{seed}": f"seed{seed}/{artifact}" for seed in seeds})
    return result


def summary_line(name, incomes):
    row = BalanceRow(name, incomes)
    return f"{name}: {row.mean:.2f} +- {row.std:.2f}"


def test_optimize_timing_writes_params_and_result(data_dir, config_path, tmp_path, capsys):
    out = tmp_path / "timing"
    code = main(["optimize", "--strategy", "timing", "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0,1", "--out", str(out)])
    assert code == 0
    result = assert_run_directory(out, [0, 1], {"params.json", "optimization_log.csv",
                                                "trace.csv", "bids.csv"}, "params.json")
    assert result["strategy"] == "timing (CMA-ES)"
    assert len(result["incomes"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        *(f"seed {seed}: test income {income:.2f}"
          for seed, income in zip([0, 1], result["incomes"])),
        summary_line("timing (CMA-ES)", result["incomes"])]
    params = json.loads((out / "seed0" / "params.json").read_text())
    assert params["strategy_kind"] == "timing"
    assert len(params["alpha"]) == 2
    log = out / "seed0" / "optimization_log.csv"
    assert log.read_text().splitlines()[0] == "generation,best_objective,median_objective,sigma"
    generation, best, median, sigma = read_columns(log, cli.OPTIMIZATION_LOG_HEADER,
                                                   (int, float, float, float))
    assert generation.tolist() == list(range(TINY_CONFIG["generations"]))
    assert (best >= median).all() and (sigma > 0).all()


def test_train_rl_writes_policy_and_logs(data_dir, config_path, tmp_path, capsys):
    out = tmp_path / "rl"
    code = main(["train-rl", "--data", str(data_dir), "--config", config_path,
                 "--seeds", "0", "--out", str(out)])
    assert code == 0
    result = assert_run_directory(out, [0], {"policy.npz", "training_log.csv",
                                             "trace.csv", "bids.csv"}, "policy.npz")
    assert result["strategy"] == "neural (A2C)"
    log = out / "seed0" / "training_log.csv"
    assert log.read_text().splitlines()[0] == "step,val_reward,is_best"
    steps, vals, is_best = read_columns(log, cli.TRAINING_LOG_HEADER, (int, float, int))
    assert len(steps) >= 1
    best = np.flatnonzero(is_best == 1)[-1]
    assert capsys.readouterr().out.splitlines() == [
        f"seed 0: best val {vals[best]:.2f} at step {steps[best]}, "
        f"test income {result['incomes'][0]:.2f}",
        summary_line("neural (A2C)", result["incomes"])]


def test_train_rl_no_weather_flag(data_dir, config_path, tmp_path):
    """The policy reads 69 inputs, and ``evaluate``, which feeds a policy as
    many observation values as it reads, reproduces its income."""
    from dayahead.nets import load_policy

    out = tmp_path / "rl69"
    code = main(["train-rl", "--no-weather", "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0", "--out", str(out)])
    assert code == 0
    policy = load_policy(out / "seed0" / "policy.npz")
    assert policy.input_size == 69
    scored = tmp_path / "eval69"
    assert main(["evaluate", "--policy", str(out / "seed0" / "policy.npz"),
                 "--data", str(data_dir), "--config", config_path,
                 "--seeds", "0", "--out", str(scored)]) == 0
    assert (json.loads((scored / "result.json").read_text())["incomes"]
            == json.loads((out / "result.json").read_text())["incomes"])


def test_evaluate_policy_of_another_input_size_exits_2(data_dir, tmp_path, capsys):
    from dayahead.nets import init_policy, save_policy

    path = tmp_path / "policy.npz"
    save_policy(path, init_policy(100, hidden_size=8, seed=0))
    out = tmp_path / "o"
    code = main(["evaluate", "--policy", str(path), "--data", str(data_dir),
                 "--seeds", "0", "--out", str(out)])
    assert code == 2
    assert "141 or 69 observation values, this one 100" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_zero_action_baseline(data_dir, config_path, tmp_path, capsys):
    out = tmp_path / "zero"
    code = main(["evaluate", "--zero-action", "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0,1", "--out", str(out)])
    assert code == 0
    result = assert_run_directory(out, [0, 1], {"trace.csv", "bids.csv"}, None)
    assert result["strategy"] == "zero-action"
    assert len(result["incomes"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"seed {seed}: income {income:.2f}" for seed, income in zip([0, 1], result["incomes"])]


def test_evaluate_stored_policy(data_dir, config_path, tmp_path):
    rl_out = tmp_path / "rl"
    assert main(["train-rl", "--data", str(data_dir), "--config", config_path,
                 "--seeds", "0", "--out", str(rl_out)]) == 0
    out = tmp_path / "eval"
    code = main(["evaluate", "--policy", str(rl_out / "seed0" / "policy.npz"),
                 "--data", str(data_dir), "--config", config_path,
                 "--seeds", "0", "--out", str(out)])
    assert code == 0
    # evaluating the stored policy at the training seed reproduces the income
    trained = json.loads((rl_out / "result.json").read_text())["incomes"][0]
    scored = json.loads((out / "result.json").read_text())["incomes"][0]
    assert scored == pytest.approx(trained)


@pytest.mark.parametrize("key,value", [("max_wind_speed", 9.0),
                                       ("temperature_range", [-10.0, 30.0]),
                                       ("battery_capacity", 1.0)])
def test_evaluate_policy_with_other_forecast_normalization_exits_2(
        data_dir, tmp_path, capsys, key, value):
    """A config that would renormalize the policy's forecast inputs, or give
    it another battery, is refused."""
    from dayahead.nets import init_policy, save_policy

    path = tmp_path / "policy.npz"
    save_policy(path, init_policy(141, hidden_size=8, seed=0, meta={key: value}))
    code = main(["evaluate", "--policy", str(path), "--data", str(data_dir),
                 "--seeds", "0", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and repr(value) in err
    assert not (tmp_path / "o").exists()


def test_evaluate_sweep_policy_needs_its_battery_capacity(data_dir, config_path, tmp_path,
                                                         capsys):
    """A capacity-1.0 sweep policy scored at the default capacity exits 2
    with both capacities named; with ``battery_capacity: 1.0`` it reproduces
    the sweep's seed income."""
    sweep = tmp_path / "sweep"
    assert main(["sweep-battery", "--capacities", "1.0", "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0", "--out", str(sweep)]) == 0
    policy = str(sweep / "capacity1.0" / "seed0" / "policy.npz")
    out = tmp_path / "eval"
    code = main(["evaluate", "--policy", policy, "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0", "--out", str(out)])
    assert code == 2
    assert "battery_capacity 1.0, the config gives 2.0" in capsys.readouterr().err
    assert not out.exists()
    config = tmp_path / "cap1.json"
    config.write_text(json.dumps({**TINY_CONFIG, "battery_capacity": 1.0}))
    assert main(["evaluate", "--policy", policy, "--data", str(data_dir),
                 "--config", str(config), "--seeds", "0", "--out", str(out)]) == 0
    swept = json.loads((sweep / "capacity1.0" / "result.json").read_text())["incomes"]
    assert json.loads((out / "result.json").read_text())["incomes"] == swept


def test_evaluate_policy_missing_an_array_exits_2(data_dir, tmp_path, capsys):
    """A policy file without one of its arrays is invalid input, named by key."""
    from dayahead.nets import init_policy, save_policy

    path = tmp_path / "policy.npz"
    save_policy(path, init_policy(141, hidden_size=8, seed=0))
    with np.load(path) as stored:
        arrays = {key: stored[key] for key in stored.files if key != "critic_b1"}
    np.savez(path, **arrays)
    code = main(["evaluate", "--policy", str(path), "--data", str(data_dir),
                 "--seeds", "0", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "critic_b1" in capsys.readouterr().err


@pytest.mark.parametrize("frequency", [0, -5])
def test_train_rl_with_evaluation_frequency_below_one_exits_2(data_dir, tmp_path, frequency):
    """Refused before training, which would otherwise never advance its next
    evaluation step; nothing is written."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**TINY_CONFIG, "evaluation_frequency": frequency}))
    out = tmp_path / "rl"
    code = main(["train-rl", "--data", str(data_dir), "--config", str(config),
                 "--seeds", "0", "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("key,value,field", [
    ("penalty_sell_multiplier", 3, "penalty_sell_multiplier"),
    ("penalty_buy_multiplier", 0.5, "penalty_buy_multiplier"),
    ("price_stat_window", 0, "price_stat_window"),
    ("action_scheduling_hour", 24, "action_hour"),
    ("action_scheduling_hour", -1, "action_hour"),
    ("price_scale", 0, "price_scale"),
    ("price_scale", -5, "price_scale"),
    ("consumption_noise_std", -0.1, "consumption_noise_std"),
    ("split_fractions", 5, "split_fractions"),
    ("split_fractions", ["a", "b", "c"], "split_fractions"),
    ("test_days", 0, "test_days"),
    ("households", 2.9, "households"),
    ("population_size", 4.7, "population_size"),
    # json.load reads NaN and Infinity: each ran to exit 0 (income nan or
    # -inf, wind production silently 0, "alpha": [NaN, NaN]) or failed
    # mid-run
    ("battery_capacity", math.nan, "battery_capacity"),
    ("battery_capacity", math.inf, "battery_capacity"),
    ("max_wind_speed", math.nan, "max_wind_speed"),
    ("consumption_noise_std", math.inf, "consumption_noise_std"),
    ("initial_sigma", math.nan, "initial_sigma"),
    ("learning_rate", math.nan, "learning_rate"),
    ("split_fractions", [0.7, math.nan, 0.2], "split_fractions"),
])
def test_environment_value_the_kernel_cannot_honour_exits_2(data_dir, tmp_path, capsys,
                                                            key, value, field):
    """Each was accepted before (exit 0, a fractional whole number truncated,
    a test_days of 0 scoring no day, a NaN or infinite number), or failed
    only inside numpy or with a traceback; now the error names the field or
    key and nothing is written."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**TINY_CONFIG, key: value}))
    out = tmp_path / "eval"
    code = main(["evaluate", "--zero-action", "--data", str(data_dir), "--config", str(config),
                 "--seeds", "0", "--out", str(out)])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value,message", [
    ("action_scheduling_hour", 24, "action_hour must lie in 0..23, got 24"),
    ("solar_panel_efficiency", 2, "solar efficiency must lie in (0, 1]"),
    ("population_size", 2, "population must be at least 4"),
    ("timesteps", 0, "total_days must be at least 1, got 0"),
    ("split_fractions", [0.5, 0.5, 0.5], "fractions must be three positive values summing to 1"),
])
@pytest.mark.parametrize("verb", [["evaluate", "--zero-action"],
                                  ["optimize", "--strategy", "timing"],
                                  ["train-rl"], ["report", "--runs", "r"]])
def test_every_verb_refuses_a_config_value_by_its_key(data_dir, tmp_path, capsys, verb,
                                                      key, value, message):
    """The message named only the dataclass field (``action_hour``, ``solar
    efficiency``), and a verb that does not read a key's section exited 0 on
    a value the verbs that do read it refuse."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**TINY_CONFIG, key: value}))
    out = tmp_path / "o"
    code = main([*verb, "--data", str(data_dir), "--config", str(config), "--seeds", "0",
                 "--out", str(out)])
    assert code == 2
    assert f"config key {key!r} has value {value!r}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_generate_data_refuses_a_config_value_by_its_key(tmp_path, capsys):
    """A split that breaks the rule was recorded with exit 0, and every verb
    that read the dataset then refused it without naming the key."""
    config = tmp_path / "cfg.json"
    out = tmp_path / "d"
    for key, value, message in [("population_size", 2, "population must be at least 4"),
                                ("split_fractions", [0.5, 0.5, 0.5],
                                 "fractions must be three positive values summing to 1")]:
        config.write_text(json.dumps({key: value}))
        assert main(["generate-data", "--seed", "3", "--days", "60", "--config", str(config),
                     "--out", str(out)]) == 2
        assert f"config key {key!r} has value {value!r}: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_optimize_that_diverges_exits_2_and_writes_nothing(data_dir, tmp_path, capsys):
    """With an initial sigma of 1e5 no opportunistic candidate scores a finite
    income, and the run exited 0 on a test income of NaN."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**TINY_CONFIG, "initial_sigma": 1e5, "generations": 2}))
    out = tmp_path / "o"
    with np.errstate(all="ignore"):  # the candidates' volumes overflow
        code = main(["optimize", "--strategy", "opportunistic", "--data", str(data_dir),
                     "--config", str(config), "--seeds", "0", "--out", str(out)])
    assert code == 2
    assert "seed 0, generation 1: no candidate has a finite objective" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def gap_data_dir(data_dir, tmp_path_factory):
    """The 120-day set without the 24 forecast rows of day 105, 2016-04-15,
    a day of the tiny config's test range, days 96 to 115."""
    path = tmp_path_factory.mktemp("gap")
    for name in os.listdir(data_dir):
        shutil.copy(data_dir / name, path / name)
    lines = (data_dir / "forecasts.csv").read_bytes().splitlines(keepends=True)
    kept = [line for line in lines if line.split(b",")[1] != b"2016-04-15"]
    assert len(lines) - len(kept) == 24
    (path / "forecasts.csv").write_bytes(b"".join(kept))
    return path


@pytest.mark.parametrize("verb", [["evaluate", "--zero-action"],
                                  ["optimize", "--strategy", "timing"],
                                  ["train-rl"]])
def test_forecast_gap_in_the_test_range_exits_2_and_writes_nothing(gap_data_dir, config_path,
                                                                   tmp_path, capsys, verb):
    """Each exited 0 after scoring the 9 days before the gap, 216 trace rows,
    with the full ``test_range`` [96, 116] in ``result.json``."""
    out = tmp_path / "o"
    code = main([*verb, "--data", str(gap_data_dir), "--config", config_path, "--seeds", "0",
                 "--out", str(out)])
    assert code == 2
    assert "no forecast available for day 105 (2016-04-15)" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_refuses_a_non_finite_capacity_before_training(data_dir, config_path,
                                                             tmp_path, capsys):
    """It trained capacity 1.0 fully, then failed on NaN with no result file."""
    out = tmp_path / "sweep"
    code = main(["sweep-battery", "--capacities", "1.0,nan", "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "battery_capacity must be positive and finite, got nan" in captured.err
    assert "capacity 1.0" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["3,3", ",", "", "0 1,0", "1,x"])
def test_empty_or_repeated_seed_list_exits_2(data_dir, config_path, tmp_path, capsys, seeds):
    """``3,3`` scored seed 3 twice and wrote seed3/ twice; ``,`` scored no
    seed, and a report over that run failed inside numpy."""
    out = tmp_path / "eval"
    code = main(["evaluate", "--zero-action", "--data", str(data_dir), "--config", config_path,
                 "--seeds", seeds, "--out", str(out)])
    assert code == 2
    assert f"--seeds {seeds!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", [["evaluate", "--zero-action"],
                                  ["optimize", "--strategy", "timing"]])
@pytest.mark.parametrize("flags,named", [(["--seeds", "0,-1"], "--seeds '0,-1'"),
                                         (["--seed", "-2"], "--seed -2")])
def test_negative_run_seed_exits_2_before_anything_runs(data_dir, config_path, tmp_path,
                                                        capsys, verb, flags, named):
    """``--seeds 0,-1`` scored seed 0 and wrote its files (``optimize`` its
    params and log too), then stopped on seed -1 with an error that named no
    flag and left no ``result.json``; ``--seed -2`` sets the run seeds -2..2."""
    out = tmp_path / "o"
    code = main([*verb, "--data", str(data_dir), "--config", config_path, *flags,
                 "--out", str(out)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("capacities", ["1.0,1.0", "1.0,abc", "2 1,2.0", ","])
def test_empty_repeated_or_non_numeric_capacity_list_exits_2(data_dir, config_path, tmp_path,
                                                             capsys, monkeypatch, capacities):
    """``1.0,1.0`` trained capacity 1.0 twice and wrote two equal rows;
    ``1.0,abc`` failed without naming the flag."""
    def no_training(*args, **kwargs):
        raise AssertionError("trained before refusing the capacities")

    monkeypatch.setattr(cli, "a2c_train", no_training)
    out = tmp_path / "sweep"
    code = main(["sweep-battery", "--capacities", capacities, "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0", "--out", str(out)])
    assert code == 2
    assert f"--capacities {capacities!r}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_writes_one_train_rl_run_directory_per_capacity(data_dir, config_path,
                                                              tmp_path, capsys):
    """Each ``capacity<C>/seed<N>/`` file is byte-identical to what
    ``train-rl`` writes with ``battery_capacity: C``, and ``report`` reads the
    capacity directories."""
    out = tmp_path / "sweep"
    assert main(["sweep-battery", "--capacities", "2.0,1.0", "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0,1", "--out", str(out)]) == 0
    assert set(os.listdir(out)) == {"battery_sweep.csv", "manifest.json",
                                    "capacity1.0", "capacity2.0"}
    lines = capsys.readouterr().out.splitlines()
    for capacity in (1.0, 2.0):
        run = out / f"capacity{capacity!r}"
        result = assert_run_directory(run, [0, 1], {"policy.npz", "training_log.csv",
                                                   "trace.csv", "bids.csv"}, "policy.npz")
        assert result["strategy"] == f"capacity {capacity!r}"
        assert summary_line(result["strategy"], result["incomes"]) in lines
        config = tmp_path / f"cap{capacity}.json"
        config.write_text(json.dumps({**TINY_CONFIG, "battery_capacity": capacity}))
        rl = tmp_path / f"rl{capacity}"
        assert main(["train-rl", "--data", str(data_dir), "--config", str(config),
                     "--seeds", "0,1", "--out", str(rl)]) == 0
        for seed in ("seed0", "seed1"):
            assert file_hashes(run / seed) == file_hashes(rl / seed), (capacity, seed)
    report_out = tmp_path / "report"
    assert main(["report", "--runs", str(out / "capacity1.0"), str(out / "capacity2.0"),
                 "--data", str(data_dir), "--config", config_path,
                 "--out", str(report_out)]) == 0
    payload = json.loads((report_out / "balance_report.json").read_text())
    assert [row["strategy"] for row in payload["rows"]] == ["capacity 1.0", "capacity 2.0"]


def test_each_verb_builds_one_environment(data_dir, config_path, tmp_path, monkeypatch):
    from dayahead import market

    built = []
    real_init = market.TradingEnv.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(market.TradingEnv, "__init__", counting_init)
    common = ["--data", str(data_dir), "--config", config_path, "--seeds", "0,1"]
    verbs = {
        "optimize": (["optimize", "--strategy", "timing"], 1),
        "train-rl": (["train-rl"], 1),
        "evaluate": (["evaluate", "--zero-action"], 1),
        "sweep-battery": (["sweep-battery", "--capacities", "2.0,1.0"], 2),  # one per capacity
    }
    for verb, (argv, environments) in verbs.items():
        built.clear()
        assert main([*argv, *common, "--out", str(tmp_path / verb)]) == 0
        assert len(built) == environments, verb


def test_train_rl_scores_the_test_range_once_per_seed(data_dir, config_path, tmp_path,
                                                     monkeypatch):
    from dayahead import training

    ranges = []
    real = training.evaluate_strategy

    def recording(bids_fn, env, day_range, seed, collect_results=False):
        ranges.append(tuple(day_range))
        return real(bids_fn, env, day_range, seed, collect_results)

    monkeypatch.setattr(training, "evaluate_strategy", recording)
    monkeypatch.setattr(cli, "evaluate_strategy", recording)
    out = tmp_path / "rl"
    assert main(["train-rl", "--data", str(data_dir), "--config", config_path,
                 "--seeds", "0,1", "--out", str(out)]) == 0
    test_range = tuple(json.loads((out / "result.json").read_text())["test_range"])
    assert ranges.count(test_range) == 2


def test_evaluate_missing_policy_exits_3(data_dir, tmp_path):
    code = main(["evaluate", "--policy", str(tmp_path / "nope.npz"),
                 "--data", str(data_dir), "--out", str(tmp_path / "o")])
    assert code == 3
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags,message", [
    ([], "pass one of --policy, --params or --zero-action"),
    pytest.param(["--params", "blackbox.json"],
                 "blackbox.json holds no strategy_kind (one of timing, opportunistic)",
                 id="flags1-black-box params reference a policy file"),
])
def test_evaluate_without_a_scorable_strategy_exits_2_and_writes_nothing(
        data_dir, tmp_path, capsys, flags, message):
    """Each left an empty output directory.  A black-box params file, which
    only pointed to a policy file, is a kind ``--params`` does not know."""
    (tmp_path / "blackbox.json").write_text(
        json.dumps({"strategy_kind": "blackbox", "policy_path": "policy.npz"}))
    flags = [str(tmp_path / flag) if flag.endswith(".json") else flag for flag in flags]
    out = tmp_path / "o"
    code = main(["evaluate", *flags, "--data", str(data_dir), "--seeds", "0",
                 "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload,message", [
    pytest.param({"alpha": [1, 0.5]}, "holds no strategy_kind (one of timing, opportunistic)",
                 id="no strategy_kind"),
    pytest.param([1], "holds no JSON object", id="not an object"),
    pytest.param({"strategy_kind": "timing", "alpha": [1]},
                 "holds no alpha (a list of 2 finite numbers for timing)", id="short alpha"),
    pytest.param({"strategy_kind": "timing", "alpha": [1, True]},
                 "holds no alpha (a list, each a finite number)", id="bool in alpha"),
])
def test_evaluate_names_the_file_and_key_of_a_malformed_params_file(
        data_dir, tmp_path, capsys, payload, message):
    """The first two were a traceback and exit 1 (KeyError, TypeError); the
    third exited 2 with ``not enough values to unpack``."""
    params = tmp_path / "params.json"
    params.write_text(json.dumps(payload))
    out = tmp_path / "o"
    code = main(["evaluate", "--params", str(params), "--data", str(data_dir), "--seeds", "0",
                 "--out", str(out)])
    assert code == 2
    assert f"{params} {message}" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_refuses_a_non_finite_test_income(data_dir, config_path, tmp_path, capsys):
    """Finite coefficients whose bids overflow scored ``income nan``, exited 0
    and wrote ``"incomes": [NaN]``, which ``report`` then printed as nan."""
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"strategy_kind": "timing", "alpha": [1e307, 0]}))
    out = tmp_path / "o"
    code = main(["evaluate", "--params", str(params), "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0", "--out", str(out)])
    assert code == 2
    assert "seed 0: timing scores a non-finite test income nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb,key,message", [
    *(("train-rl", key, "seed 0, update 1: non-finite gradient; training diverged")
      for key in ("max_solar_generation", "max_wind_generation", "consumption_noise_std",
                  "penalty_buy_multiplier")),
    ("optimize", "initial_sigma",
     "seed 0, generation 1: no candidate has a finite objective; the search diverged"),
])
def test_a_diverging_run_exits_2_without_a_warning(data_dir, tmp_path, capsys, verb, key,
                                                   message):
    """Each printed a numpy overflow warning first: ``overflow encountered in
    square`` in the A2C update's value loss, ``overflow encountered in exp``
    in the opportunistic decode."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**TINY_CONFIG, key: 1e300}))
    strategy = ["--strategy", "opportunistic"] if verb == "optimize" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([verb, *strategy, "--data", str(data_dir), "--config", str(config),
                     "--seeds", "0", "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--params", "timing.json", "--policy", "policy.npz"],
                                   ["--zero-action", "--params", "timing.json"],
                                   ["--policy", "policy.npz", "--zero-action"]])
def test_evaluate_refuses_two_strategies(data_dir, tmp_path, capsys, flags):
    """``--params`` with ``--policy`` scored the policy alone and ignored the
    params without a word."""
    flags = [str(tmp_path / flag) if "." in flag else flag for flag in flags]
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", *flags, "--data", str(data_dir), "--seeds", "0", "--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb,key,value,message", [
    ("train-rl", "n_steps", 1000, "training split shorter than one episode"),
    ("train-rl", "timesteps", 0, "total_days must be at least 1, got 0"),
    ("train-rl", "eval_days", 0, "eval_days must be at least 1, got 0"),
    ("train-rl", "net_arch", 0, "hidden_size must be at least 1, got 0"),
    # a traceback and exit 1, and a run to exit 0 on an infinite exploration noise
    ("train-rl", "ent_coef", 1e300, "seed 0, update 1: non-finite gradient"),
    ("train-rl", "log_std_init", 1e6, "log_std_init must have a finite exponential"),
    ("optimize", "generations", 0, "generations must be at least 1, got 0"),
    ("optimize", "generations", -3, "generations must be at least 1, got -3"),
])
def test_fitting_verb_refused_before_its_first_seed_writes_nothing(
        data_dir, tmp_path, capsys, verb, key, value, message):
    """The episode longer than the training split left an empty output
    directory; each size below one ran to exit 0 (an empty CMA-ES log, an
    untrained policy, validations over zero days, an actor without hidden
    units)."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**TINY_CONFIG, key: value}))
    strategy = ["--strategy", "timing"] if verb == "optimize" else []
    out = tmp_path / "o"
    code = main([verb, *strategy, "--data", str(data_dir), "--config", str(config),
                 "--seeds", "0", "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_missing_data_dir_exits_3(tmp_path):
    code = main(["optimize", "--strategy", "timing",
                 "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "o")])
    assert code == 3


def test_evaluate_on_hour_24_row_exits_2(tmp_path, capsys):
    data = tmp_path / "d"
    assert main(["generate-data", "--seed", "3", "--days", "60", "--out", str(data)]) == 0
    lines = (data / "prices.csv").read_text().splitlines(keepends=True)
    price = lines[25].split(",")[2]  # day 1, hour 0 becomes day 0, hour 24
    lines[25] = f"{lines[1].split(',')[0]},24,{price}"
    (data / "prices.csv").write_text("".join(lines))
    code = main(["evaluate", "--zero-action", "--data", str(data), "--seeds", "0",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "prices.csv:26: hour 24 outside 0..23" in capsys.readouterr().err


def test_evaluate_with_infinite_profile_hour_exits_2(tmp_path, capsys):
    data = tmp_path / "d"
    assert main(["generate-data", "--seed", "3", "--days", "60", "--out", str(data)]) == 0
    lines = (data / "profile.csv").read_text().splitlines(keepends=True)
    lines[3] = "2,inf\n"
    (data / "profile.csv").write_text("".join(lines))
    code = main(["evaluate", "--zero-action", "--data", str(data), "--seeds", "0",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "profile.csv:4: non-finite value 'inf' for hour 2" in capsys.readouterr().err


def test_evaluate_on_zero_training_prices_exits_2_unless_price_scale_is_set(tmp_path, capsys):
    data = tmp_path / "d"
    assert main(["generate-data", "--seed", "3", "--days", "60", "--out", str(data)]) == 0
    lines = (data / "prices.csv").read_text().splitlines(keepends=True)
    lines[1:] = [line[:line.rindex(",")] + ",0.0\n" for line in lines[1:]]
    (data / "prices.csv").write_text("".join(lines))
    argv = ["evaluate", "--zero-action", "--data", str(data), "--seeds", "0"]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert "mean price 0.0" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"price_scale": 1.0}))
    assert main([*argv, "--config", str(config), "--out", str(tmp_path / "p")]) == 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_consolidates_runs(data_dir, config_path, tmp_path):
    timing_out = tmp_path / "timing"
    zero_out = tmp_path / "zero"
    assert main(["optimize", "--strategy", "timing", "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0,1", "--out", str(timing_out)]) == 0
    assert main(["evaluate", "--zero-action", "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0,1", "--out", str(zero_out)]) == 0
    report_out = tmp_path / "report"
    code = main(["report", "--runs", str(timing_out), str(zero_out),
                 "--data", str(data_dir), "--config", config_path,
                 "--out", str(report_out)])
    assert code == 0
    payload = json.loads((report_out / "balance_report.json").read_text())
    assert "reference_balance" in payload
    names = [row["strategy"] for row in payload["rows"]]
    assert "timing (CMA-ES)" in names and "zero-action" in names
    for row in payload["rows"]:
        incomes = row["incomes"]
        assert row["mean_income"] == pytest.approx(float(np.mean(incomes)), abs=1e-9)
        expected_std = float(np.std(incomes, ddof=1)) if len(incomes) > 1 else 0.0
        assert row["std"] == pytest.approx(expected_std, abs=1e-9)
    battery = (report_out / "trace_battery_timing.csv").read_text().splitlines()
    assert battery[0] == "day,hour,mean,min,max"
    assert len(battery) == 5 * 24 + 1  # five-day window
    prices = (report_out / "trace_bid_prices_timing.csv").read_text().splitlines()
    assert len(prices) == 5 * 24 + 1
    assert (report_out / "trace_unscheduled_timing.csv").exists()
    assert (report_out / "trace_bid_volumes_zero.csv").exists()


def test_report_quotes_a_run_name_and_writes_an_empty_bid_table(data_dir, config_path,
                                                                 tmp_path):
    """A ``--name`` with a comma and a quote reads back unchanged from
    ``balance_report.csv``, quoted as the csv module quotes it, and a run
    without a single bid writes ``bids.csv`` as the header line alone."""
    name = 'zero, "quoted"'
    no_bids = tmp_path / "no_bids.json"
    no_bids.write_text(json.dumps({"strategy_kind": "timing", "alpha": [0.0, 0.0]}))
    runs = {"zero": ["--zero-action", "--name", name], "idle": ["--params", str(no_bids)]}
    for run, flags in runs.items():
        assert main(["evaluate", *flags, "--data", str(data_dir), "--config", config_path,
                     "--seeds", "0,1", "--out", str(tmp_path / run)]) == 0
    for seed in (0, 1):
        bids = (tmp_path / "idle" / f"seed{seed}" / "bids.csv").read_bytes()
        assert bids == b"day,hour,side,volume,price,accepted\r\n"
    assert main(["report", "--runs", *(str(tmp_path / run) for run in runs),
                 "--data", str(data_dir), "--config", config_path,
                 "--out", str(tmp_path / "report")]) == 0
    raw = (tmp_path / "report" / "balance_report.csv").read_bytes()
    with open(tmp_path / "report" / "balance_report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows] == ["strategy", "reference", name, "timing"]
    assert b'\r\n"zero, ""quoted""",' in raw
    rewritten = io.StringIO(newline="")
    csv.writer(rewritten).writerows(rows)
    assert raw == rewritten.getvalue().encode()


def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def number(text):
    return float(text) if text else None


def simulated_days(data_dir, config_path, bids_fn, seeds, window):
    """The collected days of ``window`` as ``evaluate`` simulated them, per seed."""
    cfg = load_config(config_path)
    dataset = load_data_dir(data_dir, cfg)
    env = TradingEnv(dataset, env_config_from(cfg))
    test_range = cli.test_range_of(dataset, cfg)
    per_seed = []
    for seed in seeds:
        _, results = evaluate_strategy(bids_fn, env, test_range, seed, collect_results=True)
        per_seed.append([r for r in results if window[0] <= r.day < window[1]])
    return per_seed


def first_bids(result):
    """``{(side, hour): (volume, price, accepted)}`` of the first bid of each
    side and hour in ``bid_rows()``."""
    first = {}
    for hour, side, volume, price, accepted in result.bid_rows():
        first.setdefault((side, hour), (volume, price, accepted))
    return first


def assert_bid_traces(report_out, name, days):
    """The bid-price and bid-volume traces show, per hour, the market price
    and the first buy and sell of ``days`` (dicts from :func:`first_bids`
    plus the day's prices) with their acceptance, empty where none."""
    for attribute, index in (("price", 1), ("volume", 0)):
        rows = read_table(report_out / f"trace_bid_{attribute}s_{name}.csv")
        assert len(rows) == len(days) * 24
        for row in rows:
            day, hour = int(row["day"]), int(row["hour"])
            prices, first = days[day]
            assert float(row["market_price"]) == prices[hour]
            for side in ("buy", "sell"):
                bid = first.get((side, hour))
                assert number(row[f"{side}_{attribute}"]) == (bid and bid[index])
                assert row[f"{side}_accepted"] == ("" if bid is None else str(int(bid[2])))


@pytest.mark.parametrize("run", ["timing", "zero"])
def test_report_traces_hold_the_simulated_days(data_dir, config_path, tmp_path, run):
    """Battery levels across seeds, the best seed's first bid per side and
    hour with its acceptance, and its unscheduled trades, each as the
    simulator produced them; timing bids leave most hours empty."""
    from dayahead.strategies import TimingParams, save_strategy_params
    from dayahead.training import fixed_action_strategy

    out = tmp_path / run
    if run == "timing":
        params = TimingParams(1.2, 0.8)
        save_strategy_params(tmp_path / "params.json", "timing", params)
        argv, bids_fn = ["--params", str(tmp_path / "params.json")], params.bids
    else:
        argv, bids_fn = ["--zero-action"], fixed_action_strategy(np.zeros((4, 24)))
    result, window = evaluated_run(data_dir, config_path, out, argv)
    report_out = tmp_path / "report"
    assert main(["report", "--runs", str(out), "--data", str(data_dir),
                 "--config", config_path, "--out", str(report_out)]) == 0
    per_seed = simulated_days(data_dir, config_path, bids_fn, result["seeds"], window)
    best = per_seed[int(np.argmax(result["incomes"]))]

    battery = read_table(report_out / f"trace_battery_{run}.csv")
    levels = np.stack([[day_array(r, "battery_level")[1:] for r in days] for days in per_seed],
                      axis=-1).reshape(-1, len(per_seed))
    assert [(int(row["day"]), int(row["hour"])) for row in battery] == \
        [(day, hour) for day in range(*window) for hour in range(24)]
    for row, hour_levels in zip(battery, levels, strict=True):
        assert float(row["mean"]) == pytest.approx(hour_levels.mean(), rel=1e-12, abs=1e-15)
        assert float(row["min"]) == hour_levels.min()
        assert float(row["max"]) == hour_levels.max()

    assert_bid_traces(report_out, run, {r.day: (day_array(r, "price"), first_bids(r))
                                        for r in best})
    if run == "timing":
        assert any(row["buy_price"] == "" for row in read_table(
            report_out / "trace_bid_prices_timing.csv"))

    unscheduled = read_table(report_out / f"trace_unscheduled_{run}.csv")
    want = [(u, s) for r in best
            for u, s in zip(day_array(r, "uns_buy"), day_array(r, "uns_sell"))]
    assert [(float(row["uns_buy"]), float(row["uns_sell"])) for row in unscheduled] == want


def test_report_bid_traces_show_the_first_bid_of_an_hour(data_dir, config_path, tmp_path):
    """A bids.csv holding two buys in one hour shows the one it lists first."""
    result, (lo, hi) = evaluated_run(data_dir, config_path, tmp_path / "zero")
    best = result["seeds"][int(np.argmax(result["incomes"]))]
    bids = tmp_path / "zero" / f"seed{best}" / "bids.csv"
    lines = bids.read_text().splitlines(keepends=True)
    header, rows = lines[0], lines[1:]

    def buy_index(hour):
        return next(i for i, line in enumerate(rows) if line.startswith(f"{lo},{hour},buy,"))

    after = buy_index(3)  # a second buy after the first: the first stays shown
    rows.insert(after + 1, f"{lo},3,buy,0.7,1.5,0\n")
    before = buy_index(5)  # one listed before it: it is shown instead
    rows.insert(before, f"{lo},5,buy,0.9,2.5,1\n")
    bids.write_text(header + "".join(rows))
    report_out = tmp_path / "report"
    assert main(["report", "--runs", str(tmp_path / "zero"), "--data", str(data_dir),
                 "--config", config_path, "--out", str(report_out)]) == 0

    trace = {(int(row["day"]), int(row["hour"])): row
             for row in read_table(report_out / "trace_bid_prices_zero.csv")}
    volumes = {(int(row["day"]), int(row["hour"])): row
               for row in read_table(report_out / "trace_bid_volumes_zero.csv")}
    first = rows[after].split(",")
    assert (trace[lo, 3]["buy_price"], volumes[lo, 3]["buy_volume"]) == (first[4], first[3])
    assert trace[lo, 3]["buy_accepted"] == first[5].strip()
    assert (trace[lo, 5]["buy_price"], volumes[lo, 5]["buy_volume"]) == ("2.5", "0.9")
    assert trace[lo, 5]["buy_accepted"] == "1"


def test_report_refuses_runs_with_different_test_ranges(data_dir, config_path, tmp_path):
    short_config = tmp_path / "short.json"
    short_config.write_text(json.dumps({**TINY_CONFIG, "test_days": 10}))
    runs = []
    for name, cfg in (("long", config_path), ("short", str(short_config))):
        runs.append(str(tmp_path / name))
        assert main(["evaluate", "--zero-action", "--data", str(data_dir),
                     "--config", cfg, "--seeds", "0", "--out", runs[-1]]) == 0
    code = main(["report", "--runs", *runs, "--data", str(data_dir),
                 "--config", config_path, "--out", str(tmp_path / "report")])
    assert code == 2


def test_report_refuses_a_run_without_seeds(data_dir, config_path, tmp_path, capsys):
    evaluated_run(data_dir, config_path, tmp_path / "zero")
    path = tmp_path / "zero" / "result.json"
    result = json.loads(path.read_text())
    path.write_text(json.dumps({**result, "seeds": [], "incomes": []}))
    report_out = tmp_path / "report"
    code = main(["report", "--runs", str(tmp_path / "zero"), "--data", str(data_dir),
                 "--config", config_path, "--out", str(report_out)])
    assert code == 2
    assert "result.json holds no seeds" in capsys.readouterr().err
    assert not report_out.exists()


def test_report_refuses_two_runs_of_one_name(data_dir, config_path, tmp_path, capsys):
    """The second run's trace files overwrote the first's."""
    runs = [tmp_path / "zero", tmp_path / "dup" / "zero"]
    for run in runs:
        evaluated_run(data_dir, config_path, run)
    report_out = tmp_path / "report"
    code = main(["report", "--runs", *map(str, runs), "--data", str(data_dir),
                 "--config", config_path, "--out", str(report_out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(runs[0]) in err and str(runs[1]) in err
    assert not report_out.exists()


@pytest.mark.parametrize("key,value", [
    ("strategy", None), ("strategy", 3),
    ("seeds", None), ("seeds", "0,1"), ("seeds", [0, "1"]), ("seeds", [0, True]),
    ("incomes", None), ("incomes", [1.0]), ("incomes", [1.0, "2"]), ("incomes", 3.0),
    ("test_range", None), ("test_range", [90]), ("test_range", [90.5, 110]),
    ("incomes", [1.0, math.nan]), ("incomes", [math.inf, 1.0]),
])
def test_report_refuses_a_malformed_result(data_dir, config_path, tmp_path, capsys, key, value):
    """A dropped (None) or retyped key is named with its file; a missing
    ``incomes`` crashed with a KeyError traceback."""
    evaluated_run(data_dir, config_path, tmp_path / "zero")
    path = tmp_path / "zero" / "result.json"
    result = json.loads(path.read_text())
    if value is None:
        del result[key]
    else:
        result[key] = value
    path.write_text(json.dumps(result))
    report_out = tmp_path / "report"
    code = main(["report", "--runs", str(tmp_path / "zero"), "--data", str(data_dir),
                 "--config", config_path, "--out", str(report_out)])
    assert code == 2
    assert f"{path} holds no {key}" in capsys.readouterr().err
    assert not report_out.exists()


def test_report_missing_run_exits_3(data_dir, tmp_path):
    code = main(["report", "--runs", str(tmp_path / "absent"),
                 "--data", str(data_dir), "--out", str(tmp_path / "r")])
    assert code == 3


@pytest.mark.parametrize("case", ["config", "policy", "params", "runs", "data"])
def test_a_directory_where_a_file_is_read_exits_3_naming_it(data_dir, tmp_path, capsys, case):
    """Each ended in an ``IsADirectoryError`` traceback and exit 1."""
    data = data_dir
    if case == "data":
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "prices.csv").unlink()
    directory = {"config": tmp_path / "cfg", "policy": tmp_path / "policy.npz",
                 "params": tmp_path / "params.json", "runs": tmp_path / "run" / "result.json",
                 "data": data / "prices.csv"}[case]
    directory.mkdir(parents=True)
    verb = {"config": ["evaluate", "--zero-action", "--config", str(directory)],
            "policy": ["evaluate", "--policy", str(directory)],
            "params": ["evaluate", "--params", str(directory)],
            "runs": ["report", "--runs", str(directory.parent)],
            "data": ["evaluate", "--zero-action"]}[case]
    out = tmp_path / "o"
    assert main([*verb, "--data", str(data), "--seeds", "0", "--out", str(out)]) == 3
    assert str(directory) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("days", ["0", "-2"])
def test_report_rejects_window_below_one_day(data_dir, tmp_path, capsys, days):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--runs", str(tmp_path / "run"), "--window-days", days,
              "--data", str(data_dir), "--out", str(tmp_path / "report")])
    assert exc.value.code == 2
    assert "argument --window-days: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def evaluated_run(data_dir, config_path, out, strategy=("--zero-action",)):
    """An ``evaluate`` run of ``strategy`` (zero action by default) over seeds
    0 and 1, its result and the default five-day report window."""
    assert main(["evaluate", *strategy, "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0,1", "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    test_lo, test_hi = result["test_range"]
    start = test_lo + (test_hi - test_lo - 5) // 2
    return result, (start, start + 5)


def test_report_names_line_of_non_integer_trace_day(data_dir, config_path, tmp_path, capsys):
    evaluated_run(data_dir, config_path, tmp_path / "zero")
    trace = tmp_path / "zero" / "seed1" / "trace.csv"
    lines = trace.read_text().splitlines(keepends=True)
    lines[4] = "x" + lines[4][lines[4].index(","):]
    trace.write_text("".join(lines))
    code = main(["report", "--runs", str(tmp_path / "zero"), "--data", str(data_dir),
                 "--config", config_path, "--out", str(tmp_path / "report")])
    assert code == 2
    assert "trace.csv:5: bad day 'x'" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()  # every trace is read before the first write


def test_report_names_line_of_unknown_bid_side(data_dir, config_path, tmp_path, capsys):
    result, (lo, hi) = evaluated_run(data_dir, config_path, tmp_path / "zero")
    best = result["seeds"][int(np.argmax(result["incomes"]))]
    bids = tmp_path / "zero" / f"seed{best}" / "bids.csv"
    lines = bids.read_text().splitlines(keepends=True)
    line_no = next(i for i, line in enumerate(lines[1:], 2)
                   if lo <= int(line.split(",")[0]) < hi and ",sell," in line)
    lines[line_no - 1] = lines[line_no - 1].replace(",sell,", ",SELL,")
    bids.write_text("".join(lines))
    code = main(["report", "--runs", str(tmp_path / "zero"), "--data", str(data_dir),
                 "--config", config_path, "--out", str(tmp_path / "report")])
    assert code == 2
    assert f"bids.csv:{line_no}: bad side 'SELL'" in capsys.readouterr().err


def test_full_pipeline_reproducible(data_dir, config_path, tmp_path):
    """Identical seeds and configs must give byte-identical artifacts."""
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert main(["optimize", "--strategy", "timing", "--data", str(data_dir),
                     "--config", config_path, "--seeds", "0", "--out", str(out)]) == 0
        outs.append(out)
    assert file_hashes(outs[0]) == file_hashes(outs[1])
