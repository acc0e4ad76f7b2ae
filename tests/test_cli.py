import hashlib
import json
import os

import numpy as np
import pytest

from dayahead.cli import main

TINY_CONFIG = {
    # small synthetic market and desk-tiny budgets so the pipeline runs in seconds
    "generations": 4,
    "timesteps": 120,
    "n_steps": 30,
    "evaluation_frequency": 60,
    "eval_days": 15,
    "net_arch": 16,
    "test_days": 20,
    "split_fractions": [0.7, 0.1, 0.2],
}


def file_hashes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    assert main(["generate-data", "--seed", "7", "--days", "120",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


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


# ---------------------------------------------------------------------------
# optimize / train-rl / evaluate
# ---------------------------------------------------------------------------

def test_optimize_timing_writes_params_and_result(data_dir, config_path, tmp_path):
    out = tmp_path / "timing"
    code = main(["optimize", "--strategy", "timing", "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0,1", "--out", str(out)])
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert result["strategy"] == "timing (CMA-ES)"
    assert len(result["incomes"]) == 2
    params = json.loads((out / "seed0" / "params.json").read_text())
    assert params["strategy_kind"] == "timing"
    assert len(params["alpha"]) == 2
    assert (out / "seed0" / "trace.csv").exists()
    assert (out / "seed0" / "optimization_log.csv").exists()


def test_train_rl_writes_policy_and_logs(data_dir, config_path, tmp_path):
    out = tmp_path / "rl"
    code = main(["train-rl", "--data", str(data_dir), "--config", config_path,
                 "--seeds", "0", "--out", str(out)])
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert result["strategy"] == "neural (A2C)"
    assert (out / "seed0" / "policy.npz").exists()
    log = (out / "seed0" / "training_log.csv").read_text().strip().splitlines()
    assert log[0] == "step,val_reward,is_best"
    assert len(log) >= 2


def test_train_rl_no_weather_flag(data_dir, config_path, tmp_path):
    from dayahead.nets import load_policy

    out = tmp_path / "rl69"
    code = main(["train-rl", "--no-weather", "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0", "--out", str(out)])
    assert code == 0
    policy = load_policy(out / "seed0" / "policy.npz")
    assert policy.input_size == 69


def test_evaluate_zero_action_baseline(data_dir, config_path, tmp_path):
    out = tmp_path / "zero"
    code = main(["evaluate", "--zero-action", "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0,1", "--out", str(out)])
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert len(result["incomes"]) == 2


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
                                       ("temperature_range", [-10.0, 30.0])])
def test_evaluate_policy_with_other_forecast_normalization_exits_2(
        data_dir, tmp_path, capsys, key, value):
    """A config that would renormalize the policy's forecast inputs is refused."""
    from dayahead.nets import init_policy, save_policy

    path = tmp_path / "policy.npz"
    save_policy(path, init_policy(141, hidden_size=8, seed=0, meta={key: value}))
    code = main(["evaluate", "--policy", str(path), "--data", str(data_dir),
                 "--seeds", "0", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and repr(value) in err


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
        "optimize": ["optimize", "--strategy", "timing"],
        "train-rl": ["train-rl"],
        "evaluate": ["evaluate", "--zero-action"],
    }
    for verb, argv in verbs.items():
        built.clear()
        assert main([*argv, *common, "--out", str(tmp_path / verb)]) == 0
        assert len(built) == 1, verb


def test_evaluate_missing_policy_exits_3(data_dir, tmp_path):
    code = main(["evaluate", "--policy", str(tmp_path / "nope.npz"),
                 "--data", str(data_dir), "--out", str(tmp_path / "o")])
    assert code == 3


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


def test_report_missing_run_exits_3(data_dir, tmp_path):
    code = main(["report", "--runs", str(tmp_path / "absent"),
                 "--data", str(data_dir), "--out", str(tmp_path / "r")])
    assert code == 3


@pytest.mark.parametrize("days", ["0", "-2"])
def test_report_rejects_window_below_one_day(data_dir, tmp_path, capsys, days):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--runs", str(tmp_path / "run"), "--window-days", days,
              "--data", str(data_dir), "--out", str(tmp_path / "report")])
    assert exc.value.code == 2
    assert "argument --window-days: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def zero_action_run(data_dir, config_path, out):
    """An evaluated zero-action run over seeds 0 and 1, its result and the
    default five-day report window."""
    assert main(["evaluate", "--zero-action", "--data", str(data_dir),
                 "--config", config_path, "--seeds", "0,1", "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    test_lo, test_hi = result["test_range"]
    start = test_lo + (test_hi - test_lo - 5) // 2
    return result, (start, start + 5)


def test_report_names_line_of_non_integer_trace_day(data_dir, config_path, tmp_path, capsys):
    zero_action_run(data_dir, config_path, tmp_path / "zero")
    trace = tmp_path / "zero" / "seed1" / "trace.csv"
    lines = trace.read_text().splitlines(keepends=True)
    lines[4] = "x" + lines[4][lines[4].index(","):]
    trace.write_text("".join(lines))
    code = main(["report", "--runs", str(tmp_path / "zero"), "--data", str(data_dir),
                 "--config", config_path, "--out", str(tmp_path / "report")])
    assert code == 2
    assert "trace.csv:5: bad day 'x'" in capsys.readouterr().err


def test_report_names_line_of_unknown_bid_side(data_dir, config_path, tmp_path, capsys):
    result, (lo, hi) = zero_action_run(data_dir, config_path, tmp_path / "zero")
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
