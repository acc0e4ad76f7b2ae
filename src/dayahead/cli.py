"""Command-line entry point for reproducible experiments.

Verbs:

* ``generate-data``  write a synthetic dataset (prices, weather, profile,
  forecasts) as CSV files;
* ``optimize``       CMA-ES over a parametric strategy (timing or
  opportunistic), then score the optimized parameters on the test range;
* ``train-rl``       actor-critic training of the neural strategy, with or
  without weather observations;
* ``evaluate``       score stored strategy parameters or a stored policy;
* ``sweep-battery``  repeat RL training across battery capacities;
* ``report``         consolidate run results into a balance table and
  plot-ready hourly trace files.

Every verb accepts ``--config`` (flat JSON of parameter overrides using the
names from the parameter tables), ``--seed`` (master seed), and ``--out``.
Exit codes: 0 success, 2 validation error, 3 missing artifact.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import data as datamod
from . import reports as reportsmod
from .cmaes import CmaesConfig
from .market import (EnvConfig, TradingEnv, delivery_window, export_bid_outcomes,
                     export_day_results, reference_balance)
from .nets import load_policy, save_policy
from .strategies import (BLACKBOX, PARAMETRIC_KINDS, load_strategy_params, params_class,
                         save_strategy_params)
from .training import (A2cConfig, a2c_train, battery_sweep, evaluate_strategy,
                       fixed_action_strategy, optimize_parametric,
                       policy_strategy)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MISSING = 3


class MissingArtifact(FileNotFoundError):
    pass


# ---------------------------------------------------------------------------
# Config handling: one flat JSON document, keys named after the parameter
# tables (environment / CMA-ES / A2C), all optional.
# ---------------------------------------------------------------------------

ENV_CONFIG_KEYS = {
    "action_scheduling_hour": ("action_hour", int),
    "battery_capacity": ("battery_capacity", float),
    "battery_efficiency": ("battery_efficiency", float),
    "max_solar_generation": ("max_solar_generation", float),
    "solar_panel_efficiency": ("solar_efficiency", float),
    "max_wind_generation": ("max_wind_generation", float),
    "max_wind_speed": ("max_wind_speed", float),
    "households": ("households", int),
    "consumption_noise_std": ("consumption_noise_std", float),
    "price_stat_window": ("price_stat_window", int),
    "penalty_buy_multiplier": ("penalty_buy_multiplier", float),
    "penalty_sell_multiplier": ("penalty_sell_multiplier", float),
    "initial_charge": ("initial_charge", float),
    "price_scale": ("price_scale", float),
}

CMA_CONFIG_KEYS = {
    "initial_sigma": ("sigma0", float),
    "population_size": ("population", None),  # "automatic" or an integer
    "generations": ("generations", int),
}

A2C_CONFIG_KEYS = {
    "timesteps": ("total_days", int),
    "evaluation_frequency": ("eval_frequency", int),
    "n_steps": ("n_steps", int),
    "learning_rate": ("learning_rate", float),
    "gamma": ("gamma", float),
    "gae_lambda": ("gae_lambda", float),
    "ent_coef": ("ent_coef", float),
    "vf_coef": ("vf_coef", float),
    "rms_prop_eps": ("rms_eps", float),
    "max_grad_norm": ("max_grad_norm", float),
    "net_arch": ("hidden_size", int),
    "log_std_init": ("log_std_init", float),
    "eval_days": ("eval_days", int),
    "test_days": ("test_days", int),
}


def load_config(path) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise MissingArtifact(f"config file {path} does not exist")
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a flat JSON object")
    return cfg


def env_config_from(cfg: dict) -> EnvConfig:
    kwargs = {}
    for key, (attr, cast) in ENV_CONFIG_KEYS.items():
        if key in cfg:
            kwargs[attr] = cast(cfg[key])
    return EnvConfig(**kwargs)


def cma_config_from(cfg: dict, seed: int) -> CmaesConfig:
    kwargs = {"seed": seed}
    for key, (attr, cast) in CMA_CONFIG_KEYS.items():
        if key in cfg:
            value = cfg[key]
            if key == "population_size":
                value = None if value == "automatic" else int(value)
            elif cast is not None:
                value = cast(value)
            kwargs[attr] = value
    return CmaesConfig(**kwargs)


def a2c_config_from(cfg: dict, include_weather: bool) -> A2cConfig:
    kwargs = {"include_weather": include_weather}
    for key, (attr, cast) in A2C_CONFIG_KEYS.items():
        if key in cfg:
            kwargs[attr] = cast(cfg[key])
    return A2cConfig(**kwargs)


def load_data_dir(data_dir, cfg: dict) -> datamod.Dataset:
    paths = {name: os.path.join(data_dir, f"{name}.csv")
             for name in ("prices", "weather", "profile", "forecasts")}
    for name in ("prices", "weather", "profile"):
        if not os.path.exists(paths[name]):
            raise MissingArtifact(f"missing {paths[name]}")
    forecast_path = paths["forecasts"] if os.path.exists(paths["forecasts"]) else None
    dataset = datamod.load_dataset(paths["prices"], paths["weather"],
                                   paths["profile"], forecast_path)
    fractions = cfg.get("split_fractions")
    return datamod.split_dataset(dataset, tuple(fractions) if fractions else None)


def parse_seeds(text: str | None, master: int) -> list[int]:
    if text:
        return [int(v) for v in text.replace(",", " ").split()]
    return [master + i for i in range(5)]


def write_manifest(out_dir, command: str, cfg: dict, seeds: list[int],
                   dataset: datamod.Dataset | None, extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": cfg,
        "seeds": seeds,
    }
    if dataset is not None:
        manifest["data_hash"] = dataset.content_hash()
    if extra:
        manifest.update(extra)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def test_range_of(dataset: datamod.Dataset, cfg: dict) -> tuple[int, int]:
    return delivery_window(dataset.split.test, int(cfg.get("test_days", 365)))


def _write_result(out_dir, name: str, seeds: list[int], incomes: list[float],
                  test_range: tuple[int, int], artifacts: dict) -> None:
    payload = {
        "strategy": name,
        "seeds": seeds,
        "incomes": [float(v) for v in incomes],
        "test_range": list(test_range),
        "artifacts": artifacts,
    }
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _print_summary(name: str, incomes: list[float]) -> None:
    row = reportsmod.BalanceRow(name, incomes)
    print(f"{name}: {row.mean:.2f} +- {row.std:.2f}")


def _score_and_trace(bids_fn, env, test_range, seed, seed_dir):
    income, results = evaluate_strategy(bids_fn, env, test_range, seed,
                                        collect_results=True)
    os.makedirs(seed_dir, exist_ok=True)
    export_day_results(results, os.path.join(seed_dir, "trace.csv"))
    export_bid_outcomes(results, os.path.join(seed_dir, "bids.csv"))
    return income


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def cmd_generate_data(args) -> int:
    cfg = load_config(args.config)
    if args.days < datamod.MIN_SYNTHETIC_DAYS:
        raise ValueError(f"--days must be at least {datamod.MIN_SYNTHETIC_DAYS}")
    gen_keys = {f.name for f in __import__("dataclasses").fields(datamod.SyntheticConfig)}
    overrides = {k: v for k, v in cfg.items() if k in gen_keys}
    gen_config = datamod.SyntheticConfig(**overrides) if overrides else None
    dataset = datamod.generate_synthetic_dataset(args.seed, args.days, gen_config)
    dataset = datamod.make_forecasts(dataset, seed=args.seed + 1)
    os.makedirs(args.out, exist_ok=True)
    paths = datamod.write_dataset(dataset, args.out)
    write_manifest(args.out, "generate-data", cfg, [args.seed], dataset,
                   {"days": args.days, "files": [os.path.basename(p) for p in paths]})
    print(f"wrote {len(paths)} files to {args.out}")
    print(f"days: {dataset.num_days}  start: {dataset.start_date}")
    print(f"mean price: {dataset.prices.mean():.2f}  "
          f"min: {dataset.prices.min():.2f}  max: {dataset.prices.max():.2f}")
    print(f"mean cloudiness: {dataset.cloudiness.mean():.2f} Oktas  "
          f"mean wind: {dataset.wind_speed.mean():.2f} m/s")
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    dataset = load_data_dir(args.data, cfg)
    env_config = env_config_from(cfg)
    seeds = parse_seeds(args.seeds, args.seed)
    kind = args.strategy
    test_range = test_range_of(dataset, cfg)
    env = TradingEnv(dataset, env_config)
    os.makedirs(args.out, exist_ok=True)

    incomes = []
    artifacts = {}
    for seed in seeds:
        cma_config = cma_config_from(cfg, seed)
        params_vec, history = optimize_parametric(kind, env, cma_config, seed)
        seed_dir = os.path.join(args.out, f"seed{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        params = params_class(kind).from_vector(params_vec)
        save_strategy_params(os.path.join(seed_dir, "params.json"), kind, params)
        with open(os.path.join(seed_dir, "optimization_log.csv"), "w") as fh:
            fh.write("generation,best_objective,median_objective,sigma\n")
            for rec in history.records:
                fh.write(f"{rec.generation},{rec.best_objective!r},"
                         f"{rec.median_objective!r},{rec.sigma!r}\n")
        income = _score_and_trace(params.bids, env, test_range, seed, seed_dir)
        incomes.append(income)
        artifacts[f"seed{seed}"] = os.path.join(f"seed{seed}", "params.json")
        print(f"seed {seed}: test income {income:.2f}")

    name = f"{kind} (CMA-ES)"
    _write_result(args.out, name, seeds, incomes, test_range, artifacts)
    write_manifest(args.out, "optimize", cfg, seeds, dataset, {"strategy": kind})
    _print_summary(name, incomes)
    return EXIT_OK


def cmd_train_rl(args) -> int:
    cfg = load_config(args.config)
    dataset = load_data_dir(args.data, cfg)
    env_config = env_config_from(cfg)
    include_weather = not args.no_weather
    a2c_config = a2c_config_from(cfg, include_weather)
    seeds = parse_seeds(args.seeds, args.seed)
    test_range = test_range_of(dataset, cfg)
    env = TradingEnv(dataset, env_config)
    os.makedirs(args.out, exist_ok=True)

    incomes = []
    artifacts = {}
    for seed in seeds:
        run = a2c_train(env, a2c_config, seed)
        seed_dir = os.path.join(args.out, f"seed{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        policy_path = os.path.join(seed_dir, "policy.npz")
        save_policy(policy_path, run.best_policy)
        save_strategy_params(os.path.join(seed_dir, "params.json"), BLACKBOX, "policy.npz")
        with open(os.path.join(seed_dir, "training_log.csv"), "w") as fh:
            fh.write("step,val_reward,is_best\n")
            for step, val, is_best in run.log_rows():
                fh.write(f"{step},{val!r},{is_best}\n")
        income = _score_and_trace(policy_strategy(run.best_policy, include_weather),
                                  env, test_range, seed, seed_dir)
        incomes.append(income)
        artifacts[f"seed{seed}"] = os.path.join(f"seed{seed}", "policy.npz")
        print(f"seed {seed}: best val {run.best_val_reward:.2f} at step {run.best_step}, "
              f"test income {income:.2f}")

    name = "neural (A2C)" if include_weather else "neural (A2C, no weather)"
    _write_result(args.out, name, seeds, incomes, test_range, artifacts)
    write_manifest(args.out, "train-rl", cfg, seeds, dataset,
                   {"include_weather": include_weather})
    _print_summary(name, incomes)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    dataset = load_data_dir(args.data, cfg)
    env_config = env_config_from(cfg)
    seeds = parse_seeds(args.seeds, args.seed)
    test_range = test_range_of(dataset, cfg)
    os.makedirs(args.out, exist_ok=True)

    if args.policy:
        if not os.path.exists(args.policy):
            raise MissingArtifact(f"policy file {args.policy} not found")
        policy = load_policy(args.policy)
        include_weather = bool(policy.meta.get("include_weather", True))
        # The policy must see forecasts normalized as in its training.
        for key, value in (("max_wind_speed", env_config.max_wind_speed),
                           ("temperature_range", list(env_config.temperature_range))):
            if key in policy.meta and policy.meta[key] != value:
                raise ValueError(f"policy was trained with {key} {policy.meta[key]!r}, "
                                 f"the config gives {value!r}")
        if "price_scale" in policy.meta:
            from dataclasses import replace
            env_config = replace(env_config, price_scale=float(policy.meta["price_scale"]))
        bids_fn = policy_strategy(policy, include_weather)
        name = args.name or "policy"
    elif args.params:
        if not os.path.exists(args.params):
            raise MissingArtifact(f"params file {args.params} not found")
        kind, params = load_strategy_params(args.params)
        if kind == BLACKBOX:
            raise ValueError("black-box params reference a policy file; pass it via --policy")
        bids_fn = params.bids
        name = args.name or kind
    elif args.zero_action:
        bids_fn = fixed_action_strategy(np.zeros((4, 24)))
        name = args.name or "zero-action"
    else:
        raise ValueError("pass one of --policy, --params or --zero-action")

    env = TradingEnv(dataset, env_config)
    incomes = []
    for seed in seeds:
        income = _score_and_trace(bids_fn, env, test_range, seed,
                                  os.path.join(args.out, f"seed{seed}"))
        incomes.append(income)
        print(f"seed {seed}: income {income:.2f}")
    _write_result(args.out, name, seeds, incomes, test_range, {})
    write_manifest(args.out, "evaluate", cfg, seeds, dataset, {"strategy": name})
    return EXIT_OK


def cmd_sweep_battery(args) -> int:
    cfg = load_config(args.config)
    dataset = load_data_dir(args.data, cfg)
    env_config = env_config_from(cfg)
    a2c_config = a2c_config_from(cfg, include_weather=True)
    seeds = parse_seeds(args.seeds, args.seed)
    capacities = [float(v) for v in args.capacities.replace(",", " ").split()]
    os.makedirs(args.out, exist_ok=True)

    rows = battery_sweep(capacities, dataset, env_config, a2c_config, seeds,
                         progress=lambda cap, seed, income:
                         print(f"capacity {cap}: seed {seed} income {income:.2f}"))
    with open(os.path.join(args.out, "battery_sweep.csv"), "w") as fh:
        fh.write("capacity,mean_income,std,incomes\n")
        for capacity, row in rows:
            joined = " ".join(repr(v) for v in row.incomes)
            fh.write(f"{capacity!r},{row.mean!r},{row.std!r},{joined}\n")
    write_manifest(args.out, "sweep-battery", cfg, seeds, dataset,
                   {"capacities": capacities})
    for capacity, row in rows:
        print(f"capacity {capacity}: {row.mean:.2f} +- {row.std:.2f}")
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = load_config(args.config)
    dataset = load_data_dir(args.data, cfg)
    env_config = env_config_from(cfg)
    os.makedirs(args.out, exist_ok=True)
    run_dirs = args.runs

    missing = [d for d in run_dirs if not os.path.exists(os.path.join(d, "result.json"))]
    if missing:
        raise MissingArtifact("missing run results: " + ", ".join(missing))

    results = []
    for run_dir in run_dirs:
        with open(os.path.join(run_dir, "result.json")) as fh:
            results.append(json.load(fh))
    ranges = {tuple(result["test_range"]) for result in results}
    if len(ranges) != 1:
        raise ValueError(f"runs differ in test_range: {sorted(ranges)}")
    test_range = ranges.pop()

    report = reportsmod.BalanceReport()
    for result in results:
        report.add(result["strategy"], result["incomes"])
    report.reference = reference_balance(dataset, env_config, test_range)
    report.write_csv(os.path.join(args.out, "balance_report.csv"))
    report.write_json(os.path.join(args.out, "balance_report.json"))

    window = reportsmod.middle_window(test_range, args.window_days)
    for run_dir, result in zip(run_dirs, results):
        name = os.path.basename(os.path.normpath(run_dir))
        seed_results = []
        for seed in result["seeds"]:
            trace = os.path.join(run_dir, f"seed{seed}", "trace.csv")
            bids = os.path.join(run_dir, f"seed{seed}", "bids.csv")
            if not os.path.exists(trace):
                raise MissingArtifact(f"missing trace {trace}")
            seed_results.append(reportsmod.read_day_results(trace, bids, window))
        reportsmod.write_battery_trace(seed_results, window,
                                       os.path.join(args.out, f"trace_battery_{name}.csv"))
        best_idx = int(np.argmax(result["incomes"]))
        best = seed_results[best_idx]
        reportsmod.write_bid_price_trace(best, window,
                                         os.path.join(args.out, f"trace_bid_prices_{name}.csv"))
        reportsmod.write_bid_volume_trace(best, window,
                                          os.path.join(args.out, f"trace_bid_volumes_{name}.csv"))
        reportsmod.write_unscheduled_trace(best, window,
                                           os.path.join(args.out, f"trace_unscheduled_{name}.csv"))

    print(f"report written to {args.out}")
    if report.reference is not None:
        print(f"reference balance: {report.reference:.2f}")
    for row in report.rows:
        print(f"{row.name}: {row.mean:.2f} +- {row.std:.2f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1 (got {value})")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dayahead",
                                     description="Day-ahead market trading laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_data=True):
        p.add_argument("--config", default=None, help="flat JSON config file")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", required=True, help="output directory")
        if needs_data:
            p.add_argument("--data", required=True, help="dataset directory")
            p.add_argument("--seeds", default=None,
                           help="comma-separated run seeds (default: 5 from --seed)")

    p = sub.add_parser("generate-data", help="write a synthetic dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("optimize", help="CMA-ES over a parametric strategy")
    p.add_argument("--strategy", choices=list(PARAMETRIC_KINDS), required=True)
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("train-rl", help="actor-critic training of the neural strategy")
    p.add_argument("--no-weather", action="store_true",
                   help="drop the weather forecast block from observations")
    common(p)
    p.set_defaults(func=cmd_train_rl)

    p = sub.add_parser("evaluate", help="score stored parameters or a policy")
    p.add_argument("--params", default=None, help="strategy params JSON")
    p.add_argument("--policy", default=None, help="policy .npz file")
    p.add_argument("--zero-action", action="store_true",
                   help="score the untrained zero-action baseline")
    p.add_argument("--name", default=None, help="row name in the result")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-battery", help="train across battery capacities")
    p.add_argument("--capacities", required=True, help="e.g. 1.0,1.5,2.0")
    common(p)
    p.set_defaults(func=cmd_sweep_battery)

    p = sub.add_parser("report", help="consolidate runs into tables and traces")
    p.add_argument("--runs", nargs="+", required=True, help="run directories")
    p.add_argument("--window-days", type=positive_int, default=5,
                   help="days in the trace window (at least 1)")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:  # MissingArtifact included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (ValueError, datamod.DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
