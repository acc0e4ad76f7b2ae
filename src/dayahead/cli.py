"""Command-line entry point for reproducible experiments.

Verbs:

* ``generate-data``  write a synthetic dataset (prices, weather, profile,
  forecasts) as CSV files;
* ``optimize``       CMA-ES over a parametric strategy (timing or
  opportunistic), then score the optimized parameters on the test range;
* ``train-rl``       actor-critic training of the neural strategy, with or
  without weather observations;
* ``evaluate``       score stored strategy parameters or a stored policy
  (exactly one of ``--params``, ``--policy`` and ``--zero-action``); a
  policy file that records another battery capacity, maximum wind speed or
  temperature range than the config gives is refused with exit 2, both
  values named, and a value the file does not record is not checked;
* ``sweep-battery``  ``train-rl`` once per battery capacity;
* ``report``         consolidate run results into a balance table and
  plot-ready hourly trace files.

Every verb accepts ``--config`` (flat JSON of parameter overrides using the
names from the parameter tables), ``--seed`` (master seed), and ``--out``.
Each section of the config (environment, CMA-ES, A2C, data split, test range
and synthetic generator) is a dataclass whose fields declare its keys: a
field is the key of its own name or of the one its metadata gives.
:data:`CONFIG_KEYS`, computed from those fields, maps each key to its
section, field and cast, and the cast follows from the field's type: a whole
number, a finite number, ISO date text, a list of so many finite numbers,
or ``"automatic"`` for a field that may be None.  Every known key is cast and
checked when the config is loaded, by every verb, whether it uses the key or
not: a value its cast refuses (a fraction for a whole number, NaN or an
infinity for a real number, ``true`` or ``false`` for either, or
``split_fractions`` that are not three numbers)
or that its section's dataclass refuses when built from that key alone (an
``action_scheduling_hour`` of 24, a ``population_size`` of 2, a
``test_days`` below 1, ``split_fractions`` that do not sum to 1) exits 2
with the key and value named, before the verb writes anything.  Keys that no
dataclass declares are still ignored.
A ``--seeds`` list that is empty, names a seed twice or names a negative
seed exits 2 as well, and so does a negative ``--seed`` when it sets the
five default run seeds.  A test range with a day that has no forecast,
from the day before its first delivery day to its last, exits 2 with the
first such day and its date named, before anything is written.

Every JSON file a verb reads (the config, a ``params.json``, the header of
a ``policy.npz`` and each ``result.json``) goes through ``data.read_json``
and is checked against its reader's schema; a file that is not JSON, or
whose key is missing or of the wrong kind, exits 2 naming the file and the
key, and so does a policy file that is not an ``.npz`` at all.  The config
alone is read leniently: its values go through the casts of the table.

``optimize``, ``train-rl`` and ``evaluate`` lay out ``--out`` as one run
directory: per run seed, ``seed<N>/`` holds the scoring of the test range,
``trace.csv`` (the simulated hours) and ``bids.csv`` (each bid and whether
it cleared), next to the verb's own files (``params.json`` and
``optimization_log.csv`` from ``optimize``; ``policy.npz`` and
``training_log.csv`` from ``train-rl``).  ``result.json`` (strategy, seeds,
incomes, test range and each seed's artifact) and ``manifest.json``
(command, config, seeds, data hash) close the run; ``report`` reads it back,
checking each ``result.json`` first, and refuses two runs of one basename,
which names its trace files.  ``report`` also refuses, before it writes
anything, a seed's ``trace.csv`` that lacks a day of the trace window
(naming the file and the days), and a trace or bid value that its writer
never writes: a ``trace.csv`` value that is not finite, a bid volume that is
not finite and positive, or a bid price that is negative or NaN (naming the
file, day, hour and column).

``sweep-battery`` lays out ``--out`` as one ``capacity<C>/`` directory per
capacity, in ascending order, each the run directory ``train-rl`` writes
with ``battery_capacity: C`` (its strategy is named ``capacity <C>``), plus
``battery_sweep.csv`` (per capacity the mean, spread and seed incomes) and
``manifest.json``.  Every capacity is checked before the first one trains.

Every CSV file a verb writes has rows ended by CR LF and floats written by
``repr``, so they read back bit for bit; every JSON file has its keys
sorted, an indent of 1 and LF line ends.

Exit codes: 0 success, 2 validation error, 3 missing artifact (a file that
is absent, or a directory in its place, named).  Training that diverges (a
non-finite gradient) exits 2 as well, naming the seed and the update, and so
does a CMA-ES search with a generation none of whose candidates scores a
finite objective, naming the seed and the generation, and a strategy whose
test income is not finite, naming the seed before its files are exported:
no verb writes a ``result.json`` that ``report`` refuses.
``--out`` is made with the first file a verb writes, after all of its input
checks and, for the four verbs above, after the first seed's strategy is
fitted or loaded; so a verb that exits 2 or 3 on its inputs writes nothing.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from datetime import date
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import data as datamod
from . import reports as reportsmod
from .cmaes import CmaesConfig
from .market import (EnvConfig, Episode, TradingEnv, delivery_window, export_bid_outcomes,
                     export_day_results, reference_balance)
from .nets import load_policy, save_policy
from .strategies import (PARAMETRIC_KINDS, load_strategy_params, params_class,
                         save_strategy_params)
from .training import (A2cConfig, a2c_train, evaluate_strategy, fixed_action_strategy,
                       optimize_parametric, policy_strategy)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MISSING = 3


class MissingArtifact(FileNotFoundError):
    pass


OPTIMIZATION_LOG_HEADER = ("generation", "best_objective", "median_objective", "sigma")
TRAINING_LOG_HEADER = ("step", "val_reward", "is_best")
BATTERY_SWEEP_HEADER = ("capacity", "mean_income", "std", "incomes")


# ---------------------------------------------------------------------------
# Config handling: one flat JSON document whose keys are all optional.  The
# dataclass of each section declares its keys: a field is a key under its own
# name, or under ``metadata["key"]``, and a key of None marks a field that a
# flag sets.  Each key's cast follows from its field's type, and nothing but
# the table computed from them reads the document.  Keys that no field
# declares are still ignored, since perfbench's toy A2C budget passes one
# (refusing them is ROADMAP item 6, after item 1a).
# ---------------------------------------------------------------------------

def _whole(value) -> int:
    """``int(value)``, refusing a number with a fractional part rather than
    truncating it, one outside the 64-bit integers and a JSON ``true`` or
    ``false``; ``2.0`` and ``"2"`` are accepted."""
    if isinstance(value, bool):
        raise ValueError("true and false are not numbers")
    whole = int(value)
    if not isinstance(value, str) and whole != value:
        raise ValueError("not a whole number")
    if not -2**63 <= whole < 2**63:
        raise ValueError("outside the 64-bit integer range")
    return whole


def _finite(value) -> float:
    """``float(value)``, refusing NaN and infinities, which the JSON decoder
    reads from ``NaN`` and ``Infinity``, and a JSON ``true`` or ``false``."""
    if isinstance(value, bool):
        raise ValueError("true and false are not numbers")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("not a finite number")
    return number


def _cast_of(hint, default):
    """The cast of a config value for a field of type ``hint``: a whole
    number for ``int``, a finite number for ``float``, ISO text for a date,
    a list of as many finite numbers as ``default`` holds for a tuple, and
    ``"automatic"`` (None) or the cast of ``X`` for ``X | None``."""
    if hint is int:
        return _whole
    if hint is float:
        return _finite
    if hint is date:
        return date.fromisoformat
    if tuple in (hint, get_origin(hint)):
        def reals(value) -> tuple[float, ...]:
            if not isinstance(value, list) or len(value) != len(default):
                raise ValueError(f"not a list of {len(default)} numbers")
            return tuple(map(_finite, value))

        return reals
    if get_args(hint)[1:] != (type(None),):
        raise TypeError(f"no config cast for a field of type {hint}")
    cast = _cast_of(get_args(hint)[0], default)
    return lambda value: None if value == "automatic" else cast(value)


@dataclass(frozen=True)
class ScoringConfig:
    """The test range: at most ``days`` delivery days from the start of the
    test split."""

    days: int = field(default=365, metadata={"key": "test_days"})

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError(f"days must be at least 1, got {self.days}")


# The dataclass of each config section.
SECTIONS = {"env": EnvConfig, "cmaes": CmaesConfig, "a2c": A2cConfig,
            "split": datamod.SplitConfig, "test": ScoringConfig,
            "synthetic": datamod.SyntheticConfig}

# key -> (section, field, cast), from the fields of each section's dataclass.
CONFIG_KEYS = {key: (section, f.name, _cast_of(hints[f.name], f.default))
               for section, config in SECTIONS.items()
               for hints in [get_type_hints(config)] for f in fields(config)
               if (key := f.metadata.get("key", f.name)) is not None}


def _cast(key: str, value):
    """``value`` read by the cast of ``key`` and checked by building its
    section's dataclass from this key alone, so that a value out of its
    range is refused under the key the config names it by."""
    section, name, cast = CONFIG_KEYS[key]
    try:
        result = cast(value)
        SECTIONS[section](**{name: result})
        return result
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"config key {key!r} has value {value!r}: {exc}") from None


def load_config(path) -> dict:
    """The flat JSON object at ``path`` ({} for None), every known key cast
    and checked once, whichever verb reads it, so that a bad value fails
    before a verb writes anything."""
    if path is None:
        return {}
    cfg = datamod.read_json(path, {})  # any keys: CONFIG_KEYS's casts check the values
    for key in cfg:
        if key in CONFIG_KEYS:
            _cast(key, cfg[key])
    return cfg


def config_section(cfg: dict, section: str) -> dict:
    """Keyword arguments for ``section``: each key of ``cfg`` that the table
    maps there, cast, under its field name."""
    return {name: _cast(key, cfg[key]) for key, (owner, name, _) in CONFIG_KEYS.items()
            if owner == section and key in cfg}


def build_section(cfg: dict, section: str, **flags):
    """The dataclass of ``section`` built from its keys in ``cfg`` and from
    ``flags``, the fields a flag sets."""
    return SECTIONS[section](**config_section(cfg, section), **flags)


def a2c_config_from(cfg: dict, include_weather: bool) -> A2cConfig:
    return build_section(cfg, "a2c", include_weather=include_weather)


def load_data_dir(data_dir, cfg: dict) -> datamod.Dataset:
    paths = {name: os.path.join(data_dir, f"{name}.csv")
             for name in ("prices", "weather", "profile", "forecasts")}
    for name in ("prices", "weather", "profile"):
        if not os.path.exists(paths[name]):
            raise MissingArtifact(f"missing {paths[name]}")
    forecast_path = paths["forecasts"] if os.path.exists(paths["forecasts"]) else None
    dataset = datamod.load_dataset(paths["prices"], paths["weather"],
                                   paths["profile"], forecast_path)
    return datamod.split_dataset(dataset, **config_section(cfg, "split"))


def _parse_list(flag: str, text: str, cast, kind: str, noun: str) -> list:
    """The values of a comma- or space-separated ``flag`` list, each cast by
    ``cast`` and each once."""
    try:
        values = [cast(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"{flag} {text!r} must list {kind}") from None
    if not values or len(set(values)) != len(values):
        raise ValueError(f"{flag} {text!r} must name at least one {noun}, each once")
    return values


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError("negative seed")
    return seed


def parse_seeds(text: str | None, master: int) -> list[int]:
    """The run seeds of ``--seeds``, each once; five from ``master`` when the
    flag is not given.  No run seed may be negative."""
    if text is None:
        if master < 0:
            raise ValueError(f"--seed {master} must be at least 0: it sets the run seeds")
        return [master + i for i in range(5)]
    return _parse_list("--seeds", text, _seed, "non-negative whole numbers", "seed")


def parse_capacities(text: str) -> list[float]:
    """The battery capacities of ``--capacities``, each once."""
    return _parse_list("--capacities", text, float, "numbers", "capacity")


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
    datamod.write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _verb_inputs(args):
    """What each verb over a dataset reads first: the config, the split
    dataset, the environment config, the run seeds and the test range."""
    cfg = load_config(args.config)
    dataset = load_data_dir(args.data, cfg)
    return (cfg, dataset, build_section(cfg, "env"), parse_seeds(args.seeds, args.seed),
            delivery_window(dataset.split.test, build_section(cfg, "test").days))


def seed_dir(seed: int) -> str:
    """The name of one seed's directory in a run directory."""
    return f"seed{seed}"


def _seed_file(run_dir, seed: int, name: str) -> str:
    """The path of ``name`` in a seed directory, made with the run directory on first use."""
    os.makedirs(os.path.join(run_dir, seed_dir(seed)), exist_ok=True)
    return os.path.join(run_dir, seed_dir(seed), name)


def _run_seeds(run_dir, command: str, cfg: dict, env: TradingEnv, seeds: list[int],
               test_range: tuple[int, int], name: str, extra: dict, fit) -> list[float]:
    """Fill the run directory of a scoring verb; returns the test incomes.
    Per seed, ``fit(seed, seed_file)`` fits or loads the strategy, writes the
    verb's own files to ``seed_file(name)``, and returns the strategy, the
    file name of its artifact (or None) and the text printed before the
    income; the strategy is then scored on ``test_range`` and exported, and
    a non-finite income raises a FloatingPointError naming the seed first.
    The test range is checked first, by the forecast coverage rule of
    ``TradingEnv.reset``, so a gap in it fails before anything is written."""
    env.check_episode(test_range[0], test_range[1] - test_range[0])
    incomes, artifacts = [], {}
    for seed in seeds:
        seed_file = functools.partial(_seed_file, run_dir, seed)
        strategy, artifact, text = fit(seed, seed_file)
        income, results = evaluate_strategy(strategy, env, test_range, seed,
                                            collect_results=True)
        if not math.isfinite(income):  # no verb writes a result.json its reader refuses
            raise FloatingPointError(f"seed {seed}: {name} scores a non-finite test income "
                                     f"{income}")
        episode = Episode.collect(results)
        export_day_results(episode, seed_file("trace.csv"))
        export_bid_outcomes(episode, seed_file("bids.csv"))
        del results, episode  # the collected days; the next seed's fit must not hold them
        incomes.append(float(income))
        if artifact is not None:
            artifacts[seed_dir(seed)] = os.path.join(seed_dir(seed), artifact)
        print(f"seed {seed}: {text}income {income:.2f}")
    datamod.write_json(os.path.join(run_dir, "result.json"),
                       {"strategy": name, "seeds": seeds, "incomes": incomes,
                        "test_range": list(test_range), "artifacts": artifacts})
    write_manifest(run_dir, command, cfg, seeds, env.dataset, extra)
    return incomes


# What report reads of a result.json; read_result also wants one income per seed.
RESULT_SCHEMA = {"strategy": str, "seeds": [int], "incomes": [float], "test_range": [int, 2]}


def read_result(path) -> dict:
    """The ``result.json`` at ``path``, checked against :data:`RESULT_SCHEMA`
    and holding one income for each of at least one seed; a file that holds
    less raises a DataError that names it and the key."""
    result = datamod.read_json(path, RESULT_SCHEMA)
    if not result["seeds"] or len(result["incomes"]) != len(result["seeds"]):
        key = "incomes" if result["seeds"] else "seeds"
        raise datamod.DataError(f"{path} holds no {key} (at least one seed, one income each)")
    return result


def _print_summary(name: str, incomes: list[float]) -> None:
    row = reportsmod.BalanceRow(name, incomes)
    print(f"{name}: {row.mean:.2f} +- {row.std:.2f}")


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def cmd_generate_data(args) -> int:
    cfg = load_config(args.config)
    if args.days < datamod.MIN_SYNTHETIC_DAYS:
        raise ValueError(f"--days must be at least {datamod.MIN_SYNTHETIC_DAYS}")
    gen_config = build_section(cfg, "synthetic")
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
    cfg, dataset, env_config, seeds, test_range = _verb_inputs(args)
    cma_config = build_section(cfg, "cmaes")
    kind = args.strategy
    env = TradingEnv(dataset, env_config)

    def fit(seed, seed_file):
        params_vec, records = optimize_parametric(kind, env, cma_config, seed)
        params = params_class(kind).from_vector(params_vec)
        save_strategy_params(seed_file("params.json"), kind, params)
        datamod.write_lines(seed_file("optimization_log.csv"), OPTIMIZATION_LOG_HEADER,
                            (f"{rec.generation},{rec.best_objective!r},"
                             f"{rec.median_objective!r},{rec.sigma!r}"
                             for rec in records))
        return params.bids, "params.json", "test "

    name = f"{kind} (CMA-ES)"
    _print_summary(name, _run_seeds(args.out, args.command, cfg, env, seeds, test_range, name,
                                    {"strategy": kind}, fit))
    return EXIT_OK


def _a2c_fit(env: TradingEnv, a2c_config: A2cConfig):
    """The ``fit`` of :func:`_run_seeds` for the neural strategy: train on
    ``env``, write the best policy and the training log."""

    def fit(seed, seed_file):
        run = a2c_train(env, a2c_config, seed)
        save_policy(seed_file("policy.npz"), run.best_policy)
        datamod.write_lines(seed_file("training_log.csv"), TRAINING_LOG_HEADER,
                            (f"{step},{val!r},{is_best}" for step, val, is_best in run.log_rows()))
        return (policy_strategy(run.best_policy), "policy.npz",
                f"best val {run.best_val_reward:.2f} at step {run.best_step}, test ")

    return fit


def cmd_train_rl(args) -> int:
    cfg, dataset, env_config, seeds, test_range = _verb_inputs(args)
    include_weather = not args.no_weather
    a2c_config = a2c_config_from(cfg, include_weather)
    env = TradingEnv(dataset, env_config)
    name = "neural (A2C)" if include_weather else "neural (A2C, no weather)"
    _print_summary(name, _run_seeds(args.out, args.command, cfg, env, seeds, test_range, name,
                                    {"include_weather": include_weather},
                                    _a2c_fit(env, a2c_config)))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg, dataset, env_config, seeds, test_range = _verb_inputs(args)
    if args.policy:
        policy = load_policy(args.policy)
        for key, value in env_config.policy_binding().items():
            if key in policy.meta and policy.meta[key] != value:
                raise ValueError(f"policy was trained with {key} {policy.meta[key]!r}, "
                                 f"the config gives {value!r}")
        if "price_scale" in policy.meta:
            env_config = replace(env_config, price_scale=policy.meta["price_scale"])
        bids_fn = policy_strategy(policy)
        name = args.name or "policy"
    elif args.params:
        kind, params = load_strategy_params(args.params)
        bids_fn = params.bids
        name = args.name or kind
    elif args.zero_action:
        bids_fn = fixed_action_strategy(np.zeros((4, 24)))
        name = args.name or "zero-action"
    else:
        raise ValueError("pass one of --policy, --params or --zero-action")

    env = TradingEnv(dataset, env_config)
    _run_seeds(args.out, args.command, cfg, env, seeds, test_range, name, {"strategy": name},
               lambda seed, seed_file: (bids_fn, None, ""))
    return EXIT_OK


def cmd_sweep_battery(args) -> int:
    capacities = parse_capacities(args.capacities)
    cfg, dataset, env_config, seeds, test_range = _verb_inputs(args)
    a2c_config = a2c_config_from(cfg, include_weather=True)
    # Every capacity is checked, by EnvConfig, before the first one trains.
    env_configs = [replace(env_config, battery_capacity=c) for c in sorted(capacities)]

    rows = []
    for config in env_configs:
        capacity = config.battery_capacity
        env = TradingEnv(dataset, config)
        name = f"capacity {capacity!r}"
        incomes = _run_seeds(os.path.join(args.out, f"capacity{capacity!r}"), args.command,
                             {**cfg, "battery_capacity": capacity}, env, seeds, test_range,
                             name, {"include_weather": True}, _a2c_fit(env, a2c_config))
        rows.append((capacity, reportsmod.BalanceRow(name, incomes)))
        _print_summary(name, incomes)
    datamod.write_lines(os.path.join(args.out, "battery_sweep.csv"), BATTERY_SWEEP_HEADER,
                        (f"{capacity!r},{row.mean!r},{row.std!r},"
                         f"{' '.join(map(repr, row.incomes))}" for capacity, row in rows))
    write_manifest(args.out, "sweep-battery", cfg, seeds, dataset,
                   {"capacities": capacities})
    return EXIT_OK


def cmd_report(args) -> int:
    cfg, dataset, env_config, _, _ = _verb_inputs(args)
    run_dirs = args.runs

    missing = [d for d in run_dirs if not os.path.exists(os.path.join(d, "result.json"))]
    if missing:
        raise MissingArtifact("missing run results: " + ", ".join(missing))

    names = {}
    for run_dir in run_dirs:
        name = os.path.basename(os.path.normpath(run_dir))
        if name in names:
            raise ValueError(f"runs {names[name]} and {run_dir} share the name {name!r} "
                             f"that their trace files are named by")
        names[name] = run_dir
    results = [read_result(os.path.join(run_dir, "result.json")) for run_dir in run_dirs]
    ranges = {tuple(result["test_range"]) for result in results}
    if len(ranges) != 1:
        raise ValueError(f"runs differ in test_range: {sorted(ranges)}")
    test_range = ranges.pop()

    report = reportsmod.BalanceReport()
    for result in results:
        report.add(result["strategy"], result["incomes"])
    report.reference = reference_balance(dataset, env_config, test_range)
    window = reportsmod.middle_window(test_range, args.window_days)
    run_days = []  # per run, the Episode of each seed's window
    for run_dir, result in zip(run_dirs, results):
        run_days.append([])
        for seed in result["seeds"]:
            trace = os.path.join(run_dir, seed_dir(seed), "trace.csv")
            if not os.path.exists(trace):
                raise MissingArtifact(f"missing trace {trace}")
            bids = os.path.join(run_dir, seed_dir(seed), "bids.csv")
            run_days[-1].append(reportsmod.read_day_results(trace, bids, window))

    os.makedirs(args.out, exist_ok=True)
    out = functools.partial(os.path.join, args.out)
    report.write_csv(out("balance_report.csv"))
    report.write_json(out("balance_report.json"))
    for name, result, episodes in zip(names, results, run_days):
        reportsmod.write_battery_trace(episodes, out(f"trace_battery_{name}.csv"))
        best = episodes[int(np.argmax(result["incomes"]))]
        reportsmod.write_bid_price_trace(best, out(f"trace_bid_prices_{name}.csv"))
        reportsmod.write_bid_volume_trace(best, out(f"trace_bid_volumes_{name}.csv"))
        reportsmod.write_unscheduled_trace(best, out(f"trace_unscheduled_{name}.csv"))

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
    p.add_argument("--days", type=int, required=True)
    common(p, needs_data=False)
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
    scored = p.add_mutually_exclusive_group()
    scored.add_argument("--params", default=None, help="strategy params JSON")
    scored.add_argument("--policy", default=None, help="policy .npz file")
    scored.add_argument("--zero-action", action="store_true",
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
    except (FileNotFoundError, IsADirectoryError) as exc:  # MissingArtifact included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (ValueError, FloatingPointError) as exc:  # DataError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
