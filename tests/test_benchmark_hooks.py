"""The benchmark wraps package functions by name; a rename must fail here,
not only print ``missing`` in a traced benchmark run."""
import ast
import importlib
import inspect
import pathlib

RUN_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# The functions perfbench/run.py hooks to time one step of each workload.
STEP_CLOCK_HOOKS = [
    ("cmaes", "cmaes_optimize"),
    ("training", "a2c_train"),
    ("training", "evaluate_strategy"),
    ("training", "A2cUpdater.update"),
]


def traced_names():
    """The ``TRACED`` list of perfbench/run.py, read without importing it."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets):
            return [tuple(pair) for pair in ast.literal_eval(node.value)]
    raise AssertionError(f"no TRACED list in {RUN_PY}")


def is_plain_function(module, qualname):
    """What the benchmark's ``Patches.replace`` requires: a function found
    in the namespace of its module or, for ``Class.name``, of its class."""
    owner = importlib.import_module(f"dayahead.{module}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return inspect.isfunction(vars(owner).get(attr))


def test_traced_names_are_package_functions():
    names = traced_names()
    assert names
    assert [name for name in names if not is_plain_function(*name)] == []


def test_step_clock_hooks_exist():
    assert [name for name in STEP_CLOCK_HOOKS if not is_plain_function(*name)] == []


def test_collected_step_exposes_accepted_bid_outcomes(small_dataset):
    """perfbench's ``BidCounter`` reads ``result[2].bid_outcomes[i].accepted``
    of each collected step and ``None`` there otherwise; without them
    ``market.accept_frac`` turns ``missing``.  They are the bids of
    ``bids.csv``, field by field, so the counter cannot drift from it."""
    from dayahead.market import BUY, SELL, EnvConfig, TradingEnv

    env = TradingEnv(small_dataset, EnvConfig())
    schedule = [[0.1] * 24, [1e9] * 24, [0.0] * 24, [0.0] * 24]  # buys that always clear
    env.reset(10, 0, 3)
    result = env.step(schedule)
    assert len(result[2].bid_outcomes) == 24
    assert all(outcome.accepted is True for outcome in result[2].bid_outcomes)
    mixed = [[0.1] * 24, [1e9, 0.0] * 12, [0.2] * 24, [1e9, 0.0] * 12]  # half of each clear
    day = env.step(mixed)[2]
    outcomes, rows = day.bid_outcomes, day.bid_rows()
    assert [o.accepted for o in outcomes] == [True, False, False, True] * 12
    assert [(o.day, o.hour, o.side, o.volume, o.price, o.accepted) for o in outcomes] == rows
    assert [tuple(o) for o in outcomes] == rows
    assert rows[:2] == [(day.day, 0, BUY, 0.1, 1e9, True), (day.day, 0, SELL, 0.2, 1e9, False)]
    assert env.step(schedule, collect=False)[2] is None


def test_benchmark_bid_counter_counts_a_collected_step(small_dataset, monkeypatch):
    """perfbench's ``BidCounter``, loaded from its file, fed one real
    collected step as its ``TradingEnv.step`` hook sees it, stays unbroken
    and counts that day's ``bid_rows()`` and their acceptances: it reads the
    ``DayResult`` at index 2 of ``step``'s return value."""
    import importlib.util

    from dayahead.market import EnvConfig, TradingEnv

    monkeypatch.syspath_prepend(str(RUN_PY.parent))  # run.py imports its tracing module
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    env = TradingEnv(small_dataset, EnvConfig())
    env.reset(10, 0, 1)
    schedule = [[0.1] * 24, [1e9, 0.0] * 12, [0.2] * 24, [1e9, 0.0] * 12]  # half of each clear
    result = env.step(schedule)
    counter = run.BidCounter()
    counter.observe((env, schedule), {}, result)
    rows = result[2].bid_rows()
    assert not counter.broken
    assert (counter.steps, counter.collected, counter.accepted) == (
        1, len(rows), sum(accepted for *_, accepted in rows))
    assert (counter.collected, counter.accepted) == (48, 24)


# The other package names perfbench/run.py calls, with the parameters it
# passes them; it reads ``n_steps`` and ``eval_days`` of the A2C config.
BENCHMARK_CALLS = [
    ("cli", "load_config", ["path"]),
    ("cli", "load_data_dir", ["data_dir", "cfg"]),
    ("cli", "a2c_config_from", ["cfg", "include_weather"]),
    ("training", "initial_parameter_mean", ["kind", "rng"]),
    # the step clock wraps the objective, the first argument, of each call
    ("cmaes", "cmaes_optimize", ["objective", "x0", "config"]),
]


def test_benchmark_entry_points_keep_their_signatures():
    from dayahead.cli import a2c_config_from

    for module, name, params in BENCHMARK_CALLS:
        function = getattr(importlib.import_module(f"dayahead.{module}"), name, None)
        assert inspect.isfunction(function), (module, name)
        assert list(inspect.signature(function).parameters) == params, (module, name)
    config = a2c_config_from({"n_steps": 10, "eval_days": 5}, True)
    assert (config.n_steps, config.eval_days) == (10, 5)
