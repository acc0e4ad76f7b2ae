"""The command-line contract under drawn inputs.

A derandomized hypothesis test draws a verb, its flags and a config, and
runs it through ``cli.main`` on one shared 120-day dataset: ``evaluate``
with any subset of ``--params``, ``--policy`` and ``--zero-action``;
``optimize`` and ``train-rl``; ``--seeds`` lists with negative, repeated or
empty entries, or a negative ``--seed``; up to three known config keys set
to an awkward value (or none, so that the checks after loading are reached
too); and ``report`` over a ``result.json`` with one key dropped or
retyped.  Sizes stay small (population 8, 2 generations, 60 training days,
8 hidden units) unless a drawn key changes them; a budget key is not drawn
at 1e300, which asks for a run that does not end.

Whatever is drawn, the verb exits 0, 2 or 3 and prints no traceback; numpy's
overflow warnings, which a diverging candidate may print, are recorded
instead of raised.  A nonzero exit leaves no ``--out``, and an exit 0 reports finite
incomes.
"""
import contextlib
import io
import json
import math
import pathlib
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dayahead import strategies as strat
from dayahead.cli import CONFIG_KEYS, main
from dayahead.nets import init_policy, save_policy
from dayahead.training import initial_parameter_mean

from conftest import TINY_CONFIG

BASE_CONFIG = {**TINY_CONFIG, "population_size": 8, "generations": 2, "timesteps": 60,
               "net_arch": 8}
VALUES = [0, -1, 0.5, 1e300, math.nan, "x", [], None, True]
BUDGET_KEYS = {"population_size", "generations", "timesteps", "net_arch"}
RESULT_KEYS = ["strategy", "seeds", "incomes", "test_range", "artifacts"]


@pytest.fixture(scope="module")
def workspace(data_dir, config_path, tmp_path_factory):
    """The run inputs every example shares: a timing params file, policies
    of 141 and 69 inputs, and one ``evaluate`` run directory to report on."""
    root = tmp_path_factory.mktemp("contract")
    vector = initial_parameter_mean(strat.TIMING, np.random.default_rng(0))
    strat.save_strategy_params(root / "timing.json", strat.TIMING,
                               strat.TimingParams.from_vector(vector))
    for size in (141, 69):
        save_policy(root / f"policy{size}.npz", init_policy(size, hidden_size=8, seed=size))
    assert main(["evaluate", "--zero-action", "--data", str(data_dir), "--config", config_path,
                 "--seeds", "0", "--out", str(root / "run")]) == 0
    return root


config_items = st.sampled_from(sorted(CONFIG_KEYS)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(
        [v for v in VALUES if not (key in BUDGET_KEYS and v == 1e300)])))
configs = st.lists(config_items, max_size=3, unique_by=lambda item: item[0])
seed_flags = st.one_of(
    st.lists(st.sampled_from(["0", "1", "-1", "0", ""]), min_size=1, max_size=3)
    .map(lambda seeds: ["--seeds", ",".join(seeds)]),
    st.just(["--seed", "-1"]))
sources = st.lists(st.sampled_from(["--params", "--policy141", "--policy69", "--zero-action"]),
                   max_size=3, unique=True)
result_edits = st.tuples(st.sampled_from(RESULT_KEYS),
                         st.one_of(st.just("drop"), st.sampled_from(VALUES)))
verbs = st.one_of(
    st.tuples(st.just("evaluate"), sources),
    st.tuples(st.just("optimize"), st.sampled_from(["timing", "opportunistic"])),
    st.tuples(st.just("train-rl"), st.booleans()),
    st.tuples(st.just("report"), result_edits))


def verb_argv(verb, choice, root, run_dir):
    """The verb's own arguments; for ``report``, the edited run directory."""
    if verb == "evaluate":
        flags = {"--params": ["--params", str(root / "timing.json")],
                 "--policy141": ["--policy", str(root / "policy141.npz")],
                 "--policy69": ["--policy", str(root / "policy69.npz")],
                 "--zero-action": ["--zero-action"]}
        return ["evaluate", *(arg for source in choice for arg in flags[source])]
    if verb == "optimize":
        return ["optimize", "--strategy", choice]
    if verb == "train-rl":
        return ["train-rl", *(["--no-weather"] if choice else [])]
    key, value = choice
    shutil.copytree(root / "run", run_dir)
    result = json.loads((run_dir / "result.json").read_text())
    if value == "drop":
        del result[key]
    else:
        result[key] = value
    (run_dir / "result.json").write_text(json.dumps(result))
    return ["report", "--runs", str(run_dir)]


def incomes(verb, out):
    """The incomes an exit 0 reports: the run's, or those of the report's rows."""
    if verb == "report":
        rows = json.loads((out / "balance_report.json").read_text())["rows"]
        return [income for row in rows for income in row["incomes"]]
    return json.loads((out / "result.json").read_text())["incomes"]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(verb=verbs, config=configs, seeds=seed_flags)
def test_drawn_invocations_keep_the_exit_code_contract(data_dir, workspace, verb, config,
                                                       seeds):
    name, choice = verb
    with tempfile.TemporaryDirectory(dir=workspace) as scratch:
        scratch = pathlib.Path(scratch)
        config_file = scratch / "config.json"
        config_file.write_text(json.dumps({**BASE_CONFIG, **dict(config)}))
        out = scratch / "out"
        argv = [*verb_argv(name, choice, workspace, scratch / "run"), "--data", str(data_dir),
                "--config", str(config_file), *seeds, "--out", str(out)]
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True), contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")  # recorded: a warning is not a traceback
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing a flag combination
                code = exc.code
        assert code in (0, 2, 3), (argv, code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue(), argv
        if code:
            assert not out.exists(), (argv, code, stderr.getvalue())
        else:
            assert all(math.isfinite(income) for income in incomes(name, out)), argv
