"""The command-line contract under drawn inputs.

A derandomized hypothesis test draws a verb, its flags and a config, and
runs it through ``cli.main`` on one shared 120-day dataset: ``evaluate``
with any subset of ``--params``, ``--policy`` and ``--zero-action``, or
with only a ``--params`` file whose ``strategy_kind`` or ``alpha`` is
dropped or retyped or whose ``alpha`` overflows the simulator, or with only
a ``--policy`` file whose header key or meta key is dropped or retyped, or
that is truncated or not a zip file at all, or with a directory in place of
the ``--params``, ``--policy`` or ``--config`` file;
``optimize`` and ``train-rl``; ``--seeds`` lists with negative, repeated or
empty entries, or a negative ``--seed``; up to three known config keys set
to an awkward value (or none, so that the checks after loading are reached
too); and ``report`` over a ``result.json`` with one key dropped or
retyped, or with an income of NaN or Infinity, or over a run whose
``seed0/trace.csv`` lacks one day of the trace window or holds ``nan`` or
``inf`` in one value of a window row.  Sizes stay small
(population 8, 2 generations, 60 training days, 8 hidden units) unless a
drawn key changes them; a whole-number key at 1e300 is refused when the
config is loaded.  A second test draws only the edited files, with the
base config and one valid seed, so that each reaches its reader.

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
from dayahead.market import DAY_RESULT_HEADER, EnvConfig
from dayahead.nets import init_policy, save_policy
from dayahead.reports import middle_window
from dayahead.training import initial_parameter_mean

from conftest import TINY_CONFIG

BASE_CONFIG = {**TINY_CONFIG, "population_size": 8, "generations": 2, "timesteps": 60,
               "net_arch": 8}
VALUES = [0, -1, 0.5, 1e300, math.nan, "x", [], None, True]
RESULT_KEYS = ["strategy", "seeds", "incomes", "test_range", "artifacts"]
PARAMS_KEYS = ["strategy_kind", "alpha"]
HEADER_KEYS = ["format_version", "actor_layers", "critic_layers", "meta",
               *(f"meta.{key}" for key in ("include_weather", "price_scale", "battery_capacity",
                                           "max_wind_speed", "temperature_range"))]


@pytest.fixture(scope="module")
def workspace(data_dir, config_path, tmp_path_factory):
    """The run inputs every example shares: a timing params file, policies
    of 141 and 69 inputs, the first with every meta key a trainer records,
    and one ``evaluate`` run directory to report on."""
    root = tmp_path_factory.mktemp("contract")
    vector = initial_parameter_mean(strat.TIMING, np.random.default_rng(0))
    strat.save_strategy_params(root / "timing.json", strat.TIMING,
                               strat.TimingParams.from_vector(vector))
    meta = {"include_weather": True, "price_scale": 200.0, **EnvConfig().policy_binding()}
    for size in (141, 69):
        save_policy(root / f"policy{size}.npz", init_policy(size, hidden_size=8, seed=size,
                                                            meta=meta if size == 141 else None))
    assert main(["evaluate", "--zero-action", "--data", str(data_dir), "--config", config_path,
                 "--seeds", "0", "--out", str(root / "run")]) == 0
    return root


config_items = st.tuples(st.sampled_from(sorted(CONFIG_KEYS)), st.sampled_from(VALUES))
configs = st.lists(config_items, max_size=3, unique_by=lambda item: item[0])
seed_flags = st.one_of(
    st.lists(st.sampled_from(["0", "1", "-1", "0", ""]), min_size=1, max_size=3)
    .map(lambda seeds: ["--seeds", ",".join(seeds)]),
    st.just(["--seed", "-1"]))
sources = st.lists(st.sampled_from(["--params", "--policy141", "--policy69", "--zero-action"]),
                   max_size=3, unique=True)
edit_values = st.one_of(st.just("drop"), st.sampled_from(VALUES))
result_edits = st.one_of(st.tuples(st.sampled_from(RESULT_KEYS), edit_values),
                        st.tuples(st.just("incomes"), st.sampled_from([[math.nan], [math.inf]])))
policy_edits = st.one_of(st.tuples(st.sampled_from(HEADER_KEYS), edit_values),
                         st.sampled_from(["truncated", "not a zip"]))
trace_values = st.tuples(st.integers(0, 4), st.integers(0, 23),
                         st.sampled_from(DAY_RESULT_HEADER[2:]), st.sampled_from(["nan", "inf"]))
report_edits = st.one_of(result_edits, st.tuples(st.just("trace day"), st.integers(0, 4)),
                         st.tuples(st.just("trace value"), trace_values))
params_edits = st.one_of(st.tuples(st.sampled_from(PARAMS_KEYS), edit_values),
                        st.just(("alpha", [1e307, 0])))  # finite, but its bids overflow
artifact_edits = st.one_of(  # one edited file alone
    st.tuples(st.just("evaluate"), st.tuples(st.just(["--params"]), params_edits)),
    st.tuples(st.just("evaluate"), st.tuples(st.just(["--policy141"]), policy_edits)),
    st.tuples(st.just("evaluate"), st.tuples(st.sampled_from([["--params"], ["--policy141"],
                                                              ["--config"]]),
                                             st.just("directory"))),
    st.tuples(st.just("report"), report_edits))
verbs = st.one_of(
    st.tuples(st.just("evaluate"), st.tuples(sources, st.none())),  # with the saved files
    artifact_edits,
    st.tuples(st.just("optimize"), st.sampled_from(["timing", "opportunistic"])),
    st.tuples(st.just("train-rl"), st.booleans()))


def edited(document, key, value):
    """``document`` with ``key`` (``meta.<key>`` for a key of the ``meta``
    object) dropped or set to ``value``."""
    parent, _, key = key.rpartition(".")
    inner = document[parent] if parent else document
    if value == "drop":
        del inner[key]
    else:
        inner[key] = value
    return document


def write_edited(source, target, key, value):
    """``source``'s JSON document at ``target``, with ``key`` dropped or set
    to ``value``."""
    target.write_text(json.dumps(edited(json.loads(source.read_text()), key, value)))


def write_edited_policy(source, target, edit):
    """``source``'s policy file at ``target``: truncated, replaced by text,
    or with a header key or meta key dropped or set."""
    if edit == "truncated":
        target.write_bytes(source.read_bytes()[:-40])
    elif edit == "not a zip":
        target.write_text("not a policy\n")
    else:
        with np.load(source) as stored:
            arrays = {key: stored[key] for key in stored.files}
        header = edited(json.loads(arrays["header"].tobytes()), *edit)
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
        np.savez(target, **arrays)


def verb_argv(verb, choice, root, run_dir):
    """The verb's own arguments; for ``evaluate``, the params or policy file
    edited next to ``run_dir`` if an edit was drawn, or a directory in place
    of it or of the config; for ``report``, the edited run directory: its
    ``result.json``, or its ``seed0/trace.csv`` without the drawn day of the
    trace window or with the drawn value of a window row set."""
    if verb == "evaluate":
        choice, edit = choice
        params, policy = root / "timing.json", root / "policy141.npz"
        if choice == ["--config"]:
            config = run_dir.parent / "config.json"
            config.unlink()
            config.mkdir()
            return ["evaluate", "--zero-action"]
        if edit == "directory":
            params = policy = run_dir.parent / "directory"
            params.mkdir()
        elif edit is not None and choice == ["--params"]:
            params = run_dir.parent / "params.json"
            write_edited(root / "timing.json", params, *edit)
        elif edit is not None:
            policy = run_dir.parent / "policy.npz"
            write_edited_policy(root / "policy141.npz", policy, edit)
        flags = {"--params": ["--params", str(params)],
                 "--policy141": ["--policy", str(policy)],
                 "--policy69": ["--policy", str(root / "policy69.npz")],
                 "--zero-action": ["--zero-action"]}
        return ["evaluate", *(arg for source in choice for arg in flags[source])]
    if verb == "optimize":
        return ["optimize", "--strategy", choice]
    if verb == "train-rl":
        return ["train-rl", *(["--no-weather"] if choice else [])]
    shutil.copytree(root / "run", run_dir)
    trace = run_dir / "seed0" / "trace.csv"
    test_range = json.loads((run_dir / "result.json").read_text())["test_range"]
    window = range(*middle_window(test_range))
    if choice[0] == "trace day":
        day = f"{window[choice[1]]},".encode()
        trace.write_bytes(b"".join(line for line in trace.read_bytes().splitlines(True)
                                   if not line.startswith(day)))
    elif choice[0] == "trace value":
        day, hour, column, text = choice[1]
        lines = trace.read_bytes().splitlines(True)
        prefix = f"{window[day]},{hour},".encode()
        row = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        fields = lines[row].rstrip(b"\r\n").split(b",")
        fields[DAY_RESULT_HEADER.index(column)] = text.encode()
        lines[row] = b",".join(fields) + b"\r\n"
        trace.write_bytes(b"".join(lines))
    else:
        write_edited(run_dir / "result.json", run_dir / "result.json", *choice)
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
    keeps_the_contract(data_dir, workspace, verb, config, seeds)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(verb=artifact_edits)
def test_drawn_artifacts_keep_the_exit_code_contract(data_dir, workspace, verb):
    """With no config key and one valid seed drawn, each edited file reaches
    its reader."""
    keeps_the_contract(data_dir, workspace, verb, [], ["--seeds", "0"])


def keeps_the_contract(data_dir, workspace, verb, config, seeds):
    """Run ``verb`` with ``config`` over the base config and the ``seeds``
    flags, and check the exit-code contract."""
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
