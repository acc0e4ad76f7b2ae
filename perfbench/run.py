"""End-to-end benchmark of the ``dayahead`` command line.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload opt-timing --seed 1 --seconds 8 --trace 0

Each run generates its dataset (and, for ``score-report``, the strategy
parameter and policy files) from ``--seed`` into ``.perfbench/``, times
``cli.load_data_dir`` as set-up, then drives the package only through
``dayahead.cli.main``: one round is the workload's fixed list of verb calls,
and rounds repeat until ``--seconds`` have passed.  Every round's outputs are
checked: verb exit codes, finite objective values, 24 trace rows per scored
day, and per-seed incomes and the reference balance, which must repeat
exactly across rounds and, at the default seed, match ``expected.json``
within a relative 1e-9.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
rounds for the first half of the time and traced rounds for the second, and
prints the per-layer metrics: calls and self time per round of each wrapped
function, its share of the traced wall time, two market ratios and the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import glob
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

from tracing import PACKAGE, Patches, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

DEFAULT_SEED = 0
REL_TOL = 1e-9            # the differential tolerance of the roadmap
SETUP_REPEATS = 3
FULL_DAYS = 1460
TOY_DAYS = 120
HOURS_PER_DAY = 24
TAIL_BEYOND = 10          # steps that must lie beyond the tail percentile

# Why each workload exists:
# * opt-timing: CMA-ES batches of 6 candidates, below the ~17-candidate point
#   where lock-step batching starts to pay; time goes to the simulator and to
#   rebuilding TradingEnv per evaluation.
# * opt-opportunistic: 5 seeds x 17 candidates, the batching case; per-hour
#   bid decoding and the 100-dimensional CMA-ES update.
# * train-a2c: the only workload running nets and the A2C update; bid
#   decoding is a large share of each rollout.
# * score-report: the trace-collecting path (collect=True, CSV exports,
#   reports I/O), with one CSV load per verb.
# "seeds" is the number of run seeds per verb; the other keys go to the
# verbs' --config file.  The toy budgets serve the self-test only.
WORKLOADS = {
    "opt-timing": {
        "step": "objective",
        "full": {"seeds": 2, "generations": 5},
        "toy": {"seeds": 2, "generations": 1},
    },
    "opt-opportunistic": {
        "step": "objective",
        "full": {"seeds": 5, "generations": 1},
        "toy": {"seeds": 5, "generations": 1},
    },
    "train-a2c": {
        "step": "update",
        "full": {"seeds": 1, "timesteps": 20_000},
        "toy": {"seeds": 1, "timesteps": 200, "episode_length": 10, "n_steps": 10,
                "evaluation_frequency": 100, "eval_days": 5},
    },
    "score-report": {
        "step": "scoring",
        "full": {"seeds": 5},
        "toy": {"seeds": 5},
    },
}

# (module, qualified name) of every function the traced run wraps.
TRACED = [
    ("data", "load_dataset"),
    ("data", "Dataset.content_hash"),
    ("market", "TradingEnv.__init__"),
    ("market", "TradingEnv.reset"),
    ("market", "TradingEnv.step"),
    ("market", "TradingEnv.estimate_midnight_level"),
    ("market", "rolling_price_stats"),
    ("market", "DecisionContext.observation"),
    ("market", "export_day_results"),
    ("market", "export_bid_outcomes"),
    ("strategies", "timing_bids"),
    ("strategies", "opportunistic_bids"),
    ("strategies", "blackbox_bids"),
    ("strategies", "mean_action"),
    ("nets", "forward"),
    ("nets", "forward_cached"),
    ("nets", "backward"),
    ("nets", "rmsprop_step"),
    ("training", "evaluate_strategy"),
    ("training", "A2cUpdater.update"),
    ("training", "gae_advantages"),
    ("training", "a2c_train"),
    ("cmaes", "cmaes_optimize"),
    ("reports", "read_day_results"),
    ("reports", "write_battery_trace"),
    ("reports", "write_bid_price_trace"),
    ("reports", "write_bid_volume_trace"),
    ("reports", "write_unscheduled_trace"),
    ("cli", "write_manifest"),
]
VERB_SPAN = "cli.verb"


def span_name(module: str, qualname: str) -> str:
    return "market.env_init" if qualname == "TradingEnv.__init__" else f"{module}.{qualname}"


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND values above it
    (nearest rank); the maximum when there are too few values."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1]
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    return pct, ordered[max(0, math.ceil(pct * n / 100) - 1)]


def same(a, b) -> bool:
    return isinstance(a, (int, float)) and isinstance(b, (int, float)) \
        and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def count_rows(path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


# ---------------------------------------------------------------------------
# Environment block
# ---------------------------------------------------------------------------

def blas_info() -> dict:
    info = {}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["name"] = blas.get("name")
    info["version"] = blas.get("version")
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    info["threads"] = None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                break
    return info


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

class BidCounter:
    """Bids submitted per TradingEnv.step and accepted among collected ones."""

    def __init__(self):
        self.steps = 0
        self.submitted = 0
        self.collected = 0
        self.accepted = 0
        self.broken = False

    def observe(self, args, kwargs, result) -> None:
        if self.broken:
            return
        try:
            bids = args[1] if len(args) > 1 else kwargs["bids"]
            self.submitted += len(bids)
            day = result[2]
            if day is not None:
                self.collected += len(day.bid_outcomes)
                self.accepted += sum(1 for o in day.bid_outcomes if o.accepted)
        except (TypeError, AttributeError, KeyError, IndexError):
            self.broken = True
            return
        self.steps += 1


class Run:
    def __init__(self, args, tmp: str):
        self.workload = args.workload
        self.step_kind = WORKLOADS[args.workload]["step"]
        self.budget = dict(WORKLOADS[args.workload]["toy" if args.toy else "full"])
        self.days = TOY_DAYS if args.toy else FULL_DAYS
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.toy = args.toy
        self.data_dir = os.path.join(tmp, "data")
        self.inputs_dir = os.path.join(tmp, "inputs")
        self.out_dir = os.path.join(tmp, "out")
        self.config_path = os.path.join(tmp, "config.json")
        self.attempted = 0
        self.failed = 0
        self.step_ms: list[float] = []
        self.reference: dict | None = None
        self.expected: dict | None = None
        self.pkg = {name: importlib.import_module(f"{PACKAGE}.{name}")
                    for name in ("data", "nets", "strategies", "training", "cli")}

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAIL {self.workload}: {message}", flush=True)

    # -- inputs -------------------------------------------------------------

    def recipe(self) -> str:
        return (f"generate_synthetic_dataset({self.seed}, {self.days}); "
                f"make_forecasts(seed={self.seed + 1}); write_dataset; "
                f"default 11:1:4 split")

    def generate_inputs(self) -> None:
        data, nets, strategies, training = (self.pkg[k] for k in
                                            ("data", "nets", "strategies", "training"))
        dataset = data.generate_synthetic_dataset(self.seed, self.days)
        dataset = data.make_forecasts(dataset, seed=self.seed + 1)
        data.write_dataset(dataset, self.data_dir)
        config = {k: v for k, v in self.budget.items() if k != "seeds"}
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)
        if self.workload == "score-report":
            os.makedirs(self.inputs_dir)
            rng = np.random.default_rng([self.seed, 1])
            timing = training.initial_parameter_mean(strategies.TIMING, rng)
            strategies.save_strategy_params(os.path.join(self.inputs_dir, "timing.json"),
                                            strategies.TIMING,
                                            strategies.TimingParams.from_vector(timing))
            opp = training.initial_parameter_mean(strategies.OPPORTUNISTIC, rng)
            strategies.save_strategy_params(os.path.join(self.inputs_dir, "opportunistic.json"),
                                            strategies.OPPORTUNISTIC,
                                            strategies.OpportunisticParams.from_vector(opp))
            nets.save_policy(os.path.join(self.inputs_dir, "policy.npz"),
                             nets.init_policy(141, seed=rng, meta={"include_weather": True}))

    def verb_calls(self) -> list[tuple[str, list[str]]]:
        seeds = ",".join(str(self.seed + i) for i in range(self.budget["seeds"]))
        common = ["--data", self.data_dir, "--config", self.config_path,
                  "--seed", str(self.seed), "--seeds", seeds]
        out = lambda label: os.path.join(self.out_dir, label)
        if self.workload in ("opt-timing", "opt-opportunistic"):
            kind = self.workload.split("-", 1)[1]
            return [("optimize", ["optimize", "--strategy", kind, "--out", out("optimize"), *common])]
        if self.workload == "train-a2c":
            return [("train-rl", ["train-rl", "--out", out("train-rl"), *common])]
        inputs = lambda name: os.path.join(self.inputs_dir, name)
        evaluations = [
            ("eval-timing", ["--params", inputs("timing.json")]),
            ("eval-opportunistic", ["--params", inputs("opportunistic.json")]),
            ("eval-policy", ["--policy", inputs("policy.npz")]),
            ("eval-zero", ["--zero-action"]),
        ]
        calls = [(label, ["evaluate", *source, "--out", out(label), *common])
                 for label, source in evaluations]
        calls.append(("report", ["report", "--runs", *(out(label) for label, _ in evaluations),
                                 "--out", out("report"), *common]))
        return calls

    # -- step clocks ----------------------------------------------------------

    def install_step_clock(self, patches: Patches) -> None:
        """Time each step at the verbs' step boundary.

        objective: one CMA-ES objective evaluation; update: one rollout plus
        its A2C update, from the previous boundary to the update's return,
        with validation scoring excluded; scoring: one evaluate_strategy call.
        """
        clock = time.perf_counter
        ok = True
        if self.step_kind == "objective":
            def hook(cmaes_optimize):
                @functools.wraps(cmaes_optimize)
                def hooked(objective, *args, **kwargs):
                    def timed(x):
                        self.attempted += 1
                        t0 = clock()
                        try:
                            value = objective(x)
                        except Exception:
                            self.fail("objective evaluation raised")
                            raise
                        self.step_ms.append((clock() - t0) * 1e3)
                        if not math.isfinite(value):
                            self.fail(f"objective value {value!r}")
                        return value
                    return cmaes_optimize(timed, *args, **kwargs)
                return hooked
            ok = patches.replace("cmaes", "cmaes_optimize", hook)
        elif self.step_kind == "update":
            boundary = [clock()]

            def begin(fn):
                @functools.wraps(fn)
                def wrapped(*args, **kwargs):
                    boundary[0] = clock()
                    return fn(*args, **kwargs)
                return wrapped

            def restart(fn):
                @functools.wraps(fn)
                def wrapped(*args, **kwargs):
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        boundary[0] = clock()
                return wrapped

            def step_end(update):
                @functools.wraps(update)
                def timed(*args, **kwargs):
                    self.attempted += 1
                    result = update(*args, **kwargs)
                    now = clock()
                    self.step_ms.append((now - boundary[0]) * 1e3)
                    boundary[0] = now
                    return result
                return timed

            ok = (patches.replace("training", "a2c_train", begin)
                  and patches.replace("training", "evaluate_strategy", restart)
                  and patches.replace("training", "A2cUpdater.update", step_end))
        else:
            def scoring(fn):
                @functools.wraps(fn)
                def timed(*args, **kwargs):
                    self.attempted += 1
                    t0 = clock()
                    result = fn(*args, **kwargs)
                    self.step_ms.append((clock() - t0) * 1e3)
                    return result
                return timed
            ok = patches.replace("training", "evaluate_strategy", scoring)
        if not ok:
            raise SystemExit(f"error: the step boundary of {self.workload} is gone from {PACKAGE}")

    # -- rounds and output checks ---------------------------------------------

    def run_round(self, main, calls, devnull) -> tuple[float, int]:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        steps_before = len(self.step_ms)
        wall = 0.0
        for label, argv in calls:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(devnull):
                    code = main(argv)
            except Exception:
                traceback.print_exc()
                code = "an exception"
            wall += time.perf_counter() - t0
            if code != 0:
                self.fail(f"verb {label} exited with {code}")
        values, test_days, val_rows = self.read_outputs(calls)
        self.check_values(values)
        return wall, self.simulated_days(len(self.step_ms) - steps_before, test_days, val_rows)

    def read_outputs(self, calls) -> tuple[dict, int, int]:
        values: dict[str, float] = {}
        test_days = 0
        val_rows = 0
        for label, _ in calls:
            run_dir = os.path.join(self.out_dir, label)
            result_path = os.path.join(run_dir, "result.json")
            if os.path.isfile(result_path):
                with open(result_path) as fh:
                    result = json.load(fh)
                lo, hi = result["test_range"]
                for seed, income in zip(result["seeds"], result["incomes"]):
                    values[f"{label}/seed{seed}"] = income
                    seed_dir = os.path.join(run_dir, f"seed{seed}")
                    self.attempted += 1
                    trace = os.path.join(seed_dir, "trace.csv")
                    rows = count_rows(trace) if os.path.isfile(trace) else None
                    if rows != HOURS_PER_DAY * (hi - lo):
                        self.fail(f"{label}/seed{seed}/trace.csv has {rows} rows, "
                                  f"expected {HOURS_PER_DAY * (hi - lo)}")
                    test_days += hi - lo
                    log = os.path.join(seed_dir, "training_log.csv")
                    if os.path.isfile(log):
                        val_rows += count_rows(log)
            balance = os.path.join(run_dir, "balance_report.json")
            if os.path.isfile(balance):
                with open(balance) as fh:
                    values[f"{label}/reference_balance"] = json.load(fh).get("reference_balance")
        return values, test_days, val_rows

    def check_values(self, values: dict) -> None:
        """Compare with the first round's values and, at the default seed,
        with the recorded ones; every compared value is one operation."""
        if self.reference is None:
            self.reference = values
        for source, wanted in (("first round", self.reference), ("expected.json", self.expected)):
            if wanted is None:
                continue
            for key, want in wanted.items():
                self.attempted += 1
                got = values.get(key)
                if not same(got, want):
                    self.fail(f"{key}: {source} {want!r}, this round {got!r}")
            for key in values.keys() - wanted.keys():
                self.attempted += 1
                self.fail(f"{key}: not in {source}")

    def simulated_days(self, steps: int, test_days: int, val_rows: int) -> int:
        """Delivery days the round's verbs simulate, from the budget and outputs.

        objective: each evaluation covers the training days from day 2;
        update: each update rolls n_steps days, each validation eval_days,
        and a2c_train and the CLI each score the test range; scoring: every
        scored seed covers its test range.
        """
        split = self.split
        if self.step_kind == "objective":
            lo, hi = split.train
            return steps * (hi - max(2, lo)) + test_days
        if self.step_kind == "update":
            a2c = self.pkg["cli"].a2c_config_from(self.cli_config, True)
            lo, hi = split.validation
            val_lo = max(2, lo)
            val_days = min(hi, val_lo + a2c.eval_days) - val_lo
            return steps * a2c.n_steps + val_rows * val_days + 2 * test_days
        return test_days

    # -- the run ----------------------------------------------------------------

    def execute(self) -> dict:
        cli = self.pkg["cli"]
        self.generate_inputs()
        self.cli_config = cli.load_config(self.config_path)
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            dataset = cli.load_data_dir(self.data_dir, self.cli_config)
            setup.append(time.perf_counter() - t0)
        self.split = dataset.split
        env = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
            "nproc": os.cpu_count(),
            "git_commit": git_commit(),
            "dataset": {"recipe": self.recipe(), "content_hash": dataset.content_hash()},
            "workload": self.workload,
            "budget": self.budget,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
        }
        del dataset
        print("env: " + json.dumps(env, sort_keys=True), flush=True)
        if self.seed == DEFAULT_SEED and not self.toy and os.path.isfile(EXPECTED):
            with open(EXPECTED) as fh:
                recorded = json.load(fh).get(self.workload)
            if recorded is not None:
                self.expected = recorded["values"]
                self.attempted += 1
                if recorded["recipe"]["content_hash"] != env["dataset"]["content_hash"]:
                    self.fail("dataset content hash differs from expected.json: "
                              f"{recorded['recipe']['content_hash']} vs "
                              f"{env['dataset']['content_hash']}")

        calls = self.verb_calls()
        patches = Patches()
        self.install_step_clock(patches)
        try:
            with open(os.devnull, "w") as devnull:
                if self.trace:
                    report = self.traced(cli.main, calls, devnull, patches)
                else:
                    report = self.untraced(cli.main, calls, devnull, setup)
        finally:
            patches.restore()
        report["env"] = env
        return report

    def rounds(self, main, calls, devnull, until: float, start: float) -> tuple[list, list]:
        walls, days = [], []
        while not walls or time.perf_counter() - start < until:
            wall, simulated = self.run_round(main, calls, devnull)
            walls.append(wall)
            days.append(simulated)
        return walls, days

    def untraced(self, main, calls, devnull, setup) -> dict:
        walls, days = self.rounds(main, calls, devnull, self.seconds, time.perf_counter())
        pct, tail = tail_percentile(self.step_ms) if self.step_ms else (0, math.nan)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "sim_days_per_s": (sum(days) / sum(walls), "days/s"),
            "step_ms.p50": (statistics.median(self.step_ms) if self.step_ms else math.nan, "ms"),
            "step_ms.tail": (tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": ((self.attempted - self.failed) / self.attempted, "ratio"),
        }
        notes = {
            "rounds": len(walls),
            "round_wall_s": walls,
            "sim_days_per_round": days,
            "steps": len(self.step_ms),
            "step_ms.tail_percentile": pct,
            "setup_s_each": setup,
            "fail_frac": self.failed / self.attempted,
        }
        print(f"{self.workload}: {len(walls)} rounds of {len(calls)} verb calls, "
              f"{days[0]} simulated days per round", flush=True)
        for name, (value, unit) in metrics.items():
            extra = ""
            if name == "step_ms.tail":
                extra = f"  (p{pct} of {len(self.step_ms)} steps)"
            elif name == "setup_s":
                extra = f"  (median of {SETUP_REPEATS})"
            print(f"  {name:<16} {value:.6g} {unit}{extra}")
        print(f"  {'fail_frac':<16} {notes['fail_frac']:.6g} ratio  "
              f"({self.failed} of {self.attempted} operations)", flush=True)
        return {"metrics": metrics, "notes": notes}

    def traced(self, main, calls, devnull, patches: Patches) -> dict:
        start = time.perf_counter()
        plain_walls, _ = self.rounds(main, calls, devnull, self.seconds / 2, start)
        tracer = Tracer()
        bids = BidCounter()
        missing = []
        for module, qualname in TRACED:
            name = span_name(module, qualname)
            observe = bids.observe if qualname == "TradingEnv.step" else None
            if not patches.replace(module, qualname,
                                   lambda fn, n=name, o=observe: tracer.wrap(n, fn, o)):
                missing.append(name)
        traced_main = tracer.wrap(VERB_SPAN, main)
        walls, days = self.rounds(traced_main, calls, devnull, self.seconds, start)
        patches.restore()

        rounds = len(walls)
        wall_ms = sum(walls) * 1e3
        totals = tracer.totals()
        metrics = {}
        for name in [span_name(m, q) for m, q in TRACED] + [VERB_SPAN]:
            if name in missing:
                continue
            calls_total, self_ms = totals.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = (calls_total / rounds, "count")
            metrics[f"{name}.self_ms"] = (self_ms / rounds, "ms")
            metrics[f"{name}.share"] = (self_ms / wall_ms, "ratio")
        if "market.TradingEnv.step" in missing or bids.broken or not bids.collected:
            missing += ["market.bids_per_step", "market.accept_frac"]
        else:
            metrics["market.bids_per_step"] = (bids.submitted / bids.steps, "bids/step")
            metrics["market.accept_frac"] = (bids.accepted / bids.collected, "ratio")
        metrics["trace.wall_ratio"] = (statistics.median(walls) / statistics.median(plain_walls),
                                       "ratio")
        step_calls = totals.get("market.TradingEnv.step", (0, 0.0))[0] / rounds
        notes = {
            "untraced_rounds": len(plain_walls),
            "traced_rounds": rounds,
            "untraced_wall_s": plain_walls,
            "traced_wall_s": walls,
            "sim_days_per_round": days,
            "missing": missing,
            "bids": {"steps": bids.steps, "submitted": bids.submitted,
                     "collected": bids.collected, "accepted": bids.accepted},
            "fail_frac": self.failed / self.attempted,
        }
        os.makedirs(WORK, exist_ok=True)
        suffix = "-toy" if self.toy else ""
        tracer.save(os.path.join(WORK, f"{self.workload}-seed{self.seed}{suffix}-spans.npz"))

        print(f"{self.workload}: {len(plain_walls)} untraced and {rounds} traced rounds; "
              f"tracing overhead {100 * (metrics['trace.wall_ratio'][0] - 1):+.1f}% of wall_s "
              f"(traced {statistics.median(walls):.3f} s, "
              f"untraced {statistics.median(plain_walls):.3f} s)")
        print(f"  simulated days per round {days[0]}, TradingEnv.step calls per round "
              f"{step_calls:g}")
        if "market.bids_per_step" in metrics:
            print(f"  market.bids_per_step {metrics['market.bids_per_step'][0]:.6g} "
                  f"(base {bids.steps} steps), market.accept_frac "
                  f"{metrics['market.accept_frac'][0]:.6g} (base {bids.collected} bids)")
        for name in missing:
            print(f"  missing: {name}")
        ranked = sorted((k for k in metrics if k.endswith(".share")),
                        key=lambda k: -metrics[k][0])
        for key in ranked:
            base = key[:-len(".share")]
            if metrics[f"{base}.calls"][0]:
                print(f"  {base:<44} calls {metrics[base + '.calls'][0]:>10g}  "
                      f"self {metrics[base + '.self_ms'][0]:>10.1f} ms  "
                      f"share {metrics[key][0]:.4f}")
        print(f"  fail_frac {notes['fail_frac']:.6g} ({self.failed} of {self.attempted} "
              f"operations)", flush=True)
        return {"metrics": metrics, "notes": notes}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help=f"{TOY_DAYS}-day dataset and tiny budgets, for the self-test")
    parser.add_argument("--record-expected", action="store_true",
                        help="store this run's per-seed incomes in expected.json "
                             f"(default seed {DEFAULT_SEED}, full size)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record_expected and (args.seed != DEFAULT_SEED or args.toy):
        print(f"error: --record-expected needs --seed {DEFAULT_SEED} and no --toy",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=WORK)
    try:
        run = Run(args, tmp)
        report = run.execute()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    suffix = "-toy" if args.toy else ""
    with open(os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"),
              "w") as fh:
        json.dump({**report, "metrics": {k: {"value": v, "unit": u}
                                         for k, (v, u) in report["metrics"].items()}},
                  fh, indent=1, sort_keys=True)
    if args.record_expected:
        if run.failed:
            print("error: not recording a run with failures", file=sys.stderr)
            return 1
        expected = {}
        if os.path.isfile(EXPECTED):
            with open(EXPECTED) as fh:
                expected = json.load(fh)
        expected[args.workload] = {"recipe": report["env"]["dataset"],
                                   "budget": run.budget, "values": run.reference}
        with open(EXPECTED, "w") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
