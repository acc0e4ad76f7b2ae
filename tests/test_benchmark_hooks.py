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
