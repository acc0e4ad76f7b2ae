"""The output tree of ten verb runs, pinned.

In process and through ``cli.main``, on the 120-day set of ``generate-data
--seed 7`` with the tiny config and seeds 0 and 1, the test runs
``generate-data``; ``optimize`` timing and opportunistic; ``train-rl`` with
and without weather; ``evaluate`` with ``--params``, ``--policy`` and
``--zero-action``; ``sweep-battery`` over two capacities; and ``report``
over the seven scoring runs.  Every file they write, by its path relative to
the run root, and each verb's stdout, with the run root masked, is compared
with ``golden_tree.json``.

On the build the file was recorded on (numpy version, BLAS library, the
CPU features numpy dispatches on) the sha256 of each must match.  CMA-ES
calls ``eigh`` and A2C calls BLAS ``gemm``, so on another build each file is
compared by what it says instead: its text with the numbers masked must
match, and its numbers must agree at a relative 1e-9, summed three ways.

Regenerate the file, after a change that is meant to alter output, with::

    PYTHONPATH=src python3 tests/test_golden_tree.py
"""
import contextlib
import hashlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from dayahead.cli import main

from conftest import TINY_CONFIG

GOLDEN = Path(__file__).with_name("golden_tree.json")
REL_TOL = 1e-9
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
SCORING_RUNS = ("timing", "opportunistic", "rl", "rl_no_weather",
                "eval_params", "eval_policy", "zero")


def verb_runs(root: str) -> list[tuple[str, list[str]]]:
    """``(name, argv)`` of the ten runs, in order; each writes ``root/name``."""
    data = ["--data", f"{root}/data", "--config", f"{root}/config.json", "--seeds", "0,1"]
    return [
        ("data", ["generate-data", "--seed", "7", "--days", "120"]),
        ("timing", ["optimize", "--strategy", "timing", *data]),
        ("opportunistic", ["optimize", "--strategy", "opportunistic", *data]),
        ("rl", ["train-rl", *data]),
        ("rl_no_weather", ["train-rl", "--no-weather", *data]),
        ("eval_params", ["evaluate", "--params", f"{root}/timing/seed0/params.json", *data]),
        ("eval_policy", ["evaluate", "--policy", f"{root}/rl/seed0/policy.npz", *data]),
        ("zero", ["evaluate", "--zero-action", "--name", 'zero, "q"', *data]),
        ("sweep", ["sweep-battery", "--capacities", "1.0,2.0", *data]),
        ("report", ["report", "--runs", *(f"{root}/{run}" for run in SCORING_RUNS), *data]),
    ]


def build() -> dict:
    """What the bytes of the tree depend on besides the code."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
                "simd": sorted(config["SIMD Extensions"]["found"])}
    except (TypeError, KeyError):  # a numpy without mode="dicts"
        return {"numpy": np.__version__, "blas": "unknown", "simd": []}


def fingerprint(content: bytes, name: str) -> dict:
    """The sha256 of ``content``, the sha256 of its text with the numbers
    masked, and ``[count, sum |x|, sum w*x, sum w*x*x]`` of its numbers,
    with a fixed weight ``w`` in [1, 2) per position so that a moved number
    shows.  An ``.npz`` file's numbers are its arrays, its text the rest."""
    if name.endswith(".npz"):
        with np.load(io.BytesIO(content)) as arrays:
            keys = sorted(arrays.files)
            text = "\n".join(bytes(arrays[key]).decode() if key == "header"
                             else f"{key} {arrays[key].dtype} {arrays[key].shape}"
                             for key in keys)
            numbers = np.concatenate([arrays[key].ravel().astype(float)
                                      for key in keys if key != "header"])
    else:
        text = content.decode()
        numbers = np.array([float(token) for token in NUMBER.findall(text)])
        text = NUMBER.sub("#", text)
    weights = 1.0 + (np.arange(numbers.size) * 0.6180339887498949) % 1.0
    return {"sha256": hashlib.sha256(content).hexdigest(),
            "text": hashlib.sha256(text.encode()).hexdigest(),
            "numbers": [int(numbers.size), float(np.abs(numbers).sum()),
                        float((weights * numbers).sum()),
                        float((weights * numbers * numbers).sum())]}


def output_tree(root: str) -> dict:
    """Run the ten verbs under ``root``; the fingerprint of each output file
    by relative path and of each verb's stdout by run name."""
    with open(os.path.join(root, "config.json"), "w") as fh:
        json.dump(TINY_CONFIG, fh)
    stdout = {}
    for name, argv in verb_runs(root):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = main([*argv, "--out", os.path.join(root, name)])
        assert code == 0, (name, code)
        stdout[name] = fingerprint(captured.getvalue().replace(root, "<root>").encode(),
                                   "stdout")
    files = {}
    for dirpath, _, names in os.walk(root):
        for file_name in names:
            path = os.path.join(dirpath, file_name)
            with open(path, "rb") as fh:
                files[Path(os.path.relpath(path, root)).as_posix()] = fingerprint(fh.read(),
                                                                                  file_name)
    return {"files": dict(sorted(files.items())), "stdout": stdout}


def _numbers_agree(got: list, want: list) -> bool:
    """Equal counts and sums within ``REL_TOL``; the weighted sum, which can
    cancel, is held to the scale of the sum of magnitudes."""
    count, abs_sum, weighted, squares = want
    scale = max(abs_sum, got[1])
    return (got[0] == count
            and math.isclose(got[1], abs_sum, rel_tol=REL_TOL)
            and abs(got[2] - weighted) <= 2.0 * REL_TOL * scale
            and math.isclose(got[3], squares, rel_tol=2.0 * REL_TOL))


def test_output_tree_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    tree = output_tree(str(tmp_path))
    for part in ("files", "stdout"):
        assert sorted(tree[part]) == sorted(golden[part]), part
    entries = [(f"{part} {key}", tree[part][key], golden[part][key])
               for part in ("files", "stdout") for key in golden[part]]
    here = build()
    if golden["build"] == here:
        changed = [key for key, got, want in entries if got["sha256"] != want["sha256"]]
        assert not changed, f"output differs from {GOLDEN.name}: {changed}"
    else:
        changed = [key for key, got, want in entries
                   if got["text"] != want["text"] or not _numbers_agree(got["numbers"],
                                                                       want["numbers"])]
        assert not changed, (f"{GOLDEN.name} was recorded on {golden['build']}, this is "
                             f"{here}; compared by text and numbers at rel {REL_TOL}, "
                             f"these differ: {changed}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {"build": build(), **output_tree(tmp)}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} with {len(recorded['files'])} files "
          f"and {len(recorded['stdout'])} stdout entries")
