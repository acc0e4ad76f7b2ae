"""Where the package's rules live, pinned by scanning its source and its
config dataclasses."""
import ast
import math
import pathlib
from dataclasses import fields
from datetime import date
from typing import get_args, get_origin, get_type_hints

import pytest

import dayahead
from dayahead import cli
from dayahead.cli import CONFIG_KEYS

PACKAGE = pathlib.Path(dayahead.__file__).parent
FILE_READS = {"open", "json.load", "json.loads"}


def file_reads(path) -> set[str]:
    """The calls in ``path`` that open a file (``open(...)``, ``x.open(...)``)
    or decode JSON (``json.load``, ``json.loads``)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                found.add(func.id)
            elif isinstance(func, ast.Attribute):
                owner = func.value.id if isinstance(func.value, ast.Name) else ""
                found.add("open" if func.attr == "open" else f"{owner}.{func.attr}")
    return found & FILE_READS


def test_only_data_opens_files_or_decodes_json():
    """``data`` holds the one writer of each table and JSON document a verb
    writes, and the one JSON reader, ``read_json``; no other module opens a
    file or decodes JSON itself."""
    reads = {path.name: file_reads(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert "open" in reads["data.py"]  # the scan sees what it looks for
    assert {name: found for name, found in reads.items() if found and name != "data.py"} == {}


def trace_reads(path) -> int:
    """How many times ``path`` reads an attribute named ``trace``, as in
    ``result.trace``; a local variable of that name is not counted."""
    return sum(isinstance(node, ast.Attribute) and node.attr == "trace"
               for node in ast.walk(ast.parse(path.read_text())))


def test_only_market_reads_a_collected_days_trace():
    """``Episode.collect`` is the one conversion of a ``DayResult``'s flat
    trace into arrays; every other module reads a scored episode as an
    ``Episode``."""
    reads = {path.name: trace_reads(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert reads["market.py"]  # the scan sees what it looks for
    assert {name: count for name, count in reads.items() if count and name != "market.py"} == {}


def test_every_section_field_is_a_config_key_or_set_by_a_flag():
    """The section dataclasses are the one config surface: each field is the
    ``CONFIG_KEYS`` entry of its key, or carries ``metadata={"key": None}``,
    and the table holds nothing else."""
    keys = set()
    for section, config in cli.SECTIONS.items():
        for f in fields(config):
            key = f.metadata.get("key", f.name)
            assert key is None or CONFIG_KEYS[key][:2] == (section, f.name), (section, f.name)
            keys.add(key)
    assert set(CONFIG_KEYS) == keys - {None}


def test_every_config_cast_follows_from_its_field_type():
    """``int`` reads a whole number, ``float`` a finite one, ``date`` ISO
    text, a tuple as many finite numbers as its default holds, and
    ``X | None`` also ``"automatic"``; no key has a cast of its own."""
    for key, (section, name, cast) in CONFIG_KEYS.items():
        hint = get_type_hints(cli.SECTIONS[section])[name]
        default = {f.name: f.default for f in fields(cli.SECTIONS[section])}[name]
        if get_args(hint)[1:] == (type(None),):
            assert cast("automatic") is None, key
            hint = get_args(hint)[0]
        if hint is int:
            assert cast(2.0) == 2 and type(cast("2")) is int, key
            bad = 2.5
        elif hint is float:
            assert cast(2) == 2.0 and type(cast("2")) is float, key
            bad = math.nan
        elif hint is date:
            assert cast("2017-03-01") == date(2017, 3, 1), key
            bad = "2017-02-30"
        else:
            assert tuple in (hint, get_origin(hint)), key
            assert cast([1] * len(default)) == (1.0,) * len(default), key
            bad = [0.5] * (len(default) + 1)
        with pytest.raises(ValueError):
            cast(bad)
