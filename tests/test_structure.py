"""Where the package's rules live, pinned by scanning its source."""
import ast
import pathlib

import dayahead

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
