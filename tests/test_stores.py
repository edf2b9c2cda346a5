"""The one artifact writer: atomic replacement, failure clean-up, cell format,
and a guard that no module writes a file any other way."""
import ast
import errno
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import spikecast.stores
from spikecast.errors import StoreError
from spikecast.stores import (
    EmbeddingStore,
    NewsSummary,
    SummaryStore,
    atomic_write,
    write_csv,
    write_json,
)

PACKAGE = Path(spikecast.stores.__file__).resolve().parent
# Blank lines: a file that both stores load as empty.
OLD = b"\n\n"


def _summary_store(path):
    store = SummaryStore(path)
    store.upsert(NewsSummary(1970, ("oil",), "text", True, 0, "mock", "t0"))
    store.write()


def _embedding_store(path):
    store = EmbeddingStore(path, load=False)
    store.put(1970, [0.5, -1.0])
    store.write()


def _text(path):
    with atomic_write(path) as fh:
        fh.write("a" * 10_000)


WRITERS = {
    "atomic_write": _text,
    "write_csv": lambda path: write_csv(path, ["a", "b"], [[1, 0.5], [2, None]]),
    "write_json": lambda path: write_json(path, {"b": [1.5], "a": None}),
    "SummaryStore.write": _summary_store,
    "EmbeddingStore.write": _embedding_store,
}


class _DiskFull:
    """A text handle that writes half of its first text, then fails as a
    full disk does."""

    def __init__(self, path, mode="r"):
        self._fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, lines):
        self.write("".join(lines))


def _fail_replace(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
    def test_replaces_the_old_file(self, tmp_path, writer):
        path = tmp_path / "artifact"
        path.write_bytes(OLD)
        writer(path)
        assert path.read_bytes() != OLD
        assert os.listdir(tmp_path) == ["artifact"]

    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
    @pytest.mark.parametrize("failure", ["write", "replace"])
    def test_failure_keeps_old_bytes_and_leaves_no_temp_file(
            self, tmp_path, monkeypatch, writer, failure):
        path = tmp_path / "artifact"
        path.write_bytes(OLD)
        if failure == "write":
            monkeypatch.setattr(spikecast.stores, "open", _DiskFull, raising=False)
        else:
            monkeypatch.setattr(spikecast.stores.os, "replace", _fail_replace)
        with pytest.raises(StoreError, match=r"cannot write .*artifact"):
            writer(path)
        assert path.read_bytes() == OLD
        assert os.listdir(tmp_path) == ["artifact"]

    def test_failure_without_an_old_file_leaves_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spikecast.stores.os, "replace", _fail_replace)
        with pytest.raises(StoreError):
            _text(tmp_path / "artifact")
        assert os.listdir(tmp_path) == []

    def test_other_errors_propagate_unchanged(self, tmp_path):
        path = tmp_path / "artifact"
        path.write_bytes(OLD)
        with pytest.raises(ValueError, match="bad value"):
            with atomic_write(path) as fh:
                fh.write("partial")
                raise ValueError("bad value")
        assert path.read_bytes() == OLD
        assert os.listdir(tmp_path) == ["artifact"]

    def test_creates_missing_directories(self, tmp_path):
        write_json(tmp_path / "a" / "b" / "doc.json", {})
        assert (tmp_path / "a" / "b" / "doc.json").read_text() == "{}\n"


class TestFormats:
    def test_csv_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("name", "x", "y", "n"), [
            ["a", 0.1, -0.0, 3],
            ["b", np.float64(1 / 3), 1e16, np.int64(7)],
            ["c", None, math.nan, 0],
            ["d", np.float64("nan"), 5e-324, 1],
        ])
        assert path.read_text() == (
            "name,x,y,n\n"
            "a,0.1,-0.0,3\n"
            f"b,{1 / 3!r},1e+16,7\n"
            "c,,,0\n"
            "d,,5e-324,1\n"
        )

    def test_csv_without_rows_is_its_header(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["fpr", "tpr"], [])
        assert (tmp_path / "t.csv").read_text() == "fpr,tpr\n"

    def test_json_is_indent_2_with_sorted_keys(self, tmp_path):
        doc = {"b": {"z": 1, "y": [0.5, None]}, "a": "x"}
        write_json(tmp_path / "d.json", doc)
        assert (tmp_path / "d.json").read_text() == (
            json.dumps(doc, indent=2, sort_keys=True) + "\n")


# --- one write path ------------------------------------------------------------

# The only place in the package that may open a file for writing.
WRITER_SITE = ("stores.py", "atomic_write")
WRITE_METHODS = {"write_text", "write_bytes"}


def _writing_mode(node: ast.Call) -> bool:
    """Whether an open-like call names a mode that writes, appends or creates."""
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[:2]
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and set(m.value) <= set("rwxabt+") and set(m.value) & set("wxa+")
               for m in modes)


def _write_sites(tree: ast.AST, filename: str) -> list[tuple[str, str, int]]:
    """(file, enclosing function, line) of every call that writes a file."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if (name in WRITE_METHODS
                    or (name == "dump" and isinstance(func, ast.Attribute)
                        and getattr(func.value, "id", "") == "json")
                    or (name in ("open", "fdopen") and _writing_mode(node))):
                sites.append((filename, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return sites


class TestOneWritePath:
    def test_guard_sees_each_kind_of_write(self):
        source = "\n".join([
            "import json",
            "def f(p, fh, doc):",
            "    p.write_text('x')",
            "    p.write_bytes(b'x')",
            "    json.dump(doc, fh)",
            "    open(p, 'w')",
            "    open(p, mode='a')",
            "    p.open('x')",
            "    open(p, 'r+')",
            "    open(p)",
            "    open(p, 'rb')",
            "    json.dumps(doc)",
        ])
        lines = [line for _, _, line in _write_sites(ast.parse(source), "m.py")]
        assert lines == [3, 4, 5, 6, 7, 8, 9]

    def test_only_the_writer_writes_files(self):
        sites = []
        for path in sorted(PACKAGE.rglob("*.py")):
            rel = path.relative_to(PACKAGE).as_posix()
            sites += _write_sites(ast.parse(path.read_text(), rel), rel)
        assert [s[:2] for s in sites] == [WRITER_SITE], sites
