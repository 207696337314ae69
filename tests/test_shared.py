"""`shared.replacing`, the one way a command writes a file, a guard that
keeps it the only one, and `shared.to_stderr`."""

import ast
import errno
import io
import os
import sys
from pathlib import Path

import pytest

from tabrc import shared

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tabrc"


class TestReplacing:
    def test_the_file_appears_when_the_block_ends(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("earlier\n")
        with shared.replacing(str(path)) as handle:
            handle.write("caf\u00e9\n")
            assert path.read_text() == "earlier\n"
        assert path.read_bytes() == "caf\u00e9\n".encode("utf-8")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_errors_sets_the_encoding_error_handler(self, tmp_path):
        path = tmp_path / "out.txt"
        with shared.replacing(str(path), errors="backslashreplace") as handle:
            handle.write("\ud800\n")
        assert path.read_text() == "\\ud800\n"

    @pytest.mark.parametrize("exc", [ValueError("boom"), SystemExit(143)],
                             ids=["value-error", "system-exit"])
    def test_a_failed_block_keeps_the_earlier_file(self, tmp_path, exc):
        path = tmp_path / "out.txt"
        path.write_bytes(b"earlier\n")
        with pytest.raises(type(exc)) as raised:
            with shared.replacing(str(path)) as handle:
                handle.write("half of it")
                raise exc
        assert raised.value is exc
        assert path.read_bytes() == b"earlier\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_a_failed_open_names_the_path(self, tmp_path):
        path = str(tmp_path / "nodir" / "out.txt")
        with pytest.raises(FileNotFoundError) as raised:
            with shared.replacing(path):
                pytest.fail("the block ran")
        assert raised.value.filename == path
        assert ".tmp" not in str(raised.value)
        assert os.listdir(tmp_path) == []

    def test_an_error_from_the_block_passes_unchanged(self, tmp_path):
        path = tmp_path / "out.txt"
        missing = str(tmp_path / "missing.txt")
        with pytest.raises(FileNotFoundError) as raised:
            with shared.replacing(str(path)):
                open(missing)
        assert raised.value.filename == missing
        assert os.listdir(tmp_path) == []


class TestToStderr:
    def test_a_failed_write_drops_the_stream(self, monkeypatch):
        # A stream that keeps what it could not write, as a buffered one may,
        # would fail again when the interpreter flushes it at exit.
        class Unwritable(io.StringIO):
            def flush(self):
                raise OSError(errno.EBADF, "Bad file descriptor")

        monkeypatch.setattr(sys, "stderr", Unwritable())
        shared.to_stderr("lost\n")
        assert sys.stderr is None
        shared.to_stderr("lost as well\n")
        assert sys.stderr is None


def _mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of a call to the builtin `open`, if it has one."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return call.args[1] if len(call.args) > 1 else None


def _writes(call: ast.Call) -> bool:
    """Whether a call is an `open` in a mode that writes, or any call of
    `write_text` or `write_bytes`. A mode that is not a literal counts as
    writing, since it cannot be shown to read."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode = _mode(call)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(flag in mode.value for flag in "wax+")


def _writers(tree: ast.AST, scope: str = "") -> list[tuple[str, int]]:
    """(enclosing function, line) of every writing call in the tree."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and _writes(node):
            found.append((scope, node.lineno))
        found += _writers(node, inner)
    return found


def test_only_replacing_opens_a_file_for_writing():
    # A file a command writes goes through `shared.replacing`, so that no
    # output is ever left half-written.
    found = {module.name: _writers(ast.parse(module.read_text(), str(module)))
             for module in sorted(PACKAGE.glob("*.py"))}
    in_shared = found.pop("shared.py")
    assert {name: calls for name, calls in found.items() if calls} == {}
    assert [scope for scope, _line in in_shared] == ["replacing"]
