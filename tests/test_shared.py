"""`shared.replacing`, the one way a command writes a file, `shared.to_stdout`
and `shared.to_stderr`, the one way it writes to each standard stream, and
guards that keep them the only ones; and seed derivation with and without a
fixed prefix."""

import ast
import errno
import hashlib
import io
import os
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tabrc import shared

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tabrc"


# Parts that hold the separator the parts are joined with, or are empty.
_PART = st.one_of(st.integers(), st.text(st.characters(blacklist_categories=("Cs",))),
                  st.sampled_from(["", "\x1f", "a\x1f", "\x1fb"]))


class TestDeriveSeed:
    def test_hashes_the_parts_joined_by_the_unit_separator(self):
        digest = hashlib.sha256("7\x1ftable\x1fcounting".encode("utf-8")).digest()
        assert shared.derive_seed(7, "table", "counting") == int.from_bytes(digest[:8], "big")

    @given(parts=st.lists(_PART, max_size=5))
    def test_prefix_form_equals_derive_seed_at_every_split(self, parts):
        seed = shared.derive_seed(*parts)
        for cut in range(len(parts) + 1):
            derive = shared.seed_deriver(*parts[:cut])
            assert derive(*parts[cut:]) == seed
            assert derive(*parts[cut:]) == seed  # a call leaves the prefix as it was


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


class TestToStdout:
    def test_a_closed_stdout_is_an_error(self, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        with pytest.raises(OSError) as raised:
            shared.to_stdout("lost\n")
        assert raised.value.errno == errno.EBADF


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


def _writes_a_stream(call: ast.Call) -> bool:
    """Whether a call is a `print` or a `write` on `sys.stdout` or
    `sys.stderr`."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "print"
    stream = func.value if isinstance(func, ast.Attribute) and func.attr == "write" else None
    return (isinstance(stream, ast.Attribute) and stream.attr in ("stdout", "stderr")
            and isinstance(stream.value, ast.Name) and stream.value.id == "sys")


def _calls(tree: ast.AST, wanted, scope: str = "") -> list[tuple[str, int]]:
    """(enclosing function, line) of every call in the tree that `wanted`
    picks."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and wanted(node):
            found.append((scope, node.lineno))
        found += _calls(node, wanted, inner)
    return found


def _calls_by_module(wanted) -> dict[str, list[tuple[str, int]]]:
    return {module.name: _calls(ast.parse(module.read_text(), str(module)), wanted)
            for module in sorted(PACKAGE.glob("*.py"))}


def test_only_replacing_opens_a_file_for_writing():
    # A file a command writes goes through `shared.replacing`, so that no
    # output is ever left half-written.
    found = _calls_by_module(_writes)
    in_shared = found.pop("shared.py")
    assert {name: calls for name, calls in found.items() if calls} == {}
    assert [scope for scope, _line in in_shared] == ["replacing"]


def test_only_the_stream_writers_write_to_stdout_or_stderr():
    # A closed stdout fails the command and a closed stderr is skipped
    # (`to_stdout`, `to_stderr`); a bare `print` would do neither.
    found = _calls_by_module(_writes_a_stream)
    in_shared = found.pop("shared.py")
    assert {name: calls for name, calls in found.items() if calls} == {}
    assert [scope for scope, _line in in_shared] == ["to_stdout", "to_stderr"]
