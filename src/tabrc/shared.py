"""Names that more than one command needs: the generator kinds, the sampling
strategies, `generate`'s defaults, seed derivation, `check_not_input`, which
keeps a command from writing over its input, `replacing`, the one way a
command writes a file, and `to_stdout` and `to_stderr`, the one way it
writes to each standard stream.

This module imports nothing else from `tabrc`, so `stats` can list the
sixteen kinds and `simulate` can derive seeds without loading the generators.
"""

from __future__ import annotations

import contextlib
import errno
import os
import sys
from enum import Enum
from typing import Iterator, TextIO


class GeneratorKind(Enum):
    COMPOSITION_2HOP = "composition_2hop"
    COMPOSITION_3HOP = "composition_3hop"
    CONJUNCTION = "conjunction"
    QUANTIFIER_ONLY = "quantifier_only"
    QUANTIFIER_MOST = "quantifier_most"
    QUANTIFIER_EVERY = "quantifier_every"
    NUMBER_COMPARISON = "number_comparison"
    TEMPORAL_COMPARISON = "temporal_comparison"
    NUMBER_BOOLEAN_COMPARISON = "number_boolean_comparison"
    TEMPORAL_BOOLEAN_COMPARISON = "temporal_boolean_comparison"
    NUMBER_SUPERLATIVE = "number_superlative"
    TEMPORAL_SUPERLATIVE = "temporal_superlative"
    ARITHMETIC_SUPERLATIVE = "arithmetic_superlative"
    ARITHMETIC_ADDITION = "arithmetic_addition"
    COUNTING = "counting"
    DATE_DIFFERENCE = "date_difference"


class Strategy(Enum):
    UNIFORM = "uniform"
    ERROR = "error"
    MOMENTUM = "momentum"


# `generate`'s defaults: examples per generator and table, and the row bounds
# of an accepted table.
PER_TABLE_CAP = 10
MIN_ROWS = 10
MAX_ROWS = 25


def derive_seed(*parts: object) -> int:
    """Stable seed derivation so concurrency and call order never change
    output: hash of the joined parts, independent of PYTHONHASHSEED."""
    # Imported here, not by the module: `stats` loads this module and
    # derives no seed. (A plain `import` of a loaded module is cheap; `from
    # hashlib import sha256` would cost about a microsecond per call.)
    import hashlib

    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def check_not_input(flag: str, path: str, input_path: str) -> None:
    """Refuse a command's output `path` that names its input file, also
    through a symbolic link: writing it would replace the input."""
    if os.path.realpath(path) == os.path.realpath(input_path):
        raise ValueError(f"{flag} path is the input path: {path}")


@contextlib.contextmanager
def replacing(path: str, errors: str = "strict") -> Iterator[TextIO]:
    """A UTF-8 text handle on a temporary file beside `path`
    (`path.tmp<pid>`), renamed into place when the block ends. A block that
    fails or is left by SystemExit (SIGTERM, under the CLI) leaves any
    earlier file as it was and no temporary file behind. An error in opening
    or renaming the temporary file names `path`."""
    temp = f"{path}.tmp{os.getpid()}"
    try:
        with open(temp, "w", encoding="utf-8", errors=errors) as handle:
            yield handle
        os.replace(temp, path)
    except OSError as exc:
        if exc.filename != temp:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)


def to_stdout(text: str) -> None:
    """Write `text` to stdout. Stdout carries the command's product, so a
    closed one is an error: with fd 1 closed at start-up `sys.stdout` is
    None, and this raises OSError (EBADF)."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "standard output is closed")
    sys.stdout.write(text)


def to_stderr(text: str) -> None:
    """Write and flush `text` to stderr if it takes it; a failed write sets
    `sys.stderr` to None, so neither a later line nor the exit flush retries."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
            sys.stderr.flush()
        except OSError:
            sys.stderr = None
