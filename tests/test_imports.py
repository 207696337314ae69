"""What each command imports: every `tabrc` command pays for its imports first.

`import tabrc` loads no submodule and exposes no public name besides
`__version__`; names are imported from the modules that define them. Each
command loads only its own modules: `stats` the statistics module, `simulate`
the sampling and simulation modules, `generate` the generation stack. The
value types are `NamedTuple`s, and `generate` forks its own workers over
pipes, so no command loads `dataclasses`, `multiprocessing` or
`concurrent.futures`, at any number of workers. Nothing here is timed;
`python -X importtime -m tabrc.cli stats --input FILE` shows where the time
of one command goes.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fixtures import CHELSEA

SRC = Path(__file__).resolve().parent.parent / "src"

# The functions bench/tracing.py wraps as attributes of `tabrc.cli`.
TRACED_CLI_NAMES = ("generate_corpus", "corpus_stats", "two_task_report", "run_simulation",
                    "read_accuracy_feed", "replay_feed")

# The generation stack, which neither `stats` nor `simulate` needs.
GENERATION_MODULES = {"tabrc.pipeline", "tabrc.generators", "tabrc.grammar", "tabrc.facts",
                      "tabrc.tables", "tabrc.values"}
SCHEDULE_MODULES = {"tabrc.sampling", "tabrc.simulation"}

# Prints what `import tabrc.cli` loaded of the two modules, the traced names
# it has, and whether importing `tabrc.oracle` (the one module the CLI does
# not import) loads `dataclasses`.
_PROBE = """
import json, sys
import tabrc.cli
loaded = [m for m in ("dataclasses", "multiprocessing") if m in sys.modules]
names = [n for n in %r if callable(getattr(tabrc.cli, n, None))]
import tabrc.oracle
print(json.dumps([loaded, names, "dataclasses" in sys.modules]))
"""

# What `generate` imports only where it needs them: `select` for workers
# above one and `traceback` for a table whose generation raised. Nothing
# imports `pickle`; it stays listed so that no run starts to.
LAZY_MODULES = ("select", "pickle", "traceback")

# Runs one command in a fresh interpreter and prints its exit code and the
# modules it loaded, as the last line of standard output.
_COMMAND_PROBE = """
import json, sys
from tabrc.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("tabrc.")
                               or m in ("multiprocessing", "concurrent.futures", *%r))]))
""" % (LAZY_MODULES,)


def _python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


@functools.cache
def _bare_modules():
    """The modules a bare interpreter loads when started as the probes are."""
    return frozenset(_python("import sys\nprint('\\n'.join(sys.modules))").split())


def _loaded_by(*args):
    """The modules the probe reports for one command, less those a bare
    interpreter loads anyway."""
    code, modules = json.loads(_python(_COMMAND_PROBE, *args).splitlines()[-1])
    assert code == 0, args
    return set(modules) - _bare_modules()


def test_cli_import_loads_no_dataclasses_or_multiprocessing():
    loaded, names, oracle_loads_dataclasses = json.loads(
        _python(_PROBE % (TRACED_CLI_NAMES,)))
    assert loaded == []
    assert tuple(names) == TRACED_CLI_NAMES
    assert not oracle_loads_dataclasses


def test_package_import_loads_no_submodule():
    probe = "import json, sys, tabrc\nprint(json.dumps(sorted(m for m in sys.modules " \
            "if m.startswith('tabrc.'))))"
    assert json.loads(_python(probe)) == []


def test_oracle_loads_no_generation_code():
    # The readers stay apart from the generation code path: they share the
    # grammar, the tables and the value parsing, not the generators or facts.
    probe = "import json, sys, tabrc.oracle\nprint(json.dumps(sorted(m for m in sys.modules " \
            "if m.startswith('tabrc.'))))"
    assert json.loads(_python(probe)) == ["tabrc.grammar", "tabrc.oracle", "tabrc.shared",
                                          "tabrc.tables", "tabrc.values"]


def test_package_exposes_only_its_version():
    # No public name, re-export list or lazy lookup, so the root cannot grow back.
    probe = ("import json, tabrc\nprint(json.dumps([n for n in vars(tabrc) if not n.startswith('_')"
             " or n in ('__all__', '__getattr__', '__dir__', '__version__')]))")
    assert json.loads(_python(probe)) == ["__version__"]


def _generate(tmp_path, *args):
    dump = tmp_path / "dump.jsonl"
    dump.write_text(json.dumps(CHELSEA) + "\n", encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    loaded = _loaded_by("generate", "--input", str(dump), "--output", str(corpus),
                        "--egs", "counting", *args)
    assert corpus.read_text(encoding="utf-8")
    return corpus, loaded


def test_generate_loads_no_schedule_module(tmp_path):
    _, loaded = _generate(tmp_path)
    assert "tabrc.generators" in loaded
    assert not loaded & SCHEDULE_MODULES
    assert "tabrc.stats" not in loaded
    assert "multiprocessing" not in loaded
    assert "concurrent.futures" not in loaded
    assert "select" not in loaded  # one worker polls no pipe


def test_generate_with_workers_loads_no_pool_module(tmp_path):
    _, loaded = _generate(tmp_path, "--workers", "2")
    assert "tabrc.generators" in loaded
    assert "multiprocessing" not in loaded
    assert "concurrent.futures" not in loaded
    # A run in which no table fails unpickles and formats nothing.
    assert not loaded & {"pickle", "traceback"}


def test_stats_loads_no_generation_module(tmp_path):
    corpus, _ = _generate(tmp_path)
    loaded = _loaded_by("stats", "--input", str(corpus), "--output", str(tmp_path / "s.txt"))
    assert loaded == {"tabrc.cli", "tabrc.shared", "tabrc.stats"}


@pytest.mark.parametrize("args", [
    pytest.param(["--num-tasks", "4", "--checkpoints", "3"], id="simulated"),
    pytest.param(["--preset", "two-task"], id="two-task"),
    pytest.param(["--history", "feed.tsv"], id="history"),
])
def test_simulate_loads_no_generation_module(tmp_path, args):
    (tmp_path / "feed.tsv").write_text("1\ta\t0.5\n1\tb\t0.6\n2\ta\t0.7\n2\tb\t0.6\n")
    args = [str(tmp_path / arg) if arg.endswith(".tsv") else arg for arg in args]
    loaded = _loaded_by("simulate", "--output", str(tmp_path / "out"), *args)
    assert "tabrc.sampling" in loaded
    assert not loaded & GENERATION_MODULES


def test_wrapper_set_before_its_module_loads_is_the_one_that_runs(tmp_path):
    # A name set on `tabrc.cli` before first access shadows the lazy lookup,
    # so the command calls it and its module is never imported.
    probe = """
import json, sys
from tabrc import cli
calls = []

class Stub:
    def lines(self):
        return ["stub"]

cli.corpus_stats = lambda handle: calls.append(handle.name) or Stub()
code = cli.main(["stats", "--input", sys.argv[1], "--output", "-"])
print(json.dumps([code, len(calls), "tabrc.stats" in sys.modules]))
"""
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    out = _python(probe, str(corpus)).splitlines()
    assert out[0] == "stub"
    assert json.loads(out[-1]) == [0, 1, False]
