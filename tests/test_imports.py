"""What importing the CLI costs: every `tabrc` command pays for it first.

The value types are `NamedTuple`s and the worker pool is imported only when
`generate` runs with more than one worker, so a fresh `import tabrc.cli`
loads neither `dataclasses` nor `multiprocessing`. Nothing here is timed;
`python -X importtime -c "import tabrc.cli"` shows where the time goes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The functions bench/tracing.py wraps as attributes of `tabrc.cli`.
TRACED_CLI_NAMES = ("generate_corpus", "corpus_stats", "two_task_report", "run_simulation",
                    "read_accuracy_feed", "replay_feed")

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


def test_cli_import_loads_no_dataclasses_or_multiprocessing():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", _PROBE % (TRACED_CLI_NAMES,)], env=env,
                           capture_output=True, text=True, timeout=60, check=True)
    loaded, names, oracle_loads_dataclasses = json.loads(probe.stdout)
    assert loaded == []
    assert tuple(names) == TRACED_CLI_NAMES
    assert not oracle_loads_dataclasses
