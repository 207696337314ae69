"""tabrc: synthetic reading-comprehension corpora from semi-structured
tables, plus accuracy-driven multi-task sampling schedules.

`import tabrc` gives `__version__` and loads no submodule; import names from
the modules that define them (`from tabrc.values import Date`).
"""

__version__ = "0.1.0"
