"""A watchdog for every test: one that runs past WATCHDOG_S dumps the stack
of every thread to the terminal and ends the run with exit status 1, so a
stuck worker pool fails the suite instead of hanging it.

The bound sits far above the slowest test (the determinism and throughput
acceptance test, about 25 s). The watchdog is armed around each test's
whole run, set-up and teardown included, so a hang in a fixture shared by a
module is caught too.
"""

import faulthandler
import os
import sys

import pytest

WATCHDOG_S = 300.0

# A copy of the terminal's stderr, where the watchdog writes.
_TERMINAL = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is paused while plugins are configured, so fd 2 is the
    # terminal here; while a test runs, it is redirected into the capture.
    config.stash[_TERMINAL] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_TERMINAL])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=item.config.stash[_TERMINAL])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
