import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import afferent

_RESULTS = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(name): label a test as one numbered acceptance criterion",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    name = marker.args[0]
    if report.when == "call":
        _RESULTS[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.outcome != "passed":
        _RESULTS[name] = "FAIL" if report.failed else "SKIP"


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_RESULTS):
        terminalreporter.write_line(f"[{_RESULTS[name]}] {name}")


def _run_python(code, timeout):
    """stdout of a fresh interpreter running code with this package importable.

    The interpreter leads a session of its own, so on a timeout the whole
    process group, forked children too, is killed before TimeoutExpired
    propagates.  A nonzero exit raises CalledProcessError.
    """
    src = str(Path(afferent.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args, out, err)
    return out


@pytest.fixture()
def run_python():
    """run_python(code, timeout): stdout of code run in a fresh interpreter."""
    return _run_python
