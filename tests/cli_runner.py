"""One way for the tests to start Python children that import ``bilip``.

The children run in a test's temporary directory, where a relative
``PYTHONPATH`` entry such as ``src`` names nothing.  So each child gets
the absolute directory that holds the ``bilip`` package this process
imported, first on ``PYTHONPATH``, followed by the caller's own
``PYTHONPATH``.  The children therefore test the same code as the test
process, not whichever ``bilip`` happens to be installed.
"""

import os
import pathlib
import subprocess
import sys

import bilip

PACKAGE_ROOT = pathlib.Path(bilip.__file__).resolve().parent.parent


def run_python(*argv, cwd, timeout=None):
    rest = os.environ.get("PYTHONPATH")
    path = str(PACKAGE_ROOT) + (os.pathsep + rest if rest else "")
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


def run_cli(*argv, cwd, timeout=None):
    return run_python("-m", "bilip.cli", *argv, cwd=cwd, timeout=timeout)
