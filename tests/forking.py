"""Run a test body in a fresh Python process on one OS thread, where
workers.fork_map forks.

numpy's OpenBLAS starts its own threads at import unless it is pinned to one,
and fork_map runs inline in a process with more than one thread; so the test
process, whatever its own BLAS setting, cannot show the fork path. The body
runs after a prelude that pins BLAS, checks that the process may fork, and
defines:

- use_cpus(n): make the process see n usable CPUs, so that fork_map splits
  the items into min(n, items) shares on any machine;
- FORKS: one entry per os.fork call;
- reaped(): whether no child of the process is left, not even unreaped.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PRELUDE = """\
import os
import numpy as np
from scendiff import workers

assert workers.can_fork(), "the test process is not single-threaded"

def use_cpus(n):
    os.sched_getaffinity = lambda pid: set(range(n))

FORKS = []
_fork = os.fork

def _counting_fork():
    FORKS.append(1)
    return _fork()

os.fork = _counting_fork

def reaped():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


def run_pinned(body: str) -> str:
    """Run the prelude and `body` under the suite's warning policy; fail on a
    non-zero exit, showing stderr, and return stdout."""
    if sys.platform != "linux":
        pytest.skip("fork_map forks only on Linux")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         "-c", PRELUDE + textwrap.dedent(body)],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
