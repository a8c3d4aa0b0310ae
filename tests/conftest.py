import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pmds.fields import field_from_order

SMALL_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
GRID_ORDERS = SMALL_ORDERS  # acceptance grid: q <= 16, k <= min(q, 6)


@pytest.fixture(params=SMALL_ORDERS, ids=lambda q: f"q{q}")
def small_field(request):
    return field_from_order(request.param)


_LAUNCHER = (
    "import resource, subprocess, sys\n"
    "limit = int(sys.argv[1])\n"
    "def cap():\n"
    "    if limit:\n"
    "        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
    "code = subprocess.run(sys.argv[2:], stdout=subprocess.DEVNULL, preexec_fn=cap).returncode\n"
    "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


@pytest.fixture
def pmds_peak_kib():
    """Runs ``python -m pmds <args>``; returns its exit code, its peak RSS in
    KiB and its stderr.

    Linux carries a process's peak RSS across exec, so a child forked from
    this (large) test process would report this process's peak.  A small
    interpreter in between starts the measured run and reads its peak.
    With ``address_space`` (bytes), the run's own ``RLIMIT_AS`` is set to it
    before exec, so an allocation beyond it fails in that process only.
    """

    def run(*args, address_space=0):
        out = subprocess.run(
            [sys.executable, "-c", _LAUNCHER, str(address_space), sys.executable, "-m", "pmds",
             *args],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        code, peak_kib = map(int, out.stdout.split())
        return code, peak_kib, out.stderr  # ru_maxrss is in KiB on Linux

    return run
