"""Print the seconds one fresh process takes to build its first session.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  Prints the
build time and the median calibration-loop time measured just before it
(see ``calibrate.py``).  The benchmark runs this several times per
measurement and reports the median scaled build time as ``setup_s``, so
one-time caches (ROM assembly, first use of the session code) count as
set-up and not as frame cost.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from calibrate import Calibrator  # noqa: E402
from sessions import WORKLOADS, setup_seconds  # noqa: E402

if __name__ == "__main__":
    calibrator = Calibrator()
    for __ in range(7):
        calibrator.sample()
    seconds = setup_seconds(WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    print(repr(seconds), repr(sorted(calibrator.samples)[3]))
