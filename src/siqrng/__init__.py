"""Source-independent quantum random number generation toolkit.

Simulates a two-basis polarization measurement on an untrusted photon
source, estimates the certifiable randomness at finite size, extracts it
with Toeplitz hashing, finds the rate-optimal mean photon number, and
sanity-checks the output with a statistical battery.
"""

import os

__version__ = "0.1.0"

#: CPUs this process may use: the simulator's chunk-drawing threads
#: (detector_sim.WORKERS) and the hash's worker thread (extractor) are
#: sized by it.
CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)
