"""Source-independent quantum random number generation toolkit.

Simulates a two-basis polarization measurement on an untrusted photon
source, estimates the certifiable randomness at finite size, extracts it
with Toeplitz hashing, finds the rate-optimal mean photon number, and
sanity-checks the output with a statistical battery.
"""

__version__ = "0.1.0"
