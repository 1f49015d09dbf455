"""Keyed random streams for reproducible, chunkable simulation.

Every stream is organized in fixed panels of PANEL_PULSES consecutive
pulses. A panel's generator is SFC64 seeded by a SeedSequence with spawn
key (domain, panel) under the run's entropy; that keying lets any pulse
range be recomputed from scratch, so chunked execution is byte-identical
to a serial run regardless of chunk boundaries.
"""
from __future__ import annotations

import numpy as np

#: Pulses per panel. Chunk boundaries may fall anywhere; panels are the
#: internal recomputation unit.
PANEL_PULSES = 1 << 16

#: Domain tags keeping independent streams out of each other's draws.
#: The values key the streams, so they stay fixed; 0 is unused.
DOMAIN_DETECTION = 1
DOMAIN_BASIS = 2


def panel_generator(entropy: int, domain: int, panel: int) -> np.random.Generator:
    """SFC64 generator for one (stream, panel) cell of ``entropy``."""
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=(domain, panel))
    return np.random.Generator(np.random.SFC64(ss))


def panel_range(start: int, count: int):
    """Yield (panel, lo, hi, take_lo, take_hi) covering [start, start+count).

    lo/hi are pulse indices of the full panel intersection; take_lo/take_hi
    slice the panel-local arrays.
    """
    if count <= 0:
        return
    end = start + count
    first = start // PANEL_PULSES
    last = (end - 1) // PANEL_PULSES
    for panel in range(first, last + 1):
        p_lo = panel * PANEL_PULSES
        p_hi = p_lo + PANEL_PULSES
        lo = max(start, p_lo)
        hi = min(end, p_hi)
        yield panel, lo, hi, lo - p_lo, hi - p_lo
