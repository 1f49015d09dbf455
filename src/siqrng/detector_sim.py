"""Measurement-side simulation: basis choice, one uniform per pulse
drawn against source_sim's four-outcome detection law, dead time, event
tallying and the generation-basis raw bits.

The simulation is organized in fixed pulse panels (see rngstream), so a
run can be produced serially or in arbitrary index chunks with
byte-identical results. Dead-time suppression is keyed to raw avalanche
attempts within a bounded look-back window, which keeps chunk
recomputation exact. Panels are drawn on a small thread pool, each into
its own slice of the code array, so the events do not depend on the
worker count.
"""
from __future__ import annotations

import collections
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import CPUS, rngstream
from .errors import EstimationAbort, RunTooLargeError
from .io_formats import PackedBits
from .protocol_math import TallySummary
from .source_sim import (
    BASIS_X,
    BASIS_Z,
    DetectorParams,
    MeasurementConfig,
    SourceParams,
    effective_projection_probs,
    outcome_law,
    polarization_from_waveplates,
)

#: Outcome codes are the click bits: detector 0 is bit 0, detector 1 bit 1.
#: A pulse's event code is ``basis | outcome << 1``, the SQEB v1 body byte.
OUTCOME_NONE = 0
OUTCOME_D0 = 1
OUTCOME_D1 = 2
OUTCOME_DOUBLE = 3

#: Threads drawing panels in simulate_range. Each panel's generators are
#: keyed by (seed, domain, panel), and numpy's fills and ufuncs release
#: the GIL, so the draws overlap and their values do not depend on this.
WORKERS = min(4, CPUS)


class EventStream:
    """Consecutive pulse events: one uint8 event code per pulse plus the
    index of the first pulse; indices are consecutive by construction.
    The codes may be a read-only view of an event file's bytes."""

    def __init__(self, codes: np.ndarray, start: int = 0):
        self.codes = codes
        self.start = start

    def __len__(self):
        return len(self.codes)

    def __eq__(self, other):
        return (
            isinstance(other, EventStream)
            and self.start == other.start
            and np.array_equal(self.codes, other.codes)
        )


def choose_basis_block(
    basis_seed: int, start: int, count: int, prob_X: float
) -> np.ndarray:
    """Vectorized basis choices for pulses [start, start+count)."""
    out = np.empty(count, dtype=np.uint8)
    for panel, lo, hi, t_lo, t_hi in rngstream.panel_range(start, count):
        rng = rngstream.panel_generator(basis_seed, rngstream.DOMAIN_BASIS, panel)
        u = rng.random(rngstream.PANEL_PULSES)
        np.less(u[t_lo:t_hi], prob_X, out=out[lo - start : hi - start].view(bool))
    return out


def _outcomes(u: np.ndarray, law: tuple[float, float, float]) -> np.ndarray:
    """Outcome codes 0-3 of uniforms ``u`` under a cumulative law."""
    t1, t2, t3 = law
    out = (u >= t1).view(np.uint8)
    out += u >= t2
    out += u >= t3
    return out


def _raw_clicks_panel(
    panel: int,
    config: MeasurementConfig,
    seed: int,
    law_z: tuple[float, float, float],
    law_x: tuple[float, float, float],
) -> np.ndarray:
    """Event codes of one panel's raw (pre-dead-time) clicks.

    Each pulse's (click0, click1) pair is drawn at once from its basis's
    outcome_law with one uniform of the detection stream, exact in
    distribution without drawing a photon number or lambda_eff; bases
    come from the basis stream.
    """
    n = rngstream.PANEL_PULSES
    basis = choose_basis_block(config.basis_seed, panel * n, n, config.prob_X)
    u = rngstream.panel_generator(seed, rngstream.DOMAIN_DETECTION, panel).random(n)
    outcome = _outcomes(u, law_z)
    x = np.flatnonzero(basis.view(bool))  # 10x faster than on uint8
    outcome[x] = _outcomes(u[x], law_x)
    outcome <<= 1
    return np.bitwise_or(outcome, basis, out=outcome)


def _suppress_dead(raw: np.ndarray, window: int, warmup: np.ndarray) -> np.ndarray:
    """Clicks surviving dead time: live unless a raw attempt occurred in
    the previous ``window`` pulses. ``warmup`` supplies exactly the
    ``window`` raw indicators preceding the block. The indicators may be
    bools or the click bits of event codes, one detector per bit.

    Pulse i of the block sits at ext[i + window] of ext = warmup + raw,
    and its look-back is ext[i : i + window]. Each pass ORs ext with
    itself shifted by the span covered so far, so ext[i] comes to cover
    ext[i : i + span] with span doubling to the largest power of two
    <= window; the spans at i and at i + window - span then cover the
    look-back.
    """
    if window == 0:
        return raw
    ext = np.concatenate([warmup, raw])
    span = 1
    while 2 * span <= window:
        ext[: len(ext) - span] |= ext[span:]
        span *= 2
    n = len(raw)
    dead = ext[:n] | ext[window - span : window - span + n]
    return raw & ~dead


def run_simulation(
    source: SourceParams,
    det: DetectorParams,
    config: MeasurementConfig,
    n_pulses: int,
    seed: int,
) -> EventStream:
    """Simulate a full run of n_pulses pulses, deterministic in the seeds."""
    return simulate_range(source, det, config, seed, 0, n_pulses)


def simulate_range(
    source: SourceParams,
    det: DetectorParams,
    config: MeasurementConfig,
    seed: int,
    start: int,
    count: int,
) -> EventStream:
    """Events for pulses [start, start+count), byte-identical to the same
    slice of a serial full run.

    The code array, led by the ``window`` pulses before ``start``, is
    allocated up front (RunTooLargeError if it cannot be). WORKERS
    threads, at most 2 * WORKERS panels submitted, write each panel's raw
    codes into its slice. Dead time then runs in place here in
    panel-sized blocks, last to first, so each look-back is still raw.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    period = 1.0 / source.pulse_rate_G
    window = max(0, math.ceil(det.dead_time / period) - 1)
    try:
        raw = np.empty(window + count, dtype=np.uint8)
    except MemoryError:
        raise RunTooLargeError(
            f"{count} pulses do not fit in memory; simulate fewer pulses"
        ) from None
    state = polarization_from_waveplates(source.hwp_angle, source.qwp_angle)
    law_z, law_x = (
        outcome_law(source, det, effective_projection_probs(state, b, config))
        for b in (BASIS_Z, BASIS_X)
    )
    base = start - window  # the pulse at raw[0]
    raw[: max(0, -base)] = 0  # virtual pulses before index 0 never fire

    def draw(panel, lo, hi, t_lo, t_hi):
        codes = _raw_clicks_panel(panel, config, seed, law_z, law_x)
        raw[lo - base : hi - base] = codes[t_lo:t_hi]

    warm_lo = max(0, base)
    pending = collections.deque()
    pool = ThreadPoolExecutor(max_workers=WORKERS)
    try:
        for span in rngstream.panel_range(warm_lo, start + count - warm_lo):
            if len(pending) == 2 * WORKERS:
                pending.popleft().result()
            pending.append(pool.submit(draw, *span))
        for future in pending:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    if window:
        panel = rngstream.PANEL_PULSES
        for lo in reversed(range(window, len(raw), panel)):
            block = raw[lo : lo + panel]
            clicks = _suppress_dead(block & 6, window, raw[lo - window : lo] & 6)
            block &= 1
            block |= clicks
    return EventStream(raw[window:], start=start)


def tally(events: EventStream) -> TallySummary:
    """Count a stream into the estimation summary.

    Check (X) basis: every click counts toward n_x; wrong-detector
    singles are full errors, doubles half errors. Generation (Z) basis:
    doubles and nulls are discarded from n_z. Raises EstimationAbort when
    the check sample is empty.
    """
    # code = basis | outcome << 1, so the eight per-code counts form a
    # table indexed [outcome, basis]
    per_code = [np.count_nonzero(events.codes == c) for c in range(8)]
    table = np.array(per_code).reshape(4, 2)
    x, z = table[:, BASIS_X].tolist(), table[:, BASIS_Z].tolist()
    n_x = sum(x) - x[OUTCOME_NONE]
    x_wrong, x_dbl = x[OUTCOME_D1], x[OUTCOME_DOUBLE]
    n_z = z[OUTCOME_D0] + z[OUTCOME_D1]
    if n_x == 0:
        raise EstimationAbort("no detected check-basis events to estimate from")
    return TallySummary(
        N_total=len(events),
        N_X=sum(x),
        N_Z=sum(z),
        n_x=n_x,
        n_z=n_z,
        x_wrong_singles=x_wrong,
        x_doubles=x_dbl,
        z_doubles_discarded=z[OUTCOME_DOUBLE],
        e_bx=(x_wrong + 0.5 * x_dbl) / n_x,
    )


#: Events that raw_bits_from_events selects from at a time; np.compress's
#: index, of at most one chunk, keeps the selection 5x faster than a mask.
RAW_BITS_CHUNK = 1 << 16


def raw_bits_from_events(events: EventStream) -> PackedBits:
    """Generation-basis bit string: D0 -> 0, D1 -> 1, in pulse order.

    Doubles and nulls never enter the string. The singles are selected
    a chunk of events at a time straight into packed bytes; the bits that
    do not fill a byte are carried on to the next chunk. The buffer, sized
    for one bit per event, is then shrunk in place to the bits selected.
    """
    codes = events.codes
    packed = np.empty(len(codes) // 8 + 1, dtype=np.uint8)
    bits, done = np.empty(0, dtype=np.uint8), 0  # carried bits, bytes done
    for lo in range(0, len(codes), RAW_BITS_CHUNK):
        chunk = codes[lo : lo + RAW_BITS_CHUNK]
        keep = chunk == (BASIS_Z | OUTCOME_D0 << 1)
        keep |= chunk == (BASIS_Z | OUTCOME_D1 << 1)
        bits = np.concatenate([bits, np.compress(keep, chunk) >> 2])  # detector 1
        whole = len(bits) // 8
        packed[done : done + whole] = np.packbits(bits[: 8 * whole])
        bits, done = bits[8 * whole :], done + whole
    packed[done : done + (len(bits) > 0)] = np.packbits(bits)
    packed.resize(done + (len(bits) > 0), refcheck=False)  # no view is left
    return PackedBits(packed, 8 * done + len(bits))
