"""Measurement-side simulation: one uniform per pulse decides its basis
and its raw clicks under source_sim's four-outcome detection law; then
dead time, event tallying and the generation-basis raw bits.

The run seed keys one jump-ahead stream whose i-th uniform is pulse i's,
so any pulse range can be drawn on its own and a run produced serially
or in arbitrary index chunks is byte-identical. Dead time is keyed to
each detector's last raw avalanche attempt, which a chunk takes from the
chunks before it. Chunks are drawn on a small thread pool, each into its
own slice of the code array, so the events do not depend on the worker
count.
"""
from __future__ import annotations

import collections
import math

import numpy as np

from . import CPUS
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

#: Domain tag of the stream of per-pulse uniforms, keeping it apart from
#: any other stream of the seed. The value keys the stream, so it stays.
DOMAIN_DETECTION = 1

#: Pulses a worker of simulate_range draws at a time.
CHUNK = 1 << 16

#: Threads drawing chunks in simulate_range. Each chunk draws its own
#: pulses' uniforms, and numpy's fills and ufuncs release the GIL, so the
#: draws overlap and their values do not depend on this.
WORKERS = min(4, CPUS)


def _uniforms(entropy: int, domain: int, start: int, count: int) -> np.ndarray:
    """Uniforms of pulses [start, start+count) in the ``domain`` stream of
    ``entropy``: a PCG64DXSM stream whose i-th double is pulse i's, so it
    jumps ahead to ``start`` (one 64-bit step a double) and draws ``count``.
    """
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=(domain,))
    return np.random.Generator(np.random.PCG64DXSM(ss).advance(start)).random(count)


def _outcomes(u: np.ndarray, law: tuple[float, float, float], out: np.ndarray):
    """Write the outcome codes 0-3 of uniforms ``u`` under a cumulative
    law into the uint8 array ``out``."""
    t1, t2, t3 = law
    np.greater_equal(u, t1, out=out.view(bool))
    out += u >= t2
    out += u >= t3
    return out


def _raw_clicks(
    start: int, out: np.ndarray, prob_X: float, seed: int, law_z: tuple, law_x: tuple
) -> None:
    """Write the event codes of the raw (pre-dead-time) clicks of pulses
    [start, start + len(out)) into ``out``.

    Pulse i's one uniform u picks the X basis when u < prob_X and its
    (click0, click1) pair against the cumulative laws ``law_x`` and
    ``law_z``, each its basis's outcome_law moved into the basis's
    sub-interval of [0, 1): exact in distribution without drawing a
    photon number or lambda_eff.
    """
    u = _uniforms(seed, DOMAIN_DETECTION, start, len(out))
    _outcomes(u, law_z, out)  # X pulses lie below every Z threshold: 0
    out += out  # the shift by one, 10x faster than <<= on uint8
    x = np.flatnonzero(u < prob_X)
    out[x] = 2 * _outcomes(u[x], law_x, np.empty(len(x), np.uint8)) + BASIS_X


def _suppress_dead(codes: np.ndarray, lo: int, window: int, last: list) -> list:
    """Clear in place the clicks of raw codes of pulses lo, lo + 1, ...
    that come within ``window`` >= 1 pulses after a raw attempt of their
    detector, and return each detector's last attempt through them.

    ``last`` holds each detector's last attempt before lo (lo - window - 1
    or less for none in the window), which leaves a prefix of the block
    dead. Within the block (w = min(window, n)), each pass ORs the click
    bits with themselves shifted by the span covered so far, so cover[i]
    covers (i - span, i] with span doubling to the largest power of two
    <= w; cover[i - 1] and cover[i - 1 - (w - span)] cover the look-back."""
    n, w = len(codes), min(window, len(codes))
    clicks = codes & 6
    cover, span = clicks.copy(), 1
    while 2 * span <= w:
        cover[span:] |= cover[:-span]
        span *= 2
    dead = np.zeros(n, dtype=np.uint8)
    dead[1:] = cover[:-1]
    dead[1 + w - span :] |= cover[: n - 1 - (w - span)]
    through, backward = [], clicks[::-1].copy()  # argmax is 8x faster on a copy
    for bit, before in zip((2, 4), last):  # detector 0's click bit, 1's
        dead[: max(0, before + window + 1 - lo)] |= bit
        at = n - 1 - int(np.argmax(backward & bit))
        through.append(lo + at if clicks[at] & bit else before)
    codes ^= clicks & dead
    return through


def run_simulation(
    source: SourceParams,
    det: DetectorParams,
    config: MeasurementConfig,
    n_pulses: int,
    seed: int,
) -> np.ndarray:
    """Event codes of a full run of n_pulses pulses, pulse i at index i,
    deterministic in the seeds."""
    return simulate_range(source, det, config, seed, 0, n_pulses)


def simulate_range(
    source: SourceParams,
    det: DetectorParams,
    config: MeasurementConfig,
    seed: int,
    start: int,
    count: int,
) -> np.ndarray:
    """Event codes of pulses [start, start+count), byte-identical to the
    same slice of a serial full run.

    The code array is allocated up front (RunTooLargeError if it cannot
    be). WORKERS threads, at most 2 * WORKERS chunks of CHUNK pulses
    submitted, each write a chunk's raw codes into its slice; under dead
    time this thread clears the chunks' suppressed clicks in order,
    carrying each detector's last raw attempt (linear time and memory).
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    period = 1.0 / source.pulse_rate_G
    window = max(0, math.ceil(det.dead_time / period) - 1)
    try:
        codes = np.empty(count, dtype=np.uint8)
    except MemoryError:
        raise RunTooLargeError(
            f"{count} pulses do not fit in memory; simulate fewer pulses"
        ) from None
    state = polarization_from_waveplates(source.hwp_angle, source.qwp_angle)
    law_z, law_x = (
        outcome_law(source, det, effective_projection_probs(state, b, config))
        for b in (BASIS_Z, BASIS_X)
    )
    p = config.prob_X
    law_z = tuple(p + t * (1.0 - p) for t in law_z)
    law_x = tuple(t * p for t in law_x)

    # each detector's last raw attempt before the range, searched back a
    # chunk at a time and at most the window (pulses before 0 never fire)
    none = -window - 1
    last, hi, floor = [none, none], start, max(0, start - window)
    while window and hi > floor and none in last:
        lo = max(floor, hi - CHUNK)
        back = np.empty(hi - lo, dtype=np.uint8)
        _raw_clicks(lo, back, p, seed, law_z, law_x)
        found = _suppress_dead(back, lo, window, [none, none])
        last, hi = list(map(max, last, found)), lo

    from concurrent.futures import ThreadPoolExecutor  # only where a pool runs

    def settle(lo, out, future, before):
        future.result()
        return _suppress_dead(out, lo, window, before) if window else before

    pending = collections.deque()
    pool = ThreadPoolExecutor(max_workers=WORKERS)
    try:
        for lo in range(start, start + count, CHUNK):
            if len(pending) == 2 * WORKERS:
                last = settle(*pending.popleft(), last)
            out = codes[lo - start : lo - start + CHUNK]
            raw = pool.submit(_raw_clicks, lo, out, p, seed, law_z, law_x)
            pending.append((lo, out, raw))
        while pending:
            last = settle(*pending.popleft(), last)
    finally:
        pool.shutdown(cancel_futures=True)
    return codes


def tally(events: np.ndarray) -> TallySummary:
    """Count the event codes into the estimation summary.

    Check (X) basis: every click counts toward n_x; wrong-detector
    singles are full errors, doubles half errors. Generation (Z) basis:
    doubles and nulls are discarded from n_z. Raises EstimationAbort when
    the check sample is empty.
    """
    # code = basis | outcome << 1, so the eight per-code counts form a
    # table indexed [outcome, basis]
    per_code = [np.count_nonzero(events == c) for c in range(8)]
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


def raw_bits_from_events(codes: np.ndarray) -> PackedBits:
    """Generation-basis bit string: D0 -> 0, D1 -> 1, in pulse order.

    Doubles and nulls never enter the string. The singles are selected
    a chunk of events at a time straight into packed bytes; the bits that
    do not fill a byte are carried on to the next chunk. The buffer, sized
    for one bit per event, is then shrunk in place to the bits selected.
    """
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
