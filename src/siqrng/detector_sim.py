"""Measurement-side simulation: basis choice, the phase-modulated
interferometer transformation, threshold detection with efficiency,
dark counts and dead time, and event tallying.

The simulation is organized in fixed pulse panels (see rngstream), so a
run can be produced serially or in arbitrary index chunks with
byte-identical results. Dead-time suppression is keyed to raw avalanche
attempts within a bounded look-back window, which keeps chunk
recomputation exact. Panels are drawn on a small thread pool and
consumed in order, so the events do not depend on the worker count.
"""
from __future__ import annotations

import collections
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rngstream
from .errors import EstimationAbort, RunTooLargeError
from .protocol_math import TallySummary
from .source_sim import (
    PolarizationState,
    SourceParams,
    polarization_from_waveplates,
)

BASIS_Z = 0
BASIS_X = 1

#: Outcome codes are the click bits: detector 0 is bit 0, detector 1 bit 1.
#: A pulse's event code is ``basis | outcome << 1``, the SQEB v1 body byte.
OUTCOME_NONE = 0
OUTCOME_D0 = 1
OUTCOME_D1 = 2
OUTCOME_DOUBLE = 3

#: CPUs this process may use.
CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

#: Threads drawing panels in simulate_range. Each panel's generators are
#: keyed by (seed, domain, panel), and numpy's fills and ufuncs release
#: the GIL, so the draws overlap and their values do not depend on this.
WORKERS = min(4, CPUS)


@dataclass(frozen=True)
class MeasurementConfig:
    """Per-pulse basis selection and the interferometer phase settings."""

    prob_X: float = 0.004
    phase_Z: tuple[float, float] = (0.0, 0.0)
    phase_X: tuple[float, float] = (-math.pi / 4.0, math.pi / 4.0)
    basis_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.prob_X <= 1.0:
            raise ValueError(f"prob_X must be in [0, 1], got {self.prob_X}")


@dataclass(frozen=True)
class DetectorParams:
    """Threshold-detector pair parameters."""

    eta0: float = 0.1
    eta1: float = 0.1
    dark_rate: float = 200.0
    dead_time: float = 50e-9
    gate_width: float = 100e-9

    def __post_init__(self):
        if not 0.0 <= self.eta0 <= 1.0 or not 0.0 <= self.eta1 <= 1.0:
            raise ValueError("efficiencies must be in [0, 1]")
        if self.dark_rate < 0:
            raise ValueError("dark rate must be >= 0")
        if self.dead_time < 0:
            raise ValueError("dead time must be >= 0")
        if self.gate_width <= 0:
            raise ValueError("gate width must be positive")

    @property
    def dark_click_prob(self) -> float:
        """Per-detector dark-click probability inside one gate window."""
        return -math.expm1(-self.dark_rate * self.gate_width)


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


def effective_projection_probs(
    state: PolarizationState, basis: int, config: MeasurementConfig
) -> tuple[float, float]:
    """Detector-hit probabilities (p0, p1) for a state under one basis
    setting.

    Applies the phase unitary of the chosen setting followed by the fixed
    polarization-controller unitary, then projects on the output
    polarizing splitter. p0 + p1 = 1 within 1e-12 for unit input.
    """
    vec = state.as_array()
    norm = float(np.vdot(vec, vec).real)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm^2 = {norm}, expected 1")
    phases = config.phase_X if basis == BASIS_X else config.phase_Z
    out = measurement_unitary(*phases) @ vec
    p0 = float(abs(out[0]) ** 2)
    p1 = float(abs(out[1]) ** 2)
    total = p0 + p1
    return p0 / total, p1 / total


def phase_unitary(phi_c: float, phi_a: float) -> np.ndarray:
    """Loop unitary: independent phases on the two polarization arms."""
    return np.array(
        [[np.exp(1j * phi_c), 0.0], [0.0, np.exp(1j * phi_a)]], dtype=complex
    )


#: Fixed polarization-controller unitary following the loop.
CONTROLLER_UNITARY = 0.5 * np.array(
    [[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex
)


def measurement_unitary(phi_c: float, phi_a: float) -> np.ndarray:
    return CONTROLLER_UNITARY @ phase_unitary(phi_c, phi_a)


def outcome_law(
    source: SourceParams, det: DetectorParams, probs: tuple[float, float]
) -> tuple[float, float, float]:
    """Cumulative law (t1, t2, t3) = (P00, P00 + P10, P00 + P10 + P01) of
    a pulse's raw clicks, P10 meaning detector 0 alone, for the detector-hit
    probabilities ``probs`` of one basis.

    Given a pulse's mean lambda_eff, arm i receives Poisson(lambda_eff *
    p_i) photons independently of the other arm, and efficiency thins
    that to Poisson(lambda_eff * a_i), a_i = p_i * eta_i. So arm i stays
    dark with probability keep * exp(-a_i lambda_eff), keep = 1 - d, and
    averaging over lambda_eff with M(t) = E exp(-t lambda_eff) gives
    P00 = keep^2 M(a0 + a1) and P(arm i dark) = keep M(a_i).
    """
    keep = 1.0 - det.dark_click_prob
    a0, a1 = probs[0] * det.eta0, probs[1] * det.eta1
    p00 = keep * keep * source.laplace(a0 + a1)
    t2 = keep * source.laplace(a1)  # detector 1 dark
    return p00, t2, t2 + keep * source.laplace(a0) - p00


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw (pre-dead-time) click indicators and bases for one panel.

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
    return basis, (outcome & 1).view(bool), (outcome >> 1).view(bool)


def _suppress_dead(raw: np.ndarray, window: int, warmup: np.ndarray) -> np.ndarray:
    """Clicks surviving dead time: live unless a raw attempt occurred in
    the previous ``window`` pulses. ``warmup`` supplies exactly the
    ``window`` raw indicators preceding the block.

    Pulse i of the block sits at ext[i + window] of ext = warmup + raw,
    and its look-back is ext[i : i + window]. Each pass ORs ext with
    itself shifted by the span covered so far, so ext[i] comes to cover
    ext[i : i + span] with span doubling to the largest power of two
    <= window; the spans at i and at i + window - span then cover the
    look-back.
    """
    if window == 0:
        return raw
    if len(warmup) != window:
        raise ValueError("warmup must supply exactly `window` pulses")
    ext = np.concatenate([warmup, raw])
    span = 1
    while 2 * span <= window:
        ext[: len(ext) - span] |= ext[span:]
        span *= 2
    n = len(raw)
    dead = ext[:n] | ext[window - span : window - span + n]
    return raw & ~dead


def _in_order(pool, draw, spans):
    """Yield (span, draw(span's panel)) in span order, keeping at most
    2 * WORKERS draws submitted ahead of the consumer."""
    pending = collections.deque()
    for span in spans:
        pending.append((span, pool.submit(draw, span[0])))
        if len(pending) == 2 * WORKERS:
            done, future = pending.popleft()
            yield done, future.result()
    while pending:
        done, future = pending.popleft()
        yield done, future.result()


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

    The code array is allocated up front and filled panel by panel;
    a count too large to allocate raises RunTooLargeError before any
    simulation work. Dead-time state is warmed up by recomputing the raw
    attempts of the ``window`` pulses before ``start``. The panels' raw
    clicks are drawn on WORKERS threads; dead time and the writes run
    here, in panel order.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
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
    period = 1.0 / source.pulse_rate_G
    window = max(0, math.ceil(det.dead_time / period) - 1)

    def draw(panel):
        return _raw_clicks_panel(panel, config, seed, law_z, law_x)

    # raw attempts of the `window` pulses before the current panel slice;
    # virtual pulses before index 0 never fire
    warm0 = warm1 = np.zeros(window, bool)
    warm_lo = max(0, start - window)
    spans = rngstream.panel_range(warm_lo, start + count - warm_lo)
    pool = ThreadPoolExecutor(max_workers=WORKERS)
    try:
        for (_, lo, hi, t_lo, t_hi), (b, raw0, raw1) in _in_order(
            pool, draw, spans
        ):
            raw0, raw1 = raw0[t_lo:t_hi], raw1[t_lo:t_hi]
            click0 = _suppress_dead(raw0, window, warm0)
            click1 = _suppress_dead(raw1, window, warm1)
            if window:
                warm0 = np.concatenate([warm0, raw0])[-window:]
                warm1 = np.concatenate([warm1, raw1])[-window:]
            skip = max(0, start - lo)  # warm-up pulses at the front
            if skip >= hi - lo:
                continue
            out = codes[lo + skip - start : hi - start]
            np.left_shift(click1[skip:].view(np.uint8), 2, out=out)
            out |= click0[skip:].view(np.uint8) << 1
            out |= b[t_lo + skip : t_hi]
    finally:
        pool.shutdown(cancel_futures=True)
    return EventStream(codes, start=start)


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


def raw_bits_from_events(events: EventStream) -> np.ndarray:
    """Generation-basis bit string: D0 -> 0, D1 -> 1, in pulse order.

    Doubles and nulls never enter the string.
    """
    codes = events.codes
    keep = codes == (BASIS_Z | OUTCOME_D0 << 1)
    keep |= codes == (BASIS_Z | OUTCOME_D1 << 1)
    bits = np.compress(keep, codes)
    bits >>= 2  # the detector-1 click bit: D0 -> 0, D1 -> 1
    return bits
