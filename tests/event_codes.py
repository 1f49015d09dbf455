"""Per-pulse basis and outcome arrays of an event stream, and the stream
of given arrays: each event code is basis | outcome << 1."""
import numpy as np

from siqrng.detector_sim import EventStream


def basis(stream: EventStream) -> np.ndarray:
    return stream.codes & 1


def outcome(stream: EventStream) -> np.ndarray:
    return stream.codes >> 1


def stream(basis, outcome, start: int = 0) -> EventStream:
    codes = np.asarray(basis, np.uint8) | np.asarray(outcome, np.uint8) << 1
    return EventStream(codes, start=start)
