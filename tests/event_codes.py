"""Per-pulse basis and outcome arrays of an event stream, the stream of
given arrays (each event code is basis | outcome << 1), and the stream's
SQEB v1 file bytes."""
import struct

import numpy as np

from siqrng.detector_sim import EventStream


def basis(stream: EventStream) -> np.ndarray:
    return stream.codes & 1


def outcome(stream: EventStream) -> np.ndarray:
    return stream.codes >> 1


def stream(basis, outcome, start: int = 0) -> EventStream:
    codes = np.asarray(basis, np.uint8) | np.asarray(outcome, np.uint8) << 1
    return EventStream(codes, start=start)


def sqeb_bytes(stream: EventStream) -> bytes:
    """Magic, version byte, little-endian uint64 count, one code per byte."""
    return b"SQEB\x01" + struct.pack("<Q", len(stream)) + stream.codes.tobytes()
