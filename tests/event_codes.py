"""Per-pulse basis and outcome arrays of an event code array, the codes
of given arrays (each event code is basis | outcome << 1), and the
codes' SQEB v1 file bytes."""
import struct

import numpy as np


def basis(codes: np.ndarray) -> np.ndarray:
    return codes & 1


def outcome(codes: np.ndarray) -> np.ndarray:
    return codes >> 1


def stream(basis, outcome) -> np.ndarray:
    return np.asarray(basis, np.uint8) | np.asarray(outcome, np.uint8) << 1


def sqeb_bytes(codes: np.ndarray) -> bytes:
    """Magic, version byte, little-endian uint64 count, one code per byte."""
    return b"SQEB\x01" + struct.pack("<Q", len(codes)) + codes.tobytes()
