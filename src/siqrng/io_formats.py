"""Bit-exact file formats and the run configuration.

Event files come in a text and a binary form that round-trip losslessly
for consecutive-index streams. Certified bits are packed MSB-first with
a `.len` sidecar holding the bit count and the failure probability.
Config files are flat `key = value` lines with `#` comments; unknown
keys are rejected.
"""
from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError, FormatError
from .protocol_math import TallySummary

# numpy, detector_sim and source_sim are imported where they are used, so
# the key-value stages (estimate, calibrate, optimize) never load numpy
if TYPE_CHECKING:
    import numpy as np
    from .detector_sim import DetectorParams, EventStream, MeasurementConfig
    from .source_sim import SourceParams

TEXT_MAGIC = "#SIQRNG-EVENTS v1"
BINARY_MAGIC = b"SQEB"
BINARY_VERSION = 1

#: Text pair "basis,outcome" of each event code (detector_sim: code =
#: basis | outcome << 1, with Z/X for the bases and N/A/B/D for none,
#: detector 0, detector 1 and double).
_CODE_TEXT = ("Z,N", "X,N", "Z,A", "X,A", "Z,B", "X,B", "Z,D", "X,D")


def atomic_write_bytes(path: str, *buffers) -> None:
    """Write the buffers in turn via a temp file in the target directory,
    then rename. Each buffer is written as it is, without a joined copy."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-siqrng-")
    try:
        with os.fdopen(fd, "wb") as f:
            for data in buffers:
                f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Event files


def events_to_text(stream: EventStream) -> str:
    lines = [TEXT_MAGIC, "index,basis,outcome"]
    for i, code in enumerate(stream.codes.tolist(), stream.start):
        lines.append(f"{i},{_CODE_TEXT[code]}")
    return "\n".join(lines) + "\n"


def events_from_text(text: str) -> EventStream:
    import numpy as np
    from .detector_sim import EventStream
    lines = text.split("\n")
    if not lines or lines[0] != TEXT_MAGIC:
        raise FormatError("missing event-file magic line")
    pos = 1
    while pos < len(lines) and lines[pos].startswith("#"):
        pos += 1
    if pos >= len(lines) or lines[pos] != "index,basis,outcome":
        raise FormatError("missing event-file column header")
    pos += 1
    records = [ln for ln in lines[pos:] if ln]
    codes = np.empty(len(records), dtype=np.uint8)
    start = 0
    prev = -1
    for i, ln in enumerate(records):
        index, _, pair = ln.partition(",")
        try:
            idx = int(index)
            codes[i] = _CODE_TEXT.index(pair)
        except ValueError as exc:
            raise FormatError(f"bad event record: {ln!r}") from exc
        if i == 0:
            start = idx
        elif idx != prev + 1:
            raise FormatError(f"event indices not consecutive at {idx}")
        prev = idx
    return EventStream(codes, start=start)


def _binary_header(stream: EventStream) -> bytes:
    """The 13 bytes before the binary form's body, the code array."""
    if stream.start != 0:
        raise FormatError("binary form stores streams starting at index 0")
    return BINARY_MAGIC + bytes([BINARY_VERSION]) + struct.pack("<Q", len(stream))


def events_from_binary(data: bytes) -> EventStream:
    """The stream whose codes are a read-only view of ``data``'s body."""
    import numpy as np
    from .detector_sim import EventStream
    if len(data) < 13 or data[:4] != BINARY_MAGIC:
        raise FormatError("missing binary event-file magic")
    if data[4] != BINARY_VERSION:
        raise FormatError(f"unsupported event-file version {data[4]}")
    (count,) = struct.unpack("<Q", data[5:13])
    if len(data) != 13 + count:
        raise FormatError(
            f"event-file length {len(data)} does not match count {count}"
        )
    codes = np.frombuffer(data, dtype=np.uint8, offset=13)
    if codes.max(initial=0) > 7:
        raise FormatError("event byte has reserved bits set")
    return EventStream(codes, start=0)


def write_events(path: str, stream: EventStream, binary: bool = True) -> None:
    if binary:
        atomic_write_bytes(path, _binary_header(stream), stream.codes)
    else:
        atomic_write_text(path, events_to_text(stream))


def read_events(path: str) -> EventStream:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] == BINARY_MAGIC:
        return events_from_binary(data)
    try:
        return events_from_text(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError("event file is neither binary nor UTF-8 text") from exc


# ---------------------------------------------------------------------------
# Certified bits files


@dataclass(frozen=True, eq=False)
class PackedBits:
    """``count`` bits packed most significant bit first into ``data``, a
    uint8 array of (count + 7) // 8 bytes whose bits past ``count`` are
    zero: the layout of raw, hash-seed and certified bits, from the
    events through the hash to the battery."""

    data: np.ndarray
    count: int

    def __len__(self) -> int:
        return self.count

    @classmethod
    def prefix(cls, data, count: int) -> PackedBits:
        """The first ``count`` bits of ``data`` (bytes or a uint8 array),
        most significant bit first, in a copy of its first (count + 7) // 8
        bytes with the bits past ``count`` cleared. Shorter data is an
        error; bits are never stretched."""
        import numpy as np
        need = (count + 7) // 8
        if len(data) < need:
            raise FormatError(
                f"{len(data)} bytes given, {need} required for {count} bits"
            )
        packed = np.frombuffer(data, dtype=np.uint8, count=need).copy()
        packed[need - 1 :] &= 0xFF << -count % 8 & 0xFF
        return cls(packed, count)


def write_bits(path: str, bits: PackedBits, epsilon_total: float) -> None:
    """Certified bits as they are packed; `.len` sidecar with the decimal
    bit count and the failure probability."""
    atomic_write_bytes(path, bits.data)
    atomic_write_text(path + ".len", f"{len(bits)}\n{epsilon_total:.6e}\n")


def read_bits(path: str) -> tuple[PackedBits, float | None]:
    """Bits of a certified file; the sidecar, when present, fixes the
    exact bit count and supplies epsilon. Set bits past the count in the
    last byte are cleared, as PackedBits requires."""
    with open(path, "rb") as f:
        data = f.read()
    sidecar = path + ".len"
    epsilon = None
    count = len(data) * 8
    if os.path.exists(sidecar):
        with open(sidecar, encoding="utf-8") as f:
            lines = f.read().splitlines()
        try:
            count = int(lines[0])
            if len(lines) > 1 and lines[1]:
                epsilon = float(lines[1])
        except (IndexError, ValueError) as exc:
            raise FormatError(f"bad sidecar {sidecar}") from exc
        if count < 0:
            raise FormatError(f"negative sidecar bit count {count}")
        if (count + 7) // 8 != len(data):
            raise FormatError(
                f"sidecar bit count {count} does not match {len(data)} bytes"
            )
    return PackedBits.prefix(data, count), epsilon


def read_seed_file(path: str, nbits: int) -> bytes:
    """The bytes that hold a seed file's first ``nbits`` bits, or fewer."""
    with open(path, "rb") as f:
        return f.read(max(0, nbits + 7) // 8)


# ---------------------------------------------------------------------------
# Key-value artifacts (tally, estimate)


def dump_keyvals(pairs: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in pairs.items())


def parse_keyvals(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise FormatError(f"bad key-value line: {ln!r}")
        k, v = ln.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def tally_to_text(t: TallySummary) -> str:
    return dump_keyvals(
        {
            "n_total": t.N_total,
            "n_x_assigned": t.N_X,
            "n_z_assigned": t.N_Z,
            "n_x": t.n_x,
            "n_z": t.n_z,
            "x_wrong_singles": t.x_wrong_singles,
            "x_doubles": t.x_doubles,
            "z_doubles_discarded": t.z_doubles_discarded,
            "e_bx": repr(t.e_bx),
        }
    )


def tally_from_text(text: str) -> TallySummary:
    kv = parse_keyvals(text)
    try:
        return TallySummary(
            N_total=int(kv["n_total"]),
            N_X=int(kv["n_x_assigned"]),
            N_Z=int(kv["n_z_assigned"]),
            n_x=int(kv["n_x"]),
            n_z=int(kv["n_z"]),
            x_wrong_singles=int(kv["x_wrong_singles"]),
            x_doubles=int(kv["x_doubles"]),
            z_doubles_discarded=int(kv["z_doubles_discarded"]),
            e_bx=float(kv["e_bx"]),
        )
    except KeyError as exc:
        raise FormatError(f"tally file missing key {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"tally file has a bad value: {exc}") from exc


# ---------------------------------------------------------------------------
# Run configuration

_PHASE_QUARTER = math.pi / 4.0


def _default_config() -> dict:
    return {
        "source.kind": "laser",
        "source.lambda": 14.4,
        "source.pulse_rate": 4.0e6,
        "source.hwp_deg": 22.5,
        "source.qwp_deg": 0.0,
        "source.fluctuation": None,  # resolved from source.kind
        "detector.eta0": 0.1,
        "detector.eta1": 0.1,
        "detector.dark_rate": 200.0,
        "detector.dead_time": 50e-9,
        "detector.gate_width": 100e-9,
        "measure.prob_x": 0.004,
        "measure.phase_z_c": 0.0,
        "measure.phase_z_a": 0.0,
        "measure.phase_x_c": -_PHASE_QUARTER,
        "measure.phase_x_a": _PHASE_QUARTER,
        "security.theta": 0.001,
        "security.t_e": 100,
        "calibration.coefficient": 0.952,
        "optimize.lambda_lo": 1.0,
        "optimize.lambda_hi": 40.0,
        "optimize.e_model": "constant",
        "optimize.e_bx": 0.0033,
        "optimize.e_d": 0.005,
        "suite.alpha": 0.01,
        "suite.max_failures": 1,
        "run.n_pulses": 10_000_000,
        "run.seed": 1,
        "run.duration": None,  # None -> n_pulses / pulse_rate
        "path.events": "events.sqeb",
        "path.seed": "",
        "path.output": "certified.bits",
    }


@dataclass
class RunConfig:
    """Flat dotted-key configuration; defaults are the bundled laser
    operating point."""

    values: dict

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls(values=_default_config())

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        cfg = cls.defaults()
        for ln in text.splitlines():
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            if "=" not in ln:
                raise ConfigError(f"bad config line: {ln!r}")
            key, raw = (s.strip() for s in ln.split("=", 1))
            cfg.set(key, raw)
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as f:
                return cls.from_text(f.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def set(self, key: str, raw: str) -> None:
        defaults = _default_config()
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        typ = float if defaults[key] is None else type(defaults[key])
        try:
            value = typ(raw)
        except ValueError as exc:
            raise ConfigError(
                f"bad value for {key!r}: {raw!r} ({typ.__name__})"
            ) from exc
        if typ is float and not math.isfinite(value):
            raise ConfigError(f"{key!r} must be a finite number, got {raw!r}")
        self.values[key] = value

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def fluctuation(self) -> float:
        from .source_sim import SUNLIGHT_FLUCTUATION
        v = self.values["source.fluctuation"]
        if v is None:
            return (
                SUNLIGHT_FLUCTUATION
                if self.values["source.kind"] == "sunlight"
                else 0.0
            )
        return float(v)

    @property
    def duration(self) -> float:
        """Run seconds for the rate: run.duration, else n_pulses / pulse_rate."""
        v = self.values["run.duration"]
        if v is not None:
            return check_duration(v, "run.duration")
        rate = self.values["source.pulse_rate"]
        derived = self.values["run.n_pulses"] / rate if rate > 0 else math.nan
        return check_duration(derived, "run.n_pulses / source.pulse_rate")

    def source_params(self) -> SourceParams:
        from .source_sim import SourceParams
        return SourceParams(
            mean_photons_lambda=self.values["source.lambda"],
            pulse_rate_G=self.values["source.pulse_rate"],
            hwp_angle=self.values["source.hwp_deg"],
            qwp_angle=self.values["source.qwp_deg"],
            intensity_fluctuation_rel_std=self.fluctuation,
            source_kind=self.values["source.kind"],
        )

    def detector_params(self) -> DetectorParams:
        from .detector_sim import DetectorParams
        return DetectorParams(
            eta0=self.values["detector.eta0"],
            eta1=self.values["detector.eta1"],
            dark_rate=self.values["detector.dark_rate"],
            dead_time=self.values["detector.dead_time"],
            gate_width=self.values["detector.gate_width"],
        )

    def measurement_config(self) -> MeasurementConfig:
        from .detector_sim import MeasurementConfig
        return MeasurementConfig(
            prob_X=self.values["measure.prob_x"],
            phase_Z=(
                self.values["measure.phase_z_c"],
                self.values["measure.phase_z_a"],
            ),
            phase_X=(
                self.values["measure.phase_x_c"],
                self.values["measure.phase_x_a"],
            ),
            basis_seed=self.values["run.seed"],
        )


def check_duration(seconds: float, name: str) -> float:
    """``seconds`` if it is finite and positive; ConfigError otherwise."""
    if not (math.isfinite(seconds) and seconds > 0):
        raise ConfigError(
            f"{name} must be a positive number of seconds, got {seconds!r}"
        )
    return float(seconds)

