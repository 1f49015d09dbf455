"""Command-line pipeline tying the modules together.

Subcommands: simulate, tally, estimate, calibrate, extract, optimize,
testsuite, pipeline. Exit codes: 0 success, 1 usage/config error,
2 estimation abort (nothing certifiable: no positive length, or
epsilon_total >= 1), 3 statistical-suite failure, 4 I/O or file-format
error.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

# the only matrix products are 2x2, so an OpenBLAS thread pool would only
# idle and spin on the other CPUs; set before anything imports numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import io_formats, optimizer, protocol_math
from .errors import (
    ConfigError,
    EstimationAbort,
    FormatError,
    SiqrngError,
    SuiteFailure,
)
from .io_formats import PackedBits, RunConfig

if TYPE_CHECKING:
    from .detector_sim import EventStream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ABORT = 2
EXIT_SUITE = 3
EXIT_IO = 4

#: Lambda step of the rate curve that optimize --out and pipeline write.
CURVE_GRID_STEP = 0.5


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="siqrng", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_config(sp):
        sp.add_argument("--config", help="config file (key = value lines)")
        sp.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key",
        )

    sp = sub.add_parser("simulate", help="write an event file")
    add_config(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--text", action="store_true", help="text instead of binary")

    sp = sub.add_parser("tally", help="summarize an event file")
    sp.add_argument("--events", required=True)
    sp.add_argument("--out", help="write summary here instead of stdout")

    sp = sub.add_parser("estimate", help="certified-length estimation")
    add_config(sp)
    sp.add_argument("--tally", help="tally file from the tally subcommand")
    sp.add_argument("--n-z", type=int, help="generation-basis detections")
    sp.add_argument("--e-bx", type=float, help="check-basis error rate")
    sp.add_argument("--n-x", type=int, help="check-basis detections")
    sp.add_argument("--duration", type=float, help="run seconds for the rate")
    sp.add_argument(
        "--solve-theta",
        type=float,
        metavar="EPS",
        help="pick the smallest theta meeting this estimation failure bound",
    )
    sp.add_argument("--out", help="write estimate here instead of stdout")

    sp = sub.add_parser("calibrate", help="overlap bound from count pairs")
    sp.add_argument(
        "--z-counts", nargs=2, type=int, required=True, metavar=("D0", "D1")
    )
    sp.add_argument(
        "--x-counts", nargs=2, type=int, required=True, metavar=("D0", "D1")
    )

    sp = sub.add_parser("extract", help="certified bits from events+estimate")
    sp.add_argument("--events", required=True)
    sp.add_argument("--estimate", required=True)
    sp.add_argument("--seed-file", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("optimize", help="rate curve and best mean photon number")
    add_config(sp)
    sp.add_argument("--out", help="CSV path for the rate curve")
    sp.add_argument("--grid-step", type=float, default=CURVE_GRID_STEP)

    sp = sub.add_parser("testsuite", help="statistical battery on a bit file")
    sp.add_argument("--bits", required=True)
    defaults = RunConfig.defaults()
    sp.add_argument("--alpha", type=float, default=defaults["suite.alpha"])
    sp.add_argument(
        "--max-failures", type=int, default=defaults["suite.max_failures"]
    )
    sp.add_argument("--out", help="CSV path for the report")

    sp = sub.add_parser("pipeline", help="simulate through testsuite")
    add_config(sp)
    sp.add_argument("--outdir", required=True)
    return p


def _load_config(args) -> RunConfig:
    cfg = (
        RunConfig.from_file(args.config)
        if getattr(args, "config", None)
        else RunConfig.defaults()
    )
    for item in getattr(args, "set", []):
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        cfg.set(key.strip(), raw.strip())
    return cfg


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        io_formats.atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _simulate(cfg: RunConfig) -> EventStream:
    from . import detector_sim  # loads numpy; only the array stages need it
    return detector_sim.run_simulation(
        cfg.source_params(),
        cfg.detector_params(),
        cfg.measurement_config(),
        cfg["run.n_pulses"],
        cfg["run.seed"],
    )


def _cmd_simulate(args) -> int:
    stream = _simulate(_load_config(args))
    io_formats.write_events(args.out, stream, binary=not args.text)
    return EXIT_OK


def _cmd_tally(args) -> int:
    from . import detector_sim
    stream = io_formats.read_events(args.events)
    summary = detector_sim.tally(stream)
    _emit(io_formats.tally_to_text(summary), args.out)
    return EXIT_OK


def _tally_from_args(args, cfg: RunConfig) -> protocol_math.TallySummary:
    if args.tally:
        with open(args.tally, encoding="utf-8") as f:
            return io_formats.tally_from_text(f.read())
    if args.n_z is None or args.e_bx is None:
        raise ConfigError("estimate needs --tally or both --n-z and --e-bx")
    n_z = args.n_z
    if args.n_x is not None:
        if args.n_x < 1:
            raise ConfigError(f"--n-x must be at least 1, got {args.n_x}")
        n_x = args.n_x
    else:
        # assume the detected ratio matches the configured basis choice
        q = cfg["measure.prob_x"]
        n_x = max(1, round(n_z * q / (1.0 - q)))
    wrong = round(args.e_bx * n_x)
    n = n_x + n_z
    # synthesize a consistent tally around the stated error rate
    return protocol_math.TallySummary(
        N_total=n,
        N_X=n_x,
        N_Z=n_z,
        n_x=n_x,
        n_z=n_z,
        x_wrong_singles=wrong,
        x_doubles=0,
        z_doubles_discarded=0,
        e_bx=wrong / n_x,
    )


def _estimate_text(
    est: protocol_math.ProtocolEstimate, n_z: int, duration: float
) -> str:
    rates = est.rates
    sec = est.security
    pairs = {
        "r0": repr(rates.R0),
        "r1": repr(rates.R1),
        "r_final": repr(rates.R_final),
        "bits": rates.whole_bits,
        "n_z": n_z,
        "rate_bps": repr(rates.R_final / duration),
        "duration_s": repr(duration),
        "rescale_factor": repr(rates.rescale_factor),
        "coefficient": repr(rates.coefficient),
        "entropy_cost": repr(rates.entropy_cost),
        "theta": repr(sec.theta),
        "t_e": sec.t_e,
        "epsilon_theta": repr(sec.epsilon_theta),
        "epsilon_total": repr(sec.epsilon_total),
        "q_x": repr(est.q_x),
    }
    text = io_formats.dump_keyvals(pairs)
    for w in est.warnings:
        text += f"# warning: {w}\n"
    return text


def _estimate(tally, cfg: RunConfig, theta: float, duration: float, out: str | None):
    """Estimate, write it (warnings also to stderr), then abort if nothing
    is certified: no positive length, or a failure probability of 1."""
    imperfection = protocol_math.MeasurementImperfection(
        cfg["calibration.coefficient"],
        cfg["detector.eta0"],
        cfg["detector.eta1"],
    )
    est = protocol_math.estimate_protocol(
        tally, theta, cfg["security.t_e"], imperfection
    )
    _emit(_estimate_text(est, tally.n_z, duration), out)
    for w in est.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not est.rates.certifiable:
        raise EstimationAbort(f"certified length {est.rates.R_final:.6g} <= 0")
    if est.security.epsilon_total >= 1.0:
        raise EstimationAbort(
            f"epsilon_total {est.security.epsilon_total!r} >= 1 certifies nothing"
        )
    return est


def _cmd_estimate(args) -> int:
    cfg = _load_config(args)
    tally = _tally_from_args(args, cfg)
    theta = cfg["security.theta"]
    if args.solve_theta is not None:
        n, q_x, e_reg = protocol_math.check_sample(tally)
        theta = protocol_math.solve_theta(n, q_x, e_reg, args.solve_theta)
    if args.duration is None:
        duration = cfg.duration
    else:
        duration = io_formats.check_duration(args.duration, "--duration")
    _estimate(tally, cfg, theta, duration, args.out)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    result = protocol_math.overlap_bound_from_calibration(
        args.x_counts[0], args.x_counts[1], z_counts=tuple(args.z_counts)
    )
    sys.stdout.write(
        io_formats.dump_keyvals(
            {
                "overlap_c": repr(result.overlap_c),
                "coefficient": repr(result.coefficient),
                "p_max": repr(result.p_max),
                "z_gate_db": repr(result.z_gate_db),
            }
        )
    )
    return EXIT_OK


def _cmd_extract(args) -> int:
    from . import detector_sim
    with open(args.estimate, encoding="utf-8") as f:
        kv = io_formats.parse_keyvals(f.read())
    try:
        rates = protocol_math.RateBreakdown(
            R0=float(kv["r0"]),
            R1=float(kv["r1"]),
            R_final=float(kv["r_final"]),
            rescale_factor=float(kv["rescale_factor"]),
            entropy_cost=float(kv["entropy_cost"]),
            coefficient=float(kv["coefficient"]),
        )
        epsilon_total = float(kv["epsilon_total"])
        n_z = int(kv["n_z"])
    except KeyError as exc:
        raise FormatError(f"estimate file missing key {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"estimate file has a bad value: {exc}") from exc
    if not 0.0 <= epsilon_total <= 1.0:
        raise FormatError(f"estimate file has epsilon_total {epsilon_total!r}")
    # the hash reads n + m - 1 seed bits, with n = n_z checked in _extract
    seed = io_formats.read_seed_file(args.seed_file, n_z + rates.whole_bits - 1)
    raw = detector_sim.raw_bits_from_events(io_formats.read_events(args.events))
    _extract(raw, n_z, rates, seed, epsilon_total, args.out)
    return EXIT_OK


def _extract(raw, n_z: int, rates, seed: bytes, epsilon_total: float, out: str):
    """Hash the raw bits and write the certified bits file, if they are
    the n_z raw bits that the estimate certified."""
    from .extractor import extract

    if len(raw) != n_z:
        raise FormatError(
            f"the estimate is for n_z={n_z} raw bits, the events hold {len(raw)}"
        )
    result = extract(raw, rates, seed)
    io_formats.write_bits(out, result.bits, epsilon_total)
    return result.bits


def _rate_params(cfg: RunConfig) -> optimizer.RateModelParams:
    model_name = cfg["optimize.e_model"]
    if model_name == "constant":
        model = optimizer.ConstantErrorModel(cfg["optimize.e_bx"])
    elif model_name == "double_click":
        model = optimizer.DoubleClickErrorModel(cfg["optimize.e_d"])
    else:
        raise ConfigError(f"unknown optimize.e_model {model_name!r}")
    return optimizer.RateModelParams(
        rep_rate_G=cfg["source.pulse_rate"],
        coefficient=cfg["calibration.coefficient"],
        theta=cfg["security.theta"],
        t_e=cfg["security.t_e"],
        eta=cfg["detector.eta0"],
        e_bx_model=model,
    )


def _optimize(cfg: RunConfig, grid_step: float, out: str | None):
    """Best mean photon number and its rate; the curve goes to ``out``."""
    if not grid_step > 0:
        raise ConfigError(f"--grid-step must be positive, got {grid_step}")
    params = _rate_params(cfg)
    lo, hi = cfg["optimize.lambda_lo"], cfg["optimize.lambda_hi"]
    lam_star, rate_star = optimizer.optimize_lambda(params, (lo, hi))
    if out:
        grid = [lo + i * grid_step for i in range(int((hi - lo) / grid_step) + 1)]
        rows = optimizer.flatness_report(params, grid)
        io_formats.atomic_write_text(out, optimizer.flatness_csv(rows))
    return lam_star, rate_star


def _cmd_optimize(args) -> int:
    cfg = _load_config(args)
    lam_star, rate_star = _optimize(cfg, args.grid_step, args.out)
    sys.stdout.write(
        io_formats.dump_keyvals(
            {"lambda_star": f"{lam_star:.6g}", "rate_star_bps": f"{rate_star:.6g}"}
        )
    )
    return EXIT_OK


def _check_gate(alpha: float, max_failures: int) -> None:
    """ConfigError unless alpha is in (0, 1) and max_failures >= 0."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"suite alpha must be in (0, 1), got {alpha!r}")
    if max_failures < 0:
        raise ConfigError(f"suite max_failures must be >= 0, got {max_failures}")


def _battery(bits: PackedBits, alpha: float, max_failures: int, out: str | None):
    from . import stat_suite  # loads scipy; only the battery needs it

    reports = stat_suite.run_battery(bits, alpha=alpha)
    csv = stat_suite.battery_csv(reports)
    if out:
        io_formats.atomic_write_text(out, csv)
    else:
        sys.stdout.write(csv)
    failures = sum(not r.passed for r in reports)
    if failures > max_failures:
        raise SuiteFailure(
            f"{failures} of {len(reports)} tests under alpha={alpha}"
        )


def _cmd_testsuite(args) -> int:
    _check_gate(args.alpha, args.max_failures)
    bits, _ = io_formats.read_bits(args.bits)
    _battery(bits, args.alpha, args.max_failures, args.out)
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    from . import detector_sim
    cfg = _load_config(args)
    duration = cfg.duration  # checked before any work
    _check_gate(cfg["suite.alpha"], cfg["suite.max_failures"])
    seed_path = cfg["path.seed"]
    if not seed_path:
        raise ConfigError("pipeline needs path.seed, the hash seed file")
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)

    stream = _simulate(cfg)
    io_formats.write_events(os.path.join(outdir, cfg["path.events"]), stream)

    summary = detector_sim.tally(stream)
    _emit(io_formats.tally_to_text(summary), os.path.join(outdir, "tally.txt"))

    est_path = os.path.join(outdir, "estimate.txt")
    est = _estimate(summary, cfg, cfg["security.theta"], duration, est_path)

    # n_z counts exactly the raw bits that the hash takes in
    need = summary.n_z + est.rates.whole_bits - 1
    seed = io_formats.read_seed_file(seed_path, need)
    bits_path = os.path.join(outdir, cfg["path.output"])
    events = len(stream)
    raw = detector_sim.raw_bits_from_events(stream)
    del stream  # free the events before the hash allocates its spectra
    bits = _extract(
        raw, summary.n_z, est.rates, seed, est.security.epsilon_total, bits_path
    )

    from .stat_suite import BATTERY_MIN_BITS

    battery_path = os.path.join(outdir, "battery.csv")
    if len(bits) < BATTERY_MIN_BITS:
        # the bits stay certified; only the sanity battery cannot run, and
        # a report left by an earlier run would describe other bits
        if os.path.exists(battery_path):
            os.remove(battery_path)
        print(
            f"warning: battery skipped: {len(bits)} certified bits, "
            f"it needs >= {BATTERY_MIN_BITS}",
            file=sys.stderr,
        )
    else:
        _battery(
            bits, cfg["suite.alpha"], cfg["suite.max_failures"], battery_path
        )

    curve_path = os.path.join(outdir, "rate_curve.csv")
    lam_star, rate_star = _optimize(cfg, CURVE_GRID_STEP, curve_path)
    sys.stdout.write(
        io_formats.dump_keyvals(
            {
                "events": events,
                "n_z": summary.n_z,
                "e_bx": f"{summary.e_bx:.6g}",
                "certified_bits": est.rates.whole_bits,
                "epsilon_total": f"{est.security.epsilon_total:.6e}",
                "lambda_star": f"{lam_star:.6g}",
                "rate_star_bps": f"{rate_star:.6g}",
            }
        )
    )
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "tally": _cmd_tally,
    "estimate": _cmd_estimate,
    "calibrate": _cmd_calibrate,
    "extract": _cmd_extract,
    "optimize": _cmd_optimize,
    "testsuite": _cmd_testsuite,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except EstimationAbort as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except SuiteFailure as exc:
        print(f"suite failure: {exc}", file=sys.stderr)
        return EXIT_SUITE
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SiqrngError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
