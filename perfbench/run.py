"""Benchmark of the siqrng CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record PATH]

Run from the root of a source checkout (the directory holding src/siqrng).
Each workload is a closed loop with one client: an iteration starts only
after the previous one has ended, and only if it is expected to end
within S seconds of the first one's start (at least one runs). With
``--trace 0`` every iteration runs the workload's ``python -m siqrng.cli``
invocations as child processes and the end-to-end metrics are printed. With ``--trace 1`` each iteration is
one pair of child processes that call ``siqrng.cli.main`` in process
with the same arguments, one plain and one traced (see tracer.py), and
the per-layer metrics are printed. Every iteration's outputs are checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--record``
also appends the whole run (environment, samples, counts) to PATH as one
JSON line, which compare.py reads.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from workloads import BATTERY_TESTS, WORKLOADS, CheckError, largest_prime_factor, sha256

SETUP_REPEATS = 3
#: a run ends within this many seconds of its start
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "pulses_per_s": "1/s",
    "certified_bits_per_s": "bit/s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "setup_s": "s",
}

PEAK_SPANS = (
    "detector_sim.run_simulation",
    "io_formats.read_events",
    "extractor.extract",
    "stat_suite.run_battery",
)
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "detector_sim.run_simulation_s": "s",
    "detector_sim.mpulse_per_s": "Mpulse/s",
    "detector_sim.tally_s": "s",
    "detector_sim.raw_bits_s": "s",
    "detector_sim.n_z": "count",
    "detector_sim.n_x": "count",
    "io_formats.write_events_s": "s",
    "io_formats.read_events_s": "s",
    "io_formats.events_bytes": "B",
    "io_formats.write_bits_s": "s",
    "io_formats.read_bits_s": "s",
    "protocol_math.estimate_s": "s",
    "optimizer.optimize_s": "s",
    "extractor.extract_s": "s",
    "extractor.mbit_per_s": "Mbit/s",
    "extractor.n": "count",
    "extractor.m": "count",
    "extractor.fft_len": "count",
    "stat_suite.run_battery_s": "s",
    **{f"stat_suite.{t}_s": "s" for t in BATTERY_TESTS},
    "stat_suite.spectral_len": "count",
    "stat_suite.spectral_max_prime": "count",
    **{f"{s}.peak_alloc_mb": "MB" for s in PEAK_SPANS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here."""


# ---------------------------------------------------------------------------
# Child processes


def spawn(cmd: list[str], log_path: str, env: dict, deadline: float) -> dict:
    """Run one child to completion; return its exit code, wall time, CPU
    time and peak RSS (from wait4, so only this child is counted)."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss * 1024 / 1e6,
    }


class Runner:
    def __init__(self, root: str, work: str, deadline: float):
        self.src = os.path.join(root, "src")
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p
        )
        self.here = os.path.dirname(os.path.abspath(__file__))
        self.log = os.path.join(work, "children.log")

    def cli(self, argv_lists: list[list[str]]) -> list[dict]:
        """Run the CLI invocations in order, stopping at a failure."""
        results = []
        for argv in argv_lists:
            cmd = [sys.executable, "-m", "siqrng.cli", *argv]
            results.append(spawn(cmd, self.log, self.env, self.deadline))
            if results[-1]["rc"] != 0:
                break
        return results

    def python(self, *args: str) -> dict:
        return spawn([sys.executable, *args], self.log, self.env, self.deadline)

    def inproc(self, argv_lists, trace: bool, run_id: str) -> dict:
        plan = os.path.join(self.work, f"plan-{run_id}.json")
        result = os.path.join(self.work, f"result-{run_id}.json")
        with open(plan, "w", encoding="utf-8") as f:
            json.dump({"src": self.src, "argv": argv_lists, "trace": trace, "run_id": run_id}, f)
        proc = self.python(os.path.join(self.here, "inproc.py"), plan, result)
        if not os.path.exists(result):
            return {"exit_codes": [proc["rc"]], "spans": [], "wall_s": proc["wall_s"]}
        with open(result, encoding="utf-8") as f:
            out = json.load(f)
        if "error" in out:
            raise BenchError(out["error"])
        return out

    def tail(self, lines: int = 15) -> str:
        with open(self.log, encoding="utf-8", errors="replace") as f:
            return "".join(f.readlines()[-lines:])


# ---------------------------------------------------------------------------
# Environment, statistics


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    thread_vars = ("THREAD", "OMP_", "OPENBLAS", "MKL_", "BLIS", "VECLIB", "NUMEXPR")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "thread_env": {k: v for k, v in os.environ.items() if any(t in k for t in thread_vars)},
        "loadavg": os.getloadavg(),
    }


def tail_text(samples: list[float], unit: str) -> str:
    """Median plus the highest percentile with at least ten samples
    beyond it, with the sample count."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4g} {unit}"
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return f"{text}, p{p:g} {np.percentile(samples, p):.4g} {unit} (n={n})"
    return f"{text} (n={n}; too few samples for a tail percentile)"


class Outcomes:
    """Failures, work counts and output digests over a run's iterations."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.failures: list[str] = []
        self.counts: dict = {}
        self.digests: dict | None = None

    def check(self, wl, d: str, out: str, n: int, exit_codes: list[int], steps: int):
        """Record iteration ``n``'s failure, if any; return its check
        result when the outputs could be checked."""
        if any(exit_codes) or len(exit_codes) != steps:
            self.failures.append(f"iteration {n}: exit codes {exit_codes}\n{self.runner.tail()}")
            return None
        try:
            result = wl.check(d, out, n)
        except (CheckError, OSError, KeyError, ValueError) as exc:
            self.failures.append(f"iteration {n}: output check: {exc}")
            return None
        if self.digests is None:
            self.digests = result["digests"]
        elif result["digests"] != self.digests:
            changed = sorted(k for k, v in result["digests"].items() if v != self.digests.get(k))
            self.failures.append(f"iteration {n}: outputs differ from the first iteration: {changed}")
        self.counts = self.counts or result["counts"]
        return result


# ---------------------------------------------------------------------------
# Set-up and the two kinds of run


def set_up(wl, runner: Runner, d: str) -> list[float]:
    """Write the inputs and run the untimed CLI steps, SETUP_REPEATS
    times; the inputs must come out the same every time."""
    times, digests = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.make_inputs(d)
        steps = wl.prepare(d)
        if steps:
            procs = runner.cli(steps)
        else:  # load the CLI's imports once so the first iteration is not the first load
            procs = [runner.python("-c", "import siqrng.cli")]
        times.append(time.perf_counter() - t0)
        if any(p["rc"] != 0 for p in procs):
            raise BenchError(f"set-up step failed:\n{runner.tail()}")
        now = {n: sha256(os.path.join(d, n)) for n in sorted(os.listdir(d))}
        if digests not in (None, now):
            raise BenchError("set-up wrote different inputs for the same seed")
        digests = now
    return times


def another_fits(start: float, done: int, seconds: float, deadline: float) -> bool:
    """Whether one more iteration, as long as the mean so far, ends
    within ``seconds`` of ``start`` and before the run's deadline."""
    elapsed = time.perf_counter() - start
    next_end = elapsed + elapsed / done
    return next_end <= seconds and time.monotonic() + elapsed / done < deadline


def measure(wl, runner: Runner, d: str, seconds: float) -> tuple[list[dict], Outcomes]:
    iterations, outcomes = [], Outcomes(runner)
    start = time.perf_counter()
    while True:
        n = len(iterations)
        out = os.path.join(runner.work, f"iter{n}")
        os.makedirs(out)
        plan = wl.plan(d, out)
        t0 = time.perf_counter()
        procs = runner.cli(plan)
        it = {
            "wall_s": time.perf_counter() - t0,
            "cpu_s": sum(p["cpu_s"] for p in procs),
            "rss_mb": max(p["rss_mb"] for p in procs),
        }
        result = outcomes.check(wl, d, out, n, [p["rc"] for p in procs], len(plan))
        if result:
            it["certified_bits"] = result["certified_bits"]
        iterations.append(it)
        shutil.rmtree(out)
        if not another_fits(start, len(iterations), seconds, runner.deadline):
            return iterations, outcomes


def end_to_end(wl, its: list[dict], setup_times: list[float]) -> dict:
    wall = statistics.median(i["wall_s"] for i in its)
    bits = [i["certified_bits"] for i in its if "certified_bits" in i]
    return {
        "wall_s": wall,
        "pulses_per_s": wl.pulses / wall,
        "certified_bits_per_s": (statistics.median(bits) if bits else 0) / wall,
        "peak_rss_mb": statistics.median(i["rss_mb"] for i in its),
        "cpu_s": statistics.median(i["cpu_s"] for i in its),
        "setup_s": statistics.median(setup_times),
    }


def measure_traced(wl, runner: Runner, d: str, seconds: float):
    """Pairs of in-process iterations, one plain and one traced, in
    alternating order; the spans come from the traced ones."""
    plain, traced, outcomes = [], [], Outcomes(runner)
    start = time.perf_counter()
    while True:
        pair = len(traced)
        for trace in ((False, True) if pair % 2 == 0 else (True, False)):
            n = len(plain) + len(traced)
            out = os.path.join(runner.work, f"iter{n}")
            os.makedirs(out)
            plan = wl.plan(d, out)
            res = runner.inproc(plan, trace, f"{wl.name}-{wl.seed}-{n}")
            missing = set(wl.spans) - {s["name"] for s in res["spans"]}
            if trace and not any(res["exit_codes"]) and missing:
                raise BenchError(
                    f"traced run recorded no span for {sorted(missing)}; "
                    "a wrapped entry point was renamed or bypassed"
                )
            outcomes.check(wl, d, out, n, res["exit_codes"], len(plan))
            shutil.rmtree(out)
            (traced if trace else plain).append(res)
        if not another_fits(start, pair + 1, seconds, runner.deadline):
            return plain, traced, outcomes


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced iteration; 0 where the workload
    does not reach the layer."""
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def named(name, under=None):
        found = []
        for s in spans:
            if s["name"] != name:
                continue
            p = s["parent"]
            while under and p is not None and by_id[p]["name"] != under:
                p = by_id[p]["parent"]
            if under is None or p is not None:
                found.append(s)
        return found

    def total(*names):
        return sum(dur(s) for n in names for s in named(n))

    def largest(name, key, under=None):
        return max((s[key] for s in named(name, under)), default=0)

    m = {}
    m["cli.self_s"] = sum(
        dur(s) - sum(dur(c) for c in spans if c["parent"] == s["id"]) for s in named("cli.main")
    )
    sim = total("detector_sim.run_simulation")
    m["detector_sim.run_simulation_s"] = sim
    pulses = sum(s["pulses"] for s in named("detector_sim.run_simulation"))
    m["detector_sim.mpulse_per_s"] = pulses / sim / 1e6 if sim else 0.0
    m["detector_sim.tally_s"] = total("detector_sim.tally")
    m["detector_sim.raw_bits_s"] = total("detector_sim.raw_bits_from_events")
    m["detector_sim.n_z"] = largest("detector_sim.tally", "n_z")
    m["detector_sim.n_x"] = largest("detector_sim.tally", "n_x")
    for op in ("write_events", "read_events", "write_bits", "read_bits"):
        m[f"io_formats.{op}_s"] = total(f"io_formats.{op}")
    m["io_formats.events_bytes"] = max(
        largest("io_formats.write_events", "bytes"), largest("io_formats.read_events", "bytes")
    )
    m["protocol_math.estimate_s"] = total("protocol_math.solve_theta", "protocol_math.estimate_protocol")
    m["optimizer.optimize_s"] = total("optimizer.optimize_lambda", "optimizer.flatness_report")
    ext = total("extractor.extract")
    n = largest("extractor.extract", "n")
    m["extractor.extract_s"] = ext
    m["extractor.mbit_per_s"] = n / ext / 1e6 if ext else 0.0
    m["extractor.n"] = n
    m["extractor.m"] = largest("extractor.extract", "m")
    m["extractor.fft_len"] = largest("scipy.fft.rfft", "n", under="extractor.extract")
    m["stat_suite.run_battery_s"] = total("stat_suite.run_battery")
    for t in BATTERY_TESTS:
        m[f"stat_suite.{t}_s"] = total(f"stat_suite.{t}")
    spectral_len = largest("scipy.fft.rfft", "n", under="stat_suite.spectral")
    m["stat_suite.spectral_len"] = spectral_len
    m["stat_suite.spectral_max_prime"] = largest_prime_factor(spectral_len) if spectral_len else 0
    for name in PEAK_SPANS:
        m[f"{name}.peak_alloc_mb"] = largest(name, "peak_alloc_mb")
    return m


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    per_iter = [layer_metrics(r["spans"]) for r in traced if r["spans"]]
    if not per_iter:
        raise BenchError("no traced iteration completed")
    metrics = {k: statistics.median(it[k] for it in per_iter) for k in per_iter[0]}
    metrics["cli.import_s"] = statistics.median(r["import_s"] for r in plain + traced if "import_s" in r)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in plain)
    return {k: metrics[k] for k in PER_LAYER}


# ---------------------------------------------------------------------------


def report(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the whole run as one JSON line to this file")
    args = p.parse_args(argv)
    t_start = time.monotonic()
    # a terminated run still stops its children (see spawn) and cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "siqrng", "cli.py")):
        print(f"error: no src/siqrng/cli.py under {root}; run from a siqrng checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed)
    env = environment()
    print(
        f"env: nproc={env['nproc']} affinity={env['affinity']} cpu={env['cpu']!r} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"thread_env={env['thread_env']} loadavg={env['loadavg']}"
    )
    work = os.path.join(root, "perfbench", ".work", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "env": env}
    try:
        runner = Runner(root, work, t_start + RUN_DEADLINE_S)
        inputs = os.path.join(work, "inputs")
        os.makedirs(inputs)
        setup_times = set_up(wl, runner, inputs)
        if args.trace:
            plain, traced, outcomes = measure_traced(wl, runner, inputs, args.seconds)
            attempted = len(plain) + len(traced)
            metrics, units = per_layer(plain, traced), PER_LAYER
            if metrics["extractor.fft_len"]:
                outcomes.counts["fft_len"] = int(metrics["extractor.fft_len"])
            record["spans"] = [s for r in traced for s in r["spans"]]
            title = (
                f"{wl.name} seed {args.seed}, traced: {len(traced)} traced and "
                f"{len(plain)} plain in-process iterations"
            )
        else:
            its, outcomes = measure(wl, runner, inputs, args.seconds)
            attempted = len(its)
            metrics, units = end_to_end(wl, its, setup_times), END_TO_END
            record["samples"] = its
            title = f"{wl.name} seed {args.seed}: closed loop, 1 client, {attempted} iterations"
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(outcomes.failures)
    for problem in outcomes.failures:
        print(f"FAILED {problem}", file=sys.stderr)
    report(title, metrics, units)
    if not args.trace:
        print(f"  wall_s {tail_text([i['wall_s'] for i in its], 's')}")
        print(f"  cpu_s {tail_text([i['cpu_s'] for i in its], 's')}")
        print(f"  setup_s {tail_text(setup_times, 's')}")
    print(f"  failed_frac {failed}/{attempted}")
    print(f"  counts {json.dumps(outcomes.counts, sort_keys=True)}")
    if args.record:
        record.update(
            setup_s=setup_times, metrics=metrics, counts=outcomes.counts,
            digests=outcomes.digests, attempted=attempted, failed=failed,
        )
        with open(args.record, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
