"""File formats round-trip bit-exactly; the CLI drives the full chain
with the documented exit codes."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import siqrng
from siqrng import detector_sim as ds
from siqrng import io_formats as io
from siqrng import source_sim as ss
from siqrng.cli import main
from siqrng.errors import ConfigError, FormatError
from siqrng.protocol_math import TallySummary

import event_codes as ec
from toeplitz_oracle import pack, unpack

RNG = np.random.default_rng(77)


def random_stream(n=500):
    return ds.EventStream(RNG.integers(0, 8, n).astype(np.uint8))


# ---------------------------------------------------------------------------
# event file formats


def test_text_round_trip():
    stream = random_stream()
    text = io.events_to_text(stream)
    assert text.startswith("#SIQRNG-EVENTS v1\n")
    assert not any(ln != ln.rstrip() for ln in text.split("\n"))
    back = io.events_from_text(text)
    assert back == stream
    assert io.events_to_text(back) == text
    pairs = ec.stream(
        [ss.BASIS_Z, ss.BASIS_X, ss.BASIS_X, ss.BASIS_Z],
        [ds.OUTCOME_D0, ds.OUTCOME_D1, ds.OUTCOME_DOUBLE, ds.OUTCOME_NONE],
        start=7,
    )
    assert io.events_to_text(pairs).split("\n")[2:] == [
        "7,Z,A", "8,X,B", "9,X,D", "10,Z,N", ""
    ]


def test_binary_round_trip(tmp_path):
    stream = random_stream()
    path = tmp_path / "events.sqeb"
    io.write_events(str(path), stream)
    blob = path.read_bytes()
    assert blob[:4] == b"SQEB" and blob[4] == 1
    assert blob == ec.sqeb_bytes(stream)
    assert io.events_from_binary(blob) == stream


def test_cross_form_round_trip():
    stream = random_stream()
    blob = ec.sqeb_bytes(stream)
    text = io.events_to_text(io.events_from_binary(blob))
    assert ec.sqeb_bytes(io.events_from_text(text)) == blob


def test_text_metadata_lines_parse():
    stream = random_stream(5)
    magic, rest = io.events_to_text(stream).split("\n", 1)
    text = f"{magic}\n#seed=7\n#kind=laser\n{rest}"
    assert io.events_from_text(text) == stream


def test_text_rejects_gaps_and_garbage():
    good = io.events_to_text(random_stream(5))
    lines = good.split("\n")
    broken = "\n".join([lines[0], lines[1], lines[2], lines[4], lines[5], ""])
    with pytest.raises(FormatError):
        io.events_from_text(broken)
    with pytest.raises(FormatError):
        io.events_from_text("nope\n")
    with pytest.raises(FormatError):
        io.events_from_text(good.replace(",A", ",Q", 1))


def test_binary_rejects_corruption():
    blob = ec.sqeb_bytes(random_stream(16))
    with pytest.raises(FormatError):
        io.events_from_binary(blob[:10])
    with pytest.raises(FormatError):
        io.events_from_binary(blob + b"\x00")
    with pytest.raises(FormatError):
        io.events_from_binary(blob[:13] + bytes([0xF0]) + blob[14:])


def test_event_file_io(tmp_path):
    stream = random_stream()
    for binary in (True, False):
        path = str(tmp_path / ("e.bin" if binary else "e.txt"))
        io.write_events(path, stream, binary=binary)
        assert io.read_events(path) == stream


def test_read_and_tally_memory(tmp_path):
    # the file body is the in-memory stream, and tally needs one boolean
    # temporary at a time: about 2 bytes per event at the peak
    n = 2_000_000
    path = str(tmp_path / "events.sqeb")
    io.write_events(path, random_stream(n))
    tracemalloc.start()
    try:
        ds.tally(io.read_events(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n


def test_write_events_memory(tmp_path):
    # the header and the code array are written in turn, not joined
    n = 2_000_000
    stream = random_stream(n)
    path = str(tmp_path / "events.sqeb")
    tracemalloc.start()
    try:
        io.write_events(path, stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * n
    with open(path, "rb") as f:
        assert f.read() == ec.sqeb_bytes(stream)


# ---------------------------------------------------------------------------
# bits files


def test_bits_file_round_trip(tmp_path):
    bits = RNG.integers(0, 2, 1003).astype(np.uint8)
    path = str(tmp_path / "out.bits")
    io.write_bits(path, pack(bits), 1.25e-15)
    back, eps = io.read_bits(path)
    assert np.array_equal(unpack(back), bits)
    assert eps == pytest.approx(1.25e-15)
    with open(path + ".len") as f:
        assert f.read() == "1003\n1.250000e-15\n"
    assert os.path.getsize(path) == (1003 + 7) // 8


def test_bits_sidecar_validation(tmp_path):
    path = str(tmp_path / "out.bits")
    io.write_bits(path, pack(np.ones(16, dtype=np.uint8)), 0.5)
    # a count that needs more or fewer bytes than the file holds is stale
    for count in ("9999", "-8", "8"):
        io.atomic_write_text(path + ".len", f"{count}\n0.5\n")
        with pytest.raises(FormatError):
            io.read_bits(path)


def test_read_bits_clears_padding_bits(tmp_path):
    # set bits past the count in the last byte are not certified bits:
    # read_bits clears them, so the battery reports on the same bits
    bits = np.random.default_rng(78).integers(0, 2, 1_000_003).astype(np.uint8)
    clean, dirty = tmp_path / "clean.bits", tmp_path / "dirty.bits"
    for path in (clean, dirty):
        io.write_bits(str(path), pack(bits), 1e-9)
    assert clean.read_bytes()[-1] & 0x1F == 0  # 1 000 003 bits end 3 into a byte
    data = bytearray(clean.read_bytes())
    data[-1] |= 0x1F
    dirty.write_bytes(bytes(data))
    back, _ = io.read_bits(str(dirty))
    assert len(back) == len(bits)
    assert back.data.tobytes() == clean.read_bytes()
    reports = []
    for path in (clean, dirty):
        report = tmp_path / f"{path.stem}.csv"
        assert run_cli("testsuite", "--bits", str(path), "--out", str(report)) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# config


def test_config_defaults_mirror_operating_point():
    cfg = io.RunConfig.defaults()
    assert cfg["source.lambda"] == 14.4
    assert cfg["detector.eta0"] == 0.1
    assert cfg["measure.prob_x"] == 0.004
    assert cfg["security.theta"] == 0.001
    assert cfg["security.t_e"] == 100
    assert cfg["source.pulse_rate"] == 4.0e6
    assert cfg["calibration.coefficient"] == 0.952
    assert cfg.fluctuation == 0.0


def test_config_parsing_and_overrides():
    cfg = io.RunConfig.from_text(
        "# comment\n"
        "source.kind = sunlight\n"
        "source.lambda = 11.6   # inline comment\n"
        "run.n_pulses = 1000\n"
    )
    assert cfg["source.kind"] == "sunlight"
    assert cfg["source.lambda"] == 11.6
    assert cfg["run.n_pulses"] == 1000
    assert cfg.fluctuation == 0.05  # sunlight default
    params = cfg.source_params()
    assert params.intensity_fluctuation_rel_std == 0.05


def test_run_seed_keys_the_basis_choice(tmp_path):
    # no separate basis seed: two run seeds draw different check samples
    x_pulses = []
    for seed in (1, 2):
        events = str(tmp_path / f"events{seed}.sqeb")
        assert run_cli(
            "simulate", "--set", "run.n_pulses=400000",
            "--set", f"run.seed={seed}", "--out", events,
        ) == 0
        x_pulses.append(np.count_nonzero(ec.basis(io.read_events(events))))
    assert x_pulses[0] != x_pulses[1]
    with pytest.raises(ConfigError):
        io.RunConfig.from_text("measure.basis_seed = 2\n")


def test_config_rejects_unknown_and_bad_values():
    with pytest.raises(ConfigError):
        io.RunConfig.from_text("bogus.key = 1\n")
    with pytest.raises(ConfigError):
        io.RunConfig.from_text("run.n_pulses = twelve\n")
    with pytest.raises(ConfigError):
        io.RunConfig.from_text("just a line\n")


def test_tally_text_round_trip():
    stream = ds.run_simulation(
        ss.SourceParams(),
        ss.DetectorParams(),
        ss.MeasurementConfig(prob_X=0.3),
        20_000,
        seed=5,
    )
    t = ds.tally(stream)
    back = io.tally_from_text(io.tally_to_text(t))
    assert back == t


# ---------------------------------------------------------------------------
# CLI chain


def run_cli(*argv):
    return main(list(argv))


def seed_file(tmp_path):
    """An operator hash seed file that covers runs of 2.4e6 pulses."""
    path = tmp_path / "seed.bin"
    path.write_bytes(np.random.default_rng(5).bytes(600_000))
    return path


def test_cli_chain_and_exit_codes(tmp_path):
    events = str(tmp_path / "events.sqeb")
    tally_f = str(tmp_path / "tally.txt")
    est_f = str(tmp_path / "estimate.txt")
    seed_f = str(tmp_path / "seed.bin")
    bits_f = str(tmp_path / "out.bits")
    report_f = str(tmp_path / "report.csv")

    n_pulses = 2_400_000
    assert run_cli(
        "simulate", "--set", f"run.n_pulses={n_pulses}",
        "--set", "run.seed=5", "--out", events,
    ) == 0
    assert run_cli("tally", "--events", events, "--out", tally_f) == 0
    assert run_cli(
        "estimate", "--tally", tally_f, "--duration", "0.6", "--out", est_f
    ) == 0

    kv = io.parse_keyvals(Path(est_f).read_text())
    cert_bits = int(kv["bits"])
    assert cert_bits > 1_000_000

    # operator seed file sized for n + m - 1 bits
    raw_bits = int(io.parse_keyvals(Path(tally_f).read_text())["n_z"])
    need_bytes = (raw_bits + cert_bits) // 8 + 1
    with open(seed_f, "wb") as f:
        f.write(np.random.default_rng(99).bytes(need_bytes))

    assert run_cli(
        "extract", "--events", events, "--estimate", est_f,
        "--seed-file", seed_f, "--out", bits_f,
    ) == 0
    bits, eps = io.read_bits(bits_f)
    assert len(bits) == cert_bits
    assert eps == pytest.approx(float(kv["epsilon_total"]), rel=1e-6)

    assert run_cli("testsuite", "--bits", bits_f, "--out", report_f) == 0
    assert Path(report_f).read_text().startswith("test,p_value,pass\n")


def test_cli_estimate_reference_point(capsys):
    assert run_cli(
        "estimate", "--n-z", "3577108266", "--e-bx", "0.0033",
        "--duration", "1800",
    ) == 0
    kv = io.parse_keyvals(capsys.readouterr().out)
    assert int(kv["bits"]) == pytest.approx(3.26e9, rel=5e-3)
    assert float(kv["rate_bps"]) == pytest.approx(1.81e6, rel=5e-3)


def test_cli_estimate_abort_is_exit_two(tmp_path, capsys):
    assert run_cli("estimate", "--n-z", "1000000", "--e-bx", "0.45") == 2
    # an empty check sample aborts whether or not theta is solved for
    tally = TallySummary(
        N_total=1_000_000, N_X=4_000, N_Z=996_000, n_x=0, n_z=100_000,
        x_wrong_singles=0, x_doubles=0, z_doubles_discarded=0, e_bx=0.0,
    )
    tally_f = tmp_path / "tally.txt"
    tally_f.write_text(io.tally_to_text(tally))
    capsys.readouterr()
    for extra in ((), ("--solve-theta", "1e-6")):
        assert run_cli("estimate", "--tally", str(tally_f), *extra) == 2
        assert capsys.readouterr().err == "abort: empty check sample: cannot estimate\n"


def test_cli_epsilon_total_of_one_is_exit_two(tmp_path, capsys):
    # t_e = 0 gives epsilon_total = 1, which certifies nothing: estimate
    # writes its report and aborts, and pipeline aborts before hashing
    est_f = tmp_path / "estimate.txt"
    assert run_cli(
        "estimate", "--n-z", "3577108266", "--e-bx", "0.0033",
        "--duration", "1800", "--set", "security.t_e=0", "--out", str(est_f),
    ) == 2
    kv = io.parse_keyvals(est_f.read_text())
    assert float(kv["epsilon_total"]) == 1.0 and int(kv["bits"]) > 0
    assert capsys.readouterr().err == (
        "abort: epsilon_total 1.0 >= 1 certifies nothing\n"
    )
    outdir = tmp_path / "run"
    assert run_cli(
        "pipeline", "--set", "security.t_e=0", "--set", "run.n_pulses=2400000",
        "--set", "run.seed=3", "--set", "run.duration=0.6",
        "--set", f"path.seed={seed_file(tmp_path)}", "--outdir", str(outdir),
    ) == 2
    kv = io.parse_keyvals((outdir / "estimate.txt").read_text())
    assert float(kv["epsilon_total"]) == 1.0 and int(kv["bits"]) > 0
    names = os.listdir(outdir)
    assert "certified.bits" not in names and "battery.csv" not in names
    assert capsys.readouterr().out == ""


def test_cli_usage_errors_are_exit_one(tmp_path, capsys):
    assert run_cli("simulate", "--set", "bogus=1", "--out", str(tmp_path / "x")) == 1
    # pipeline hashes with the operator's seed file only
    seed = ("--set", f"path.seed={seed_file(tmp_path)}")
    outdir = tmp_path / "run"
    capsys.readouterr()
    assert run_cli("pipeline", "--outdir", str(outdir)) == 1
    err = capsys.readouterr().err
    assert err == "error: pipeline needs path.seed, the hash seed file\n"
    assert not outdir.exists()
    assert run_cli("pipeline", "--set", "run.extractor_seed=1", *seed,
                   "--outdir", str(outdir)) == 1
    assert not outdir.exists()
    assert run_cli("estimate") == 1
    assert run_cli("nonsense") == 1
    assert run_cli(
        "estimate", "--n-z", "1000000", "--n-x", "0", "--e-bx", "0.01"
    ) == 1
    # the direct counts are checked up front, each naming its flag
    for n_z, e_bx, flag in (
        ("0", "0.01", "--n-z"), ("-5", "0.01", "--n-z"), ("1000000", "nan", "--e-bx")
    ):
        capsys.readouterr()
        assert run_cli("estimate", "--n-z", n_z, "--e-bx", e_bx) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} must be"), flag
    curve = tmp_path / "curve.csv"
    for step in ("0", "-0.5", "nan"):
        assert run_cli("optimize", "--grid-step", step, "--out", str(curve)) == 1
    assert not curve.exists()
    # a rate needs a positive, finite duration, from the flag or the config
    counts = ("estimate", "--n-z", "3577108266", "--e-bx", "0.0033")
    est = tmp_path / "estimate.txt"
    for duration in ("-1800", "0", "nan", "inf"):
        assert run_cli(*counts, "--duration", duration, "--out", str(est)) == 1
    for duration in ("-5", "0", "nan"):
        setting = f"run.duration={duration}"
        assert run_cli(*counts, "--set", setting, "--out", str(est)) == 1
        outdir = tmp_path / "run"
        argv = ("pipeline", "--set", setting, *seed, "--outdir", str(outdir))
        assert run_cli(*argv) == 1
        assert not outdir.exists()
    assert run_cli(*counts, "--set", "run.n_pulses=0", "--out", str(est)) == 1
    assert not est.exists()
    # a battery gate with alpha outside (0, 1) or max_failures < 0 is refused
    bits_f = str(tmp_path / "good.bits")
    io.write_bits(bits_f, pack(RNG.integers(0, 2, 1_000_000)), 1e-9)
    report = tmp_path / "battery.csv"
    gates = (
        ("--alpha", "-1"), ("--alpha", "0"), ("--alpha", "1"), ("--alpha", "2"),
        ("--alpha", "nan"), ("--max-failures", "-1"),
    )
    for flag, value in gates:
        assert run_cli("testsuite", "--bits", bits_f, flag, value, "--out", str(report)) == 1
        assert not report.exists()
        key = "suite." + flag[2:].replace("-", "_")
        outdir = tmp_path / "run"
        gate = ("--set", f"{key}={value}")
        assert run_cli("pipeline", *gate, *seed, "--outdir", str(outdir)) == 1
        assert not outdir.exists()


def test_pipeline_unreadable_seed_is_exit_four_before_any_work(tmp_path, capsys):
    # the seed file is opened before the outdir is made and before any
    # simulation: a missing file, or a directory, writes nothing
    argv = ("pipeline", "--set", "run.n_pulses=2400000", "--set", "run.duration=0.6")
    outdir = tmp_path / "run"
    missing = ("--set", f"path.seed={tmp_path / 'missing.bin'}")
    assert run_cli(*argv, *missing, "--outdir", str(outdir)) == 4
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert not outdir.exists()
    outdir.mkdir()
    directory = ("--set", f"path.seed={tmp_path}")
    assert run_cli(*argv, *directory, "--outdir", str(outdir)) == 4
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert os.listdir(outdir) == []  # no events.sqeb, tally.txt or estimate.txt


def test_cli_oversized_run_is_exit_one(tmp_path, capsys):
    # 1e15 pulses exceed any address space: refused before any work
    huge = f"run.n_pulses={10**15}"
    out = tmp_path / "events.sqeb"
    assert run_cli("simulate", "--set", huge, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    outdir = tmp_path / "run"
    seed = f"path.seed={seed_file(tmp_path)}"
    argv = ("pipeline", "--set", huge, "--set", seed, "--outdir", str(outdir))
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.listdir(outdir) == []


@pytest.mark.parametrize(
    "setting",
    [
        "source.lambda=nan",
        "source.fluctuation=nan",
        "source.hwp_deg=nan",
        "detector.dark_rate=nan",
        "detector.dark_rate=inf",
        "detector.dead_time=inf",
        "detector.gate_width=inf",
        "source.pulse_rate=inf",
    ],
)
def test_cli_non_finite_config_is_exit_one(tmp_path, capsys, setting):
    out = tmp_path / "events.sqeb"
    argv = ("simulate", "--set", "run.n_pulses=100000", "--set", setting)
    assert run_cli(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(setting.split("=")[0]) in err
    assert not out.exists()


def run_python(code):
    """Stdout of ``code`` in a fresh interpreter that imports this siqrng."""
    src = os.path.dirname(os.path.dirname(siqrng.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_out_scipy_stats():
    code = "import sys, siqrng.cli; print('scipy.stats' in sys.modules)"
    assert run_python(code) == "False"


def test_cli_stages_without_hashing_leave_out_scipy(tmp_path):
    # only testsuite and pipeline import the scipy-backed battery; the
    # hash runs on numpy.fft, so extract leaves scipy out too, and the
    # sunlight law runs on math alone
    events, tally_f = str(tmp_path / "events.sqeb"), str(tmp_path / "tally.txt")
    est_f, curve = str(tmp_path / "estimate.txt"), str(tmp_path / "curve.csv")
    seed_f, bits_f = str(tmp_path / "seed.bin"), str(tmp_path / "out.bits")
    Path(seed_f).write_bytes(RNG.bytes(100_000))
    code = f"""
import sys
from siqrng.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

after_import = scipy_modules()
codes = [
    main(["simulate", "--set", "run.n_pulses=400000", "--out", {events!r}]),
    main(["simulate", "--set", "run.n_pulses=400000", "--set", "source.kind=sunlight",
          "--out", {events!r}]),
    main(["tally", "--events", {events!r}, "--out", {tally_f!r}]),
    main(["estimate", "--tally", {tally_f!r}, "--out", {est_f!r}]),
    main(["extract", "--events", {events!r}, "--estimate", {est_f!r},
          "--seed-file", {seed_f!r}, "--out", {bits_f!r}]),
    main(["calibrate", "--z-counts", "100000", "50", "--x-counts", "51692", "48308"]),
    main(["optimize", "--out", {curve!r}]),
]
print(after_import, codes, scipy_modules())
"""
    last = run_python(code).splitlines()[-1]
    assert last == "[] [0, 0, 0, 0, 0, 0, 0] []"


def test_cli_key_value_stages_leave_out_numpy(tmp_path):
    # estimate, calibrate and optimize are pure math: numpy stays unloaded
    tally_f, curve = str(tmp_path / "tally.txt"), str(tmp_path / "curve.csv")
    tally = TallySummary(
        N_total=10_000_000, N_X=40_000, N_Z=9_960_000, n_x=3_980,
        n_z=4_960_000, x_wrong_singles=13, x_doubles=0,
        z_doubles_discarded=3_000, e_bx=13 / 3_980,
    )
    Path(tally_f).write_text(io.tally_to_text(tally))
    code = f"""
import sys
from siqrng.cli import main

after_import = "numpy" in sys.modules
codes = [
    main(["estimate", "--tally", {tally_f!r}]),
    main(["estimate", "--n-z", "3577108266", "--e-bx", "0.0033", "--duration", "1800"]),
    main(["estimate", "--tally", {tally_f!r}, "--solve-theta", "1e-6"]),
    main(["calibrate", "--z-counts", "100000", "50", "--x-counts", "51692", "48308"]),
    main(["optimize", "--out", {curve!r}]),
    main(["optimize", "--set", "source.kind=sunlight", "--set", "detector.eta1=0.05"]),
]
print(after_import, codes, "numpy" in sys.modules)
"""
    last = run_python(code).splitlines()[-1]
    assert last == "False [0, 0, 0, 0, 0, 0] False"


def test_rate_model_modules_leave_out_numpy():
    code = "import sys, siqrng.optimizer, siqrng.source_sim; print('numpy' in sys.modules)"
    assert run_python(code) == "False"


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
)
def test_cli_import_starts_no_blas_threads():
    # importing the CLI first keeps OpenBLAS to the calling thread; the
    # variable is cleared first, since this process set it on import
    code = (
        "import os; os.environ.pop('OPENBLAS_NUM_THREADS', None); "
        "import siqrng.cli, numpy, scipy.fft; "
        "print(len(os.listdir('/proc/self/task')))"
    )
    assert run_python(code) == "1"


def test_cli_estimate_warnings_go_to_stderr(tmp_path, capsys):
    # 2e-3 of the detections are check clicks, against 4e-3 of the pulses
    tally = TallySummary(
        N_total=250_000_000, N_X=1_000_000, N_Z=249_000_000, n_x=2_000,
        n_z=1_000_000, x_wrong_singles=2, x_doubles=0, z_doubles_discarded=0,
        e_bx=0.001,
    )
    tally_f, est_f = tmp_path / "tally.txt", tmp_path / "estimate.txt"
    tally_f.write_text(io.tally_to_text(tally))
    assert run_cli("estimate", "--tally", str(tally_f), "--out", str(est_f)) == 0
    comments = [
        ln[len("# "):] for ln in est_f.read_text().splitlines() if ln.startswith("#")
    ]
    assert len(comments) == 1 and comments[0].startswith("warning: detected check ratio")
    assert capsys.readouterr().err.splitlines() == comments


def test_package_import_loads_no_submodule():
    # the library API is the modules; the package itself imports none
    code = (
        "import sys, siqrng; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'siqrng')))"
    )
    assert run_python(code) == "['siqrng']"


def test_cli_io_errors_are_exit_four(tmp_path):
    assert run_cli("tally", "--events", str(tmp_path / "missing.bin")) == 4
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"SQEB\x01garbage")
    assert run_cli("tally", "--events", str(bad)) == 4

    # an estimate with a non-numeric or an inconsistent value is a bad file
    events = str(tmp_path / "events.sqeb")
    stream = random_stream()
    io.write_events(events, stream)
    n_z = len(ds.raw_bits_from_events(stream))
    seed_f = tmp_path / "seed.bin"
    seed_f.write_bytes(RNG.bytes(200))
    good = {
        "r0": "12.0", "r1": "11.0", "r_final": "10.5", "rescale_factor": "1.0",
        "entropy_cost": "0.5", "coefficient": "0.952", "epsilon_total": "1e-9",
        "n_z": str(n_z),
    }
    est_f, bits_f = tmp_path / "estimate.txt", tmp_path / "out.bits"
    changes = (
        ({}, 0), ({"r0": "abc"}, 4), ({"r1": "13.0"}, 4),
        # a certificate needs finite lengths and a probability for epsilon
        ({"r_final": "nan"}, 4), ({"r_final": "-inf"}, 4), ({"r0": "inf"}, 4),
        ({"epsilon_total": "nan"}, 4), ({"epsilon_total": "-1"}, 4),
        ({"epsilon_total": "2"}, 4),
        # the estimate must be for exactly these events' raw bits: one
        # made for more would hash fewer bits to the same length; None
        # leaves the key out
        ({"n_z": "1.5"}, 4), ({"n_z": str(n_z - 1)}, 4),
        ({"n_z": str(n_z + 1)}, 4), ({"n_z": None}, 4),
    )
    sidecar = Path(str(bits_f) + ".len")
    for change, code in changes:
        est = {k: v for k, v in {**good, **change}.items() if v is not None}
        est_f.write_text(io.dump_keyvals(est))
        bits_f.unlink(missing_ok=True)
        sidecar.unlink(missing_ok=True)
        assert run_cli(
            "extract", "--events", events, "--estimate", str(est_f),
            "--seed-file", str(seed_f), "--out", str(bits_f),
        ) == code
        assert bits_f.exists() == sidecar.exists() == (code == 0)


def test_extract_reads_only_the_seed_bits_it_hashes(tmp_path):
    # the hash takes the first n + m - 1 seed bits: set bits past them, at
    # the end of their last byte or in bytes after it, change no output
    # bit, and a seed one byte short of them is a bad input (exit 4)
    events = str(tmp_path / "events.sqeb")
    stream = random_stream(4000)
    io.write_events(events, stream)
    n_z = len(ds.raw_bits_from_events(stream))
    m = 100 + (3 - n_z - 99) % 8  # n + m - 1 ends 3 bits into a byte
    need = n_z + m - 1
    assert need % 8 == 3
    est_f = tmp_path / "estimate.txt"
    est_f.write_text(io.dump_keyvals({
        "r0": str(m + 2.0), "r1": str(m + 1.0), "r_final": str(m + 0.5),
        "rescale_factor": "1.0", "entropy_cost": "0.5", "coefficient": "0.952",
        "epsilon_total": "1e-9", "n_z": str(n_z),
    }))
    seed = bytearray(RNG.bytes((need + 7) // 8))
    seed[-1] &= 0xE0
    dirty = bytearray(seed)
    dirty[-1] |= 0x1F
    outputs = []
    for data in (bytes(seed), bytes(dirty) + b"\xff" * 50, bytes(seed[:-1])):
        seed_f, bits_f = tmp_path / "seed.bin", tmp_path / "out.bits"
        seed_f.write_bytes(data)
        bits_f.unlink(missing_ok=True)
        outputs.append(run_cli(
            "extract", "--events", events, "--estimate", str(est_f),
            "--seed-file", str(seed_f), "--out", str(bits_f),
        ))
        outputs.append(bits_f.read_bytes() if bits_f.exists() else None)
    assert outputs[0] == outputs[2] == 0 and outputs[4] == 4
    assert outputs[1] is not None and outputs[1] == outputs[3]
    assert outputs[5] is None


def test_cli_suite_failure_is_exit_three(tmp_path, capsys):
    bits_f = str(tmp_path / "alt.bits")
    io.write_bits(
        bits_f, pack(np.tile(np.array([0, 1], np.uint8), 500_000)), 1e-9
    )
    assert run_cli("testsuite", "--bits", bits_f) == 3


def test_cli_calibrate(capsys):
    assert run_cli(
        "calibrate", "--z-counts", "100000", "50",
        "--x-counts", "51692", "48308",
    ) == 0
    kv = io.parse_keyvals(capsys.readouterr().out)
    assert float(kv["coefficient"]) == pytest.approx(0.952, abs=1e-3)
    assert run_cli(
        "calibrate", "--z-counts", "1000", "50",
        "--x-counts", "51692", "48308",
    ) == 1
    # a negative count is refused, not clamped or passed to a logarithm
    for z, x in ((("100000", "50"), ("60", "-10")), (("100000", "-50"), ("60", "40"))):
        assert run_cli("calibrate", "--z-counts", *z, "--x-counts", *x) == 1


def test_cli_optimize(tmp_path, capsys):
    csv = str(tmp_path / "curve.csv")
    assert run_cli("optimize", "--out", csv) == 0
    kv = io.parse_keyvals(capsys.readouterr().out)
    assert 13.6 <= float(kv["lambda_star"]) <= 14.2
    lines = Path(csv).read_text().strip().split("\n")
    assert lines[0] == "lambda,rate_bps"
    assert len(lines) > 10


@pytest.mark.parametrize(
    "lo, hi, step, rows",
    [("1", "40", "0.5", 79), ("1", "40.3", "0.1", 394), ("0.7", "1.0", "0.1", 4)],
)
def test_cli_rate_curve_ends_at_lambda_hi(tmp_path, capsys, lo, hi, step, rows):
    # 39.3 / 0.1 rounds to 392.99999999999994 and 0.3 / 0.1 to
    # 3.0000000000000004: the curve keeps hi and gains no step past it
    csv = tmp_path / "curve.csv"
    assert run_cli(
        "optimize", "--set", f"optimize.lambda_lo={lo}",
        "--set", f"optimize.lambda_hi={hi}", "--grid-step", step, "--out", str(csv),
    ) == 0
    lines = csv.read_text().split()[1:]
    assert len(lines) == rows
    assert float(lines[-1].split(",")[0]) == float(hi)


def test_cli_optimize_follows_detectors_and_duration(capsys):
    # the default run lasts 1e7 / 4e6 = 2.5 s, so the hashing cost t_e / T
    # is 40 b/s there and 1e5 b/s at 1 ms
    def rate_star(*sets):
        assert run_cli("optimize", *(a for s in sets for a in ("--set", s))) == 0
        return float(io.parse_keyvals(capsys.readouterr().out)["rate_star_bps"])

    base = rate_star()
    assert base == pytest.approx(1.81668e6, abs=10)
    assert rate_star("detector.eta1=0.05") == pytest.approx(1.27931e6, abs=10)
    assert rate_star("run.duration=1e-3") == pytest.approx(base + 40 - 1e5, abs=10)


def test_pipeline_deterministic(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "run.n_pulses = 2400000\nrun.seed = 3\nrun.duration = 0.6\n"
        f"path.seed = {seed_file(tmp_path)}\n"
    )
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli("pipeline", "--config", str(cfg), "--outdir", out1) == 0
    assert run_cli("pipeline", "--config", str(cfg), "--outdir", out2) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert "certified.bits" in names and "battery.csv" in names
    for name in names:
        a = Path(out1, name).read_bytes()
        b = Path(out2, name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    # both bases are detected alike on a correct run, so nothing warns
    assert "warning:" not in capsys.readouterr().err
    assert "# warning:" not in Path(out1, "estimate.txt").read_text()


def test_pipeline_below_battery_minimum_skips_battery(tmp_path, capsys):
    # a low eta1 certifies fewer bits than the battery needs: the run still
    # writes its bits, curve and summary and exits 0, and says it skipped;
    # a battery report left in the outdir by an earlier run is removed
    outdir = tmp_path / "run"
    outdir.mkdir()
    (outdir / "battery.csv").write_text("stale report\n")
    assert run_cli(
        "pipeline", "--set", "detector.eta1=0.2", "--set", "run.n_pulses=2400000",
        "--set", "run.seed=3", "--set", "run.duration=0.6",
        "--set", f"path.seed={seed_file(tmp_path)}", "--outdir", str(outdir),
    ) == 0
    captured = capsys.readouterr()
    skipped = [
        ln for ln in captured.err.splitlines()
        if ln.startswith("warning: battery skipped: ")
    ]
    assert len(skipped) == 1
    names = sorted(os.listdir(outdir))
    assert "battery.csv" not in names
    assert "rate_curve.csv" in names
    bits, _ = io.read_bits(str(outdir / "certified.bits"))
    assert 0 < len(bits) < 1_000_000
    assert int(io.parse_keyvals(captured.out)["certified_bits"]) == len(bits)
    # the testsuite subcommand still refuses such a file as a usage error
    report = tmp_path / "battery.csv"
    bits_path = str(outdir / "certified.bits")
    assert run_cli("testsuite", "--bits", bits_path, "--out", str(report)) == 1
    assert not report.exists()


def test_pipeline_matches_subcommand_chain(tmp_path, capsys):
    seed_f = seed_file(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "run.n_pulses = 2400000\nrun.seed = 3\nrun.duration = 0.6\n"
        f"path.seed = {seed_f}\n"
    )
    piped = tmp_path / "pipeline"
    assert run_cli("pipeline", "--config", str(cfg), "--outdir", str(piped)) == 0

    chain = tmp_path / "chain"
    chain.mkdir()

    def at(name):
        return str(chain / name)

    conf = ("--config", str(cfg))
    assert run_cli("simulate", *conf, "--out", at("events.sqeb")) == 0
    assert run_cli(
        "tally", "--events", at("events.sqeb"), "--out", at("tally.txt")
    ) == 0
    assert run_cli(
        "estimate", *conf, "--tally", at("tally.txt"), "--out", at("estimate.txt")
    ) == 0
    assert run_cli(
        "extract", "--events", at("events.sqeb"), "--estimate", at("estimate.txt"),
        "--seed-file", str(seed_f), "--out", at("certified.bits"),
    ) == 0
    assert run_cli(
        "testsuite", "--bits", at("certified.bits"), "--out", at("battery.csv")
    ) == 0
    assert run_cli("optimize", *conf, "--out", at("rate_curve.csv")) == 0

    names = sorted(os.listdir(piped))
    assert names == sorted(os.listdir(chain))
    assert "certified.bits" in names and "rate_curve.csv" in names
    for name in names:
        assert (piped / name).read_bytes() == (chain / name).read_bytes(), name
