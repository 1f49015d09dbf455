"""Rate model against reference operating points, the certified-length
formulas and the simulator; search behaviour on the rate curve."""
import math

import numpy as np
import pytest

from siqrng import cli
from siqrng import detector_sim as ds
from siqrng import io_formats as io
from siqrng import optimizer as op
from siqrng import protocol_math as pm
from siqrng import source_sim as ss
from siqrng.errors import NonUnimodalError


def test_reference_run_rates():
    # the paper's two 1800 s runs through the certified-length formulas
    imperfection = pm.MeasurementImperfection(0.952, 0.1, 0.1)
    params = op.RateModelParams()

    def rate(n_z, e_bx):
        rates = pm.rate_breakdown(n_z, e_bx, params.theta, params.t_e, imperfection)
        return rates.R_final / 1800.0

    assert rate(3577108266, 0.0033) == pytest.approx(1.81e6, rel=5e-3)
    assert rate(3364080705, 0.0021) == pytest.approx(1.72e6, rel=5e-3)


def test_zero_click_rate_is_amortized_cost():
    params = op.RateModelParams(detector=ss.DetectorParams(dark_rate=0.0))
    assert op.rate_model(0.0, params, 1800.0) == pytest.approx(-100 / 1800.0)


def test_rate_model_domain_error():
    params = op.RateModelParams(e_bx=0.6)
    with pytest.raises(ValueError):
        op.rate_model(14.0, params, 1800.0)


def test_optimum_at_default_efficiency():
    lam, rate = op.optimize_lambda(op.RateModelParams(), (1.0, 40.0))
    assert lam == pytest.approx(2.0 * math.log(2.0) / 0.1, abs=0.05)
    assert 13.6 <= lam <= 14.2
    # stationarity
    params = op.RateModelParams()
    assert op.rate_model(lam - 0.1, params, 1800.0) <= rate + 1e-9
    assert op.rate_model(lam + 0.1, params, 1800.0) <= rate + 1e-9


def test_optimum_scales_with_efficiency():
    params = op.RateModelParams(detector=ss.DetectorParams(eta0=0.2, eta1=0.2))
    lam, _ = op.optimize_lambda(params, (1.0, 40.0))
    assert lam == pytest.approx(2.0 * math.log(2.0) / 0.2, abs=0.05)


@pytest.mark.parametrize("hi", [40.0, 1e3, 1e5, 1e9, 1e12])
def test_optimum_holds_over_wide_search_ranges(hi):
    # from 1e5 on every grid point but lambda = 1 sits on the underflowed
    # plateau, so both golden-section probes can tie there
    lam, rate = op.optimize_lambda(op.RateModelParams(), (1.0, hi))
    assert 13.6 <= lam <= 14.2
    assert rate > 1.8e6


def test_flatness_of_marked_points():
    params = op.RateModelParams()
    rows = op.flatness_report(params, [11.6, 13.9, 14.4])
    rates = {lam: r for lam, r in rows}
    assert rates[11.6] >= 0.98 * rates[13.9]
    assert rates[14.4] >= 0.98 * rates[13.9]


def test_flatness_empty():
    assert op.flatness_report(op.RateModelParams(), []) == []


def test_grid_is_unimodal():
    params = op.RateModelParams()
    rows = op.flatness_report(params, np.arange(1.0, 40.0 + 0.25, 0.5))
    diffs = np.diff([r for _, r in rows])
    signs = np.sign(diffs[np.abs(diffs) > 1e-9])
    flips = np.count_nonzero(np.diff(signs) != 0)
    assert flips == 1


def test_non_unimodal_rejected():
    wavy = [1e6 * (2.0 + math.sin(3.0 * x)) for x in np.arange(1.0, 40.0, 0.5)]
    with pytest.raises(NonUnimodalError):
        op._assert_unimodal(wavy)
    op._assert_unimodal([1.0, 3.0, 3.0, 2.0, 2.0])  # one peak, with plateaus


def test_rate_model_consistent_with_certified_length():
    # laser at |+>: the generation basis splits the light evenly, each arm
    # clicking independently with q_i = 1 - (1 - d) exp(-eta_i lam / 2);
    # eta0 != eta1, so the efficiency-mismatch rescale 2 min / sum enters
    duration, eta0, eta1 = 1800.0, 0.1, 0.3
    det = ss.DetectorParams(eta0=eta0, eta1=eta1)
    params = op.RateModelParams(detector=det, coefficient=1.0)
    pulses = 4e6 * duration * (1.0 - 0.004)
    for lam in (5.0, 13.9, 20.0):
        q0, q1 = (
            1.0 - (1.0 - det.dark_click_prob) * math.exp(-eta * lam / 2.0)
            for eta in (eta0, eta1)
        )
        n_z = pulses * (q0 * (1.0 - q1) + q1 * (1.0 - q0))
        r1 = n_z * (1.0 - pm.binary_entropy(0.0033 + 0.001)) - 100
        want = r1 * 2.0 * eta0 / (eta0 + eta1) / duration
        assert op.rate_model(lam, params, duration) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {
            "source.kind": "sunlight",
            "source.lambda": "11.6",
            "source.hwp_deg": "27.5",
            "detector.eta1": "0.05",
            "detector.dark_rate": "2e5",
        },
    ],
    ids=["laser", "sunlight"],
)
def test_rate_model_predicts_simulated_n_z(overrides):
    # the model's expected n_z, N (1 - prob_X) (t3 - t1), against a run's
    # tally: each pulse is a generation-basis single independently
    cfg = io.RunConfig.defaults()
    for key, value in {"run.n_pulses": "4000000", "run.seed": "11", **overrides}.items():
        cfg.set(key, value)
    n_z = ds.tally(cli._simulate(cfg)).n_z
    params = cli._rate_params(cfg)
    src = params.source
    state = ss.polarization_from_waveplates(src.hwp_angle, src.qwp_angle)
    probs = ss.effective_projection_probs(state, ss.BASIS_Z, params.measurement)
    t1, _, t3 = ss.outcome_law(src, params.detector, probs)
    n = cfg["run.n_pulses"]
    p = (1.0 - params.measurement.prob_X) * (t3 - t1)
    assert abs(n_z - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))


def test_csv_shape():
    rows = op.flatness_report(op.RateModelParams(), [11.6, 13.9])
    text = op.flatness_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "lambda,rate_bps"
    assert len(lines) == 3
    assert lines[1].startswith("11.6,")
