"""Rate model against reference operating points and the certified-length
formulas; search behaviour on the rate curve."""
import math

import numpy as np
import pytest

from siqrng import optimizer as op
from siqrng import protocol_math as pm
from siqrng.errors import NonUnimodalError


def test_p_single_click_trivials():
    assert op.p_single_click(0.0, 0.1) == 0.0
    lam_opt = 2.0 * math.log(2.0) / 0.1
    assert op.p_single_click(lam_opt, 0.1) == pytest.approx(0.5, rel=1e-12)
    # the maximum really is there
    assert op.p_single_click(lam_opt * 0.9, 0.1) < 0.5
    assert op.p_single_click(lam_opt * 1.1, 0.1) < 0.5


def test_p_single_click_reference_point():
    assert op.p_single_click(13.9, 0.1) == pytest.approx(
        0.499998286707, rel=1e-9
    )


def test_reference_run_rates():
    params = op.RateModelParams()
    laser = op.rate_from_single_click_prob(
        3577108266 / (1800 * 4e6), 0.0033, params, 1800.0
    )
    assert laser == pytest.approx(1.81e6, rel=5e-3)
    sun = op.rate_from_single_click_prob(
        3364080705 / (1800 * 4e6), 0.0021, params, 1800.0
    )
    assert sun == pytest.approx(1.72e6, rel=5e-3)


def test_zero_click_rate_is_amortized_cost():
    params = op.RateModelParams()
    assert op.rate_from_single_click_prob(0.0, 0.003, params, 1800.0) == (
        pytest.approx(-100 / 1800.0)
    )


def test_rate_model_domain_error():
    params = op.RateModelParams(
        e_bx_model=op.ConstantErrorModel(0.6)
    )
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
    lam, _ = op.optimize_lambda(op.RateModelParams(eta=0.2), (1.0, 40.0))
    assert lam == pytest.approx(2.0 * math.log(2.0) / 0.2, abs=0.05)


def test_double_click_penalty_shifts_optimum_down():
    base, _ = op.optimize_lambda(op.RateModelParams(), (1.0, 40.0))
    shifted, _ = op.optimize_lambda(
        op.RateModelParams(e_bx_model=op.DoubleClickErrorModel(0.01)),
        (1.0, 40.0),
    )
    assert shifted <= base + 1e-9
    # dense-grid oracle agrees on the shifted optimum
    params = op.RateModelParams(e_bx_model=op.DoubleClickErrorModel(0.01))
    grid = np.arange(1.0, 40.0, 0.01)
    vals = [op.rate_model(float(g), params, 1800.0) for g in grid]
    assert grid[int(np.argmax(vals))] == pytest.approx(shifted, abs=0.05)


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
    wavy = op.RateModelParams(
        e_bx_model=lambda lp: 0.15 + 0.1 * math.sin(3.0 * lp)
    )
    with pytest.raises(NonUnimodalError):
        op.optimize_lambda(wavy, (1.0, 40.0))


def test_rate_model_consistent_with_certified_length():
    # with complementary bases and equal efficiencies the analytic rate
    # equals the certified length per second
    duration = 1800.0
    params = op.RateModelParams(coefficient=1.0)
    for lam in (5.0, 13.9, 20.0):
        p1 = op.p_single_click(lam, params.eta)
        n_z = params.rep_rate_G * duration * p1
        r_final = pm.rate_breakdown(
            n_z, 0.0033, params.theta, params.t_e,
            pm.MeasurementImperfection(1.0, 0.3, 0.3),
        ).R_final
        got = op.rate_model(lam, params, duration)
        assert got == pytest.approx(r_final / duration, rel=1e-6)


def test_csv_shape():
    rows = op.flatness_report(op.RateModelParams(), [11.6, 13.9])
    text = op.flatness_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "lambda,rate_bps"
    assert len(lines) == 3
    assert lines[1].startswith("11.6,")
