"""The primary link's closed forms, read from derive: mu_p, pu_throughput
and pi_idle, and the CLI's regime column built from mu_p."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ehshare import default_params, derive
from ehshare.cli_sweep import main
from oracles import min_power

P = default_params()
DC = derive(P)


def _regime(capsys, lambda_p):
    """The regime column of `analytic` at the reference point and lambda_p."""
    assert main(["analytic", "--lambda-p", repr(lambda_p), "--format", "json",
                 "--outputs", "regime"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    return row["regime"]


def test_min_power_at_cutoff_equals_cap():
    assert min_power(DC.a, P) == pytest.approx(P.P_max, rel=1e-12)


def test_min_power_inverse_proportionality():
    assert min_power(2.0 * DC.a, P) == pytest.approx(P.P_max / 2.0, rel=1e-12)


def test_min_power_at_unit_gain():
    assert min_power(1.0, P) == pytest.approx(0.001, rel=1e-12)


def test_min_power_rejects_nonpositive_gain():
    with pytest.raises(ValueError):
        min_power(0.0, P)


def test_mu_p_reference_value():
    assert DC.mu_p == pytest.approx(math.exp(-0.2), rel=1e-15)
    assert DC.mu_p == pytest.approx(0.818731, abs=1e-6)


def test_mu_p_monte_carlo_oracle():
    # fraction of fades admitting a transmission, 1e6 draws
    rng = np.random.default_rng(2026_01)
    h = rng.exponential(P.sigma_ppd, 10**6)
    assert np.mean(h >= DC.a) == pytest.approx(DC.mu_p, abs=2e-3)


def test_mu_p_limits():
    assert _dc(P_max=1e12).mu_p == pytest.approx(1.0, abs=1e-12)
    assert _dc(sigma_ppd=1e-4).mu_p == pytest.approx(0.0, abs=1e-12)


def _dc(**over):
    return derive(default_params(**over))


def test_pi_idle_empty_queue():
    assert _dc(lambda_p=0.0).pi_idle == 1.0


def test_pi_idle_saturated_regime(capsys):
    for lam in (0.82, 0.9, 1.0):
        dc = _dc(lambda_p=lam)
        assert dc.pi_idle == pytest.approx(1.0 - dc.mu_p, rel=1e-15)
        assert _regime(capsys, lam) == "saturated"


def test_pi_idle_stable_reference_point(capsys):
    assert _dc(lambda_p=0.4).pi_idle == pytest.approx(0.6, rel=1e-15)
    assert _regime(capsys, 0.4) == "stable"


def test_pi_idle_slot_simulator_oracle():
    from ehshare import SimConfig, simulate
    p = default_params(lambda_p=0.4)
    res = simulate(p, SimConfig(n_slots=300_000, seed=31, warmup=10_000))
    assert res.pi_idle_hat == pytest.approx(0.6, abs=0.01)


def test_pu_throughput_examples():
    assert _dc(lambda_p=0.4).pu_throughput == pytest.approx(0.4, rel=1e-15)
    dc = _dc(lambda_p=1.0)
    assert dc.pu_throughput == dc.mu_p
    assert _dc(lambda_p=0.3, sigma_ppd=1e-4).pu_throughput == pytest.approx(0.0, abs=1e-12)


def test_equality_at_boundary_counts_as_saturated(capsys):
    # lambda_p == mu_p is saturated; the double below it is stable
    assert _regime(capsys, DC.mu_p) == "saturated"
    assert _regime(capsys, math.nextafter(DC.mu_p, 0.0)) == "stable"


@given(
    lam=st.floats(min_value=0.0, max_value=1.0),
    sigma=st.floats(min_value=0.05, max_value=5.0),
    p_max=st.floats(min_value=1e-4, max_value=10.0),
)
def test_idle_and_throughput_are_exact_complements(lam, sigma, p_max):
    dc = _dc(lambda_p=lam, sigma_ppd=sigma, P_max=p_max)
    assert dc.pi_idle + dc.pu_throughput == 1.0


@given(sigma=st.floats(min_value=0.05, max_value=5.0))
def test_pu_throughput_nondecreasing_in_channel_quality(sigma):
    lo = _dc(lambda_p=0.9, sigma_ppd=sigma).pu_throughput
    hi = _dc(lambda_p=0.9, sigma_ppd=sigma * 1.5).pu_throughput
    assert hi >= lo


@given(p_max=st.floats(min_value=1e-4, max_value=1.0))
def test_pu_throughput_nondecreasing_in_power_cap(p_max):
    lo = _dc(lambda_p=0.9, P_max=p_max).pu_throughput
    hi = _dc(lambda_p=0.9, P_max=p_max * 2.0).pu_throughput
    assert hi >= lo


def test_throughput_piecewise_in_arrival_rate():
    # linear below the service rate, flat at mu_p above it
    m = DC.mu_p
    for lam in np.linspace(0.0, 1.0, 41):
        thr = _dc(lambda_p=float(lam)).pu_throughput
        assert thr == pytest.approx(min(float(lam), m), rel=1e-15, abs=0)


@given(
    lam=st.floats(min_value=0.0, max_value=1.0),
    sigma=st.floats(min_value=1e-310, max_value=1e300),
    p_max=st.floats(min_value=1e-300, max_value=1e300),
)
def test_fields_equal_the_closed_forms_bit_for_bit(lam, sigma, p_max):
    # the oracle: the expressions derive's fields replaced, evaluated afresh
    p = default_params(lambda_p=lam, sigma_ppd=sigma, P_max=p_max)
    dc = derive(p)
    mu = math.exp(-dc.a / p.sigma_ppd)
    assert (dc.mu_p, dc.pu_throughput, dc.pi_idle) == (mu, min(p.lambda_p, mu),
                                                       1.0 - min(p.lambda_p, mu))
