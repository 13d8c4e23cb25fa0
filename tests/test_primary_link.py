import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ehshare import default_params, derive
from ehshare.primary_link import mu_p, pi_idle, pu_throughput, regime
from oracles import min_power

P = default_params()
DC = derive(P)


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
    assert mu_p(P, DC) == pytest.approx(math.exp(-0.2), rel=1e-15)
    assert mu_p(P, DC) == pytest.approx(0.818731, abs=1e-6)


def test_mu_p_monte_carlo_oracle():
    # fraction of fades admitting a transmission, 1e6 draws
    rng = np.random.default_rng(2026_01)
    h = rng.exponential(P.sigma_ppd, 10**6)
    assert np.mean(h >= DC.a) == pytest.approx(mu_p(P, DC), abs=2e-3)


def test_mu_p_limits():
    assert mu_p(*_pd(P_max=1e12)) == pytest.approx(1.0, abs=1e-12)
    assert mu_p(*_pd(sigma_ppd=1e-4)) == pytest.approx(0.0, abs=1e-12)


def _pd(**over):
    p = default_params(**over)
    return p, derive(p)


def test_pi_idle_empty_queue():
    assert pi_idle(*_pd(lambda_p=0.0)) == 1.0


def test_pi_idle_saturated_regime():
    for lam in (0.82, 0.9, 1.0):
        p, dc = _pd(lambda_p=lam)
        assert pi_idle(p, dc) == pytest.approx(1.0 - mu_p(p, dc), rel=1e-15)
        assert regime(p, dc) == "saturated"


def test_pi_idle_stable_reference_point():
    p, dc = _pd(lambda_p=0.4)
    assert pi_idle(p, dc) == pytest.approx(0.6, rel=1e-15)
    assert regime(p, dc) == "stable"


def test_pi_idle_slot_simulator_oracle():
    from ehshare import SimConfig, simulate
    p, dc = _pd(lambda_p=0.4)
    res = simulate(p, SimConfig(n_slots=300_000, seed=31, warmup=10_000))
    assert res.pi_idle_hat == pytest.approx(0.6, abs=0.01)


def test_pu_throughput_examples():
    assert pu_throughput(*_pd(lambda_p=0.4)) == pytest.approx(0.4, rel=1e-15)
    p, dc = _pd(lambda_p=1.0)
    assert pu_throughput(p, dc) == mu_p(p, dc)
    assert pu_throughput(*_pd(lambda_p=0.3, sigma_ppd=1e-4)) == pytest.approx(0.0, abs=1e-12)


def test_equality_at_boundary_counts_as_saturated():
    p = default_params()
    dc = derive(p)
    p_eq = default_params(lambda_p=mu_p(p, dc))
    assert regime(p_eq, derive(p_eq)) == "saturated"


@given(
    lam=st.floats(min_value=0.0, max_value=1.0),
    sigma=st.floats(min_value=0.05, max_value=5.0),
    p_max=st.floats(min_value=1e-4, max_value=10.0),
)
def test_idle_and_throughput_are_exact_complements(lam, sigma, p_max):
    p, dc = _pd(lambda_p=lam, sigma_ppd=sigma, P_max=p_max)
    assert pi_idle(p, dc) + pu_throughput(p, dc) == 1.0


@given(sigma=st.floats(min_value=0.05, max_value=5.0))
def test_pu_throughput_nondecreasing_in_channel_quality(sigma):
    lo = pu_throughput(*_pd(lambda_p=0.9, sigma_ppd=sigma))
    hi = pu_throughput(*_pd(lambda_p=0.9, sigma_ppd=sigma * 1.5))
    assert hi >= lo


@given(p_max=st.floats(min_value=1e-4, max_value=1.0))
def test_pu_throughput_nondecreasing_in_power_cap(p_max):
    lo = pu_throughput(*_pd(lambda_p=0.9, P_max=p_max))
    hi = pu_throughput(*_pd(lambda_p=0.9, P_max=p_max * 2.0))
    assert hi >= lo


def test_throughput_piecewise_in_arrival_rate():
    # linear below the service rate, flat at mu_p above it
    p, dc = _pd()
    m = mu_p(p, dc)
    for lam in np.linspace(0.0, 1.0, 41):
        thr = pu_throughput(*_pd(lambda_p=float(lam)))
        assert thr == pytest.approx(min(float(lam), m), rel=1e-15, abs=0)
