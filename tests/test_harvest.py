import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ehshare import dbm_to_watts, default_params, derive
from ehshare.config import PARAM_FIELDS
from ehshare.harvest import (HarvestPmf, _pmf_key, arrival_pmfs, combined_pmf, nature_pmf,
                             rf_pmf)
from oracles import f_of_z, pmf_mean, ratio_cap_cdf, rf_harvest_samples, rf_increments

P = default_params()
DC = derive(P)
FULL = 1 << 20  # a support cap above every TAIL_EPS support used here


def quad_ratio_cap_cdf(z, lam_x, lam_y, a):
    """Independent 2-D quadrature of the defining double integral."""
    val, _ = integrate.dblquad(
        lambda x, y: lam_x * math.exp(-lam_x * x) * lam_y * math.exp(-lam_y * y),
        a, np.inf, 0.0, lambda y: z * y, epsabs=1e-13, epsrel=1e-10)
    return val


def test_cdf_vanishes_at_zero():
    assert f_of_z(0.0, DC) == 0.0


def test_cdf_limit_is_transmission_probability():
    assert f_of_z(1e12, DC) == pytest.approx(math.exp(-DC.lambda_y * DC.a), rel=1e-9)


def test_cdf_rejects_negative_threshold():
    with pytest.raises(ValueError):
        f_of_z(-1.0, DC)
    with pytest.raises(ValueError):
        ratio_cap_cdf(-0.5, 1.0, 2.0, 0.1)


def test_cdf_against_quadrature_at_reference_point():
    closed = f_of_z(1.0, DC)
    quad = quad_ratio_cap_cdf(1.0, DC.lambda_x, DC.lambda_y, DC.a)
    assert abs(closed - quad) / quad < 1e-6


@given(
    z1=st.floats(min_value=0.0, max_value=20.0),
    dz=st.floats(min_value=0.0, max_value=20.0),
    lam_x=st.floats(min_value=0.1, max_value=5.0),
    lam_y=st.floats(min_value=0.1, max_value=5.0),
    a=st.floats(min_value=0.01, max_value=2.0),
)
def test_cdf_monotone_and_bounded(z1, dz, lam_x, lam_y, a):
    lo = ratio_cap_cdf(z1, lam_x, lam_y, a)
    hi = ratio_cap_cdf(z1 + dz, lam_x, lam_y, a)
    bound = math.exp(-lam_y * a)
    assert lo <= hi <= bound + 1e-15


def test_rf_increments_telescope_to_transmission_probability():
    inc = rf_increments(DC, FULL)
    assert abs(math.fsum(inc) - math.exp(-DC.lambda_y * DC.a)) < 1e-12


def test_rf_pmf_head_bin_matches_closed_form():
    pmf = rf_pmf(DC, FULL)
    expected = f_of_z(DC.alpha, DC) / math.exp(-DC.lambda_y * DC.a)
    assert pmf.probs[0] == pytest.approx(expected, rel=1e-12)
    # frozen regression value at the reference point
    assert pmf.probs[0] == pytest.approx(0.5382826955142106, rel=1e-12)


def test_rf_pmf_is_normalized_with_small_tail():
    pmf = rf_pmf(DC, FULL)
    assert math.fsum(pmf.probs) + pmf.tail_mass == pytest.approx(1.0, abs=1e-12)
    assert pmf.tail_mass <= 1e-12


def test_rf_pmf_against_conditioned_draws():
    pmf = rf_pmf(DC, FULL)
    draws = rf_harvest_samples(P, 200_000, seed=77)
    emp = np.bincount(draws, minlength=pmf.probs.size) / draws.size
    width = max(emp.size, pmf.probs.size)
    gap = np.abs(np.pad(emp, (0, width - emp.size))
                 - np.pad(pmf.probs, (0, width - pmf.probs.size)))
    assert gap.max() < 0.01


def test_rf_pmf_degenerates_without_conversion():
    p0 = default_params(eta=0.0)
    pmf = rf_pmf(derive(p0), FULL)
    assert pmf.probs.tolist() == [1.0] and pmf.tail_mass == 0.0


@pytest.mark.parametrize("p_max_dbm", [30.0, 46.0])
def test_rf_pmf_tail_bins_keep_full_relative_precision(p_max_dbm):
    # with T(n) = Pr{count >= n | transmits}, bin n is T(n) - T(n+1); the
    # reference takes it as T(n) (1 - T(n+1) / T(n)) with the ratio in log
    # form, free of cancellation down to the last bin near TAIL_EPS
    dc = derive(default_params(eta=0.9, P_max=dbm_to_watts(p_max_dbm)))
    probs = rf_pmf(dc, 10**6).probs
    z, step = dc.alpha * np.arange(probs.size), dc.lambda_x * dc.alpha
    at_least = dc.lambda_y / (dc.lambda_y + dc.lambda_x * z) * np.exp(-dc.a * dc.lambda_x * z)
    log_ratio = -dc.a * step + np.log1p(-step / (dc.lambda_y + dc.lambda_x * z + step))
    assert np.max(np.abs(probs / (at_least * -np.expm1(log_ratio)) - 1.0)) < 1e-12


def test_rf_pmf_of_a_primary_that_never_transmits_is_a_point_mass():
    dc = derive(default_params(N0=1e30, P_max=1e-300))
    assert dc.a == math.inf and dc.rf_degenerate
    pmf = rf_pmf(dc, FULL)
    assert pmf.probs.tolist() == [1.0] and pmf.tail_mass == 0.0
    with pytest.raises(ValueError, match="a == inf"):
        rf_increments(dc, FULL)


def test_rf_pmf_at_a_scale_near_the_double_limit_is_a_point_mass_without_warning():
    # alpha * lambda_x = 1e308: x(n) overflows to inf from n = 2, the tails' intended 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pmf = rf_pmf(derive(default_params(eta=1e-308)), 10)
    assert pmf.probs.tolist() == [1.0] and pmf.tail_mass == 0.0


def test_nature_pmf_without_arrivals():
    pmf = nature_pmf(default_params(lambda_e=0.0), FULL)
    assert pmf.probs.tolist() == [1.0] and pmf.tail_mass == 0.0


def test_nature_pmf_unit_rate_head():
    pmf = nature_pmf(default_params(lambda_e=1.0), FULL)
    assert pmf.probs[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert pmf.probs[0] == pytest.approx(0.367879, abs=1e-6)


def test_nature_pmf_matches_factorial_evaluation():
    pmf = nature_pmf(default_params(lambda_e=2.0), FULL)
    for k in range(8):
        direct = 2.0 ** k * math.exp(-2.0) / math.factorial(k)
        assert pmf.probs[k] == pytest.approx(direct, rel=1e-9)
    assert pmf.probs[2] == pytest.approx(0.270671, abs=1e-6)


def test_nature_pmf_truncation_tail():
    pmf = nature_pmf(default_params(lambda_e=1.5), FULL)
    assert pmf.tail_mass <= 1e-12
    assert math.fsum(pmf.probs) + pmf.tail_mass == pytest.approx(1.0, abs=1e-12)


def test_convolving_with_point_mass_is_identity():
    rf = rf_pmf(DC, FULL)
    ident = HarvestPmf(np.array([1.0]), 0.0)
    out = combined_pmf(rf, ident, FULL)
    assert np.allclose(out.probs, rf.probs, rtol=0, atol=0)


def test_convolution_of_point_masses_shifts():
    one = HarvestPmf(np.array([0.0, 1.0]), 0.0)
    two = HarvestPmf(np.array([0.0, 0.0, 1.0]), 0.0)
    out = combined_pmf(one, two, FULL)
    assert out.probs.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_combined_mean_is_additive():
    rf = rf_pmf(DC, FULL)
    nat = nature_pmf(default_params(lambda_e=0.5), FULL)
    out = combined_pmf(rf, nat, FULL)
    assert pmf_mean(out) == pytest.approx(pmf_mean(rf) + pmf_mean(nat), abs=1e-9)


def test_combined_against_independent_draws():
    p = default_params(lambda_e=0.5)
    dc = derive(p)
    out = combined_pmf(rf_pmf(dc, FULL), nature_pmf(p, FULL), FULL)
    rng = np.random.default_rng(2026_02)
    total = rf_harvest_samples(p, 200_000, seed=88) + rng.poisson(0.5, 200_000)
    emp = np.bincount(total, minlength=out.probs.size) / total.size
    width = max(emp.size, out.probs.size)
    gap = np.abs(np.pad(emp, (0, width - emp.size))
                 - np.pad(out.probs, (0, width - out.probs.size)))
    assert gap.max() < 0.01


def test_rf_mean_drops_as_primary_channel_improves():
    # better direct link -> lower inversion power -> fewer packets converted
    lo = default_params(sigma_ppd=0.5)
    hi = default_params(sigma_ppd=0.6)
    assert pmf_mean(rf_pmf(derive(hi), FULL)) < pmf_mean(rf_pmf(derive(lo), FULL))


def test_arrival_pmfs_kinds_and_zero_efficiency_routing():
    p = default_params(lambda_e=0.5)
    idle, active = arrival_pmfs(p, derive(p))
    nat = nature_pmf(p, p.E_max)  # idle slots harvest ambient packets only
    assert np.array_equal(idle.probs, nat.probs) and idle.tail_mass == nat.tail_mass
    assert active.probs.size == p.E_max and active.probs[0] < idle.probs[0]
    p0 = default_params(eta=0.0, lambda_e=0.5)
    idle0, active0 = arrival_pmfs(p0, derive(p0))
    assert np.allclose(active0.probs, idle0.probs)  # RF contributes nothing


def test_two_column_serialization_round_trip(tmp_path):
    pmf = rf_pmf(DC, FULL)
    path = tmp_path / "rf.txt"
    pmf.write_text(path)
    rows = [line.split() for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    ns = [int(r[0]) for r in rows]
    ps = np.array([float(r[1]) for r in rows])
    assert ns == list(range(pmf.probs.size))
    assert np.array_equal(ps, pmf.probs)
    assert path.read_text().splitlines()[0] == f"# tail_mass={pmf.tail_mass:.17g}"


def test_pmf_validation_rejects_bad_mass():
    with pytest.raises(ValueError):
        HarvestPmf(np.array([0.5, 0.4]), 0.0)
    with pytest.raises(ValueError):
        HarvestPmf(np.array([-0.1, 1.1]), 0.0)
    # a NaN compares false both ways, so each check must be one a NaN fails
    for probs, tail_mass in [([np.nan, 1.0], 0.0), ([1.0, np.nan], 0.0), ([1.0], np.nan)]:
        with pytest.raises(ValueError):
            HarvestPmf(np.array(probs), tail_mass)


@settings(max_examples=30)
@given(lam_e=st.floats(min_value=0.0, max_value=4.0),
       eta=st.floats(min_value=0.05, max_value=1.0),
       sigma_ppd=st.floats(min_value=0.1, max_value=3.0))
def test_arrival_pmfs_always_normalized(lam_e, eta, sigma_ppd):
    p = default_params(lambda_e=lam_e, eta=eta, sigma_ppd=sigma_ppd)
    for pmf in arrival_pmfs(p, derive(p)):
        assert np.all(pmf.probs >= 0)
        assert math.fsum(pmf.probs) + pmf.tail_mass == pytest.approx(1.0, abs=1e-12)


def _pmf_bits(p):
    """The bytes of each arrival pmf of p, with its tail mass."""
    return [(pmf.probs.tobytes(), pmf.tail_mass) for pmf in arrival_pmfs(p, derive(p))]


# two valid values for each field, away from every base point below
_MOVES = {
    "beta": (500.0, 2000.0), "T": (0.5, 2.0), "tau": (0.05, 0.5), "W": (500.0, 2000.0),
    "N0": (1e-7, 1e-5), "e_pkt": (1e-4, 1e-2), "P_max": (dbm_to_watts(0.0), dbm_to_watts(30.0)),
    "lambda_p": (0.0, 0.9), "lambda_e": (0.0, 2.0), "eta": (0.0, 1.0), "E_max": (2, 30),
    "G": (2, 6), "sigma_ppd": (0.2, 2.0), "sigma_ps": (0.3, 3.0), "sigma_ssd": (0.2, 5.0),
}
_UNREAD = {"tau", "lambda_p", "G", "sigma_ssd"}  # fields no harvest law depends on


@pytest.mark.parametrize("base", [
    default_params(), default_params(lambda_e=0.5), default_params(eta=0.0),
    default_params(P_max=dbm_to_watts(50.0)),
], ids=["defaults", "ambient", "eta_0", "50_dbm"])
def test_pmf_key_changes_wherever_the_pmfs_do(base):
    # a slice shares one pmf pair among the points with one key, so a field
    # that moves the pmfs but not the key would hand a point another's pmfs
    assert set(_MOVES) == set(PARAM_FIELDS)
    key, bits, moved = _pmf_key(base, derive(base)), _pmf_bits(base), set()
    for name, values in _MOVES.items():
        for value in values:
            p = replace(base, **{name: value})
            if _pmf_bits(p) != bits:
                moved.add(name)
                assert _pmf_key(p, derive(p)) != key, (name, value)
    # with eta = 0 and no ambient harvest, only those two can move the pmfs
    assert moved == ({"lambda_e", "eta"} if base.eta == 0 else set(PARAM_FIELDS) - _UNREAD)


@settings(max_examples=60, deadline=None)
@given(lam_e=st.sampled_from([0.0, 0.5, 3.0]), eta=st.floats(min_value=0.0, max_value=1.0),
       p_max_dbm=st.floats(min_value=-10.0, max_value=50.0),
       e_max=st.integers(min_value=1, max_value=40),
       lambda_p=st.floats(min_value=0.0, max_value=1.0), g=st.integers(min_value=1, max_value=40))
def test_lambda_p_and_g_never_change_the_pmfs(lam_e, eta, p_max_dbm, e_max, lambda_p, g):
    base = default_params(lambda_e=lam_e, eta=eta, P_max=dbm_to_watts(p_max_dbm), E_max=e_max)
    p = replace(base, lambda_p=lambda_p, G=min(g, e_max))
    assert _pmf_key(p, derive(p)) == _pmf_key(base, derive(base))
    assert _pmf_bits(p) == _pmf_bits(base)
