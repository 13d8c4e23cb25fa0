"""Every valid SystemParams gets a result from both engines, or a
ParameterError that names its fields, never an internal error.

The property draws every field of SystemParams over the whole double range:
each positive field log-uniformly from 1e-323 (subnormal) to the largest
double, the bounded ones (lambda_p, eta and tau / T) with 0, 1 and the
doubles next to them as well, and E_max up to 100. One draw of beta in three
is made that way; the others are R_p * T * W with R_p = beta / (T * W)
log-uniform in 1e-17..1e3, a window where 2**R_s stays finite, since derive
rejects all but a few percent of the points otherwise. The analytic engine
solves every budget 1..E_max, so every chain of a point must pass the
closure's certification (one closed class among the states reached from 0)
and the LU's residual; a 2,000-slot run of the simulator must conserve
energy without a RuntimeWarning.
"""

import math
import warnings
from dataclasses import asdict

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ehshare import (ParameterError, SimConfig, SystemParams, arrival_pmfs, default_params,
                     derive, optimize_g, simulate, validate)
from ehshare.config import PARAM_FIELDS
from oracles import LEAKY

E_MAX = 100  # the largest battery drawn


def _log_uniform(lo, hi):
    """10**u for u uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda u: 10.0 ** u)


POSITIVE = _log_uniform(-323.0, 308.25)  # 1e-323 (subnormal) to 1.8e308
UNIT = st.one_of(st.sampled_from([0.0, 5e-324, 1.0 - 2.0 ** -53, 1.0]),
                 _log_uniform(-323.0, -1e-16))  # 1e-323 to 1 - 2**-52
# R_p = beta / (T * W) where 2**R_s stays finite
RATE = _log_uniform(-17.0, 3.0)


@st.composite
def points(draw):
    """SystemParams fields over the whole double range (module docstring)."""
    f = {name: draw(POSITIVE) for name in ("T", "W", "N0", "e_pkt", "P_max", "sigma_ppd",
                                            "sigma_ps", "sigma_ssd")}
    # two draws in three of beta and tau / T come from the window and the
    # fractions that are valid, else derive and validate reject most points
    window = RATE.map(lambda r_p: r_p * f["T"] * f["W"])
    f["beta"] = draw(st.one_of(POSITIVE, window, window))
    above_0 = min(-1e-16, max(-323.0, -323.0 - math.log10(f["T"])))  # T * 10**u > 0
    fraction = _log_uniform(above_0, -1e-16)
    f["tau"] = f["T"] * draw(st.one_of(UNIT, fraction, fraction))
    f["lambda_p"], f["eta"] = draw(UNIT), draw(UNIT)
    f["lambda_e"] = draw(st.one_of(st.just(0.0), POSITIVE))
    f["E_max"] = draw(st.integers(1, E_MAX))
    f["G"] = draw(st.integers(1, f["E_max"]))
    return f


DEFAULTS = asdict(default_params())


@settings(max_examples=300, deadline=None)
@given(fields=points())
# points that once ended in internal errors: a singular LU (a leak below 1 ulp
# of the diagonal), lambda_e * T = inf (a NaN Poisson pmf), a = inf with
# lambda_x * alpha = 0 (inf * 0 in rf_pmf), T * W = 0 (a division by 0),
# alpha = 0 with lambda_x = inf (0 * inf in rf_pmf) and g * e_pkt = inf (an
# SU cutoff of inf / inf); and one whose availability summed above 1,
# giving mu_s = 1 + 2**-52 at g = 44. The last two once made the simulator
# warn: alpha underflows, so the RF scale is 0 (a division by 0), and
# sigma_ssd * z overflows to an SU gain of inf.
@example(fields={**DEFAULTS, **LEAKY})
@example(fields={**DEFAULTS, "lambda_e": 1e200, "T": 1e150, "beta": 1e150})
@example(fields={**DEFAULTS, "N0": 1e30, "P_max": 1e-300, "sigma_ps": 1e300, "e_pkt": 1e-20})
@example(fields={**DEFAULTS, "beta": 1.0, "T": 0.1, "tau": 0.01, "W": 1e-323})
@example(fields={**DEFAULTS, "beta": 1.0, "N0": 1e231, "e_pkt": 1e-93, "P_max": 1.0,
                 "sigma_ps": 1e-309, "eta": 1.0})
@example(fields={**DEFAULTS, "beta": 1.0, "T": 10.0, "W": 1.0, "N0": 1e308, "e_pkt": 1e307,
                 "E_max": 18})
@example(fields={**DEFAULTS, "T": 100.0, "W": 1.0, "N0": 1.0, "e_pkt": 1.0, "P_max": 1.0,
                 "sigma_ppd": 1.0, "sigma_ps": 1.0, "sigma_ssd": 1e15, "beta": 1.0,
                 "tau": 4.94e-322, "lambda_p": 0.0, "eta": 0.0, "lambda_e": 1.0, "E_max": 83})
@example(fields={**DEFAULTS, "e_pkt": 5e-324, "T": 1e10, "tau": 1.0, "beta": 1e10, "W": 1.0,
                 "N0": 1e-3})
@example(fields={**DEFAULTS, "sigma_ssd": 1e308})
def test_every_valid_point_gets_a_result_or_a_named_parameter_error(fields):
    try:
        p = SystemParams(**fields)
        dc = derive(p)
    except ParameterError as exc:
        assert exc.fields and set(exc.fields) <= set(PARAM_FIELDS)
        return
    assert validate(p) is p  # construction validated p
    assert 0.0 <= dc.pi_idle <= 1.0 and dc.pi_idle + dc.pu_throughput == 1.0
    # doubles this extreme overflow and underflow on the way to finite results
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        report = optimize_g(p, dc, arrival_pmfs(p, dc), range(1, p.E_max + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            res = simulate(p, SimConfig(n_slots=2_000, seed=0, warmup=200))
        except ParameterError as exc:  # lambda_e * T beyond numpy's Poisson limit
            assert exc.fields == ["lambda_e"]
            res = None
    assert list(report.mu_s_by_g) == list(range(1, p.E_max + 1))
    # NaN fails
    assert all(0.0 <= mu_s <= 1.0 for mu_s in report.mu_s_by_g.values())
    assert abs(math.fsum(report.chi) - 1.0) <= 1e-12
    if res is not None:
        assert 0.0 <= res.su_throughput_hat <= 1.0 and 0.0 <= res.pi_idle_hat <= 1.0
        assert res.total_consumed + res.total_dropped + res.final_energy_level \
            == res.total_harvested
