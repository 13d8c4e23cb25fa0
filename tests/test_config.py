import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ehshare import (ParameterError, SystemParams, arrival_pmfs, build_chain, dbm_to_watts,
                     default_params, derive, load_params, optimize_g, validate)
from ehshare.config import parse_config_file
from oracles import watts_to_dbm


def test_reference_defaults_are_valid():
    p = default_params()
    assert p.beta == 1000.0
    assert p.T == 1.0 and p.tau == 0.1
    assert p.W == 1000.0 and p.N0 == 1e-6 and p.e_pkt == 1e-3
    assert p.P_max == pytest.approx(0.01, rel=1e-12)
    assert p.sigma_ps == 1.0 and p.sigma_ssd == 1.0 and p.sigma_ppd == 0.5
    assert validate(p) is p


def test_tau_at_slot_length_is_rejected_by_name():
    with pytest.raises(ParameterError) as exc:
        default_params(tau=1.0)
    assert "tau" in exc.value.fields


def test_g_above_capacity_is_rejected_by_name():
    with pytest.raises(ParameterError) as exc:
        default_params(G=11)  # E_max defaults to 10
    assert "G" in exc.value.fields


def test_bools_are_rejected_where_integers_are_required():
    with pytest.raises(ParameterError) as exc:
        default_params(E_max=True, G=True)
    assert exc.value.fields == ["E_max", "G"]
    with pytest.raises(ParameterError) as exc:
        default_params(G=True)
    assert exc.value.fields == ["G"]


def test_e_max_above_a_million_levels_is_rejected_by_name():
    # every engine sizes an array by E_max before it can fail, so a huge one
    # is refused up front; 10**6 itself stays valid
    assert SystemParams(E_max=10**6, G=10**6).E_max == 10**6
    for e_max in (10**6 + 1, 10**20, int(1e308), 10**400):
        with pytest.raises(ParameterError) as exc:
            SystemParams(E_max=e_max)
        assert exc.value.fields == ["E_max"]


def test_every_violation_is_reported():
    with pytest.raises(ParameterError) as exc:
        replace(default_params(), tau=2.0, lambda_p=1.5, eta=-0.1, sigma_ps=0.0)
    assert {"tau", "lambda_p", "eta", "sigma_ps"} <= set(exc.value.fields)


_VIOLATIONS = [
    *[(name, bad) for name in ("beta", "W", "N0", "e_pkt", "P_max", "sigma_ppd", "sigma_ps",
                               "sigma_ssd") for bad in (0.0, -1.0, math.inf, math.nan)],
    *[("tau", bad) for bad in (0.0, -0.1, 1.0, 2.0, math.nan)],  # 0 < tau < T = 1
    ("T", math.inf),
    *[("lambda_p", bad) for bad in (-0.1, 1.5, 2.0, math.nan)],
    *[("lambda_e", bad) for bad in (-1, -1e-300, math.inf, math.nan)],
    *[("eta", bad) for bad in (-0.1, 1.5, math.nan)],
    *[("E_max", bad) for bad in (0, -3, 2.5, 10.0, True, 10**6 + 1)],
    *[("G", bad) for bad in (0, 11, 1.0, True)],  # E_max defaults to 10
]


@pytest.mark.parametrize("field, bad", _VIOLATIONS, ids=[f"{f}={b!r}" for f, b in _VIOLATIONS])
def test_no_invalid_operating_point_can_be_built(field, bad):
    # construction validates, so no engine is handed an invalid point: the
    # engines give mu_s > 1 at sigma_ssd = -1 and internal errors at E_max = 0,
    # G = 0 and lambda_e = -1
    for build in (lambda: SystemParams(**{field: bad}),
                  lambda: replace(default_params(), **{field: bad})):
        with pytest.raises(ParameterError) as exc:
            build()
        assert exc.value.fields == [field]


def test_a_slot_no_longer_than_tau_is_rejected_as_tau():
    for build in (lambda: SystemParams(T=0.05), lambda: replace(default_params(), T=0.1)):
        with pytest.raises(ParameterError) as exc:
            build()
        assert exc.value.fields == ["tau"]


@pytest.mark.parametrize("field, value", [("beta", 1e30), ("W", 1e-300)])
def test_extreme_finite_values_are_rejected_by_name(field, value):
    # 2**R_s overflows (derive)
    p = default_params(**{field: value})
    with pytest.raises(ParameterError) as exc:
        arrival_pmfs(p, derive(p))
    assert field in exc.value.fields


def test_a_primary_power_that_underflows_is_rejected_by_name():
    # N0 * W * (2**R_p - 1) = N0 * W * R_p * ln 2 = 7e-331 vanishes (derive)
    with pytest.raises(ParameterError) as exc:
        derive(default_params(beta=1e-300, N0=1e-30))
    assert {"beta", "N0"} <= set(exc.value.fields)


@pytest.mark.parametrize("over, mu", [({"beta": 1e-300}, 1.0), ({"T": 1e30}, 1.0),
                                      ({"beta": 1e-12, "P_max": 1e-18}, 0.25)],
                         ids=["beta-1e-300", "T-1e+30", "R_p-1e-15"])
def test_small_primary_rates_keep_full_precision(over, mu):
    # 2**R_p - 1 cancels, and rounded to 0 at the first two points; at R_p =
    # 1e-15, a is ln 2 and mu_p = exp(-a / sigma_ppd) = 1/4
    p = default_params(**over)
    dc = derive(p)
    assert dc.a == pytest.approx(p.N0 * p.W * dc.R_p * math.log(2) / p.P_max, rel=1e-12)
    report = optimize_g(p)
    assert dc.mu_p == pytest.approx(mu, abs=1e-12) and 0.0 <= report.mu_s_star <= dc.pi_idle


@pytest.mark.parametrize("over", [{"N0": 1e30}, {"P_max": 1e-300}, {"sigma_ppd": 1e-300},
                                  {"N0": 1e30, "P_max": 1e-300}, {"sigma_ppd": 1e-310},
                                  {"N0": 1e30, "P_max": 1e-300, "sigma_ps": 1e300, "e_pkt": 1e-20}],
                         ids=["N0", "P_max", "sigma_ppd", "N0-P_max", "sigma_ppd-subnormal",
                              "a-inf-alpha-underflows"])
def test_a_primary_that_never_transmits_solves_as_with_eta_0(over):
    # the RF harvest conditions on a transmission of probability 0; the
    # chain gives active slots weight 0, so eta cannot matter. A subnormal
    # sigma_ppd makes lambda_y = 1 / sigma_ppd infinite. With a = inf and
    # lambda_x * alpha = 0, rf_pmf's a * x would be inf * 0 = nan, so derive
    # flags a = inf as RF-degenerate.
    p = default_params(**over)
    assert derive(p).mu_p == 0.0
    off = replace(p, eta=0.0)
    for budgets in (None, range(1, p.E_max + 1)):
        on_r, off_r = (optimize_g(q, budgets) for q in (p, off))
        assert on_r.mu_s_by_g == off_r.mu_s_by_g and on_r.g_star == off_r.g_star
        assert np.array_equal(on_r.chi, off_r.chi)
        on_o, off_o = (build_chain(*arrival_pmfs(q, derive(q)), derive(q).pi_idle, on_r.g_star,
                                   q.E_max).omega for q in (p, off))
        assert np.array_equal(on_o, off_o)


@pytest.mark.parametrize("over", [{"sigma_ps": 1e-310}, {"eta": 1e-300, "beta": 1e-10}])
def test_rf_packets_too_large_to_fill_mean_no_rf_harvest(over):
    # alpha * lambda_x overflows: no transmission converts to a packet
    p = default_params(**over)
    dc = derive(p)
    assert dc.rf_degenerate
    off = replace(p, eta=0.0)
    assert optimize_g(p).mu_s_by_g == optimize_g(off).mu_s_by_g


def test_dbm_conversions():
    assert dbm_to_watts(10.0) == pytest.approx(0.01, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    # frozen from evaluating the conversion; ~0.0015 W
    assert dbm_to_watts(1.76) == pytest.approx(0.0014996848355023741, rel=1e-12)
    assert abs(dbm_to_watts(1.76) - 0.0015) < 1e-5


@given(st.floats(min_value=-80.0, max_value=80.0))
def test_dbm_round_trip_identity(p_dbm):
    assert watts_to_dbm(dbm_to_watts(p_dbm)) == pytest.approx(p_dbm, rel=1e-12, abs=1e-12)


def test_watts_to_dbm_rejects_nonpositive():
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)


def test_derived_constants_at_reference_point():
    dc = derive(default_params())
    assert dc.R_p == pytest.approx(1.0, rel=1e-12)
    assert dc.R_s == pytest.approx(1000.0 / 900.0, rel=1e-12)
    assert dc.a == pytest.approx(0.1, rel=1e-12)
    assert dc.alpha == pytest.approx(1.0 / 0.6, rel=1e-12)
    assert dc.lambda_x == 1.0 and dc.lambda_y == 2.0
    assert not dc.rf_degenerate


def test_zero_efficiency_flags_degenerate_alpha():
    dc = derive(default_params(eta=0.0))
    assert dc.rf_degenerate
    assert dc.alpha == math.inf


def test_an_ambient_mean_that_overflows_is_rejected_by_name():
    # lambda_e * T = inf: its Poisson pmf would be NaN
    p = default_params(lambda_e=1e200, T=1e150, beta=1e150)
    with pytest.raises(ParameterError) as exc:
        derive(p)
    assert exc.value.fields == ["lambda_e", "T"]


def test_secondary_rate_always_exceeds_primary_rate():
    for tau in (0.01, 0.1, 0.5, 0.9):
        dc = derive(default_params(tau=tau))
        assert dc.R_s > dc.R_p


def test_cutoff_monotone_in_power_cap_and_rate():
    base = derive(default_params())
    assert derive(default_params(P_max=0.02)).a < base.a
    assert derive(default_params(beta=2000.0)).a > base.a  # higher R_p


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text(
        "# reference point, power in dBm\n"
        "p_max_dbm = 10\n"
        "lambda_p = 0.25\n"
        "E_max = 8\n"
        "G = 2   # burst size\n"
    )
    values = parse_config_file(cfg)
    assert values["P_max"] == pytest.approx(0.01, rel=1e-12)
    assert values["lambda_p"] == 0.25
    assert values["E_max"] == 8 and isinstance(values["E_max"], int)
    assert values["G"] == 2

    params = load_params(cfg)
    assert params.lambda_p == 0.25 and params.E_max == 8


def test_load_params_overrides_win_over_file(tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("lambda_p = 0.25\n")
    params = load_params(cfg, overrides={"lambda_p": 0.75})
    assert params.lambda_p == 0.75


def test_overrides_take_config_file_keys(tmp_path):
    assert load_params(overrides={"p_max_dbm": "10", "e_max": 7}).P_max == pytest.approx(0.01)
    with pytest.raises(ParameterError) as exc:
        load_params(overrides={"P_max": 0.02, "p_max_dbm": 10})
    assert exc.value.fields == ["P_max"]
    cfg = tmp_path / "point.cfg"
    cfg.write_text("p_max_dbm = 10\n")
    assert load_params(cfg, overrides={"P_max": 0.02}).P_max == 0.02
    for key in ("lambda_q", "lambda_p_dbm"):
        with pytest.raises(ParameterError, match="unknown parameter"):
            load_params(overrides={key: 1})


def test_cli_parameter_flags_are_ingested_like_config_values(capsys):
    from ehshare.cli_sweep import main
    for flag, value, field in (("--e-max", "7.5", "E_max"), ("--lambda-p", "abc", "lambda_p"),
                               ("--p-max-dbm", "abc", "P_max")):
        assert main(["analytic", flag, value]) == 2
        assert f"invalid parameters: {field}:" in capsys.readouterr().err


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("lambda_q = 0.25\n")
    with pytest.raises(ParameterError):
        parse_config_file(cfg)


def test_conflicting_dbm_and_linear_keys_are_rejected(tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("p_max = 0.01\np_max_dbm = 10\n")
    with pytest.raises(ParameterError):
        parse_config_file(cfg)


def test_malformed_line_is_rejected(tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("lambda_p 0.25\n")
    with pytest.raises(ParameterError):
        parse_config_file(cfg)


def test_noninteger_queue_fields_are_rejected():
    with pytest.raises(ParameterError):
        load_params(overrides={"E_max": 7.5})


@pytest.mark.parametrize("line, field", [("lambda_p = abc", "lambda_p"),
                                         ("p_max_dbm = abc", "P_max"),
                                         ("E_max = abc", "E_max"),
                                         ("E_max = inf", "E_max")])
def test_config_value_that_is_not_a_number_is_rejected_by_name(tmp_path, line, field):
    cfg = tmp_path / "point.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(ParameterError) as exc:
        parse_config_file(cfg)
    assert exc.value.fields == [field]


def test_cli_config_value_that_is_not_a_number_exits_2(tmp_path, capsys):
    from ehshare.cli_sweep import main
    cfg = tmp_path / "point.cfg"
    for line, field in (("lambda_p = abc", "lambda_p"), ("p_max_dbm = abc", "P_max")):
        cfg.write_text(line + "\n")
        assert main(["analytic", "--config", str(cfg)]) == 2
        assert field in capsys.readouterr().err
