import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehshare import ParameterError, SimConfig, default_params, derive, optimize_g, simulate
from ehshare import simulator
from ehshare.harvest import arrival_pmfs, rf_pmf
from oracles import harvest_draw, rf_harvest_samples

P = default_params()
DC = derive(P)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_slots=100, seed=1, warmup=100)
    with pytest.raises(ValueError):
        SimConfig(n_slots=100, seed=1, warmup=-1)
    assert SimConfig(n_slots=101, seed=1, warmup=100).warmup == 100
    for seed in (-1, 1.5, "7"):
        with pytest.raises(ParameterError, match="seed"):
            SimConfig(n_slots=100, seed=seed, warmup=10)


@pytest.mark.parametrize("args, fields", [
    ((True, True, False), ["n_slots", "warmup", "seed"]),
    ((100, 1, True), ["warmup"]),
    ((100, False, 10), ["seed"]),
    ((100.0, 1, 10), ["n_slots"]),
])
def test_sim_config_rejects_bools_and_non_integers_by_name(args, fields):
    with pytest.raises(ParameterError) as exc:
        SimConfig(*args)
    assert exc.value.fields == fields


def test_equal_seeds_give_bit_identical_results():
    cfg = SimConfig(n_slots=50_000, seed=5, warmup=1_000)
    a = simulate(P, cfg)
    b = simulate(P, cfg)
    assert a.pu_throughput_hat == b.pu_throughput_hat
    assert a.su_throughput_hat == b.su_throughput_hat
    assert a.pi_idle_hat == b.pi_idle_hat
    assert np.array_equal(a.energy_occupancy_hist, b.energy_occupancy_hist)
    assert np.array_equal(a.rf_harvest_hist, b.rf_harvest_hist)
    assert np.array_equal(a.nature_harvest_hist, b.nature_harvest_hist)
    assert (a.total_harvested, a.total_consumed, a.total_dropped, a.final_energy_level) \
        == (b.total_harvested, b.total_consumed, b.total_dropped, b.final_energy_level)


def test_different_seeds_differ():
    cfg_a = SimConfig(n_slots=50_000, seed=5, warmup=1_000)
    cfg_b = SimConfig(n_slots=50_000, seed=6, warmup=1_000)
    assert simulate(P, cfg_a).su_throughput_hat != simulate(P, cfg_b).su_throughput_hat


def test_no_energy_sources_means_no_secondary_throughput():
    p = default_params(lambda_p=0.0, lambda_e=0.0)
    res = simulate(p, SimConfig(n_slots=20_000, seed=3, warmup=100))
    assert res.su_throughput_hat == 0.0
    assert res.total_harvested == 0
    assert res.pi_idle_hat == 1.0


def test_saturated_primary_estimates_service_rate():
    p = default_params(lambda_p=1.0)
    res = simulate(p, SimConfig(n_slots=200_000, seed=7, warmup=10_000))
    assert res.pu_throughput_hat == pytest.approx(DC.mu_p, abs=5e-3)


def test_idle_fraction_and_primary_throughput_are_complements():
    res = simulate(P, SimConfig(n_slots=30_000, seed=11, warmup=500))
    assert res.pi_idle_hat + res.pu_throughput_hat == pytest.approx(1.0, abs=1e-12)


def test_energy_conservation_exact():
    p = default_params(lambda_p=0.6, lambda_e=0.8, eta=0.6, E_max=5, G=2)
    res = simulate(p, SimConfig(n_slots=40_000, seed=13, warmup=2_000))
    assert res.total_consumed + res.total_dropped + res.final_energy_level \
        == res.total_harvested


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    lam_p=st.floats(min_value=0.0, max_value=1.0),
    lam_e=st.floats(min_value=0.0, max_value=2.0),
    eta=st.sampled_from([0.0, 0.3, 0.8]),
    e_max=st.integers(min_value=1, max_value=8),
    g_frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_energy_conservation_property(seed, lam_p, lam_e, eta, e_max, g_frac):
    g = 1 + int(round(g_frac * (e_max - 1)))
    p = default_params(lambda_p=lam_p, lambda_e=lam_e, eta=eta, E_max=e_max, G=g)
    res = simulate(p, SimConfig(n_slots=3_000, seed=seed, warmup=50))
    assert res.total_consumed + res.total_dropped + res.final_energy_level \
        == res.total_harvested


def test_zero_efficiency_rf_histogram_is_point_mass():
    p = default_params(eta=0.0, lambda_p=0.8, lambda_e=0.5)
    res = simulate(p, SimConfig(n_slots=20_000, seed=19, warmup=100))
    assert res.rf_harvest_hist.tolist() == [1.0]


def test_rf_histogram_matches_the_pmf_where_the_gain_h_ps_overflows():
    # h_ps = 1.7e308 * z is inf for z > 1.06: a count formed from the gains
    # read 0.61 at 0 packets, where the pmf says 0.548
    p = default_params(e_pkt=1.7e305, eta=1.0, sigma_ps=1.7e308, sigma_ppd=1.0, lambda_p=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = simulate(p, SimConfig(n_slots=200_000, seed=0))
    pmf = rf_pmf(derive(p), p.E_max)
    want = np.append(pmf.probs, pmf.tail_mass)
    assert res.rf_harvest_hist.size == want.size == p.E_max + 1
    assert np.max(np.abs(res.rf_harvest_hist - want)) < 0.005


def test_histograms_are_normalized():
    p = default_params(lambda_e=0.7)
    res = simulate(p, SimConfig(n_slots=30_000, seed=23, warmup=1_000))
    for hist in (res.energy_occupancy_hist, res.rf_harvest_hist, res.nature_harvest_hist):
        assert math.fsum(hist) == pytest.approx(1.0, abs=1e-12)
    assert res.energy_occupancy_hist.size == p.E_max + 1
    assert 0.0 <= res.pu_throughput_hat <= 1.0
    assert 0.0 <= res.su_throughput_hat <= 1.0


def test_harvest_draw_quantization_boundaries():
    assert harvest_draw(1.0, DC.alpha, P, DC) == 1
    assert harvest_draw(1.0, DC.alpha * 0.999, P, DC) == 0
    assert harvest_draw(2.0, DC.alpha, P, DC) == 0  # ratio halves
    with pytest.raises(ValueError):
        harvest_draw(DC.a * 0.5, 1.0, P, DC)
    with pytest.raises(ValueError):
        harvest_draw(1.0, -1.0, P, DC)


def test_harvest_draw_zero_efficiency():
    p0 = default_params(eta=0.0)
    assert harvest_draw(1.0, 5.0, p0, derive(p0)) == 0


def test_conditioned_sampler_matches_quantized_scalar_draw():
    draws = rf_harvest_samples(P, 1_000, seed=29)
    assert draws.min() >= 0
    # scalar and vector routes quantize identically
    dc = DC
    ss = np.random.SeedSequence(29).spawn(2)
    h_ppd = dc.a + np.random.default_rng(ss[0]).exponential(P.sigma_ppd, 1_000)
    h_ps = np.random.default_rng(ss[1]).exponential(P.sigma_ps, 1_000)
    scalar = np.array([harvest_draw(y, x, P, dc) for y, x in zip(h_ppd, h_ps)])
    assert np.array_equal(scalar, draws)


def test_secondary_throughput_tracks_analytic_value():
    p = default_params(lambda_p=0.4, lambda_e=0.0, eta=0.6, E_max=10)
    dc = derive(p)
    report = optimize_g(p, dc, arrival_pmfs(p, dc))
    p_star = replace(p, G=report.g_star)
    res = simulate(p_star, SimConfig(n_slots=200_000, seed=37, warmup=10_000))
    assert abs(res.su_throughput_hat - report.mu_s_star) \
        <= max(0.05 * report.mu_s_star, 0.01)


def test_primary_backlog_stays_bounded_in_stable_regime():
    res = simulate(P, SimConfig(n_slots=100_000, seed=41, warmup=5_000))
    assert res.pu_queue_mean < 5.0


@pytest.mark.parametrize("n_points, bound_mb", [(1, 6.034), (3, 4.281), (5, 2.786), (8, 2.106)])
def test_lockstep_batch_working_set_stays_within_its_bound(n_points, bound_mb):
    # tracemalloc's peak over one run_many call. The bounds are the peaks of
    # chunks that held five draw rows through the battery stage at 2**17
    # point-slots (numpy 2.4), so a change that makes each slot hold more
    # bytes fails here before peak RSS shows it.
    params = [default_params(lambda_e=0.5, lambda_p=round(0.1 * (k + 1), 1))
              for k in range(n_points)]
    simulator.run_many(params, SimConfig(n_slots=2_000, seed=1, warmup=100))  # first-call work
    tracemalloc.start()
    try:
        simulator.run_many(params, SimConfig(n_slots=200_000, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 2 ** 20
