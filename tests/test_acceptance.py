"""End-to-end acceptance suite.

Each test pins one release criterion at its stated tolerance and prints a
single PASS/FAIL line (run pytest with -s to see them). Tolerances live
here and only here; simulator-facing budgets deliberately absorb the one
modeling approximation (treating primary activity as independent across
slots inside the energy chain).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from ehshare import (SimConfig, default_params, dbm_to_watts, derive,
                     optimize_g, simulate)
from ehshare.energy_chain import build_chain, stationary, success_probability, su_throughput
from ehshare.harvest import arrival_pmfs, combined_pmf, nature_pmf, rf_pmf
from oracles import frontier_verdicts, ratio_cap_cdf, rf_harvest_samples, rf_increments

SLOTS = 10**6
WARMUP = 10**4
LAMBDA_P_GRID = tuple(round(0.05 * i, 2) for i in range(21))
FULL = 1 << 20  # a pmf support cap above every TAIL_EPS support used here


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{status}] {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {description} {detail}"


def _mu_s_star(params):
    return optimize_g(params).mu_s_star


def test_criterion_01_closed_form_cdf_matches_quadrature():
    rng = np.random.default_rng(20260808)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        z = float(rng.uniform(0.02, 8.0))
        lam_x = float(rng.uniform(0.2, 5.0))
        lam_y = float(rng.uniform(0.2, 5.0))
        a = float(rng.uniform(0.02, 2.0))
        closed = ratio_cap_cdf(z, lam_x, lam_y, a)
        quad, _ = integrate.dblquad(
            lambda x, y: lam_x * math.exp(-lam_x * x) * lam_y * math.exp(-lam_y * y),
            a, np.inf, 0.0, lambda y: z * y, epsabs=1e-13, epsrel=1e-10)
        worst = max(worst, abs(closed - quad) / quad)
    elapsed = time.perf_counter() - start
    _report(1, "ratio-cap cdf matches 2-D quadrature at 50 random tuples",
            worst < 1e-6 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_rf_increments_telescope():
    worst = 0.0
    for over in ({}, {"eta": 0.3}, {"sigma_ppd": 1.0}, {"P_max": 0.005}):
        dc = derive(default_params(**over))
        inc = rf_increments(dc, FULL)
        worst = max(worst, abs(math.fsum(inc) - math.exp(-dc.lambda_y * dc.a)))
    _report(2, "un-normalized RF increments telescope to exp(-lambda_y*a)",
            worst < 1e-12, f"worst gap {worst:.2e}")


def test_criterion_03_primary_service_rate_analytic_and_simulated():
    p = default_params()
    analytic_ok = derive(p).mu_p == pytest.approx(math.exp(-0.2), rel=1e-15) \
        and abs(derive(p).mu_p - 0.818731) < 1e-6
    saturated = default_params(lambda_p=1.0)
    start = time.perf_counter()
    res = simulate(saturated, SimConfig(n_slots=SLOTS, seed=308, warmup=WARMUP))
    elapsed = time.perf_counter() - start
    gap = abs(res.pu_throughput_hat - math.exp(-0.2))
    _report(3, "primary service rate: closed form and saturated-run estimate",
            analytic_ok and gap <= 0.002 and elapsed < 30.0,
            f"sim gap {gap:.4f}, {elapsed:.1f}s")


def test_criterion_04_harvest_pmfs_match_conditioned_histograms():
    n = 10**6
    p = default_params(lambda_e=0.5)
    dc = derive(p)

    def max_gap(probs, draws):
        emp = np.bincount(draws, minlength=probs.size) / draws.size
        width = max(emp.size, probs.size)
        return float(np.abs(np.pad(emp, (0, width - emp.size))
                            - np.pad(probs, (0, width - probs.size))).max())

    rf_draws = rf_harvest_samples(p, n, seed=404)
    rf, nat = rf_pmf(dc, FULL), nature_pmf(p, FULL)
    rf_gap = max_gap(rf.probs, rf_draws)
    nat_draws = np.random.default_rng(405).poisson(p.lambda_e * p.T, n)
    nat_gap = max_gap(nat.probs, nat_draws)
    comb = np.asarray(rf_draws) + np.random.default_rng(406).poisson(p.lambda_e * p.T, n)
    comb_gap = max_gap(combined_pmf(rf, nat, FULL).probs, comb)
    worst = max(rf_gap, nat_gap, comb_gap)
    _report(4, "rf/nature/combined pmfs match 1e6-sample histograms bin-wise",
            worst <= 0.003, f"gaps rf={rf_gap:.4f} nat={nat_gap:.4f} comb={comb_gap:.4f}")


def test_criterion_05_stationary_solve_quality_and_hand_enumerated_matrix():
    worst_resid = 0.0
    worst_mass = 0.0
    count = reducible = 0
    flags_ok = True
    for e_max in (2, 6, 10):
        for g in sorted({1, 2, e_max}):
            for lam_p in (0.0, 0.4, 1.0):
                for eta, lam_e in ((0.6, 0.0), (0.0, 1.0), (0.3, 0.5)):
                    p = default_params(E_max=e_max, G=g, lambda_p=lam_p,
                                       eta=eta, lambda_e=lam_e)
                    dc = derive(p)
                    idle, active = arrival_pmfs(p, dc)
                    chain = build_chain(idle, active, dc.pi_idle, g, e_max)
                    stationary(chain)
                    worst_resid = max(worst_resid, float(
                        np.max(np.abs(chain.chi @ chain.omega - chain.chi))))
                    worst_mass = max(worst_mass, abs(float(chain.chi.sum()) - 1.0))
                    flags_ok &= chain.reducible is bool(frontier_verdicts(chain.omega[None])[1][0])
                    reducible += chain.reducible
                    count += 1

    p = default_params(lambda_e=0.5, eta=0.6, lambda_p=0.4, E_max=2, G=1)
    dc = derive(p)
    idle, active = arrival_pmfs(p, dc)
    pi = dc.pi_idle
    pb = 1.0 - pi
    pp0, pp1 = idle.probs[0], idle.probs[1]
    pa0, pa1 = active.probs[0], active.probs[1]
    hand = np.array([
        [pi * pp0 + pb * pa0, pi * pp1 + pb * pa1,
         pi * (1.0 - (pp0 + pp1)) + pb * (1.0 - (pa0 + pa1))],
        [pi * pp0, pi * pp1 + pb * pa0,
         pi * (1.0 - (pp0 + pp1)) + pb * (1.0 - pa0)],
        [0.0, pi * pp0, pi * (1.0 - pp0) + pb * 1.0],
    ])
    hand_ok = np.array_equal(build_chain(idle, active, pi, 1, 2).omega, hand)
    _report(5, "stationary residual/mass bounds over the sweep; 3-state matrix by hand",
            worst_resid < 1e-10 and worst_mass <= 1e-12 and hand_ok and flags_ok,
            f"{count} chains ({reducible} reducible, flags {flags_ok}), resid {worst_resid:.1e}, "
            f"mass {worst_mass:.1e}, hand {hand_ok}")


def test_criterion_06_occupancy_total_variation():
    worst = 0.0
    for lam_p in (0.1, 0.3, 0.5, 0.7, 0.9):
        p = default_params(lambda_p=lam_p)
        dc = derive(p)
        pmfs = arrival_pmfs(p, dc)
        report = optimize_g(p)
        chain = build_chain(pmfs[0], pmfs[1], dc.pi_idle, report.g_star, p.E_max)
        stationary(chain)
        res = simulate(replace(p, G=report.g_star),
                       SimConfig(n_slots=SLOTS, seed=606, warmup=WARMUP))
        tv = 0.5 * float(np.abs(chain.chi - res.energy_occupancy_hist).sum())
        worst = max(worst, tv)
    _report(6, "stationary vs simulated occupancy total variation on the 5-point grid",
            worst <= 0.03, f"worst TV {worst:.4f}")


def test_criterion_07_end_to_end_secondary_throughput():
    worst_ratio = 0.0
    detail = []
    for lam_e in (0.0, 0.5):
        for lam_p in (0.1, 0.3, 0.5, 0.7, 0.9):
            p = default_params(lambda_p=lam_p, lambda_e=lam_e)
            report = optimize_g(p)
            res = simulate(replace(p, G=report.g_star),
                           SimConfig(n_slots=SLOTS, seed=707, warmup=WARMUP))
            gap = abs(report.mu_s_star - res.su_throughput_hat)
            budget = max(0.05 * report.mu_s_star, 0.01)
            worst_ratio = max(worst_ratio, gap / budget)
            detail.append(f"{gap:.4f}")
    _report(7, "analytic vs simulated secondary throughput across 10 operating points",
            worst_ratio <= 1.0, f"worst gap/budget {worst_ratio:.2f}")


def test_criterion_08_throughput_rises_peaks_and_saturates():
    p_mu = derive(default_params()).mu_p
    values = [_mu_s_star(default_params(lambda_p=lp, eta=0.6, lambda_e=0.0, E_max=10))
              for lp in LAMBDA_P_GRID]
    i_star = int(np.argmax(values))
    interior = 0 < i_star < len(values) - 1
    rises = values[1] > values[0]
    stable_tail = [v for lp, v in zip(LAMBDA_P_GRID, values) if lp < p_mu][-1]
    falls_before_saturation = stable_tail < values[i_star]
    saturated = [v for lp, v in zip(LAMBDA_P_GRID, values) if lp >= p_mu]
    flat = max(saturated) - min(saturated) <= 1e-12
    _report(8, "secondary throughput has an interior peak and is flat past saturation",
            interior and rises and falls_before_saturation and flat and len(saturated) >= 2,
            f"peak at lambda_p={LAMBDA_P_GRID[i_star]}, flat spread {max(saturated)-min(saturated):.1e}")


def test_criterion_09_channel_quality_sweep_shapes():
    grid = [round(0.1 * i, 1) for i in range(1, 31)]
    pu_vals = []
    su_vals = []
    for sigma in grid:
        p = default_params(sigma_ppd=sigma, eta=0.6, lambda_p=0.4, lambda_e=0.0,
                           E_max=10, P_max=dbm_to_watts(1.76))
        dc = derive(p)
        pu_vals.append(dc.pu_throughput)
        su_vals.append(_mu_s_star(p))
        if dc.mu_p > p.lambda_p:
            assert pu_vals[-1] == p.lambda_p
    pu_monotone = all(b >= a for a, b in zip(pu_vals, pu_vals[1:]))
    diffs = np.diff(su_vals)
    signs = np.sign(diffs[diffs != 0.0])
    unimodal = int(np.sum(signs[1:] != signs[:-1])) == 1 and signs[0] > 0
    _report(9, "primary throughput monotone with saturation; secondary unimodal",
            pu_monotone and unimodal,
            f"peak at sigma_ppd={grid[int(np.argmax(su_vals))]}")


def test_criterion_10_combined_harvesting_dominates_single_sources():
    nature_only = [_mu_s_star(default_params(lambda_p=lp, eta=0.0, lambda_e=0.5, E_max=6))
                   for lp in LAMBDA_P_GRID]
    rf_only = [_mu_s_star(default_params(lambda_p=lp, eta=0.6, lambda_e=0.0, E_max=6))
               for lp in LAMBDA_P_GRID]
    both = [_mu_s_star(default_params(lambda_p=lp, eta=0.6, lambda_e=0.5, E_max=6))
            for lp in LAMBDA_P_GRID]
    ok = all(c >= n - 1e-12 and c >= r - 1e-12
             for c, n, r in zip(both, nature_only, rf_only))
    _report(10, "combined harvesting dominates each single source pointwise", ok)


def test_criterion_11_capacity_and_ambient_rate_monotonicity():
    ok = True
    for eta in (0.4, 0.6):
        small = [_mu_s_star(default_params(lambda_p=lp, eta=eta, lambda_e=0.0, E_max=6))
                 for lp in LAMBDA_P_GRID]
        large = [_mu_s_star(default_params(lambda_p=lp, eta=eta, lambda_e=0.0, E_max=10))
                 for lp in LAMBDA_P_GRID]
        ok &= all(b >= a - 1e-12 for a, b in zip(small, large))
    for e_max in (6, 10):
        slow = [_mu_s_star(default_params(lambda_p=lp, eta=0.2, lambda_e=0.5, E_max=e_max))
                for lp in LAMBDA_P_GRID]
        fast = [_mu_s_star(default_params(lambda_p=lp, eta=0.2, lambda_e=1.0, E_max=e_max))
                for lp in LAMBDA_P_GRID]
        ok &= all(b >= a - 1e-12 for a, b in zip(slow, fast))
    _report(11, "secondary throughput nondecreasing in capacity and ambient rate", ok)


def test_criterion_12_enumeration_equivalence_and_bit_determinism():
    enum_ok = True
    for over in ({}, {"lambda_p": 0.7, "lambda_e": 0.5}, {"E_max": 6, "eta": 0.3},
                 {"lambda_p": 1.0}, {"E_max": 4, "lambda_e": 1.0, "eta": 0.0}):
        p = default_params(**over)
        dc = derive(p)
        idle, active = arrival_pmfs(p, dc)
        report = optimize_g(p)
        pi = dc.pi_idle
        best_g, best_v = None, -1.0
        for g in range(1, p.E_max + 1):
            chain = build_chain(idle, active, pi, g, p.E_max)
            stationary(chain)
            v = pi * success_probability(p, dc, g) * float(chain.chi[g:].sum())
            if v > best_v:
                best_g, best_v = g, v
            # the search solves (and flags) only the budgets it cannot prune
            if g in report.mu_s_by_g:
                enum_ok &= chain.reducible is (g in report.reducible)
        enum_ok &= report.g_star == best_g and report.mu_s_star == best_v

    p = default_params(lambda_e=0.5)
    cfg = SimConfig(n_slots=200_000, seed=1212, warmup=5_000)
    a = simulate(p, cfg)
    b = simulate(p, cfg)
    det_ok = (
        a.pu_throughput_hat == b.pu_throughput_hat
        and a.su_throughput_hat == b.su_throughput_hat
        and a.pi_idle_hat == b.pi_idle_hat
        and a.pu_queue_mean == b.pu_queue_mean
        and np.array_equal(a.energy_occupancy_hist, b.energy_occupancy_hist)
        and np.array_equal(a.rf_harvest_hist, b.rf_harvest_hist)
        and np.array_equal(a.nature_harvest_hist, b.nature_harvest_hist)
        and (a.total_harvested, a.total_consumed, a.total_dropped, a.final_energy_level)
        == (b.total_harvested, b.total_consumed, b.total_dropped, b.final_energy_level)
    )
    _report(12, "optimizer equals exhaustive enumeration; equal seeds bit-identical",
            enum_ok and det_ok, f"enum {enum_ok}, determinism {det_ok}")
