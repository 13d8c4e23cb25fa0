"""Independent routes to quantities the library computes, used only as test
oracles: scalar and physical-energy harvest draws, the capped ratio cdf and
the RF increments (the joint law of a transmission and its packet count),
the channel-inversion power, dBm conversion back from
Watts, the mean of a truncated pmf, the search for g* checked against
the report of an exhaustive one, the search for g* one point and one chain
at a time (the scorer optimize_many had before it searched a slice in
arrays), and the frontier sweeps that decided which chains the stationary
solver certifies before the transitive closure did; the dealing of grid
points to slices one spec at a time, as the CLI did before a slice spanned
every spec of an invocation; the arrival kernels of one point, built as the
engine built them before it built a slice's as arrays; the engine's search
over pmf pairs that are given, not built from the parameters; and LEAKY, a
valid point whose chains once made the LU singular.
"""

import math
import os

import numpy as np

from ehshare import energy_chain
from ehshare.config import DerivedConstants, SystemParams, derive
from ehshare.energy_chain import (ThroughputReport, build_chain, mu_e, optimize_g, stationary,
                                  su_throughput)
from ehshare.harvest import TAIL_EPS, HarvestPmf, combined_pmf, nature_pmf, rf_pmf


# a valid point (fields but G) whose active pmf is [1 - 1.1e-16] with a tail of 1.1e-16
LEAKY = dict(beta=54709812.84986468, T=479097983928841.5, tau=434817094450780.2,
             W=0.08883106531824167, N0=3.2427372550914e-08, e_pkt=0.8686292511064022,
             P_max=9.91398178656088, lambda_p=0.03666390862279412, lambda_e=0.0,
             eta=0.9953172990833663, E_max=64, sigma_ppd=2.1078438303352213e+28,
             sigma_ps=2.0320747889588077e-08, sigma_ssd=2004589216038.6738)


def rf_packets(h_ppd, h_ps, alpha):
    """floor(h_ps / (h_ppd * alpha)) as int64, elementwise, from the physical
    gains; the ratio is clipped at 2**62 so the int cast stays safe."""
    return np.floor(np.minimum(h_ps / (h_ppd * alpha), 2.0 ** 62)).astype(np.int64)


def harvest_draw(h_ppd, h_ps, params: SystemParams, dc=None):
    """Packets converted from one primary transmission at gains (h_ppd, h_ps).

    Only defined while the primary transmits, i.e. h_ppd at or above the
    cutoff; calls below it are rejected.
    """
    if dc is None:
        dc = derive(params)
    if h_ppd < dc.a:
        raise ValueError(f"h_ppd={h_ppd} is below the transmission cutoff a={dc.a}")
    if h_ps < 0:
        raise ValueError("h_ps must be >= 0")
    if dc.rf_degenerate:
        return 0
    return int(rf_packets(h_ppd, h_ps, dc.alpha))


def rf_harvest_samples(params: SystemParams, n, seed, dc=None):
    """n per-transmission packet counts, conditioned on the primary transmitting.

    h_ppd is drawn above the cutoff by memorylessness (cutoff + fresh
    exponential); the count applies the floor quantization to the physical
    received energy, independent of the closed-form cdf route.
    """
    if dc is None:
        dc = derive(params)
    ss_ppd, ss_ps = np.random.SeedSequence(seed).spawn(2)
    h_ppd = dc.a + np.random.default_rng(ss_ppd).exponential(params.sigma_ppd, n)
    h_ps = np.random.default_rng(ss_ps).exponential(params.sigma_ps, n)
    if dc.rf_degenerate:
        return np.zeros(n, dtype=np.int64)
    energy = params.eta * params.N0 * params.W * (2.0 ** dc.R_p - 1.0) * h_ps * params.T / h_ppd
    return np.floor(energy / params.e_pkt).astype(np.int64)


def ratio_cap_cdf(z, lam_x, lam_y, a):
    """Pr{X/Y <= z and Y >= a} for independent exponentials, elementwise in z.

    X has rate lam_x, Y has rate lam_y. Increases from 0 at z=0 to
    exp(-lam_y*a) as z -> inf.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("z must be >= 0")
    return math.exp(-lam_y * a) * (1.0 - (lam_y / (lam_y + lam_x * z)) * np.exp(-a * lam_x * z))


def rf_increments(dc: DerivedConstants, n_max) -> np.ndarray:
    """rf_pmf's bins times exp(-lambda_y * a), the probability the primary
    transmits: the joint probabilities of {primary transmits, count = n}.

    They telescope to that probability, not to 1.
    """
    if dc.rf_degenerate:
        raise ValueError("RF harvesting yields no packets (eta == 0, alpha * lambda_x "
                         "overflows or a == inf): RF increments are undefined")
    return math.exp(-dc.lambda_y * dc.a) * rf_pmf(dc, n_max).probs


def f_of_z(z, dc: DerivedConstants):
    """ratio_cap_cdf evaluated at the model's gain rates and cutoff."""
    return ratio_cap_cdf(z, dc.lambda_x, dc.lambda_y, dc.a)


def min_power(h_ppd, params: SystemParams):
    """Minimum transmit power (Watts) avoiding outage at channel gain h_ppd:
    N0 * W * (2**R_p - 1) / h_ppd, from the parameters alone."""
    if h_ppd <= 0:
        raise ValueError("h_ppd must be > 0")
    r_p = params.beta / (params.T * params.W)
    return params.N0 * params.W * (2.0 ** r_p - 1.0) / h_ppd


def watts_to_dbm(p_watts):
    """Convert a power in Watts to dBm."""
    if p_watts <= 0:
        raise ValueError("power must be > 0 to express in dBm")
    return 30.0 + 10.0 * math.log10(p_watts)


def pmf_mean(pmf: HarvestPmf) -> float:
    """Mean packet count of the truncated support."""
    return float(np.arange(pmf.probs.size) @ pmf.probs)


def assert_search_matches(exhaustive, params):
    """optimize_g's search for g* (budgets None) picks exhaustive's g_star,
    mu_s_star, mu_e and stationary vector bit for bit, and every budget it
    solves has the exhaustive value and reducibility."""
    searched = optimize_g(params)
    assert (searched.g_star, searched.mu_s_star, searched.mu_e) \
        == (exhaustive.g_star, exhaustive.mu_s_star, exhaustive.mu_e)
    assert np.array_equal(searched.chi, exhaustive.chi)
    assert searched.mu_s_by_g.items() <= exhaustive.mu_s_by_g.items()
    assert searched.reducible == exhaustive.reducible & searched.mu_s_by_g.keys()


def reference_search(params, dc, pmfs, budgets=None):
    """optimize_g's report, or the exception of the first chain that fails, from
    the search one chain at a time: the energy-balance bounds (from row 0 of a
    chain, the mean m of a slot's arrivals capped at E_max), round 1 at each bound
    of inf and round 2 at each bound not below the best round-1 mu_s less 1e-9,
    each budget's chain built by build_chain, solved by stationary and scored by
    EnergyChain, su_throughput and mu_e."""
    e_max = params.E_max
    if budgets is None:
        order = list(range(1, e_max + 1))
        m = build_chain(*pmfs, dc.pi_idle, 1, e_max).omega[0] @ np.arange(e_max + 1)
        g = np.arange(1, e_max + 1)
        bound = np.exp(-dc.b / params.sigma_ssd / g) * np.minimum(dc.pi_idle, m / g)
    else:
        order = list(dict.fromkeys(budgets))
        bound = np.full(len(order), np.inf)
    bound[np.argmax(bound)] = np.inf
    chains, mu, floor = {}, {}, np.inf
    for _ in range(2):
        for g in [g for g, b in zip(order, bound) if g not in mu and not b < floor]:
            chains[g] = build_chain(*pmfs, dc.pi_idle, g, e_max)
            try:
                stationary(chains[g])
            except Exception as exc:
                return exc
            mu[g] = su_throughput(chains[g], params, dc)
        floor = max(mu.values()) * (1 - 1e-9)
    mu_s_by_g = {g: mu[g] for g in order if g in mu}
    g = max(mu_s_by_g, key=mu_s_by_g.__getitem__)
    return ThroughputReport(mu_e(chains[g], params, dc), mu_s_by_g, g, mu_s_by_g[g], chains[g].chi,
                            frozenset(h for h in mu_s_by_g if chains[h].reducible), dc)


def frontier_reached(edges, start):
    """Per matrix of edges (B, n, n): the states (B, n) reachable from state
    start[b]. Each sweep ORs the rows of the states the previous one reached first."""
    seen = np.zeros(edges.shape[:2], dtype=bool)
    seen[np.arange(len(seen)), start] = True
    b, s = np.nonzero(seen)
    while b.size:
        first = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1])))
        frontier = np.zeros_like(seen)
        frontier[b[first]] = np.logical_or.reduceat(edges[b, s], first) & ~seen[b[first]]
        seen |= frontier
        b, s = np.nonzero(frontier)
    return seen


def frontier_verdicts(omega):
    """(certified, reducible), (B,) each, for a stack of row-stochastic chains
    omega (B, n, n), by forward and backward frontier sweeps. A chain is
    certified for the LU solve when every state reached from 0 reaches 0, or
    else every one reaches the top reached state; it is reducible unless every
    state is reached from 0 and reaches 0."""
    n, backward = omega.shape[1], np.swapaxes(omega, 1, 2) > 0.0
    reached, to_0 = frontier_reached(omega > 0.0, 0), frontier_reached(backward, 0)
    top = n - 1 - np.argmax(reached[:, ::-1], axis=1)
    to_top = frontier_reached(backward, top)
    certified = np.all(to_0 | ~reached, axis=1) | np.all(to_top | ~reached, axis=1)
    return certified, ~(reached.all(axis=1) & to_0.all(axis=1))


def run_grid_per_spec(point_fn, specs, jobs):
    """The rows of cli_sweep._run_grid, dealt as it dealt them before a slice
    spanned specs: each spec's grid into k = min(jobs, CPUs, its points)
    strided slices of (spec, value) pairs, grid[i::k], each evaluated here in
    turn; the rows flattened in grid order."""
    rows = []
    for spec in specs:
        k = min(jobs, os.cpu_count() or 1, len(spec.grid))
        slices = [point_fn([(spec, value) for value in spec.grid[i::k]]) for i in range(k)]
        rows += [row for i in range(len(spec.grid)) for row in slices[i % k][i // k]]
    return rows


def scalar_rf_pmf(dc: DerivedConstants, n_max) -> HarvestPmf:
    """rf_pmf of one point, with numpy arrays of one row of counts and the scalar
    constants of dc, as it was before it became the one-key case of _rf_bins."""
    if dc.rf_degenerate:
        return HarvestPmf(np.array([1.0]), 0.0)
    with np.errstate(over="ignore"):
        x = dc.lambda_x * dc.alpha * np.arange(1, n_max + 1)
        tails = np.exp(-dc.a * x) / (1.0 + x / dc.lambda_y)
        n = min(n_max, 1 + int(np.count_nonzero(tails >= TAIL_EPS)))
        c = dc.a * x[0]
        drop = -math.expm1(-c) + math.exp(-c) * x[0] / (dc.lambda_y + x[:n])
    return HarvestPmf(np.concatenate(([1.0], tails[:n - 1])) * drop, float(tails[n - 1]))


def scalar_arrival_rows(probs, e_max):
    """_arrival_rows of one pmf's probs, from an index gather, as it was before it
    took a stack of pmf heads."""
    head = probs[:e_max]
    padded = np.concatenate([np.zeros(e_max), head, np.zeros(e_max - head.size)])
    cum = np.concatenate([[0.0], np.cumsum(padded[e_max:])])
    rows = np.empty((e_max + 1, e_max + 1))
    rows[:, :e_max] = padded[np.arange(e_max) + np.arange(e_max, -1, -1)[:, None]]
    rows[:, e_max] = np.maximum(0.0, 1.0 - cum[::-1])
    return rows


def per_point_kernels(params, dc):
    """The unscaled idle and active arrival kernels (2, E_max + 1, E_max + 1) of
    one point, as the engine built them point by point: arrival_pmfs (with
    scalar_rf_pmf), then scalar_arrival_rows of each pmf."""
    nat = nature_pmf(params, params.E_max)
    active = combined_pmf(scalar_rf_pmf(dc, params.E_max), nat, params.E_max)
    return np.array([scalar_arrival_rows(pmf.probs, params.E_max) for pmf in (nat, active)])


def optimize_given_pmfs(points):
    """optimize_many's reports for points (params, pmfs, budgets) whose pmf pair is
    given, such as a faulty one, not built from params: energy_chain._optimize, the
    engine optimize_many feeds, with the bytes of a point's pmf heads as its key
    and its heads read back from them."""
    entries = []
    for params, pmfs, budgets in points:
        heads = np.zeros((2, params.E_max))
        for row, pmf in zip(heads, pmfs):
            row[:min(params.E_max, pmf.probs.size)] = pmf.probs[:params.E_max]
        entries.append((params, derive(params), budgets, heads.tobytes()))
    return energy_chain._optimize(entries, lambda first, e_max: np.array(
        [np.frombuffer(key).reshape(2, e_max) for *_, key in first]))
