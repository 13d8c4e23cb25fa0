"""Independent routes to quantities the library computes, used only as test
oracles: scalar and physical-energy harvest draws, the capped ratio cdf and
the RF increments (the joint law of a transmission and its packet count),
the channel-inversion power, dBm conversion back from
Watts, the mean of a truncated pmf, the search for g* checked against
the report of an exhaustive one, and the frontier sweeps that decided which
chains the stationary solver certifies before the transitive closure did;
and LEAKY, a valid point whose chains once made the LU singular.
"""

import math

import numpy as np

from ehshare.config import DerivedConstants, SystemParams, derive
from ehshare.energy_chain import optimize_g
from ehshare.harvest import HarvestPmf, rf_pmf


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


def assert_search_matches(exhaustive, params, dc, pmfs):
    """optimize_g's search for g* (budgets None) picks exhaustive's g_star,
    mu_s_star, mu_e and stationary vector bit for bit, and every budget it
    solves has the exhaustive value and reducibility."""
    searched = optimize_g(params, dc, pmfs)
    assert (searched.g_star, searched.mu_s_star, searched.mu_e) \
        == (exhaustive.g_star, exhaustive.mu_s_star, exhaustive.mu_e)
    assert np.array_equal(searched.chi, exhaustive.chi)
    assert searched.mu_s_by_g.items() <= exhaustive.mu_s_by_g.items()
    assert searched.reducible == exhaustive.reducible & searched.mu_s_by_g.keys()


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
