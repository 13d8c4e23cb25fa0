"""The independence chain against the coupled (backlog, battery) process.

The analytic chain treats the primary as active in each slot with
probability 1 - pi_idle, independently across slots. The slot recipe
couples the two queues: the primary backlog decides which slots are active,
and active slots feed the battery. The backlog changes by at most one per
slot, so (backlog, battery) is a quasi-birth-death (QBD) process whose level
is the backlog and whose phase is the battery. With s = mu_p, I the idle
battery kernel (spend G, then add ambient packets) and A the active one
(add the combined pmf), its blocks are:

- level n >= 1: up lambda_p (1 - s) I, local lambda_p s A + (1 - lambda_p)(1 - s) I,
  down (1 - lambda_p) s A
- level 0: up lambda_p (1 - s) I, stay (1 - lambda_p) I + lambda_p s A

R comes from G by logarithmic reduction (Latouche & Ramaswami, J. Appl.
Prob. 30(3), 1993), and pi_n = pi_0 R^n. The battery marginal of the
coupled process equals the chain's stationary vector, and so does mu_s, to
rounding: in equilibrium the Geo/Geo/1 backlog's departures form a
Bernoulli(lambda_p) process independent of the current backlog (Hsu &
Burke, IEEE Trans. Commun. 24(3), 1976), and the battery sees only those
departures and i.i.d. fades. The chain is therefore exact.

Only stable points are checked. At lambda_p = mu_p the backlog is null
recurrent and above it transient, so the QBD has no stationary vector:
sp(R) = 1 and I - R is singular. Points that harvest nothing (lambda_e = 0,
and eta = 0 or lambda_p = 0) are skipped too: every battery level below G
is absorbing, so no unique stationary vector exists.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from ehshare import default_params, derive
from ehshare.energy_chain import build_chain, stationary, success_probability, su_throughput
from ehshare.harvest import arrival_pmfs


def _kernel(pmf, base, e_max):
    """Battery transitions from each level j: base[j] plus a pmf draw, capped at e_max."""
    k = np.zeros((e_max + 1, e_max + 1))
    for j, b in enumerate(base):
        for n, p in enumerate(pmf.probs):
            k[j, min(b + n, e_max)] += p
        k[j, e_max] += pmf.tail_mass
    return k


def _g_matrix(up, local, down):
    """Minimal solution of G = down + local G + up G^2 by logarithmic reduction."""
    eye = np.eye(len(local))
    h = np.linalg.solve(eye - local, up)
    low = np.linalg.solve(eye - local, down)
    g, t = low.copy(), h.copy()
    for _ in range(64):
        if np.max(np.abs(1.0 - g.sum(axis=1))) < 1e-14:
            return g
        u = h @ low + low @ h
        h, low = np.linalg.solve(eye - u, h @ h), np.linalg.solve(eye - u, low @ low)
        g = g + t @ low
        t = t @ h
    raise AssertionError("logarithmic reduction did not converge")


def _coupled(params):
    """(pi_0, R) of the QBD, with pi_0 (I - R)^-1 summing to 1."""
    dc = derive(params)
    idle, active = arrival_pmfs(params, dc)
    e_max, g, lam, s = params.E_max, params.G, params.lambda_p, dc.mu_p
    levels = np.arange(e_max + 1)
    i_k = _kernel(idle, np.where(levels >= g, levels - g, levels), e_max)
    a_k = _kernel(active, levels, e_max)
    up = lam * (1 - s) * i_k
    local = lam * s * a_k + (1 - lam) * (1 - s) * i_k
    down = (1 - lam) * s * a_k
    r = up @ np.linalg.inv(np.eye(e_max + 1) - local - up @ _g_matrix(up, local, down))
    stay = (1 - lam) * i_k + lam * s * a_k
    # pi_0 (stay + R down - I) = 0, with the last equation replaced by the normalization
    a = (stay + r @ down - np.eye(e_max + 1)).T
    a[-1] = np.linalg.solve(np.eye(e_max + 1) - r, np.ones(e_max + 1))
    pi0 = np.linalg.solve(a, np.eye(e_max + 1)[-1])
    return pi0, r


@settings(max_examples=100, deadline=None)
@given(lambda_p=st.sampled_from([0.0, 0.05, 0.3, 0.6, 0.8]),
       eta=st.sampled_from([0.0, 0.6]),
       lambda_e=st.sampled_from([0.0, 0.5, 2.0]),
       e_max=st.sampled_from([3, 10]),
       g=st.sampled_from([1, 3]))
def test_coupled_battery_marginal_and_mu_s_match_the_chain(lambda_p, eta, lambda_e, e_max, g):
    params = default_params(lambda_p=lambda_p, eta=eta, lambda_e=lambda_e, E_max=e_max, G=g)
    dc = derive(params)
    s = dc.mu_p
    assume(lambda_p < s and (lambda_e > 0 or eta * lambda_p > 0))
    pi0, r = _coupled(params)
    busy = pi0 @ r @ np.linalg.inv(np.eye(e_max + 1) - r)  # sum of pi_n over n >= 1
    chain = build_chain(*arrival_pmfs(params, dc), dc.pi_idle, g, e_max)
    stationary(chain)
    np.testing.assert_allclose(pi0 + busy, chain.chi, rtol=0, atol=1e-12)
    # idle with probability 1 - lambda_p s at an empty backlog, 1 - s otherwise
    funded = (1 - lambda_p * s) * pi0[g:].sum() + (1 - s) * busy[g:].sum()
    assert abs(funded * success_probability(params, dc, g)
               - su_throughput(chain, params, dc)) <= 1e-12
