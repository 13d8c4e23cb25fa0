"""Finite energy-queue Markov chain and secondary throughput optimization.

States 0..E_max count stored energy packets at slot boundaries. Within a
slot, departures happen before arrivals: on an idle slot with at least G
packets the secondary spends G (whether or not its packet decodes), then
the slot's harvested packets are added and the queue saturates at E_max.
The top state therefore absorbs all overflow mass, which also folds the
truncated pmf tails back in.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import DerivedConstants, SystemParams
from .harvest import HarvestPmf
from . import primary_link


class ChainError(ValueError):
    """Inconsistent inputs to chain construction."""


class StationarySolveError(RuntimeError):
    """Stationary solve failed to reach the target residual."""


class ReducibleChainWarning(UserWarning):
    """The chain is reducible; the returned vector is the long-run occupancy
    starting from an empty queue."""


@dataclass
class EnergyChain:
    """Transition matrix omega (row-stochastic, (E_max+1)^2), the energy
    budget g it was built with, and the stationary vector chi once solved."""

    omega: np.ndarray
    g: int
    chi: np.ndarray | None = None


def _arrival_rows(probs, base, e_max):
    """Per-row arrival kernel of one slot type, shape (len(base), e_max+1).

    Row j holds pmf(k - base[j]) for k < e_max and, in column e_max, the
    complement Pr{arrivals >= e_max - base[j]}, clamped at 0: a pmf summing
    to 1 + 1ulp must not produce a negative transition probability. Only the
    first e_max pmf entries can land below the top state.
    """
    head = probs[:e_max]
    padded = np.concatenate([np.zeros(e_max), head, np.zeros(e_max - head.size)])
    cum = np.concatenate([[0.0], np.cumsum(padded[e_max:])])
    rows = np.empty((base.size, e_max + 1))
    rows[:, :e_max] = padded[np.arange(e_max) + e_max - base[:, None]]
    rows[:, e_max] = np.maximum(0.0, 1.0 - cum[e_max - base])
    return rows


def build_chain(p_idle_arrivals: HarvestPmf, p_active_arrivals: HarvestPmf,
                pi_idle, g, e_max) -> EnergyChain:
    """Assemble the transition matrix of the energy queue.

    From state j the next state is min(base + arrivals, e_max), where
    base = j - g on an idle slot with j >= g (a transmission was funded)
    and base = j otherwise; arrivals follow the idle pmf on idle slots and
    the active pmf on active slots. The e_max column takes the
    complementary sums, which hold each pmf's tail_mass, so every row
    totals 1 by construction.
    """
    if not (isinstance(g, int) and isinstance(e_max, int) and 1 <= g <= e_max):
        raise ChainError(f"need integers 1 <= g <= e_max (got g={g}, e_max={e_max})")
    if not 0.0 <= pi_idle <= 1.0:
        raise ChainError(f"pi_idle must lie in [0, 1] (got {pi_idle})")

    n = e_max + 1
    stay = np.arange(n)
    base = np.where(stay >= g, stay - g, stay)
    pi = float(pi_idle)
    omega = pi * _arrival_rows(p_idle_arrivals.probs, base, e_max) \
        + (1.0 - pi) * _arrival_rows(p_active_arrivals.probs, stay, e_max)
    return EnergyChain(omega=omega, g=g)


def _solve_direct(omega):
    n = omega.shape[0]
    a = np.vstack([omega.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    chi, *_ = np.linalg.lstsq(a, b, rcond=None)
    chi = np.clip(chi, 0.0, None)
    return chi / chi.sum()


def _power_iteration(omega, chi, tol):
    """Long-run occupancy reached from the distribution chi.

    Iterates the lazy kernel K = (I + omega)/2, which has omega's Cesaro
    limit and no periodic classes, taking chi @ K^(2^s - 1) for s = 1, 2, ...
    by repeated squaring; convergence is tested over the last 2^s steps.
    Rows are renormalized after each squaring so that rounding in the row
    sums cannot compound.
    """
    kernel = 0.5 * (np.eye(omega.shape[0]) + omega)
    for _ in range(64):
        nxt = chi @ kernel
        if np.max(np.abs(nxt - chi)) < tol:
            return nxt / nxt.sum()
        chi = nxt
        kernel = kernel @ kernel
        kernel /= kernel.sum(axis=1, keepdims=True)
    residual = float(np.max(np.abs(chi @ omega - chi)))
    raise StationarySolveError(
        f"power iteration did not converge within 2^64 steps (residual {residual:.3e})")


def _reaches_all(edges):
    """Whether every state is reachable from state 0 along edges[i, j]."""
    seen = np.zeros(edges.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def stationary(chain: EnergyChain, tol=1e-10, start_state=0) -> np.ndarray:
    """Solve chi = chi @ omega, store it on the chain, and return it.

    Irreducible chains get the unique stationary vector via a direct linear
    solve (power iteration as fallback). Reducible chains are reported with
    a ReducibleChainWarning and resolved as the long-run occupancy from
    start_state (the simulator's empty-queue initial condition).
    """
    omega = np.asarray(chain.omega, dtype=float)
    n = omega.shape[0]
    row_err = float(np.max(np.abs(omega.sum(axis=1) - 1.0)))
    if omega.shape != (n, n) or row_err > 1e-9 or np.any(omega < 0):
        raise ChainError("omega must be row-stochastic")

    edges = omega > 0.0
    if _reaches_all(edges) and _reaches_all(edges.T):
        chi = _solve_direct(omega)
        if float(np.max(np.abs(chi @ omega - chi))) >= tol:
            chi = _power_iteration(omega, np.full(n, 1.0 / n), tol=1e-12)
    else:
        warnings.warn(
            "energy chain is reducible; returning the occupancy reached from an empty queue",
            ReducibleChainWarning, stacklevel=2)
        chi = _power_iteration(omega, np.eye(n)[start_state], tol=1e-14)

    residual = float(np.max(np.abs(chi @ omega - chi)))
    if residual >= tol:
        raise StationarySolveError(f"stationary residual {residual:.3e} exceeds {tol:.1e}")
    chain.chi = chi
    return chi


def solve_chain(p_idle_arrivals, p_active_arrivals, pi_idle, g, e_max) -> EnergyChain:
    """build_chain followed by stationary."""
    chain = build_chain(p_idle_arrivals, p_active_arrivals, pi_idle, g, e_max)
    stationary(chain)
    return chain


def outage_threshold(params: SystemParams, dc: DerivedConstants, g):
    """Channel gain the secondary link must reach when spending g packets."""
    return params.N0 * params.W * (params.T - params.tau) * (2.0 ** dc.R_s - 1.0) \
        / (g * params.e_pkt)


def success_probability(params: SystemParams, dc: DerivedConstants, g):
    """Probability the secondary packet decodes when g packets fund it."""
    return math.exp(-outage_threshold(params, dc, g) / params.sigma_ssd)


def _availability(chain: EnergyChain):
    if chain.chi is None:
        raise ChainError("chain is not solved; call stationary() first")
    return float(chain.chi[chain.g:].sum())


def su_throughput(chain: EnergyChain, params: SystemParams, dc: DerivedConstants):
    """Secondary packets delivered per slot for the chain's energy budget."""
    pi = primary_link.pi_idle(params, dc)
    return pi * success_probability(params, dc, chain.g) * _availability(chain)


def mu_e(chain: EnergyChain, params: SystemParams, dc: DerivedConstants):
    """Mean energy packets consumed per slot for the chain's budget."""
    return chain.g * primary_link.pi_idle(params, dc) * _availability(chain)


@dataclass(frozen=True)
class ThroughputReport:
    """Analytic summary at one operating point.

    mu_s_by_g maps every evaluated energy budget to its secondary
    throughput; g_star is the first maximizer in evaluation order, chain
    the solved chain built with g_star and mu_e its consumption rate.
    """

    pi_idle: float
    mu_p: float
    pu_throughput: float
    mu_e: float
    mu_s_by_g: dict[int, float]
    g_star: int
    mu_s_star: float
    chain: EnergyChain = field(repr=False, compare=False)


def optimize_g(params: SystemParams, dc: DerivedConstants,
               pmfs: tuple[HarvestPmf, HarvestPmf], budgets=None) -> ThroughputReport:
    """Evaluate each energy budget (default every one in 1..E_max) and pick the best.

    Ties break toward the budget evaluated first, the smallest for the
    default ascending order.
    """
    if budgets is None:
        budgets = range(1, params.E_max + 1)
    idle, active = pmfs
    pi = primary_link.pi_idle(params, dc)
    mu_s_by_g = {}
    best = None
    for g in budgets:
        chain = solve_chain(idle, active, pi, g, params.E_max)
        mu_s_by_g[g] = su_throughput(chain, params, dc)
        if best is None or mu_s_by_g[g] > mu_s_by_g[best.g]:
            best = chain
    return ThroughputReport(
        pi_idle=pi,
        mu_p=primary_link.mu_p(params, dc),
        pu_throughput=primary_link.pu_throughput(params, dc),
        mu_e=mu_e(best, params, dc),
        mu_s_by_g=mu_s_by_g,
        g_star=best.g,
        mu_s_star=mu_s_by_g[best.g],
        chain=best,
    )
