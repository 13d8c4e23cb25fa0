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

_STACK_CELLS = 2 ** 15  # transition-matrix entries solved in one stack


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


def _omega_stacks(p_idle_arrivals, p_active_arrivals, pi_idle, budgets, e_max):
    """Check every input, then yield (i, omega): the transition matrices of
    budgets[i:i + len(omega)], in stacks of at most _STACK_CELLS entries."""
    for g in budgets:
        if not (isinstance(g, int) and isinstance(e_max, int) and 1 <= g <= e_max):
            raise ChainError(f"need integers 1 <= g <= e_max (got g={g}, e_max={e_max})")
    if not 0.0 <= pi_idle <= 1.0:
        raise ChainError(f"pi_idle must lie in [0, 1] (got {pi_idle})")
    pi, stay = float(pi_idle), np.arange(e_max + 1)
    idle = pi * _arrival_rows(p_idle_arrivals.probs, stay, e_max)
    active = (1.0 - pi) * _arrival_rows(p_active_arrivals.probs, stay, e_max)
    per_stack = max(1, _STACK_CELLS // active.size)
    for i in range(0, len(budgets), per_stack):
        g = np.asarray(budgets[i:i + per_stack])[:, None]
        omega = idle[np.where(stay >= g, stay - g, stay)]
        omega += active
        yield i, omega


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
    _, omega = next(_omega_stacks(p_idle_arrivals, p_active_arrivals, pi_idle, [g], e_max))
    return EnergyChain(omega=omega[0], g=g)


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


def _all_reached(edges):
    """Per matrix of edges (B, n, n): is every state reachable from state 0?
    Each sweep ORs the rows of the states the previous one reached first."""
    seen = np.zeros(edges.shape[:2], dtype=bool)
    seen[:, 0] = True
    b, s = np.nonzero(seen)
    while b.size:
        first = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1])))
        frontier = np.zeros_like(seen)
        frontier[b[first]] = np.logical_or.reduceat(edges[b, s], first) & ~seen[b[first]]
        seen |= frontier
        b, s = np.nonzero(frontier)
    return seen.all(axis=1)


def _solve_stack(omega, tol=1e-10, start_state=0):
    """stationary for a stack of chains omega (B, n, n), with one batched LU solve."""
    if np.max(np.abs(omega.sum(axis=2) - 1.0)) > 1e-9 or np.any(omega < 0):
        raise ChainError("omega must be row-stochastic")
    irreducible = _all_reached(omega > 0.0) & _all_reached(np.swapaxes(omega, 1, 2) > 0.0)
    n, chi = omega.shape[1], np.zeros(omega.shape[:2])
    a = np.swapaxes(omega[irreducible], 1, 2) - np.eye(n)
    a[:, -1] = 1.0  # the last balance equation, implied by the others, becomes sum(chi) = 1
    rhs = np.broadcast_to(np.eye(n)[:, -1:], a.shape[:2] + (1,))  # (B, n, 1): numpy < 2 reads
    direct = np.clip(np.linalg.solve(a, rhs)[..., 0], 0.0, None)  # an (n, 1) rhs as vectors
    chi[irreducible] = direct / direct.sum(axis=1, keepdims=True)
    residual = np.max(np.abs(np.matmul(chi[:, None], omega)[:, 0] - chi), axis=1)
    for b in np.flatnonzero(~irreducible | (residual >= tol)):
        if irreducible[b]:
            chi[b] = _power_iteration(omega[b], np.full(n, 1.0 / n), tol=1e-12)
        else:
            warnings.warn("energy chain is reducible; returning the occupancy reached from "
                          "an empty queue", ReducibleChainWarning, stacklevel=3)
            chi[b] = _power_iteration(omega[b], np.eye(n)[start_state], tol=1e-14)
        residual = float(np.max(np.abs(chi[b] @ omega[b] - chi[b])))
        if residual >= tol:
            raise StationarySolveError(f"stationary residual {residual:.3e} exceeds {tol:.1e}")
    return chi


def stationary(chain: EnergyChain, tol=1e-10, start_state=0) -> np.ndarray:
    """Solve chi = chi @ omega, store it on the chain, and return it.

    Irreducible chains get the unique stationary vector by an LU solve of
    chi (omega - I) = 0 with the last equation replaced by sum(chi) = 1, and
    power iteration if that misses tol. Reducible chains are reported with a
    ReducibleChainWarning and resolved as the long-run occupancy from
    start_state (the simulator's empty-queue initial condition).
    """
    omega = np.asarray(chain.omega, dtype=float)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise ChainError(f"omega must be a square matrix (got shape {omega.shape})")
    chain.chi = _solve_stack(omega[None], tol, start_state)[0]
    return chain.chi


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

    The chains are solved as in stationary, in stacks of at most _STACK_CELLS
    matrix entries: one batched LU solve per stack, then power iteration one
    chain at a time for those that are reducible or miss the residual. Ties
    break toward the budget evaluated first, the smallest by default.
    """
    budgets = list(range(1, params.E_max + 1) if budgets is None else budgets)
    if not budgets:
        raise ChainError("budgets: must be nonempty")
    pi = primary_link.pi_idle(params, dc)
    mu_s_by_g, best = {}, None
    for i, omega in _omega_stacks(*pmfs, pi, budgets, params.E_max):
        for g, omega_g, chi in zip(budgets[i:], omega, _solve_stack(omega)):
            mu_s_by_g[g] = su_throughput(EnergyChain(omega_g, g, chi), params, dc)
            if best is None or mu_s_by_g[g] > mu_s_by_g[best.g]:
                best = EnergyChain(omega_g.copy(), g, chi.copy())
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
