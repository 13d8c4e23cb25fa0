"""Finite energy-queue Markov chain and secondary throughput optimization.

States 0..E_max count stored energy packets at slot boundaries. Within a
slot, departures happen before arrivals: on an idle slot with at least G
packets the secondary spends G (whether or not its packet decodes), then
the slot's harvested packets are added and the queue saturates at E_max.
The top state therefore absorbs all overflow mass, which also folds the
truncated pmf tails back in.

The states reached from 0 hold one closed class. Let t be the largest: each of
them reaches t, so t is in every closed class among them. Only which counts have
mass matters, so pmf bins that underflow to 0 (Poisson bins far from a mean
lambda_e * T > 745) change nothing. If a slot that occurs has a count raising
every level (a positive one on an active slot, one above g on an idle slot),
repeating it climbs to E_max = t. Else levels stay below 2g, an active slot keeps
its level and an idle one maps j to min(j mod g + a, E_max): levels of one
residue mod g share idle successors, and residues walk by the counts mod g
through their coset, to that of a predecessor of t or, after an overflow to
E_max, to E_max - s (s the largest idle count), from which s overflows again.
tests/test_chain_oracle.py checks every support up to E_max = 4. So _solve_stack's
certification guards only an omega no model builds, as one passed to stationary.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .config import DerivedConstants, ParameterError, SystemParams, is_int
from .harvest import HarvestPmf

_STACK_CELLS = 2 ** 15  # transition-matrix entries solved in one stack
_TOL = 1e-10  # largest stationary residual max |chi @ omega - chi| accepted


class ChainError(ValueError):
    """Inconsistent inputs to chain construction."""


class StationarySolveError(RuntimeError):
    """Stationary solve failed to reach the target residual."""


class ReducibleChainWarning(UserWarning):
    """Raised by nothing: stationary records a reducible chain in
    EnergyChain.reducible, optimize_g in ThroughputReport.reducible."""


@dataclass
class EnergyChain:
    """Transition matrix omega (row-stochastic, (E_max+1)^2), the energy
    budget g it was built with, and once solved the stationary vector chi and
    whether the chain is reducible (some state cannot reach another)."""

    omega: np.ndarray
    g: int
    chi: np.ndarray | None = None
    reducible: bool | None = None


def _arrival_rows(probs, e_max):
    """Arrival kernel of one slot type, (e_max+1, e_max+1), from base level j.

    Row j holds pmf(k - j) for k < e_max and, in column e_max, the
    complement Pr{arrivals >= e_max - j}, clamped at 0: a pmf summing to
    1 + 1ulp must not produce a negative transition probability. Only the
    first e_max pmf entries can land below the top state.
    """
    head = probs[:e_max]
    padded = np.concatenate([np.zeros(e_max), head, np.zeros(e_max - head.size)])
    cum = np.concatenate([[0.0], np.cumsum(padded[e_max:])])
    rows = np.empty((e_max + 1, e_max + 1))
    rows[:, :e_max] = padded[np.arange(e_max) + np.arange(e_max, -1, -1)[:, None]]
    rows[:, e_max] = np.maximum(0.0, 1.0 - cum[::-1])
    return rows


def _kernels(p_idle_arrivals, p_active_arrivals, pi_idle, budgets, e_max, rows=None):
    """Check e_max and pi_idle, then scale the pmfs' _arrival_rows (memoized in rows
    by id) into the idle and active kernels (n, n) _omegas gathers from, then check
    the budgets; return them as ints, each once (1..e_max if None), and the kernels."""
    if not (is_int(e_max) and e_max >= 1):
        raise ChainError(f"need integers 1 <= g <= e_max (got e_max={e_max})")
    if not 0.0 <= pi_idle <= 1.0:
        raise ChainError(f"pi_idle must lie in [0, 1] (got {pi_idle})")
    rows = {} if rows is None else rows
    key = (id(p_idle_arrivals), id(p_active_arrivals))
    if key not in rows:  # before the budgets: a huge E_max fails here, not in their check
        rows[key] = [_arrival_rows(p.probs, e_max) for p in (p_idle_arrivals, p_active_arrivals)]
    kernels = pi_idle * rows[key][0], (1.0 - pi_idle) * rows[key][1]
    if budgets is None:
        return range(1, e_max + 1), *kernels
    budgets = [operator.index(g) if hasattr(g, "__index__") and not isinstance(g, bool) else g
               for g in budgets]
    if not budgets:
        raise ChainError("budgets: must be nonempty")
    for g in budgets:
        if not (is_int(g) and 1 <= g <= e_max):
            raise ChainError(f"need integers 1 <= g <= e_max (got g={g}, e_max={e_max})")
    return list(dict.fromkeys(budgets)), *kernels


def _omegas(kernels, point, g):
    """Transition matrices (len(g), n, n) of the chains (point[b], g[b]), from
    the points' kernels (points, 2, n, n): row j of budget g is row j - g of
    the idle kernel (row j if j < g) plus row j of the active one. A point's
    chains are adjacent, so its active kernel is added in place to each run:
    a gathered (B, n, n) copy of it would be a fresh mapping to fault in."""
    stay, point, g = np.arange(kernels.shape[2]), np.asarray(point), np.asarray(g)[:, None]
    omega = kernels[point[:, None], 0, np.where(stay >= g, stay - g, stay)]
    starts = [0] + (np.flatnonzero(point[1:] != point[:-1]) + 1).tolist()
    for s, e in zip(starts, starts[1:] + [len(point)]):
        omega[s:e] += kernels[point[s], 1]
    return omega


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
    (g,), *kernels = _kernels(p_idle_arrivals, p_active_arrivals, pi_idle, [g], e_max)
    return EnergyChain(omega=_omegas(np.array([kernels]), [0], [g])[0], g=g)


def _closure(edges):
    """Reflexive transitive closure of each boolean matrix of edges (B, n, n),
    as float32 0/1: entry [b, i, j] is 1 iff chain b can go from i to j.

    Munro's 2x2 block recursion, O(n^3) like a matrix product: with edges
    [[A, B], [C, D]], A* = close(A), D* = close(D + C A* B), B' = A* B D*,
    C' = D* C A* and A' = A* + A* B C'. A block of at most 64 states is
    squared ceil(log2 n) times instead. Each product counts paths, so it is
    clipped back to 0/1 before it can grow past float32's exact integers.
    """
    n = edges.shape[1]
    if n <= 64:
        closed = (edges | np.eye(n, dtype=bool)).astype(np.float32)
        for _ in range((n - 1).bit_length()):
            closed = np.minimum(closed @ closed, 1.0)
        return closed
    h = n // 2
    a = _closure(edges[:, :h, :h])
    ab = np.minimum(a @ edges[:, :h, h:].astype(np.float32), 1.0)
    c = edges[:, h:, :h].astype(np.float32)
    d = _closure(edges[:, h:, h:] | (c @ ab > 0.0))
    closed = np.empty(edges.shape, dtype=np.float32)
    closed[:, :h, h:] = np.minimum(ab @ d, 1.0)
    closed[:, h:, :h] = np.minimum(d @ np.minimum(c @ a, 1.0), 1.0)
    closed[:, :h, :h] = np.minimum(a + ab @ closed[:, h:, :h], 1.0)
    closed[:, h:, h:] = d
    return closed


def _residuals(omega, chi):
    """max |chi @ omega - chi| per chain of a stack."""
    return np.max(np.abs(np.matmul(chi[:, None], omega)[:, 0] - chi), axis=1)


def _solve_stack(omega):
    """stationary for each chain of a stack omega (B, n, n), failing chain by chain.

    Returns chi (B, n), a dict mapping each chain that got no stationary vector to
    the exception that says why, and the mask (B,) of the chains solved that are
    reducible. Each chain not failed gets the vector it gets when solved alone. A
    chain fails with a ChainError if it is not row-stochastic (NaN entries
    included) or if the states it reaches from 0 hold several closed classes, which
    no model chain's do (the module docstring says why). Else all of them reach the
    top one, t, as any that reaches 0 does (0 reaches t); the balance equations
    over them, with t's replaced by sum(chi) = 1 and identity rows for the others,
    have one solution. _closure reads this off in O(n^3), like the LU. Each
    diagonal entry of omega - I is minus its row's off-diagonal mass (Grassmann,
    Taksar & Heyman 1985): omega[j, j] - 1 rounds a leak below 1 ulp away. The
    chains share one batched LU solve, or are solved one by one if a singular
    member makes it raise; a chain missing _TOL fails with a StationarySolveError.
    """
    n, chi, failures = omega.shape[1], np.zeros(omega.shape[:2]), {}
    ok = np.all(np.abs(omega.sum(axis=2) - 1.0) <= 1e-9, axis=1) & np.all(omega >= 0, axis=(1, 2))
    for b in np.flatnonzero(~ok).tolist():
        failures[b] = ChainError("omega must be row-stochastic")
    closed = _closure(omega > 0.0) > 0.0
    reached = closed[:, 0]
    top = n - 1 - np.argmax(reached[:, ::-1], axis=1)
    certified = np.all(closed[np.arange(len(top)), :, top] | ~reached, axis=1)
    for b in np.flatnonzero(ok & ~certified).tolist():
        ok[b], failures[b] = False, ChainError(
            "the states reached from 0 hold several closed classes")
    solved, diag = np.flatnonzero(ok), np.arange(n)
    a = np.swapaxes(omega[solved], 1, 2)
    a[:, diag, diag] = 0.0
    a[:, diag, diag] = -a.sum(axis=1)  # minus each row's off-diagonal mass (GTH)
    a[np.arange(solved.size), top[solved]] = 1.0  # sum(chi) = 1; t is E_max if irreducible
    chain, state = np.nonzero(~reached[solved])  # identity rows: chi is 0 where not reached
    a[chain, state] = np.eye(n)[state]
    rhs = np.eye(n)[top[solved], :, None]  # (B, n, 1): numpy < 2 reads an (n, 1) rhs as vectors
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        x = np.zeros(rhs.shape)
        for k, b in enumerate(solved.tolist()):
            try:
                x[k] = np.linalg.solve(a[k:k + 1], rhs[k:k + 1])[0]
            except np.linalg.LinAlgError as exc:
                ok[b], failures[b] = False, exc
        x, solved = x[ok[solved]], solved[ok[solved]]
    direct = np.clip(x[..., 0], 0.0, None)
    chi[solved] = direct / direct.sum(axis=1, keepdims=True)
    residual = _residuals(omega, chi)
    for b in solved[~(residual[solved] < _TOL)].tolist():
        failures[b] = StationarySolveError(
            f"stationary residual {residual[b]:.3e} exceeds {_TOL:.1e}")
    return chi, failures, ok & ~closed.all(axis=(1, 2))


def stationary(chain: EnergyChain) -> np.ndarray:
    """Solve chi = chi @ omega, store it on the chain, and return it.

    The result is the long-run occupancy from the empty queue (the
    simulator's initial condition); for an irreducible chain that is the
    unique stationary vector. It and chain.reducible come from _solve_stack on a
    stack of one chain; if that chain fails, stationary raises and sets neither.
    """
    omega = np.asarray(chain.omega, dtype=float)
    if omega.ndim != 2 or not omega.shape[0] == omega.shape[1] > 0:
        raise ChainError(f"omega must be a nonempty square matrix (got shape {omega.shape})")
    chi, failures, reducible = _solve_stack(omega[None])
    if failures:
        raise failures[0]
    chain.chi, chain.reducible = chi[0], bool(reducible[0])
    return chain.chi


def success_probability(params: SystemParams, dc: DerivedConstants, g):
    """Probability the secondary packet decodes when g packets fund it,
    Pr{h_ssd >= b / g} = exp(-b / (g sigma_ssd))."""
    return math.exp(-dc.b / g / params.sigma_ssd)


def _availability(chain: EnergyChain):
    if chain.chi is None:
        raise ChainError("chain is not solved; call stationary() first")
    return min(1.0, float(chain.chi[chain.g:].sum()))  # a sum of chi may round above 1


def su_throughput(chain: EnergyChain, params: SystemParams, dc: DerivedConstants):
    """Secondary packets delivered per slot for the chain's energy budget."""
    return dc.pi_idle * success_probability(params, dc, chain.g) * _availability(chain)


def mu_e(chain: EnergyChain, params: SystemParams, dc: DerivedConstants):
    """Mean energy packets consumed per slot for the chain's budget."""
    return chain.g * dc.pi_idle * _availability(chain)


@dataclass(frozen=True)
class ThroughputReport:
    """The secondary's analytic summary at one operating point; the primary's
    mu_p, pu_throughput and pi_idle are on the point's DerivedConstants.

    mu_s_by_g maps every evaluated energy budget to its secondary
    throughput, in budget order: the budgets given, or those the search for
    g* solved. g_star is the first maximizer in budget order, chi its chain's
    stationary vector (build_chain rebuilds omega), mu_e its consumption rate
    and reducible the budgets of mu_s_by_g whose chains are reducible.
    """

    mu_e: float
    mu_s_by_g: dict[int, float]
    g_star: int
    mu_s_star: float
    chi: np.ndarray = field(repr=False, compare=False)
    reducible: frozenset = field(compare=False)


def _bounds(params, dc, kernels):
    """Upper bounds s(g) min(pi_idle, m / g) on mu_s(g), g = 1..E_max, from a
    point's kernels: in steady state the battery spends g pi_idle P(E >= g)
    packets per slot, no more than the mean m of min(arrivals, E_max) (row 0)."""
    idle, active = kernels
    g = np.arange(1, len(idle))
    s = np.exp(-dc.b / params.sigma_ssd / g)
    m = (idle[0] + active[0]) @ np.arange(len(idle))
    return s * np.minimum(dc.pi_idle, m / g)


def optimize_many(points) -> list:
    """optimize_g for every point (params, dc, pmfs, budgets) of a slice at once.

    Returns one entry per point, in order: its ThroughputReport, or the
    exception that failed it while the other points still get theirs. A
    budget's bound on its mu_s is _bounds if budgets is None (a search of
    1..E_max), else inf; a search's first largest bound is raised to inf.
    Round 1 solves each budget of bound inf, round 2 each other one whose
    bound is not below the best round-1 mu_s, less a 1e-9 margin so that
    rounding prunes no tie. In each round the chains of every (point, budget)
    pair with the same E_max are gathered, point by point in budget order,
    into stacks of at most _STACK_CELLS matrix entries, each one _solve_stack
    call, and su_throughput and mu_e score each chain solved. A chain that
    fails fails only its own point; the others get the values they get alone.
    Points with one E_max and the same pmf objects share their _arrival_rows.
    After round 2 each point's g_star is picked once, the first maximizer in
    budget order; its report keeps the chi solved at g_star and its reducible
    budgets. A MemoryError while its E_max's chains are built or solved fails
    a point naming E_max.
    """
    out = [None] * len(points)
    for e_max in dict.fromkeys(params.E_max for params, *_ in points):
        try:
            _optimize_e_max(points, e_max, out)
        except MemoryError as exc:  # fails each point of e_max without an entry
            out = [exc if r is None and p.E_max == e_max else r for (p, *_), r in zip(points, out)]
    return [ParameterError([f"E_max: {p.E_max} is too large for the analytic engine's memory"])
            if isinstance(r, MemoryError) else r for (p, *_), r in zip(points, out)]


def _optimize_e_max(points, e_max, out):
    """optimize_many for the points of one E_max, setting their entries of out."""
    # found[k]: kernels[k]'s point i, budgets, their bounds, mu_s, (mu_e, chi, reducible) by g
    found, kernels, rows = [], [], {}
    for i, (params, dc, pmfs, budgets) in enumerate(points):
        if params.E_max != e_max:
            continue
        try:
            order, *kernel = _kernels(*pmfs, dc.pi_idle, budgets, e_max, rows)
        except Exception as exc:
            out[i] = exc
            continue
        bound = _bounds(params, dc, kernel) if budgets is None else np.full(len(order), np.inf)
        bound[np.argmax(bound)] = np.inf  # round 1 solves the budgets of bound inf
        found.append((i, np.array(order), bound, {}, {}))
        kernels.append(kernel)
    kernels, per_stack = np.array(kernels), max(1, _STACK_CELLS // (e_max + 1) ** 2)
    for _ in range(2):  # the floor: inf in round 1, then the best mu_s less a 1e-9 margin
        chains = [(k, g) for k, (i, order, bound, mu, _) in enumerate(found) if out[i] is None
                  for g in order[~(bound < max(mu.values(), default=np.inf) * (1 - 1e-9))]
                  .tolist() if g not in mu]
        for s in range(0, len(chains), per_stack):
            stack = chains[s:s + per_stack]
            omega = _omegas(kernels, *zip(*stack))
            chi, failures, reducible = _solve_stack(omega)
            for b, (k, g) in enumerate(stack):
                i, _, _, mu, solved = found[k]
                if out[i] is None and b in failures:
                    out[i] = failures[b]
                if out[i] is None:
                    chain, (params, dc, *_) = EnergyChain(omega[b], g, chi[b]), points[i]
                    mu[g] = su_throughput(chain, params, dc)
                    solved[g] = mu_e(chain, params, dc), chi[b], reducible[b]
    for i, order, _, mu, solved in found:
        if out[i] is None:
            mu_s_by_g = {g: mu[g] for g in order.tolist() if g in mu}
            g = max(mu_s_by_g, key=mu_s_by_g.__getitem__)
            out[i] = ThroughputReport(solved[g][0], mu_s_by_g, g, mu_s_by_g[g], solved[g][1],
                                      frozenset(h for h in mu_s_by_g if solved[h][2]))


def optimize_g(params: SystemParams, dc: DerivedConstants,
               pmfs: tuple[HarvestPmf, HarvestPmf], budgets=None) -> ThroughputReport:
    """Evaluate the given energy budgets, or search 1..E_max for g* if None.

    The one-point case of optimize_many; it raises the point's failure. Each
    distinct budget's chain is solved once, as in stationary, and a reducible
    one is noted in report.reducible; the search solves only the budgets that
    energy balance cannot rule out. Ties break toward the budget given first,
    or the smallest when searching.
    """
    (report,) = optimize_many([(params, dc, pmfs, budgets)])
    if isinstance(report, Exception):
        raise report
    return report
