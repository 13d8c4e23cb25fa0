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

Most model chains are irreducible, and _irreducible proves it in O(n), where the
closure behind the certification costs O(n^3): a one-packet rise from every level
(an active slot's count of 1, or an idle one's of 1 below g and g + 1 from g on)
climbs 0 to E_max, and an idle slot that harvests nothing steps each level j >= g
to j - g. _solve_stack closes only the chains it leaves: no harvest, lambda_p = 0
with a pmf shorter than g + 2 bins, Poisson bins at 0 that underflow (lambda_e * T
> 745), pi_idle = 0, and 1x1 and hand-made omegas.

A chain is fixed by its pmf key (at pi_idle = 1 its nature part), pi_idle and g.
optimize_many searches g* for a slice of points at once, its bounds and mu_s held
as (point, budget) arrays, and solves each distinct chain it asks for once.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import harvest
from .config import DerivedConstants, ParameterError, SystemParams, derive, is_int

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


def _arrival_rows(heads):
    """Arrival kernels (..., e_max+1, e_max+1) of pmf heads (..., e_max), each pmf's
    first e_max bins (no later one lands below the top state), 0 past its support:
    from base level j, row j holds pmf(k - j) for k < e_max and, in column e_max,
    Pr{arrivals >= e_max - j}, clamped at 0 so that no pmf summing to 1 + 1ulp
    produces a negative transition probability."""
    e_max = heads.shape[-1]
    padded = np.concatenate((np.zeros(heads.shape), heads), axis=-1)
    rows = np.empty(heads.shape[:-1] + (e_max + 1, e_max + 1))
    step = padded.strides[-1]  # row j reads padded[e_max - j:2 e_max - j], a strided view
    rows[..., :e_max] = np.lib.stride_tricks.as_strided(
        padded[..., e_max:], rows.shape[:-1] + (e_max,), padded.strides[:-1] + (-step, step))
    rows[..., :e_max, e_max] = np.maximum(0.0, 1.0 - np.cumsum(heads, axis=-1)[..., ::-1])
    rows[..., e_max, e_max] = 1.0
    return rows


def _budgets(budgets, e_max):
    """The budgets checked, as ints, each once (1..e_max if None)."""
    if budgets is None:
        return range(1, e_max + 1)
    budgets = [g.item() if isinstance(g, (np.generic, np.ndarray)) and g.ndim == 0 else g
               for g in budgets]  # a numpy scalar stands for the Python number it holds
    if not budgets:
        raise ChainError("budgets: must be nonempty")
    for g in budgets:
        if not (is_int(g) and 1 <= g <= e_max):
            raise ChainError(f"need integers 1 <= g <= e_max (got g={g}, e_max={e_max})")
    return list(dict.fromkeys(budgets))


def _omegas(kernels, point, g):
    """Transition matrices (len(g), n, n) of the chains (point[b], g[b]), from
    the kernels (K, 2, n, n): row j of budget g is row j - g of the idle kernel
    (row j if j < g) plus row j of the active one. A kernel's chains come in
    runs, so its active kernel is added in place to each run: a gathered
    (B, n, n) copy of it would be a fresh mapping to fault in."""
    stay, point, g = np.arange(kernels.shape[2]), np.asarray(point), np.asarray(g)[:, None]
    omega = kernels[point[:, None], 0, np.where(stay >= g, stay - g, stay)]
    starts = [0] + (np.flatnonzero(point[1:] != point[:-1]) + 1).tolist()
    for s, e in zip(starts, starts[1:] + [len(point)]):
        omega[s:e] += kernels[point[s], 1]
    return omega


def build_chain(p_idle_arrivals: harvest.HarvestPmf, p_active_arrivals: harvest.HarvestPmf,
                pi_idle, g, e_max) -> EnergyChain:
    """Assemble the transition matrix of the energy queue: from state j the next
    state is min(base + arrivals, e_max), base = j - g on an idle slot with j >= g
    (a funded transmission), else j, and arrivals follow the slot type's pmf. The
    e_max column takes the complementary sums, which hold each pmf's tail_mass,
    so every row totals 1 by construction."""
    if not (is_int(e_max) and e_max >= 1):
        raise ChainError(f"need integers 1 <= g <= e_max (got e_max={e_max})")
    if not 0.0 <= pi_idle <= 1.0:
        raise ChainError(f"pi_idle must lie in [0, 1] (got {pi_idle})")
    (g,), heads = _budgets([g], e_max), np.zeros((1, 2, e_max))
    for row, pmf in zip(heads[0], (p_idle_arrivals, p_active_arrivals)):
        row[:min(e_max, pmf.probs.size)] = pmf.probs[:e_max]
    kernels = _arrival_rows(heads) * np.array([pi_idle, 1.0 - pi_idle])[:, None, None]
    return EnergyChain(omega=_omegas(kernels, [0], [g])[0], g=g)


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


def _irreducible(omega):
    """Mask (B,) of the chains of a stack omega (B, n, n) that two O(n) path checks
    prove irreducible: (i) omega[j, j + 1] > 0 for every j < n - 1, and (ii) with s
    the stride of the top row's lowest move, s >= 1 and omega[j, j - s] > 0 for
    every j >= s. By (i) 0 climbs to every state; by (ii) a state falls by s until
    it is below s, (i) climbs it to s and (ii) steps it to 0. In a model chain s is
    the budget g: an idle slot that spends g and harvests nothing."""
    n, chains = omega.shape[1], np.arange(len(omega))[:, None]
    stride = n - 1 - np.argmax(omega[:, -1] > 0.0, axis=1)[:, None]
    fall = np.arange(n) - stride  # state j's target under (ii), negative below s
    return (np.all(np.diagonal(omega, 1, 1, 2) > 0.0, axis=1) & (stride[:, 0] >= 1)
            & np.all((omega[chains, np.arange(n), np.maximum(fall, 0)] > 0.0) | (fall < 0), axis=1))


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
    have one solution. A chain _irreducible proves so in O(n) reaches every state
    and t = n - 1; _closure reads the reached states, t and the check off the
    others in O(n^3), like the LU (those the module docstring lists). Each
    diagonal entry of omega - I is minus its row's off-diagonal mass (Grassmann,
    Taksar & Heyman 1985): omega[j, j] - 1 rounds a leak below 1 ulp away. The
    chains share one batched LU solve, or are solved one by one if a singular
    member makes it raise; a chain missing _TOL fails with a StationarySolveError.
    """
    n, chi, failures = omega.shape[1], np.zeros(omega.shape[:2]), {}
    ok = np.all(np.abs(omega.sum(axis=2) - 1.0) <= 1e-9, axis=1) & np.all(omega >= 0, axis=(1, 2))
    for b in np.flatnonzero(~ok).tolist():
        failures[b] = ChainError("omega must be row-stochastic")
    reached, top = np.ones(omega.shape[:2], dtype=bool), np.full(len(omega), n - 1)
    reducible, rest = np.zeros(len(omega), dtype=bool), np.flatnonzero(ok & ~_irreducible(omega))
    if rest.size:
        closed = _closure(omega[rest] > 0.0) > 0.0
        reached[rest], reducible[rest] = closed[:, 0], ~closed.all(axis=(1, 2))
        top[rest] = n - 1 - np.argmax(closed[:, 0, ::-1], axis=1)
        certified = np.all(closed[np.arange(rest.size), :, top[rest]] | ~closed[:, 0], axis=1)
        for b in rest[~certified].tolist():
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
    return chi, failures, ok & reducible


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


def _availability(chi, g):
    if chi is None:
        raise ChainError("chain is not solved; call stationary() first")
    return min(1.0, float(np.add.reduce(chi[g:])))  # chi[g:].sum(); it may round above 1


def su_throughput(chain: EnergyChain, params: SystemParams, dc: DerivedConstants):
    """Secondary packets delivered per slot for the chain's energy budget."""
    return dc.pi_idle * success_probability(params, dc, chain.g) * _availability(chain.chi, chain.g)


def mu_e(chain: EnergyChain, params: SystemParams, dc: DerivedConstants):
    """Mean energy packets consumed per slot for the chain's budget."""
    return chain.g * dc.pi_idle * _availability(chain.chi, chain.g)


@dataclass(frozen=True)
class ThroughputReport:
    """The secondary's analytic summary at one operating point. mu_s_by_g maps each
    evaluated energy budget to its secondary throughput, in budget order: the
    budgets given, or those the search for g* solved. g_star is the first maximizer
    in budget order, chi its chain's stationary vector (build_chain rebuilds omega),
    mu_e its consumption rate, reducible the budgets of mu_s_by_g whose chains are
    reducible and dc the point's DerivedConstants (the primary's mu_p,
    pu_throughput and pi_idle), which the engine derived."""

    mu_e: float
    mu_s_by_g: dict[int, float]
    g_star: int
    mu_s_star: float
    chi: np.ndarray = field(repr=False, compare=False)
    reducible: frozenset = field(compare=False)
    dc: DerivedConstants = field(compare=False)


def _bounds(c, pi_idle, m, g):
    """Upper bounds s(g) min(pi_idle, m / g) on mu_s(g), s(g) = exp(c / g), at budgets
    g (points, budgets), from each point's c = -b / sigma_ssd, pi_idle and mean m of
    min(arrivals, E_max) (points, 1): in steady state the battery spends
    g pi_idle P(E >= g) packets per slot, no more than m."""
    return np.exp(c / g) * np.minimum(pi_idle, m / g)


def optimize_many(points) -> list:
    """optimize_g for every point (params, budgets) of a slice at once: per point, in
    order, its ThroughputReport or the exception that failed it (derive's
    ParameterError, say) while the others get theirs. Each E_max builds the pmfs
    of its distinct harvest._pmf_keys (at pi_idle 1, which scales the active kernel
    by 0, of their nature parts) in one array, then in one call the kernels, one per
    distinct key and pi_idle. A failure there, or a chain's in _search, fails each
    point that needs it; a MemoryError becomes a ParameterError naming E_max. A
    budget scores su_throughput's mu_s, in its order of operations."""
    entries = []
    for params, budgets in points:
        try:
            dc = derive(params)
        except ParameterError as exc:
            entries.append(exc)
            continue
        key = harvest._pmf_key(params, dc)
        entries.append((params, dc, budgets, key[:2] if dc.pi_idle == 1 else key))
    return _optimize(entries, harvest.arrival_heads)


def _optimize(entries, arrival_heads):
    """optimize_many over entries, each a point's failure or (params, dc, budgets, key);
    arrival_heads(first, e_max) gives the (K, 2, e_max) pmf heads of K keys' first entries.
    _search gets a row (i, budgets, (E_max, kernel), c, pi_idle, m, search) per point searched."""
    out = [entry if isinstance(entry, Exception) else None for entry in entries]
    groups, live, scaled = {}, [], {}
    for i, entry in enumerate(entries):
        if out[i] is None:  # the key of the point's kernel
            groups.setdefault(entry[0].E_max, {})[i] = entry[3], entry[1].pi_idle
    for e_max, group in groups.items():
        kernel = {k: n for n, k in enumerate(dict.fromkeys(group.values()))}
        first = {key: i for i, (key, _) in reversed(group.items())}  # each pmf key's first point
        index = {key: n for n, key in enumerate(first)}
        try:  # before the budgets: a huge E_max fails here, not in their check
            heads = arrival_heads([entries[i] for i in first.values()], e_max)
            kernels = _arrival_rows(heads[[index[key] for key, _ in kernel]])  # one per kernel,
            kernels *= np.array([(pi, 1.0 - pi) for _, pi in kernel])[:, :, None, None]  # scaled
        except Exception as exc:
            out = [exc if i in group else r for i, r in enumerate(out)]
            continue
        levels = np.arange(e_max + 1.0)  # a float dot gives the int dot's sum, in less time
        m = [row @ levels for row in kernels[:, 0, 0] + kernels[:, 1, 0]]
        scaled[e_max] = kernels
        for i, k in group.items():
            params, dc, budgets, _ = entries[i]
            try:
                order = list(_budgets(budgets, e_max))
            except Exception as exc:
                out[i] = exc
                continue
            live.append((i, order, (e_max, kernel[k]), -dc.b / params.sigma_ssd, dc.pi_idle,
                         m[kernel[k]], budgets is None))
    if live:
        _search(entries, live, scaled, out)
    return [ParameterError([f"E_max: {e[0].E_max} is too large for the analytic engine's memory"])
            if isinstance(r, MemoryError) else r for e, r in zip(entries, out)]


def _search(entries, live, scaled, out):
    """_optimize's two rounds over its rows live, given each E_max's scaled kernels; sets out[i]
    for each row's point i. _bounds bounds a search's budgets, its first largest raised to inf,
    and inf the budgets given. Round 1 solves each budget of bound inf, round 2 each other one
    whose bound is not below the best round-1 mu_s less a 1e-9 margin, so that rounding prunes no
    tie. table maps each chain (E_max, kernel, g) to (chi, _availability, reducible, failure). A
    round solves those it asks for that are not in it, per E_max in the order first asked, in
    stacks of at most _STACK_CELLS matrix entries; a MemoryError fails the E_max's rest."""
    width = max(len(row[1]) for row in live)
    budget = np.array([row[1] + [0] * (width - len(row[1])) for row in live])  # 0 pads a row
    c, pi, m, search = np.array([row[3:] for row in live]).T[:, :, None]
    bound = np.where(search > 0, _bounds(c, pi, m, np.maximum(budget, 1)), np.inf)
    bound[budget == 0] = -np.inf
    bound[np.arange(len(live)), bound.argmax(axis=1)] = np.inf  # round 1 solves these
    todo, mu, table, floor = budget > 0, np.full(budget.shape, -np.inf), {}, np.inf
    for _ in range(2):  # the floor: inf in round 1, then the best mu_s less a 1e-9 margin
        ask = todo & ~(bound < floor)
        if not ask.any():
            break
        todo &= ~ask
        p, j = np.nonzero(ask)
        at, gs = p.tolist(), budget[p, j].tolist()
        cells = [live[r][2] + (g,) for r, g in zip(at, gs)]  # the chains asked, row by row
        new = {}  # per E_max, the chains not in the table yet
        for cell in dict.fromkeys(c for c in cells if c not in table):
            new.setdefault(cell[0], []).append(cell)
        for e_max, chains in new.items():
            per_stack = max(1, _STACK_CELLS // (e_max + 1) ** 2)
            try:
                for stack in [chains[s:s + per_stack] for s in range(0, len(chains), per_stack)]:
                    _, kernel, g = zip(*stack)
                    chi, failures, red = _solve_stack(_omegas(scaled[e_max], kernel, g))
                    table.update((cell, (chi[b], _availability(chi[b], cell[2]), red[b],
                                         failures.get(b))) for b, cell in enumerate(stack))
            except MemoryError as exc:
                table.update((cell, (None, 0.0, False, exc)) for cell in chains if cell not in table)
        scores = []  # mu_s as su_throughput computes it; a failed row's goes unread
        for r, g, cell in zip(at, gs, cells):
            (params, dc, *_), (_, availability, _, failure) = entries[live[r][0]], table[cell]
            if failure is not None and out[live[r][0]] is None:  # the row's first failing budget
                out[live[r][0]], todo[r] = failure, False
            scores.append(dc.pi_idle * success_probability(params, dc, g) * availability)
        mu[p, j] = scores
        floor = mu.max(axis=1, keepdims=True) * (1 - 1e-9)
    star = mu.argmax(axis=1).tolist()  # the first maximizer in budget order; -inf: not solved
    for (i, _, key, *_), row_g, row_mu, b in zip(live, budget.tolist(), mu.tolist(), star):
        if out[i] is None:
            mu_s, g, dc = {h: x for h, x in zip(row_g, row_mu) if x >= 0.0}, row_g[b], entries[i][1]
            chi, availability, *_ = table[key + (g,)]
            reducible = frozenset(h for h in mu_s if table[key + (h,)][2])
            out[i] = ThroughputReport(g * dc.pi_idle * availability, mu_s, g, mu_s[g], chi,
                                      reducible, dc)


def optimize_g(params: SystemParams, budgets=None) -> ThroughputReport:
    """Evaluate the given energy budgets, or search 1..E_max for g* if None: the
    one-point case of optimize_many, raising the point's failure. Each distinct
    budget's chain is solved once, and the search solves only the budgets that
    energy balance cannot rule out. Ties break toward the budget given first, or
    the smallest when searching."""
    (report,) = optimize_many([(params, budgets)])
    if isinstance(report, Exception):
        raise report
    return report
