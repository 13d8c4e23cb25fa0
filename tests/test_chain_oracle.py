"""The vectorized chain build, the scipy-free stationary solver, the
transitive closure that certifies chains for its LU solve, the stacked
budget search, the stacks shared by a slice's points, the closed-form
Poisson pmf, the pmfs cut at E_max and the pmf tables a slice builds as
arrays, checked against the implementations they replaced.

The references below are the former library code, kept as oracles: a
per-entry loop for the transition matrix, a least-squares solve of the
balance equations with the normalization row appended, a
strongly-connected-components test with an absorption-probability mixture
for reducible chains, a one-budget-at-a-time search over the energy
budgets, scipy.stats for the ambient Poisson pmf, and pmfs over their whole
TAIL_EPS support for the pmfs cut at E_max. The closure is checked against
scipy.sparse.csgraph and the frontier sweeps it replaced (oracles.py), and
the search for g* that energy balance prunes against the search over every
budget. The arrays of pmfs and kernels an E_max builds for all its keys at
once are checked bit for bit against the per-point path they replaced
(arrival_pmfs, then a gather of each pmf's rows; oracles.py).
"""

import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from ehshare import dbm_to_watts, default_params, derive, energy_chain, harvest
from ehshare.energy_chain import (ChainError, EnergyChain, build_chain, optimize_g, optimize_many,
                                  stationary, success_probability)
from ehshare.harvest import (TAIL_EPS, HarvestPmf, arrival_pmfs, combined_pmf, nature_pmf,
                             rf_pmf)
from oracles import (assert_search_matches, frontier_verdicts, per_point_kernels,
                     reference_search, scalar_rf_pmf)

FULL = 1 << 20  # a pmf support cap above every TAIL_EPS support used here


def _at(p, m):
    return p[m] if 0 <= m < len(p) else 0.0


def _head(cum, m):
    if m <= 0:
        return 0.0
    return cum[min(m, len(cum)) - 1]


def reference_omega(pp, pa, pi, g, e_max):
    """Transition matrix built entry by entry."""
    cum_pp, cum_pa = np.cumsum(pp), np.cumsum(pa)
    pi_bar = 1.0 - pi
    n = e_max + 1
    omega = np.zeros((n, n))
    for j in range(n):
        base = j - g if j >= g else j
        for k in range(e_max):
            omega[j, k] = pi * _at(pp, k - base) + pi_bar * _at(pa, k - j)
        omega[j, e_max] = pi * max(0.0, 1.0 - _head(cum_pp, e_max - base)) \
            + pi_bar * max(0.0, 1.0 - _head(cum_pa, e_max - j))
    return omega


def lstsq_stationary(omega):
    """Stationary vector of an irreducible chain by least squares on the
    balance equations with the normalization row appended."""
    n = omega.shape[0]
    a = np.vstack([omega.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    chi, *_ = np.linalg.lstsq(a, b, rcond=None)
    chi = np.clip(chi, 0.0, None)
    return chi / chi.sum()


def reference_stationary(omega, start_state=0):
    """(chi, reducible) by strongly connected components.

    An irreducible chain gets the least-squares solve. A reducible one gets the
    mixture of its terminal classes' stationary vectors, weighted by the
    absorption probabilities from start_state.
    """
    n = omega.shape[0]
    n_comp, labels = connected_components(
        csr_matrix(omega > 0.0), directed=True, connection="strong")
    if n_comp == 1:
        return lstsq_stationary(omega), False

    rows, cols = np.nonzero(omega > 0.0)
    terminal = set(range(n_comp)) - {labels[r] for r, c in zip(rows, cols)
                                     if labels[r] != labels[c]}
    term_states = {c: np.flatnonzero(labels == c) for c in terminal}
    start_comp = labels[start_state]
    if start_comp in terminal:
        weights = {start_comp: 1.0}
    else:
        transient = np.flatnonzero(~np.isin(labels, list(terminal)))
        idx = {s: i for i, s in enumerate(transient)}
        q = omega[np.ix_(transient, transient)]
        term_list = sorted(terminal)
        r = np.column_stack([omega[np.ix_(transient, term_states[c])].sum(axis=1)
                             for c in term_list])
        absorb = np.linalg.solve(np.eye(len(transient)) - q, r)
        weights = {c: float(absorb[idx[start_state], i]) for i, c in enumerate(term_list)}

    chi = np.zeros(n)
    for c, w in weights.items():
        if w <= 0.0:
            continue
        states = term_states[c]
        sub = omega[np.ix_(states, states)]
        chi[states] = w * (lstsq_stationary(sub) if len(states) > 1 else 1.0)
    return chi / chi.sum(), True


@settings(max_examples=80, deadline=None)
@given(lambda_p=st.sampled_from([0.0, 0.4, 1.0]), eta=st.sampled_from([0.0, 0.6]),
       lambda_e=st.sampled_from([0.0, 0.5, 800.0]), e_max=st.sampled_from([1, 6, 40]))
def test_chain_matches_loop_build_and_component_solver(lambda_p, eta, lambda_e, e_max):
    p = default_params(lambda_p=lambda_p, eta=eta, lambda_e=lambda_e, E_max=e_max, G=1)
    dc = derive(p)
    idle, active = arrival_pmfs(p, dc)
    pi = dc.pi_idle
    for g in range(1, e_max + 1):
        chain = build_chain(idle, active, pi, g, e_max)
        assert np.array_equal(chain.omega, reference_omega(idle.probs, active.probs, pi, g, e_max))
        ref_chi, reducible = reference_stationary(chain.omega)
        chi = stationary(chain)
        assert chain.reducible is reducible
        assert np.max(np.abs(chi - ref_chi)) <= 1e-12


def reference_optimize(p):
    """(mu_s_by_g, g_star, reducible budgets) from the loop build and the
    component solver, one budget at a time."""
    dc = derive(p)
    idle, active = arrival_pmfs(p, dc)
    pi = dc.pi_idle
    mu_s_by_g, reducible = {}, []
    for g in range(1, p.E_max + 1):
        chi, red = reference_stationary(reference_omega(idle.probs, active.probs, pi, g, p.E_max))
        mu_s_by_g[g] = pi * success_probability(p, dc, g) * float(chi[g:].sum())
        reducible += [g] * red
    g_star = max(mu_s_by_g, key=lambda g: (mu_s_by_g[g], -g))
    return mu_s_by_g, g_star, reducible


def _optimize_every_budget(p):
    """Every budget's report; the search for g* must match it."""
    report = optimize_g(p, range(1, p.E_max + 1))
    assert_search_matches(report, p)
    return report


def _assert_matches_reference(report, ref):
    mu_s_by_g, g_star, reducible = ref
    assert list(report.mu_s_by_g) == list(mu_s_by_g)
    assert max(abs(report.mu_s_by_g[g] - v) for g, v in mu_s_by_g.items()) <= 1e-12
    assert report.g_star == g_star
    assert report.reducible == set(reducible)


@settings(max_examples=60, deadline=None)
@given(lambda_p=st.sampled_from([0.0, 0.4, 1.0]), eta=st.sampled_from([0.0, 0.6]),
       lambda_e=st.sampled_from([0.0, 0.5, 800.0]), e_max=st.sampled_from([1, 6, 40]))
def test_stacked_budget_search_matches_per_budget_reference(lambda_p, eta, lambda_e, e_max):
    # report.reducible holds the budgets the component test calls reducible
    p = default_params(lambda_p=lambda_p, eta=eta, lambda_e=lambda_e, E_max=e_max, G=1)
    _assert_matches_reference(_optimize_every_budget(p), reference_optimize(p))


def test_large_battery_without_primary_traffic_takes_the_lu():
    # lambda_p=0, lambda_e=0.5: most budgets leave the top states unreached;
    # E_max=150 takes the closure's block recursion two levels deep
    for e_max, unreached in [(100, 76), (150, 126)]:
        p = default_params(lambda_p=0.0, lambda_e=0.5, E_max=e_max, G=1)
        ref = reference_optimize(p)
        assert len(ref[2]) == unreached
        _assert_matches_reference(_optimize_every_budget(p), ref)


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 257])
def test_closure_matches_csgraph_reachability(n, b):
    # 64 states is the largest block squared directly; 65, 129 and 257 recurse
    # one to three levels deep, into halves of odd and even sizes. A shuffled
    # path needs the longest walks.
    rng = np.random.default_rng(10 * n + b)
    path = np.zeros((b, n, n), dtype=bool)
    for k in range(b):
        order = rng.permutation(n)
        path[k, order[:-1], order[1:]] = True
    for edges in [rng.random((b, n, n)) < density for density in (0.0, 1 / n, 3 / n, 0.5)] + [path]:
        closed = energy_chain._closure(edges)
        assert closed.dtype == np.float32 and np.all((closed == 0.0) | (closed == 1.0))
        for k in range(b):
            hops = shortest_path(csr_matrix(edges[k]), unweighted=True)
            assert np.array_equal(closed[k] == 1.0, np.isfinite(hops))


@pytest.mark.parametrize("e_max", [6, 40, 100, 150])
def test_certification_matches_the_frontier_sweeps(e_max):
    # the closure must fail, and solve and call reducible, exactly the chains
    # the frontier sweeps it replaced rejected, and certified and called
    # reducible. Model chains are all certified, so a sparse random stack
    # adds chains whose reached states hold several closed classes.
    stacks = []
    for lambda_p, lambda_e in itertools.product((0.0, 0.4, 1.0), (0.0, 0.5, 800.0)):
        p = default_params(lambda_p=lambda_p, lambda_e=lambda_e, E_max=e_max, G=1)
        dc = derive(p)
        idle, active = arrival_pmfs(p, dc)
        stacks.append(np.array([build_chain(idle, active, dc.pi_idle, g, e_max).omega
                                for g in range(1, e_max + 1)]))
    n = e_max + 1
    edges = np.random.default_rng(e_max).random((e_max, n, n)) < 1.5 / n
    edges |= ~edges.any(axis=2, keepdims=True) & np.eye(n, dtype=bool)
    stacks.append(edges / edges.sum(axis=2, keepdims=True))
    assert not frontier_verdicts(stacks[-1])[0].all()
    for omega in stacks:
        certified, reducible = frontier_verdicts(omega)
        # split by verdict, so that each chain is solved in a stack of other verdicts
        for part in (reducible, ~reducible):
            _, failures, solved_reducible = energy_chain._solve_stack(omega[part])
            assert np.array_equal(solved_reducible, (reducible & certified)[part])
            assert list(failures) == np.flatnonzero(~certified[part]).tolist()
            assert all(isinstance(f, ChainError) and "closed classes" in str(f)
                       for f in failures.values())


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 130), b=st.integers(1, 3), density=st.sampled_from([0.0, 0.02, 0.1, 0.5]),
       up=st.booleans(), stride=st.one_of(st.none(), st.integers(0, 129)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, b=1, density=0.5, up=True, stride=None, seed=0)
@example(n=2, b=2, density=0.0, up=True, stride=1, seed=0)
@example(n=3, b=1, density=0.0, up=True, stride=0, seed=0)
@example(n=5, b=1, density=0.0, up=False, stride=2, seed=0)
@example(n=64, b=1, density=0.0, up=True, stride=63, seed=0)
@example(n=65, b=3, density=0.1, up=True, stride=7, seed=1)
@example(n=130, b=1, density=0.0, up=True, stride=2, seed=2)
def test_the_path_checks_prove_only_irreducible_chains(n, b, density, up, stride, seed):
    # wherever _irreducible holds, the closure is all ones and csgraph finds one
    # strong component. Forcing the super-diagonal and a stride s (the top row's
    # lowest move n-1-s, and j -> j-s for every j >= s) makes it hold if s >= 1;
    # at s = 0 the top state only loops, and it must not hold. Without the
    # super-diagonal a stride alone only falls.
    rng = np.random.default_rng(seed)
    edges = rng.random((b, n, n)) < density
    if up:
        edges[:, np.arange(n - 1), np.arange(1, n)] = True
    forced = stride is not None and stride < n
    if forced:
        edges[:, n - 1, :n - 1 - stride] = False
        edges[:, np.arange(stride, n), np.arange(n - stride)] = True
    omega = edges / np.maximum(edges.sum(axis=2, keepdims=True), 1)
    proven = energy_chain._irreducible(omega)
    assert proven.shape == (b,)
    if forced and up:
        assert proven.all() if stride >= 1 else not proven.any()
    closed = energy_chain._closure(edges)
    for k in np.flatnonzero(proven).tolist():
        assert np.all(closed[k] == 1.0)
        assert connected_components(csr_matrix(edges[k]), connection="strong")[0] == 1


@pytest.mark.parametrize("e_max", [6, 40, 100, 150])
def test_the_path_checks_change_no_solve(e_max, monkeypatch):
    # with _irreducible switched off every chain takes the closure: chi bytes,
    # failures (type and text) and the reducible mask must not move. The stacks
    # are those of test_certification_matches_the_frontier_sweeps.
    stacks = []
    for lambda_p, lambda_e in itertools.product((0.0, 0.4, 1.0), (0.0, 0.5, 800.0)):
        p = default_params(lambda_p=lambda_p, lambda_e=lambda_e, E_max=e_max, G=1)
        dc = derive(p)
        idle, active = arrival_pmfs(p, dc)
        stacks.append(np.array([build_chain(idle, active, dc.pi_idle, g, e_max).omega
                                for g in range(1, e_max + 1)]))
    n = e_max + 1
    edges = np.random.default_rng(e_max).random((e_max, n, n)) < 1.5 / n
    edges |= ~edges.any(axis=2, keepdims=True) & np.eye(n, dtype=bool)
    stacks.append(edges / edges.sum(axis=2, keepdims=True))
    proven = [energy_chain._irreducible(omega) for omega in stacks]
    assert any(mask.any() for mask in proven)
    with_proof = [energy_chain._solve_stack(omega) for omega in stacks]
    monkeypatch.setattr(energy_chain, "_irreducible", lambda omega: np.zeros(len(omega), bool))
    for omega, (chi, failures, reducible) in zip(stacks, with_proof):
        closure_chi, closure_failures, closure_reducible = energy_chain._solve_stack(omega)
        assert chi.tobytes() == closure_chi.tobytes()
        assert np.array_equal(reducible, closure_reducible)
        assert {b: (type(f), str(f)) for b, f in failures.items()} == \
            {b: (type(f), str(f)) for b, f in closure_failures.items()}
    if e_max == 100:  # lambda_p = 0, lambda_e = 0.5: 76 budgets leave top states unreached
        assert with_proof[1][2].sum() == 76 and proven[1].any()


def test_uneven_stacks_match_one_stack_and_the_reference(monkeypatch):
    # lambda_p=0, lambda_e=0.5: some budgets leave the top states unreachable
    # and others do not, so stacks mix reducible and irreducible chains
    p = default_params(lambda_p=0.0, lambda_e=0.5, E_max=40, G=1)
    ref = reference_optimize(p)
    assert 0 < len(ref[2]) < p.E_max
    cells = (p.E_max + 1) ** 2
    monkeypatch.setattr(energy_chain, "_STACK_CELLS", p.E_max * cells)
    whole = _optimize_every_budget(p)
    monkeypatch.setattr(energy_chain, "_STACK_CELLS", 3 * cells + 5)
    split = _optimize_every_budget(p)  # 13 stacks of 3 and one of 1
    _assert_matches_reference(split, ref)
    assert split.mu_s_by_g == whole.mu_s_by_g and split.reducible == whole.reducible
    assert np.array_equal(split.chi, whole.chi)


def _slice_inputs(points):
    """optimize_many inputs of (E_max, lambda_e, lambda_p, eta, fixed G or None)."""
    inputs = []
    for e_max, lambda_e, lambda_p, eta, g in points:
        g = None if g is None else min(g, e_max)
        p = default_params(E_max=e_max, lambda_e=lambda_e, lambda_p=lambda_p, eta=eta, G=g or 1)
        inputs.append((p, None if g is None else (g,)))
    return inputs


@settings(max_examples=30, deadline=None)
@given(points=st.lists(st.tuples(st.sampled_from([1, 6, 10, 40]),
                                 st.sampled_from([0.0, 0.5, 800.0]),
                                 st.sampled_from([0.0, 0.4, 1.0]), st.sampled_from([0.0, 0.6]),
                                 st.one_of(st.none(), st.integers(1, 40))),
                       min_size=1, max_size=6),
       cells=st.sampled_from([60, 300, 1000, 5000, 2 ** 15]))
@example(points=[(1, 0.0, 0.0, 0.0, None), (1, 0.5, 0.0, 0.6, None), (1, 0.5, 0.4, 0.0, None)],
         cells=60)
def test_slice_stacks_match_each_point_solved_alone(points, cells):
    # small cell budgets split stacks unevenly across points and budgets. The
    # example keys a point at pi_idle = 1 by its ambient mean alone, which a point
    # with a point-mass RF law (eta = 0) and the same mean must not take for its own
    inputs = _slice_inputs(points)
    with mock.patch.object(energy_chain, "_STACK_CELLS", cells):
        reports = optimize_many(inputs)
        alone = [optimize_g(*x) for x in inputs]
    for report, ref in zip(reports, alone):
        assert report.mu_s_by_g == ref.mu_s_by_g and report.reducible == ref.reducible
        assert report.g_star == ref.g_star and report.mu_e == ref.mu_e
        assert np.array_equal(report.chi, ref.chi)


def test_reducible_budgets_across_a_slice_match_the_reference(monkeypatch):
    points = [(6, 800.0, 0.4, 0.6, None), (40, 0.5, 0.0, 0.6, None), (10, 0.0, 0.4, 0.6, None),
              (40, 800.0, 1.0, 0.0, None), (1, 0.5, 0.0, 0.0, None), (6, 0.5, 0.0, 0.6, None)]
    inputs = [(p, range(1, p.E_max + 1)) for p, _ in _slice_inputs(points)]
    refs = [reference_optimize(p) for p, *_ in inputs]
    monkeypatch.setattr(energy_chain, "_STACK_CELLS", 1000)
    reports = optimize_many(inputs)
    assert sum(len(ref[2]) for ref in refs) > 0
    for report, ref, (p, _) in zip(reports, refs, inputs):
        _assert_matches_reference(report, ref)
        assert_search_matches(report, p)


def _bounds_of(p, dc, pmfs):
    # m, the mean of a slot's arrivals capped at E_max, from row 0 of any budget's chain
    m = build_chain(*pmfs, dc.pi_idle, 1, p.E_max).omega[0] @ np.arange(p.E_max + 1)
    return energy_chain._bounds(-dc.b / p.sigma_ssd, dc.pi_idle, m, np.arange(1, p.E_max + 1))


@settings(max_examples=40, deadline=None)
@given(lambda_p=st.sampled_from([0.0, 0.4, 1.0]), eta=st.sampled_from([0.0, 0.6, 1.0]),
       lambda_e=st.sampled_from([0.0, 0.5, 800.0]),
       p_max_dbm=st.sampled_from([1.76, 10.0, 40.0, 50.0]), e_max=st.sampled_from([1, 6, 40, 100]))
def test_energy_balance_bounds_every_budget(lambda_p, eta, lambda_e, p_max_dbm, e_max):
    # mu_s(g) = pi_idle s(g) P(E >= g) <= s(g) min(pi_idle, m / g), as the battery
    # spends g pi_idle P(E >= g) per slot and accepts at most m = E[min(A, E_max)]
    p = default_params(lambda_p=lambda_p, eta=eta, lambda_e=lambda_e,
                       P_max=dbm_to_watts(p_max_dbm), E_max=e_max, G=1)
    dc = derive(p)
    pmfs = arrival_pmfs(p, dc)
    report = optimize_g(p, range(1, e_max + 1))
    bound = _bounds_of(p, dc, pmfs)
    assert all(report.mu_s_by_g[g] <= bound[g - 1] * (1 + 1e-12) for g in report.mu_s_by_g)


@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.tuples(st.sampled_from([0.0, 0.05, 0.4, 0.8, 1.0]),
                                 st.sampled_from([0.0, 0.6, 1.0]),
                                 st.sampled_from([0.0, 0.5, 2.0, 50.0, 800.0]),
                                 st.sampled_from([1, 3, 6, 10, 40, 100]),
                                 st.sampled_from([0.5, 1e-3])), min_size=1, max_size=4))
def test_pruned_search_equals_the_exhaustive_one(points):
    # a slice's round-2 stacks mix the budgets that several points keep
    inputs = []
    for lambda_p, eta, lambda_e, e_max, sigma_ppd in points:
        p = default_params(lambda_p=lambda_p, eta=eta, lambda_e=lambda_e, E_max=e_max,
                           sigma_ppd=sigma_ppd, G=1)
        inputs.append(p)
    searched = optimize_many([(p, None) for p in inputs])
    full = optimize_many([(p, range(1, p.E_max + 1)) for p in inputs])
    for s, f in zip(searched, full):
        assert (s.g_star, s.mu_s_star, s.mu_e) == (f.g_star, f.mu_s_star, f.mu_e)
        assert np.array_equal(s.chi, f.chi)
        assert s.mu_s_by_g.items() <= f.mu_s_by_g.items()
        assert s.reducible == f.reducible & s.mu_s_by_g.keys()
        assert list(s.mu_s_by_g) == sorted(s.mu_s_by_g)


def test_bounds_of_zero_keep_every_budget_and_the_smallest_wins(monkeypatch):
    # lambda_p = lambda_e = 0: nothing is harvested, so m = 0, every bound and
    # every mu_s is 0, nothing is pruned and all budgets tie
    p = default_params(lambda_p=0.0, lambda_e=0.0, eta=0.6, E_max=10, G=1)
    dc = derive(p)
    pmfs = arrival_pmfs(p, dc)
    assert not np.any(_bounds_of(p, dc, pmfs))
    stacks, solve_stack = [], energy_chain._solve_stack
    monkeypatch.setattr(energy_chain, "_solve_stack",
                        lambda omega: stacks.append(len(omega)) or solve_stack(omega))
    report = optimize_g(p)
    assert list(report.mu_s_by_g) == list(range(1, 11)) and stacks == [1, 9]
    assert report.g_star == 1 and report.mu_s_star == 0.0
    # round 1 solving the largest budget must not let it win the tie
    monkeypatch.setattr(energy_chain, "_bounds", lambda *args: np.arange(1.0, 11.0))
    report = optimize_g(p)
    assert report.g_star == 1 and list(report.mu_s_by_g) == list(range(1, 11))


def test_a_bound_rounded_below_a_tie_prunes_nothing(monkeypatch):
    # lambda_e = 800 keeps the battery full and sigma_ssd = 1e30 rounds s(g) to
    # 1, so every budget ties at mu_s = pi_idle. Bounds 1e-12 below that tie,
    # as rounding could leave them, must not prune the smaller budgets.
    p = default_params(lambda_e=800.0, sigma_ssd=1e30, E_max=6, G=1)
    dc = derive(p)
    pi = dc.pi_idle
    assert set(optimize_g(p, range(1, 7)).mu_s_by_g.values()) == {pi}
    monkeypatch.setattr(energy_chain, "_bounds",
                        lambda *args: np.array([pi * (1 - 1e-12)] * 5 + [pi]))
    report = optimize_g(p)
    assert report.g_star == 1 and list(report.mu_s_by_g) == list(range(1, 7))


@pytest.mark.parametrize("budget", ["pruned", "solved"])
def test_a_fault_fails_a_point_only_in_a_budget_it_solves(budget, monkeypatch):
    # three points of one E_max, so that their chains share stacks
    inputs = [p for p, _ in _slice_inputs([(10, 0.5, 0.4, 0.6, None), (10, 0.5, 0.2, 0.6, None),
                                           (10, 0.5, 0.8, 0.6, None)])]
    p = inputs[1]
    dc = derive(p)
    idle, active = arrival_pmfs(p, dc)
    alone = [optimize_g(x) for x in inputs]
    pruned = sorted(set(range(1, 11)) - set(alone[1].mu_s_by_g))
    assert pruned and alone[1].g_star in alone[1].mu_s_by_g
    g = pruned[-1] if budget == "pruned" else alone[1].g_star
    bad = build_chain(idle, active, dc.pi_idle, g, 10).omega
    residuals = energy_chain._residuals

    def missed(omega, chi):  # the faulty chain misses the residual
        r = residuals(omega, chi)
        r[[np.array_equal(w, bad) for w in omega]] = np.inf
        return r

    monkeypatch.setattr(energy_chain, "_residuals", missed)
    out = optimize_many([(x, None) for x in inputs])
    for i in (0, 2):
        assert out[i].mu_s_by_g == alone[i].mu_s_by_g and out[i].g_star == alone[i].g_star
        assert np.array_equal(out[i].chi, alone[i].chi)
    if budget == "solved":
        assert isinstance(out[1], energy_chain.StationarySolveError)
    else:
        assert out[1].mu_s_by_g == alone[1].mu_s_by_g and out[1].g_star == alone[1].g_star
        assert np.array_equal(out[1].chi, alone[1].chi)
    # every budget solved: the fault fails the point either way
    with pytest.raises(energy_chain.StationarySolveError):
        optimize_g(p, range(1, 11))


def _faulty_residuals(bad):
    """_residuals, but every chain of a stack equal to the matrix bad misses."""
    residuals = energy_chain._residuals

    def missed(omega, chi):
        r = residuals(omega, chi)
        r[[bad is not None and np.array_equal(w, bad) for w in omega]] = np.inf
        return r

    return missed


@settings(max_examples=60, deadline=None)
@given(bases=st.lists(st.tuples(st.sampled_from([1, 6, 10]), st.sampled_from([0.0, 0.5]),
                                st.sampled_from([0.0, 0.6])), min_size=1, max_size=3),
       points=st.lists(st.tuples(st.integers(0, 2), st.sampled_from([0.0, 0.3, 0.9, 1.0]),
                                 st.one_of(st.none(), st.lists(st.integers(1, 10), min_size=1,
                                                               max_size=4))),
                       min_size=1, max_size=8),
       fault=st.one_of(st.none(), st.tuples(st.integers(0, 7), st.integers(1, 10))),
       cells=st.sampled_from([60, 300, 2 ** 15]))
@example(bases=[(6, 0.0, 0.6), (10, 0.5, 0.6)],  # all-zero ties, saturated twins, repeats
         points=[(0, 0.0, None), (1, 0.9, None), (1, 1.0, [3, 1, 3]), (1, 1.0, None),
                 (1, 0.3, [2, 2]), (0, 0.0, [4, 2])],
         fault=(1, 2), cells=300)
def test_the_slice_search_equals_the_per_chain_scorer(bases, points, fault, cells):
    # points of a base share its pmf key, as a CLI slice's do: lambda_p 0.9 and 1.0
    # are saturated (mu_p = 0.82), so a base's such points are twins with equal
    # chains, and lambda_p = lambda_e = 0 ties every budget at mu_s = 0. A fault
    # fails one point's chain at one budget, in every point that shares it. The
    # scorer reads the base's pmfs.
    base_pmfs = []
    for e_max, lambda_e, eta in bases:
        p = default_params(E_max=e_max, lambda_e=lambda_e, eta=eta)
        base_pmfs.append((p, arrival_pmfs(p, derive(p))))
    inputs = []
    for b, lambda_p, budgets in points:
        base, pmfs = base_pmfs[b % len(base_pmfs)]
        p = replace(base, lambda_p=lambda_p)
        inputs.append((p, derive(p), pmfs, budgets and [min(g, p.E_max) for g in budgets]))
    bad = None
    if fault is not None:
        p, dc, pmfs, _ = inputs[fault[0] % len(inputs)]
        bad = build_chain(*pmfs, dc.pi_idle, min(fault[1], p.E_max), p.E_max).omega
    with mock.patch.object(energy_chain, "_STACK_CELLS", cells), \
            mock.patch.object(energy_chain, "_residuals", _faulty_residuals(bad)):
        reports = optimize_many([(p, budgets) for p, _, _, budgets in inputs])
        refs = [reference_search(*x) for x in inputs]
    for report, ref in zip(reports, refs):
        if isinstance(ref, Exception):
            assert type(report) is type(ref) and str(report) == str(ref)
            continue
        assert list(report.mu_s_by_g.items()) == list(ref.mu_s_by_g.items())
        assert report == ref  # mu_e, mu_s_by_g, g_star and mu_s_star, with ==
        assert np.array_equal(report.chi, ref.chi) and report.reducible == ref.reducible


def test_twins_share_each_chain_and_its_failure(monkeypatch):
    # lambda_p 0.9, 0.95 and 1.0 saturate mu_p = 0.82, so these points, on one
    # pmf key, have one pi_idle and equal chains: each is solved once, also when
    # stacks of two chains split a twin's chains from the others'
    base = default_params(lambda_e=0.5, eta=0.6, E_max=10)
    pmfs = arrival_pmfs(base, derive(base))
    points = [(replace(base, lambda_p=lambda_p), None) for lambda_p in (0.9, 0.3, 0.95, 1.0)]
    pi_idle = [derive(p).pi_idle for p, _ in points]
    assert pi_idle[0] == pi_idle[2] == pi_idle[3]
    chains, solve_stack = [], energy_chain._solve_stack
    monkeypatch.setattr(energy_chain, "_solve_stack",
                        lambda omega: chains.extend(omega) or solve_stack(omega))
    alone = [optimize_g(*x) for x in points[:2]]
    solved_alone, chains[:] = len(chains), []
    for cells in (2 ** 15, 2 * 11 ** 2):
        monkeypatch.setattr(energy_chain, "_STACK_CELLS", cells)
        reports = optimize_many(points)
        assert len(chains) == solved_alone == len({w.tobytes() for w in chains})
        chains.clear()
        for report, ref in zip(reports, [alone[0], alone[1], alone[0], alone[0]]):
            assert report == ref and report.reducible == ref.reducible
            assert np.array_equal(report.chi, ref.chi)
    # a shared chain that fails fails every twin with its one exception
    bad = build_chain(*pmfs, pi_idle[0], alone[0].g_star, 10).omega
    monkeypatch.setattr(energy_chain, "_residuals", _faulty_residuals(bad))
    out = optimize_many(points)
    assert isinstance(out[0], energy_chain.StationarySolveError)
    assert out[2] is out[0] and out[3] is out[0] and out[1] == alone[1]


def test_heavy_ambient_arrivals_make_a_reducible_chain():
    # Pr{fewer than E_max ambient packets} underflows to 0 at lambda_e=800, so
    # the full battery never drains although energy keeps arriving
    p = default_params(lambda_e=800.0, E_max=6, G=1)
    dc = derive(p)
    idle, active = arrival_pmfs(p, dc)
    chain = build_chain(idle, active, dc.pi_idle, 1, 6)
    assert np.all(chain.omega[6, :6] == 0.0)
    assert reference_stationary(chain.omega)[1]
    chi = stationary(chain)
    assert chain.reducible is True
    assert np.max(np.abs(chi - reference_stationary(chain.omega)[0])) <= 1e-12


@pytest.mark.parametrize("e_max", [1, 2, 3, 4])
def test_every_support_of_arrival_counts_gives_one_closed_class(e_max):
    # energy_chain's argument for one closed class uses only which counts have
    # mass, so every pair of idle and active supports (count e_max standing
    # for the tail), at every budget and every mix of slot types, is certified
    supports = [s for r in range(1, e_max + 2)
                for s in itertools.combinations(range(e_max + 1), r)]
    laws = []
    for support in supports:
        probs = np.zeros(e_max + 1)
        probs[list(support)] = 1.0 / len(support)
        laws.append(HarvestPmf(probs[:e_max], probs[e_max]))
    omega = np.array([build_chain(idle, active, pi_idle, g, e_max).omega
                      for pi_idle in (0.0, 0.5, 1.0) for g in range(1, e_max + 1)
                      for idle in laws for active in laws])
    assert energy_chain._solve_stack(omega)[1] == {}


def test_heavy_ambient_chains_are_reducible_and_take_the_lu():
    # every budget's chain is reducible at lambda_e=800, E_max=6; the states
    # reached from 0 still hold one closed class, so the LU solves them all
    p = default_params(E_max=6, lambda_e=800.0, G=1)
    dc = derive(p)
    idle, active = arrival_pmfs(p, dc)
    omega = np.array([build_chain(idle, active, dc.pi_idle, g, 6).omega for g in range(1, 7)])
    chi, failures, reducible = energy_chain._solve_stack(omega)
    assert failures == {}
    for chi_g, omega_g, reducible_g in zip(chi, omega, reducible):
        ref_chi, ref_reducible = reference_stationary(omega_g)
        assert reducible_g and ref_reducible
        assert np.max(np.abs(chi_g - ref_chi)) <= 1e-12


def test_overfull_pmf_gives_no_negative_complement():
    over = HarvestPmf(np.array([0.07, 0.9300000000000002]), 0.0)
    assert np.cumsum(over.probs)[-1] > 1.0
    chain = build_chain(over, over, 0.5, 1, 3)
    assert np.all(chain.omega >= 0.0)
    assert np.array_equal(chain.omega, reference_omega(over.probs, over.probs, 0.5, 1, 3))


def test_two_closed_classes_reached_from_0_raise_a_chain_error():
    # the component solver would mix the classes {1, 2} and {3, 4} by their
    # absorption probabilities from 0; stationary names the cause instead,
    # also with rows that miss 1 by as much as it accepts
    omega = np.array([
        [0.2, 0.1, 0.3, 0.4, 0.0],
        [0.0, 0.5, 0.5, 0.0, 0.0],
        [0.0, 0.9, 0.1, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.25, 0.75],
        [0.0, 0.0, 0.0, 0.6, 0.4],
    ])
    assert reference_stationary(omega)[1]
    for scale in (1.0, 1.0 + 5e-11):
        with pytest.raises(ChainError, match="several closed classes"):
            stationary(EnergyChain(omega=omega * scale, g=1))


@given(lambda_e=st.floats(min_value=0.0, max_value=50.0, exclude_min=True))
def test_nature_pmf_matches_scipy_poisson(lambda_e):
    pmf = nature_pmf(default_params(lambda_e=lambda_e), FULL)
    sf = stats.poisson.sf(np.arange(pmf.probs.size + 50), lambda_e)
    n_bins = int(np.argmax(sf < TAIL_EPS)) + 1
    assert pmf.probs.size == n_bins
    np.testing.assert_allclose(pmf.probs, stats.poisson.pmf(np.arange(n_bins), lambda_e),
                               rtol=1e-12, atol=0)


@settings(max_examples=80, deadline=None)
@given(lambda_e=st.sampled_from([0.0, 0.5, 5.0]), eta=st.sampled_from([0.0, 0.3, 0.9]),
       p_max_dbm=st.sampled_from([1.76, 10.0, 40.0]), e_max=st.sampled_from([1, 6, 40, 150]))
def test_pmfs_cut_at_e_max_match_full_support(lambda_e, eta, p_max_dbm, e_max):
    # the grid has caps below the TAIL_EPS support (RF at 40 dBm has 97,929
    # bins; Poisson(5) at E_max <= 6) and above it (lambda_e = 0, E_max = 150)
    p = default_params(lambda_e=lambda_e, eta=eta, P_max=dbm_to_watts(p_max_dbm),
                       E_max=e_max, G=1)
    dc = derive(p)
    nat, rf = nature_pmf(p, FULL), rf_pmf(dc, FULL)
    sources = [(nature_pmf(p, e_max), nat), (rf_pmf(dc, e_max), rf)]
    for cut, whole in sources:
        assert np.array_equal(cut.probs, whole.probs[:e_max])
    # arrival_pmfs as they were before the cut at E_max
    full = (nat, combined_pmf(rf, nat, FULL))
    capped = arrival_pmfs(p, dc)
    for cut, whole in sources + list(zip(capped, full)):
        assert cut.probs.size == min(e_max, whole.probs.size)
        # np.convolve sums the shorter inputs in another order (3e-17 seen)
        assert np.max(np.abs(cut.probs - whole.probs[:e_max])) <= 1e-15
        beyond = math.fsum(whole.probs[e_max:]) + whole.tail_mass
        assert abs(cut.tail_mass - beyond) <= 1e-12
    pi = dc.pi_idle
    for g in sorted({1, (e_max + 1) // 2, e_max}):
        cut_chain, whole_chain = build_chain(*capped, pi, g, e_max), build_chain(*full, pi, g, e_max)
        assert np.max(np.abs(cut_chain.omega - whole_chain.omega)) <= 1e-15
        assert np.max(np.abs(stationary(cut_chain) - stationary(whole_chain))) <= 1e-12
        assert cut_chain.reducible is whole_chain.reducible


def _edge_points(e_max):
    """The harvest laws at the edges of the builders' branches, at one E_max."""
    return [default_params(E_max=e_max, **over) for over in (
        {"eta": 0.0, "lambda_e": 0.5},  # rf_degenerate: alpha = inf
        {"N0": 1e30, "P_max": 1e-300, "lambda_e": 0.5},  # rf_degenerate: a = inf
        {"sigma_ps": 1e-310},  # rf_degenerate: alpha * lambda_x overflows
        {"eta": 1e-308},  # alpha * lambda_x = 1e308: x(n) overflows from n = 2
        {"eta": 0.9, "P_max": dbm_to_watts(50.0)},  # an RF law far longer than E_max
        {"lambda_e": 0.0},
        {"lambda_e": float(e_max)},  # lambda_e * T >= E_max: the cap ends the support
        {"lambda_e": 3.0 * e_max, "eta": 0.3},
        {"lambda_e": 800.0},
    )]


@pytest.mark.parametrize("e_max", [1, 2, 6, 10, 40])
def test_batched_pmf_tables_equal_the_per_point_path_bit_for_bit(e_max):
    # every key's pmf heads, built together, and one batched _arrival_rows call
    # give each point's kernels exactly as arrival_pmfs and the 1-D rows gather
    # did, and rf_pmf, their one-key case, the bytes of the scalar code (--dump-pmfs)
    rng = np.random.default_rng(e_max)
    points = _edge_points(e_max)
    edges = len(points)
    for _ in range(300):
        points.append(default_params(
            E_max=e_max, eta=float(rng.choice([0.0, rng.uniform(0.0, 1.0), 0.9])),
            lambda_e=float(rng.choice([0.0, rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0 * e_max)])),
            P_max=dbm_to_watts(rng.uniform(-10.0, 50.0)), N0=10 ** rng.uniform(-8.0, -4.0),
            e_pkt=10 ** rng.uniform(-5.0, -1.0), sigma_ppd=10 ** rng.uniform(-1.5, 1.5),
            sigma_ps=10 ** rng.uniform(-1.5, 1.5)))
    entries = [(p, derive(p)) for p in points]
    kernels = energy_chain._arrival_rows(harvest.arrival_heads(entries, e_max))
    assert kernels.shape == (len(points), 2, e_max + 1, e_max + 1)
    for k, (p, dc) in enumerate(entries):
        want = per_point_kernels(p, dc)
        assert np.array_equal(kernels[k], want), p
        if k < 20:  # the one-point build too
            assert np.array_equal(energy_chain._arrival_rows(
                harvest.arrival_heads([(p, dc)], e_max))[0], want), p
        for n_max in (e_max, FULL if k < edges else 3 * e_max):
            got, ref = rf_pmf(dc, n_max), scalar_rf_pmf(dc, n_max)
            assert (got.probs.tobytes(), got.tail_mass) == (ref.probs.tobytes(), ref.tail_mass)
