import csv
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehshare import (ParameterError, SimConfig, default_params, derive, energy_chain, simulate,
                     validate)
from ehshare.cli_sweep import main
from ehshare.energy_chain import (ChainError, EnergyChain, StationarySolveError, build_chain,
                                  mu_e, optimize_g, optimize_many, stationary,
                                  success_probability, su_throughput)
from ehshare.harvest import HarvestPmf, arrival_pmfs
from oracles import LEAKY, assert_search_matches, frontier_verdicts, optimize_given_pmfs

P = default_params()
DC = derive(P)


def pmf(*probs):
    return HarvestPmf(np.array(probs, dtype=float), 0.0)


def test_two_state_chain_head_entry_by_hand():
    idle = pmf(0.7, 0.3)
    active = pmf(0.4, 0.6)
    chain = build_chain(idle, active, 0.55, g=1, e_max=1)
    assert chain.omega[0, 0] == 0.55 * 0.7 + (1.0 - 0.55) * 0.4
    assert chain.omega.shape == (2, 2)


def test_no_arrival_kernel_is_consume_or_stay():
    still = pmf(1.0)
    chain = build_chain(still, still, 0.55, g=2, e_max=4)
    expected = np.zeros((5, 5))
    for j in range(5):
        if j >= 2:
            expected[j, j - 2] = 0.55
            expected[j, j] = 1.0 - 0.55
        else:
            expected[j, j] = 1.0
    assert np.array_equal(chain.omega, expected)


def test_three_state_matrix_matches_hand_enumeration_exactly():
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
    chain = build_chain(idle, active, pi, g=1, e_max=2)
    assert np.array_equal(chain.omega, hand)


@settings(max_examples=40)
@given(
    pi=st.floats(min_value=0.0, max_value=1.0),
    g=st.integers(min_value=1, max_value=4),
    e_max=st.integers(min_value=4, max_value=9),
    raw_idle=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    raw_active=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
)
def test_rows_always_sum_to_one(pi, g, e_max, raw_idle, raw_active):
    def normalize(raw):
        arr = np.asarray(raw) + 1e-9
        return HarvestPmf(arr / math.fsum(arr), 0.0)

    chain = build_chain(normalize(raw_idle), normalize(raw_active), pi, g, e_max)
    assert np.all(chain.omega >= 0)
    assert np.max(np.abs(chain.omega.sum(axis=1) - 1.0)) < 1e-12


def test_build_rejects_bad_energy_budget():
    still = pmf(1.0)
    with pytest.raises(ChainError):
        build_chain(still, still, 0.5, g=0, e_max=3)
    with pytest.raises(ChainError):
        build_chain(still, still, 0.5, g=4, e_max=3)
    with pytest.raises(ChainError):
        build_chain(still, still, 1.5, g=1, e_max=3)


def test_stationary_of_rank_one_chain_is_the_common_row():
    v = np.array([0.2, 0.5, 0.3])
    chain = EnergyChain(omega=np.tile(v, (3, 1)), g=1)
    chi = stationary(chain)
    assert np.allclose(chi, v, atol=1e-12)


def test_stationary_two_state_birth_death_balance():
    p, q = 0.3, 0.2
    chain = EnergyChain(omega=np.array([[1 - p, p], [q, 1 - q]]), g=1)
    chi = stationary(chain)
    assert np.allclose(chi, [q / (p + q), p / (p + q)], atol=1e-12)


def test_a_direct_solve_that_misses_the_residual_raises(monkeypatch):
    p, q = 0.3, 0.2
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(a.shape[:2] + (1,), 0.5))
    with pytest.raises(StationarySolveError, match="residual"):
        stationary(EnergyChain(omega=np.array([[1 - p, p], [q, 1 - q]]), g=1))


def test_only_the_budget_that_misses_the_residual_fails(monkeypatch):
    p = default_params(E_max=6)
    dc = derive(p)
    idle, active = arrival_pmfs(p, dc)
    omega = np.array([build_chain(idle, active, dc.pi_idle, g, 6).omega for g in range(1, 7)])
    assert omega.shape == (6, 7, 7)
    direct, failures, reducible = energy_chain._solve_stack(omega)
    assert failures == {} and not reducible.any()
    solve = np.linalg.solve

    def miss_budget_3(a, b):
        x = solve(a, b)
        x[2] = 1.0
        return x

    monkeypatch.setattr(np.linalg, "solve", miss_budget_3)
    chi, failures, reducible = energy_chain._solve_stack(omega)
    assert not reducible.any()
    assert list(failures) == [2] and isinstance(failures[2], StationarySolveError)
    others = [0, 1, 3, 4, 5]
    assert np.array_equal(chi[others], direct[others])


def test_lu_right_hand_side_carries_the_stack_shape(monkeypatch):
    # numpy < 2 reads an (n, 1) right-hand side against (B, n, n) matrices as a
    # stack of vectors; a (B, n, 1) one means a stack of matrices in every numpy.
    solve, shapes = np.linalg.solve, []

    def recorded(a, b):
        shapes.append((a.shape, b.shape))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    p = default_params(E_max=6)
    optimize_g(p, range(1, 7))
    stationary(EnergyChain(omega=np.array([[0.7, 0.3], [0.2, 0.8]]), g=1))
    optimize_many(_slice({"lambda_p": 0.2}, {"lambda_p": 0.5, "G": 3},
                         budgets=[range(1, 7), (3,)]))
    assert [a for a, _ in shapes] == [(6, 7, 7), (1, 2, 2), (7, 7, 7)]
    assert all(b == a[:-1] + (1,) for a, b in shapes)


def _slice(*overrides, budgets=None):
    """optimize_many inputs of points at E_max=6 with the given overrides."""
    inputs = []
    for over, points_budgets in zip(overrides, budgets or [None] * len(overrides)):
        inputs.append((default_params(E_max=6, **over), points_budgets))
    return inputs


@pytest.mark.parametrize("fault", ["residual", "nan", "singular"])
def test_a_failing_chain_fails_only_its_own_point(fault, monkeypatch):
    inputs = _slice({"lambda_p": 0.2}, {"lambda_p": 0.5, "lambda_e": 0.5}, {"lambda_p": 0.8},
                    budgets=[range(1, 7)] * 3)
    alone = [optimize_g(*x) for x in inputs]
    p = inputs[1][0]
    dc, (idle, active) = derive(p), arrival_pmfs(p, derive(p))
    bad = [build_chain(idle, active, dc.pi_idle, g, 6).omega for g in range(1, 7)]
    if fault == "residual":  # every chain of the middle point misses
        residuals = energy_chain._residuals

        def missed(omega, chi):
            r = residuals(omega, chi)
            r[[any(np.array_equal(w, b) for b in bad) for w in omega]] = np.inf
            return r

        monkeypatch.setattr(energy_chain, "_residuals", missed)
        expected = StationarySolveError
    elif fault == "nan":  # a NaN pmf, set past HarvestPmf's checks, on the pmf entry
        nan = pmf(0.0, 1.0)
        object.__setattr__(nan, "probs", np.array([np.nan, 1.0]))
        inputs = [(q, arrival_pmfs(q, derive(q)), budgets) for q, budgets in inputs]
        inputs[1] = (p, (nan, active), range(1, 7))
        expected = ChainError
    else:  # np.linalg.solve raises for the whole stack when one member is singular
        solve, singular, off = np.linalg.solve, [], ~np.eye(7, dtype=bool)
        for w in bad:  # the LU matrix off its diagonal: omega^T, then sum(chi) = 1
            singular.append(w.T.copy())
            singular[-1][-1] = 1.0

        def raising(a, b):
            if any(np.array_equal(m[off], s[off]) for m in a for s in singular):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", raising)
        expected = np.linalg.LinAlgError
    stacks, solve_stack = [], energy_chain._solve_stack
    monkeypatch.setattr(energy_chain, "_solve_stack",
                        lambda omega: stacks.append(len(omega)) or solve_stack(omega))
    run = optimize_given_pmfs if fault == "nan" else optimize_many
    out = run(inputs)
    assert stacks == [18]
    assert isinstance(out[1], expected) and isinstance(run(inputs[1:2])[0], expected)
    for i in (0, 2):
        assert out[i].mu_s_by_g == alone[i].mu_s_by_g and out[i].g_star == alone[i].g_star
        assert np.array_equal(out[i].chi, alone[i].chi)
        assert_search_matches(alone[i], inputs[i][0])


def test_stationary_requires_row_stochastic_matrix():
    with pytest.raises(ChainError):
        stationary(EnergyChain(omega=np.array([[0.5, 0.4], [0.2, 0.8]]), g=1))
    with pytest.raises(ChainError):
        stationary(EnergyChain(omega=np.array([[np.nan, 1.0], [0.2, 0.8]]), g=1))


@pytest.mark.parametrize("omega", [np.array([0.5, 0.5]), np.full((2, 3), 1.0 / 3),
                                   np.full((1, 2, 2), 0.5), np.zeros((0, 0))])
def test_stationary_requires_a_square_matrix(omega):
    with pytest.raises(ChainError, match="square"):
        stationary(EnergyChain(omega=omega, g=1))


def test_optimize_rejects_empty_and_bad_budgets_before_solving(monkeypatch):
    p = default_params(E_max=6)
    with pytest.raises(ChainError, match="budgets"):
        optimize_g(p, budgets=[])
    monkeypatch.setattr(energy_chain, "_solve_stack", lambda omega: pytest.fail("solved"))
    for bad in (0, 7, 2.0):
        with pytest.raises(ChainError, match="1 <= g <= e_max"):
            optimize_g(p, budgets=[1, 2, 3, 4, 5, 6, bad])


def test_an_e_max_too_large_for_memory_fails_before_its_budgets_are_read(monkeypatch):
    # the arrival kernels are built before the budgets are checked, so that
    # analytic at E_max 10**6 fails naming E_max without a pass over 10**6 budgets
    class Unread:
        def __iter__(self):
            pytest.fail("budgets read")

    def no_memory(heads):
        raise MemoryError

    monkeypatch.setattr(energy_chain, "_arrival_rows", no_memory)
    with pytest.raises(ParameterError) as exc:
        optimize_g(default_params(), Unread())
    assert exc.value.fields == ["E_max"]


def test_numpy_integer_budgets_give_the_report_of_python_ints():
    p = default_params(E_max=6)
    dc = derive(p)
    pmfs = arrival_pmfs(p, dc)
    want = optimize_g(p, range(1, 4))
    for budgets in (np.arange(1, 4), [np.int64(1), np.int32(2), np.uint8(3)]):
        report = optimize_g(p, budgets)
        assert report == want and np.array_equal(report.chi, want.chi)
        assert type(report.g_star) is int and all(type(g) is int for g in report.mu_s_by_g)
    assert build_chain(*pmfs, dc.pi_idle, np.int64(2), p.E_max).g == 2


def test_ties_break_toward_the_budget_given_first(monkeypatch):
    # sigma_ssd = 1e-300: no secondary packet decodes, so every mu_s is 0;
    # each budget of the report is solved once, a budget given twice too
    p = default_params(sigma_ssd=1e-300, E_max=6)
    chains, solve_stack = [], energy_chain._solve_stack
    monkeypatch.setattr(energy_chain, "_solve_stack",
                        lambda omega: chains.append(len(omega)) or solve_stack(omega))
    for budgets, g_star, keys in (([5, 3, 1], 5, [5, 3, 1]), ([2, 2, 1], 2, [2, 1]),
                                  (None, 1, list(range(1, 7)))):
        chains.clear()
        report = optimize_g(p, budgets)
        assert set(report.mu_s_by_g.values()) == {0.0}
        assert (report.g_star, list(report.mu_s_by_g)) == (g_star, keys)
        assert report.g_star == g_star
        assert sum(chains) == len(keys)


def test_bool_budgets_and_capacities_are_rejected_like_any_non_integer():
    p = default_params(E_max=6)
    dc = derive(p)
    pmfs = arrival_pmfs(p, dc)
    for budgets in ([True], [1, False], [np.int64(1), True], np.array([[1, 2]]),
                    [np.array([1, 2])]):
        with pytest.raises(ChainError, match="1 <= g <= e_max"):
            optimize_g(p, budgets)
    for g, e_max in ((True, 10), (1, True)):
        with pytest.raises(ChainError, match="1 <= g <= e_max"):
            build_chain(*pmfs, 0.5, g, e_max)


def test_no_least_squares_solve_on_the_runtime_path(monkeypatch, tmp_path):
    def banned(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", banned)
    for e_max in (10, 40):
        p = default_params(E_max=e_max, lambda_e=0.5)
        report = optimize_g(p, range(1, e_max + 1))
        assert len(report.mu_s_by_g) == e_max
        assert_search_matches(report, p)
    out = tmp_path / "fig2.csv"
    assert main(["preset", "fig2", "--jobs", "1", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 84 and all(row["error"] == "" for row in rows)


def test_absorbing_empty_queue_is_detected_and_resolved():
    # no ambient arrivals, no conversion: the queue drains to 0 and stays
    still = pmf(1.0)
    chain = build_chain(still, still, 0.55, g=1, e_max=3)
    assert chain.reducible is None
    chi = stationary(chain)
    assert chain.reducible is True and chi is chain.chi
    assert np.array_equal(chi, [1.0, 0.0, 0.0, 0.0])


def test_reducible_chains_are_reported_as_data_without_a_warning():
    # no traffic and no ambient energy: every budget's chain drains to 0.
    # stationary sets chain.reducible, and optimize_g and optimize_many name
    # the reducible budgets in their reports; none of them warns
    p = default_params(lambda_e=0, eta=0.4, E_max=6, lambda_p=0)
    dc = derive(p)
    pmfs = arrival_pmfs(p, dc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        chain = build_chain(*pmfs, dc.pi_idle, 2, p.E_max)
        stationary(chain)
    assert caught == [] and chain.reducible is True
    for call in (lambda: optimize_g(p), lambda: optimize_many([(p, None)])[0]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = call()
        assert caught == [] and report.reducible
        assert report.reducible <= report.mu_s_by_g.keys()


def test_two_absorbing_states_reached_from_0_raise_a_chain_error():
    # no model chain has several closed classes among the states it reaches
    # from 0 (tests/test_whole_space.py); a hand-built one gets no vector
    omega = np.array([
        [0.0, 0.3, 0.7],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    chain = EnergyChain(omega=omega, g=1)
    with pytest.raises(ChainError, match="several closed classes"):
        stationary(chain)
    assert chain.chi is None and chain.reducible is None


def test_stationary_matches_long_run_occupancy():
    p = default_params(lambda_p=0.4, eta=0.6, lambda_e=0.0, E_max=10, G=2)
    dc = derive(p)
    idle, active = arrival_pmfs(p, dc)
    chain = build_chain(idle, active, dc.pi_idle, 2, 10)
    stationary(chain)
    res = simulate(p, SimConfig(n_slots=10**6, seed=99, warmup=10_000))
    assert np.max(np.abs(chain.chi - res.energy_occupancy_hist)) < 0.01


def test_success_probability_reference_value_and_oracle():
    sp = success_probability(P, DC, 1)
    assert sp == pytest.approx(0.3520058338773603, rel=1e-12)
    assert sp == pytest.approx(0.352, abs=5e-4)
    rng = np.random.default_rng(2026_03)
    h = rng.exponential(P.sigma_ssd, 10**6)
    emp = np.mean(h >= DC.b)
    assert emp == pytest.approx(sp, abs=2e-3)


def test_success_probability_strictly_increases_with_budget():
    values = [success_probability(P, DC, g) for g in range(1, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_an_su_cutoff_whose_partial_product_overflows_stays_finite():
    # N0 * W * (T - tau) = 1e310 overflows, while b is 1e5 (50-digit value)
    p = default_params(N0=1e300, W=1, T=1e10, tau=1, beta=1e10, e_pkt=1e305,
                       sigma_ssd=1e10, lambda_e=1e-9)
    dc = derive(p)
    assert dc.b == pytest.approx(100000.00000386294, rel=1e-12)
    report = optimize_g(p, range(1, p.E_max + 1))
    assert report.mu_s_by_g[1] == pytest.approx(0.99999000005, rel=1e-9)
    assert simulate(p, SimConfig(n_slots=20_000, seed=3)).su_throughput_hat > 0.999


def test_throughput_requires_solved_chain():
    idle, active = arrival_pmfs(P, DC)
    chain = build_chain(idle, active, DC.pi_idle, 1, P.E_max)
    with pytest.raises(ChainError):
        su_throughput(chain, P, DC)


def test_throughput_vanishes_with_the_top_state_mass():
    # at G = E_max the throughput is carried entirely by the full-battery
    # state; weak harvesting starves it toward zero
    tops = []
    for eta in (0.2, 0.1, 0.05):
        p = default_params(eta=eta, lambda_p=0.1, lambda_e=0.0)
        dc = derive(p)
        idle, active = arrival_pmfs(p, dc)
        chain = build_chain(idle, active, dc.pi_idle, p.E_max, p.E_max)
        stationary(chain)
        mu_s = su_throughput(chain, p, dc)
        expected = dc.pi_idle * success_probability(p, dc, p.E_max) * chain.chi[-1]
        assert mu_s == pytest.approx(expected, rel=1e-12)
        tops.append(mu_s)
    assert tops[0] > tops[1] > tops[2]
    assert tops[-1] < 1e-3


def test_saturated_primary_scales_by_service_complement():
    p = default_params(lambda_p=1.0)
    report = optimize_g(p)
    dc = report.dc
    assert dc.pi_idle == pytest.approx(1.0 - dc.mu_p, rel=1e-15)
    assert report.mu_s_star <= dc.pi_idle


def test_consumption_rate_identity_and_simulator_agreement():
    p = default_params(lambda_p=0.4, eta=0.6, lambda_e=0.0, E_max=10, G=2)
    dc = derive(p)
    idle, active = arrival_pmfs(p, dc)
    chain = build_chain(idle, active, dc.pi_idle, 2, 10)
    stationary(chain)
    rate = mu_e(chain, p, dc)
    avail = float(chain.chi[2:].sum())
    assert rate == pytest.approx(2 * dc.pi_idle * avail, rel=1e-15)
    res = simulate(p, SimConfig(n_slots=10**6, seed=17, warmup=10_000))
    assert res.energy_consumed_per_slot == pytest.approx(rate, rel=0.02)


def test_availability_mass_nonincreasing_in_budget_at_reference_point():
    idle, active = arrival_pmfs(P, DC)
    pi = DC.pi_idle
    masses = []
    for g in range(1, P.E_max + 1):
        chain = build_chain(idle, active, pi, g, P.E_max)
        stationary(chain)
        masses.append(float(chain.chi[g:].sum()))
    assert all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))


def test_optimize_singleton_budget():
    report = optimize_g(default_params(E_max=1, G=1))
    assert report.g_star == 1
    assert set(report.mu_s_by_g) == {1}


def test_optimize_equals_exhaustive_reevaluation():
    for over in ({}, {"lambda_p": 0.7, "lambda_e": 0.5}, {"E_max": 4, "eta": 0.3}):
        p = default_params(**over)
        dc = derive(p)
        idle, active = arrival_pmfs(p, dc)
        report = optimize_g(p, range(1, p.E_max + 1))
        assert_search_matches(report, p)
        pi = dc.pi_idle
        best_g, best_v = None, -1.0
        for g in range(1, p.E_max + 1):
            chain = build_chain(idle, active, pi, g, p.E_max)
            stationary(chain)
            v = pi * success_probability(p, dc, g) * float(chain.chi[g:].sum())
            assert report.mu_s_by_g[g] == pytest.approx(v, rel=1e-12)
            if v > best_v:
                best_g, best_v = g, v
        assert report.g_star == best_g
        assert report.mu_s_star == pytest.approx(best_v, rel=1e-12)


def test_optimal_budget_regression_point():
    # frozen output of the exhaustive sweep at this operating point
    report = optimize_g(default_params(E_max=6, lambda_p=0.3))
    assert report.g_star == 1
    assert report.mu_s_star == pytest.approx(0.10669981897262712, rel=1e-10)


def test_stationary_invariants_across_config_sweep():
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
                    assert chain.reducible is bool(frontier_verdicts(chain.omega[None])[1][0])
                    resid = np.max(np.abs(chain.chi @ chain.omega - chain.chi))
                    assert resid < 1e-10
                    assert abs(chain.chi.sum() - 1.0) <= 1e-12
                    assert np.all(chain.chi >= 0)


def test_a_leak_below_one_ulp_of_the_diagonal_keeps_the_lu_nonsingular():
    # each row below g leaks about 4e-18 to E_max while omega[j, j] rounds to
    # 1, so a diagonal taken as omega[j, j] - 1 loses the leak and the LU is
    # singular from g = 3 on; one taken from the off-diagonal mass keeps it
    p = default_params(**LEAKY)
    dc = derive(p)
    pmfs = arrival_pmfs(p, dc)
    omega = build_chain(*pmfs, dc.pi_idle, 3, p.E_max).omega
    off = omega - np.diag(np.diag(omega))
    assert np.all(np.diag(omega)[:3] == 1.0) and np.all(off[:3].sum(axis=1) > 0.0)
    report = optimize_g(p, range(1, p.E_max + 1))
    assert report.g_star == 1 and 0.0 < report.mu_s_star < 1e-15
    assert all(0.0 <= mu_s < 1e-15 for mu_s in report.mu_s_by_g.values())
    assert abs(report.chi.sum() - 1.0) <= 1e-12
    assert_search_matches(report, p)
