"""The vectorized simulator against the per-slot loop it replaced.

`_run_reference` is that loop, kept here as the oracle. Its only change is
that the harvest histograms fold every count at or above E_max into the
E_max bin, as `simulator.run` does. Every SimResult field must be equal:
arrays element for element, scalars by value and type.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ehshare import ParameterError, SimConfig, SimResult, default_params, derive, simulate
from ehshare import simulator
from ehshare.simulator import _BLOCK, _CHUNK, _battery_levels
from oracles import rf_packets


def _folded_hist(counts: dict, total: int, e_max: int) -> np.ndarray:
    """Normalized histogram over 0..min(max observed, e_max); the last bin
    holds every count >= e_max. {0: 1} if empty."""
    if total == 0:
        return np.array([1.0])
    folded = {}
    for k, c in counts.items():
        folded[min(k, e_max)] = folded.get(min(k, e_max), 0) + c
    arr = np.zeros(max(folded) + 1)
    for k, c in folded.items():
        arr[k] = c / total
    return arr


def _run_reference(params, sim):
    """Simulate sim.n_slots slots one at a time."""
    dc = derive(params)
    n = sim.n_slots
    g = params.G
    e_max = params.E_max
    warmup = sim.warmup
    n_eff = n - warmup

    streams = np.random.SeedSequence(sim.seed).spawn(5)
    rng_arr, rng_ppd, rng_ps, rng_ssd, rng_nat = (np.random.default_rng(s) for s in streams)

    arrivals = (rng_arr.random(n) < params.lambda_p).tolist()
    h_ppd = rng_ppd.exponential(params.sigma_ppd, n)
    h_ps = rng_ps.exponential(params.sigma_ps, n)
    h_ssd = rng_ssd.exponential(params.sigma_ssd, n)
    if params.lambda_e > 0:
        ambient = rng_nat.poisson(params.lambda_e * params.T, n).tolist()
    else:
        ambient = [0] * n
    pu_ok = (h_ppd >= dc.a).tolist()
    if dc.rf_degenerate:
        rf_pkts = [0] * n
    else:
        rf_pkts = rf_packets(h_ppd, h_ps, dc.alpha).tolist()
    # the SU spends power g * e_pkt / (T - tau); it decodes iff h_ssd times that
    # power reaches the N0 * W * (2**R_s - 1) its rate needs
    su_ok = (h_ssd >= params.N0 * params.W * (2.0 ** dc.R_s - 1.0)
             / (g * params.e_pkt / (params.T - params.tau))).tolist()

    qp = 0          # primary data queue
    qe = 0          # energy queue
    pu_delivered = 0
    su_delivered = 0
    idle_slots = 0
    consumed_pw = 0
    pu_queue_sum = 0
    occupancy = [0] * (e_max + 1)
    rf_counts: dict = {}
    nat_counts: dict = {}
    active_count = 0
    harvested = 0
    consumed = 0
    dropped = 0

    for t in range(n):
        post = t >= warmup
        if post:
            occupancy[qe] += 1
            pu_queue_sum += qp
        if arrivals[t]:
            qp += 1
        add = ambient[t]
        if qp > 0 and pu_ok[t]:
            qp -= 1
            add += rf_pkts[t]
            if post:
                pu_delivered += 1
                active_count += 1
                rf_counts[rf_pkts[t]] = rf_counts.get(rf_pkts[t], 0) + 1
        else:
            if post:
                idle_slots += 1
            if qe >= g:
                qe -= g
                consumed += g
                if post:
                    consumed_pw += g
                    if su_ok[t]:
                        su_delivered += 1
        if post:
            nat_counts[ambient[t]] = nat_counts.get(ambient[t], 0) + 1
        harvested += add
        qe += add
        if qe > e_max:
            dropped += qe - e_max
            qe = e_max

    return SimResult(
        pu_throughput_hat=pu_delivered / n_eff,
        su_throughput_hat=su_delivered / n_eff,
        pi_idle_hat=idle_slots / n_eff,
        energy_occupancy_hist=np.asarray(occupancy, dtype=float) / n_eff,
        rf_harvest_hist=_folded_hist(rf_counts, active_count, e_max),
        nature_harvest_hist=_folded_hist(nat_counts, n_eff, e_max),
        pu_queue_mean=pu_queue_sum / n_eff,
        energy_consumed_per_slot=consumed_pw / n_eff,
        n_slots=n,
        warmup=warmup,
        seed=sim.seed,
        g=g,
        total_harvested=harvested,
        total_consumed=consumed,
        total_dropped=dropped,
        final_energy_level=qe,
    )


def assert_same_result(got: SimResult, want: SimResult):
    for f in fields(SimResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, (f.name, a, b)


def _check(params, sim):
    got = simulate(params, sim)
    assert_same_result(got, _run_reference(params, sim))
    return got


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    lam_p=st.sampled_from([0.0, 0.4, 1.0]),
    eta=st.sampled_from([0.0, 0.6]),
    lam_e=st.sampled_from([0.0, 0.5, 3.0]),
    e_max=st.sampled_from([1, 6, 40]),
    g_is_e_max=st.booleans(),
)
def test_matches_loop_on_parameter_grid(seed, lam_p, eta, lam_e, e_max, g_is_e_max):
    p = default_params(lambda_p=lam_p, eta=eta, lambda_e=lam_e, E_max=e_max,
                       G=e_max if g_is_e_max else 1)
    _check(p, SimConfig(n_slots=3_001, seed=seed, warmup=100))


@pytest.mark.parametrize("n_slots, warmup", [
    (5_000, 0),
    (5_000, 4_999),                        # one post-warmup slot
    (_CHUNK + 775, _CHUNK + 5),            # warmup ends inside the second chunk
    (2 * _CHUNK + 1, 10),                  # one slot in the last chunk
    (255, 0),                              # a partial last block
    (_BLOCK - 1, 0),                       # shorter than one block
])
@pytest.mark.parametrize("lam_e", [0.0, 0.5])
def test_matches_loop_at_warmup_and_chunk_edges(n_slots, warmup, lam_e):
    p = default_params(lambda_p=0.7, lambda_e=lam_e, E_max=6, G=2)
    _check(p, SimConfig(n_slots=n_slots, seed=3, warmup=warmup))


def test_matches_loop_across_chunks_with_a_backlog():
    # lambda_p above the service rate: the primary backlog grows across chunks
    p = default_params(lambda_p=0.95, lambda_e=3.0, E_max=40, G=40)
    res = _check(p, SimConfig(n_slots=_CHUNK + 4_321, seed=8, warmup=1_000))
    assert res.pu_queue_mean > 100


def test_matches_loop_with_a_backlog_beyond_the_chunk_length(monkeypatch):
    # one-block chunks and a primary that rarely clears its cutoff: the
    # backlog outgrows the chunk length, beyond which it is carried as a
    # lift over the chunk's queue scans
    monkeypatch.setattr(simulator, "_POINT_SLOTS", 2 * _BLOCK)
    params = [default_params(lambda_p=0.95, sigma_ppd=0.05, lambda_e=0.5),
              default_params(lambda_p=0.3, lambda_e=0.5)]
    sim = SimConfig(n_slots=5_000, seed=6, warmup=300)
    results = simulator.run_many(params, sim)
    for p, got in zip(params, results):
        assert_same_result(got, _run_reference(p, sim))
    assert results[0].pu_queue_mean > 8 * _BLOCK


def test_a_backlog_draining_through_a_whole_block_keeps_every_slot_busy():
    # 40 departures in a row with no arrival: a block's running net arrivals
    # reach -31 before its last slot, the bottom of the int8 block scan, and
    # the backlog is still positive there. The per-slot draws cannot reach
    # this, so the point's chunk step is called directly.
    pt = simulator._Point(default_params(lambda_p=0.5, lambda_e=0.0))
    pt.qp = 40
    shape = (_BLOCK, 2)  # 64 slots in block-major order
    rf = np.zeros(shape, np.uint8), np.array([], np.intp), np.array([], np.int64)
    spend, add = np.empty((2, *shape), np.uint8)
    pt.prepare(np.ones(shape), 2 * _BLOCK, True, np.ones(shape, bool), rf, {}, spend, add)
    assert (pt.qp, pt.pu_delivered, pt.pu_queue_sum) == (0, 40, sum(range(41)))
    assert (spend.T.ravel() == [0] * 40 + [default_params().G] * 24).all()


def _levels_in_slot_order(e0, spend, add, g, e_max):
    """_battery_levels on (points, slots) rows: they are laid out as
    (points, _BLOCK, blocks), pad slots that neither spend nor add filling
    the last block, and the levels are read back in slot order. A pad slot
    must hold the level after the last slot."""
    n_pts, n = add.shape
    n_blocks = -(-n // _BLOCK)

    def blocks(x, fill):
        x = np.pad(x, ((0, 0), (0, n_blocks * _BLOCK - n)), constant_values=fill)
        return np.ascontiguousarray(x.reshape(n_pts, n_blocks, _BLOCK).transpose(0, 2, 1))

    levels, ends = _battery_levels(e0, blocks(spend, 0), blocks(add, 0), g, e_max)
    assert levels.shape == (n_pts, _BLOCK, n_blocks)
    levels = levels.transpose(0, 2, 1).reshape(n_pts, -1)
    assert (levels[:, n:] == np.array(ends)[:, None]).all()
    return levels[:, :n], ends


def _slot_recursion(e, spend, add, e_max):
    """One point's level at the start of every slot, and after the last: a
    slot spends its spend (g when idle, 0 when active) if the level reaches it."""
    levels = []
    for s, a in zip(spend.tolist(), add.tolist()):
        levels.append(e)
        if s > 0 and e >= s:
            e -= s
        e = min(e + a, e_max)
    return levels, e


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=40 * _BLOCK),
    e_max=st.sampled_from([1, 5, 40, 300]),
    g_frac=st.floats(min_value=0.0, max_value=1.0),
    idle_p=st.sampled_from([0.02, 0.5, 0.98]),
    add_mean=st.sampled_from([0.05, 1.0, 30.0]),
    e0_frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_battery_levels_match_slot_recursion(seed, n, e_max, g_frac, idle_p, add_mean, e0_frac):
    # start levels anywhere in 0..e_max reach both closed forms and the maps;
    # up to 40 blocks span six levels of the small batteries' chaining tree
    g = 1 + round(g_frac * (e_max - 1))
    rng = np.random.default_rng(seed)
    spend = np.where(rng.random(n) < idle_p, g, 0)
    add = np.minimum(rng.poisson(add_mean, n), e_max)
    e0 = round(e0_frac * e_max)
    want, e = _slot_recursion(e0, spend, add, e_max)
    dtype = np.min_scalar_type(2 * e_max)
    levels, (end,) = _levels_in_slot_order([e0], spend[None].astype(dtype),
                                           add[None].astype(dtype), [g], [e_max])
    assert levels[0].tolist() == want
    assert type(end) is int and end == e


@pytest.mark.parametrize("n_blocks", [1, 2, 3, 5, 33])
def test_battery_tree_chains_mixed_batteries_at_uneven_block_counts(n_blocks):
    # every battery fits one transfer map (E_max < _MAP_LEVELS), so the
    # blocks are chained by the tree; block counts that are not powers of
    # two pass an odd node up alone, and a partial last block is padded
    rng = np.random.default_rng(n_blocks)
    n = n_blocks * _BLOCK - (n_blocks > 1) * 3
    cases = [(g, e_max, e0) for g, e_max in [(1, 1), (2, 5), (13, 47)] for e0 in (0, e_max)]
    assert max(e_max for _, e_max, _ in cases) < simulator._MAP_LEVELS
    spend = np.empty((len(cases), n), np.uint8)
    add = np.empty((len(cases), n), np.uint8)
    want_levels, want_ends = [], []
    for j, (g, e_max, e0) in enumerate(cases):
        spend[j] = np.where(rng.random(n) < 0.6, g, 0)
        add[j] = np.minimum(rng.poisson(0.3 * g + 0.2, n), e_max)
        want, end = _slot_recursion(e0, spend[j], add[j], e_max)
        want_levels.append(want)
        want_ends.append(end)
    levels, ends = _levels_in_slot_order([c[2] for c in cases], spend, add,
                                         [c[0] for c in cases], [c[1] for c in cases])
    assert levels.tolist() == want_levels
    assert ends == want_ends and all(type(e) is int for e in ends)


@pytest.mark.parametrize("overrides", [
    dict(E_max=300, G=1, lambda_e=3.0),                               # saturates
    dict(E_max=5_000, G=1, lambda_p=0.0, eta=0.0, lambda_e=1.2),      # never saturates
    dict(E_max=3_000, G=3, lambda_p=0.5, eta=0.0, lambda_e=2.0),      # both
    dict(E_max=400, G=300, lambda_e=3.0, lambda_p=0.2),               # G above 255
])
def test_matches_loop_with_large_batteries(overrides):
    # Many block start levels here are either too low to reach G before the
    # block's last idle slot or at least G * (idle slots in the block); they
    # follow closed forms instead of transfer maps.
    _check(default_params(**overrides), SimConfig(n_slots=20_000, seed=5, warmup=500))


def test_clipped_rf_counts_give_exact_totals_beyond_int64():
    # e_pkt = 1e-30 J: every primary transmission yields 2**62 packets (the
    # clip), so the totals exceed int64 and the raw RF counts are far too
    # large for a dense histogram
    p = default_params(e_pkt=1e-30, lambda_p=1.0)
    res = _check(p, SimConfig(n_slots=5_000, seed=2, warmup=100))
    assert res.total_harvested > 2**63
    assert res.rf_harvest_hist.size == p.E_max + 1
    assert res.rf_harvest_hist[-1] == 1.0
    assert res.total_consumed + res.total_dropped + res.final_energy_level \
        == res.total_harvested


@pytest.mark.parametrize("sigma", [1e-300, 0.37, 1.0, 2.7, 1e300])
def test_scaled_standard_exponentials_equal_exponential_draws(sigma):
    # run_many draws standard exponentials once per chunk and scales them by
    # each point's sigma; that must be what Generator.exponential draws
    want = np.random.default_rng(17).exponential(sigma, 10_000)
    got = sigma * np.random.default_rng(17).standard_exponential(10_000)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    points=st.lists(st.tuples(
        st.sampled_from([0.0, 0.3, 0.7, 1.0]),   # lambda_p
        st.sampled_from([0.0, 0.6]),             # eta
        st.sampled_from([0.0, 0.5, 3.0]),        # lambda_e
        st.sampled_from([1, 6, 40, 300]),        # E_max
        st.floats(min_value=0.0, max_value=1.0),  # G as a fraction of E_max
        st.sampled_from([0.3, 0.5, 2.0]),        # sigma_ppd
        st.sampled_from([0.5, 1.0]),             # sigma_ps
        st.sampled_from([0.2, 1.0]),             # sigma_ssd
        st.sampled_from([0.002, 0.01, 0.05]),    # P_max: moves a
        st.sampled_from([500.0, 1000.0, 4000.0]),  # beta: moves a, alpha, the outage threshold
    ), min_size=1, max_size=6),
    n_dup=st.integers(min_value=0, max_value=3),
    n_slots=st.sampled_from([300, 3_001]),
)
def test_lockstep_batch_matches_each_point_alone(seed, points, n_dup, n_slots):
    # points share channel arrays wherever their keys agree; the last n_dup
    # points repeat the first ones
    params = [default_params(lambda_p=lp, eta=eta, lambda_e=le, E_max=e, G=1 + round(gf * (e - 1)),
                             sigma_ppd=sp, sigma_ps=sx, sigma_ssd=ss, P_max=pm, beta=b)
              for lp, eta, le, e, gf, sp, sx, ss, pm, b in points]
    params += params[:n_dup]
    sim = SimConfig(n_slots=n_slots, seed=seed, warmup=100)
    for p, got in zip(params, simulator.run_many(params, sim)):
        assert_same_result(got, simulate(p, sim))
        assert_same_result(got, _run_reference(p, sim))


def test_lockstep_batch_across_chunks_with_small_point_slot_budget(monkeypatch):
    # 7 points in 2-block chunks: the queues and batteries carry across
    # many chunk edges, and warmup ends inside a chunk
    monkeypatch.setattr(simulator, "_POINT_SLOTS", 7 * 2 * _BLOCK)
    params = [default_params(lambda_p=lp, lambda_e=le, E_max=e, G=g)
              for lp, le, e, g in [(0.1, 0.5, 10, 1), (0.95, 3.0, 40, 40), (0.5, 0.0, 6, 2),
                                   (0.7, 0.5, 300, 7), (0.3, 3.0, 1, 1), (0.9, 0.5, 10, 3),
                                   (0.0, 0.0, 5, 5)]]
    sim = SimConfig(n_slots=5_000, seed=12, warmup=777)
    for p, got in zip(params, simulator.run_many(params, sim)):
        assert_same_result(got, _run_reference(p, sim))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    points=st.lists(st.tuples(
        st.sampled_from([0.1, 0.5, 0.95, 1.0]),        # lambda_p
        st.sampled_from([0.0, 0.5, 3.0]),              # lambda_e
        # E_max on both sides of the 16-level count cutoff and of _MAP_LEVELS
        st.sampled_from([1, 14, 15, 16, 47, 48, 300]),
        st.floats(min_value=0.0, max_value=1.0),       # G as a fraction of E_max
    ), min_size=1, max_size=4),
    n_slots=st.integers(min_value=1, max_value=2_000).filter(lambda n: n % _BLOCK),
    warmup=st.integers(min_value=0, max_value=1_999).filter(lambda n: n % _BLOCK),
    point_blocks=st.sampled_from([1, 3, 10]),
)
def test_lockstep_batch_matches_the_loop_at_any_chunk_and_warmup_length(
        seed, points, n_slots, warmup, point_blocks):
    # chunks of a few blocks, slot and warmup counts off the block grid: the
    # last block of a chunk is padded, and warmup splits the chunk schedule
    assume(warmup < n_slots)
    params = [default_params(lambda_p=lp, lambda_e=le, E_max=e, G=1 + round(gf * (e - 1)))
              for lp, le, e, gf in points]
    sim = SimConfig(n_slots=n_slots, seed=seed, warmup=warmup)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_POINT_SLOTS", point_blocks * _BLOCK)
        results = simulator.run_many(params, sim)
    for p, got in zip(params, results):
        assert_same_result(got, _run_reference(p, sim))


def test_rf_packets_are_quantized_once_per_distinct_rf_key_and_chunk(monkeypatch):
    # A 100-slot warmup chunk, then 8 chunks of at most 128 slots. The first
    # three points share one RF key (the third clips it at another E_max),
    # P_max and sigma_ps give two more, and eta = 0 quantizes nothing: 3
    # calls per chunk.
    calls, quantize = [], simulator._rf_packets

    def counted(z_ppd, z_ps, scale):
        calls.append(z_ppd.size)
        return quantize(z_ppd, z_ps, scale)

    monkeypatch.setattr(simulator, "_rf_packets", counted)
    monkeypatch.setattr(simulator, "_POINT_SLOTS", 6 * 128)
    params = [default_params(lambda_p=0.3, lambda_e=0.5), default_params(lambda_p=0.7, G=3),
              default_params(E_max=20, G=2), default_params(P_max=0.05),
              default_params(sigma_ps=0.5), default_params(eta=0.0, lambda_e=0.5)]
    sim = SimConfig(n_slots=1_000, seed=8, warmup=100)
    results = simulator.run_many(params, sim)
    assert len(calls) == 3 * 9
    for p, got in zip(params, results):
        assert_same_result(got, _run_reference(p, sim))


def test_a_batch_runs_in_groups_of_one_level_dtype_and_one_map_side(monkeypatch):
    # a large battery neither widens small batteries' levels nor makes them
    # take the closed forms (E_max >= _MAP_LEVELS); each group runs a warmup
    # chunk and a counted one
    seen, battery_levels = [], simulator._battery_levels

    def recorded(e0, spend, add, g, e_max):
        seen.append((str(add.dtype), tuple(e_max)))
        return battery_levels(e0, spend, add, g, e_max)

    monkeypatch.setattr(simulator, "_battery_levels", recorded)
    params = [default_params(lambda_e=0.5, E_max=e, G=min(e, 3)) for e in (10, 200, 47, 48, 1)]
    sim = SimConfig(n_slots=2_000, seed=5, warmup=10)
    for p, got in zip(params, simulator.run_many(params, sim)):
        assert_same_result(got, _run_reference(p, sim))
    assert sorted(seen) == 2 * [("uint16", (200,))] + 2 * [("uint8", (10, 47, 1))] \
        + 2 * [("uint8", (48,))]


def test_failing_point_leaves_the_rest_of_the_batch_running():
    # lambda_e * T above numpy's Poisson limit is rejected before any draw
    good = [default_params(lambda_p=0.3, lambda_e=0.5), default_params(lambda_p=0.7)]
    huge = default_params(lambda_e=1e300)
    sim = SimConfig(n_slots=2_000, seed=4, warmup=10)
    results = simulator.run_many([good[0], huge, good[1]], sim)
    assert isinstance(results[1], ParameterError) and results[1].fields == ["lambda_e"]
    for p, got in zip(good, results[::2]):
        assert_same_result(got, simulate(p, sim))
    with pytest.raises(ParameterError, match="lambda_e"):
        simulate(huge, sim)
    assert simulator.run_many([], sim) == []


def test_battery_walks_levels_above_the_map_bit_for_bit(monkeypatch):
    # With two mapped levels per block, most start levels between the
    # closed-form ranges are walked slot by slot; points of one batch mix
    # mapped, walked and closed-form blocks
    monkeypatch.setattr(simulator, "_MAP_LEVELS", 2)
    rng = np.random.default_rng(9)
    n = 5 * _BLOCK + 17
    cases = [(1, 60, 0.5, 3.0), (7, 300, 0.4, 30.0), (3, 5, 0.9, 0.5), (50, 90, 0.2, 20.0)]
    dtype = np.min_scalar_type(2 * max(e for _, e, _, _ in cases))
    spend = np.empty((len(cases), n), dtype)
    add = np.empty((len(cases), n), dtype)
    e0, want_levels, want_ends = [], [], []
    for j, (g, e_max, idle_p, add_mean) in enumerate(cases):
        spend[j] = np.where(rng.random(n) < idle_p, g, 0)
        add[j] = np.minimum(rng.poisson(add_mean, n), e_max)
        e0.append(int(rng.integers(0, e_max + 1)))
        want, end = _slot_recursion(e0[-1], spend[j], add[j], e_max)
        want_levels.append(want)
        want_ends.append(end)
    levels, ends = _levels_in_slot_order(e0, spend, add, [c[0] for c in cases],
                                         [c[1] for c in cases])
    assert levels.tolist() == want_levels
    assert ends == want_ends and all(type(e) is int for e in ends)


@pytest.mark.parametrize("overrides", [
    dict(E_max=10**4, G=100, lambda_e=50.0),
    dict(E_max=10**5, G=5 * 10**4, lambda_e=1000.0),
])
def test_matches_loop_where_maps_would_span_thousands_of_levels(overrides):
    # the start levels between a block's closed-form ranges span thousands
    # of levels here; they are walked instead of mapped
    _check(default_params(**overrides), SimConfig(n_slots=20_000, seed=5, warmup=500))
