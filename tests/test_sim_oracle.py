"""The vectorized simulator against the per-slot loop it replaced.

`_run_reference` is that loop, kept here as the oracle. Its only change is
that the harvest histograms fold every count at or above E_max into the
E_max bin, as `simulator.run` does. Every SimResult field must be equal:
arrays element for element, scalars by value and type.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehshare import SimConfig, SimResult, default_params, derive, simulate
from ehshare.energy_chain import outage_threshold
from ehshare import simulator
from ehshare.simulator import _BLOCK, _CHUNK, _battery_levels, _rf_packets


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
        rf_pkts = _rf_packets(h_ppd, h_ps, dc.alpha).tolist()
    su_ok = (h_ssd >= outage_threshold(params, dc, g)).tolist()

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
    (_CHUNK + 3 * _BLOCK + 7, _CHUNK + 5),  # warmup ends inside the second chunk
    (2 * _CHUNK + 1, 10),                  # one slot in the last chunk
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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=3 * _BLOCK),
    e_max=st.sampled_from([1, 5, 40, 300]),
    g_frac=st.floats(min_value=0.0, max_value=1.0),
    idle_p=st.sampled_from([0.02, 0.5, 0.98]),
    add_mean=st.sampled_from([0.05, 1.0, 30.0]),
    e0_frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_battery_levels_match_slot_recursion(seed, n, e_max, g_frac, idle_p, add_mean, e0_frac):
    # start levels anywhere in 0..e_max reach both closed forms and the maps
    g = 1 + round(g_frac * (e_max - 1))
    rng = np.random.default_rng(seed)
    spend_at = np.where(rng.random(n) < idle_p, g, e_max + 1)
    add = np.minimum(rng.poisson(add_mean, n), e_max)
    e = e0 = round(e0_frac * e_max)
    want = []
    for t in range(n):
        want.append(e)
        if e >= spend_at[t]:
            e -= g
        e = min(e + int(add[t]), e_max)
    levels, end = _battery_levels(e0, spend_at, add, g, e_max)
    assert levels.tolist() == want
    assert type(end) is int and end == e


@pytest.mark.parametrize("overrides", [
    dict(E_max=300, G=1, lambda_e=3.0),                               # saturates
    dict(E_max=5_000, G=1, lambda_p=0.0, eta=0.0, lambda_e=1.2),      # never saturates
    dict(E_max=3_000, G=3, lambda_p=0.5, eta=0.0, lambda_e=2.0),      # both
    dict(E_max=400, G=300, lambda_e=3.0, lambda_p=0.2),               # G above 255
])
@pytest.mark.parametrize("map_cells", [None, 1_000])
def test_matches_loop_with_large_batteries(overrides, map_cells, monkeypatch):
    # Many block start levels here are either too low to reach G before the
    # block's last idle slot or at least G * (idle slots in the block); they
    # follow closed forms instead of transfer maps. A small _MAP_CELLS maps
    # a few blocks at a time.
    if map_cells:
        monkeypatch.setattr(simulator, "_MAP_CELLS", map_cells)
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
