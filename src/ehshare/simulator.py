"""Seeded slot-level Monte Carlo simulation of the coupled system.

Unlike the analytic chain, nothing here assumes primary activity is
independent across slots: the simulator plays the primary queue and the
battery together, so this module is the ground truth each closed form is
checked against.

Slot recipe (departures before arrivals; harvested energy becomes usable
the next slot):

1. Bernoulli(lambda_p) arrival to the primary queue.
2. Draw h_ppd; if the queue is nonempty and h_ppd clears the cutoff, the
   primary transmits at the channel-inverting power and always succeeds.
3. Otherwise the slot is idle; if the energy queue holds at least G
   packets, the secondary spends G and delivers iff h_ssd clears the
   outage threshold.
4. RF packets (active slots) and Poisson ambient packets are added.
5. The energy queue saturates at E_max; overflow is dropped.

The recipe is computed with array operations, _CHUNK slots at a time; only
the primary backlog, the battery level and integer counters carry from one
chunk to the next. The primary queue never depends on the battery, so its
backlog follows Lindley's recursion q' = max(0, q + arrival - service),
which cumulative sums and minima give exactly. The battery is a finite
automaton driven by the slots, e' = min(E_max, e - G*[idle and e >= G] +
add): each block of _BLOCK slots gets its transfer map over the start
levels 0..E_max (all blocks stepped at once; levels whose path through the
block has a closed form are left out), the maps are chained to find each
block's start level, and one more pass over the blocks replays every
slot's level. The per-slot loop this replaces is kept in the tests
(`_run_reference` in tests/test_sim_oracle.py), and results must match it
bit for bit.

Statistics are collected after a warmup period; energy-conservation
counters span the whole run. Equal seeds give bit-identical results: all
randomness flows from one SeedSequence split into per-purpose substreams
(arrivals, h_ppd, h_ps, h_ssd, ambient), so sweeps that reuse a seed across
parameter points share channel randomness (common random numbers).
Drawing a substream in chunks yields the same numbers as drawing it at once.
"""

from dataclasses import dataclass

import numpy as np

from .config import ParameterError, SystemParams, derive
from .energy_chain import outage_threshold

_DEFAULT_WARMUP = 10_000
_CHUNK = 2 ** 16  # slots drawn and processed at a time
_BLOCK = 256      # slots per battery transfer map
_MAP_CELLS = 2 ** 20  # transfer-map entries held at once


@dataclass(frozen=True)
class SimConfig:
    """Slot count, RNG seed, and slots discarded before statistics."""

    n_slots: int
    seed: int
    warmup: int = _DEFAULT_WARMUP

    def __post_init__(self):
        v = []
        if not (isinstance(self.n_slots, int) and isinstance(self.warmup, int)
                and self.n_slots > self.warmup >= 0):
            v.append(f"slots/warmup: need n_slots > warmup >= 0 (got n_slots={self.n_slots}, "
                     f"warmup={self.warmup})")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            v.append(f"seed: must be an integer >= 0 (got {self.seed!r})")
        if v:
            raise ParameterError(v)


@dataclass(frozen=True)
class SimResult:
    """Empirical counterparts of every analytic quantity.

    Histograms are post-warmup and sum to 1; rf_harvest_hist conditions on
    primary-active slots (point mass at 0 when none occurred). The two
    harvest histograms are folded at E_max, the cut the harvest pmfs use:
    they cover 0..min(largest count seen, E_max), and the last bin holds
    every count of E_max or more. The four
    total_* / final_* counters span the whole run including warmup and
    satisfy: total_consumed + total_dropped + final_energy_level ==
    total_harvested (the queue starts empty).
    """

    pu_throughput_hat: float
    su_throughput_hat: float
    pi_idle_hat: float
    energy_occupancy_hist: np.ndarray
    rf_harvest_hist: np.ndarray
    nature_harvest_hist: np.ndarray
    pu_queue_mean: float
    energy_consumed_per_slot: float
    n_slots: int
    warmup: int
    seed: int
    g: int
    total_harvested: int
    total_consumed: int
    total_dropped: int
    final_energy_level: int


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
    return int(_rf_packets(h_ppd, h_ps, dc.alpha))


def _rf_packets(h_ppd, h_ps, alpha):
    """floor(h_ps / (h_ppd * alpha)) as int64, elementwise.

    The ratio is clipped at 2**62 so the int cast stays safe for extreme
    ratio draws.
    """
    return np.floor(np.minimum(h_ps / (h_ppd * alpha), 2.0 ** 62)).astype(np.int64)


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


def _exact_sum(x) -> int:
    """Sum of a nonnegative int64 array as a Python int, without overflow."""
    if x.size == 0:
        return 0
    if int(x.max()) * x.size < 2 ** 63:
        return int(x.sum())
    return sum(x.tolist())


def _folded_hist(counts, total) -> np.ndarray:
    """counts / total, cut after the last nonzero bin; [1.0] if total is 0."""
    if total == 0:
        return np.array([1.0])
    return counts[:np.flatnonzero(counts)[-1] + 1] / total


def _battery_levels(e0, spend_at, add, g, e_max):
    """Battery level at the start of every slot, and after the last one.

    Slot t spends g when the level is at least spend_at[t] (g when idle,
    e_max + 1, which no level reaches, when active), then adds add[t] <=
    e_max and saturates at e_max.
    """
    m = add.size
    n_blocks = -(-m // _BLOCK)
    pad = n_blocks * _BLOCK - m
    dtype = np.min_scalar_type(2 * e_max)
    g_t = dtype.type(g)
    # Padding slots neither spend nor add, so they keep the level. Rows are
    # slots within a block, columns are blocks.
    spend_at = np.concatenate((spend_at, np.full(pad, e_max + 1))).astype(dtype)
    spend_at = np.ascontiguousarray(spend_at.reshape(n_blocks, _BLOCK).T)
    add = np.concatenate((add, np.zeros(pad, np.int64))).astype(dtype)
    add = np.ascontiguousarray(add.reshape(n_blocks, _BLOCK).T)

    def step(e, k, cols, mask):
        np.greater_equal(e, spend_at[k, cols], out=mask)
        np.subtract(e, mask if g == 1 else mask * g_t, out=e)
        np.add(e, add[k, cols], out=e)
        np.minimum(e, e_max, out=e)

    # Two ranges of start levels need no transfer map. A level below lo
    # stays below g up to the block's last idle slot, so it never spends and
    # ends at min(e_max, level + gained). A level of at least hi = g * (idle
    # slots) spends at every idle slot, so it ends at min(level + net, cap):
    # net is the block's net change and cap = e_max + net - (peak of the
    # running net change), where a path saturating at that peak ends.
    idle = spend_at == g
    gained_before = np.cumsum(add, axis=0, dtype=np.int64) - add
    gained = (gained_before[-1] + add[-1]).tolist()
    lo = np.maximum(g - np.where(idle, gained_before, 0).max(axis=0), 0)
    hi = np.minimum(g * idle.sum(axis=0), e_max + 1)
    walk = np.cumsum(add - g * idle.astype(np.int64), axis=0)
    net = walk[-1].tolist()
    cap = (e_max + walk[-1] - walk.max(axis=0)).tolist()
    width = max(0, int((hi - lo).max()))

    def transfer_maps(cols):
        """maps[j, b - cols.start]: the level after block b from lo[b] + j."""
        maps = np.minimum(lo[cols] + np.arange(width)[:, None], e_max).astype(dtype)
        mask = np.empty(maps.shape, bool)
        for k in range(_BLOCK):
            step(maps, k, cols, mask)
        return maps

    # Chain the blocks. The maps of a group of blocks, as many as
    # _MAP_CELLS allows, are computed once a start level needs them.
    lo_l, hi_l = lo.tolist(), hi.tolist()
    per_group = max(1, _MAP_CELLS // max(width, 1))
    starts = np.empty(n_blocks, dtype)
    e = e0
    for first in range(0, n_blocks, per_group):
        cols = slice(first, min(first + per_group, n_blocks))
        maps = None
        for b in range(cols.start, cols.stop):
            starts[b] = e
            if e >= hi_l[b]:
                e = min(e + net[b], cap[b])
            elif e < lo_l[b]:
                e = min(e + gained[b], e_max)
            else:
                if maps is None:
                    maps = transfer_maps(cols)
                e = maps.item(e - lo_l[b], b - first)

    levels = np.empty((_BLOCK, n_blocks), dtype)
    mask = np.empty(n_blocks, bool)
    for k in range(_BLOCK):
        levels[k] = starts
        step(starts, k, slice(None), mask)
    return levels.T.reshape(-1)[:m], e


def run(params: SystemParams, sim: SimConfig) -> SimResult:
    """Simulate sim.n_slots slots and return post-warmup statistics."""
    dc = derive(params)
    n = sim.n_slots
    g = params.G
    e_max = params.E_max
    warmup = sim.warmup
    n_eff = n - warmup
    su_threshold = outage_threshold(params, dc, g)

    streams = np.random.SeedSequence(sim.seed).spawn(5)
    rng_arr, rng_ppd, rng_ps, rng_ssd, rng_nat = (np.random.default_rng(s) for s in streams)

    qp = 0          # primary data queue
    qe = 0          # energy queue
    pu_delivered = 0
    su_delivered = 0
    pu_queue_sum = 0
    spends = 0      # whole run
    spends_post = 0
    harvested = 0
    occupancy = np.zeros(e_max + 1, np.int64)
    rf_counts = np.zeros(e_max + 1, np.int64)
    nat_counts = np.zeros(e_max + 1, np.int64)

    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        post = min(max(warmup - start, 0), m)  # the chunk's first post-warmup slot

        arrival = rng_arr.random(m) < params.lambda_p
        h_ppd = rng_ppd.exponential(params.sigma_ppd, m)
        su_ok = rng_ssd.exponential(params.sigma_ssd, m) >= su_threshold

        # primary queue: backlog after each slot by Lindley's recursion
        pu_ok = h_ppd >= dc.a
        walk = qp + np.cumsum(arrival.astype(np.int64) - pu_ok)
        q_after = walk - np.minimum(np.minimum.accumulate(walk), 0)
        q_before = np.concatenate(([qp], q_after[:-1]))
        active = pu_ok & (q_before + arrival > 0)
        qp = int(q_after[-1])
        pu_delivered += int(np.count_nonzero(active[post:]))
        pu_queue_sum += int(q_before[post:].sum())

        # energy arrivals: RF packets in active slots, ambient packets in all
        add = np.zeros(m, np.int64)
        if dc.rf_degenerate:
            rf = np.zeros(np.count_nonzero(active), np.int64)
        else:
            h_ps = rng_ps.exponential(params.sigma_ps, m)
            rf = _rf_packets(h_ppd[active], h_ps[active], dc.alpha)
            add[active] = np.minimum(rf, e_max)
        harvested += _exact_sum(rf)
        rf_counts += np.bincount(np.minimum(rf[np.count_nonzero(active[:post]):], e_max),
                                 minlength=e_max + 1)
        if params.lambda_e > 0:
            ambient = rng_nat.poisson(params.lambda_e * params.T, m)
            harvested += _exact_sum(ambient)
            nat_counts += np.bincount(np.minimum(ambient[post:], e_max), minlength=e_max + 1)
            add = np.minimum(add + np.minimum(ambient, e_max), e_max)
        else:
            nat_counts[0] += m - post

        # battery: secondary transmissions spend from the level at slot start
        spend_at = np.where(active, e_max + 1, g)
        levels, qe = _battery_levels(qe, spend_at, add, g, e_max)
        spend = levels >= spend_at
        occupancy += np.bincount(levels[post:], minlength=e_max + 1)
        spends += int(np.count_nonzero(spend))
        spends_post += int(np.count_nonzero(spend[post:]))
        su_delivered += int(np.count_nonzero(spend[post:] & su_ok[post:]))

    consumed = g * spends
    return SimResult(
        pu_throughput_hat=pu_delivered / n_eff,
        su_throughput_hat=su_delivered / n_eff,
        pi_idle_hat=(n_eff - pu_delivered) / n_eff,
        energy_occupancy_hist=occupancy / n_eff,
        rf_harvest_hist=_folded_hist(rf_counts, pu_delivered),
        nature_harvest_hist=_folded_hist(nat_counts, n_eff),
        pu_queue_mean=pu_queue_sum / n_eff,
        energy_consumed_per_slot=g * spends_post / n_eff,
        n_slots=n,
        warmup=warmup,
        seed=sim.seed,
        g=g,
        total_harvested=harvested,
        total_consumed=consumed,
        total_dropped=harvested - consumed - qe,
        final_energy_level=qe,
    )
