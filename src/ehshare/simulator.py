"""Seeded slot-level Monte Carlo simulation of the coupled system.

Unlike the analytic chain, nothing here assumes primary activity is
independent across slots: the primary queue is simulated packet by packet,
so this module is the ground truth each closed form is checked against.

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

Statistics are collected after a warmup period; energy-conservation
counters span the whole run. Equal seeds give bit-identical results: all
randomness flows from one SeedSequence split into per-purpose substreams
(arrivals, h_ppd, h_ps, h_ssd, ambient), so sweeps that reuse a seed across
parameter points share channel randomness (common random numbers).
"""

from dataclasses import dataclass

import numpy as np

from .config import SystemParams, derive
from .energy_chain import outage_threshold

_DEFAULT_WARMUP = 10_000


@dataclass(frozen=True)
class SimConfig:
    """Slot count, RNG seed, and slots discarded before statistics."""

    n_slots: int
    seed: int
    warmup: int = _DEFAULT_WARMUP

    def __post_init__(self):
        if not (isinstance(self.n_slots, int) and isinstance(self.warmup, int)
                and self.n_slots > self.warmup >= 0):
            raise ValueError(f"need n_slots > warmup >= 0 (got n_slots={self.n_slots}, "
                             f"warmup={self.warmup})")


@dataclass(frozen=True)
class SimResult:
    """Empirical counterparts of every analytic quantity.

    Histograms are post-warmup and sum to 1; rf_harvest_hist conditions on
    primary-active slots (point mass at 0 when none occurred). The four
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


def _hist_from_counts(counts: dict, total: int) -> np.ndarray:
    """Dense normalized histogram over 0..max observed; {0: 1} if empty."""
    if total == 0:
        return np.array([1.0])
    arr = np.zeros(max(counts) + 1)
    for k, c in counts.items():
        arr[k] = c / total
    return arr


def run(params: SystemParams, sim: SimConfig) -> SimResult:
    """Simulate sim.n_slots slots and return post-warmup statistics."""
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
        rf_harvest_hist=_hist_from_counts(rf_counts, active_count),
        nature_harvest_hist=_hist_from_counts(nat_counts, n_eff),
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
