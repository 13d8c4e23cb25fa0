"""Seeded slot-level Monte Carlo simulation of the coupled system.

The simulator plays the primary queue and the battery together, slot by
slot, so it checks each closed form without assuming, as the analytic
chain does, that primary activity is independent across slots. The chain
is exact all the same: the battery marginal of the coupled (backlog,
battery) process equals its stationary vector (tests/test_coupled_oracle.py).
The gap between the two engines is therefore Monte Carlo noise, and the
acceptance budgets bound that noise.

Slot recipe (departures before arrivals; harvested energy becomes usable
the next slot):

1. Bernoulli(lambda_p) arrival to the primary queue.
2. Draw h_ppd; if the queue is nonempty and h_ppd clears the cutoff, the
   primary transmits at the channel-inverting power and always succeeds.
3. Otherwise the slot is idle; if the energy queue holds at least G
   packets, the secondary spends G and delivers iff h_ssd >= b / G.
4. RF packets (active slots) and Poisson ambient packets are added.
5. The energy queue saturates at E_max; overflow is dropped.

run_many simulates a batch of points (a slice of a sweep grid) in lockstep, and
run is its one-point case. The points share one seed (common random numbers),
so a chunk of at most _CHUNK slots and _POINT_SLOTS point-slots draws its
uniforms and standard exponentials once. A channel stage computes each array
that depends only on the draws once per distinct key of the derived values it
needs: pu_ok, su_ok, RF packets (0 off pu_ok), their clip at E_max, and Poisson
counts (a scaled exponential is bit for bit Generator.exponential(sigma)). Each
is laid out block-major once: row k of (_BLOCK, blocks) holds slot k of every
block, and inert pad slots (no arrival, success or packet) fill the last block.
There each point runs Lindley's recursion for its primary backlog (int8 running
sums and minima down a block's rows, then across blocks) and builds its arrivals
and spends. The battery, e' = min(E_max, e - G*[idle and e >= G] + add), is
chained through the blocks by transfer maps over start levels (composed by a
tree when one map holds every level, else block by block with levels beyond
_MAP_LEVELS walked alone), and a replay gives every slot. Each Python-level step
serves every point, so chunks should be long; the draws are freed before the
battery stage, which takes their memory. A 5-point grid of 1e6 slots takes about
0.14 s in process on one pinned CPU of a 2-vCPU Xeon. Results must match the
per-slot loop this replaces bit for bit (tests/test_sim_oracle.py).

Statistics, less the pad slots, are collected after a warmup period, where the
chunks split; energy-conservation counters span the whole run. All randomness
flows from one SeedSequence split into per-purpose substreams (arrivals, h_ppd,
h_ps, h_ssd, ambient), and drawing a substream in chunks yields the same numbers
as drawing it at once: a point's result depends on neither chunk size nor batch.
"""

from dataclasses import dataclass

import numpy as np

from .config import ParameterError, SimConfig, SystemParams, derive

_CHUNK = 2 ** 16         # most slots drawn and processed at a time
_POINT_SLOTS = 2 ** 18   # most point-slots of a batch processed at a time
_BLOCK = 32              # slots per battery transfer map
_MAP_LEVELS = 48         # most start levels per transfer map
_COUNT_LEVELS = 16       # fewest levels whose histogram np.bincount counts
# The largest mean numpy's Generator.poisson accepts.
_POISSON_MAX = float(np.iinfo(np.int64).max) - 10 * np.sqrt(np.iinfo(np.int64).max)


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


def _rf_packets(z_ppd, z_ps, scale):
    """floor(h_ps / (h_ppd * alpha)) = floor(z_ps / z_ppd / scale) as float64,
    from standard exponentials z = h / sigma and scale = lambda_x * alpha *
    sigma_ppd, so no gain is formed to overflow. The ratio, inf if scale
    underflows to 0, is the count, clipped at 2**62, which int64 holds exactly.
    """
    with np.errstate(divide="ignore", over="ignore"):
        n = np.divide(z_ps, z_ppd)  # one array, then each step in place
        return np.floor(np.minimum(np.divide(n, scale, out=n), 2.0 ** 62, out=n), out=n)


def _exact_sum(x) -> int:
    """Sum of a nonnegative int64 array as a Python int, without overflow."""
    if x.size == 0:
        return 0
    if int(x.max()) * x.size < 2 ** 63:
        return int(x.sum())
    return sum(x.tolist())


def _level_counts(x, n):
    """Counts of the values 0..n-1 in x, an unsigned array of values below n,
    as int64: one comparison per level when n < _COUNT_LEVELS, else bincount."""
    if n >= _COUNT_LEVELS:
        return np.bincount(x.ravel(), minlength=n)
    counts = [np.count_nonzero(x == x.dtype.type(v)) for v in range(1, n)]  # no cast
    return np.array([x.size - sum(counts)] + counts, np.int64)


def _folded_hist(counts, total) -> np.ndarray:
    """counts / total, cut after the last nonzero bin; [1.0] if total is 0."""
    if total == 0:
        return np.array([1.0])
    return counts[:np.flatnonzero(counts)[-1] + 1] / total


def _closed_forms(spend, add, g, e_max):
    """(lo, hi, net, cap, gained), int64 (points, blocks) arrays over the
    blocks of (points, _BLOCK, blocks) slots; g and e_max hold one int per
    point. A level below lo stays below g up to the block's last idle slot,
    so it ends at min(e_max, level + gained). A level of at least hi = g *
    (idle slots) spends at every idle slot, so it ends at min(level + net,
    cap): net is the block's net change and cap = e_max + net - (peak of
    the running net change), where a path saturating there ends. One pass
    down the block's rows keeps each as a running int64 sum or maximum."""
    g, e_max = (np.array(x, np.int64)[:, None] for x in (g, e_max))
    gained, before, spent = np.zeros((3, len(g), spend.shape[2]), np.int64)
    net, peak = np.empty_like(gained), np.full(gained.shape, np.iinfo(np.int64).min)
    for s, a in zip(spend.transpose(1, 0, 2), add.transpose(1, 0, 2)):
        np.copyto(before, gained, where=s > 0)  # arrivals before the last idle slot yet
        gained += a
        spent += s  # g per idle slot
        np.maximum(peak, np.subtract(gained, spent, out=net), out=peak)
    return np.maximum(g - before, 0), np.minimum(spent, e_max + 1), net, e_max + net - peak, gained


def _chain(maps, e0):
    """Each block's start level, as a (points, blocks) array, and the level
    after the last, as a list of ints, when point p's maps[p, b, j] (its level
    after block b from level j) are chained from e0[p]. A tree composes the
    maps pairwise, an odd last one passing up alone, up to one per point, then
    pushes each start level down it (Blelloch's up/down-sweep)."""
    n_pts, _, width = maps.shape
    rows = np.arange(n_pts)[:, None]

    def offsets(n, first):  # flat offsets of nodes first, first + 2, ... paired in a level of n
        return (rows * n + np.arange(first, n // 2 * 2, 2)) * width

    tree = [np.ascontiguousarray(maps)]
    while (n := tree[-1].shape[1]) > 1:  # node i's map: child 2i's, then child 2i + 1's
        t = tree[-1]
        up = t.take(t[:, :n // 2 * 2:2] + offsets(n, 1)[..., None])
        tree.append(np.concatenate((up, t[:, -1:]), axis=1) if n % 2 else up)
    starts = np.array(e0, np.intp)[:, None]
    ends = tree[-1].take(starts + rows * width)
    for t in reversed(tree[:-1]):  # child 2i starts where node i does, 2i + 1 after 2i
        n = t.shape[1]
        s = starts[:, :n // 2]
        down = np.stack((s, t.take(s + offsets(n, 0))), axis=2).reshape(n_pts, -1)
        starts = np.concatenate((down, starts[:, -1:]), axis=1) if n % 2 else down
    return starts, ends.ravel().tolist()


def _battery_levels(e0, spend, add, g, e_max):
    """Battery levels of a batch of points at the start of every slot, and
    after the last one, as a list of ints.

    spend, add and the levels are (points, _BLOCK, blocks) arrays (row k of a
    point: slot k of each of its blocks) of an unsigned dtype that holds 2 *
    max(e_max); e0, g and e_max hold one int per point. Point p's slot spends
    its spend (g[p] when idle, 0 when active or a pad slot) if the level
    reaches it, then adds its add <= e_max[p] and saturates at e_max[p].

    Blocks are stepped as transfer maps, which _chain composes when one map
    holds every level (max(e_max) < _MAP_LEVELS); else they are chained block
    by block, and every block's map is stepped in one pass.
    """
    (n_pts, _, n_blocks), dtype = add.shape, add.dtype
    cap_full = np.array(e_max, dtype)[:, None].repeat(n_blocks, axis=1)

    def step_block(e, record=None):
        """Steps e, (..., points, blocks), through its blocks; record[:, k] <- slot k."""
        spent = np.empty(e.shape, dtype)
        for k in range(_BLOCK):
            if record is not None:
                record[:, k] = e
            # e - spend wraps around above every level when e < spend
            np.minimum(e, np.subtract(e, spend[:, k], out=spent), out=e)
            np.add(e, add[:, k], out=e)
            np.minimum(e, cap_full, out=e)

    def walk_block(p, b, e):
        """Point p's level after block b from e, one slot at a time."""
        for s, a in zip(spend[p, :, b].tolist(), add[p, :, b].tolist()):
            e = min(e - (s if e >= s else 0) + a, e_max[p])
        return e

    def replay(starts):
        """Every slot's level from each block's start level."""
        levels = np.empty(add.shape, dtype)
        step_block(np.array(starts, dtype), levels)
        return levels

    if max(e_max) < _MAP_LEVELS:  # one map holds every level of every battery
        start = np.arange(max(e_max) + 1, dtype=dtype)[:, None, None]
        maps = np.minimum(start, cap_full)  # maps[j]: from level j
        step_block(maps)
        starts, ends = _chain(maps.transpose(1, 2, 0), e0)
        return replay(starts), ends

    # Transfer maps cover the start levels lo..lo+width-1 of each block;
    # levels above are walked alone.
    lo, hi, *rest = _closed_forms(spend, add, g, e_max)
    width = min(max(0, int((hi - lo).max())), _MAP_LEVELS)
    forms = list(zip(*(x.tolist() for x in (lo, hi, *rest))))

    # Chain the blocks. The maps are computed once a start level needs them.
    starts, ends = [[] for _ in range(n_pts)], list(e0)
    maps = None  # maps[j, p, b]: point p's level after block b from lo[p, b] + j
    for p, (lo_p, hi_p, net_p, cap_p, gained_p) in enumerate(forms):
        e, row = ends[p], starts[p]
        for b in range(n_blocks):
            row.append(e)
            if e >= hi_p[b]:
                e = min(e + net_p[b], cap_p[b])
            elif e < lo_p[b]:
                e = min(e + gained_p[b], e_max[p])
            elif e - lo_p[b] < width:
                if maps is None:
                    maps = np.minimum(lo + np.arange(width)[:, None, None], cap_full).astype(dtype)
                    step_block(maps)
                e = maps.item(e - lo_p[b], p, b)
            else:
                e = walk_block(p, b, e)
        ends[p] = e
    return replay(starts), ends


class _Point:
    """One point of a lockstep batch: its constants and running counters."""

    def __init__(self, params: SystemParams):
        self.params, self.dc = params, derive(params)
        self.lam = params.lambda_e * params.T
        if not self.lam <= _POISSON_MAX:
            raise ParameterError([f"lambda_e: lambda_e * T = {self.lam:g} exceeds the largest "
                                  f"Poisson mean the simulator can draw ({_POISSON_MAX:.6g})"])
        # keys of the chunk's shared pu_ok, su_ok and clipped RF packets (RF key: clip_key[:-1])
        self.pu_key = (params.sigma_ppd, self.dc.a)
        self.su_key = (params.sigma_ssd, self.dc.b / params.G)
        self.clip_key = (*self.pu_key, self.dc.lambda_x * self.dc.alpha * params.sigma_ppd,
                         params.E_max)
        self.qp = self.qe = 0  # primary data queue, energy queue
        self.pu_delivered = self.su_delivered = self.pu_queue_sum = 0
        self.spends = self.spends_post = self.harvested = 0  # spends: whole run
        self.occupancy, self.rf_counts, self.nat_counts = (
            np.zeros(params.E_max + 1, np.int64) for _ in range(3))

    def prepare(self, u, m, counted, pu_ok, rf, ambient, spend, add):
        """Play the primary queue and energy arrivals over a chunk of m slots of
        shared draws and channel arrays, (_BLOCK, blocks) each, and fill the point's
        spend and add; pad slots add nothing (the caller zeroes their spend)."""
        p, e_max = self.params, self.params.E_max
        arrival = u < p.lambda_p

        # primary queue by Lindley's recursion, block by block: the backlog
        # before slot k of a block is q[k] - min(low[k], floor - first), for
        # q[k] the block's net arrivals before slot k and low[k] their running
        # minimum (int8: |q| <= _BLOCK), first the net arrivals before the
        # block and floor the running minimum of -qp and the net arrivals
        # before it. Row _BLOCK holds each block's total and minimum.
        step = arrival.view(np.int8) - pu_ok.view(np.int8)
        q, low = np.zeros((2, _BLOCK + 1, u.shape[1]), np.int8)
        for k in range(_BLOCK):
            np.minimum(low[k], np.add(q[k], step[k], out=q[k + 1]), out=low[k + 1])
        first = np.cumsum(q[-1], dtype=np.int64) - q[-1]
        floor = np.minimum.accumulate(np.concatenate(([-self.qp], first + low[-1])))
        self.qp = int(first[-1] + q[-1, -1] - floor[-1])
        gap = floor[:-1] - first  # <= 0; below -_BLOCK, the block's backlog stays positive
        cut = np.maximum(gap, -_BLOCK)
        backlog = np.subtract(q[:-1], np.minimum(low[:-1], cut.astype(np.int8)), out=q[:-1])
        busy = ((backlog > 0) | arrival) & pu_ok
        if counted:
            n_busy = int(np.count_nonzero(busy))
            self.pu_delivered += n_busy
            self.pu_queue_sum += (int(backlog.sum(dtype=np.int64)) + _BLOCK * int((cut - gap).sum())
                                  - (u.size - m) * self.qp)

        # energy arrivals: RF packets in active slots (rf: the clipped packets of
        # every pu_ok slot, the slots over E_max and their excess), ambient in all
        rf_row, over, excess = rf
        np.multiply(rf_row, busy, out=add)
        self.harvested += int(add.sum(dtype=np.int64)) + _exact_sum(excess[busy.ravel()[over]])
        if counted:
            self.rf_counts += _level_counts(add, e_max + 1)
            self.rf_counts[0] -= u.size - n_busy  # idle and pad slots
        if self.lam > 0:  # add <- min(add, E_max - ambient) + ambient
            clipped, room, counts, total = ambient[self.lam, e_max]
            np.add(np.minimum(add, room, out=add), clipped, out=add)
            if counted:
                self.nat_counts += counts
                self.nat_counts[0] -= u.size - m
            self.harvested += total
        elif counted:
            self.nat_counts[0] += m
        np.multiply((~busy).view(np.uint8), add.dtype.type(p.G), out=spend)

    def result(self, sim: SimConfig) -> SimResult:
        g, n_eff = self.params.G, sim.n_slots - sim.warmup
        consumed = g * self.spends
        return SimResult(
            pu_throughput_hat=self.pu_delivered / n_eff,
            su_throughput_hat=self.su_delivered / n_eff,
            pi_idle_hat=(n_eff - self.pu_delivered) / n_eff,
            energy_occupancy_hist=self.occupancy / n_eff,
            rf_harvest_hist=_folded_hist(self.rf_counts, self.pu_delivered),
            nature_harvest_hist=_folded_hist(self.nat_counts, n_eff),
            pu_queue_mean=self.pu_queue_sum / n_eff,
            energy_consumed_per_slot=g * self.spends_post / n_eff,
            n_slots=sim.n_slots,
            warmup=sim.warmup,
            seed=sim.seed,
            g=g,
            total_harvested=self.harvested,
            total_consumed=consumed,
            total_dropped=self.harvested - consumed - self.qe,
            final_energy_level=self.qe,
        )


def run_many(points, sim: SimConfig) -> list:
    """Simulate every point with sim's slots and seed, in lockstep.

    Returns one entry per point, in order: its SimResult, equal to what
    run() gives for that point alone, or the exception that rejected the
    point (a ParameterError naming the field), while the other points still
    run. Only these per-point rejections are isolated: an error raised once
    the batch is running propagates and ends the whole batch.

    Points run in groups of one level dtype and one side of E_max <
    _MAP_LEVELS, so a large battery neither widens the levels of small ones
    nor makes them pay for the closed forms.
    """
    out, groups = [], {}
    for params in points:
        try:
            out.append(_Point(params))
        except Exception as exc:
            out.append(exc)
        else:
            e_max = params.E_max
            groups.setdefault((np.min_scalar_type(2 * e_max), e_max < _MAP_LEVELS),
                              []).append(out[-1])
    for batch in groups.values():
        _run_batch(batch, sim)
    return [pt if isinstance(pt, Exception) else pt.result(sim) for pt in out]


def _run_batch(batch, sim: SimConfig):
    """Simulate the _Points of batch in lockstep, leaving the counts on them."""
    e_max = [pt.params.E_max for pt in batch]
    dtype = np.min_scalar_type(2 * max(e_max))
    chunk = min(_CHUNK, max(_BLOCK, _POINT_SLOTS // len(batch) // _BLOCK * _BLOCK))

    streams = np.random.SeedSequence(sim.seed).spawn(5)
    rng_arr, rng_ppd, rng_ps, rng_ssd = (np.random.default_rng(s) for s in streams[:4])
    rf_used = any(pt.clip_key[2] < np.inf for pt in batch)
    # one generator per distinct ambient mean, each replaying the same substream
    rng_nat = {pt.lam: np.random.default_rng(streams[4]) for pt in batch if pt.lam > 0}
    rows = np.empty((2, len(batch), chunk), dtype)  # the points' spend and add

    def run_chunk(m, counted):  # m slots, all after warmup if counted; each array dies with the call
        n_blocks = -(-m // _BLOCK)
        tail = m - (n_blocks - 1) * _BLOCK  # slots in the last block; the rest are pad slots

        def blocks(x, fill):  # m slots as (_BLOCK, n_blocks), row k slot k of each block
            out = np.empty((_BLOCK, n_blocks), x.dtype)
            out[:, :-1] = x[:m - tail].reshape(-1, _BLOCK).T
            out[:tail, -1], out[tail:, -1] = x[m - tail:], fill
            return out

        def clipped(x, top):  # min(x, top) in the level dtype, in blocks
            return blocks(np.minimum(x, top, out=np.empty(m, dtype), casting="unsafe"), 0)

        ambient = {}  # (mean, E_max) -> clipped counts, E_max less them, histogram, total
        for lam, rng in rng_nat.items():
            counts = rng.poisson(lam, m)
            for e in {pt.params.E_max for pt in batch if pt.lam == lam}:
                clip = clipped(counts, e)  # its histogram counts the pad slots at 0
                ambient[lam, e] = clip, np.subtract(dtype.type(e), clip), \
                    _level_counts(clip, e + 1) if counted else None, _exact_sum(counts)
            del counts

        # the channel stage: each array once per distinct key. Each stream fills
        # z in turn, so it ends as z_ppd; h holds a scaled gain, then z_ps.
        z, h = np.empty((2, m))
        pu_ok, su_ok = {}, {}  # key -> mask, slot-ordered (pu_ok) and in blocks
        for rng, arrays, key in ((rng_ssd, su_ok, "su_key"), (rng_ppd, pu_ok, "pu_key")):
            rng.standard_exponential(out=z)
            for sigma, cut in {getattr(pt, key) for pt in batch}:  # h >= cut, h the gain z * sigma
                with np.errstate(over="ignore"):  # an inf gain clears any finite cut
                    arrays[sigma, cut] = np.multiply(z, sigma, out=h) >= cut
        su_ok = {key: blocks(ok, False) for key, ok in su_ok.items()}
        if rf_used:
            rng_ps.standard_exponential(out=h)
        packets, rf = {}, {}  # RF key -> its packets, 0 off pu_ok; clip key -> prepare's rf
        for key in {pt.clip_key for pt in batch}:
            (sigma_ppd, a, scale), e = key[:-1], key[-1]
            if key[:-1] not in packets:
                n = np.zeros(m) if scale == np.inf else _rf_packets(z, h, scale)
                packets[key[:-1]] = np.multiply(n, pu_ok[sigma_ppd, a], out=n)
            n = packets[key[:-1]]
            over = np.flatnonzero(n > e)
            rf[key] = clipped(n, e), over % _BLOCK * n_blocks + over // _BLOCK, \
                n[over].astype(np.int64) - e
        del z, h, packets, n
        pu_ok = {key: blocks(ok, False) for key, ok in pu_ok.items()}

        u = blocks(rng_arr.random(m), 1.0)  # a pad slot draws no arrival: lambda_p <= 1
        spend, add = rows[:, :, :n_blocks * _BLOCK].reshape(2, len(batch), _BLOCK, n_blocks)
        for j, pt in enumerate(batch):
            pt.prepare(u, m, counted, pu_ok[pt.pu_key], rf[pt.clip_key], ambient,
                       spend[j], add[j])
        del u  # the battery stage's arrays can take the draws' memory
        spend[:, tail:, -1] = 0  # pad slots never spend
        levels, ends = _battery_levels([pt.qe for pt in batch], spend, add,
                                       [pt.params.G for pt in batch], e_max)
        for j, pt in enumerate(batch):
            pt.qe = ends[j]
            spent = np.subtract(levels[j], spend[j]) < levels[j]  # as in step_block
            n_spend = int(np.count_nonzero(spent))
            pt.spends += n_spend
            if counted:  # the pad slots hold the level after the last slot
                pt.occupancy += _level_counts(levels[j], pt.params.E_max + 1)
                pt.occupancy[pt.qe] -= levels[j].size - m
                pt.spends_post += n_spend
                pt.su_delivered += int(np.count_nonzero(spent & su_ok[pt.su_key]))

    for first, last, counted in ((0, sim.warmup, False), (sim.warmup, sim.n_slots, True)):
        for start in range(first, last, chunk):
            run_chunk(min(chunk, last - start), counted)


def run(params: SystemParams, sim: SimConfig) -> SimResult:
    """Simulate sim.n_slots slots and return post-warmup statistics."""
    (result,) = run_many([params], sim)
    if isinstance(result, Exception):
        raise result
    return result
