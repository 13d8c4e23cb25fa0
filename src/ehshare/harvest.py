"""Per-slot distributions of harvested energy packets.

Three sources feed the secondary battery:

* conversion of primary RF transmissions, quantized to whole packets; its
  exact distribution follows from the law of the gain ratio h_ps / h_ppd
  on the event that the primary transmits,
* ambient (nature) harvesting, Poisson per slot, the whole arrival law of
  a primary-idle slot,
* their sum on primary-active slots, a plain discrete convolution.

Every pmf takes a support cap n_max. A source pmf covers counts 0..n-1,
where n is the smaller of n_max and the smallest n >= 1 with
Pr{count >= n} < TAIL_EPS; the combined pmf is cut at n_max. tail_mass is
the probability beyond the support, reported explicitly so that consumers
can fold it wherever their semantics require. The capped energy queue
folds it into its top state and reads no pmf bin at or beyond its
capacity, so arrival_pmfs caps every pmf at E_max. Neither lambda_p nor G
enters these laws, so the points of a slice with one _pmf_key share them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import DerivedConstants, SystemParams

# The cut moves results by about its own size, yet perfbench's 1e-12 reference check pins it:
# uncut Poisson pmfs move big_battery's mu_s by up to 5.1e-12 and mu_e by up to 1.7e-11.
TAIL_EPS = 1e-12


@dataclass(frozen=True)
class HarvestPmf:
    """Truncated pmf over packet counts 0..len(probs)-1.

    tail_mass is whatever probability the truncation left out; probs and
    tail_mass always total 1.
    """

    probs: np.ndarray
    tail_mass: float

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty 1-D array")
        if not np.all(p >= 0):
            raise ValueError("probabilities must be nonnegative")
        if not (0 <= self.tail_mass <= 1 and abs(math.fsum(p) + self.tail_mass - 1.0) <= 1e-9):
            raise ValueError("probs and tail_mass must total 1")
        object.__setattr__(self, "probs", p)

    def write_text(self, path):
        """Write `n probability` lines under a `# tail_mass=...` header."""
        with open(path, "w") as fh:
            fh.write(f"# tail_mass={self.tail_mass:.17g}\n")
            fh.writelines(f"{n} {p:.17g}\n" for n, p in enumerate(self.probs))


def rf_pmf(dc: DerivedConstants, n_max) -> HarvestPmf:
    """Packets converted from one primary transmission, conditioned on it.

    The count reaches n >= 1 with probability
    T(n) = exp(-a x(n)) / (1 + x(n) / lambda_y), x(n) = lambda_x alpha n,
    and bin n is T(n) - T(n+1), T(0) = 1. dc.rf_degenerate gives a point
    mass at zero packets; for a primary that never transmits (a = inf) the
    chain weights its active slots by 0 in any case.
    """
    if dc.rf_degenerate:
        return HarvestPmf(np.array([1.0]), 0.0)
    with np.errstate(over="ignore"):  # an x(n) or c that overflows is the intended inf
        # T(n) for n = 1..n_max; it falls with n, so the support ends one bin
        # past the last tail >= TAIL_EPS
        x = dc.lambda_x * dc.alpha * np.arange(1, n_max + 1)
        tails = np.exp(-dc.a * x) / (1.0 + x / dc.lambda_y)
        n = min(n_max, 1 + int(np.count_nonzero(tails >= TAIL_EPS)))
        # bin n is T(n) (1 - T(n+1) / T(n)) = T(n) (1 - e^-c + e^-c x(1) / (lambda_y
        # + x(n+1))) with c = a x(1): two nonnegative terms, so no bin cancels
        c = dc.a * x[0]
        drop = -math.expm1(-c) + math.exp(-c) * x[0] / (dc.lambda_y + x[:n])
    return HarvestPmf(np.concatenate(([1.0], tails[:n - 1])) * drop, float(tails[n - 1]))


def _with_tail(probs):
    return HarvestPmf(probs, max(0.0, 1.0 - math.fsum(probs)))


def _poisson_terms(m, size):
    """Poisson(m) pmf at 0..size-1, evaluated in log space because exp(-m)
    underflows once m > ~745."""
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(size)])
    return np.exp(np.arange(size) * math.log(m) - log_fact - m)


def nature_pmf(params: SystemParams, n_max) -> HarvestPmf:
    """Poisson(lambda_e * T) packets per slot, cut by the support rule."""
    m = params.lambda_e * params.T
    if m == 0:
        return HarvestPmf(np.array([1.0]), 0.0)
    if m >= n_max:
        # the Poisson median is at least m - ln 2, so Pr{N >= n} >= 1/2 for
        # every n <= m, and the cap ends the support
        return _with_tail(_poisson_terms(m, n_max))
    # Bernstein: Pr{N >= m + t} <= exp(-t^2 / (2 (m + t/3))); the grid ends
    # where that bound is exp(-b) = TAIL_EPS * e^-40, far below TAIL_EPS.
    # It holds O(n_max) counts because m < n_max.
    b = 40.0 - math.log(TAIL_EPS)
    terms = _poisson_terms(m, int(m + b / 3 + math.sqrt(b * b / 9 + 2 * b * m) + 2))
    # at_least[k] = Pr{N >= k}, summed from the smallest terms up so that it
    # keeps full relative precision near TAIL_EPS, where 1 - cdf would not
    at_least = np.cumsum(terms[::-1])[::-1]
    n_bins = min(n_max, int(np.argmax(at_least[1:] < TAIL_EPS)) + 1)
    return _with_tail(terms[:n_bins])


def combined_pmf(rf: HarvestPmf, nature: HarvestPmf, n_max) -> HarvestPmf:
    """Packets from both sources in a primary-active slot, cut at n_max.

    The two sources are independent integer counts, so the combined law is
    their discrete convolution over nonnegative supports. Its first n_max
    bins need only the first n_max bins of each source.
    """
    return _with_tail(np.convolve(nature.probs, rf.probs)[:n_max])


def arrival_pmfs(params: SystemParams, dc: DerivedConstants) -> tuple[HarvestPmf, HarvestPmf]:
    """(idle-slot, active-slot) energy arrival distributions, cut at E_max.

    Idle slots receive ambient packets only, so the idle pmf is the nature
    pmf itself; active slots receive ambient plus RF-converted packets.
    """
    nat = nature_pmf(params, params.E_max)
    return nat, combined_pmf(rf_pmf(dc, params.E_max), nat, params.E_max)


def _pmf_key(params: SystemParams, dc: DerivedConstants) -> tuple:
    """What arrival_pmfs reads, so equal keys give equal pmfs: not lambda_p, not G."""
    return (params.lambda_e * params.T, params.E_max, dc.a, dc.alpha, dc.lambda_x,
            dc.lambda_y, dc.rf_degenerate)
