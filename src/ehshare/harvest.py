"""Per-slot distributions of harvested energy packets.

Three sources feed the secondary battery:

* conversion of primary RF transmissions, quantized to whole packets; its
  exact distribution follows from the joint law of the gain ratio
  h_ps / h_ppd restricted to slots where the primary transmits,
* ambient (nature) harvesting, Poisson per slot,
* their sum on primary-active slots, a plain discrete convolution.

All pmfs are truncated to a finite support with the residual mass reported
explicitly, so downstream consumers can fold it wherever their semantics
require (the capped energy queue folds it into the top state).
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import DerivedConstants, SystemParams
from . import primary_link

DEFAULT_TAIL_EPS = 1e-12
_MAX_BINS = 1_000_000

KIND_RF_CONDITIONAL = "rf_conditional"
KIND_RF_JOINT = "rf_joint"
KIND_NATURE = "nature"
KIND_NATURE_IDLE = "nature_idle"
KIND_COMBINED_ACTIVE = "combined_active"


@dataclass(frozen=True)
class HarvestPmf:
    """Truncated pmf over packet counts 0..len(probs)-1.

    tail_mass is whatever probability the truncation left out; probs and
    tail_mass always total 1. kind records what the distribution conditions
    on (see module constants).
    """

    probs: np.ndarray
    tail_mass: float
    kind: str

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty 1-D array")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if not 0 <= self.tail_mass <= 1 or abs(float(math.fsum(p)) + self.tail_mass - 1.0) > 1e-9:
            raise ValueError("probs and tail_mass must total 1")
        object.__setattr__(self, "probs", p)

    def mean(self) -> float:
        """Mean packet count of the truncated support."""
        return float(np.arange(self.probs.size) @ self.probs)

    def to_text(self) -> str:
        """Two-column `n probability` rendering, with a comment header."""
        lines = [f"# kind={self.kind} tail_mass={self.tail_mass:.17g}"]
        lines += [f"{n} {p:.17g}" for n, p in enumerate(self.probs)]
        return "\n".join(lines) + "\n"

    def write_text(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())


def ratio_cap_cdf(z, lam_x, lam_y, a):
    """Pr{X/Y <= z and Y >= a} for independent exponentials, elementwise in z.

    X has rate lam_x, Y has rate lam_y. Increases from 0 at z=0 to
    exp(-lam_y*a) as z -> inf.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("z must be >= 0")
    return math.exp(-lam_y * a) * (1.0 - (lam_y / (lam_y + lam_x * z)) * np.exp(-a * lam_x * z))


def f_of_z(z, dc: DerivedConstants):
    """ratio_cap_cdf evaluated at the model's gain rates and cutoff."""
    return ratio_cap_cdf(z, dc.lambda_x, dc.lambda_y, dc.a)


def _rf_conditional_tail(n_bins, lam_x, lam_y, a, alpha):
    """Conditional mass beyond bins 0..n_bins-1, in closed form."""
    z = n_bins * alpha
    return (lam_y / (lam_y + lam_x * z)) * math.exp(-a * lam_x * z)


def _rf_n_bins(lam_x, lam_y, a, alpha, epsilon):
    """Smallest bin count whose conditional tail drops below epsilon."""
    lo, hi = 1, 1
    while _rf_conditional_tail(hi, lam_x, lam_y, a, alpha) >= epsilon:
        lo = hi
        hi *= 2
        if hi > _MAX_BINS:
            raise ValueError(f"RF pmf support exceeds {_MAX_BINS} bins before tail < {epsilon}")
    while lo < hi:
        mid = (lo + hi) // 2
        if _rf_conditional_tail(mid, lam_x, lam_y, a, alpha) < epsilon:
            hi = mid
        else:
            lo = mid + 1
    return hi


def rf_increments(dc: DerivedConstants, epsilon=DEFAULT_TAIL_EPS) -> np.ndarray:
    """Raw per-bin increments of the capped ratio cdf at packet boundaries.

    These telescope to exp(-lambda_y * a), the probability the primary
    transmits, not to 1: they carry the joint event {primary transmits}.
    """
    if dc.rf_degenerate:
        raise ValueError("eta == 0: RF increments are undefined (degenerate harvest)")
    n = _rf_n_bins(dc.lambda_x, dc.lambda_y, dc.a, dc.alpha, epsilon)
    grid = dc.alpha * np.arange(n + 1, dtype=float)
    return np.diff(ratio_cap_cdf(grid, dc.lambda_x, dc.lambda_y, dc.a))


def rf_pmf(params: SystemParams, dc: DerivedConstants, epsilon=DEFAULT_TAIL_EPS,
           joint=False) -> HarvestPmf:
    """Distribution of packets converted from one primary transmission.

    Default mode conditions on the primary actually transmitting (the raw
    cdf increments are divided by exp(-lambda_y*a)); this is the version
    consistent with weighting active slots by their own probability in the
    energy-queue chain. joint=True keeps the un-normalized increments for
    side-by-side comparison; they carry the transmission event itself, so
    that variant's tail_mass includes the no-transmission probability.

    eta == 0 degenerates to a point mass at zero packets.
    """
    if dc.rf_degenerate:
        if joint:
            m = primary_link.mu_p(params, dc)
            return HarvestPmf(np.array([m]), 1.0 - m, KIND_RF_JOINT)
        return HarvestPmf(np.array([1.0]), 0.0, KIND_RF_CONDITIONAL)
    inc = rf_increments(dc, epsilon)
    if joint:
        tail = max(0.0, 1.0 - math.fsum(inc))
        return HarvestPmf(inc, tail, KIND_RF_JOINT)
    probs = inc / math.exp(-dc.lambda_y * dc.a)
    tail = max(0.0, 1.0 - math.fsum(probs))
    return HarvestPmf(probs, tail, KIND_RF_CONDITIONAL)


def nature_pmf(params: SystemParams, epsilon=DEFAULT_TAIL_EPS) -> HarvestPmf:
    """Poisson(lambda_e * T) packets per slot, truncated at tail < epsilon.

    The support ends at the smallest count k with Pr{N > k} < epsilon. Terms
    are evaluated in log space because exp(-m) underflows once m > ~745.
    """
    m = params.lambda_e * params.T
    if m == 0:
        return HarvestPmf(np.array([1.0]), 0.0, KIND_NATURE)
    # Bernstein: Pr{N >= m + t} <= exp(-t^2 / (2 (m + t/3))); the grid ends
    # where that bound is exp(-b) = epsilon * e^-40, far below epsilon
    b = 40.0 - math.log(epsilon)
    size = m + b / 3 + math.sqrt(b * b / 9 + 2 * b * m) + 2
    if not size <= _MAX_BINS:
        raise ValueError(f"nature pmf support exceeds {_MAX_BINS} bins before tail < {epsilon}")
    ks = np.arange(int(size))
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(ks.size)])
    terms = np.exp(ks * math.log(m) - log_fact - m)
    # at_least[k] = Pr{N >= k}, summed from the smallest terms up so that it
    # keeps full relative precision near epsilon, where 1 - cdf would not
    at_least = np.cumsum(terms[::-1])[::-1]
    n_bins = int(np.argmax(at_least[1:] < epsilon)) + 1
    probs = terms[:n_bins]
    tail = max(0.0, 1.0 - math.fsum(probs))
    return HarvestPmf(probs, tail, KIND_NATURE)


def _require_normalized(pmf: HarvestPmf, role):
    if pmf.tail_mass > 1e-6:
        raise ValueError(f"{role} pmf is not normalized (tail_mass={pmf.tail_mass})")


def combined_pmf(rf: HarvestPmf, nature: HarvestPmf) -> HarvestPmf:
    """Packets from both sources in a primary-active slot.

    The two sources are independent integer counts, so the combined law is
    their discrete convolution over nonnegative supports.
    """
    _require_normalized(rf, "rf")
    _require_normalized(nature, "nature")
    probs = np.convolve(nature.probs, rf.probs)
    tail = max(0.0, 1.0 - math.fsum(probs))
    return HarvestPmf(probs, tail, KIND_COMBINED_ACTIVE)


def arrival_pmfs(params: SystemParams, dc: DerivedConstants,
                 epsilon=DEFAULT_TAIL_EPS) -> tuple[HarvestPmf, HarvestPmf]:
    """(idle-slot, active-slot) energy arrival distributions.

    Idle slots receive ambient packets only; active slots receive ambient
    plus RF-converted packets.
    """
    nat = nature_pmf(params, epsilon)
    idle = HarvestPmf(nat.probs.copy(), nat.tail_mass, KIND_NATURE_IDLE)
    active = combined_pmf(rf_pmf(params, dc, epsilon), nat)
    return idle, active
