"""Primary-user power control, outage, activity, and throughput.

The primary transmitter inverts its channel: it spends exactly the power
needed to reach its target spectral efficiency, and stays silent whenever
that power would exceed the cap (equivalently, whenever the channel gain
falls below the threshold `a`). All quantities here are exact closed forms.
"""

import math

from .config import DerivedConstants, SystemParams


def mu_p(params: SystemParams, dc: DerivedConstants):
    """Primary service probability: the inversion power fits under the cap."""
    return math.exp(-dc.a / params.sigma_ppd)


def pu_throughput(params: SystemParams, dc: DerivedConstants):
    """Delivered primary packets per slot.

    min(lambda_p/mu_p, 1) * mu_p == min(lambda_p, mu_p); the branchless form
    also covers mu_p == 0 (underflowed exponent).
    """
    return min(params.lambda_p, mu_p(params, dc))


def pi_idle(params: SystemParams, dc: DerivedConstants):
    """Probability the primary is inactive (empty queue or deep fade)."""
    return 1.0 - pu_throughput(params, dc)


def regime(params: SystemParams, dc: DerivedConstants) -> str:
    """'stable' iff lambda_p < mu_p strictly; equality counts as saturated."""
    return "stable" if params.lambda_p < mu_p(params, dc) else "saturated"

