"""Model parameters, unit conversion, and the derived constants of both links.

Everything downstream works in SI units (Watts, Joules, seconds, Hz).
dBm values are accepted only at the configuration boundary (config files
and CLI flags) and converted on ingest.
"""

import math
import sys
from dataclasses import dataclass, fields


class ParameterError(ValueError):
    """One or more parameter invariants are violated.

    `fields` lists the offending field names; `violations` the full messages,
    each prefixed by the field, or the comma-separated fields, it names.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        self.fields = [f for v in self.violations for f in v.split(":", 1)[0].split(", ")]
        super().__init__("invalid parameters: " + "; ".join(self.violations))


def dbm_to_watts(p_dbm):
    """Convert a power in dBm to Watts; inf where the power overflows."""
    try:
        return 10.0 ** ((p_dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SystemParams:
    """Physical and traffic parameters of one operating point, validated on construction
    (replace included); the defaults are the bundled presets' reference point.

    beta:      data packet length, bits
    T:         slot duration, seconds
    tau:       sensing duration, seconds (0 < tau < T)
    W:         channel bandwidth, Hz
    N0:        noise power spectral density, W/Hz
    e_pkt:     energy per stored energy packet, Joules
    P_max:     primary transmit power cap, Watts
    lambda_p:  primary packet arrival probability per slot (Bernoulli mean)
    lambda_e:  ambient harvest rate, energy packets per slot (Poisson rate)
    eta:       RF-to-DC conversion efficiency, 0..1
    E_max:     energy queue capacity, packets
    G:         energy packets spent per secondary transmission
    sigma_ppd: mean gain of the primary -> primary-destination link
    sigma_ps:  mean gain of the primary -> secondary link
    sigma_ssd: mean gain of the secondary -> secondary-destination link
    """

    beta: float = 1000.0
    T: float = 1.0
    tau: float = 0.1
    W: float = 1000.0
    N0: float = 1e-6
    e_pkt: float = 1e-3
    P_max: float = dbm_to_watts(10.0)
    lambda_p: float = 0.4
    lambda_e: float = 0.0
    eta: float = 0.6
    E_max: int = 10
    G: int = 1
    sigma_ppd: float = 0.5
    sigma_ps: float = 1.0
    sigma_ssd: float = 1.0

    def __post_init__(self):
        validate(self)


@dataclass(frozen=True)
class DerivedConstants:
    """Constants computed once from a validated SystemParams.

    R_p, R_s:  primary / secondary spectral efficiency, bits/s/Hz
    a:         the primary transmits iff h_ppd >= a
    mu_p:      primary service probability Pr{h_ppd >= a}
    pu_throughput: delivered primary packets per slot, min(lambda_p, mu_p)
    pi_idle:   probability the primary is inactive (empty queue or deep fade)
    b:         the SU decodes on spending g packets iff h_ssd >= b / g
    alpha:     energy-packet quantization constant; inf when eta == 0
    lambda_x:  rate of the primary->secondary gain (1/sigma_ps)
    lambda_y:  rate of the primary->destination gain (1/sigma_ppd)
    rf_degenerate: True when RF harvesting yields 0 packets: eta == 0,
               alpha * lambda_x overflows, or a == inf (no transmission)
    """

    R_p: float
    R_s: float
    a: float
    mu_p: float
    pu_throughput: float
    pi_idle: float
    b: float
    alpha: float
    lambda_x: float
    lambda_y: float
    rf_degenerate: bool


def is_int(x) -> bool:
    """True for a Python int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class SimConfig:
    """The simulator's slot count, RNG seed, and slots discarded before statistics."""

    n_slots: int
    seed: int
    warmup: int = 10_000

    def __post_init__(self):
        v = [f"{name}: must be an integer (got {getattr(self, name)!r})"
             for name in ("n_slots", "warmup") if not is_int(getattr(self, name))]
        if not v and not self.n_slots > self.warmup >= 0:
            v.append(f"slots/warmup: need n_slots > warmup >= 0 (got n_slots={self.n_slots}, "
                     f"warmup={self.warmup})")
        if not (is_int(self.seed) and self.seed >= 0):
            v.append(f"seed: must be an integer >= 0 (got {self.seed!r})")
        if v:
            raise ParameterError(v)


def validate(params: SystemParams) -> SystemParams:
    """Return `params` unchanged if every invariant holds; every float field
    must be finite. SystemParams.__post_init__ runs it on every construction.

    Raises ParameterError naming every violated field, not just the first.
    """
    v = []

    def positive(*names):
        for name in names:
            x = getattr(params, name)
            if not 0 < x < math.inf:
                v.append(f"{name}: must be {'finite' if x == math.inf else '> 0'} (got {x})")

    positive("beta", "W", "N0", "e_pkt", "P_max")
    if not 0 < params.tau < params.T:
        v.append(f"tau: must satisfy 0 < tau < T (got tau={params.tau}, T={params.T})")
    if not params.T < math.inf:
        v.append(f"T: must be finite (got {params.T})")
    if not 0 <= params.lambda_p <= 1:
        v.append(f"lambda_p: must lie in [0, 1] (got {params.lambda_p})")
    if not 0 <= params.lambda_e < math.inf:
        v.append(f"lambda_e: must be {'finite' if params.lambda_e == math.inf else '>= 0'} "
                 f"(got {params.lambda_e})")
    if not 0 <= params.eta <= 1:
        v.append(f"eta: must lie in [0, 1] (got {params.eta})")
    e_max_ok = is_int(params.E_max) and params.E_max >= 1
    if not e_max_ok:
        v.append(f"E_max: must be an integer >= 1 (got {params.E_max!r})")
    elif params.E_max > 10**6:  # every engine allocates O(E_max) before it can fail; 10**6 levels
        # simulate in 1 s, and the analytic engine's MemoryError names E_max well below them
        v.append(f"E_max: must be at most 1000000 (got {params.E_max})")
    if not (is_int(params.G) and 1 <= params.G) or (e_max_ok and params.G > params.E_max):
        v.append(f"G: must be an integer in 1..E_max (got G={params.G}, E_max={params.E_max})")
    positive("sigma_ppd", "sigma_ps", "sigma_ssd")
    if v:
        raise ParameterError(v)
    return params


def derive(params: SystemParams) -> DerivedConstants:
    """Compute the derived constants used by every other module.

    The primary inverts its channel, silent whenever the power to reach R_p
    would exceed P_max, i.e. when h_ppd < a. It delivers min(lambda_p / mu_p,
    1) * mu_p = min(lambda_p, mu_p) packets per slot, 0 if mu_p underflows.

    eta == 0 is legal: alpha is inf and flagged so the RF harvest
    distribution degenerates to a point mass at zero packets instead of
    dividing by zero. So does an alpha * lambda_x that overflows (packets
    too large for any transmission to fill, or h_ps == 0), and a = inf, a
    primary that never transmits.

    Finite parameters can still combine into constants that overflow or
    vanish: 2**R_s and lambda_e * T must be finite, N0 * W * (2**R_p - 1)
    positive and finite, and alpha * lambda_x not 0 * inf, else a
    ParameterError names every field involved. 2**R - 1 is expm1(R ln 2),
    which keeps full precision at small R. b is rebuilt from logarithms
    where a partial product overflows; it is inf only beyond the doubles.
    """
    tw_s = (params.T - params.tau) * params.W  # no larger than T * W; 0 if it underflows
    R_s = params.beta / tw_s if tw_s > 0 else math.inf
    if not R_s < 1024.0:  # 2.0 ** R_s overflows
        raise ParameterError([f"beta, T, tau, W: the secondary rate beta / ((T - tau) * W) = "
                              f"{R_s:g} bits/s/Hz must be below 1024"])
    R_p = params.beta / (params.T * params.W)
    p_min_num = params.N0 * params.W * math.expm1(R_p * math.log(2))  # 2**R_p - 1 cancels
    if not 0.0 < p_min_num < math.inf:
        raise ParameterError([f"beta, T, W, N0: N0 * W * (2**R_p - 1) = {p_min_num:g}, with "
                              f"R_p = beta / (T * W) = {R_p:g}, must be positive and finite"])
    if not params.lambda_e * params.T < math.inf:
        raise ParameterError([f"lambda_e, T: the ambient mean lambda_e * T = "
                              f"{params.lambda_e * params.T:g} must be finite"])
    lambda_x, a = 1.0 / params.sigma_ps, p_min_num / params.P_max
    den = params.eta * p_min_num * params.T
    alpha = params.e_pkt / den if den > 0 else math.inf
    if math.isnan(alpha * lambda_x):  # alpha underflows to 0 and lambda_x overflows
        raise ParameterError(["beta, T, W, N0, e_pkt, eta, sigma_ps: the packet scale alpha * "
                              "lambda_x = e_pkt / (eta * N0 * W * (2**R_p - 1) * T * sigma_ps) "
                              "is 0 * inf"])
    factors = (params.N0, params.W, params.T - params.tau, math.expm1(R_s * math.log(2)))
    b = math.prod(factors) / params.e_pkt
    if b == math.inf:  # a partial product overflows; b itself may not
        log_b = math.fsum(map(math.log, factors)) - math.log(params.e_pkt)
        b = math.exp(log_b) if log_b <= math.log(sys.float_info.max) else math.inf
    mu_p = math.exp(-a / params.sigma_ppd)
    pu_throughput = min(params.lambda_p, mu_p)
    return DerivedConstants(
        R_p=R_p,
        R_s=R_s,
        a=a,
        mu_p=mu_p,
        pu_throughput=pu_throughput,
        pi_idle=1.0 - pu_throughput,
        b=b,
        alpha=alpha,
        lambda_x=lambda_x,
        lambda_y=1.0 / params.sigma_ppd,
        rf_degenerate=alpha * lambda_x == math.inf or a == math.inf,
    )


default_params = SystemParams  # the reference operating point with overrides, validated
PARAM_FIELDS = [f.name for f in fields(SystemParams)]
_INT_FIELDS = {f.name for f in fields(SystemParams) if f.type is int}
FIELD_OF_LOWER = {name.lower(): name for name in PARAM_FIELDS}  # a field named in any case


def coerce_field(key, value):
    """value as the field's type: an int for E_max and G, else a float."""
    try:
        f = float(value)
    except (TypeError, ValueError):
        raise ParameterError([f"{key}: must be a number (got {value!r})"]) from None
    if key in _INT_FIELDS:
        if not (math.isfinite(f) and abs(f - round(f)) <= 1e-9):
            raise ParameterError([f"{key}: must be an integer (got {value})"])
        return int(round(f))
    return f


def _ingest(out, key, value, where):
    """Set one `key = value` entry, a config-file line or an override, in out.

    key names a SystemParams field in any case, or is p_max_dbm, which sets
    P_max converted from dBm to Watts. A field may be set once per source, so
    P_max and p_max_dbm conflict. where locates the entry in error messages.
    """
    dbm = key.lower().endswith("_dbm")
    base = key[:-4] if dbm else key
    name = FIELD_OF_LOWER.get(base.lower())
    if name is None or (dbm and name != "P_max"):
        raise ParameterError([f"{where}: unknown parameter {key!r}"])
    value = coerce_field(name, value)
    if name in out:
        raise ParameterError([f"{name}: assigned more than once, again at {where}"])
    out[name] = dbm_to_watts(value) if dbm else value


def parse_config_file(path) -> dict:
    """Parse a flat `key = value` configuration file into a field dict.

    One assignment per line; blank lines and `#` comments are ignored. Keys
    name SystemParams fields, in any case, or are p_max_dbm (see _ingest).
    """
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParameterError([f"line {lineno}: expected `key = value` (got {raw.strip()!r})"])
            _ingest(out, key.strip(), value.strip(), f"line {lineno}")
    return out


def load_params(path=None, overrides=None) -> SystemParams:
    """Build SystemParams, validated, from defaults <- config file <- overrides.

    overrides maps keys, named as in a config file, to values.
    """
    merged = {}
    if path is not None:
        merged.update(parse_config_file(path))
    if overrides:
        given = {}
        for key, value in overrides.items():
            _ingest(given, key, value, key)
        merged.update(given)
    return SystemParams(**merged)
