"""Benchmark inputs and output checks.

Each workload is a list of `ehshare` CLI invocations generated from the
benchmark seed. The seed only nudges grid values inside the ranges stated
below (and picks the simulator seed); the nudges are small so that the
work per run stays the same from seed to seed. The figure presets are the
paper's own grids and do not depend on the seed.

The program receives nothing but the generated arguments. Every output
row is checked here, from the row's own parameter columns, without
importing the package under test.
"""

import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("figures", "high_power", "big_battery", "monte_carlo")
DEFAULT_SEED = 0
REF_DIR = Path(__file__).resolve().parent / "ref"

# Tolerance for recomputed closed forms and for analytic columns against
# the reference rows; the simulator columns must match bit for bit.
ANALYTIC_TOL = 1e-12

PARAM_COLUMNS = ("beta", "T", "tau", "W", "N0", "e_pkt", "P_max", "lambda_p",
                 "lambda_e", "eta", "E_max", "G", "sigma_ppd", "sigma_ps", "sigma_ssd")
# Columns compared as text against the reference rows; every other
# non-empty column is compared as a number within ANALYTIC_TOL.
_EXACT_COLUMNS = set(PARAM_COLUMNS) | {"engine", "regime", "g", "seed", "slots", "warmup"}

PRESET_POINTS = {"fig2": 84, "fig3": 30, "fig4": 63, "fig5": 84}


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its arguments, the swept parameter and grid (None for a
    preset), and the number of operating points it evaluates."""

    argv: tuple
    points: int
    param: str | None = None
    grid: tuple | None = None
    slots_per_point: int = 0


def _dbm_to_watts(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _values(grid):
    return ",".join(repr(v) for v in grid)


def invocations(workload, seed) -> list[Invocation]:
    """The CLI invocations of one workload, in run order."""
    rng = random.Random(seed)
    if workload == "figures":
        return [Invocation(("preset", name, "--jobs", "1"), n)
                for name, n in PRESET_POINTS.items()]
    if workload == "high_power":
        # 10..50 dBm in 4 dB steps; the interior points move by at most
        # 0.05 dB. The 46 dBm (eta=0.9) and 50 dBm (eta>=0.6) points hit
        # the RF support cap and stay in, so the defect shows as failures.
        dbm = [10.0] + [d + rng.uniform(-0.05, 0.05) for d in range(14, 50, 4)] + [50.0]
        grid = tuple(_dbm_to_watts(d) for d in dbm)
        return [Invocation(("sweep", "--param", "P_max", "--values", _values(grid),
                            "--eta", str(eta), "--lambda-e", str(lam_e), "--e-max", "10",
                            "--jobs", "1"), len(grid), "P_max", grid)
                for eta in (0.3, 0.6, 0.9) for lam_e in (0.0, 0.5)]
    if workload == "big_battery":
        grid = (20,) + tuple(e + rng.choice((-1, 0, 1)) for e in (40, 60, 80)) + (100,)
        return [Invocation(("sweep", "--param", "E_max", "--values", _values(grid),
                            "--lambda-e", str(lam_e), "--jobs", "1"), len(grid), "E_max", grid)
                for lam_e in (0.0, 0.5)]
    if workload == "monte_carlo":
        grid = tuple(round(lp + rng.uniform(-0.01, 0.01), 6) for lp in (0.1, 0.3, 0.5, 0.7, 0.9))
        slots = 1_000_000
        sim_seed = rng.randrange(1, 2**31)
        return [Invocation(("compare", "--param", "lambda_p", "--values", _values(grid),
                            "--lambda-e", "0.5", "--slots", str(slots), "--seed", str(sim_seed),
                            "--jobs", "1"), len(grid), "lambda_p", grid, slots)]
    raise ValueError(f"unknown workload {workload!r}")


def parse_rows(text) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(x, ref):
    return abs(x - ref) <= ANALYTIC_TOL * max(1.0, abs(ref))


def _pu_throughput(row):
    """min(lambda_p, exp(-a/sigma_ppd)) recomputed from the row's parameters."""
    f = {k: float(row[k]) for k in ("beta", "T", "W", "N0", "P_max", "lambda_p", "sigma_ppd")}
    p_min_num = f["N0"] * f["W"] * (2.0 ** (f["beta"] / (f["T"] * f["W"])) - 1.0)
    a = p_min_num / f["P_max"]
    return min(f["lambda_p"], math.exp(-a / f["sigma_ppd"]))


def _check_analytic(row, prefix):
    """Problems with one analytic result; prefix is '' or 'a_' (compare rows)."""
    problems = []
    pu = float(row[prefix + "pu_throughput"])
    pi = float(row[prefix + "pi_idle"])
    mu_s = float(row[prefix + "mu_s"])
    g = int(row["g"])
    if not _close(pu, _pu_throughput(row)):
        problems.append(f"pu_throughput {pu!r} != min(lambda_p, exp(-a/sigma_ppd))")
    if not _close(pi, 1.0 - pu):
        problems.append(f"pi_idle {pi!r} != 1 - pu_throughput")
    if not 1 <= g <= int(row["E_max"]):
        problems.append(f"g={g} outside 1..E_max")
    if not 0.0 <= mu_s <= pi:
        problems.append(f"mu_s {mu_s!r} outside [0, pi_idle]")
    if prefix:
        gap = abs(mu_s - float(row["s_mu_s"]))
        if gap > max(0.05 * mu_s, 0.01):
            problems.append(f"|a_mu_s - s_mu_s| = {gap:.4g} exceeds max(0.05*mu_s, 0.01)")
    return problems


def _check_reference(row, ref):
    if ref["error"]:
        return []  # a reference row that failed does not bind
    if row["error"]:
        return ["error row where the reference has a result"]
    problems = []
    for col, want in ref.items():
        got = row.get(col)
        if got is None:
            problems.append(f"column {col} missing")
        elif col in _EXACT_COLUMNS or col.startswith("s_") or not want:
            if got != want:
                problems.append(f"{col}={got} != reference {want}")
        elif not _close(float(got), float(want)):
            problems.append(f"{col}={got} differs from reference {want} by more than 1e-12")
    return problems


def check_output(inv: Invocation, text, ref_rows=None):
    """Check one invocation's CSV output.

    Returns (error_rows, failed_rows, problems). error_rows have a non-empty
    `error` column; failed_rows counts error rows plus rows that fail a
    check, and missing rows; problems describes each failed check.
    """
    rows = parse_rows(text)
    problems = []
    if len(rows) != inv.points:
        problems.append(f"{len(rows)} rows for {inv.points} points")
    if ref_rows is not None and len(ref_rows) != len(rows):
        problems.append(f"{len(rows)} rows for {len(ref_rows)} reference rows")
    bad = max(0, inv.points - len(rows))
    errors = 0
    for i, row in enumerate(rows[:inv.points]):
        if row.get("error"):
            errors += 1
            bad += 1
            continue
        row_problems = []
        try:
            if inv.grid is not None and float(row[inv.param]) != float(inv.grid[i]):
                row_problems.append(f"{inv.param}={row[inv.param]} out of grid order")
            row_problems += _check_analytic(row, "a_" if "a_mu_s" in row else "")
        except (KeyError, ValueError) as exc:
            row_problems.append(f"malformed row: {exc!r}")
        if ref_rows is not None and i < len(ref_rows):
            row_problems += _check_reference(row, ref_rows[i])
        if row_problems:
            bad += 1
            problems += [f"{' '.join(inv.argv[:3])} row {i}: {p}" for p in row_problems]
    return errors, bad, problems


def ref_path(workload):
    return REF_DIR / f"{workload}_seed{DEFAULT_SEED}.csv"


def load_reference(workload, invs):
    """Reference rows per invocation, or None if no reference is recorded."""
    path = ref_path(workload)
    if not path.is_file():
        return None
    rows = parse_rows(path.read_text())
    out, start = [], 0
    for inv in invs:
        out.append(rows[start:start + inv.points])
        start += inv.points
    return out
