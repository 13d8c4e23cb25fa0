"""Command-line front end: single-point reports, simulator runs, parameter
sweeps, analytic-vs-simulated comparisons, and the bundled figure presets.

Output is plot-ready data (CSV with one metric per column, or JSON);
rendering is left to external tooling. Rows are emitted in grid order and
are deterministic for a fixed sweep spec and seed.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import energy_chain, harvest, primary_link
from .config import (ParameterError, SystemParams, coerce_field, dbm_to_watts,
                     default_params, derive, load_params, validate)
from .simulator import SimConfig, run as run_simulation

PARAM_FIELDS = [f.name for f in fields(SystemParams)]
METRIC_COLUMNS = ["engine", "mu_p", "pi_idle", "pu_throughput", "regime", "g",
                  "mu_s", "mu_e", "success_prob", "seed", "slots", "warmup", "error"]
COMPARE_METRICS = ["g", "a_mu_s", "s_mu_s", "d_mu_s_abs", "d_mu_s_rel",
                   "a_pi_idle", "s_pi_idle", "d_pi_idle_abs", "d_pi_idle_rel",
                   "a_pu_throughput", "s_pu_throughput", "d_pu_throughput_abs",
                   "d_pu_throughput_rel", "tv_occupancy", "seed", "slots", "error"]


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over a strictly monotone grid.

    engines: 'analytic', 'simulate', or 'both'. g_policy 'optimize' picks
    the throughput-maximizing energy budget per point (the simulator then
    reuses it when both engines run); 'fixed' keeps the configured G.
    """

    swept_param: str
    grid: tuple
    fixed: SystemParams
    engines: str = "analytic"
    sim: SimConfig | None = None
    g_policy: str = "optimize"

    def check(self):
        if self.swept_param not in PARAM_FIELDS:
            raise ParameterError([f"swept_param: {self.swept_param!r} is not a parameter field"])
        if len(self.grid) == 0:
            raise ParameterError(["grid: must be nonempty"])
        diffs = np.diff(np.asarray(self.grid, dtype=float))
        if len(self.grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ParameterError(["grid: must be strictly monotone"])
        if self.engines not in ("analytic", "simulate", "both"):
            raise ParameterError([f"engines: unknown engine {self.engines!r}"])
        if self.g_policy not in ("optimize", "fixed"):
            raise ParameterError([f"g_policy: unknown policy {self.g_policy!r}"])
        if self.engines in ("simulate", "both") and self.sim is None:
            raise ParameterError(["sim: simulate engine requires a SimConfig"])
        return self


def _analytic_point(params: SystemParams, g_policy):
    """Returns (report, dc); report.chain is solved at the reported g."""
    dc = derive(params)
    pmfs = harvest.arrival_pmfs(params, dc)
    budgets = None if g_policy == "optimize" else (params.G,)
    return energy_chain.optimize_g(params, dc, pmfs, budgets), dc


def _evaluate(spec: SweepSpec, value):
    """Run the spec's engines at one grid point, analytic first.

    Yields (params, engine, result) per engine; result is the engine's
    result or its exception. An analytic result is (report, dc); a simulate
    result is (params it ran at, SimResult). The simulator runs at the
    analytic report's g_star when there is one (the configured G under the
    fixed policy), else at G, and only once the caller asks for its result.
    An invalid point fails every engine, and params is then the point as
    given, unvalidated, so that rows show the bad value.
    """
    engines = ("analytic", "simulate") if spec.engines == "both" else (spec.engines,)
    name = spec.swept_param
    try:
        params = validate(replace(spec.fixed, **{name: coerce_field(name, value)}))
    except Exception as exc:
        for engine in engines:
            yield replace(spec.fixed, **{name: value}), engine, exc
        return
    g_used = params.G
    if "analytic" in engines:
        try:
            result = _analytic_point(params, spec.g_policy)
            g_used = result[0].g_star
        except Exception as exc:
            result = exc
        yield params, "analytic", result
    if "simulate" in engines:
        try:
            sim_params = validate(replace(params, G=g_used))
            result = (sim_params, run_simulation(sim_params, spec.sim))
        except Exception as exc:
            result = exc
        yield params, "simulate", result


def _row(params, metrics, **values):
    """Parameter columns, then the metric columns: the given values, else empty."""
    row = dict.fromkeys(PARAM_FIELDS + metrics, "")
    row.update({name: getattr(params, name) for name in PARAM_FIELDS}, **values)
    return row


def _analytic_row(params, report, dc):
    return _row(
        params, METRIC_COLUMNS,
        engine="analytic",
        mu_p=report.mu_p,
        pi_idle=report.pi_idle,
        pu_throughput=report.pu_throughput,
        regime=primary_link.regime(params, dc),
        g=report.g_star,
        mu_s=report.mu_s_star,
        mu_e=report.mu_e,
        success_prob=energy_chain.success_probability(params, dc, report.g_star),
    )


def _simulate_row(params, result):
    return _row(
        params, METRIC_COLUMNS,
        engine="simulate",
        pi_idle=result.pi_idle_hat,
        pu_throughput=result.pu_throughput_hat,
        g=result.g,
        mu_s=result.su_throughput_hat,
        mu_e=result.energy_consumed_per_slot,
        seed=result.seed,
        slots=result.n_slots,
        warmup=result.warmup,
    )


def _eval_sweep_point(task):
    """One grid point -> one row per engine. Top-level so worker pools can pickle it."""
    spec, value = task
    rows = []
    for params, engine, result in _evaluate(spec, value):
        if isinstance(result, Exception):
            rows.append(_row(params, METRIC_COLUMNS, engine=engine, error=str(result)))
        elif engine == "analytic":
            rows.append(_analytic_row(params, *result))
        else:
            rows.append(_simulate_row(*result))
    return rows


def _rel(delta, ref):
    return abs(delta) / abs(ref) if ref != 0 else ""


def _compare_point(task):
    """One grid point -> its single compare row, in a list like _eval_sweep_point."""
    spec, value = task
    outcome = {}
    for params, engine, result in _evaluate(spec, value):
        if isinstance(result, Exception):
            # Returning here leaves the simulator unrun after an analytic failure.
            return [_row(params, COMPARE_METRICS, error=str(result))]
        outcome[engine] = result
    (report, _), (sim_params, result) = outcome["analytic"], outcome["simulate"]
    tv = 0.5 * float(np.abs(report.chain.chi - result.energy_occupancy_hist).sum())
    return [_row(
        sim_params, COMPARE_METRICS,
        g=report.g_star,
        a_mu_s=report.mu_s_star,
        s_mu_s=result.su_throughput_hat,
        d_mu_s_abs=abs(report.mu_s_star - result.su_throughput_hat),
        d_mu_s_rel=_rel(report.mu_s_star - result.su_throughput_hat, report.mu_s_star),
        a_pi_idle=report.pi_idle,
        s_pi_idle=result.pi_idle_hat,
        d_pi_idle_abs=abs(report.pi_idle - result.pi_idle_hat),
        d_pi_idle_rel=_rel(report.pi_idle - result.pi_idle_hat, report.pi_idle),
        a_pu_throughput=report.pu_throughput,
        s_pu_throughput=result.pu_throughput_hat,
        d_pu_throughput_abs=abs(report.pu_throughput - result.pu_throughput_hat),
        d_pu_throughput_rel=_rel(report.pu_throughput - result.pu_throughput_hat,
                                 report.pu_throughput),
        tv_occupancy=tv,
        seed=result.seed,
        slots=result.n_slots,
    )]


def _run_grid(point_fn, specs, jobs):
    """point_fn over every grid point of every spec, in order; the rows flattened.

    jobs > 1 evaluates the points in one pool of worker processes.
    """
    if jobs < 1:
        raise ParameterError([f"jobs: must be >= 1 (got {jobs})"])
    specs = [spec.check() for spec in specs]
    tasks = [(spec, value) for spec in specs for value in spec.grid]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            nested = list(pool.map(point_fn, tasks))
    else:
        nested = [point_fn(t) for t in tasks]
    return [row for rows in nested for row in rows]


def sweep(spec: SweepSpec, jobs=1) -> list[dict]:
    """Evaluate every grid point; rows stay in grid order, one per engine.

    Per-point failures are recorded in the row's error column and the
    sweep continues.
    """
    return _run_grid(_eval_sweep_point, [spec], jobs)


def compare(spec: SweepSpec, jobs=1) -> list[dict]:
    """Analytic vs simulated deltas per grid point.

    Reports absolute and relative deltas for the secondary throughput, the
    idle probability, and the primary throughput, plus the total-variation
    distance between the stationary vector and the simulated occupancy.
    """
    return _run_grid(_compare_point, [replace(spec, engines="both")], jobs)


# ---------------------------------------------------------------------------
# figure presets: the reference constants with per-figure overrides

_LAMBDA_P_GRID = tuple(round(0.05 * i, 2) for i in range(21))
_SIGMA_PPD_GRID = tuple(round(0.1 * i, 1) for i in range(1, 31))


def preset_specs(name, engines="analytic", sim=None, g_policy="optimize") -> list[SweepSpec]:
    """Sweep specs reproducing the bundled figure-style experiments."""
    common = dict(engines=engines, sim=sim, g_policy=g_policy)
    if name == "fig2":
        return [
            SweepSpec("lambda_p", _LAMBDA_P_GRID,
                      default_params(lambda_e=0.0, eta=eta, E_max=e_max), **common)
            for eta in (0.4, 0.6) for e_max in (6, 10)
        ]
    if name == "fig3":
        fixed = default_params(eta=0.6, lambda_p=0.4, lambda_e=0.0, E_max=10,
                               P_max=dbm_to_watts(1.76))
        return [SweepSpec("sigma_ppd", _SIGMA_PPD_GRID, fixed, **common)]
    if name == "fig4":
        combos = ((0.0, 0.5), (0.6, 0.0), (0.6, 0.5))  # (eta, lambda_e)
        return [
            SweepSpec("lambda_p", _LAMBDA_P_GRID,
                      default_params(eta=eta, lambda_e=lam_e, E_max=6), **common)
            for eta, lam_e in combos
        ]
    if name == "fig5":
        return [
            SweepSpec("lambda_p", _LAMBDA_P_GRID,
                      default_params(eta=0.2, lambda_e=lam_e, E_max=e_max), **common)
            for lam_e in (0.5, 1.0) for e_max in (6, 10)
        ]
    raise ParameterError([f"preset: unknown preset {name!r}"])


# ---------------------------------------------------------------------------
# output plumbing

def write_rows(rows, columns, out=None, fmt="csv", outputs=()):
    """Write rows as CSV (stable column set) or JSON (full values).

    outputs, when given, keeps only those metric columns in the CSV, plus
    the parameter, engine and error columns.
    """
    if fmt == "csv":
        if outputs:
            keep = set(outputs) | {"engine", "error"}
            columns = [c for c in columns if c in keep or c in PARAM_FIELDS]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, restval="", extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps(rows, indent=2, default=_jsonable) + "\n"
    else:
        raise ParameterError([f"format: unknown format {fmt!r}"])
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _jsonable(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# argument parsing

def _add_param_flags(parser):
    grp = parser.add_argument_group("model parameters")
    grp.add_argument("--config", metavar="PATH", help="flat key=value parameter file")
    for name in PARAM_FIELDS:
        flag = "--" + name.lower().replace("_", "-")
        typ = int if name in ("E_max", "G") else float
        grp.add_argument(flag, dest=name, type=typ, default=None, metavar=name)
    grp.add_argument("--p-max-dbm", dest="p_max_dbm", type=float, default=None,
                     metavar="DBM", help="primary power cap in dBm (converted on ingest)")


def _add_sim_flags(parser):
    grp = parser.add_argument_group("simulation")
    grp.add_argument("--seed", type=int, default=12345)
    grp.add_argument("--slots", type=int, default=1_000_000)
    grp.add_argument("--warmup", type=int, default=10_000)


def _add_jobs_flag(parser):
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for grid points")


def _add_out_flags(parser):
    grp = parser.add_argument_group("output")
    grp.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    grp.add_argument("--format", choices=("csv", "json"), default="csv")
    return grp


def _add_outputs_flag(group):
    group.add_argument("--outputs", metavar="COLS", default=(),
                       type=lambda text: tuple(c.strip() for c in text.split(",") if c.strip()),
                       help="comma-separated metric columns to keep (CSV)")


def params_from_args(args) -> SystemParams:
    overrides = {}
    for name in PARAM_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "p_max_dbm", None) is not None:
        if "P_max" in overrides:
            raise ParameterError(["P_max: given in both Watts and dBm"])
        overrides["P_max"] = dbm_to_watts(args.p_max_dbm)
    return load_params(getattr(args, "config", None), overrides)


def _sim_config(args) -> SimConfig:
    return SimConfig(n_slots=args.slots, seed=args.seed, warmup=args.warmup)


# ---------------------------------------------------------------------------
# subcommands

def cmd_analytic(args):
    params = params_from_args(args)
    report, dc = _analytic_point(params, "fixed" if args.fixed_g else "optimize")
    row = _analytic_row(params, report, dc)
    for g, value in sorted(report.mu_s_by_g.items()):
        row[f"mu_s_g{g}"] = value
    columns = PARAM_FIELDS + METRIC_COLUMNS + [f"mu_s_g{g}" for g in sorted(report.mu_s_by_g)]
    if args.dump_pmfs:
        os.makedirs(args.dump_pmfs, exist_ok=True)
        idle, active = harvest.arrival_pmfs(params, dc)
        idle.write_text(os.path.join(args.dump_pmfs, "idle_arrivals.txt"))
        active.write_text(os.path.join(args.dump_pmfs, "active_arrivals.txt"))
        harvest.rf_pmf(dc, params.E_max).write_text(os.path.join(args.dump_pmfs, "rf_conditional.txt"))
    if args.dump_chain:
        os.makedirs(args.dump_chain, exist_ok=True)
        np.savetxt(os.path.join(args.dump_chain, "omega.txt"), report.chain.omega, fmt="%.17g")
        np.savetxt(os.path.join(args.dump_chain, "chi.txt"), report.chain.chi, fmt="%.17g")
    write_rows([row], columns, args.out, args.format, args.outputs)
    return 0


def cmd_simulate(args):
    params = params_from_args(args)
    result = run_simulation(params, _sim_config(args))
    row = _simulate_row(params, result)
    row["pu_queue_mean"] = result.pu_queue_mean
    columns = PARAM_FIELDS + METRIC_COLUMNS + ["pu_queue_mean"]
    for j, frac in enumerate(result.energy_occupancy_hist):
        row[f"occ_{j}"] = frac
    columns += [f"occ_{j}" for j in range(len(result.energy_occupancy_hist))]
    if args.format == "json":
        row["rf_harvest_hist"] = result.rf_harvest_hist
        row["nature_harvest_hist"] = result.nature_harvest_hist
        row["total_harvested"] = result.total_harvested
        row["total_consumed"] = result.total_consumed
        row["total_dropped"] = result.total_dropped
        row["final_energy_level"] = result.final_energy_level
    write_rows([row], columns, args.out, args.format, args.outputs)
    return 0


def _floats(text, sep):
    parts = text.split(sep)
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ParameterError([f"grid: expected numbers separated by {sep!r} (got {text!r})"]) \
            from None


def _grid_from_args(args):
    if args.values:
        return tuple(_floats(args.values, ","))
    if args.grid:
        parts = _floats(args.grid, ":")
        if len(parts) != 3:
            raise ParameterError(["grid: expected START:STOP:STEP"])
        start, stop, step = parts
        if step == 0:
            raise ParameterError(["grid: step must be nonzero"])
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise ParameterError(["grid: empty range"])
        return tuple(round(start + i * step, 12) for i in range(count))
    raise ParameterError(["grid: provide --grid or --values"])


def cmd_grid(args):
    """sweep (one row per engine and point) or compare (one row per point)."""
    fixed = params_from_args(args)
    sim = _sim_config(args) if args.engine in ("simulate", "both") else None
    spec = SweepSpec(args.param, _grid_from_args(args), fixed, engines=args.engine, sim=sim,
                     g_policy=args.g_policy)
    rows = args.run(spec, jobs=args.jobs)
    write_rows(rows, PARAM_FIELDS + args.metrics, args.out, args.format, args.outputs)
    return 0


def cmd_preset(args):
    sim = _sim_config(args) if args.engine in ("simulate", "both") else None
    specs = preset_specs(args.name, engines=args.engine, sim=sim)
    rows = _run_grid(_eval_sweep_point, specs, args.jobs)
    write_rows(rows, PARAM_FIELDS + METRIC_COLUMNS, args.out, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehshare",
        description="Exact throughput analysis and slot simulation for spectrum "
                    "sharing with an energy-harvesting secondary user.")
    sub = parser.add_subparsers(dest="command", required=True)
    engine_choices = ("analytic", "simulate", "both")

    p = sub.add_parser("analytic", help="closed-form report at one operating point")
    _add_param_flags(p)
    _add_outputs_flag(_add_out_flags(p))
    p.add_argument("--fixed-g", action="store_true",
                   help="evaluate at the configured G instead of optimizing")
    p.add_argument("--dump-pmfs", metavar="DIR", help="write the E_max-capped pmfs as two-column text")
    p.add_argument("--dump-chain", metavar="DIR", help="write omega and chi as text matrices")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="Monte Carlo run at one operating point")
    _add_param_flags(p)
    _add_sim_flags(p)
    _add_outputs_flag(_add_out_flags(p))
    p.set_defaults(func=cmd_simulate)

    grid_commands = {}
    for name, help_text in (("sweep", "sweep one parameter over a grid"),
                            ("compare", "analytic vs simulated deltas over a grid")):
        p = grid_commands[name] = sub.add_parser(name, help=help_text)
        _add_param_flags(p)
        _add_sim_flags(p)
        _add_jobs_flag(p)
        _add_outputs_flag(_add_out_flags(p))
        p.add_argument("--param", required=True, help="SystemParams field to sweep")
        p.add_argument("--grid", help="START:STOP:STEP (inclusive)")
        p.add_argument("--values", help="comma-separated grid values")
        p.add_argument("--g-policy", choices=("optimize", "fixed"), default="optimize")
        p.set_defaults(func=cmd_grid)
    grid_commands["sweep"].add_argument("--engine", choices=engine_choices, default="analytic")
    grid_commands["sweep"].set_defaults(run=sweep, metrics=METRIC_COLUMNS)
    grid_commands["compare"].set_defaults(run=compare, metrics=COMPARE_METRICS, engine="both")

    p = sub.add_parser("preset", help="run a bundled figure-style experiment "
                                      "(operating points are hard-coded)")
    p.add_argument("name", choices=("fig2", "fig3", "fig4", "fig5"))
    _add_sim_flags(p)
    _add_jobs_flag(p)
    _add_out_flags(p)
    p.add_argument("--engine", choices=engine_choices, default="analytic")
    p.set_defaults(func=cmd_preset)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
