"""Command-line front end: single-point reports, simulator runs, parameter
sweeps, analytic-vs-simulated comparisons, and the bundled figure presets.

Output is plot-ready data (CSV with one metric per column, or JSON);
rendering is left to external tooling. Rows are emitted in grid order and
are deterministic for a fixed sweep spec and seed.
"""

import argparse
import contextlib
import csv
import io
import math
import operator
import os
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import energy_chain, harvest
from .config import (FIELD_OF_LOWER, PARAM_FIELDS, ParameterError, SimConfig, SystemParams,
                     coerce_field, dbm_to_watts, default_params, load_params)

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
    the throughput-maximizing energy budget per point, which the simulator
    reuses when both engines run (alone, it runs at G); 'fixed' keeps G.
    """

    swept_param: str
    grid: tuple
    fixed: SystemParams
    engines: str = "analytic"
    sim: SimConfig | None = None
    g_policy: str = "optimize"

    def __post_init__(self):
        if self.swept_param not in PARAM_FIELDS:
            raise ParameterError([f"swept_param: {self.swept_param!r} is not a parameter field"])
        try:
            grid = np.asarray(self.grid, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError([f"grid: {exc}"]) from None
        if grid.ndim != 1 or grid.size == 0:
            raise ParameterError([f"grid: must be a nonempty 1-D sequence of numbers "
                                  f"(got shape {grid.shape})"])
        if grid.size > 1 and np.isnan(grid).any():  # one point alone is validated as a value
            raise ParameterError(["grid: nan has no place in a monotone grid"])
        diffs = np.diff(grid)
        if grid.size > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ParameterError(["grid: must be strictly monotone"])
        if self.engines not in ("analytic", "simulate", "both"):
            raise ParameterError([f"engines: unknown engine {self.engines!r}"])
        if self.g_policy not in ("optimize", "fixed"):
            raise ParameterError([f"g_policy: unknown policy {self.g_policy!r}"])
        if self.engines in ("simulate", "both") and self.sim is None:
            raise ParameterError(["sim: simulate engine requires a SimConfig"])


def _evaluate(pairs, to_rows, sim_after_failure=True):
    """The rows of a slice of (spec, value) pairs: one list, to_rows(*record), per pair.

    A pair's record is [params, analytic, simulated], each engine's slot its
    ThroughputReport or SimResult, the exception that failed it, or None if it did
    not run. The specs of a slice share engines and sim, not swept_param, fixed or
    g_policy. One optimize_many call solves the slice, then one lockstep run_many
    call simulates at each analytic g_star (else at G); without sim_after_failure
    an analytic failure skips the point's simulation. An error that ends either
    call is that engine's result at each of its points. An invalid point fails
    every engine; a Namespace holds its values.
    """
    first = pairs[0][0]
    assert all((s.engines, s.sim) == (first.engines, first.sim) for s, _ in pairs)
    engines = ("analytic", "simulate") if first.engines == "both" else (first.engines,)
    records, solve = [], []  # solve: per analytic point, its record and budgets
    for spec, value in pairs:
        name = spec.swept_param
        try:  # an error row holds value coerced to its field's type, unless coercion raised
            value = coerce_field(name, value)
            params = SystemParams(**{**vars(spec.fixed), name: value})  # it validates itself
        except Exception as exc:
            records.append([argparse.Namespace(**{**vars(spec.fixed), name: value})]
                           + [exc if e in engines else None for e in ("analytic", "simulate")])
            continue
        records.append([params, None, None])
        if "analytic" in engines:
            solve.append((records[-1], None if spec.g_policy == "optimize" else (params.G,)))
    try:
        reports = energy_chain.optimize_many([(r[0], budgets) for r, budgets in solve])
    except Exception as exc:
        reports = [exc] * len(solve)
    for (r, _), report in zip(solve, reports):
        r[1] = report
    run = [r for r in records if "simulate" in engines and r[2] is None
           and (sim_after_failure or not isinstance(r[1], Exception))]
    if run:
        from .simulator import run_many  # an analytic run never loads the simulator
        try:
            results = run_many([replace(params, G=getattr(a, "g_star", params.G))
                                for params, a, _ in run], first.sim)  # a report's g*, else G
        except Exception as exc:
            results = [exc] * len(run)
        for r, result in zip(run, results):
            r[2] = result
    return [to_rows(*r) for r in records]


def _row(params, metrics, **values):
    """Parameter columns (vars holds them in field order), then the metric columns:
    the given values, else empty."""
    return {**vars(params), **dict.fromkeys(metrics, ""), **values}


def _analytic_row(params, report):
    return _row(
        params, METRIC_COLUMNS,
        engine="analytic",
        mu_p=report.dc.mu_p,
        pi_idle=report.dc.pi_idle,
        pu_throughput=report.dc.pu_throughput,
        regime="stable" if params.lambda_p < report.dc.mu_p else "saturated",
        g=report.g_star,
        mu_s=report.mu_s_star,
        mu_e=report.mu_e,
        success_prob=energy_chain.success_probability(params, report.dc, report.g_star),
    )


def _simulate_row(params, result):
    return _row(
        params, METRIC_COLUMNS,
        engine="simulate",
        G=result.g,
        pi_idle=result.pi_idle_hat,
        pu_throughput=result.pu_throughput_hat,
        g=result.g,
        mu_s=result.su_throughput_hat,
        mu_e=result.energy_consumed_per_slot,
        seed=result.seed,
        slots=result.n_slots,
        warmup=result.warmup,
    )


def _sweep_rows(params, analytic, simulated):
    """A point's rows, one per engine that ran: its metrics, or its error."""
    return [_row(params, METRIC_COLUMNS, engine=engine, error=str(result))
            if isinstance(result, Exception) else _simulate_row(params, result)
            if engine == "simulate" else _analytic_row(params, result)
            for engine, result in (("analytic", analytic), ("simulate", simulated))
            if result is not None]


def _eval_sweep_point(pairs):
    """A slice of (spec, value) pairs -> per pair, one row per engine (pickled to workers)."""
    return _evaluate(pairs, _sweep_rows)


def _compare_point(pairs):
    """A slice of (spec, value) pairs -> per pair, its one compare row, like _eval_sweep_point."""
    return _evaluate(pairs, _compare_rows, sim_after_failure=False)


def _compare_rows(params, analytic, result):
    for failure in (analytic, result):
        if isinstance(failure, Exception):
            return [_row(params, COMPARE_METRICS, error=str(failure))]
    report, dc = analytic, analytic.dc
    tv = 0.5 * float(np.abs(report.chi - result.energy_occupancy_hist).sum())
    values = dict(g=report.g_star, tv_occupancy=tv, seed=result.seed, slots=result.n_slots)
    for name, a, s in (("mu_s", report.mu_s_star, result.su_throughput_hat),
                       ("pi_idle", dc.pi_idle, result.pi_idle_hat),
                       ("pu_throughput", dc.pu_throughput, result.pu_throughput_hat)):
        values.update({f"a_{name}": a, f"s_{name}": s, f"d_{name}_abs": abs(a - s),
                       f"d_{name}_rel": abs(a - s) / abs(a) if a != 0 else ""})
    return [_row(params, COMPARE_METRICS, G=result.g, **values)]


def _run_grid(point_fn, specs, jobs):
    """point_fn over every grid point of every spec, in order; the rows flattened.

    The (spec, value) pairs of all the specs are dealt into k = min(jobs, CPUs,
    pairs) strided slices, pairs[i::k], so that workers share grids whose points
    grow costlier along them; a pool of k worker processes evaluates them if k > 1.
    point_fn gives a row list per pair of its slice.
    """
    if jobs < 1:
        raise ParameterError([f"jobs: must be >= 1 (got {jobs})"])
    pairs = [(spec, value) for spec in specs for value in spec.grid]
    k = min(jobs, os.cpu_count() or 1, len(pairs))  # a worker per CPU: all fork on first submit
    if k > 1:
        from concurrent.futures import ProcessPoolExecutor  # at jobs=1 no CLI run imports it
        with ProcessPoolExecutor(max_workers=k) as pool:
            nested = list(pool.map(point_fn, [pairs[i::k] for i in range(k)]))
    else:
        nested = [point_fn(pairs)]
    return [row for i in range(len(pairs)) for row in nested[i % k][i // k]]  # pair i: slice i % k


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


def preset_specs(name, engines="analytic", sim=None) -> list[SweepSpec]:
    """Sweep specs reproducing the bundled figure-style experiments."""
    common = dict(engines=engines, sim=sim)
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

@contextlib.contextmanager
def _file_errors(field):
    """Raise a file the block cannot read (not UTF-8 either) or write as a ParameterError."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError([f"{field}: {exc}"]) from None


def _check_outputs(columns, outputs):
    """columns, once every name in outputs is one of them."""
    unknown = [c for c in outputs if c not in columns]
    if unknown:
        raise ParameterError([f"outputs: unknown column(s) {', '.join(unknown)}"])
    return columns


def _indexed(outputs, prefix, indices):
    """prefix{i} names in outputs, i in indices: parsed, as E_max may be 10**6 (7 digits)."""
    return [c for c in outputs if (i := re.fullmatch(prefix + "(0|[1-9][0-9]{0,6})", c))
            and int(i[1]) in indices]


def write_rows(rows, columns, out=None, fmt="csv", outputs=()):
    """Write rows as CSV (stable column set) or JSON (full values).

    Every row holds every column. outputs, when given, keeps only those
    metric columns in the CSV, plus the parameter, engine and error columns;
    each must be one of columns.
    """
    _check_outputs(columns, outputs)
    if fmt == "csv":
        if outputs:
            keep = set(outputs) | {"engine", "error"}
            columns = [c for c in columns if c in keep or c in PARAM_FIELDS]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        writer.writerows(map(operator.itemgetter(*columns), rows))
        text = buf.getvalue()
    elif fmt == "json":
        import json
        text = json.dumps(rows, indent=2, default=_jsonable) + "\n"
    else:
        raise ParameterError([f"format: unknown format {fmt!r}"])
    if out is None:
        sys.stdout.write(text)
    else:
        with _file_errors("out"), open(out, "w", newline="") as fh:
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
    for name in PARAM_FIELDS:  # values are ingested as config-file values (load_params)
        grp.add_argument("--" + name.lower().replace("_", "-"), dest=name, metavar=name)
    grp.add_argument("--p-max-dbm", dest="p_max_dbm", metavar="DBM",
                     help="primary power cap in dBm (converted on ingest)")


def _add_sim_flags(parser):
    grp = parser.add_argument_group("simulation")
    grp.add_argument("--seed", type=int, default=12345)
    grp.add_argument("--slots", type=int, default=1_000_000)
    grp.add_argument("--warmup", type=int, default=SimConfig.warmup)


def _add_jobs_flag(parser):
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for grid points")


def _add_out_flags(parser, outputs=True):
    grp = parser.add_argument_group("output")
    grp.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    grp.add_argument("--format", choices=("csv", "json"), default="csv")
    if outputs:
        grp.add_argument("--outputs", metavar="COLS", default=(),
                         type=lambda text: tuple(c.strip() for c in text.split(",") if c.strip()),
                         help="comma-separated metric columns to keep (CSV)")


def params_from_args(args) -> SystemParams:
    """The config file and the parameter flags given, flags winning."""
    given = {key: getattr(args, key) for key in PARAM_FIELDS + ["p_max_dbm"]}
    with _file_errors("config"):
        return load_params(args.config, {k: v for k, v in given.items() if v is not None})


def _sim_config(args) -> SimConfig:
    return SimConfig(n_slots=args.slots, seed=args.seed, warmup=args.warmup)


# ---------------------------------------------------------------------------
# subcommands

def cmd_analytic(args):
    """One point's row from optimize_g(params, budgets); --dump-* read the report's dc."""
    params = params_from_args(args)
    budgets = [params.G] if args.fixed_g else range(1, params.E_max + 1)
    _check_outputs(PARAM_FIELDS + METRIC_COLUMNS + _indexed(args.outputs, "mu_s_g", budgets),
                   args.outputs)
    report = energy_chain.optimize_g(params, budgets)
    row, dc = _analytic_row(params, report), report.dc
    row.update((f"mu_s_g{g}", value) for g, value in sorted(report.mu_s_by_g.items()))
    if args.dump_pmfs or args.dump_chain:
        pmfs = harvest.arrival_pmfs(params, dc)
    if args.dump_pmfs:
        with _file_errors("dump_pmfs"):
            os.makedirs(args.dump_pmfs, exist_ok=True)
            for name, pmf in zip(("idle_arrivals", "active_arrivals", "rf_conditional"),
                                 (*pmfs, harvest.rf_pmf(dc, params.E_max))):
                pmf.write_text(os.path.join(args.dump_pmfs, f"{name}.txt"))
    if args.dump_chain:
        with _file_errors("dump_chain"):
            os.makedirs(args.dump_chain, exist_ok=True)
            omega = energy_chain.build_chain(*pmfs, dc.pi_idle, report.g_star, params.E_max).omega
            np.savetxt(os.path.join(args.dump_chain, "omega.txt"), omega, fmt="%.17g")
            np.savetxt(os.path.join(args.dump_chain, "chi.txt"), report.chi, fmt="%.17g")
    write_rows([row], list(row), args.out, args.format, args.outputs)  # header: mu_s_g{g} last
    return 0


def cmd_simulate(args):
    params = params_from_args(args)
    _check_outputs(PARAM_FIELDS + METRIC_COLUMNS + ["pu_queue_mean"]
                   + _indexed(args.outputs, "occ_", range(params.E_max + 1)), args.outputs)
    from .simulator import run
    result = run(params, _sim_config(args))
    row = _simulate_row(params, result)
    row["pu_queue_mean"] = result.pu_queue_mean
    for j, frac in enumerate(result.energy_occupancy_hist):
        row[f"occ_{j}"] = frac
    if args.format == "json":
        row.update({name: getattr(result, name) for name in (
            "rf_harvest_hist", "nature_harvest_hist", "total_harvested", "total_consumed",
            "total_dropped", "final_energy_level")})
    write_rows([row], list(row), args.out, args.format, args.outputs)  # header: occ_j last
    return 0


def _floats(text, sep):
    parts = text.split(sep)
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ParameterError([f"grid: expected numbers separated by {sep!r} (got {text!r})"]) \
            from None


def _grid_from_args(args):
    if args.values is not None:
        return tuple(_floats(args.values, ","))
    parts = _floats(args.grid, ":")
    if len(parts) != 3:
        raise ParameterError(["grid: expected START:STOP:STEP"])
    start, stop, step = parts
    if step == 0:
        raise ParameterError(["grid: step must be nonzero"])
    steps = (stop - start) / step
    if not all(map(math.isfinite, (start, stop, step, steps))):
        raise ParameterError(["grid: START, STOP, STEP and (STOP - START) / STEP must be finite"])
    count = int(math.floor(steps + 1e-9)) + 1
    if count < 1:
        raise ParameterError(["grid: empty range"])
    if count > 100_000:  # checked before a value is built
        raise ParameterError([f"grid: {count} points exceed the limit of 100000"])
    digits = max(12, 12 - math.floor(math.log10(abs(step))))  # rounding error, not the step
    return tuple(round(start + i * step, digits) for i in range(count))


def cmd_grid(args):
    """sweep (one row per engine and point) or compare (one row per point)."""
    columns = _check_outputs(PARAM_FIELDS + args.metrics, args.outputs)
    fixed = params_from_args(args)
    sim = _sim_config(args) if args.engine in ("simulate", "both") else None
    param = FIELD_OF_LOWER.get(args.param.lower(), args.param)  # in any case, as flags are
    spec = SweepSpec(param, _grid_from_args(args), fixed, engines=args.engine, sim=sim,
                     g_policy=args.g_policy)
    rows = args.run(spec, jobs=args.jobs)
    write_rows(rows, columns, args.out, args.format, args.outputs)
    return 0


def cmd_preset(args):
    sim = _sim_config(args) if args.engine in ("simulate", "both") else None
    specs = preset_specs(args.name, engines=args.engine, sim=sim)
    rows = _run_grid(_eval_sweep_point, specs, args.jobs)
    write_rows(rows, PARAM_FIELDS + METRIC_COLUMNS, args.out, args.format)
    return 0


def build_parser(command=None) -> argparse.ArgumentParser:
    """Every subcommand, with its help; only command's, or each if None, with its arguments."""
    parser = argparse.ArgumentParser(
        prog="ehshare",
        description="Exact throughput analysis and slot simulation for spectrum "
                    "sharing with an energy-harvesting secondary user.")
    sub = parser.add_subparsers(dest="command", required=True)
    engine_choices = ("analytic", "simulate", "both")

    def built(name, help_text):
        p = sub.add_parser(name, help=help_text)
        return p if command in (None, name) else None

    if p := built("analytic", "closed-form report at one operating point"):
        _add_param_flags(p)
        _add_out_flags(p)
        p.add_argument("--fixed-g", action="store_true",
                       help="evaluate at the configured G instead of optimizing")
        p.add_argument("--dump-pmfs", metavar="DIR",
                       help="write the E_max-capped pmfs as two-column text")
        p.add_argument("--dump-chain", metavar="DIR", help="write omega and chi as text matrices")
        p.set_defaults(func=cmd_analytic)

    if p := built("simulate", "Monte Carlo run at one operating point"):
        _add_param_flags(p)
        _add_sim_flags(p)
        _add_out_flags(p)
        p.set_defaults(func=cmd_simulate)

    for name, help_text, run, metrics, engine in (
            ("sweep", "sweep one parameter over a grid", sweep, METRIC_COLUMNS, "analytic"),
            ("compare", "analytic vs simulated deltas over a grid", compare, COMPARE_METRICS, "both")):
        if p := built(name, help_text):
            _add_param_flags(p)
            _add_sim_flags(p)
            _add_jobs_flag(p)
            _add_out_flags(p)
            p.add_argument("--param", required=True, help="SystemParams field to sweep (any case)")
            grid = p.add_mutually_exclusive_group(required=True)
            grid.add_argument("--grid", help="START:STOP:STEP (inclusive)")
            grid.add_argument("--values", help="comma-separated grid values")
            p.add_argument("--g-policy", choices=("optimize", "fixed"), default="optimize")
            if name == "sweep":  # compare has no --engine: it always runs both
                p.add_argument("--engine", choices=engine_choices)
            p.set_defaults(func=cmd_grid, run=run, metrics=metrics, engine=engine)

    if p := built("preset", "run a bundled figure-style experiment "
                            "(operating points are hard-coded)"):
        p.add_argument("name", choices=("fig2", "fig3", "fig4", "fig5"))
        _add_sim_flags(p)
        _add_jobs_flag(p)
        _add_out_flags(p, outputs=False)
        p.add_argument("--engine", choices=engine_choices, default="analytic")
        p.set_defaults(func=cmd_preset)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
