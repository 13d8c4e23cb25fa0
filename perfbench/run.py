#!/usr/bin/env python3
"""ehshare benchmark: whole CLI workloads, end to end and layer by layer.

  python3 perfbench/run.py --workload figures --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Workloads are defined in workloads.py and explained in METRICS.md.

--trace 0 measures the end-to-end metrics. Times are given at a fixed
reference speed of the machine, measured by calibrations run between
the samples (Runner.set_reference_times):
  setup_s      median time of fresh `python -c "import ehshare"` runs
  wall_s       fresh-process time of the whole workload, import
               included: the sum over its CLI invocations of each one's
               mean over passes
  points_per_s operating points per second, with the CLI's main() called
               in this process after import (over the sum of
               per-invocation means)
  peak_rss_mb  the largest child's peak RSS (wait4), median over passes
  ok_frac      share of attempted points whose row has no error and
               passes every check (1 - failed_frac)
--trace 1 runs the same in-process passes with spans around each layer
(tracing.py), alternating with untraced passes to measure the overhead,
and reports the per-layer metrics.

Within --seconds, the set-up runs come first; then fresh-process and
in-process passes (or traced and untraced ones) alternate, and each kind
runs at least once. The last line of stdout is one JSON object:
correct, attempted, failed and metrics. Raw timings, calibrations, the
manifest and, for --trace 1, every span go to
.perfbench/<workload>-seed<seed>-trace<t>.json in the checkout. The exit
code is 1 if any output check fails and 2 if this is not a checkout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# On two shared vCPUs a second BLAS thread competes with the interpreter
# and with neighbouring load, which makes dense-solve timings bimodal.
# Pin BLAS to one thread here and in every child, before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPS = 3
CALIB_REPS = 3
CALIB_WINDOW = 3
CALIB_SHARE = 0.1  # calibrate for this share of an in-process sample's time
# Typical calibration_s() on the machine the benchmark was built on (Intel
# Xeon, 2 shared vCPUs, Python 3.11, numpy 2.4, OpenBLAS on 1 thread). It
# fixes the reference speed that points_per_s is given at.
CALIB_REF_S = 0.017
# Fresh-process calibration: interpreter start-up and loading of numpy and
# scipy modules, without ehshare; and its typical time on the same machine.
FRESH_CALIB_ARGS = ("-c", "import numpy, scipy.linalg, scipy.sparse")
FRESH_CALIB_REF_S = 0.38
IMPORTTIME_REPS = 3
RNG_FLOOR_REPS = 3
CHILD_TIMEOUT_S = 150.0
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"


# ---------------------------------------------------------------------------
# machine speed

def calibration_s(min_seconds=0.0):
    """Mean time of at least CALIB_REPS runs, and of as many as fit in
    min_seconds, of a fixed mix of interpreter loop, small dense solves
    and random draws, the kinds of work the package does in a process
    that has loaded it. It never calls ehshare, so it times the machine
    alone.

    On a shared host the same code runs up to 2x slower for seconds to
    tens of seconds at a time. In-process work followed this calibration
    closely on the build machine (log-log slope about 0.9). Start-up and
    module loading did not (slope about 0.5), so they have their own
    calibration, FRESH_CALIB_ARGS, run as a child process.
    """
    rng = np.random.default_rng(12345)
    m = rng.random((120, 120)) + 120.0 * np.eye(120)
    times = []
    # The first run is a warm-up: after a child process has run, this
    # process's caches are cold, which is not the machine's speed.
    while len(times) <= CALIB_REPS or sum(times[1:]) < min_seconds:
        start = time.perf_counter()
        acc = 0.0
        for i in range(100_000):
            acc += (i % 7) * 0.5
        for _ in range(24):
            np.cumsum(np.linalg.solve(m, rng.random(120)))
        rng.exponential(1.0, 300_000)
        times.append(time.perf_counter() - start)
    return statistics.fmean(times[1:])


def pin_to_one_cpu():
    """Keep this process and its children (which inherit the mask) on the
    last usable CPU. They never run at once, the calibration then times
    the CPU the measured code runs on, and the other CPUs are left to the
    rest of the machine."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# ---------------------------------------------------------------------------
# processes

def child_env():
    env = dict(os.environ, **BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Spawner:
    """The spawner.py process, which starts every child of the benchmark;
    see its docstring for why. Use as a context manager: on leaving it the
    spawner's stdin is closed and the spawner is waited for."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with {self.proc.wait()}")
        return json.loads(reply)


SPAWNER = None  # the Spawner of this run, set by main()


def run_child(args, capture="stdout"):
    """Run the interpreter with args to completion, through the spawner.

    Returns (wall seconds, peak RSS in MB, exit code, captured text); the
    captured stream is 'stdout' or 'stderr'. The child is killed after
    CHILD_TIMEOUT_S and always reaped with wait4, which also gives its
    peak RSS.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "child.out"
    r = SPAWNER.run({"argv": [sys.executable] + list(args), "cwd": str(ROOT), "env": child_env(),
                     "out": str(path), "capture": capture, "timeout": CHILD_TIMEOUT_S})
    return r["wall_s"], r["rss_mb"], r["code"], path.read_bytes().decode()


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# one pass of a workload

class Runner:
    """Runs passes of one workload and keeps per-invocation measurements."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.invs = wl.invocations(workload, seed)
        self.refs = wl.load_reference(workload, self.invs) if seed == wl.DEFAULT_SEED else None
        self.points = sum(inv.points for inv in self.invs)
        self.attempted = 0
        self.failed = 0
        self.error_rows = []       # per pass
        self.problems = []
        self.passes = {}           # kind -> list of per-invocation dicts
        self.calibrations = []        # calibration_s() after every timed sample
        self.fresh_calibrations = []  # FRESH_CALIB_ARGS times after every child

    def _check(self, i, text, exit_code):
        inv = self.invs[i]
        errors, bad, problems = wl.check_output(inv, text, self.refs[i] if self.refs else None)
        if exit_code != 0:
            problems.append(f"{' '.join(inv.argv[:3])}: exit code {exit_code}")
            bad = inv.points
        self.attempted += inv.points
        self.failed += bad
        self.problems += problems
        return errors

    def _record(self, kind, samples, errors):
        self.passes.setdefault(kind, []).append(samples)
        self.error_rows.append(errors)

    def fresh_pass(self):
        samples, errors = [], 0
        for i, inv in enumerate(self.invs):
            wall, rss, code, text = run_child(("-m", "ehshare.cli_sweep") + inv.argv)
            self.fresh_calibrations.append(run_child(FRESH_CALIB_ARGS)[0])
            self.calibrations.append(calibration_s(CALIB_SHARE * wall))
            errors += self._check(i, text, code)
            samples.append({"wall_s": wall, "rss_mb": rss, "calib": len(self.calibrations) - 1,
                            "fresh_calib": len(self.fresh_calibrations) - 1})
        self._record("fresh", samples, errors)

    def inproc_pass(self, cli_main, kind="inproc"):
        samples, errors = [], 0
        for i, inv in enumerate(self.invs):
            buf = io.StringIO()
            code = 1
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli_main(list(inv.argv))
            except Exception as exc:  # the run goes on; the check reports it
                self.problems.append(f"{' '.join(inv.argv[:3])}: {exc!r}")
            elapsed = time.perf_counter() - start
            self.calibrations.append(calibration_s(CALIB_SHARE * elapsed))
            errors += self._check(i, buf.getvalue(), code)
            samples.append({"wall_s": elapsed, "calib": len(self.calibrations) - 1})
        self._record(kind, samples, errors)

    def per_invocation(self, kind, key, average=statistics.median):
        passes = self.passes[kind]
        return [average([p[i][key] for p in passes]) for i in range(len(self.invs))]

    def points_per_s(self, kind, key="wall_s", average=statistics.median):
        return self.points / sum(self.per_invocation(kind, key, average))

    def set_reference_times(self, setup):
        """Give every set-up, fresh and in-process sample its time at the
        reference speed, "ref_s".

        An in-process sample's wall_s is scaled by CALIB_REF_S / the mean
        of the CALIB_WINDOW calibration_s() times on each side of it. The
        machine switches between a fast and a slow state many times a
        second, so a sample's time follows the mean calibration time
        around it, not the median; for the same reason passes are averaged
        by their mean. A set-up sample is an import, which follows the
        fresh-process calibration. A fresh sample is its import and its
        work, which follows calibration_s(). Its import share is this
        run's median set-up time over the invocation's median wall_s, and
        each share is scaled by its own calibration.
        """
        def around(calibrations, j):  # j: the calibration run right after the sample
            return statistics.fmean(calibrations[max(0, j - CALIB_WINDOW):j + CALIB_WINDOW])

        for s in setup:
            s["ref_s"] = s["wall_s"] * FRESH_CALIB_REF_S / around(self.fresh_calibrations,
                                                                  s["fresh_calib"])
        for samples in self.passes["inproc"]:
            for s in samples:
                s["ref_s"] = s["wall_s"] * CALIB_REF_S / around(self.calibrations, s["calib"])
        setup_s = statistics.median(s["wall_s"] for s in setup)
        walls = self.per_invocation("fresh", "wall_s")
        for samples in self.passes["fresh"]:
            for i, s in enumerate(samples):
                share = min(1.0, setup_s / walls[i])
                s["ref_s"] = s["wall_s"] * (
                    share * FRESH_CALIB_REF_S / around(self.fresh_calibrations, s["fresh_calib"])
                    + (1.0 - share) * CALIB_REF_S / around(self.calibrations, s["calib"]))


def alternate(seconds, kinds):
    """Run the (name, pass function) kinds in turn until seconds run out.

    The kind with the least time spent so far goes next. Each kind runs at
    least once; after that a pass starts only if its last duration still
    fits before the deadline.
    """
    spent = {name: 0.0 for name, _ in kinds}
    last = {}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        fits = [(spent[name], name, fn) for name, fn in kinds
                if name not in last or elapsed + last[name] <= seconds]
        if not fits:
            return
        _, name, fn = min(fits, key=lambda t: t[0])
        t0 = time.perf_counter()
        fn()
        last[name] = time.perf_counter() - t0
        spent[name] += last[name]


# ---------------------------------------------------------------------------
# outside estimates

def parse_importtime(text):
    """(total, scipy) seconds from `python -X importtime -c "import ehshare"`.

    scipy is the cumulative time of every scipy module imported by a
    non-scipy module, i.e. all time spent loading scipy.
    """
    total = scipy = 0.0
    stack = []  # (depth, inside scipy) of enclosing imports
    for line in reversed(text.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        module = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        in_scipy = module == "scipy" or module.startswith("scipy.")
        outer_scipy = bool(stack) and stack[-1][1]
        if in_scipy and not outer_scipy:
            scipy += int(cumulative) / 1e6
        if module == "ehshare" and depth == 0:
            total = int(cumulative) / 1e6
        stack.append((depth, in_scipy or outer_scipy))
    return total, scipy


def rng_floor_s(sim_calls):
    """Time to draw, with numpy alone, the five substreams that
    simulator.run draws for each recorded call; median of repeats."""
    import numpy as np

    def draw_all():
        start = time.perf_counter()
        for params, sim in sim_calls:
            n = sim.n_slots
            arr, ppd, ps, ssd, nat = (np.random.default_rng(s)
                                      for s in np.random.SeedSequence(sim.seed).spawn(5))
            arr.random(n)
            ppd.exponential(params.sigma_ppd, n)
            ps.exponential(params.sigma_ps, n)
            ssd.exponential(params.sigma_ssd, n)
            if params.lambda_e > 0:
                nat.poisson(params.lambda_e * params.T, n)
        return time.perf_counter() - start

    return statistics.median(draw_all() for _ in range(RNG_FLOOR_REPS)) if sim_calls else 0.0


# ---------------------------------------------------------------------------
# manifest and report

def manifest(runner, seconds, trace, package):
    import numpy
    import scipy

    src = ROOT / "src" / "ehshare"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": runner.workload,
        "seed": runner.seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "ehshare": package.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_pinned": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), **BLAS_ENV},
        "reference_check": runner.refs is not None,
        "invocations": [{"argv": ["python", "-m", "ehshare.cli_sweep", *inv.argv],
                         "points": inv.points} for inv in runner.invs],
        "points_per_pass": runner.points,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(runner, seconds, package):
    start = time.perf_counter()
    setup = []
    for _ in range(SETUP_REPS):
        wall = run_child(("-c", "import ehshare"))[0]
        runner.fresh_calibrations.append(run_child(FRESH_CALIB_ARGS)[0])
        setup.append({"wall_s": wall, "fresh_calib": len(runner.fresh_calibrations) - 1})
    alternate(seconds - (time.perf_counter() - start),
              [("fresh", runner.fresh_pass),
               ("inproc", lambda: runner.inproc_pass(package.cli_sweep.main))])
    runner.set_reference_times(setup)
    walls = runner.per_invocation("fresh", "ref_s", statistics.fmean)
    rss = runner.per_invocation("fresh", "rss_mb")
    ok = 1.0 - runner.failed / runner.attempted
    metrics = {
        "setup_s": metric(statistics.median(s["ref_s"] for s in setup), "s"),
        "wall_s": metric(sum(walls), "s"),
        "points_per_s": metric(runner.points_per_s("inproc", "ref_s", statistics.fmean), "1/s"),
        "peak_rss_mb": metric(max(rss), "MB"),
        "ok_frac": metric(ok, "frac"),
    }
    calib, fcalib = runner.calibrations, runner.fresh_calibrations
    notes = [f"setup_s: median of {SETUP_REPS} fresh imports "
             f"{[round(s['ref_s'], 4) for s in setup]}",
             f"passes: {len(runner.passes['fresh'])} fresh-process, "
             f"{len(runner.passes['inproc'])} in-process; {runner.points} points each",
             f"in-process calibration: median {statistics.median(calib):.5f} s of {len(calib)}, "
             f"range {min(calib):.5f}-{max(calib):.5f} s, reference {CALIB_REF_S} s",
             f"fresh-process calibration: median {statistics.median(fcalib):.4f} s of "
             f"{len(fcalib)}, range {min(fcalib):.4f}-{max(fcalib):.4f} s, "
             f"reference {FRESH_CALIB_REF_S} s",
             f"at this run's machine speed, not gated: setup_s "
             f"{statistics.median(s['wall_s'] for s in setup):.4f} s, wall_s "
             f"{sum(runner.per_invocation('fresh', 'wall_s')):.4f} s, "
             f"points_per_s {runner.points_per_s('inproc'):.4f} 1/s"]
    slots = sum(inv.points * inv.slots_per_point for inv in runner.invs)
    if slots:
        notes.append(f"slots_per_s {slots * metrics['points_per_s']['value'] / runner.points:.1f} "
                     f"1/s ({slots} slots per pass, in-process)")
    return metrics, notes, {"setup_s": setup, "calibrations": calib,
                            "fresh_calibrations": fcalib}


def measure_traced(runner, seconds, package):
    from tracing import SELF_METRICS, Tracer, median_layers

    imports = []
    for _ in range(IMPORTTIME_REPS):
        _, _, code, text = run_child(("-X", "importtime", "-c", "import ehshare"), "stderr")
        if code != 0:
            runner.problems.append(f"import ehshare exited with {code}")
        imports.append(parse_importtime(text))

    tracer = Tracer(package)
    cli_main = package.cli_sweep.main

    def traced_pass():
        tracer.begin_pass()
        tracer.install()
        try:
            runner.inproc_pass(lambda argv: tracer.span("cli_sweep.main", cli_main, argv),
                               "traced")
        finally:
            tracer.uninstall()

    alternate(seconds, [("traced", traced_pass),
                        ("inproc", lambda: runner.inproc_pass(cli_main))])

    per_pass = []
    for k, samples in enumerate(runner.passes["traced"]):
        layers = tracer.pass_layers(k)
        layers["trace.inproc_s"] = sum(s["wall_s"] for s in samples)
        layers["trace.self_coverage"] = sum(layers[m] for m in SELF_METRICS) \
            / layers["trace.inproc_s"]
        per_pass.append(layers)
    lay = median_layers(per_pass)
    floor = rng_floor_s(tracer.sim_calls)
    pps_traced = runner.points_per_s("traced")
    pps_plain = runner.points_per_s("inproc")
    coverage = lay["trace.self_coverage"]
    if not 0.9 <= coverage <= 1.1:
        runner.problems.append(f"layer self times cover {coverage:.3f} of the traced time")

    def ratio(num, den):
        return num / den if den else 0.0

    s, u = "s", "count"
    calls = lay["harvest.arrival_pmfs_calls"] - lay["harvest.errors"]
    metrics = {
        "import.total_s": metric(statistics.median(t for t, _ in imports), s),
        "import.scipy_s": metric(statistics.median(sc for _, sc in imports), s),
        "cli_sweep.self_s": metric(lay["cli_sweep.self_s"], s),
        "cli_sweep.write_rows_s": metric(lay["cli_sweep.write_rows_s"], s),
        "cli_sweep.error_rows": metric(statistics.median_low(runner.error_rows), u),
        "cli_sweep.points": metric(runner.points, u),
        "harvest.arrival_pmfs_s": metric(lay["harvest.arrival_pmfs_s"], s),
        "harvest.arrival_pmfs_calls": metric(lay["harvest.arrival_pmfs_calls"], u),
        "harvest.bins": metric(lay["harvest.bins"], u),
        "harvest.bins_per_point": metric(ratio(lay["harvest.bins"], calls), u),
        "harvest.useful_bin_ratio": metric(
            ratio(lay["harvest.useful_bins"], lay["harvest.active_bins"]), "ratio"),
        "harvest.errors": metric(lay["harvest.errors"], u),
        "energy_chain.build_chain_s": metric(lay["energy_chain.build_chain_s"], s),
        "energy_chain.stationary_s": metric(lay["energy_chain.stationary_s"], s),
        "energy_chain.optimize_g_s": metric(lay["energy_chain.optimize_g_s"], s),
        "energy_chain.solves": metric(lay["energy_chain.solves"], u),
        "energy_chain.solves_per_point": metric(
            ratio(lay["energy_chain.solves"], lay["energy_chain.optimize_g_calls"]), u),
        "energy_chain.states_per_solve": metric(
            ratio(lay["energy_chain.states"], lay["energy_chain.solves"]), u),
        "energy_chain.reducible_solves": metric(lay["energy_chain.reducible_solves"], u),
        "simulator.run_s": metric(lay["simulator.run_s"], s),
        "simulator.slots": metric(lay["simulator.slots"], u),
        "simulator.ns_per_slot": metric(ratio(lay["simulator.run_s"] * 1e9,
                                              lay["simulator.slots"]), "ns"),
        "simulator.rng_floor_s": metric(floor, s),
        "simulator.loop_s": metric(lay["simulator.run_s"] - floor if floor else 0.0, s),
        "trace.inproc_s": metric(lay["trace.inproc_s"], s),
        "trace.self_coverage": metric(coverage, "ratio"),
        "trace.overhead_frac": metric(1.0 - pps_traced / pps_plain, "frac"),
    }
    notes = [f"passes: {len(runner.passes['traced'])} traced, "
             f"{len(runner.passes['inproc'])} untraced; {runner.points} points each",
             f"points_per_s traced {pps_traced:.3f}, untraced {pps_plain:.3f}",
             "simulator.rng_floor_s and simulator.loop_s are estimated from outside the "
             "program: the same five SeedSequence substreams drawn with numpy alone"]
    spans = [list(sp) for sp in tracer.spans]
    return metrics, notes, {"imports": imports, "per_pass": per_pass, "spans": spans}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ehshare" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/ehshare; run from the root of an ehshare checkout",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    import ehshare
    import ehshare.cli_sweep  # noqa: F401  (binds package.cli_sweep)

    global SPAWNER
    runner = Runner(args.workload, args.seed)
    measure_fn = measure_traced if args.trace else measure
    with Spawner() as SPAWNER:
        metrics, notes, raw = measure_fn(runner, args.seconds, ehshare)

    info = manifest(runner, args.seconds, args.trace, ehshare)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"manifest": info, "metrics": metrics, "notes": notes,
                                    "problems": runner.problems, "passes": runner.passes,
                                    **raw}) + "\n")

    print("manifest " + json.dumps(info))
    for line in notes:
        print(line)
    print(f"failed_frac {runner.failed / runner.attempted:.6f} "
          f"({runner.failed} of {runner.attempted} points attempted)")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']!r:>24} {m['unit']}")
    for problem in runner.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"details: {out_path.relative_to(ROOT)}")
    correct = not runner.problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
