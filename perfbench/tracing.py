"""In-memory spans around the package's layer boundaries, recorded from
outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
`ehshare` module namespace that holds it, so aliases such as
`cli_sweep.run_simulation` (bound to `simulator.run` at import) are traced
too. `uninstall()` puts the originals back. Nothing under `src/` changes.

A span is (pass, id, parent id, point id, name, start, end). Spans of one
operating point share the point id of the `cli_sweep.point` span that
encloses them. `config` and `primary_link` are closed forms costing
microseconds; they are not wrapped, so their time counts in the self time
of the `cli_sweep` span that calls them.
"""

import functools
import statistics
import time
import warnings

# (module, function, span name). The two private functions are the
# per-point boundary of `sweep`/`preset` and of `compare`.
TRACED = (
    ("cli_sweep", "sweep", "cli_sweep.sweep"),
    ("cli_sweep", "compare", "cli_sweep.compare"),
    ("cli_sweep", "_eval_sweep_point", "cli_sweep.point"),
    ("cli_sweep", "_compare_point", "cli_sweep.point"),
    ("cli_sweep", "write_rows", "cli_sweep.write_rows"),
    ("harvest", "arrival_pmfs", "harvest.arrival_pmfs"),
    ("energy_chain", "optimize_g", "energy_chain.optimize_g"),
    ("energy_chain", "build_chain", "energy_chain.build_chain"),
    ("energy_chain", "stationary", "energy_chain.stationary"),
    ("simulator", "run", "simulator.run"),
)

# Span name -> per-layer self-time metric. Every span belongs to one, so
# the self times add up to the traced time of the CLI calls.
SELF_METRIC = {
    "cli_sweep.main": "cli_sweep.self_s",
    "cli_sweep.sweep": "cli_sweep.self_s",
    "cli_sweep.compare": "cli_sweep.self_s",
    "cli_sweep.point": "cli_sweep.self_s",
    "cli_sweep.write_rows": "cli_sweep.write_rows_s",
    "harvest.arrival_pmfs": "harvest.arrival_pmfs_s",
    "energy_chain.optimize_g": "energy_chain.optimize_g_s",
    "energy_chain.build_chain": "energy_chain.build_chain_s",
    "energy_chain.stationary": "energy_chain.stationary_s",
    "simulator.run": "simulator.run_s",
}

SELF_METRICS = sorted(set(SELF_METRIC.values()))

COUNTERS = ("harvest.arrival_pmfs_calls", "harvest.errors", "harvest.bins",
            "harvest.active_bins", "harvest.useful_bins", "energy_chain.optimize_g_calls",
            "energy_chain.solves", "energy_chain.states", "energy_chain.reducible_solves",
            "simulator.calls", "simulator.slots")


class Tracer:
    def __init__(self, package):
        self._package = package
        self._mods = {name: getattr(package, name)
                      for name in ("cli_sweep", "harvest", "energy_chain", "simulator")}
        self._reducible = package.ReducibleChainWarning
        self._patched = []
        self._stack = []
        self._point = None
        self._n_points = 0
        self.pass_no = -1
        self.spans = []
        self.counts = []          # one counter dict per pass
        self.sim_calls = []       # (params, SimConfig) of the first traced pass

    def begin_pass(self):
        self.pass_no += 1
        self.counts.append(dict.fromkeys(COUNTERS, 0))

    def _count(self, key, n=1):
        self.counts[-1][key] += n

    def _hook(self, name, args, result):
        if name == "harvest.arrival_pmfs":
            idle, active = result
            e_max = args[0].E_max
            self._count("harvest.bins", idle.probs.size + active.probs.size)
            self._count("harvest.active_bins", active.probs.size)
            self._count("harvest.useful_bins", e_max + 1)
        elif name == "energy_chain.optimize_g":
            self._count("energy_chain.optimize_g_calls")
        elif name == "energy_chain.stationary":
            self._count("energy_chain.solves")
            self._count("energy_chain.states", args[0].omega.shape[0])
        elif name == "simulator.run":
            params, sim = args[0], args[1]
            self._count("simulator.calls")
            self._count("simulator.slots", sim.n_slots)
            if self.pass_no == 0:
                self.sim_calls.append((params, sim))

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        parent = self._stack[-1] if self._stack else -1
        outer_point = self._point
        if name == "cli_sweep.point":
            self._point = self._n_points
            self._n_points += 1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        if name == "harvest.arrival_pmfs":
            self._count("harvest.arrival_pmfs_calls")
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if name == "harvest.arrival_pmfs":
                self._count("harvest.errors")
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (self.pass_no, sid, parent, self._point, name, start, end)
            self._point = outer_point
        self._hook(name, args, result)
        return result

    def _wrap(self, name, fn):
        if name == "energy_chain.stationary":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                # Record every ReducibleChainWarning instead of the
                # once-per-process default, so each reducible solve counts.
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", self._reducible)
                    result = self.span(name, fn, *args, **kwargs)
                self._count("energy_chain.reducible_solves",
                            sum(issubclass(w.category, self._reducible) for w in caught))
                return result
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self):
        wrappers = {}
        for mod, attr, name in TRACED:
            fn = getattr(self._mods[mod], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        modules = [self._package] + list(self._mods.values())
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def pass_layers(self, pass_no):
        """Per-layer self times and counters of one traced pass."""
        spans = [s for s in self.spans if s[0] == pass_no]
        child = {}
        for _, sid, parent, _, _, start, end in spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        out = dict.fromkeys(SELF_METRICS, 0.0)
        for _, sid, _, _, name, start, end in spans:
            out[SELF_METRIC[name]] += (end - start) - child.get(sid, 0.0)
        out.update(self.counts[pass_no])
        return out


def median_layers(per_pass):
    """Median over passes of every per-pass value."""
    return {k: (statistics.median_low if k in COUNTERS else statistics.median)(
        p[k] for p in per_pass) for k in per_pass[0]}
