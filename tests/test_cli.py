import csv
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ehshare
from ehshare import cli_sweep
from ehshare.cli_sweep import (SweepSpec, compare, main, preset_specs, sweep)
from ehshare.config import default_params, derive
from ehshare.energy_chain import mu_e, solve_chain, su_throughput
from ehshare.harvest import arrival_pmfs
from ehshare.primary_link import pi_idle
from ehshare.simulator import SimConfig


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_validation_failure_exits_nonzero(capsys):
    assert main(["analytic", "--tau", "2.0"]) == 2
    assert "tau" in capsys.readouterr().err


def test_conflicting_power_flags_exit_nonzero(capsys):
    assert main(["analytic", "--p-max", "0.01", "--p-max-dbm", "10"]) == 2
    assert "P_max" in capsys.readouterr().err


def test_analytic_report_row(tmp_path):
    out = tmp_path / "point.csv"
    assert main(["analytic", "--lambda-p", "0.4", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert float(row["mu_p"]) == pytest.approx(math.exp(-0.2), rel=1e-12)
    assert float(row["pi_idle"]) == pytest.approx(0.6, rel=1e-12)
    assert row["regime"] == "stable"
    assert row["error"] == ""
    assert float(row["mu_s_g1"]) == float(row["mu_s"])  # g_star = 1 here



def test_analytic_fixed_budget_reports_that_budget_only(tmp_path):
    out = tmp_path / "fixed.csv"
    assert main(["analytic", "--g", "3", "--fixed-g", "--out", str(out)]) == 0
    row = read_csv(out)[0]
    p = default_params(G=3)
    dc = derive(p)
    idle, active = arrival_pmfs(p, dc)
    chain = solve_chain(idle, active, pi_idle(p, dc), 3, p.E_max)
    assert row["g"] == "3"
    assert [c for c in row if c.startswith("mu_s_g")] == ["mu_s_g3"]
    assert float(row["mu_s"]) == float(row["mu_s_g3"]) == su_throughput(chain, p, dc)
    assert float(row["mu_e"]) == mu_e(chain, p, dc)

def test_dbm_flag_matches_linear_flag(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["analytic", "--p-max-dbm", "10", "--out", str(out_a)]) == 0
    assert main(["analytic", "--p-max", "0.01", "--out", str(out_b)]) == 0
    a, b = read_csv(out_a)[0], read_csv(out_b)[0]
    assert float(a["P_max"]) == pytest.approx(float(b["P_max"]), rel=1e-12)
    assert float(a["mu_s"]) == pytest.approx(float(b["mu_s"]), rel=1e-9)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("lambda_p = 0.25\ne_max = 6\n")
    out = tmp_path / "point.csv"
    assert main(["analytic", "--config", str(cfg), "--lambda-p", "0.3",
                 "--out", str(out)]) == 0
    row = read_csv(out)[0]
    assert float(row["lambda_p"]) == 0.3
    assert int(row["E_max"]) == 6


def test_analytic_dump_artifacts(tmp_path):
    pmf_dir = tmp_path / "pmfs"
    chain_dir = tmp_path / "chain"
    assert main(["analytic", "--dump-pmfs", str(pmf_dir),
                 "--dump-chain", str(chain_dir), "--out", str(tmp_path / "r.csv")]) == 0
    assert (pmf_dir / "rf_conditional.txt").exists()
    assert (pmf_dir / "idle_arrivals.txt").exists()
    omega = np.loadtxt(chain_dir / "omega.txt")
    chi = np.loadtxt(chain_dir / "chi.txt")
    assert omega.shape == (11, 11)
    assert chi.shape == (11,)
    assert np.max(np.abs(omega.sum(axis=1) - 1.0)) < 1e-12
    assert abs(chi.sum() - 1.0) < 1e-10


def test_simulate_row_and_determinism(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["simulate", "--lambda-p", "0.4", "--slots", "20000", "--warmup", "1000",
            "--seed", "9"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    row = read_csv(out_a)[0]
    assert row["engine"] == "simulate"
    assert int(row["seed"]) == 9 and int(row["slots"]) == 20000
    occ = [float(row[f"occ_{j}"]) for j in range(11)]
    assert math.fsum(occ) == pytest.approx(1.0, abs=1e-9)


def test_simulate_json_includes_histograms(tmp_path):
    out = tmp_path / "run.json"
    assert main(["simulate", "--slots", "20000", "--warmup", "500",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert isinstance(payload, list) and len(payload) == 1
    rec = payload[0]
    assert rec["total_consumed"] + rec["total_dropped"] + rec["final_energy_level"] \
        == rec["total_harvested"]
    assert isinstance(rec["rf_harvest_hist"], list)


def test_sweep_rows_in_grid_order(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", "lambda_p", "--grid", "0.1:0.5:0.2",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [float(r["lambda_p"]) for r in rows] == [0.1, 0.3, 0.5]
    assert all(r["engine"] == "analytic" for r in rows)
    assert all(r["error"] == "" for r in rows)


def test_sweep_per_point_failure_is_recorded_in_row(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", "lambda_p", "--values", "0.5,1.5",
                 "--out", str(out)]) == 0  # sweep continues, exit 0
    rows = read_csv(out)
    assert rows[0]["error"] == ""
    assert "lambda_p" in rows[1]["error"]
    assert float(rows[1]["lambda_p"]) == 1.5

    # both engines: the invalid point still gets one row per engine
    assert main(["sweep", "--param", "lambda_p", "--values", "0.3,1.5", "--engine", "both",
                 "--slots", "2000", "--warmup", "100", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["engine"] for r in rows] == ["analytic", "simulate"] * 2
    assert [r["error"] == "" for r in rows] == [True, True, False, False]
    assert all("lambda_p" in r["error"] and float(r["lambda_p"]) == 1.5 for r in rows[2:])


def test_sweep_both_engines_share_optimized_budget(tmp_path):
    out = tmp_path / "both.csv"
    assert main(["sweep", "--param", "lambda_p", "--values", "0.3,0.5",
                 "--engine", "both", "--slots", "20000", "--warmup", "1000",
                 "--seed", "4", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["engine"] for r in rows] == ["analytic", "simulate"] * 2
    for analytic, sim in zip(rows[::2], rows[1::2]):
        assert sim["g"] == analytic["g"]
        assert int(sim["seed"]) == 4  # common random numbers across points


def test_sweep_integer_parameter(tmp_path):
    out = tmp_path / "emax.csv"
    assert main(["sweep", "--param", "E_max", "--values", "2,4,6",
                 "--out", str(out)]) == 0
    assert [int(r["E_max"]) for r in read_csv(out)] == [2, 4, 6]


def test_sweep_outputs_filter(tmp_path):
    out = tmp_path / "narrow.csv"
    assert main(["sweep", "--param", "lambda_p", "--values", "0.4",
                 "--outputs", "mu_s", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert "mu_s" in rows[0] and "mu_e" not in rows[0]


def test_bad_grid_exits_nonzero(capsys):
    assert main(["sweep", "--param", "lambda_p", "--grid", "0.1:0.5"]) == 2
    assert main(["sweep", "--param", "nope", "--values", "0.1"]) == 2
    capsys.readouterr()
    for argv in (["--values", "0.1,abc"], ["--grid", "a:b:c"]):
        assert main(["sweep", "--param", "lambda_p"] + argv) == 2
        assert "grid" in capsys.readouterr().err
    for cmd in ("sweep", "compare"):
        assert main([cmd, "--param", "lambda_p", "--values", "0.1", "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err
    assert main(["preset", "fig3", "--jobs", "-1"]) == 2
    assert "jobs" in capsys.readouterr().err


def test_bad_seed_exits_nonzero(capsys):
    grid = ["--param", "lambda_p", "--values", "0.4"]
    for argv in (["simulate"], ["compare", *grid],
                 ["sweep", *grid, "--engine", "simulate"], ["sweep", *grid, "--engine", "both"],
                 ["preset", "fig2", "--engine", "simulate"], ["preset", "fig2", "--engine", "both"]):
        assert main(argv + ["--seed", "-1", "--slots", "1000", "--warmup", "10"]) == 2, argv
        assert "seed: must be an integer >= 0" in capsys.readouterr().err, argv


def test_removed_flags_are_rejected(capsys):
    for argv in (["simulate", "--jobs", "2"], ["analytic", "--epsilon", "1e-9"],
                 ["preset", "fig2", "--epsilon", "1e-9"],
                 ["preset", "fig2", "--outputs", "mu_s"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_compare_reports_deltas(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--param", "lambda_p", "--values", "0.3,0.5",
                 "--slots", "50000", "--warmup", "2000", "--seed", "12",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 2
    for row in rows:
        assert row["error"] == ""
        assert float(row["tv_occupancy"]) < 0.05
        assert float(row["d_pi_idle_abs"]) < 0.02
        assert abs(float(row["a_mu_s"]) - float(row["s_mu_s"])) \
            == pytest.approx(float(row["d_mu_s_abs"]), abs=1e-12)


def test_compare_skips_simulator_after_analytic_failure(monkeypatch):
    def fail(*args):
        raise ValueError("analytic engine failed")

    calls = []
    monkeypatch.setattr(cli_sweep, "_analytic_point", fail)
    monkeypatch.setattr(cli_sweep, "run_simulation", lambda *a: calls.append(a))
    spec = SweepSpec("P_max", (100.0,), default_params(eta=0.9),
                     sim=SimConfig(n_slots=1000, seed=1, warmup=10))
    rows = compare(spec)
    assert calls == []
    assert len(rows) == 1 and "analytic engine failed" in rows[0]["error"]


def test_large_inputs_get_an_analytic_result(tmp_path):
    # 100 W at eta = 0.9 and lambda_e = 2e6 have harvest pmfs far longer than
    # the battery; the chain only needs their first E_max bins
    for flags in (["--p-max-dbm", "50", "--eta", "0.9"], ["--lambda-e", "2e6"]):
        out = tmp_path / "point.csv"
        assert main(["analytic", *flags, "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert row["error"] == ""
        p = default_params(P_max=float(row["P_max"]), eta=float(row["eta"]),
                           lambda_e=float(row["lambda_e"]))
        dc = derive(p)
        assert float(row["pu_throughput"]) == pytest.approx(
            min(p.lambda_p, math.exp(-dc.a / p.sigma_ppd)), rel=1e-12)
        assert 1 <= int(row["g"]) <= p.E_max
        assert 0.0 <= float(row["mu_s"]) <= float(row["pi_idle"])


def _load_perfbench(name):
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["high_power", "big_battery", "monte_carlo"])
def test_benchmark_workload_rows_pass_its_checks(workload, capsys):
    # the benchmark's own row checks: closed forms, and its seed-0 reference
    # rows, analytic columns within 1e-12 and simulator columns (s_*) bit for
    # bit; high_power reaches 50 dBm at eta = 0.9
    workloads = _load_perfbench("workloads")
    invs = workloads.invocations(workload, 0)
    refs = workloads.load_reference(workload, invs)
    for inv, ref in zip(invs, refs):
        assert main(list(inv.argv)) == 0
        assert workloads.check_output(inv, capsys.readouterr().out, ref) == (0, 0, [])


def test_compare_degenerate_sources_agree_exactly(tmp_path):
    out = tmp_path / "null.csv"
    assert main(["compare", "--param", "lambda_p", "--values", "0.4",
                 "--eta", "0", "--lambda-e", "0", "--slots", "20000",
                 "--warmup", "500", "--out", str(out)]) == 0
    row = read_csv(out)[0]
    assert float(row["a_mu_s"]) == 0.0
    assert float(row["s_mu_s"]) == 0.0


def test_preset_fig2_rows(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["preset", "fig2", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 4 * 21  # two efficiencies x two capacities x 21 grid points
    combos = {(r["eta"], r["E_max"]) for r in rows}
    assert len(combos) == 4
    assert all(r["error"] == "" for r in rows)


def test_preset_fig3_uses_low_power_cap(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["preset", "fig3", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 30
    assert float(rows[0]["P_max"]) == pytest.approx(10 ** ((1.76 - 30) / 10), rel=1e-12)
    pu = [float(r["pu_throughput"]) for r in rows]
    assert all(b >= a - 1e-15 for a, b in zip(pu, pu[1:]))


def test_preset_determinism(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["preset", "fig4", "--out", str(out_a)]) == 0
    assert main(["preset", "fig4", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_preset_json_format(tmp_path):
    out = tmp_path / "fig5.json"
    assert main(["preset", "fig5", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 4 * 21
    assert {rec["lambda_e"] for rec in payload} == {0.5, 1.0}


def test_presets_match_reference_rows(tmp_path):
    # perfbench/ref/figures_seed0.csv holds the rows of `preset fig2..fig5`,
    # in that order, from an earlier commit of this code
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ref = read_csv(os.path.join(root, "perfbench", "ref", "figures_seed0.csv"))
    rows = []
    for name in ("fig2", "fig3", "fig4", "fig5"):
        assert main(["preset", name, "--out", str(tmp_path / "p.csv")]) == 0
        rows += read_csv(tmp_path / "p.csv")
    assert len(rows) == len(ref)
    assert list(rows[0]) == list(ref[0])
    exact = {"engine", "regime", "error", "E_max", "G", "g", "seed", "slots", "warmup"}
    for got, want in zip(rows, ref):
        for col, w in want.items():
            if col in exact or not w:
                assert got[col] == w, col
            else:
                assert float(got[col]) == pytest.approx(float(w), rel=0, abs=1e-12), col


def test_traced_functions_exist():
    # the benchmark's tracer wraps these functions by name
    tracing = _load_perfbench("tracing")
    for mod, attr, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"ehshare.{mod}"), attr)), (mod, attr)


def test_sweep_api_with_worker_pool_matches_serial():
    spec = SweepSpec(swept_param="lambda_p", grid=(0.2, 0.4, 0.6),
                     fixed=default_params(), engines="analytic")
    serial = sweep(spec, jobs=1)
    pooled = sweep(spec, jobs=2)
    assert serial == pooled


def test_sweep_rejects_empty_grid():
    from ehshare.config import ParameterError
    for run in (sweep, compare):
        for jobs in (1, 2):
            with pytest.raises(ParameterError, match="grid"):
                run(SweepSpec("lambda_p", (), default_params(),
                              sim=SimConfig(n_slots=1000, seed=1, warmup=10)), jobs=jobs)


def test_preset_specs_reject_unknown_name():
    from ehshare.config import ParameterError
    with pytest.raises(ParameterError):
        preset_specs("fig9")


def test_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: the package and its CLI must work with
    # every scipy import failing. lambda_e=800 gives reducible chains.
    src_dir = os.path.dirname(os.path.dirname(ehshare.__file__))
    code = ("import sys; sys.modules['scipy'] = None; import ehshare; "
            "from ehshare.cli_sweep import main; "
            f"assert main(['preset', 'fig5', '--out', {str(tmp_path / 'fig5.csv')!r}]) == 0; "
            f"assert main(['analytic', '--lambda-e', '800', '--out', {str(tmp_path / 'a.csv')!r}]) == 0")
    env = dict(os.environ, PYTHONPATH=src_dir + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert read_csv(tmp_path / "a.csv")[0]["error"] == ""
