import argparse
import contextlib
import csv
import importlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ehshare
from ehshare import cli_sweep, energy_chain, harvest, simulator
from ehshare.cli_sweep import SweepSpec, build_parser, compare, main, preset_specs, sweep
from ehshare.config import PARAM_FIELDS, ParameterError, default_params, derive
from ehshare.energy_chain import build_chain, mu_e, stationary, su_throughput
from ehshare.harvest import HarvestPmf, arrival_pmfs
from ehshare.simulator import SimConfig, run as simulate


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



def test_analytic_reports_every_budget(tmp_path):
    # the search for g* skips budgets; analytic still writes all of them
    out = tmp_path / "point.json"
    assert main(["analytic", "--e-max", "12", "--format", "json", "--out", str(out)]) == 0
    (row,) = json.loads(out.read_text())
    p = default_params(E_max=12)
    dc = derive(p)
    report = energy_chain.optimize_g(p, dc, arrival_pmfs(p, dc), budgets=range(1, 13))
    assert [c for c in row if c.startswith("mu_s_g")] == [f"mu_s_g{g}" for g in range(1, 13)]
    assert all(row[f"mu_s_g{g}"] == report.mu_s_by_g[g] for g in range(1, 13))
    assert row["g"] == report.g_star and row["mu_s"] == report.mu_s_star


def test_analytic_fixed_budget_reports_that_budget_only(tmp_path):
    out = tmp_path / "fixed.csv"
    assert main(["analytic", "--g", "3", "--fixed-g", "--out", str(out)]) == 0
    row = read_csv(out)[0]
    p = default_params(G=3)
    dc = derive(p)
    idle, active = arrival_pmfs(p, dc)
    chain = build_chain(idle, active, dc.pi_idle, 3, p.E_max)
    stationary(chain)
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
    # bit for bit: the chain built at the report's g_star, and the report's chi
    params = default_params()
    dc = derive(params)
    pmfs = arrival_pmfs(params, dc)
    report = energy_chain.optimize_g(params, dc, pmfs, range(1, params.E_max + 1))
    assert np.array_equal(omega, build_chain(*pmfs, dc.pi_idle, report.g_star, params.E_max).omega)
    assert np.array_equal(chi, report.chi)


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


def test_fixed_g_policy_runs_every_engine_at_the_configured_budget(tmp_path):
    out, sim = tmp_path / "fixed.csv", ["--slots", "20000", "--warmup", "1000"]
    grid = ["--param", "lambda_p", "--values", "0.2,0.4", "--g", "3", "--g-policy", "fixed"]
    assert main(["sweep", *grid, "--engine", "both", *sim, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["engine"] for r in rows] == ["analytic", "simulate"] * 2
    assert all(r["g"] == "3" and r["error"] == "" for r in rows)
    fixed = []
    for lambda_p in (0.2, 0.4):
        p = default_params(lambda_p=lambda_p, G=3)
        fixed.append(energy_chain.optimize_g(p, derive(p), arrival_pmfs(p, derive(p)), [3]))
    assert [float(r["mu_s"]) for r in rows[::2]] == [r.mu_s_star for r in fixed]
    assert main(["compare", *grid, *sim, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["g"] for r in rows] == ["3", "3"]
    assert [float(r["a_mu_s"]) for r in rows] == [r.mu_s_star for r in fixed]


def test_simulate_sweep_runs_at_the_configured_budget(tmp_path):
    # no analytic engine runs, so the default policy has no optimum to reuse
    out = tmp_path / "sim.csv"
    assert main(["sweep", "--param", "lambda_p", "--values", "0.2,0.4", "--g", "3",
                 "--engine", "simulate", "--slots", "20000", "--warmup", "1000",
                 "--out", str(out)]) == 0
    assert [r["g"] for r in read_csv(out)] == ["3", "3"]


def test_sweep_integer_parameter(tmp_path):
    out = tmp_path / "emax.csv"
    assert main(["sweep", "--param", "E_max", "--values", "2,4,6",
                 "--out", str(out)]) == 0
    assert [int(r["E_max"]) for r in read_csv(out)] == [2, 4, 6]


@pytest.mark.parametrize("param, values, flags, given", [
    ("E_max", "5,3", ["--g", "4"], "3"),  # G = 4 > E_max = 3
    ("G", "1,2", ["--e-max", "1"], "2"),
    ("G", "0.5,1", [], "0.5"),            # not an integer: the value as given
])
@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_an_error_row_writes_the_swept_value_as_its_field_type(command, param, values, flags,
                                                                given, tmp_path):
    out = tmp_path / "rows.csv"
    assert main([command, "--param", param, "--values", values, *flags, "--slots", "2000",
                 "--warmup", "100", "--out", str(out)]) == 0
    (row,) = [r for r in read_csv(out) if r["error"]]
    assert param in row["error"] and row[param] == given


@pytest.mark.parametrize("given, field, values", [
    ("e_max", "E_max", "4,6"), ("P_MAX", "P_max", "0.5,1"), ("lambda_P", "lambda_p", "0.2,0.4")])
def test_param_names_a_field_in_any_case(given, field, values, tmp_path):
    # as config keys and parameter flags do
    outs = [tmp_path / "given.csv", tmp_path / "field.csv"]
    for name, out in zip((given, field), outs):
        assert main(["sweep", "--param", name, "--values", values, "--out", str(out)]) == 0
    assert outs[0].read_text() == outs[1].read_text()
    assert [r["error"] for r in read_csv(outs[0])] == ["", ""]


def test_sweep_outputs_filter(tmp_path):
    out = tmp_path / "narrow.csv"
    assert main(["sweep", "--param", "lambda_p", "--values", "0.4",
                 "--outputs", "mu_s", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert "mu_s" in rows[0] and "mu_e" not in rows[0]


def test_outputs_must_name_columns_the_subcommand_writes(tmp_path, capsys, monkeypatch):
    # the columns follow from the parameters, so a bad name fails before any work
    grid, sim = ["--param", "lambda_p", "--values", "0.2"], ["--slots", "2000", "--warmup", "10"]
    with monkeypatch.context() as patched:
        for module, name in ((energy_chain, "optimize_many"), (energy_chain, "optimize_g"),
                             (simulator, "run_many"), (simulator, "run")):
            patched.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
        for argv in (["sweep", *grid, "--outputs", "mu_S"],
                     ["compare", *grid, *sim, "--outputs", "engine"],
                     ["analytic", "--outputs", "mu_s_g11"],
                     ["analytic", "--fixed-g", "--g", "2", "--outputs", "mu_s_g1"],
                     ["simulate", *sim, "--outputs", "mu_s,occ_11"]):
            assert main(argv) == 2, argv
            assert "invalid parameters: outputs: unknown column(s)" in capsys.readouterr().err, argv
    out = tmp_path / "narrow.csv"
    for argv, col in ((["analytic", "--outputs", "mu_s_g10"], "mu_s_g10"),
                      (["simulate", *sim, "--outputs", "occ_10,pu_queue_mean"], "pu_queue_mean"),
                      (["compare", *grid, *sim, "--outputs", "d_mu_s_rel"], "d_mu_s_rel")):
        assert main(argv + ["--out", str(out)]) == 0, argv
        assert col in read_csv(out)[0], argv


def test_analytic_parses_budget_columns_against_1_to_e_max(capsys, monkeypatch):
    # at E_max = 10**6 a bad mu_s_g{g} name exits 2 before any engine runs,
    # and mu_s_g{E_max} passes the check and reaches the first engine step
    def reached(*args, **kwargs):
        raise ParameterError(["E_max: engine reached"])

    monkeypatch.setattr(harvest, "arrival_pmfs", reached)
    argv = ["analytic", "--e-max", "1000000", "--outputs"]
    # 5,000 digits: past the digits int() reads from a string
    for name in ("mu_s_g0", "mu_s_g1000001", "mu_s_g01", "mu_s_g+1", "mu_s_g",
                 "mu_s_g" + "1" * 5000):
        assert main(argv + [name]) == 2, name
        assert f"outputs: unknown column(s) {name}" in capsys.readouterr().err, name
    assert main(argv + ["mu_s,mu_s_g1000000"]) == 2
    assert "E_max: engine reached" in capsys.readouterr().err


def test_simulate_parses_occupancy_columns_against_0_to_e_max(capsys, monkeypatch):
    # as for analytic's mu_s_g{g}: at E_max = 10**6 a bad occ_{j} name exits 2
    # before the simulator runs, and occ_0 and occ_{E_max} reach it
    def reached(*args, **kwargs):
        raise ParameterError(["E_max: simulator reached"])

    monkeypatch.setattr(simulator, "run", reached)
    argv = ["simulate", "--e-max", "1000000", "--outputs"]
    for name in ("occ_1000001", "occ_01", "occ_-1", "occ_", "occ_+1", "occ_" + "1" * 5000):
        assert main(argv + [name]) == 2, name
        assert f"outputs: unknown column(s) {name}" in capsys.readouterr().err, name
    for name in ("occ_0", "occ_1000000", "pu_queue_mean,occ_0"):
        assert main(argv + [name]) == 2, name
        assert "E_max: simulator reached" in capsys.readouterr().err, name


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


@pytest.mark.parametrize("case, field", [
    (["sweep", "--param", "lambda_p", "--values", "0.3,0.1,0.2"], "grid"),
    (["sweep", "--param", "lambda_p", "--grid", "0.1:0.5:0"], "grid"),
    (["sweep", "--param", "lambda_p", "--grid", "0.5:0.1:0.1"], "grid"),
    *[(["sweep", "--param", "lambda_p", f"--grid={grid}"], "grid") for grid in (
        "0:1:nan", "nan:1:0.1", "0:inf:1", "-inf:0:1", "0:1e308:1e-308", "0:1:inf")],
    (["sweep", "--param", "p_max_dbm", "--values", "10"], "swept_param"),  # a key, not a field
    (lambda: SweepSpec("e_max", (5,), default_params()), "swept_param"),  # --param's case is not
    (lambda: SweepSpec("lambda_p", (5, 10**400), default_params()), "grid"),
    (lambda: SweepSpec("lambda_p", ("x",), default_params()), "grid"),
    (lambda: SweepSpec("lambda_p", 5, default_params()), "grid"),            # not a sequence
    (lambda: SweepSpec("lambda_p", ((0.1, 0.2),), default_params()), "grid"),  # not 1-D
    (lambda: SweepSpec("lambda_p", (0.1,), default_params(), engines="exact"), "engines"),
    (lambda: SweepSpec("lambda_p", (0.1,), default_params(), g_policy="best"), "g_policy"),
    (lambda: SweepSpec("lambda_p", (0.1,), default_params(), engines="simulate"), "sim"),
    (lambda: cli_sweep.write_rows([], ["mu_s"], fmt="xml"), "format"),
])
def test_bad_grid_spec_and_format_name_the_field(case, field, capsys):
    if callable(case):
        with pytest.raises(ParameterError) as exc:
            case()
        assert exc.value.fields == [field]
    else:
        assert main(case) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid parameters: {field}: ")


def test_grid_of_more_than_100000_points_exits_2_before_a_value_is_built(capsys):
    assert main(["sweep", "--param", "lambda_p", "--grid", "0:1:1e-12"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid parameters: grid: ")
    grid = cli_sweep._grid_from_args
    assert len(grid(argparse.Namespace(values=None, grid="0:99999:1"))) == 100_000
    with pytest.raises(ParameterError, match="grid: 100001 points"):
        grid(argparse.Namespace(values=None, grid="0:100000:1"))


def test_analytic_memory_error_names_e_max(monkeypatch, capsys):
    # a MemoryError while one E_max's chains are solved, or their kernels
    # built, fails that E_max's points alone
    def solve_stack(omega):  # chains of more than 40 states do not fit
        if omega.shape[1] > 40:
            raise MemoryError
        return real_solve(omega)

    def kernels(*args):
        raise MemoryError

    real_solve = energy_chain._solve_stack
    monkeypatch.setattr(energy_chain, "_solve_stack", solve_stack)
    assert main(["analytic", "--e-max", "40"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid parameters: E_max: 40 ")
    errors = [r["error"] for r in sweep(SweepSpec("E_max", (10, 40, 60), default_params()))]
    assert errors[0] == "" and all(e.startswith("invalid parameters: E_max: ") for e in errors[1:])
    monkeypatch.setattr(energy_chain, "_kernels", kernels)
    p = default_params()
    with pytest.raises(ParameterError) as exc:
        energy_chain.optimize_g(p, derive(p), arrival_pmfs(p, derive(p)))
    assert exc.value.fields == ["E_max"]


def _no_engine(*args):
    raise AssertionError("an engine ran")


@pytest.mark.parametrize("e_max", ["1e20", "1e308"])
def test_e_max_above_the_ceiling_exits_2_before_an_engine_runs(e_max, monkeypatch, capsys,
                                                                tmp_path):
    # such an E_max used to build E_max column names, an E_max-bin RF pmf or
    # E_max histogram names before any check ran; validate now refuses it first
    for module, name in ((harvest, "arrival_pmfs"), (harvest, "rf_pmf"),
                         (simulator, "run"), (simulator, "run_many")):
        monkeypatch.setattr(module, name, _no_engine)
    sim = ["--slots", "1000", "--warmup", "10"]
    for argv in (["analytic"], ["analytic", "--fixed-g"], ["simulate", *sim]):
        assert main(argv + ["--e-max", e_max]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: invalid parameters: E_max: must be at most 1000000 (got ")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--param", "E_max", "--values", e_max, "--engine", "both", *sim,
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["engine"] for r in rows] == ["analytic", "simulate"]
    assert all(r["error"].startswith("invalid parameters: E_max: must be at most 1000000")
               for r in rows)


def test_the_largest_e_max_allowed_gets_a_result_or_exit_2(monkeypatch, capsys):
    # 10**6 passes validate; the chain's MemoryError, stubbed so that nothing
    # allocates, then names E_max, as at any E_max too large for memory
    def kernels(*args):
        raise MemoryError

    point_mass = HarvestPmf(np.array([1.0]), 0.0)
    monkeypatch.setattr(harvest, "arrival_pmfs", lambda p, dc: (point_mass, point_mass))
    monkeypatch.setattr(energy_chain, "_kernels", kernels)
    message = "invalid parameters: E_max: 1000000 is too large for the analytic engine's memory"
    assert main(["analytic", "--fixed-g", "--e-max", "1000000"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert [r["error"] for r in sweep(SweepSpec("E_max", (10**6,), default_params()))] == [message]


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


def test_grid_and_values_are_required_and_exclusive(capsys):
    for cmd in ("sweep", "compare"):
        for argv in ([], ["--grid", "0.1:0.5:0.1", "--values", "0.2"]):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--param", "lambda_p", "--slots", "2000", "--warmup", "10", *argv])
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
    monkeypatch.setattr(harvest, "arrival_pmfs", fail)
    monkeypatch.setattr(simulator, "run", lambda *a: calls.append(a))
    monkeypatch.setattr(simulator, "run_many", lambda *a: calls.append(a) or [])
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


def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch):
    # every worker forks on the first submit, so --jobs 10000 must not ask
    # for 10000; the stub pool maps in this process and starts none
    import concurrent.futures
    pools = []

    class Pool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    spec = SweepSpec("lambda_p", tuple(round(0.05 * i, 2) for i in range(20)), default_params())
    serial = sweep(spec, jobs=1)
    for cpus, workers in ((3, [3]), (1, []), (None, []), (64, [20])):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        pools.clear()
        assert sweep(spec, jobs=10_000) == serial
        assert pools == workers, cpus


def test_compare_and_preset_with_worker_pool_match_serial():
    # each worker simulates one strided slice of a grid in lockstep; the
    # rows must not depend on how the grid is dealt
    spec = SweepSpec("lambda_p", (0.1, 0.3, 0.5, 0.7, 0.9), default_params(lambda_e=0.5),
                     sim=SimConfig(n_slots=20_000, seed=3, warmup=500))
    assert compare(spec, jobs=2) == compare(spec, jobs=1)
    assert compare(spec, jobs=5) == compare(spec, jobs=1)
    sim = SimConfig(n_slots=20_000, seed=12345, warmup=10_000)
    specs = preset_specs("fig4", engines="both", sim=sim)
    assert cli_sweep._run_grid(cli_sweep._eval_sweep_point, specs, 2) \
        == cli_sweep._run_grid(cli_sweep._eval_sweep_point, specs, 1)


def test_simulate_sweep_gives_only_the_failing_point_an_error_row(tmp_path):
    # lambda_e * T = 1e300 exceeds numpy's Poisson limit; the simulator
    # rejects that point before drawing and the other points still run
    out = tmp_path / "sim.csv"
    assert main(["sweep", "--param", "lambda_e", "--values", "0.5,2.0,1e300", "--engine",
                 "simulate", "--slots", "3000", "--warmup", "100", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["error"] == "" for r in rows] == [True, True, False]
    assert rows[2]["error"].startswith("invalid parameters: lambda_e:")
    for row, lam_e in zip(rows, (0.5, 2.0)):
        res = simulate(default_params(lambda_e=lam_e), SimConfig(n_slots=3000, seed=12345,
                                                                 warmup=100))
        assert float(row["mu_s"]) == res.su_throughput_hat


def test_a_failed_lockstep_run_errors_each_of_its_points_and_the_sweep_goes_on(monkeypatch):
    def fail(points, sim):
        raise MemoryError("batch too large")

    monkeypatch.setattr(simulator, "run_many", fail)
    spec = SweepSpec("lambda_p", (0.2, 0.4, 0.6), default_params(), engines="both",
                     sim=SimConfig(n_slots=1000, seed=1, warmup=10))
    rows = sweep(spec)
    assert [(r["engine"], r["error"]) for r in rows] \
        == [("analytic", ""), ("simulate", "batch too large")] * 3
    assert [r["error"] for r in compare(spec)] == ["batch too large"] * 3


def test_a_failed_shared_solve_errors_each_of_its_points_and_the_sweep_goes_on(monkeypatch):
    def fail(points):
        raise MemoryError("stack too large")

    monkeypatch.setattr(cli_sweep.energy_chain, "optimize_many", fail)
    spec = SweepSpec("lambda_p", (0.2, 0.4, 0.6), default_params(), engines="both",
                     sim=SimConfig(n_slots=1000, seed=1, warmup=10))
    rows = sweep(spec)
    assert [(r["engine"], r["error"]) for r in rows] \
        == [("analytic", "stack too large"), ("simulate", "")] * 3
    assert [r["error"] for r in compare(spec)] == ["stack too large"] * 3


@pytest.mark.parametrize("argv, field", [
    (["simulate", "--lambda-e", "1e300", "--slots", "2000", "--warmup", "10"], "lambda_e"),
    (["analytic", "--t", "inf"], "T"),
    (["analytic", "--lambda-e", "inf"], "lambda_e"),
    (["analytic", "--beta", "inf"], "beta"),
    (["analytic", "--sigma-ppd", "inf"], "sigma_ppd"),
    (["analytic", "--e-pkt", "inf"], "e_pkt"),
    (["analytic", "--w", "inf"], "W"),
    (["analytic", "--n0", "inf"], "N0"),
    (["simulate", "--p-max", "inf", "--slots", "2000", "--warmup", "10"], "P_max"),
    (["analytic", "--sigma-ps", "inf"], "sigma_ps"),
    (["analytic", "--sigma-ssd", "inf"], "sigma_ssd"),
])
def test_extreme_inputs_exit_2_naming_the_field(argv, field, capsys):
    assert main(argv) == 2
    assert f"invalid parameters: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e308", "4000"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_p_max_dbm_whose_power_overflows_exits_2_naming_p_max(source, value, tmp_path,
                                                                capsys):
    # 10 ** ((dBm - 30) / 10) overflows above about 3,112 dBm: P_max is inf, not a traceback
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"p_max_dbm = {value}\n")
    argv = ["--p-max-dbm", value] if source == "flag" else ["--config", str(cfg)]
    assert main(["analytic", *argv]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "error: invalid parameters: P_max: must be finite (got inf)"


@pytest.mark.parametrize("flag, value, field", [
    ("--beta", "1e30", "beta"),
    ("--w", "1e-300", "W"),
])
def test_extreme_finite_inputs_exit_2_naming_the_field(flag, value, field, capsys):
    assert main(["analytic", flag, value]) == 2
    err = capsys.readouterr().err
    assert field in err.split("invalid parameters: ", 1)[1].split(":", 1)[0].split(", ")


@pytest.mark.parametrize("flag, value", [("--beta", "1e-300"), ("--t", "1e30")])
def test_small_primary_rates_get_a_result(flag, value, tmp_path):
    # 2**R_p - 1 rounds to 0 at these R_p; N0 * W * R_p * ln 2 does not
    out = tmp_path / "row.csv"
    assert main(["analytic", flag, value, "--out", str(out)]) == 0
    (row,) = read_csv(out)
    assert row["error"] == "" and row["mu_p"] == "1.0" and 0 <= float(row["mu_s"]) < 1


@pytest.mark.parametrize("flags", [["--n0", "1e30"], ["--p-max", "1e-300"],
                                   ["--sigma-ppd", "1e-300"], ["--n0", "1e30", "--p-max", "1e-300"]],
                         ids=["N0", "P_max", "sigma_ppd", "N0-P_max"])
def test_a_primary_that_never_transmits_gets_the_eta_0_row(flags, tmp_path):
    # the RF harvest conditions on a transmission that never happens; active
    # slots have weight 0, so every budget's mu_s is the one without RF
    rows = []
    for eta in ("0.6", "0"):
        out = tmp_path / f"eta{eta}.csv"
        assert main(["analytic", *flags, "--eta", eta, "--out", str(out)]) == 0
        rows.append(read_csv(out)[0])
    assert rows[0]["error"] == "" and rows[0]["mu_p"] == "0.0"
    assert {**rows[0], "eta": ""} == {**rows[1], "eta": ""}


def test_compare_at_a_primary_that_never_transmits_agrees_with_the_simulator(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--param", "lambda_p", "--values", "0.2,0.6", "--lambda-e", "0.5",
                 "--p-max", "1e-300", "--out", str(out)]) == 0
    for row in read_csv(out):
        assert row["error"] == ""
        a, s = float(row["a_mu_s"]), float(row["s_mu_s"])
        assert abs(a - s) <= max(0.05 * a, 0.01)


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


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]])
def test_a_valid_cli_run_writes_nothing_to_stderr(jobs):
    # fig2 solves reducible chains; their reports note them, so no warning
    # reaches stderr, from this process or from a pool's workers
    src_dir = os.path.dirname(os.path.dirname(ehshare.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "ehshare.cli_sweep", "preset", "fig2"] + jobs,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 85
    assert proc.stderr == ""


def test_analytic_runs_import_neither_the_simulator_nor_json(tmp_path):
    # both load on first use: an analytic command needs neither
    src_dir = os.path.dirname(os.path.dirname(ehshare.__file__))
    out = str(tmp_path / "out.csv")
    code = ("import sys, ehshare; from ehshare.cli_sweep import main\n"
            "for argv in (['preset', 'fig3'], ['analytic'],\n"
            "             ['sweep', '--param', 'lambda_p', '--values', '0.2,0.6']):\n"
            f"    assert main(argv + ['--out', {out!r}]) == 0, argv\n"
            "loaded = {'ehshare.simulator', 'json'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
            "from ehshare import simulate, SimResult, run_many\n"
            "assert simulate is sys.modules['ehshare.simulator'].run is ehshare.simulator.run\n"
            "assert SimResult.__module__ == 'ehshare.simulator' and run_many.__name__ == 'run_many'")
    env = dict(os.environ, PYTHONPATH=src_dir + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _help_text(parser, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(argv)
    assert exit_info.value.code == 0
    return capsys.readouterr().out


_EVERY_PARAM_FLAG = ["--config", "p.cfg", "--p-max-dbm", "10"] + [
    arg for name in PARAM_FIELDS for arg in ("--" + name.lower().replace("_", "-"), "1")]
_SIM_FLAGS = ["--seed", "3", "--slots", "5000", "--warmup", "100"]
_OUT_FLAGS = ["--out", "rows.json", "--format", "json"]
_GRID_FLAGS = ["--jobs", "2", "--outputs", "g,mu_s", "--param", "lambda_p", "--g-policy", "fixed"]


@pytest.mark.parametrize("argv", [
    ["analytic", *_EVERY_PARAM_FLAG, *_OUT_FLAGS, "--outputs", "mu_s", "--fixed-g",
     "--dump-pmfs", "pmfs", "--dump-chain", "chain"],
    ["simulate", *_EVERY_PARAM_FLAG, *_SIM_FLAGS, *_OUT_FLAGS, "--outputs", "mu_s"],
    ["sweep", *_EVERY_PARAM_FLAG, *_SIM_FLAGS, *_OUT_FLAGS, *_GRID_FLAGS, "--grid", "0:1:0.5",
     "--engine", "both"],
    ["compare", *_EVERY_PARAM_FLAG, *_SIM_FLAGS, *_OUT_FLAGS, *_GRID_FLAGS, "--values", "0.2"],
    ["preset", "fig4", *_SIM_FLAGS, "--jobs", "2", *_OUT_FLAGS, "--engine", "simulate"],
], ids=lambda argv: argv[0])
def test_a_parser_built_for_one_command_parses_and_helps_as_the_full_one(argv, capsys):
    one, full = cli_sweep.build_parser(argv[0]), cli_sweep.build_parser()
    assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))
    assert one.format_help() == full.format_help()
    assert _help_text(one, [argv[0], "--help"], capsys) \
        == _help_text(full, [argv[0], "--help"], capsys)


def _count_calls(monkeypatch, module, name):
    """The argument tuples of every call to module.name from now on."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("preset, keys", [("fig2", 4), ("fig3", 30), ("fig4", 3), ("fig5", 4)])
def test_a_slice_builds_each_distinct_pmf_pair_and_kernel_once(preset, keys, monkeypatch,
                                                                capsys):
    # fig2, fig4 and fig5 sweep lambda_p, so each of their grids is one key;
    # fig3 sweeps sigma_ppd, which the RF pmf reads, so each point is its own
    pmf_calls = _count_calls(monkeypatch, harvest, "arrival_pmfs")
    row_calls = _count_calls(monkeypatch, energy_chain, "_arrival_rows")
    assert main(["preset", preset]) == 0
    assert (len(pmf_calls), len(row_calls)) == (keys, 2 * keys)


def test_no_pmf_or_kernel_memo_outlives_its_slice(monkeypatch, capsys):
    pmf_calls = _count_calls(monkeypatch, harvest, "arrival_pmfs")
    row_calls = _count_calls(monkeypatch, energy_chain, "_arrival_rows")
    assert main(["preset", "fig2"]) == 0
    assert main(["preset", "fig2"]) == 0
    assert (len(pmf_calls), len(row_calls)) == (8, 16)
    assert capsys.readouterr().out.count("\n") == 2 * (1 + 84)
    # nor does one outlive its optimize_many call, though its pmfs live on
    p = default_params()
    points = [(p, derive(p), arrival_pmfs(p, derive(p)), None)]
    energy_chain.optimize_many(points)
    energy_chain.optimize_many(points)
    assert len(row_calls) == 16 + 4


def test_a_key_whose_pmfs_fail_is_tried_again_at_each_point(monkeypatch):
    calls = []

    def fail(params, dc):
        calls.append(params.lambda_p)
        raise ValueError(f"no pmfs at lambda_p={params.lambda_p}")

    monkeypatch.setattr(harvest, "arrival_pmfs", fail)
    rows = sweep(SweepSpec("lambda_p", (0.2, 0.4, 0.6), default_params()))
    assert calls == [0.2, 0.4, 0.6]
    assert [r["error"] for r in rows] == [f"no pmfs at lambda_p={lp}" for lp in calls]


def test_a_slice_sharing_pmf_objects_matches_each_point_solved_alone():
    # a lambda_p grid on one pmf pair, stable and saturated (mu_p = 0.82),
    # searched and at a fixed budget, the same pair read at a second E_max
    # through its first 6 bins, and a point with a pmf pair of its own
    base = default_params(lambda_e=0.5, eta=0.4)
    pmfs = arrival_pmfs(base, derive(base))
    points = [(p, derive(p), pmfs, budgets) for p, budgets in [
        (replace(base, lambda_p=0.0), None), (replace(base, lambda_p=0.3), None),
        (replace(base, lambda_p=0.9), None), (replace(base, lambda_p=1.0), None),
        (replace(base, lambda_p=0.5, G=3), (3,)), (replace(base, lambda_p=0.5), (1, 4, 7)),
        (replace(base, lambda_p=0.2, E_max=6), None), (replace(base, lambda_p=0.7, E_max=6), None),
    ]]
    other = default_params(lambda_e=1.0, lambda_p=0.3)
    points.insert(2, (other, derive(other), arrival_pmfs(other, derive(other)), None))
    for (params, dc, shared, budgets), report in zip(points, energy_chain.optimize_many(points)):
        own = tuple(HarvestPmf(pmf.probs.copy(), pmf.tail_mass) for pmf in shared)
        alone = energy_chain.optimize_g(params, dc, own, budgets)
        assert (report.g_star, report.mu_s_star, report.mu_e) \
            == (alone.g_star, alone.mu_s_star, alone.mu_e)
        assert list(report.mu_s_by_g.items()) == list(alone.mu_s_by_g.items())
        assert np.array_equal(report.chi, alone.chi)


@pytest.mark.parametrize("argv, field", [
    (["analytic", "--config", "{missing}/point.cfg"], "config"),
    (["analytic", "--config", "{dir}"], "config"),
    (["analytic", "--out", "{missing}/x.csv"], "out"),
    (["sweep", "--param", "lambda_p", "--values", "0.2,0.4", "--out", "{dir}"], "out"),
    (["analytic", "--dump-pmfs", "{file}"], "dump_pmfs"),
    (["analytic", "--dump-chain", "{file}/chain"], "dump_chain"),
    (["analytic", "--config", "{latin1}"], "config"),
])
def test_file_errors_exit_2_naming_the_field(argv, field, tmp_path):
    # a path that cannot be read or written is bad input like any other:
    # one `error:` line and exit 2, not a traceback and exit 1
    (tmp_path / "file").write_text("")
    (tmp_path / "latin1.cfg").write_bytes(b"lambda_p = 0.4\n\xff\xfe = 1\n")  # not UTF-8
    paths = dict(missing=tmp_path / "missing", dir=tmp_path, file=tmp_path / "file",
                 latin1=tmp_path / "latin1.cfg")
    src_dir = os.path.dirname(os.path.dirname(ehshare.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "ehshare.cli_sweep"]
                          + [arg.format(**paths) for arg in argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: invalid parameters: {field}: ")
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1


# values a flag may be given; {d} is a directory of fixture files
_HOSTILE = ["nan", "inf", "-inf", "-0", "1e308", "5e-324", "", "abc"]
_VALUES = {
    "config": ["{d}/missing.cfg", "{d}", "{d}/latin1.cfg", "{d}/twice.cfg", "{d}/ok.cfg"],
    "out": ["{d}/out.txt", "{d}/missing/out.txt", "{d}", ""],
    "dump_pmfs": ["{d}/dump", "{d}/file", "{d}/file/sub", ""],
    "format": ["csv", "json", "xml", ""],
    "outputs": ["mu_s", "mu_s,mu_s", "g,mu_s_g1", "occ_0", "a_mu_s", "nope", ""],
    "param": ["lambda_p", "E_max", "G", "P_max", "nope", ""],
    "values": ["0.2,0.4", "1,2", "0.1,0.1", "0.4,0.2", "1e308", "0.2,nan", "", ","],
    "grid": ["0:1:0.5", "1:3:1", "0:1:nan", "0:1:1e-12", "0:1e308:1e-308", "1:0:1", "0:1"],
    "g_policy": ["optimize", "fixed", "best"],
    "engine": ["analytic", "simulate", "both", "exact"],
    "slots": ["1000", "3000"],  # hostile counts are drawn for warmup and seed
    "warmup": ["0", "10", "5000", "-1", "1e308", "nan"],
    "seed": ["0", "7", "-1", "1e308", "-0", ""],
    "jobs": ["1", "2", "0", "-1", "nan", ""],  # at most 2 worker processes
    "E_max": ["1", "6", "12"],
    "G": ["1", "2", "7"],
}
_VALUES["dump_chain"] = _VALUES["dump_pmfs"]


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    (d / "file").write_text("")
    (d / "latin1.cfg").write_bytes(b"lambda_p = 0.4\n\xff\xfe = 1\n")  # not UTF-8
    (d / "twice.cfg").write_text("lambda_p = 0.4\nLAMBDA_P = 0.5\n")
    (d / "ok.cfg").write_text("lambda_e = 0.5\nE_max = 6\n")
    return d


@st.composite
def _argvs(draw):
    """A subcommand, then flags of its parser (repeats allowed) with small or hostile values."""
    command = draw(st.sampled_from(["analytic", "simulate", "sweep", "compare", "preset"]))
    (sub,) = [a for a in build_parser(command)._actions
              if isinstance(a, argparse._SubParsersAction)]
    argv = [command]
    if command == "preset":
        argv.append(draw(st.sampled_from(["fig2", "fig3", "fig4", "fig5", "fig9", ""])))
    if command != "analytic":  # short runs, unless a drawn flag overrides them
        argv += ["--slots", "2000", "--warmup", "100"]
    if command in ("sweep", "compare"):
        argv += ["--param", "lambda_p"]
    flags = [a for a in sub.choices[command]._actions
             if a.option_strings and not isinstance(a, argparse._HelpAction)]
    for action in draw(st.lists(st.sampled_from(flags), max_size=6)):
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            values = _VALUES.get(action.dest, ["0.5", "1", "10"] + _HOSTILE)
            argv.append(draw(st.sampled_from(values)))
    if command in ("sweep", "compare") and not {"--grid", "--values"} & set(argv):
        argv += ["--values", "0.2,0.4"]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_argvs())
def test_every_argv_exits_0_or_2_with_one_error_line(argv, argv_files):
    argv = [arg.format(d=argv_files) for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code == 0 or (code == 2 and sum("error:" in line for line in lines) == 1), (argv, lines)
