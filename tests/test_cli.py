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
from hypothesis import example, given, settings, strategies as st

import ehshare
from ehshare import cli_sweep, energy_chain, harvest, simulator
from ehshare.cli_sweep import SweepSpec, build_parser, compare, main, preset_specs, sweep
from ehshare.config import PARAM_FIELDS, ParameterError, coerce_field, default_params, derive
from ehshare.energy_chain import build_chain, mu_e, stationary, su_throughput
from ehshare.harvest import arrival_pmfs
from ehshare.simulator import SimConfig, run as simulate
from oracles import run_grid_per_spec


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
    report = energy_chain.optimize_g(default_params(E_max=12), budgets=range(1, 13))
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
    report = energy_chain.optimize_g(params, range(1, params.E_max + 1))
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
        fixed.append(energy_chain.optimize_g(p, [3]))
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


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(PARAM_FIELDS), coerced=st.booleans(),
       value=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, True, False, 2.5]),
                       st.floats(), st.integers(-3, 40)))
@example(name="E_max", value=True, coerced=False)
@example(name="E_max", value=12.0, coerced=False)
@example(name="G", value=11, coerced=True)
@example(name="tau", value=1.0, coerced=True)
@example(name="T", value=0.1, coerced=True)
def test_a_swept_value_is_validated_as_replace_validates_it(name, value, coerced):
    # a grid point's SystemParams is built without dataclasses.replace, yet an
    # invalid value must fail it with replace's ParameterError, fields and text.
    # Uncoerced, bools and floats reach E_max and G as given; no engine runs
    fixed = default_params()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy_chain, "optimize_many", lambda points: [None] * len(points))
        if not coerced:
            mp.setattr(cli_sweep, "coerce_field", lambda name, value: value)
        ((params, analytic, _),) = cli_sweep._evaluate([(SweepSpec(name, (value,), fixed), value)],
                                                      lambda *record: record)
    try:
        want = replace(fixed, **{name: coerce_field(name, value) if coerced else value})
    except ParameterError as exc:
        assert isinstance(params, argparse.Namespace)
        assert (type(analytic), analytic.fields, str(analytic)) \
            == (ParameterError, exc.fields, str(exc))
    else:
        assert type(params) is type(want) and params == want


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
    # and mu_s_g{E_max} passes the check and reaches the first engine step that
    # E_max sizes, its pmf tables
    def reached(*args, **kwargs):
        raise ParameterError(["E_max: engine reached"])

    monkeypatch.setattr(harvest, "arrival_heads", reached)
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
    for values in ("0.5,nan", "nan,0.5,0.7"):  # the value named, not monotonicity
        assert main(["sweep", "--param", "lambda_p", "--values", values]) == 2
        assert "grid: nan has no place in a monotone grid" in capsys.readouterr().err
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


def test_a_grid_rounds_away_float_error_relative_to_its_step(tmp_path):
    # rounding to 12 decimals turned 1.5e-12 + 1e-12 into 3e-12 and a grid near a
    # physical N0 into zeros; grids of steps 0.05, 0.1 and 1 keep the old values
    grid = cli_sweep._grid_from_args
    assert grid(argparse.Namespace(values=None, grid="1.5e-12:4.5e-12:1e-12")) \
        == (1.5e-12, 2.5e-12, 3.5e-12, 4.5e-12)
    for text in ("0:1:0.05", "0:1:0.1", "0:99999:1"):
        start, stop, step = map(float, text.split(":"))
        assert grid(argparse.Namespace(values=None, grid=text)) == tuple(
            round(start + i * step, 12) for i in range(int((stop - start) / step + 1e-9) + 1))
    out = tmp_path / "n0.csv"
    assert main(["sweep", "--param", "N0", "--grid", "1e-13:3e-13:1e-13", "--out", str(out)]) == 0
    assert [(r["N0"], r["error"]) for r in read_csv(out)] == [("1e-13", ""), ("2e-13", ""),
                                                              ("3e-13", "")]


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
    monkeypatch.setattr(energy_chain, "_arrival_rows", kernels)
    with pytest.raises(ParameterError) as exc:
        energy_chain.optimize_g(default_params())
    assert exc.value.fields == ["E_max"]


def test_a_memory_error_in_a_later_stack_fails_only_the_chains_left_unsolved(monkeypatch):
    # one chain per stack at E_max 10: round 1 asks one chain per point, the first
    # stack solves the first point's and the second raises, so the other two
    # points of E_max 10 fail naming it, while the first, whose round 2 solves
    # four more budgets, and the E_max 6 point get the reports they get alone
    points = [default_params(lambda_e=lambda_e, sigma_ssd=0.2, E_max=e_max)
              for lambda_e, e_max in ((0.3, 10), (0.5, 6), (0.5, 10), (0.8, 10))]
    alone = [energy_chain.optimize_g(p) for p in points]
    calls, solve_stack = [], energy_chain._solve_stack

    def second_e_max_10_stack_raises(omega):
        if omega.shape[1] == 11:
            calls.append(len(omega))
            if len(calls) == 2:
                raise MemoryError
        return solve_stack(omega)

    monkeypatch.setattr(energy_chain, "_STACK_CELLS", 11 ** 2)
    monkeypatch.setattr(energy_chain, "_solve_stack", second_e_max_10_stack_raises)
    out = energy_chain.optimize_many([(p, None) for p in points])
    assert len(calls) > 2 and set(calls) == {1}
    for i in (0, 1):
        assert out[i] == alone[i] and out[i].reducible == alone[i].reducible
        assert out[i].chi.tobytes() == alone[i].chi.tobytes()
    for failed in out[2:]:
        assert isinstance(failed, ParameterError) and failed.fields == ["E_max"]
        assert str(failed).startswith("invalid parameters: E_max: 10 ")


def _no_engine(*args):
    raise AssertionError("an engine ran")


@pytest.mark.parametrize("e_max", ["1e20", "1e308"])
def test_e_max_above_the_ceiling_exits_2_before_an_engine_runs(e_max, monkeypatch, capsys,
                                                                tmp_path):
    # such an E_max used to build E_max column names, an E_max-bin RF pmf or
    # E_max histogram names before any check ran; validate now refuses it first
    for module, name in ((harvest, "arrival_pmfs"), (harvest, "rf_pmf"),
                         (harvest, "arrival_heads"), (energy_chain, "optimize_many"),
                         (energy_chain, "optimize_g"), (simulator, "run"), (simulator, "run_many")):
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
    # 10**6 passes validate; the MemoryError of its pmf tables, stubbed so that
    # nothing allocates, then names E_max, as at any E_max too large for memory
    def tables(*args):
        raise MemoryError

    monkeypatch.setattr(harvest, "arrival_heads", tables)
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
    monkeypatch.setattr(harvest, "arrival_heads", fail)
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


@pytest.mark.parametrize("case", ["fig2", "fig3", "fig4", "fig5", "fixed-g sweep"])
@pytest.mark.parametrize("engines", ["analytic", "both"])
def test_dealing_every_spec_into_one_slice_gives_the_rows_of_per_spec_slices(case, engines):
    # one slice of (spec, value) pairs spans the specs of an invocation; the rows
    # must be those of each spec's grid dealt on its own, at one job and at two
    sim = SimConfig(n_slots=3000, seed=7, warmup=500) if engines == "both" else None
    specs = preset_specs(case, engines=engines, sim=sim) if case.startswith("fig") else [
        SweepSpec("lambda_p", tuple(round(0.1 * i, 1) for i in range(11)),
                  default_params(lambda_e=0.5, E_max=6, G=3), engines=engines, sim=sim,
                  g_policy="fixed")]
    for jobs in (1, 2):
        assert cli_sweep._run_grid(cli_sweep._eval_sweep_point, specs, jobs) \
            == run_grid_per_spec(cli_sweep._eval_sweep_point, specs, jobs)


@pytest.mark.parametrize("engine", ["analytic", "simulate", "both"])
def test_a_preset_at_one_job_calls_each_engine_once(engine, monkeypatch, capsys):
    # the points an optimize_many call solves (none with the simulator alone)
    solves = _count_calls(monkeypatch, energy_chain, "optimize_many")
    runs = _count_calls(monkeypatch, simulator, "run_many")
    for name, points in (("fig2", 84), ("fig3", 30), ("fig4", 63), ("fig5", 84)):
        solves.clear()
        runs.clear()
        assert main(["preset", name, "--engine", engine, "--slots", "2000", "--warmup", "500"]) == 0
        assert [len(args[0]) for args in solves] == [0 if engine == "simulate" else points]
        assert [len(args[0]) for args in runs] == ([] if engine == "analytic" else [points])


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
    # fig2, fig4 and fig5 sweep lambda_p, so each of their grids is one pmf key;
    # fig3 sweeps sigma_ppd, which the RF pmf reads, so each point is its own.
    # A lambda_p = 0 point, where pi_idle = 1, is keyed by its nature part
    # (lambda_e * T, E_max) alone, which fig4's grids at eta 0 and 0.6 share at
    # lambda_e = 0.5. Each E_max builds its keys' pmfs and kernels in one call each.
    heads = _count_calls(monkeypatch, harvest, "arrival_heads")
    rows = _count_calls(monkeypatch, energy_chain, "_arrival_rows")
    assert main(["preset", preset]) == 0
    specs = preset_specs(preset)
    idle = {(s.fixed.lambda_e * s.fixed.T, s.fixed.E_max) for s in specs if 0.0 in s.grid}
    assert sorted(e_max for _, e_max in heads) == sorted({s.fixed.E_max for s in specs})
    assert sum(len(built) for built, _ in heads) == keys + len(idle)
    assert all(len({key for *_, key in built}) == len(built) for built, _ in heads)
    assert [args[0].shape[1:] for args in rows] == [(2, e_max) for _, e_max in heads]


@pytest.mark.parametrize("argv, closed", [
    (["sweep", "--param", "E_max", "--values", "20,40,60,79,100", "--lambda-e", lambda_e,
      "--jobs", "1"], False) for lambda_e in ("0.0", "0.5")] + [(["preset", "fig2"], True)])
def test_the_closure_runs_only_on_chains_the_path_checks_leave(argv, closed, monkeypatch, capsys):
    # perfbench's big_battery sweeps (seed 0): every chain has an idle slot that
    # harvests nothing and moves up from every state, so _irreducible proves all of
    # them. fig2's chains at lambda_p = lambda_e = 0 harvest nothing: the closure's.
    calls, closure = [], energy_chain._closure
    monkeypatch.setattr(energy_chain, "_closure",
                        lambda edges: calls.append(len(edges)) or closure(edges))
    assert main(argv) == 0
    assert bool(calls) == closed


@pytest.mark.parametrize("preset, chains", [("fig2", 160), ("fig3", 30), ("fig4", 117),
                                            ("fig5", 140)])
def test_a_slice_solves_each_distinct_chain_once(preset, chains, monkeypatch, capsys):
    # 641 chains in all before optimize_many keyed them by (pmf pair, pi_idle, g):
    # saturated points of a lambda_p grid share their chains. A preset is one
    # slice, and at pi_idle = 1 (lambda_p = 0) the idle pmf alone keys a kernel,
    # so fig2's chains at lambda_p = lambda_e = 0, where nothing is harvested at
    # any eta, are solved once for both etas.
    omegas, per_call, solve_stack = [], [], energy_chain._solve_stack
    monkeypatch.setattr(energy_chain, "_solve_stack",
                        lambda omega: omegas.extend(omega) or solve_stack(omega))
    optimize_many = energy_chain.optimize_many

    def counted(points):
        first = len(omegas)
        reports = optimize_many(points)
        per_call.append(omegas[first:])
        return reports

    monkeypatch.setattr(energy_chain, "optimize_many", counted)
    assert main(["preset", preset]) == 0
    assert len(omegas) == chains
    assert all(len(sent) == len({w.tobytes() for w in sent}) for sent in per_call)


def test_no_pmf_or_kernel_memo_outlives_its_slice(monkeypatch, capsys):
    heads = _count_calls(monkeypatch, harvest, "arrival_heads")
    rows = _count_calls(monkeypatch, energy_chain, "_arrival_rows")
    assert main(["preset", "fig2"]) == 0
    assert main(["preset", "fig2"]) == 0
    assert (sum(len(built) for built, _ in heads), len(rows)) == (12, 4)
    assert capsys.readouterr().out.count("\n") == 2 * (1 + 84)
    # nor does one outlive its optimize_many call
    points = [(default_params(), None)]
    energy_chain.optimize_many(points)
    energy_chain.optimize_many(points)
    assert len(rows) == 4 + 2


def test_a_failure_building_one_e_max_tables_fails_only_its_points(monkeypatch):
    # a MemoryError names E_max, another failure is the error of each of the
    # E_max's points; the points of another E_max get the values they get alone
    arrival_heads = harvest.arrival_heads

    def fail(points, e_max):
        if e_max == 20:
            raise ValueError(f"no tables at E_max={e_max}")
        if e_max == 40:
            raise MemoryError
        return arrival_heads(points, e_max)

    points = [(default_params(E_max=e_max, lambda_p=lambda_p, lambda_e=0.5), None)
              for e_max in (10, 20, 40) for lambda_p in (0.2, 0.6)]
    alone = [energy_chain.optimize_g(p) for p, _ in points[:2]]
    monkeypatch.setattr(harvest, "arrival_heads", fail)
    out = energy_chain.optimize_many(points)
    for report, ref in zip(out, alone):
        assert report == ref and np.array_equal(report.chi, ref.chi)
    assert out[2] is out[3] and str(out[2]) == "no tables at E_max=20"
    memory = "invalid parameters: E_max: 40 is too large for the analytic engine's memory"
    assert all(isinstance(r, ParameterError) and str(r) == memory for r in out[4:])
    rows = sweep(SweepSpec("E_max", (10, 20, 40), default_params(lambda_e=0.5)))
    assert [r["error"] for r in rows] == ["", "no tables at E_max=20", memory]


def test_a_slice_sharing_pmf_objects_matches_each_point_solved_alone():
    # a lambda_p grid on one pmf key, stable and saturated (mu_p = 0.82),
    # searched and at a fixed budget, the same harvest law at a second E_max,
    # and a point with a pmf key of its own; each is solved alone in a call of its own
    base = default_params(lambda_e=0.5, eta=0.4)
    points = [(replace(base, **over), budgets) for over, budgets in [
        ({"lambda_p": 0.0}, None), ({"lambda_p": 0.3}, None), ({"lambda_p": 0.9}, None),
        ({"lambda_p": 1.0}, None), ({"lambda_p": 0.5, "G": 3}, (3,)),
        ({"lambda_p": 0.5}, (1, 4, 7)), ({"lambda_p": 0.2, "E_max": 6}, None),
        ({"lambda_p": 0.7, "E_max": 6}, None),
    ]]
    points.insert(2, (default_params(lambda_e=1.0, lambda_p=0.3), None))
    for (params, budgets), report in zip(points, energy_chain.optimize_many(points)):
        alone = energy_chain.optimize_g(params, budgets)
        assert (report.g_star, report.mu_s_star, report.mu_e) \
            == (alone.g_star, alone.mu_s_star, alone.mu_e)
        assert list(report.mu_s_by_g.items()) == list(alone.mu_s_by_g.items())
        assert np.array_equal(report.chi, alone.chi)


def test_equal_points_built_separately_share_each_chain():
    # the content key, not the objects, identifies a chain: two equal points
    # send each chain to the solver once, as one point does
    sent = []
    solve_stack = energy_chain._solve_stack
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy_chain, "_solve_stack",
                   lambda omega: sent.extend(omega) or solve_stack(omega))
        (one,) = energy_chain.optimize_many([(default_params(lambda_e=0.5), range(1, 11))])
        alone, sent[:] = len(sent), []
        twins = energy_chain.optimize_many([(default_params(lambda_e=0.5), range(1, 11)),
                                            (default_params(lambda_e=0.5), range(1, 11))])
        assert len(sent) == alone == len({w.tobytes() for w in sent}) == 10
        # sigma_ssd is not in the pmf key, so these rows share an E_max's kernel but
        # not their bounds: round 2 asks again for chains round 1 solved
        sent[:] = []
        points = [(default_params(sigma_ssd=sigma, lambda_e=0.5, E_max=e_max), None)
                  for e_max in (6, 10) for sigma in (0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5)]
        reports = energy_chain.optimize_many(points)
    assert all(r == one and np.array_equal(r.chi, one.chi) for r in twins)
    assert sorted(len(w) for w in sent) == [7] * 6 + [11] * 10  # 6 chains at E_max 6, 10 at 10
    assert len({w.tobytes() for w in sent}) == 16
    for report, (p, _) in zip(reports, points):
        ref = energy_chain.optimize_g(p)
        assert report == ref and report.reducible == ref.reducible
        assert report.chi.tobytes() == ref.chi.tobytes()


def test_a_p_max_sweep_builds_the_nature_pmf_once_per_e_max(monkeypatch):
    # lambda_e * T does not move with P_max, so each E_max's keys share one
    nature = _count_calls(monkeypatch, harvest, "nature_pmf")
    points = [(default_params(P_max=p_max, lambda_e=0.5, eta=0.9, E_max=e_max), None)
              for e_max in (6, 10) for p_max in (0.01, 1.0, 10.0, 100.0)]
    energy_chain.optimize_many(points)
    assert [(p.lambda_e * p.T, n_max) for p, n_max in nature] == [(0.5, 6), (0.5, 10)]


def test_derive_runs_once_per_analytic_point(monkeypatch, capsys):
    derived = _count_calls(monkeypatch, energy_chain, "derive")
    assert main(["sweep", "--param", "P_max", "--values", "0.01,1,10", "--lambda-e", "0.5"]) == 0
    assert main(["preset", "fig2"]) == 0
    assert main(["analytic"]) == 0
    assert len(derived) == 3 + 84 + 1


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
