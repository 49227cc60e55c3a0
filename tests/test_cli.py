import json
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

from vicontrol import cli
from vicontrol.vi import solve_pdas


def write_config(path, **kwargs):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(kwargs, fh)
    return str(path)


def test_solve_writes_outputs(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.yaml",
        nx=4,
        ny=4,
        b=0.05,
        g={"type": "constant", "value": -50.0},
        out=str(tmp_path / "out"),
    )
    assert cli.main(["--config", cfg, "--quiet", "solve"]) == 0
    out = tmp_path / "out"
    assert (out / "solution.csv").exists()
    assert (out / "config.yaml").exists()
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is True
    assert diag["active_set_size"] > 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "x,y,u,active"
    assert len(lines) == diag["vertices"] + 1


def test_solve_solver_flag_agreement(tmp_path):
    common = dict(nx=5, ny=5, b=0.3, g={"type": "constant", "value": -30.0}, tol=1e-12)
    c1 = write_config(tmp_path / "c1.yaml", out=str(tmp_path / "o1"), **common)
    c2 = write_config(tmp_path / "c2.yaml", out=str(tmp_path / "o2"), **common)
    assert cli.main(["--config", c1, "--quiet", "--solver", "pdas", "solve"]) == 0
    assert cli.main(["--config", c2, "--quiet", "--solver", "psor", "solve"]) == 0

    def states(p):
        rows = [l.split(",") for l in (p / "solution.csv").read_text().splitlines()[1:]]
        return np.array([float(r[2]) for r in rows])

    u1 = states(tmp_path / "o1")
    u2 = states(tmp_path / "o2")
    assert np.max(np.abs(u1 - u2)) <= 1e-8


def test_bad_config_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.yaml", M=-1.0, out=str(tmp_path / "out"))
    assert cli.main(["--config", cfg, "solve"]) == 1
    err = capsys.readouterr().err
    assert "M" in err


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml", meshsize=3, out=str(tmp_path / "out"))
    assert cli.main(["--config", cfg, "solve"]) == 1


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--solver", "cg", "solve"], "solver"),
        (["--seed", "abc", "solve"], "--seed"),
        (["--bogus", "solve"], "--bogus"),
        ([], "command"),
    ],
)
def test_bad_flag_is_an_invalid_configuration(tmp_path, capsys, flags, name):
    # an unknown solver, a seed that is no integer, an unknown flag or a missing command
    # exits 1, the code of an invalid configuration, names what is wrong and writes nothing
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "--quiet", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ") and name in err
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    assert "{solve,optimize,sweep,scan}" in capsys.readouterr().out


def test_missing_config_file(tmp_path):
    assert cli.main(["--config", str(tmp_path / "nope.yaml"), "solve"]) == 1


def test_config_file_that_is_not_utf8_is_an_invalid_configuration(tmp_path, capsys):
    # the decode error names the file and writes nothing, where it ended in a traceback
    cfg, out = tmp_path / "bad.yaml", tmp_path / "out"
    cfg.write_bytes(b"nx: 4\nb: \xff\n")
    assert cli.main(["--config", str(cfg), "--out", str(out), "--quiet", "solve"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ") and str(cfg) in err
    assert not out.exists()


def test_config_file_that_is_no_mapping_is_an_invalid_configuration(tmp_path, capsys):
    # a YAML list at the top level names the file and writes nothing
    cfg, out = tmp_path / "list.yaml", tmp_path / "out"
    cfg.write_text("- nx: 4\n- b: 0.05\n", encoding="utf-8")
    assert cli.main(["--config", str(cfg), "--out", str(out), "--quiet", "solve"]) == 1
    err = capsys.readouterr().err
    assert err == f"invalid configuration: config file {cfg} must contain a mapping\n"
    assert not out.exists()


def test_defaults_without_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--quiet", "solve"]) == 0
    assert (tmp_path / "out" / "solution.csv").exists()


def test_optimize_trivial_and_bound(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.yaml",
        nx=4,
        ny=4,
        b=0.0,
        g={"type": "constant", "value": 2.0},
        out=str(tmp_path / "out"),
    )
    assert cli.main(["--config", cfg, "--quiet", "optimize"]) == 0
    report = json.loads((tmp_path / "out" / "cost_report.json").read_text())
    assert report["converged"] is True
    assert report["cost"] <= 1e-12
    assert report["control_norm"] <= report["control_norm_bound"] + 1e-12
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,cost,gradient_norm,step,active_set_size"
    assert len(trace) >= 2
    control = np.loadtxt(tmp_path / "out" / "control.txt")
    assert control.shape == (25,)


def test_optimize_nontrivial(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.yaml",
        nx=4,
        ny=4,
        b=1.0,
        M=0.5,
        out=str(tmp_path / "out"),
    )
    assert cli.main(["--config", cfg, "--quiet", "optimize"]) == 0
    report = json.loads((tmp_path / "out" / "cost_report.json").read_text())
    assert 0 < report["cost"] < 0.5  # better than doing nothing (J(0) = 1/2)
    costs = [
        float(l.split(",")[1])
        for l in (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]
    ]
    assert all(costs[k + 1] <= costs[k] for k in range(len(costs) - 1))


def test_unconverged_optimize_writes_its_outputs_then_exits_2(tmp_path, capsys):
    # at M = 1e-3 the optimizer stalls at iteration 41 (ROADMAP item 12); every output is
    # written before the failure is raised, and cost_report.json says it did not converge
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.yaml", nx=8, ny=8, gamma1_sides=["left"], b=0.05, g=-50.0, M=1.0e-3,
        out=str(out),
    )
    assert cli.main(["--config", cfg, "--quiet", "optimize"]) == 2
    assert capsys.readouterr().err == (
        "solver failure during optimize: optimizer did not converge "
        "(stalled at iteration 41, gradient norm 2.373e-05)\n"
    )
    report = json.loads((out / "cost_report.json").read_text())
    assert report["converged"] is False and report["iterations"] == 41
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 41 and trace[-1].startswith("40,")  # the stalled step is not taken
    assert np.loadtxt(out / "control.txt").shape == (81,)
    assert len((out / "state.csv").read_text().splitlines()) == 82


@pytest.mark.parametrize("solver", ["pdas", "psor"])
@pytest.mark.parametrize("g", [-50.0, 0.0])
def test_diagnostics_name_the_configured_solver(tmp_path, solver, g):
    # g = 0 (with q = 0) has the lift u = b as its state, in no iteration, under either solver
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.yaml", nx=4, ny=4, b=0.05, g=g, solver=solver, out=str(out))
    assert cli.main(["--config", cfg, "--quiet", "solve"]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["method"] == solver
    assert (diag["iterations"] == 0) == (g == 0.0)


def test_sweep_smooth_case_passes(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.yaml",
        nx=2,
        ny=2,
        b=1.0,
        g={"type": "constant", "value": 10.0},
        levels=4,
        oracle_extra_levels=2,
        out=str(tmp_path / "out"),
    )
    assert cli.main(["--config", cfg, "--quiet", "sweep"]) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["rate_V"] >= 0.5
    state_csv = (out / "state_convergence.csv").read_text().splitlines()
    assert state_csv[0] == "level,h,error_V,error_H,cost,control_distance"
    assert len(state_csv) == 5
    assert (out / "cost_convergence.csv").exists()


def test_sweep_with_control_study(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.yaml",
        nx=2,
        ny=2,
        b=1.0,
        levels=3,
        optimize_levels=3,
        oracle_extra_levels=2,
        sweep_control=True,
        out=str(tmp_path / "out"),
    )
    rc = cli.main(["--config", cfg, "--quiet", "sweep"])
    assert rc in (0, 3)
    assert (tmp_path / "out" / "control_convergence.csv").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "control_assertions" in summary


def test_scan_always_reports(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.yaml",
        nx=4,
        ny=4,
        b=0.5,
        trials=5,
        mu_grid=[0.25, 0.5, 0.75],
        seed=3,
        out=str(tmp_path / "out"),
    )
    assert cli.main(["--config", cfg, "--quiet", "scan"]) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["records"] == 15
    assert "violations" in summary and "implication_holds" in summary
    assert 0 < summary["worst_lipschitz_ratio"] <= 1.0 + 1e-9
    scan_csv = (out / "scan.csv").read_text().splitlines()
    assert len(scan_csv) == 16


def test_scan_reruns_byte_identical(tmp_path):
    common = dict(nx=4, ny=4, b=0.5, trials=5, mu_grid=[0.5], seed=11)
    c1 = write_config(tmp_path / "c1.yaml", out=str(tmp_path / "o1"), **common)
    c2 = write_config(tmp_path / "c2.yaml", out=str(tmp_path / "o2"), **common)
    assert cli.main(["--config", c1, "--quiet", "scan"]) == 0
    assert cli.main(["--config", c2, "--quiet", "scan"]) == 0
    for name in ("scan.csv", "summary.json"):
        b1 = (tmp_path / "o1" / name).read_bytes()
        b2 = (tmp_path / "o2" / name).read_bytes()
        assert b1 == b2


def test_seed_flag_overrides_config(tmp_path):
    cfg1 = write_config(
        tmp_path / "c1.yaml", nx=3, ny=3, trials=3, mu_grid=[0.5], seed=0,
        out=str(tmp_path / "o1"),
    )
    cfg2 = write_config(
        tmp_path / "c2.yaml", nx=3, ny=3, trials=3, mu_grid=[0.5], seed=0,
        out=str(tmp_path / "o2"),
    )
    assert cli.main(["--config", cfg1, "--quiet", "--seed", "5", "scan"]) == 0
    assert cli.main(["--config", cfg2, "--quiet", "scan"]) == 0
    assert (
        (tmp_path / "o1" / "scan.csv").read_bytes()
        != (tmp_path / "o2" / "scan.csv").read_bytes()
    )
    snap = yaml.safe_load((tmp_path / "o1" / "config.yaml").read_text())
    assert snap["seed"] == 5


def test_field_spec_gauss_and_affine(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.yaml",
        nx=3,
        ny=3,
        g={"type": "gauss", "amplitude": -40.0, "x0": 0.5, "y0": 0.5, "sigma": 0.2},
        q={"type": "affine", "a": 0.5, "bx": 1.0},
        b=0.2,
        out=str(tmp_path / "out"),
    )
    assert cli.main(["--config", cfg, "--quiet", "solve"]) == 0


def test_field_spec_from_file(tmp_path):
    nodal = tmp_path / "g.txt"
    np.savetxt(nodal, np.full(16, -20.0))
    cfg = write_config(
        tmp_path / "cfg.yaml",
        nx=3,
        ny=3,
        g={"type": "file", "path": str(nodal)},
        b=0.1,
        out=str(tmp_path / "out"),
    )
    assert cli.main(["--config", cfg, "--quiet", "solve"]) == 0


def test_field_spec_file_wrong_length(tmp_path):
    nodal = tmp_path / "g.txt"
    np.savetxt(nodal, np.zeros(7))
    cfg = write_config(
        tmp_path / "cfg.yaml",
        nx=3,
        ny=3,
        g={"type": "file", "path": str(nodal)},
        out=str(tmp_path / "out"),
    )
    assert cli.main(["--config", cfg, "--quiet", "solve"]) == 1


def test_solver_nonconvergence_exit_code(tmp_path, capsys):
    # PDAS stalls at a residual near 1e-15, far above the requested tolerance
    cfg = write_config(
        tmp_path / "cfg.yaml",
        nx=8,
        ny=8,
        b=1.0,
        g={"type": "constant", "value": 10.0},
        solver="pdas",
        tol=1e-300,
        out=str(tmp_path / "out"),
    )
    assert cli.main(["--config", cfg, "--quiet", "solve"]) == 2
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["converged"] is False
    assert (tmp_path / "out" / "solution.csv").exists()
    failures = [
        line for line in capsys.readouterr().err.splitlines() if line.startswith("solver failure")
    ]
    assert len(failures) == 1
    assert failures[0].startswith("solver failure during solve: state solve did not converge")


PSOR32 = dict(b=1.0, g={"type": "gauss", "amplitude": -40.0, "x0": 0.5, "y0": 0.5, "sigma": 0.2})


def test_solve_on_256_cells_per_side_converges(tmp_path):
    # psor-32's data with PDAS: from u = b it ran past 100 iterations on 256x256 and exited 2
    cfg = write_config(tmp_path / "cfg.yaml", nx=256, ny=256, out=str(tmp_path / "out"), **PSOR32)
    assert cli.main(["--config", cfg, "--quiet", "solve"]) == 0
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["converged"] is True and diag["iterations"] <= 10


def test_nodal_g_and_q_are_injected_into_the_start(tmp_path, monkeypatch):
    # the files hold a gauss g and an affine q at the 64x64 vertices; each start gets their
    # values at its own vertices, and the state is that of the functional specs to the bit
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 65), np.linspace(0.0, 1.0, 65))
    gauss, affine = cli.make_field_spec(PSOR32["g"]), lambda x, y: 0.5 - 2.0 * x + y
    np.savetxt(tmp_path / "g.txt", gauss(x, y).ravel())
    np.savetxt(tmp_path / "q.txt", affine(x, y).ravel())
    starts = []  # (nx, g, q) of each nested start
    solve_state = cli.ControlProblem.solve_state

    def recording(self, g, warm_start=None):
        if self.mesh.nx < 64:
            starts.append((self.mesh.nx, g, self.params.flux))
        return solve_state(self, g, warm_start)

    monkeypatch.setattr(cli.ControlProblem, "solve_state", recording)
    files = {name: {"type": "file", "path": str(tmp_path / f"{name}.txt")} for name in "gq"}
    specs = {"g": PSOR32["g"], "q": {"type": "affine", "a": 0.5, "bx": -2.0, "cy": 1.0}}
    for run, fields in (("nodal", files), ("functional", specs)):
        out = str(tmp_path / run)
        cfg = write_config(tmp_path / f"{run}.yaml", nx=64, ny=64, b=1.0, out=out, **fields)
        assert cli.main(["--config", cfg, "--quiet", "solve"]) == 0
    assert [nx for nx, _, _ in starts] == [32, 16, 32, 16]
    for nx, g, q in starts[:2]:
        xs, ys = np.meshgrid(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, nx + 1))
        assert np.array_equal(g, gauss(xs, ys).ravel())
        assert np.array_equal(q, affine(xs, ys).ravel())
    assert (tmp_path / "nodal" / "solution.csv").read_bytes() == (
        tmp_path / "functional" / "solution.csv"
    ).read_bytes()


def _cold_solve(cfg, path):
    """The diagnostics of a PDAS solve of `cfg` from u = b, with no nested start, whose
    solution.csv it writes to `path`."""
    _, mesh, params, g = cli.load_config(cfg, {}, "solve")
    sol = solve_pdas(cli.ControlProblem(mesh, params).as_obstacle_problem(g))
    cli.dump_solution(mesh, sol, path)
    return {"converged": sol.converged, "iterations": sol.iterations}


def test_failed_start_writes_no_state_of_another_mesh(tmp_path, monkeypatch):
    # a start only guesses PDAS's first active set: when the 32x32 start fails, the 64x64
    # solve starts from u = b and writes the state and diagnostics of that cold solve
    cfg = write_config(tmp_path / "cfg.yaml", nx=64, ny=64, out=str(tmp_path / "out"), **PSOR32)
    solve_state = cli.ControlProblem.solve_state
    failed = []

    def failing_at_32(self, g, warm_start=None):
        sol = solve_state(self, g, warm_start)
        if self.mesh.nx == 32:
            failed.append(sol)
            raise cli.SolverError("state solve did not converge (residual 1.000e+00)", sol)
        return sol

    monkeypatch.setattr(cli.ControlProblem, "solve_state", failing_at_32)
    assert cli.main(["--config", cfg, "--quiet", "solve"]) == 0
    assert len(failed) == 1
    cold = _cold_solve(cfg, tmp_path / "cold.csv")
    assert cold["iterations"] > 10  # from u = b, where the start gave 4 or 5
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert {key: diag[key] for key in cold} == cold
    out = tmp_path / "out" / "solution.csv"
    assert out.read_bytes() == (tmp_path / "cold.csv").read_bytes()


def test_start_whose_cells_overflow_is_skipped(tmp_path):
    # the 64x64 cells of 9e153 fit the float range, but the 32x32 start's stiffness of
    # 1.8e154 cells overflows and its load is not finite: the solve starts from u = b. The
    # flux q is a load: with g = q = 0 the lift u = b is the state, and no start is made
    cfg = write_config(
        tmp_path / "cfg.yaml", domain=[0, 0, 5.76e155, 5.76e155], nx=64, ny=64, b=0.05, g=0.0,
        q=1.0, amplitude=0.0, out=str(tmp_path / "out"),
    )
    # the start's overflow is a failed guess: numpy's warnings are silenced with it, and the
    # suite's error::RuntimeWarning filter fails the test on any that is printed
    assert cli.main(["--config", cfg, "--quiet", "solve"]) == 0
    assert _cold_solve(cfg, tmp_path / "cold.csv")["converged"]
    out = tmp_path / "out" / "solution.csv"
    assert out.read_bytes() == (tmp_path / "cold.csv").read_bytes()


def test_start_whose_load_overflows_is_skipped(tmp_path, capsys):
    # inner rows of M_H sum to dx*dy = 1 on the 64x64 unit cells and 4 on the 32x32 start's,
    # so only the start's load M_H g overflows; the 64x64 solve's reduced system then does
    cfg = write_config(
        tmp_path / "cfg.yaml", domain=[0, 0, 64, 64], nx=64, ny=64, b=0.05, g=1.0e308,
        out=str(tmp_path / "out"),
    )
    assert cli.main(["--config", cfg, "--quiet", "solve"]) == 2
    err = capsys.readouterr().err
    assert err == "solver failure during solve: solution of the reduced system is not finite\n"


def test_failed_trial_solve_ends_optimize(tmp_path, capsys, monkeypatch):
    # the initial state reaches tol 1e-300 but the first trial step's does not
    cfg = write_config(
        tmp_path / "cfg.yaml", nx=4, ny=4, b=0.05, g=-50.0, tol=1e-300, out=str(tmp_path / "out")
    )
    outcomes = []
    solve_state = cli.ControlProblem.solve_state

    def recording(self, *args, **kwargs):
        try:
            sol = solve_state(self, *args, **kwargs)
        except cli.SolverError:
            outcomes.append("failed")
            raise
        outcomes.append("converged")
        return sol

    monkeypatch.setattr(cli.ControlProblem, "solve_state", recording)
    assert cli.main(["--config", cfg, "--quiet", "optimize"]) == 2
    assert outcomes == ["converged", "failed"]  # no retry after the failed trial
    assert "during optimize" in capsys.readouterr().err


def test_optimize_names_the_stage_that_failed(tmp_path, capsys):
    # the state of about 1e199 fits the float range, but the adjoint's load M_H u does not
    cfg = write_config(
        tmp_path / "cfg.yaml", domain=[0, 0, 1.0e100, 1.0e100], nx=4, ny=4, b=0.0, g=1.0,
        out=str(tmp_path / "out"),
    )
    with pytest.warns(RuntimeWarning):  # the state term of the cost, which overflows first
        assert cli.main(["--config", cfg, "--quiet", "optimize"]) == 2
    assert capsys.readouterr().err == (
        "solver failure during optimize: adjoint at iteration 0: "
        "right-hand side of the reduced system is not finite\n"
    )


def test_failed_bound_solve_names_its_stage(tmp_path, capsys, monkeypatch):
    # the optimizer converges, but the g = 0 solve behind control_norm_bound fails
    cfg = write_config(tmp_path / "cfg.yaml", nx=4, ny=4, b=0.05, g=-50.0, out=str(tmp_path / "o"))
    solve_state = cli.ControlProblem.solve_state
    cold = []

    def failing_at_zero(self, g, warm_start=None):
        # the optimizer's first solve is cold and its trials warm; the bound's is cold again
        cold.append(warm_start is None)
        if sum(cold) == 2:
            raise cli.SolverError("state solve did not converge (residual 1.000e+00)")
        return solve_state(self, g, warm_start)

    monkeypatch.setattr(cli.ControlProblem, "solve_state", failing_at_zero)
    assert cli.main(["--config", cfg, "--quiet", "optimize"]) == 2
    assert capsys.readouterr().err == (
        "solver failure during optimize: the g = 0 state of control_norm_bound: "
        "state solve did not converge (residual 1.000e+00)\n"
    )


def test_overflowing_reduced_rhs_is_named(tmp_path, capsys):
    # on unit cells the inner rows of M_H sum to 1, so f = M_H g = 1.7e308
    # there; a free node next to the left side subtracts A_ID b = -2e307, so
    # the reduced right-hand side overflows while b passes validation (its
    # lift, at most 8 b per row, stays finite)
    cfg = write_config(
        tmp_path / "cfg.yaml", nx=4, ny=4, domain=[0, 0, 4, 4], b=2.0e307, g=1.7e308,
        out=str(tmp_path / "out"),
    )
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert cli.main(["--config", cfg, "--quiet", "solve"]) == 2
    assert "right-hand side of the reduced system is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("sides", [["left"], ["left", "top"]])
def test_overflowing_dirichlet_lift_names_b(tmp_path, capsys, sides):
    # u = b is exact, but A u for u = b, the multiplier estimate and the lift
    # A_ID b need b * 8 on these cells: rejected before anything is written
    cfg = write_config(
        tmp_path / "cfg.yaml", nx=4, ny=4, b=1.0e308, gamma1_sides=sides,
        out=str(tmp_path / "out"),
    )
    assert cli.main(["--config", cfg, "--quiet", "solve"]) == 1
    assert "b=1e+308" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_overflowing_cost_names_keys(tmp_path, capsys):
    # the control term M/2 ||g||^2 is about 1.25e309 on this domain
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.yaml", domain=[0, 0, 1.0e153, 1.0e153], nx=4, ny=4, b=0.05, g=-50.0,
        out=str(out),
    )
    assert cli.main(["--config", cfg, "--quiet", "optimize"]) == 1
    assert "domain, g, M: the control term" in capsys.readouterr().err
    assert not out.exists()


def test_scan_whose_norms_overflow_names_the_stage(tmp_path, capsys):
    # 2 * amplitude fits the float range, but the states' H-norms do not; the scan stops in
    # the first trial's mu loop, before that pair's Lipschitz ratio
    for amplitude in (1.0e307, 1.0e160):
        cfg = write_config(
            tmp_path / "cfg.yaml", nx=4, ny=4, b=0.05, trials=2, amplitude=amplitude,
            out=str(tmp_path / f"out{amplitude}"),
        )
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert cli.main(["--config", cfg, "--quiet", "scan"]) == 2
        assert capsys.readouterr().err == (
            "solver failure during scan: trial 0, mu=0.1: the H-norms of u3 and u4 overflow\n"
        )


@pytest.mark.parametrize("amplitude", [0.0, 1.0e-200, 1.0e155])
def test_scan_whose_pairs_count_no_lipschitz_ratio(tmp_path, capsys, amplitude):
    # every pair is 0 apart in H (amplitude 0, or 1e-200 where the distance underflows), or
    # its distance overflows beside a finite V-distance (1e155): no ratio, and no warning
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.yaml", nx=4, ny=4, b=0.05, trials=2, amplitude=amplitude, out=str(out)
    )
    assert cli.main(["--config", cfg, "--quiet", "scan"]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["lambda_h"] > 0
    assert summary["worst_lipschitz_ratio"] is None


def test_scan_without_free_nodes_reports_no_lipschitz_ratio(tmp_path, capsys):
    import jsonschema

    # Gamma1 covers every vertex of one cell: there is no lambda_h, and no pair counts
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.yaml", nx=1, ny=1, gamma1_sides=["left", "right", "bottom", "top"],
        b=0.05, trials=2, out=str(out),
    )
    assert cli.main(["--config", cfg, "--quiet", "scan"]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["lambda_h"] is None
    assert summary["worst_lipschitz_ratio"] is None
    schema = Path(__file__).resolve().parents[1] / "docs" / "summary.schema.json"
    jsonschema.validate(summary, json.loads(schema.read_text()))


@pytest.mark.parametrize("width", [1.0e-100, 8.0e-150])
def test_scan_on_cells_too_thin_for_arpack_reports_no_lambda(tmp_path, capfd, width):
    # on 1e-100-wide cells ARPACK raises ArpackError, and on 8e-150-wide ones it returns
    # lambda_h < 0: the scan runs and reports neither lambda_h nor a ratio
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.yaml", domain=[0.0, 0.0, width, 1.0], nx=8, ny=8,
        gamma1_sides=["bottom"], b=0.05, trials=2, out=str(out),
    )
    assert cli.main(["--config", cfg, "--quiet", "scan"]) == 0
    assert "Traceback" not in capfd.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["lambda_h"] is None
    assert summary["worst_lipschitz_ratio"] is None
    assert summary["violations"] == 0


def test_singular_reduced_system_fails_the_scan_with_one_line(tmp_path, capsys):
    # on 4x4 cells 1e-100 wide PDAS meets an exactly singular block in trial 0: stderr holds
    # the failure alone, and no warning is issued, SuperLU's singularity warning included
    cfg = write_config(
        tmp_path / "cfg.yaml", domain=[0.0, 0.0, 1.0e-100, 1.0], nx=4, ny=4,
        gamma1_sides=["bottom"], b=0.05, trials=20, out=str(tmp_path / "out"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--config", cfg, "--quiet", "scan"]) == 2
    assert capsys.readouterr().err == (
        "solver failure during scan: trial 0: solution of the reduced system is not finite\n"
    )


def test_sweep_whose_numbers_overflow_names_the_level(tmp_path, capsys):
    # every input fits the float range, but the state term 1/2 ||u||^2 of the cost does not
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.yaml", domain=[0, 0, 1.0e100, 1.0e100], nx=4, ny=4, b=0.0, g=1.0,
        levels=2, oracle_extra_levels=1, out=str(out),
    )
    with pytest.warns(RuntimeWarning):
        assert cli.main(["--config", cfg, "--quiet", "sweep"]) == 2
    assert re.search(r"during sweep: level 0 \(4x4\): .* float range", capsys.readouterr().err)
    assert sorted(p.name for p in out.iterdir()) == ["config.yaml"]  # no table, no summary.json


@pytest.mark.parametrize("command", ["optimize", "sweep", "scan"])
def test_tolerance_reaches_every_command(tmp_path, capsys, command):
    cfg = write_config(
        tmp_path / "cfg.yaml",
        nx=4,
        ny=4,
        b=1.0,
        g=10.0,
        levels=2,
        oracle_extra_levels=1,
        trials=2,
        mu_grid=[0.5],
        solver="pdas",
        tol=1e-300,
        out=str(tmp_path / "out"),
    )
    assert cli.main(["--config", cfg, "--quiet", command]) == 2
    if command == "sweep":
        assert re.search(r"level \d+ \(\d+x\d+\): state solve", capsys.readouterr().err)


def test_flux_from_file_matches_constant(tmp_path):
    nodal = tmp_path / "q.txt"
    np.savetxt(nodal, np.full(25, 0.5))
    common = dict(nx=4, ny=4, b=0.2, g=-30.0)
    c1 = write_config(tmp_path / "c1.yaml", q=0.5, out=str(tmp_path / "o1"), **common)
    c2 = write_config(
        tmp_path / "c2.yaml", q={"type": "file", "path": str(nodal)}, out=str(tmp_path / "o2"),
        **common,
    )
    assert cli.main(["--config", c1, "--quiet", "solve"]) == 0
    assert cli.main(["--config", c2, "--quiet", "solve"]) == 0
    assert (tmp_path / "o1" / "solution.csv").read_bytes() == (
        tmp_path / "o2" / "solution.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("solve", "nx", 2.5),
        ("solve", "domain", [0, 0, 1]),
        ("solve", "levels", "3"),
        ("solve", "sweep_control", "yes"),
        ("solve", "tol", float("nan")),
        ("scan", "seed", -1),
        ("scan", "mu_grid", []),
        ("solve", "out", __file__),  # an existing file, not a directory
        # nodal files for the default 8x8 mesh, which has 81 vertices
        ("solve", "q", {"type": "file", "values": 7}),
        ("sweep", "q", {"type": "file", "values": 81}),
        ("solve", "g", {"type": "affine", "a": 1.0e308, "bx": 1.0e308}),  # inf at x = 1
        ("solve", "nx", 10**26),  # numpy refuses the size before allocating
        # cells whose dx*dx, dy*dy or dx*dy overflow or fall below the smallest normal float
        ("solve", "domain", [0, 0, 1.0e308, 1.0e308]),
        ("solve", "domain", [0, 0, 1.0e-300, 1.0e-300]),
        ("solve", "domain", [0, 0, 1, 1.0e160]),
        ("solve", "q", {"type": "file", "values": 81, "fill": float("nan")}),
        ("scan", "amplitude", 1.0e308),  # uniform draws on [-amplitude, amplitude] overflow
        # 8 cells 1 wide at 1e16, where floats are 2 apart: grid lines coincide
        ("solve", "domain", [1.0e16, 0, 1.0000000000000008e16, 1]),
        # 8 cells 32 wide are apart, and so are the 64 of level 4, but the 256 of the oracle are not
        ("sweep", "domain", [1.0e16, 0, 1.0000000000000256e16, 1]),
        ("sweep", "optimize_levels", 0),
        ("sweep", "levels", 3000),  # an oracle of 8 * 2**3001 cells a side
        ("sweep", "levels", 10**20),  # an oracle of 8 * 2**(10**20 + 1) cells a side
        # 1x1 refined 20 times is 2**20 cells a side, 2**40 cells in all
        ("sweep", "oracle_extra_levels", {"nx": 1, "ny": 1, "levels": 2, "value": 19}),
        ("scan", "amplitude", -1.0),  # uniform draws on [1, -1]
        # the range rules of build_rectangle_mesh and CostParams, which name their keys
        ("solve", "nx", 0),
        ("solve", "gamma1_sides", []),
        ("solve", "gamma1_sides", ["middle"]),
        ("solve", "domain", [1, 0, 0, 1]),
        ("solve", "b", -1.0),
        ("solve", "M", 0.0),
        ("solve", "solver", "cg"),
        ("solve", "tol", -1.0),
        pytest.param("solve", "nx", 10**400, id="solve-nx-10**400"),  # over 2**20 cells
        # cells of 1e154: dx*dx is 1e308, but dx*dx + dy*dy and the 2 dx dy of assembly overflow
        ("solve", "domain", {
            "nx": 16, "ny": 16, "b": 0.05, "g": 0.0, "amplitude": 0.0,
            "value": [0, 0, 1.6e155, 1.6e155],
        }),
        # 1.5e-154 cells are normal when squared, but the oracle's, refined 10 times, are not
        ("sweep", "domain", {
            "nx": 1, "ny": 1, "b": 0.05, "g": -50.0, "levels": 3, "oracle_extra_levels": 8,
            "value": [0, 0, 1.5e-154, 1.5e-154],
        }),
        # a rate needs two levels: one level would be solved with its oracle, then fail its checks
        ("sweep", "levels", {"nx": 4, "ny": 4, "oracle_extra_levels": 2, "value": 1}),
        ("sweep", "optimize_levels", {"nx": 4, "ny": 4, "sweep_control": True, "value": 1}),
        ("scan", "trials", 0),
        ("solve", "g", {"type": "file"}),  # no path
        ("solve", "g", {"type": "file", "path": __file__}),  # a file of no numbers
        ("solve", "g", {"type": "gauss", "sigma": 0}),
        ("solve", "q", {"type": "affine", "a": "x"}),
    ],
)
def test_config_fault_names_key(tmp_path, capsys, command, key, value):
    extra = {}
    if isinstance(value, dict) and "values" in value:  # a nodal file of that many values
        np.savetxt(tmp_path / "q.txt", np.full(value["values"], value.get("fill", 0.0)))
        value = {"type": "file", "path": str(tmp_path / "q.txt")}
    elif isinstance(value, dict) and "type" not in value:  # the value and the keys it needs
        extra = dict(value)
        value = extra.pop("value")
    cfg = write_config(
        tmp_path / "cfg.yaml", **{"out": str(tmp_path / "out"), key: value}, **extra
    )
    assert cli.main(["--config", cfg, "--quiet", command]) == 1
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not (tmp_path / "out" / "config.yaml").exists()  # rejected before any write


def test_faults_in_three_groups_name_every_key(tmp_path, capsys):
    # the mesh's, CostParams' and the run's own keys are checked together
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.yaml", nx=0, M=-1.0, seed=-1, out=str(out))
    assert cli.main(["--config", cfg, "--quiet", "scan"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert all(re.search(rf"\b{key}\b", err) for key in ("nx", "M", "seed"))
    assert not out.exists()


@pytest.mark.parametrize("g", [1.0e308, {"type": "gauss", "amplitude": -1.0e308}])
def test_load_overflow_names_keys(tmp_path, capsys, g):
    # finite g, but inner rows of M_H sum to dx*dy = 4 on these 2x2 cells, so M_H g overflows;
    # the gauss is tiny at the corners of the domain and largest at its centre
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path / "cfg.yaml", out=out, domain=[0, 0, 8, 8], nx=4, ny=4, g=g)
    assert cli.main(["--config", cfg, "--quiet", "solve"]) == 1
    assert "g, q: the load M_H g - F_q overflows" in capsys.readouterr().err
    assert not (tmp_path / "out" / "config.yaml").exists()


@pytest.mark.parametrize("command", ["solve", "optimize", "scan"])
def test_each_nodal_file_is_read_once(tmp_path, monkeypatch, command):
    # the file that was checked is the file that is solved
    for name, value in (("q", 0.5), ("g", -30.0)):
        np.savetxt(tmp_path / f"{name}.txt", np.full(25, value))
    cfg = write_config(
        tmp_path / "cfg.yaml", nx=4, ny=4, b=0.2, trials=2, mu_grid=[0.5],
        q={"type": "file", "path": str(tmp_path / "q.txt")},
        g={"type": "file", "path": str(tmp_path / "g.txt")},
        out=str(tmp_path / "out"),
    )
    reads = []
    loadtxt = np.loadtxt

    def recording(path, *args, **kwargs):
        reads.append(Path(path).name)
        return loadtxt(path, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    assert cli.main(["--config", cfg, "--quiet", command]) == 0
    assert sorted(reads) == ["g.txt", "q.txt"]


def test_every_config_field_has_a_kind():
    # q and g are field specs, checked by make_field_spec
    unchecked = {f.name for f in fields(cli.RunConfig) if f.type not in cli.FIELD_KINDS}
    assert unchecked == {"q", "g"}


def field_values():
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.text(alphabet="abxyz01.-", max_size=6),
        st.sampled_from(["left", "top", "pdas", "psor", "constant", "affine", "gauss", "file"]),
    )
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.dictionaries(
                st.sampled_from(["type", "value", "a", "bx", "sigma", "amplitude", "path"]),
                inner,
                max_size=4,
            ),
        ),
        max_leaves=8,
    )


@given(
    st.dictionaries(
        st.sampled_from([f.name for f in fields(cli.RunConfig)]), field_values(), max_size=6
    ),
    st.sampled_from(["solve", "optimize", "sweep", "scan"]),
)
def test_load_config_raises_only_config_error(tmp_path_factory, data, command):
    path = tmp_path_factory.getbasetemp() / "hypothesis.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    try:
        cfg, mesh, params, g = cli.load_config(str(path), {}, command)
    except cli.ConfigError:
        return
    assert isinstance(cfg, cli.RunConfig)


def test_summaries_validate_against_schema(tmp_path):
    import jsonschema

    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "docs" / "summary.schema.json").read_text()
    )
    sweep_cfg = write_config(
        tmp_path / "sweep.yaml",
        nx=2,
        ny=2,
        g={"type": "constant", "value": 10.0},
        levels=3,
        out=str(tmp_path / "sweep_out"),
    )
    scan_cfg = write_config(
        tmp_path / "scan.yaml",
        nx=3,
        ny=3,
        trials=3,
        mu_grid=[0.5],
        out=str(tmp_path / "scan_out"),
    )
    assert cli.main(["--config", sweep_cfg, "--quiet", "sweep"]) == 0
    assert cli.main(["--config", scan_cfg, "--quiet", "scan"]) == 0
    for sub in ("sweep_out", "scan_out"):
        summary = json.loads((tmp_path / sub / "summary.json").read_text())
        jsonschema.validate(summary, schema)


def test_invalid_mu_grid_exit_code(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.yaml", mu_grid=[0.5, 1.2], out=str(tmp_path / "out")
    )
    assert cli.main(["--config", cfg, "scan"]) == 1
