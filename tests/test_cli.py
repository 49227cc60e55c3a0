import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

from vicontrol import cli


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


def test_missing_config_file(tmp_path):
    assert cli.main(["--config", str(tmp_path / "nope.yaml"), "solve"]) == 1


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
    # 2 * amplitude fits the float range, but the states' H-norms do not
    cfg = write_config(
        tmp_path / "cfg.yaml", nx=4, ny=4, b=0.05, trials=2, amplitude=1.0e307,
        out=str(tmp_path / "out"),
    )
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert cli.main(["--config", cfg, "--quiet", "scan"]) == 2
    assert re.search(r"during scan: trial 0, mu=0.1: .* overflow", capsys.readouterr().err)


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
        ("sweep", "oracle_extra_levels", {"nx": 1, "ny": 1, "levels": 1, "value": 20}),
        ("scan", "amplitude", -1.0),  # uniform draws on [1, -1]
    ],
)
def test_config_fault_names_key(tmp_path, capsys, command, key, value):
    extra = {}
    if isinstance(value, dict) and value.get("type") == "file":
        np.savetxt(tmp_path / "q.txt", np.full(value["values"], value.get("fill", 0.0)))
        value = {"type": "file", "path": str(tmp_path / "q.txt")}
    elif isinstance(value, dict) and "type" not in value:  # the value and the keys it needs
        extra = dict(value)
        value = extra.pop("value")
    cfg = write_config(
        tmp_path / "cfg.yaml", **{"out": str(tmp_path / "out"), key: value}, **extra
    )
    assert cli.main(["--config", cfg, "--quiet", command]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out" / "config.yaml").exists()  # rejected before any write


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
        cfg, q, g = cli.load_config(str(path), {}, command)
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
