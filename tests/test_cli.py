import numpy as np
import pytest

from relax_mprk import cli
from relax_mprk.cli import (CSV_HEADER, ConfigError, main, parse_method_spec,
                            parse_problem_spec)
from relax_mprk.control import integrate, interp_state
from relax_mprk.problems import barenblatt, make_problem
from relax_mprk.schemes import SIGMA_MODES, MpStepper, build_scheme

from helpers import counted


# ---------------------------------------------------------------------------
# Spec parsing

def test_parse_problem_spec():
    assert parse_problem_spec("cyclic3") == ("cyclic3", {})
    assert parse_problem_spec("pme:m=3,N=160") == ("pme", {"m": 3, "N": 160})
    assert parse_problem_spec("advection:entropy_kind=log") == \
        ("advection", {"entropy_kind": "log"})
    assert parse_problem_spec(" pme : m = 2.5 ") == ("pme", {"m": 2.5})
    with pytest.raises(ConfigError, match="key=value"):
        parse_problem_spec("pme:m3")


def test_parse_method_spec():
    assert parse_method_spec("mprk22:1") == ("mprk22", 1.0, None)
    assert parse_method_spec("MPRK43I:0.5,0.75") == ("mprk43i", 0.5, 0.75)
    assert parse_method_spec("mpssprk2:0.5,1") == ("mpssprk2", 0.5, 1.0)
    with pytest.raises(ConfigError, match="exactly one"):
        parse_method_spec("mprk22:1,2")
    with pytest.raises(ConfigError, match="two parameters"):
        parse_method_spec("mprk43i:0.5")
    with pytest.raises(ConfigError, match="unknown method"):
        parse_method_spec("rk4")


# ---------------------------------------------------------------------------
# Subcommands

def test_list_output(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "stratospheric" in out
    assert "solver=regula_falsi" in out
    assert "relax modes:" in out
    assert "solvers: newton, regula_falsi\n" in out
    for kind, modes in SIGMA_MODES.items():
        assert f"{kind}: {', '.join(modes)}" in out


def _run_cyclic3(tmp_path, name):
    out = tmp_path / name
    code = main(["run", "--problem", "cyclic3", "--out", str(out)])
    assert code == 0
    return out.read_text()


def test_run_writes_csv(tmp_path, capsys):
    text = _run_cyclic3(tmp_path, "a.csv")
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    # gamma-rescaled steps advance by gamma*dt, so the count is data-driven
    assert len(lines) > 11
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    assert first[4] == "initial"
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(1.0)
    assert last[4] == "converged"
    for row in lines[1:]:
        assert float(row.split(",")[6]) == pytest.approx(2.5, rel=1e-14)
    assert "wrote" in capsys.readouterr().out


def test_run_is_deterministic(tmp_path, capsys):
    a = _run_cyclic3(tmp_path, "a.csv")
    b = _run_cyclic3(tmp_path, "b.csv")
    assert a == b


def test_run_writes_metadata_sidecar(tmp_path, capsys):
    out = tmp_path / "r.csv"
    main(["run", "--problem", "cyclic3", "--out", str(out),
          "--method", "mprk22:0.75", "--solver", "regula_falsi"])
    meta = dict(line.split("=", 1)
                for line in (tmp_path / "r.csv.meta").read_text().splitlines())
    assert meta["problem"] == "cyclic3"
    assert meta["method"] == "mprk22"
    assert float(meta["alpha"]) == 0.75
    assert meta["solver"] == "regula_falsi"
    assert meta["relax"] == "implicit"
    assert meta["sigma_mode"] == "default"
    assert float(meta["t_end"]) == 1.0


def test_run_dump_state(tmp_path, capsys):
    out = tmp_path / "r.csv"
    main(["run", "--problem", "cyclic3", "--out", str(out), "--dump-state"])
    state = (tmp_path / "state.csv").read_text().strip().splitlines()
    assert state[0] == "step,t,u0,u1,u2"
    run_rows = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert len(state) == len(run_rows)   # one state row per CSV row


def test_unknown_problem_exits_2(tmp_path, capsys):
    assert main(["run", "--problem", "heat"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_bad_method_exits_2(capsys):
    assert main(["run", "--problem", "cyclic3", "--method", "mprk22:0.1"]) == 2
    assert main(["run", "--problem", "cyclic3", "--method", "rk4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--problem", "cyclic3", "--method", "mprk43i:0.5,0.75",
     "--sigma-mode", "dense", "--adapt", "relax_only"],
    ["--problem", "euler", "--sigma-mode", "bootstrap"],
])
def test_invalid_sigma_mode_exits_2(tmp_path, capsys, argv):
    assert main(["run", "--out", str(tmp_path / "r.csv"), *argv]) == 2
    assert "sigma mode" in capsys.readouterr().err


def test_bad_problem_kwargs_exit_2(tmp_path, capsys):
    assert main(["run", "--problem", "cyclic3:N=7"]) == 2
    assert "bad parameters" in capsys.readouterr().err
    # a value the package rejects with ValueError, and a time span or
    # tolerance out of range, are configuration errors too
    for argv, reason in [
            ("advection:N=2", "at least 3 cells"), ("pme:m=1", "m > 1"),
            ("advection:entropy_kind=foo", "entropy_kind must be one of"),
            ("cyclic3 --method mprk22:abc", "'abc'"),
            ("cyclic3 --t-end 0", "t_end must exceed"),
            ("cyclic3 --t-end -1", "t_end must exceed"),
            # what integrate would refuse, not a traceback or an empty run
            ("cyclic3 --t-end inf", "must be finite"),
            ("cyclic3 --t-end nan", "must be finite"),
            ("cyclic3 --dt0 nan", "dt0 must be positive"),
            ("cyclic3 --relax geometric", "non-decreasing in each argument"),
            ("advection:N=8 --relax geometric", "non-decreasing"),
            ("euler:N=8 --relax geometric", "non-decreasing"),
            ("lotka_volterra --relax geometric", "non-decreasing"),
            ("cyclic3 --rtol -1 --adapt pid", "must be non-negative"),
            ("cyclic3 --rtol 0 --atol 0", "not both zero"),
            # non-finite parameters, which would reach a solve as a
            # non-finite matrix
            ("euler:c=nan", "sound speed"), ("euler:c=inf", "sound speed"),
            ("pme:m=nan", "m > 1"), ("pme:m=inf", "m > 1"),
            ("cyclic3 --method mprk22:inf", "finite alpha >= 1/2"),
            # a mesh size that is not an integer, which failed as a
            # TypeError traceback (Euler) or a misleading message
            ("euler:N=10.5", "at least 3 cells, given as an integer N; "
                             "got N = 10.5"),
            ("advection:N=10.5", "got N = 10.5"),
            ("pme:N=20.5", "got N = 20.5"),
            ("advection:N=1e2", "got N = 100.0")]:
        out = tmp_path / "r.csv"
        assert main(["run", "--out", str(out), "--problem",
                     *argv.split()]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and reason in err, argv
        assert not out.exists(), argv


@pytest.mark.parametrize("command", ["run", "convergence"])
def test_out_in_a_missing_directory_exits_2_before_integrating(
        tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    runs = [0]
    monkeypatch.setattr(cli, "integrate", counted(cli.integrate, runs))
    # the run used to integrate in full and then fail to open the file
    out = tmp_path / "missing" / "x.csv"
    assert main([command, "--problem", "cyclic3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "missing" in err
    assert runs[0] == 0
    assert not (tmp_path / "missing").exists()


def test_convergence_single_level(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--problem", "cyclic3", "--levels", "1",
                 "--relax", "none", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "dt,error,order,gamma_dev"
    assert len(lines) == 2
    dt, err, order, gdev = lines[1].split(",")
    assert float(dt) == 0.1
    assert float(err) > 0.0
    assert order == ""                 # first level has no ratio
    assert float(gdev) == 0.0          # relaxation off
    assert (tmp_path / ".relax_mprk_cache").is_dir()


def test_convergence_orders_near_two(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["convergence", "--problem", "cyclic3", "--levels", "3",
                 "--relax", "none"])
    assert code == 0
    rows = [l for l in capsys.readouterr().out.splitlines()[1:] if l.strip()]
    orders = [float(r.split()[2]) for r in rows[1:]]
    assert all(1.7 < o < 2.3 for o in orders)


def test_convergence_cyclic3_dense_sigma_orders_near_two(tmp_path, capsys,
                                                         monkeypatch):
    # cyclic3 relaxes with MPRK22 and Newton by default; under the default
    # frozen sigma the gamma-curve is only first order in gamma and the
    # relaxed orders fall to about 0.36.  A dense sigma keeps them near
    # two, through Newton's tangent solves with a moving denominator
    monkeypatch.chdir(tmp_path)
    code = main(["convergence", "--problem", "cyclic3", "--levels", "3",
                 "--sigma-mode", "dense"])
    assert code == 0
    rows = [l for l in capsys.readouterr().out.splitlines()[1:] if l.strip()]
    orders = [float(r.split()[2]) for r in rows[1:]]
    assert len(orders) == 2 and all(1.7 < o < 2.3 for o in orders)


def test_convergence_halves_a_fixed_step(tmp_path, capsys, monkeypatch):
    # Euler's problem default is pid_and_relax, under which dt0 only set
    # the first step and the orders read about 0; the ladder steps fixed
    monkeypatch.chdir(tmp_path)
    argv = ["convergence", "--problem", "euler:N=16", "--t-end", "0.25",
            "--levels", "2"]
    assert main(argv) == 0
    order = float(capsys.readouterr().out.splitlines()[-1].split()[2])
    assert 1.7 < order < 2.3
    assert main([*argv, "--adapt", "pid"]) == 2
    err = capsys.readouterr().err
    assert "convergence halves a fixed step" in err and "pid" in err


def test_convergence_rejects_bad_levels(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["convergence", "--problem", "cyclic3", "--levels", "0"]) == 2
    capsys.readouterr()


def test_convergence_on_euler_uses_the_oracle(tmp_path, capsys,
                                              monkeypatch):
    # Euler has no analytic reference; its fine-step oracle is an MPRK43I
    # run of its own stepper, as for every other problem
    monkeypatch.chdir(tmp_path)
    assert main(["convergence", "--problem", "euler:N=16", "--method",
                 "mprk43i:0.5,0.75", "--relax", "none", "--adapt", "fixed",
                 "--t-end", "0.1", "--dt0", "0.025", "--levels", "2"]) == 0
    order = float(capsys.readouterr().out.splitlines()[-1].split()[2])
    assert order > 2.5


def test_convergence_reads_the_cached_oracle(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["convergence", "--problem", "cyclic3", "--levels", "1",
            "--relax", "none"]
    runs = [0]
    monkeypatch.setattr(cli, "integrate", counted(cli.integrate, runs))
    # the oracle and the one level
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert len(list((tmp_path / ".relax_mprk_cache").glob("ref_*.npz"))) == 1
    assert runs[0] == 2
    # the level only: the oracle comes from the cache
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert runs[0] == 3


def test_oracle_cache_keeps_the_last_two_rows(tmp_path, capsys,
                                              monkeypatch):
    # every level ends past the oracle's second-to-last time, so the
    # cache keeps the two rows interp_state reads, and the levels' errors
    # are those against the full fine trajectory
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "conv.csv"
    argv = ["convergence", "--problem", "cyclic3", "--levels", "2",
            "--relax", "none", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    first = out.read_text()
    [path] = (tmp_path / ".relax_mprk_cache").glob("ref_*.npz")
    with np.load(path) as cached:
        cached_ts, cached_us = cached["ts"], cached["us"]
    assert cached_ts.shape == (2,) and cached_us.shape == (2, 3)

    problem = make_problem("cyclic3")
    t0, t_end = problem.tspan
    oracle = problem.stepper(build_scheme("mprk43i", 0.5, 0.75))
    full = integrate(oracle, None, None, t0, problem.u0, t_end, 0.05 / 100.0)
    ts, us = np.array(full.times), np.array(full.states)
    assert ts[-2:].tobytes() == cached_ts.tobytes()
    assert us[-2:].tobytes() == cached_us.tobytes()
    stepper = problem.stepper(build_scheme("mprk22", 1.0))
    rows = [r.split(",") for r in first.strip().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [0.1, 0.05]
    for dt_s, err_s, _, _ in rows:
        traj = integrate(stepper, None, None, t0, problem.u0, t_end,
                         float(dt_s))
        ref = interp_state(ts, us, traj.times[-1])
        assert float(err_s) == np.max(np.abs(traj.states[-1] - ref))

    # a full trajectory cached earlier still loads, with the same table
    np.savez_compressed(path, ts=ts, us=us)
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_text() == first


def _pme_reference(m, N=160):
    dx = 12.0 / N
    x = -6.0 + (np.arange(N) + 0.5) * dx
    return lambda t: np.maximum(barenblatt(t, x, m), 1e-30)


def test_convergence_against_analytic_reference(tmp_path, capsys,
                                                monkeypatch):
    # PME has the Barenblatt solution, so no oracle is computed or cached
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "conv.csv"
    assert main(["convergence", "--problem", "pme:m=3", "--t-end", "1.3",
                 "--levels", "2", "--relax", "none", "--out", str(out)]) == 0
    capsys.readouterr()
    assert not (tmp_path / ".relax_mprk_cache").exists()
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [0.075, 0.0375]
    reference = _pme_reference(3.0)
    problem = make_problem("pme", m=3)
    stepper = MpStepper(problem.sys, build_scheme("mpssprk2", 0.5, 1.0))
    for dt_s, err_s, _, _ in rows:
        traj = integrate(stepper, None, None, 1.0, problem.u0, 1.3,
                         float(dt_s))
        expected = np.max(np.abs(traj.states[-1] - reference(traj.times[-1])))
        assert float(err_s) == expected


def test_run_err_ref_column_is_distance_to_reference(tmp_path, capsys):
    out = tmp_path / "pme.csv"
    assert main(["run", "--problem", "pme:m=3", "--t-end", "1.3",
                 "--out", str(out), "--dump-state"]) == 0
    capsys.readouterr()
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    states = [r.split(",") for r in
              (tmp_path / "state.csv").read_text().strip().splitlines()[1:]]
    reference = _pme_reference(3.0)
    assert len(rows) == len(states) > 2
    for row, st in zip(rows, states):
        t, u = float(st[1]), np.array([float(v) for v in st[2:]])
        assert float(row[8]) == np.max(np.abs(u - reference(t)))
    assert float(rows[0][8]) == 0.0


@pytest.mark.parametrize("argv, reason", [
    # the Patankar matrix of the density update is singular at this dt
    (["--relax", "none"], "singular matrix"),
    # a failed search keeps a base step with |m| ~ 1e144, whose entropy
    # overflows
    ([], "entropy eta of the relaxed state"),
    # later --dt0 flags win.  At 0.05 the density sweep meets a zero pivot
    # where fac*loss/denom = 7e70; at 0.06 the unrelaxed steps run until
    # the momentum is too large for eta
    (["--dt0", "0.05", "--relax", "none"], "fac*loss/denom = 7.131e+70"),
    (["--dt0", "0.06", "--relax", "none"], "entropy eta of the step"),
])
def test_euler_failure_at_large_dt_exits_1(tmp_path, capsys, argv, reason):
    code = main(["run", "--problem", "euler", "--dt0", "0.1", "--adapt",
                 "fixed", "--out", str(tmp_path / "r.csv"), *argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("integration failure: ") and reason in err
    assert "Traceback" not in err
