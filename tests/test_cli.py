import pytest

from relax_mprk.cli import (CSV_HEADER, ConfigError, main, parse_method_spec,
                            parse_problem_spec)


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
    assert "bisection" in out


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
          "--method", "mprk22:0.75", "--solver", "bisection"])
    meta = dict(line.split("=", 1)
                for line in (tmp_path / "r.csv.meta").read_text().splitlines())
    assert meta["problem"] == "cyclic3"
    assert meta["method"] == "mprk22"
    assert float(meta["alpha"]) == 0.75
    assert meta["solver"] == "bisection"
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


def test_config_file_flags_take_precedence(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# experiment\ndt0 = 0.5\nsolver = bisection\n")
    out = tmp_path / "r.csv"
    code = main(["run", "--problem", "cyclic3", "--out", str(out),
                 "--solver", "secant", "--config", str(cfg)])
    assert code == 0
    meta = dict(line.split("=", 1)
                for line in (tmp_path / "r.csv.meta").read_text().splitlines())
    assert float(meta["dt0"]) == 0.5           # taken from the file
    assert meta["solver"] == "secant"          # flag wins


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


def test_bad_problem_kwargs_exit_2(capsys):
    assert main(["run", "--problem", "cyclic3:N=7"]) == 2
    assert "bad parameters" in capsys.readouterr().err


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


def test_convergence_rejects_bad_levels(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["convergence", "--problem", "cyclic3", "--levels", "0"]) == 2
    capsys.readouterr()
