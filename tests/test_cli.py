"""Command line interface: config handling, outputs, exit codes."""

import csv
import io
import json
import warnings

import numpy as np
import pytest

from mac3mg import cli, multigrid
from mac3mg.twogrid import TransferPair, two_grid_factor_table
from mac3mg.symbols import SCHEMES, reference_params


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


# -- config plumbing -------------------------------------------------------


def test_parse_nus():
    assert cli._parse_nus("1,2,3") == (1, 2, 3)
    assert cli._parse_nus("4") == (4,)
    assert cli._parse_nus("1, 2") == (1, 2)
    with pytest.raises(cli.ConfigError):
        cli._parse_nus("1,a")


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "scheme = qdr\n"
        "nu = 1,2  # trailing comment\n"
        "omega-j = 0.8\n"
        "\n"
        "seed=5\n"
    )
    values = cli.load_config_file(str(path))
    assert values == {"scheme": "qdr", "nu": "1,2", "omega_j": "0.8", "seed": "5"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("scheme qdr\n")
    with pytest.raises(cli.ConfigError):
        cli.load_config_file(str(bad))
    with pytest.raises(cli.ConfigError):
        cli.load_config_file(str(tmp_path / "missing.cfg"))


def test_validate_rejects_bad_values():
    cfg = cli.ExperimentConfig(command="mg-run")
    cfg.validate()
    for attr, value in (
        ("nus", ()),
        ("nus", (0,)),
        ("n", 2),
        ("n", 3),
        ("n", 80),
        ("resolution", 1),
        ("resolution", 10),
        ("seed", -1),
    ):
        broken = cli.ExperimentConfig(command="mg-run")
        setattr(broken, attr, value)
        with pytest.raises(cli.ConfigError):
            broken.validate()


_BAD_VALUES = [("scheme", "jacobi"), ("transfer", "r4"), ("bc", "neumann"), ("format", "yaml"),
               ("n", "x"), ("n", "10"), ("n", "3"), ("resolution", "10"), ("seed", "-1"),
               ("nu", "1,a"), ("nu", "0"), ("omega", "nan"), ("sigma", "-3"), ("sigma", "0")]
# not full flag names: unknown, an abbreviation, the file itself, a field name
_BAD_KEYS = [("cycles", "3"), ("sch", "qdr"), ("config", "other.cfg"), ("nus", "1,2")]


@pytest.mark.parametrize("source, key, value", [
    *((source, key, value) for source in ("flag", "file") for key, value in _BAD_VALUES),
    *(("file", key, value) for key, value in _BAD_KEYS),
])
def test_every_bad_input_is_a_config_error(source, key, value, tmp_path, capsys):
    # a flag and a config file line go through one parser and one error path
    if source == "flag":
        args = [f"--{key}", value]
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        args = ["--config", str(path)]
    assert run_cli(["mg-run", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "usage:" not in err and "Traceback" not in err


def test_a_file_range_error_names_the_file(tmp_path, capsys):
    # a file value that parses but is out of range names the file, as a
    # parse error does, even where a flag overrides it; the flag alone does not
    path = tmp_path / "run.cfg"
    path.write_text("n = 10\n")
    for flags in ([], ["--n", "27"]):
        assert run_cli(["mg-run", "--config", str(path), *flags]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}: grid size 10 ")
    assert run_cli(["mg-run", "--n", "10"]) == 1
    assert capsys.readouterr().err.startswith("config error: grid size 10 ")
    # so does a relaxation parameter out of range
    for line, message in (("alpha = 0", "alpha must be positive"),
                          ("sigma = -3", "sigma must be positive")):
        path.write_text(f"{line}\n")
        assert run_cli(["mg-run", "--n", "9", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}: {message}")


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("scheme = qdr\nnu = 1,2\nformat = json\nresolution = 27\n")
    args = cli.make_parser().parse_args(
        ["twogrid-lfa", "--config", str(path), "--scheme", "qbsr"]
    )
    cfg = cli.build_config(args)
    assert cfg.scheme == "qbsr"  # flag wins
    assert cfg.nus == (1, 2)  # file value survives
    assert cfg.fmt == "json"
    assert cfg.resolution == 27


def test_unknown_config_key_fails(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("cycles = 3\n")
    assert run_cli(["mg-run", "--config", str(path)]) == 1


def test_config_file_that_is_not_utf8_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"scheme = q\xff\xfedr\n")
    assert run_cli(["smooth-opt", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "utf-8" in err and "Traceback" not in err


def test_bad_flag_values_exit_one(capsys):
    assert run_cli(["mg-run", "--nu", "1,x", "--n", "9"]) == 1
    assert run_cli(["twogrid-lfa", "--scheme", "bogus"]) == 1
    assert run_cli(["mg-run", "--config", "/nonexistent/path.cfg"]) == 1
    capsys.readouterr()
    # grid sizes and sampling resolutions are checked before any work starts
    assert run_cli(["mg-run", "--n", "80"]) == 1
    assert run_cli(["twogrid-lfa", "--resolution", "10"]) == 1
    assert run_cli(["smooth-opt", "--resolution", "10"]) == 1
    # a resolution whose symbols would not fit in memory is refused before any is built
    assert run_cli(["twogrid-lfa", "--resolution", "243000"]) == 1
    assert run_cli(["smooth-opt", "--resolution", "243000"]) == 1
    # negative seeds and non-finite relaxation parameters
    assert run_cli(["mg-run", "--n", "9", "--nu", "1", "--resolution", "9", "--seed", "-1"]) == 1
    assert run_cli(["smooth-opt", "--resolution", "9", "--omega", "nan"]) == 1
    assert run_cli(["twogrid-lfa", "--resolution", "9", "--alpha", "nan"]) == 1
    assert run_cli(["twogrid-lfa", "--resolution", "9", "--alpha", "inf"]) == 1
    # a subnormal alpha has no finite reciprocal; it is refused before any
    # symbol is built, so no numpy overflow warning is raised either
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["smooth-opt", "--resolution", "9", "--alpha", "1e-320"]) == 1
        assert run_cli(["twogrid-lfa", "--resolution", "9", "--alpha", "1e-320"]) == 1
    assert not caught
    # a 3x3 grid has no coarse level, so no cycle can run on it
    assert run_cli(["mg-run", "--n", "3", "--nu", "1", "--resolution", "9"]) == 1
    assert run_cli(["compare", "--n", "3", "--nu", "1", "--resolution", "9"]) == 1
    # an unwritable output path is reported, not raised
    assert run_cli(["selftest", "--out", "/nonexistent/dir/x.json"]) == 1
    assert run_cli(["smooth-opt", "--resolution", "9", "--out", "/nonexistent/x.csv"]) == 1
    assert capsys.readouterr().err.count("config error") == 15


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    out = capsys.readouterr().out
    assert "smooth-opt" in out and "selftest" in out


def test_resolve_params_applies_overrides():
    cfg = cli.ExperimentConfig(command="mg-run", scheme="quzawa", omega=0.9)
    params = cli.resolve_params(cfg, "lfa")
    ref = reference_params("quzawa")
    assert params.omega == 0.9
    assert params.alpha == ref.alpha and params.sigma == ref.sigma
    # overrides are validated through the parameter dataclass
    bad = cli.ExperimentConfig(command="mg-run", scheme="qibsr", omega_j=3.0)
    with pytest.raises(cli.ConfigError):
        cli.resolve_params(bad, "lfa")


# -- commands --------------------------------------------------------------


def test_smooth_opt_reports_small_gap(tmp_path):
    out = tmp_path / "opt.json"
    code = run_cli(["smooth-opt", "--scheme", "qdr", "--format", "json",
                    "--out", str(out), "--resolution", "81"])
    assert code == 0
    report = read_json(str(out))
    assert report["mu_rational"] == "17/47"
    assert report["under_root"] is False
    row = report["rows"][0]
    assert abs(row["mu_analytic"] - 17.0 / 47.0) < 1e-12
    assert row["gap"] < 1e-3


def test_smooth_opt_uzawa_under_root(tmp_path):
    out = tmp_path / "opt.json"
    assert run_cli(["smooth-opt", "--scheme", "quzawa", "--format", "json",
                    "--out", str(out), "--resolution", "27"]) == 0
    report = read_json(str(out))
    assert report["mu_rational"] == "17/47"
    assert report["under_root"] is True


def test_smooth_opt_numerical_failure_exit_code(tmp_path, capsys):
    # a huge alpha takes the qbsr mass step below the normal range
    out = tmp_path / "opt.csv"
    with np.errstate(all="ignore"):
        code = run_cli(["smooth-opt", "--scheme", "qbsr", "--resolution", "9",
                        "--alpha", "1e308", "--out", str(out)])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_huge_alpha_is_a_clean_numerical_failure(capsys):
    # alpha = 1e308 takes the mass step Q / alpha below the normal range: for
    # every scheme, and in twogrid-lfa (default scheme qibsr) too, the run ends
    # in a numerical failure without numpy warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for scheme in SCHEMES:
            assert run_cli(["smooth-opt", "--resolution", "9", "--scheme", scheme,
                            "--alpha", "1e308"]) == 2, scheme
        assert run_cli(["twogrid-lfa", "--resolution", "9", "--alpha", "1e308"]) == 2
    assert not caught
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("mass step underflows") == len(SCHEMES) + 1


@pytest.mark.parametrize("flags, overflow", [
    # omega = 1e308 overflows the relaxation error symbol itself
    (["--omega", "1e308"], "error symbol overflows"),
    # a qibsr smoother this far past its bounds amplifies by about 1e300 a
    # sweep, so its second power overflows
    (["--scheme", "qibsr", "--omega-j", "1.999999", "--alpha", "1e-300"],
     "two-grid symbol overflows"),
])
def test_lfa_overflow_is_a_clean_numerical_failure(capsys, flags, overflow):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["twogrid-lfa", "--resolution", "9", *flags]) == 2
    assert not caught
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err and overflow in captured.err


def test_twogrid_lfa_rows_match_library(tmp_path):
    out = tmp_path / "lfa.csv"
    code = run_cli(["twogrid-lfa", "--scheme", "qdr", "--transfer", "r9b",
                    "--nu", "1,2", "--resolution", "27", "--out", str(out)])
    assert code == 0
    rows = read_csv(str(out))
    table = two_grid_factor_table(reference_params("qdr"), TransferPair("r9b"),
                                  nus=(1, 2), n=27, h=1.0 / 27.0)
    assert [r["nu"] for r in rows] == ["1", "2"]
    for row in rows:
        assert row["rho_lfa"] == f"{table[int(row['nu'])]:.3f}"
        assert row["scheme"] == "qdr" and row["transfer"] == "r9b"


def test_mg_run_small_grid(tmp_path):
    out = tmp_path / "run.json"
    code = run_cli(["mg-run", "--scheme", "qibsr", "--n", "9", "--nu", "1,2",
                    "--resolution", "27", "--format", "json", "--out", str(out)])
    assert code == 0
    report = read_json(str(out))
    rows = report["rows"]
    assert {r["cycle"] for r in rows} == {"two", "v"}
    assert all(r["status"] == "converged" for r in rows)
    assert all(0.0 < r["rho_m"] < 1.0 for r in rows)
    hist = report["residual_histories"]
    assert set(hist) == {"two-nu1", "two-nu2", "v-nu1", "v-nu2"}
    assert all(len(v) >= 2 for v in hist.values())


def test_mg_run_divergence_exit_code(tmp_path):
    out = tmp_path / "run.csv"
    code = run_cli(["mg-run", "--scheme", "qdr", "--n", "9", "--nu", "1",
                    "--omega", "5.0", "--resolution", "27", "--out", str(out)])
    assert code == 2
    rows = read_csv(str(out))
    assert all(r["status"] == "diverged" for r in rows)
    assert all(r["rho_m"] == "nan" for r in rows)


def test_overflowing_divergence_is_reported_without_warnings(tmp_path):
    # omega = 1e300 overflows the state within the first cycle: the coarse
    # solve's data overflow too, and the run still ends as diverged
    out = tmp_path / "run.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["mg-run", "--n", "9", "--nu", "1", "--resolution", "9",
                        "--omega", "1e300", "--out", str(out)])
    assert code == 2
    assert not caught
    rows = read_csv(str(out))
    assert [r["status"] for r in rows] == ["diverged", "diverged"]


def test_mg_run_eigensolver_failure_exit_code(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "two_grid_factor_table", fail)
    code = run_cli(["mg-run", "--scheme", "qdr", "--n", "9", "--nu", "1",
                    "--resolution", "27", "--out", str(tmp_path / "run.csv")])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("mg-run", "compare"))
def test_direct_solve_failure_exit_code(command, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("capacitance matrix is not positive definite")

    monkeypatch.setattr(multigrid.DirectSolver, "solve_state", fail)
    code = run_cli([command, "--scheme", "qdr", "--n", "9", "--nu", "1",
                    "--resolution", "27", "--out", str(tmp_path / "run.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "not positive definite" in err


def test_compare_periodic_check_passes(tmp_path):
    out = tmp_path / "cmp.json"
    code = run_cli(["compare", "--scheme", "qdr", "--n", "9", "--nu", "1",
                    "--resolution", "27", "--format", "json", "--out", str(out)])
    assert code == 0
    report = read_json(str(out))
    check = report["periodic_check"]
    assert check["pass"] is True
    assert check["gap"] <= 1e-6
    assert check["n"] == 9


@pytest.mark.parametrize("where", ("arnoldi", "lattice"))
def test_compare_periodic_check_failure_exit_code(where, tmp_path, monkeypatch, capsys):
    # ARPACK missing its tolerance, or the lattice factor failing, is a
    # numerical failure (exit 2), not a traceback
    from scipy.sparse import linalg
    from mac3mg import twogrid

    def fail(*args, **kwargs):
        if where == "arnoldi":
            raise linalg.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])
        raise np.linalg.LinAlgError("No convergence")

    if where == "arnoldi":
        monkeypatch.setattr(linalg, "eigs", fail)
    else:
        monkeypatch.setattr(twogrid, "periodic_lattice_factor", fail)
    code = run_cli(["compare", "--scheme", "qdr", "--n", "9", "--nu", "1",
                    "--resolution", "27", "--out", str(tmp_path / "cmp.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "No convergence" in err
    assert not (tmp_path / "cmp.csv").exists()


def test_selftest_passes(tmp_path):
    out = tmp_path / "self.csv"
    assert run_cli(["selftest", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert len(rows) == 5
    assert all(r["status"] == "pass" for r in rows)
    names = {r["check"] for r in rows}
    assert "periodic-equivalence" in names and "cost-ratio" in names


def test_csv_goes_to_stdout_by_default(capsys):
    code = run_cli(["twogrid-lfa", "--scheme", "quzawa", "--transfer", "r9",
                    "--nu", "1", "--resolution", "27"])
    assert code == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and rows[0]["scheme"] == "quzawa"


def test_outputs_are_byte_reproducible(tmp_path):
    out = tmp_path / "rep.json"
    args = ["mg-run", "--scheme", "qibsr", "--n", "9", "--nu", "1",
            "--resolution", "27", "--format", "json", "--out", str(out)]
    assert run_cli(args) == 0
    first = out.read_bytes()
    assert run_cli(args) == 0
    assert out.read_bytes() == first
