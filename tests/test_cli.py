"""Command line interface: schemas, exit codes, config round trips."""

import math

import numpy as np
import pytest

from rvar import GEV, LevelRange, uni_rvar, uni_tvar, uni_var
from rvar.cli import RunConfig, main, parse_copula, parse_margin
from rvar.dependence import Gumbel, Independence
from rvar.errors import DomainError
from rvar.marginals import Exponential, GPDTail, Weibull

HEADER = "x_fixed,value,kind,alpha1,alpha2,fixed_index"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_uni_var_output(capsys):
    code, out, err = run_cli(capsys, [
        "uni", "--gev", "mu=0", "sigma=1", "xi=0.2", "--measure", "var",
        "--alpha", "0.99"])
    assert code == 0 and err == ""
    want = uni_var(GEV(0.0, 1.0, 0.2), 0.99)
    assert out.strip() == f"{want:.10g}"


def test_uni_tvar_gpd_output(capsys):
    code, out, _ = run_cli(capsys, [
        "uni", "--gpd", "u=10", "sigma=2", "xi=0.25", "zeta=0.05",
        "--measure", "tvar", "--alpha", "0.99"])
    assert code == 0
    want = uni_tvar(GPDTail(10.0, 2.0, 0.25, 0.05), 0.99)
    assert out.strip() == f"{want:.10g}"


def test_uni_rvar_output(capsys):
    code, out, _ = run_cli(capsys, [
        "uni", "--weibull", "shape=2", "scale=50", "--measure", "rvar",
        "--alpha1", "0.9", "--alpha2", "0.99"])
    assert code == 0
    want = uni_rvar(Weibull(2.0, 50.0), LevelRange(0.9, 0.99))
    assert out.strip() == f"{want:.10g}"


def test_uni_diverges_token(capsys):
    code, out, _ = run_cli(capsys, [
        "uni", "--gev", "mu=0", "sigma=1", "xi=1.2", "--measure", "tvar",
        "--alpha", "0.99"])
    assert code == 0
    assert out.strip() == "DIVERGES"


def test_uni_rejects_two_margin_families(capsys):
    code, _, err = run_cli(capsys, [
        "uni", "--gev", "mu=0", "sigma=1", "xi=0.2", "--exponential", "lam=1",
        "--measure", "var", "--alpha", "0.9"])
    assert code == 2
    assert "error:" in err


def test_domain_error_exit_code(capsys):
    # reversed levels violate the range contract
    code, _, err = run_cli(capsys, [
        "uni", "--gev", "mu=0", "sigma=1", "xi=0.2", "--measure", "rvar",
        "--alpha1", "0.99", "--alpha2", "0.9"])
    assert code == 2
    assert err.startswith("error:")
    # a non-finite parameter is a domain error, not a silent NA
    code, out, err = run_cli(capsys, [
        "uni", "--gev", "mu=0", "sigma=nan", "xi=0.2", "--measure", "var",
        "--alpha", "0.9"])
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_curve_csv_schema(capsys, tmp_path):
    out_file = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, [
        "curve", "--margin1", "weibull", "shape=2", "scale=50",
        "--margin2", "weibull", "shape=2", "scale=150",
        "--copula", "gumbel", "theta=1.5",
        "--kind", "lower_rvar", "--alpha1", "0.95", "--alpha2", "0.99",
        "--grid", "5", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[2] == "lower_rvar"
    assert first[3] == "0.95" and first[4] == "0.99" and first[5] == "1"
    # the left band edge reproduces the free quantile at alpha2
    assert float(first[1]) == pytest.approx(
        Weibull(2.0, 150.0).quantile(0.99), rel=1e-4)


def test_curve_stdout_matches_file(capsys, tmp_path):
    argv = ["curve", "--margin1", "exponential", "lam=1",
            "--margin2", "exponential", "lam=2",
            "--copula", "independence",
            "--kind", "lower_var", "--alpha1", "0.9", "--alpha2", "0.99",
            "--grid", "4"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    out_file = tmp_path / "c.csv"
    code, _, _ = run_cli(capsys, argv + ["--out", str(out_file)])
    assert code == 0
    assert out == out_file.read_text()


def _write_samples(path, rows, header="x1,x2"):
    lines = [header] + [f"{a},{b}" for a, b in rows]
    path.write_text("\n".join(lines) + "\n")


def test_empirical_command(capsys, tmp_path):
    rng = np.random.default_rng(1)
    data = rng.exponential(1.0, size=(500, 2))
    f = tmp_path / "data.csv"
    _write_samples(f, data.tolist())
    code, out, _ = run_cli(capsys, [
        "empirical", "--input", str(f), "--alpha1", "0.8", "--alpha2", "0.95",
        "--m", "20", "--grid", "10"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 11
    kinds = {ln.split(",")[2] for ln in lines[1:]}
    assert kinds == {"lower_rvar"}
    # early grid points may be infeasible and print NA; later ones are numbers
    assert lines[-1].split(",")[1] != "NA"


def test_empirical_hand_enumeration(capsys, tmp_path):
    # 4-row comonotone file, worked by hand: at x=1 the band top
    # #{x2 <= q2}/n = 0.25 does not exceed alpha1, so NA; at x=2 both
    # ladder rungs (u = 0.375, 0.5) pick the order statistic 2.0; at
    # x=3 and x=4 the rungs are u = 0.5, 0.75 picking 2.0 and 3.0
    f = tmp_path / "como4.csv"
    _write_samples(f, [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)])
    code, out, _ = run_cli(capsys, [
        "empirical", "--input", str(f), "--alpha1", "0.25", "--alpha2", "0.75",
        "--m", "2", "--grid", "4"])
    assert code == 0
    got = [ln.split(",")[:2] for ln in out.strip().splitlines()[1:]]
    assert got == [["1", "NA"], ["2", "2"], ["3", "2.5"], ["4", "2.5"]]


def test_empirical_na_rows(capsys, tmp_path):
    # tiny sample: the band degenerates at the left grid points, which
    # must print NA without aborting the rest of the curve
    f = tmp_path / "tiny.csv"
    _write_samples(f, [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)])
    code, out, _ = run_cli(capsys, [
        "empirical", "--input", str(f), "--alpha1", "0.5", "--alpha2", "0.99",
        "--m", "5", "--grid", "4"])
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert rows[0][1] == "NA"
    assert rows[-1][1] != "NA"


def test_empirical_bad_header_exit_3(capsys, tmp_path):
    f = tmp_path / "bad.csv"
    _write_samples(f, [(1.0, 2.0), (3.0, 4.0)], header="a,b")
    code, _, err = run_cli(capsys, [
        "empirical", "--input", str(f), "--alpha1", "0.8", "--alpha2", "0.95"])
    assert code == 3
    assert err.startswith("input error (line 1)")


def test_empirical_bad_row_exit_3(capsys, tmp_path):
    f = tmp_path / "bad2.csv"
    f.write_text("x1,x2\n1.0,2.0\n3.0,oops\n")
    code, _, err = run_cli(capsys, [
        "empirical", "--input", str(f), "--alpha1", "0.8", "--alpha2", "0.95"])
    assert code == 3
    assert "line 3" in err


def test_empirical_missing_file_exit_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "empirical", "--input", str(tmp_path / "nope.csv"),
        "--alpha1", "0.8", "--alpha2", "0.95"])
    assert code == 3
    assert err.startswith("input error")


def test_simulate_schema_and_seed(capsys):
    argv = ["simulate", "--margin1", "gev", "mu=0", "sigma=1", "xi=0.2",
            "--margin2", "gev", "mu=0", "sigma=1", "xi=0.2",
            "--copula", "independence",
            "--alpha1", "0.9", "--alpha2", "0.99",
            "--reps", "3", "--n", "500", "--m", "20", "--grid", "4",
            "--seed", "7"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == HEADER + ",rep_mean,rep_sd"
    assert len(lines) == 6
    row = lines[2].split(",")
    assert len(row) == 8
    assert row[2] == "lower_rvar"
    # reruns with the same seed are bit-identical
    code, out2, _ = run_cli(capsys, argv)
    assert out2 == out


def test_sensitivity_schema(capsys):
    code, out, _ = run_cli(capsys, [
        "sensitivity", "--margin1", "exponential", "lam=1",
        "--margin2", "exponential", "lam=2", "--copula", "independence",
        "--target", "lower_rvar", "--alpha1", "0.9", "--alpha2", "0.99",
        "--x-fixed", "3.0", "--z-list", "0.5,1.6,2.0,4.0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z,S,branch"
    assert len(lines) == 6
    branches = [ln.split(",")[2] for ln in lines[1:5]]
    assert branches == ["below", "middle", "middle", "above"]
    assert lines[5].startswith("bounded=true sup_abs=")


def test_sensitivity_tvar_unbounded(capsys):
    code, out, _ = run_cli(capsys, [
        "sensitivity", "--margin1", "exponential", "lam=1",
        "--margin2", "exponential", "lam=2", "--copula", "independence",
        "--target", "lower_tvar", "--alpha", "0.9",
        "--x-fixed", "3.0", "--z-min", "0.5", "--z-max", "4.0",
        "--z-count", "7"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert lines[-1] == "bounded=false sup_abs=inf"


def test_run_config_round_trip():
    cfg = RunConfig(command="curve", margin1="exponential lam=1",
                    margin2="exponential lam=2", copula="gumbel theta=1.5",
                    kind="lower_rvar", alpha1="0.9", alpha2="0.99", grid="10")
    assert RunConfig.from_text(cfg.to_text()) == cfg
    with pytest.raises(DomainError):
        RunConfig.from_text("margin1=exponential lam=1\n")  # no command
    with pytest.raises(DomainError):
        RunConfig.from_text("command=uni\nbogus_key=1\n")


def test_config_file_fills_unset_flags(capsys, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "command=uni\nmeasure=var\nalpha=0.99\n"
        "margin1=gev mu=0 sigma=1 xi=0.2\n")
    code, out, _ = run_cli(capsys, ["uni", "--config", str(cfg_file)])
    assert code == 0
    want = uni_var(GEV(0.0, 1.0, 0.2), 0.99)
    assert out.strip() == f"{want:.10g}"
    # explicit flags beat the file
    code, out, _ = run_cli(capsys, [
        "uni", "--alpha", "0.95", "--config", str(cfg_file)])
    assert code == 0
    assert out.strip() == f"{uni_var(GEV(0.0, 1.0, 0.2), 0.95):.10g}"


def test_missing_config_file_exit_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["uni", "--config", str(tmp_path / "missing.cfg")])
    assert code == 3
    assert err.startswith("input error") and "config file" in err


def test_parse_margin_and_copula():
    assert parse_margin("gev mu=1 sigma=2 xi=0.3") == GEV(1.0, 2.0, 0.3)
    assert parse_margin("exponential lam=2") == Exponential(2.0)
    assert parse_copula("gumbel theta=1.5") == Gumbel(1.5)
    assert parse_copula("independence") == Independence()
    with pytest.raises(DomainError):
        parse_margin("gev mu=1 sigma=2")  # xi missing
    with pytest.raises(DomainError):
        parse_margin("gev mu=1 sigma=2 xi=0.3 extra=1")
    with pytest.raises(DomainError):
        parse_margin("cauchy loc=0")
    with pytest.raises(DomainError):
        parse_copula("gumbel")
    with pytest.raises(DomainError):
        parse_copula("independence theta=2")
    with pytest.raises(DomainError):
        parse_margin("gev mu=a sigma=1 xi=0")


def test_formatting_is_10_significant_digits(capsys):
    code, out, _ = run_cli(capsys, [
        "uni", "--exponential", "lam=1", "--measure", "var", "--alpha",
        "0.99"])
    assert code == 0
    assert out.strip() == f"{-math.log(0.01):.10g}"


def test_uni_missing_margin_names_family_flags(capsys):
    code, _, err = run_cli(capsys, [
        "uni", "--measure", "rvar", "--alpha1", "0.95", "--alpha2", "0.99"])
    assert code == 2
    # the hint must name flags uni actually accepts, not config keys
    assert "--gev" in err and "--margin1" not in err


def test_unwritable_out_is_domain_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "sensitivity", "--margin1", "exponential", "lam=1",
        "--margin2", "exponential", "lam=2", "--copula", "independence",
        "--target", "lower_rvar", "--alpha1", "0.9", "--alpha2", "0.99",
        "--x-fixed", "3.0", "--z-list", "0.5",
        "--out", str(tmp_path / "no-such-dir" / "x.csv")])
    assert code == 2
    assert err.startswith("error:") and "--out" in err
