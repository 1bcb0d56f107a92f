"""Command line interface: schemas, exit codes, config round trips."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rvar
from rvar import GEV, LevelRange, uni_rvar, uni_tvar, uni_var
from rvar.cli import RunConfig, main, parse_copula, parse_margin, read_samples
from rvar.dependence import Gumbel, Independence
from rvar.errors import DataError, DomainError
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
    # so is a non-finite conditioning point, and the message names it
    code, out, err = run_cli(capsys, [
        "sensitivity", "--margin1", "exponential", "lam=1",
        "--margin2", "exponential", "lam=2", "--copula", "independence",
        "--target", "lower_rvar", "--alpha1", "0.9", "--alpha2", "0.99",
        "--x-fixed", "nan"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "x_fixed" in err


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


@pytest.mark.parametrize("kind", ["lower_rvar", "upper_rvar"])
@pytest.mark.parametrize("fixed_index", [1, 2])
def test_empirical_rows_match_per_point_estimates(capsys, tmp_path, kind, fixed_index):
    # rounded data: ties everywhere, grid points on data values, NA rows at the band ends
    rng = np.random.default_rng(12)
    data = np.round(rng.exponential(1.0, size=(300, 2)) + [0.0, 0.5], 1)
    f = tmp_path / "ties.csv"
    _write_samples(f, data.tolist())
    code, out, _ = run_cli(capsys, [
        "empirical", "--input", str(f), "--kind", kind, "--alpha1", "0.6", "--alpha2", "0.95",
        "--m", "30", "--grid", "41", "--fixed-index", str(fixed_index)])
    assert code == 0
    s = rvar.SampleMatrix(data)
    cfg = rvar.EstimatorConfig(30, LevelRange(0.6, 0.95))
    col = data[:, fixed_index - 1]
    if kind == "lower_rvar":
        estimate = rvar.emp_lower_rvar
        xs = np.linspace(rvar.marginal_quantile(s, fixed_index, 0.6), col.max(), 41)
    else:
        estimate = rvar.emp_upper_rvar
        xs = np.linspace(col.min(), rvar.marginal_quantile(s, fixed_index, 0.95), 41)
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == [f"{x:.10g}" for x in xs]
    na = 0
    for x, row in zip(xs, rows):
        try:
            want = f"{estimate(s, cfg, float(x), 3 - fixed_index):.10g}"
        except DomainError:
            want, na = "NA", na + 1
        assert row[1] == want
    assert 0 < na < len(rows)


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


@pytest.mark.parametrize("text, want", [
    ("\ufeffx1,x2\r\n1.5,2\r\n3,4\r\n", [[1.5, 2.0], [3.0, 4.0]]),
    ("x1,x2\n1,2\n\n , \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    # forms numpy rejects and the cell loop reads
    ('x1,x2\n"1",2\n1_0,2\n', [[1.0, 2.0], [10.0, 2.0]]),
    ("", ("input file is empty", 1)),
    ("x1,x2\n", ("sample matrix needs n >= 2 and d >= 2, got (0, 2)", 0)),
    ("x1,x2\n1,2\n3\n", ("expected 2 columns, got 1", 3)),
    ("x1,x2\n1,2,\n", ("expected 2 columns, got 3", 2)),
    ("x1,x2\n1,2\n\n3,oops\n", ("non-numeric entry in row: ['3', 'oops']", 4)),
    ("x1,x2\n1,2 # c\n", ("non-numeric entry in row: ['1', '2 # c']", 2)),
    ("x1,x2\n1,2\nnan,3\n", ("sample matrix contains missing or non-finite values", 0)),
])
def test_read_samples_rows_and_errors(tmp_path, text, want):
    f = tmp_path / "s.csv"
    f.write_bytes(text.encode("utf-8"))
    if isinstance(want, list):
        assert read_samples(str(f)).data.tolist() == want
    else:
        with pytest.raises(DataError) as exc:
            read_samples(str(f))
        assert (str(exc.value), exc.value.line) == want


def test_empirical_missing_file_exit_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "empirical", "--input", str(tmp_path / "nope.csv"),
        "--alpha1", "0.8", "--alpha2", "0.95"])
    assert code == 3
    assert err.startswith("input error")


@pytest.mark.parametrize("fixed_index", ["0", "3"])
def test_empirical_fixed_index_out_of_range_exit_2(capsys, tmp_path, fixed_index):
    # index 3 of two-column data once ended in an IndexError traceback
    f = tmp_path / "d.csv"
    _write_samples(f, [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    code, out, err = run_cli(capsys, [
        "empirical", "--input", str(f), "--kind", "upper_rvar", "--alpha1", "0.5",
        "--alpha2", "0.9", "--fixed-index", fixed_index])
    assert code == 2 and out == ""
    assert "fixed_index must be 1 or 2" in err


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


def test_sensitivity_on_data_in_large_units(capsys):
    # the README model in units 1e9 times larger; a density by finite
    # differences read ~8e-13 here and was refused as numerically zero
    code, out, _ = run_cli(capsys, [
        "sensitivity", "--margin1", "weibull", "shape=2", "scale=50e9",
        "--margin2", "weibull", "shape=2", "scale=150e9", "--copula", "gumbel", "theta=1.5",
        "--target", "lower_var", "--alpha", "0.9", "--x-fixed", "80e9",
        "--z-list", "20e9,120e9"])
    assert code == 0
    lines = out.strip().splitlines()
    assert [ln.split(",")[1] for ln in lines[1:3]] == ["-3.032267229e+10"] * 2


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


@pytest.mark.parametrize("theta", ["300", "500"])
def test_curve_near_comonotone_gumbel(capsys, theta):
    # the Gumbel generator sum once underflowed at theta=300 (a band mean
    # below VaR_0.95 of the free margin) and overflowed at theta=500
    code, out, err = run_cli(capsys, [
        "curve", "--margin1", "weibull", "shape=2", "scale=50",
        "--margin2", "weibull", "shape=2", "scale=150", "--copula", "gumbel",
        f"theta={theta}", "--kind", "lower_rvar", "--alpha1", "0.95",
        "--alpha2", "0.99", "--grid", "5"])
    assert code in (0, 2) and "Traceback" not in err
    if code == 0:
        values = [float(ln.split(",")[1]) for ln in out.strip().splitlines()[1:]]
        assert min(values) >= uni_var(Weibull(2.0, 150.0), 0.95)


def test_curve_heavy_tail_lower_tvar_prints_the_closed_form(capsys):
    # the tail cut-off at level 1 - e^-40 once printed 157.5964896 at
    # x = 93042.4, where the closed form is 163.2563808
    g = GEV(0.0, 1.0, 0.9)
    code, out, err = run_cli(capsys, [
        "curve", "--margin1", "gev", "mu=0", "sigma=1", "xi=0.9", "--margin2", "gev",
        "mu=0", "sigma=1", "xi=0.9", "--copula", "independence", "--kind", "lower_tvar",
        "--alpha1", "0.95", "--alpha2", "1", "--grid", "4"])
    assert code == 0 and err == ""
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert len(rows) == 4
    b = rvar.BivariateModel(g, g, Independence())
    curve = rvar.orthant_curve(b, "lower_tvar", LevelRange(0.95, 1.0), grid=4)
    for row, x in zip(rows, curve.x_fixed):
        want = rvar.closed_lower_rvar_gev_indep(b, LevelRange(0.95, 1.0), float(x))
        assert row[0] == f"{x:.10g}" and row[1] == f"{want:.10g}"


_IMPORT_PROBE = """
import contextlib, io, json, sys
import rvar, rvar.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {{"import rvar": loaded()}}
with contextlib.redirect_stdout(io.StringIO()):
    rvar.cli.main(["uni", "--gpd", "u=10", "sigma=2", "xi=0.25", "zeta=0.05",
                   "--measure", "tvar", "--alpha", "0.99"])
    rvar.cli.main(["empirical", "--input", {csv!r}, "--alpha1", "0.8",
                   "--alpha2", "0.95", "--m", "20", "--grid", "5"])
    seen["uni --gpd, empirical"] = loaded()
    rvar.cli.main(["curve", *{model!r}, "--kind", "lower_rvar", "--alpha1", "0.95",
                   "--alpha2", "0.99", "--grid", "3"])
    rvar.cli.main(["sensitivity", *{model!r}, "--target", "lower_rvar",
                   "--alpha1", "0.95", "--alpha2", "0.99", "--x-fixed", "150"])
    seen["curve, sensitivity"] = loaded()
    rvar.cli.main(["uni", "--weibull", "shape=2", "scale=50", "--measure", "tvar",
                   "--alpha", "0.95"])
    seen["uni --weibull tvar"] = loaded()
    rvar.cli.main(["uni", "--gev", "mu=0", "sigma=1", "xi=0.2", "--measure", "rvar",
                   "--alpha1", "0.95", "--alpha2", "0.99"])
    seen["uni --gev rvar"] = loaded()
    rvar.cli.main(["simulate", *{gev_model!r}, "--reps", "2", "--n", "300",
                   "--alpha1", "0.9", "--alpha2", "0.99", "--grid", "3", "--seed", "1"])
    seen["simulate, independent GEV"] = loaded()
    comps = [rvar.BivariateModel(rvar.Exponential(lam), rvar.Exponential(lam), rvar.Comonotone())
             for lam in (1.0, 2.0)]
    rvar.comonotonic_aggregate_rvar(comps, rvar.LevelRange(0.9, 0.99), 6.0)
    seen["comonotonic_aggregate_rvar"] = loaded()
print(json.dumps(seen))
"""

_GEV_INDEP = ["--margin1", "gev", "mu=0", "sigma=1", "xi=0.2", "--margin2", "gev", "mu=0",
              "sigma=1", "xi=0.2", "--copula", "independence"]
_README_MODEL = ["--margin1", "weibull", "shape=2", "scale=50", "--margin2", "weibull",
                 "shape=2", "scale=150", "--copula", "gumbel", "theta=1.5"]


def _child_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(rvar.__file__)))
    return dict(os.environ, PYTHONPATH=src)


@pytest.mark.parametrize("argv", [
    ["uni", "--weibull", "shape=0.001", "scale=1", "--measure", "rvar",
     "--alpha1", "0.5", "--alpha2", "0.9"],
    ["uni", "--weibull", "shape=0.001", "scale=1", "--measure", "var", "--alpha", "0.9"],
    ["uni", "--gev", "mu=0", "sigma=1", "xi=-500", "--measure", "rvar",
     "--alpha1", "0.01", "--alpha2", "0.99"],
])
def test_out_of_range_results_exit_2_without_traceback(argv):
    # these once ended in an OverflowError traceback (exit 1)
    proc = subprocess.run([sys.executable, "-m", "rvar.cli", *argv], capture_output=True,
                          text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_very_negative_gev_shape_prints_a_number(capsys):
    # the band mean is 0.005 (mpmath); it once printed NA
    code, out, err = run_cli(capsys, [
        "uni", "--gev", "mu=0", "sigma=1", "xi=-200", "--measure", "rvar",
        "--alpha1", "0.5", "--alpha2", "0.9"])
    assert code == 0 and err == "" and out.strip() == "0.005"


def test_subcommands_load_only_the_scipy_parts_they_use(tmp_path):
    # a fresh interpreter: the test process itself has scipy loaded
    f = tmp_path / "data.csv"
    _write_samples(f, np.random.default_rng(3).exponential(1.0, size=(200, 2)).tolist())
    probe = _IMPORT_PROBE.format(csv=str(f), model=_README_MODEL, gev_model=_GEV_INDEP)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert list(seen) == [
        "import rvar", "uni --gpd, empirical", "curve, sensitivity", "uni --weibull tvar",
        "uni --gev rvar", "simulate, independent GEV", "comonotonic_aggregate_rvar",
    ]
    assert seen == {point: [] for point in seen}


# a child whose import system refuses scipy outright, then runs a script
_NO_SCIPY = """
import runpy, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is not a runtime dependency: import {{name}}")
        return None

sys.meta_path.insert(0, NoScipy())
{body}
"""

_CLI_RUNS = """
import contextlib, io
import rvar.cli

for argv in {runs!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rvar.cli.main(argv)
    assert code == 0 and out.getvalue(), (argv, code)
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    f = tmp_path / "data.csv"
    _write_samples(f, np.random.default_rng(4).exponential(1.0, size=(300, 2)).tolist())
    band = ["--alpha1", "0.9", "--alpha2", "0.99"]
    runs = [
        ["uni", "--gev", "mu=0", "sigma=1", "xi=0.2", "--measure", "rvar", *band],
        ["uni", "--gev", "mu=0", "sigma=1", "xi=0", "--measure", "rvar", *band],
        ["uni", "--gev", "mu=0", "sigma=1", "xi=1.2", "--measure", "rvar", *band],
        ["uni", "--gev", "mu=0", "sigma=1", "xi=-0.3", "--measure", "tvar", "--alpha", "0.9"],
        ["uni", "--weibull", "shape=2", "scale=50", "--measure", "tvar", "--alpha", "0.95"],
        ["uni", "--weibull", "shape=0.01", "scale=1", "--measure", "rvar", *band],
        ["uni", "--exponential", "lam=2", "--measure", "rvar", *band],
        ["uni", "--gpd", "u=10", "sigma=2", "xi=0.25", "zeta=0.05", "--measure", "tvar",
         "--alpha", "0.99"],
        ["curve", *_README_MODEL, "--kind", "lower_rvar", "--alpha1", "0.95", "--alpha2",
         "0.99", "--grid", "3"],
        ["curve", *_GEV_INDEP, "--kind", "upper_rvar", *band, "--grid", "3"],
        ["empirical", "--input", str(f), *band, "--m", "20", "--grid", "5"],
        ["sensitivity", *_README_MODEL, "--target", "lower_rvar", "--alpha1", "0.95",
         "--alpha2", "0.99", "--x-fixed", "150"],
        ["simulate", *_GEV_INDEP, "--reps", "2", "--n", "300", *band, "--grid", "3",
         "--seed", "1"],
    ]
    script = _NO_SCIPY.format(body=_CLI_RUNS.format(runs=runs))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr


_DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("demo", sorted(d for d in os.listdir(_DEMOS) if d.endswith(".py")))
def test_demo_runs_without_scipy(demo):
    body = f"runpy.run_path({os.path.join(_DEMOS, demo)!r}, run_name='__main__')"
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY.format(body=body)],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


# the five univariate queries of the cli_batch benchmark, with their exit codes
_UNI_QUERIES = [
    (0, ["uni", "--gev", "mu=0", "sigma=1", "xi=0.2", "--measure", "rvar",
         "--alpha1", "0.95", "--alpha2", "0.99"]),
    (0, ["uni", "--gpd", "u=10", "sigma=2", "xi=0.25", "zeta=0.05", "--measure", "tvar",
         "--alpha", "0.98"]),
    (0, ["uni", "--weibull", "shape=2", "scale=50", "--measure", "tvar", "--alpha", "0.93"]),
    (0, ["uni", "--gev", "mu=0", "sigma=1", "xi=1.2", "--measure", "tvar", "--alpha", "0.99"]),
    (2, ["uni", "--gev", "mu=0", "sigma=1", "xi=0.2", "--measure", "var", "--alpha", "1.5"]),
]

# each query as ``python -m rvar.cli`` would run it, in one fresh interpreter
_UNI_PROBE = """
import contextlib, io, json, runpy, sys
import rvar, rvar.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "numpy"
                  or m in ("rvar.dependence", "rvar.empirical", "rvar.orthant", "rvar.robustness"))

seen = {{"import rvar, rvar.cli": loaded()}}
codes = []
for _, argv in {queries!r}:
    sys.argv = ["rvar", *argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("rvar.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            codes.append(exc.code)
    seen[" ".join(argv)] = loaded()
print(json.dumps({{"seen": seen, "codes": codes}}))
"""


def test_uni_queries_load_no_numpy():
    # a fresh interpreter: the test process itself has every layer loaded
    probe = _UNI_PROBE.format(queries=_UNI_QUERIES)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [want for want, _ in _UNI_QUERIES]
    assert len(got["seen"]) == 1 + len(_UNI_QUERIES)
    assert got["seen"] == {point: [] for point in got["seen"]}


# resolves every exported name in a fresh interpreter, by getattr or by a star import
_EXPORT_PROBE = """
import json, sys
import rvar

names = rvar.__all__
report = {{"missing from dir": sorted(set(names) - set(dir(rvar)))}}
if {star!r}:
    space = {{}}
    exec("from rvar import *", space)
    report["unbound"] = sorted(set(names) - set(space))
    values = {{name: space[name] for name in names if name in space}}
else:
    values = {{name: getattr(rvar, name) for name in names}}
homes = [m for n, m in list(sys.modules.items()) if n.startswith("rvar.")]
report["not the defining module's value"] = sorted(
    name for name, value in values.items() if not any(vars(m).get(name) is value for m in homes))
report["unknown name resolves"] = hasattr(rvar, "no_such_name")
print(json.dumps(report))
"""


@pytest.mark.parametrize("star", [False, True], ids=["getattr", "star-import"])
def test_lazy_exports_resolve_every_name(star):
    proc = subprocess.run([sys.executable, "-c", _EXPORT_PROBE.format(star=star)],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert not any(report.values()), report


def test_weibull_far_above_its_scale_ends_without_traceback():
    # (x / scale)^shape overflowed in Weibull.cdf: exit 1 with an OverflowError
    argv = ["sensitivity", "--margin1", "weibull", "shape=1000", "scale=1", "--margin2",
            "exponential", "lam=1", "--copula", "independence", "--target", "lower_var",
            "--alpha", "0.5", "--x-fixed", "10"]
    proc = subprocess.run([sys.executable, "-m", "rvar.cli", *argv], capture_output=True,
                          text=True, env=_child_env(), timeout=60)
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr
