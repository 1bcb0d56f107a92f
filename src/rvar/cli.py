"""Command line front end.

Subcommands: uni, curve, empirical, simulate, sensitivity.  Any option can
also come from a flat key=value config file via --config; explicit flags
win.  Exit codes: 0 on success, 2 for domain or configuration problems,
3 for malformed input data or an input or config file that cannot be read.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

from .errors import ComonotonicityError, DataError, DomainError
from .marginals import (
    GEV,
    Exponential,
    GPDTail,
    LevelRange,
    Uniform,
    Weibull,
    is_divergent,
    uni_rvar,
    uni_tvar,
    uni_var,
)

if TYPE_CHECKING:
    import numpy as np

    from .dependence import BivariateModel
    from .empirical import SampleMatrix

_CSV_HEADER = "x_fixed,value,kind,alpha1,alpha2,fixed_index"


@dataclass(frozen=True)
class RunConfig:
    """Canonical, text-serializable run description (all values as strings)."""

    command: str
    margin1: str | None = None
    margin2: str | None = None
    copula: str | None = None
    measure: str | None = None
    kind: str | None = None
    target: str | None = None
    alpha: str | None = None
    alpha1: str | None = None
    alpha2: str | None = None
    m: str | None = None
    n: str | None = None
    reps: str | None = None
    grid: str | None = None
    seed: str | None = None
    fixed_index: str | None = None
    x_fixed: str | None = None
    z_list: str | None = None
    z_min: str | None = None
    z_max: str | None = None
    z_count: str | None = None
    input: str | None = None
    out: str | None = None

    def to_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            if value is not None:
                lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        kv = _parse_config(text)
        if "command" not in kv:
            raise DomainError("config text lacks a command")
        return cls(**kv)


def _parse_config(text: str) -> dict:
    """Run fields from flat key=value lines; blank lines and # comments skipped."""
    known = {f.name for f in fields(RunConfig)}
    kv = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"config line {i} is not key=value: {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in known:
            raise DomainError(f"unknown config key {key!r}")
        kv[key] = value.strip()
    return kv


def _merge_config(cfg: RunConfig, path: str) -> RunConfig:
    """Fill the fields cfg leaves unset from a config file; its command is ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open config file: {exc}", line=0)
    kv = _parse_config(text)
    kv.pop("command", None)
    return replace(cfg, **{k: v for k, v in kv.items() if getattr(cfg, k) is None})


# family -> (model class, parameter keys in constructor order)
_MARGINS = {
    "gev": (GEV, ("mu", "sigma", "xi")),
    "gpd": (GPDTail, ("u", "sigma", "xi", "zeta")),
    "weibull": (Weibull, ("shape", "scale")),
    "exponential": (Exponential, ("lam",)),
    "uniform": (Uniform, ("lo", "hi")),
}

# kind -> (name of the rvar.dependence class, parameter keys in constructor order)
_COPULAS = {
    "independence": ("Independence", ()),
    "comonotone": ("Comonotone", ()),
    "countermonotone": ("Countermonotone", ()),
    "gumbel": ("Gumbel", ("theta",)),
}


def _parse_kv(tokens):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise DomainError(f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise DomainError(f"parameter {key!r} has a non-numeric value {value!r}")
    return out


def parse_margin(spec: str):
    tokens = spec.split()
    if not tokens:
        raise DomainError("empty margin specification")
    family = tokens[0].lower()
    if family not in _MARGINS:
        raise DomainError(f"unknown margin family {family!r}")
    kv = _parse_kv(tokens[1:])
    cls, expected = _MARGINS[family]
    if set(kv) != set(expected):
        raise DomainError(
            f"{family} needs parameters {', '.join(expected)}; got {', '.join(sorted(kv)) or 'none'}"
        )
    return cls(*(kv[k] for k in expected))


def parse_copula(spec: str):
    tokens = spec.split()
    if not tokens:
        raise DomainError("empty copula specification")
    kind = tokens[0].lower()
    kv = _parse_kv(tokens[1:])
    if kind not in _COPULAS:
        raise DomainError(f"unknown copula {kind!r}")
    cls_name, expected = _COPULAS[kind]
    if set(kv) != set(expected):
        if not expected:
            raise DomainError(f"{kind} takes no parameters")
        raise DomainError(f"{kind} needs exactly {' '.join(k + '=<value>' for k in expected)}")
    from . import dependence

    return getattr(dependence, cls_name)(*(kv[k] for k in expected))


def _need(cfg: RunConfig, name: str) -> str:
    value = getattr(cfg, name)
    if value is None:
        raise DomainError(f"{cfg.command} requires --{name.replace('_', '-')}")
    return value


def _float(cfg: RunConfig, name: str) -> float:
    raw = _need(cfg, name)
    try:
        return float(raw)
    except ValueError:
        raise DomainError(f"--{name.replace('_', '-')} must be numeric, got {raw!r}")


def _int(cfg: RunConfig, name: str, default: int | None = None) -> int:
    raw = getattr(cfg, name)
    if raw is None:
        if default is None:
            raise DomainError(f"{cfg.command} requires --{name.replace('_', '-')}")
        return default
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"--{name.replace('_', '-')} must be an integer, got {raw!r}")


def _fmt(value) -> str:
    if is_divergent(value):
        return "DIVERGES"
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NA"
    return f"{value:.10g}"


def _bivariate(cfg: RunConfig) -> BivariateModel:
    from .dependence import BivariateModel

    return BivariateModel(
        parse_margin(_need(cfg, "margin1")),
        parse_margin(_need(cfg, "margin2")),
        parse_copula(_need(cfg, "copula")),
    )


def _open_out(cfg: RunConfig):
    if cfg.out is None:
        return sys.stdout, False
    try:
        return open(cfg.out, "w", encoding="utf-8"), True
    except OSError as exc:
        raise DomainError(f"cannot write --out file: {exc}")


def cmd_uni(cfg: RunConfig) -> int:
    if cfg.margin1 is None:
        flags = ", ".join(f"--{fam}" for fam in _MARGINS)
        raise DomainError(f"uni requires one margin family flag ({flags})")
    margin = parse_margin(cfg.margin1)
    measure = _need(cfg, "measure").lower()
    if measure == "var":
        value = uni_var(margin, _float(cfg, "alpha"))
    elif measure == "tvar":
        value = uni_tvar(margin, _float(cfg, "alpha"))
    elif measure == "rvar":
        value = uni_rvar(margin, LevelRange(_float(cfg, "alpha1"), _float(cfg, "alpha2")))
    else:
        raise DomainError(f"unknown measure {measure!r}; choose var, tvar or rvar")
    print(_fmt(value))
    return 0


def cmd_curve(cfg: RunConfig) -> int:
    from .orthant import orthant_curve

    b = _bivariate(cfg)
    kind = _need(cfg, "kind")
    levels = LevelRange(_float(cfg, "alpha1"), _float(cfg, "alpha2"))
    grid = _int(cfg, "grid", 200)
    fixed_index = _int(cfg, "fixed_index", 1)
    curve = orthant_curve(b, kind, levels, fixed_index=fixed_index, grid=grid)
    stream, close = _open_out(cfg)
    try:
        stream.write(_CSV_HEADER + "\n")
        for x, val in zip(curve.x_fixed, curve.values):
            stream.write(
                f"{x:.10g},{_fmt(val)},{kind},{levels.alpha1:.10g},"
                f"{levels.alpha2:.10g},{fixed_index}\n"
            )
    finally:
        if close:
            stream.close()
    return 0


def _parse_rows(body: str, d: int) -> np.ndarray:
    """Cell-by-cell parse of the data rows, naming the first bad line."""
    import numpy as np

    data = []
    for i, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != d:
            raise DataError(f"expected {d} columns, got {len(row)}", line=i)
        try:
            data.append([float(c) for c in row])
        except ValueError:
            raise DataError(f"non-numeric entry in row: {row}", line=i)
    return np.array(data, dtype=float).reshape(len(data), d)


def read_samples(path: str) -> SampleMatrix:
    import numpy as np

    from .empirical import SampleMatrix

    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open input file: {exc}", line=0)
    with fh:
        header = next(csv.reader(fh), None)
        body = fh.read()
    if header is None:
        raise DataError("input file is empty", line=1)
    header = [c.strip() for c in header]
    if len(header) < 2 or header != [f"x{i}" for i in range(1, len(header) + 1)]:
        raise DataError(
            "header must be x1,x2[,...] matching the column count", line=1
        )
    d = len(header)
    data = None
    if body.strip():
        # numpy rejects every row the cell loop would, and a few it accepts
        # (quoted cells, all-empty rows, digit underscores), so the loop
        # runs only after a rejection, to name the line or read those forms
        try:
            data = np.loadtxt(io.StringIO(body, newline=""), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if data is None or data.shape[1] != d:
        data = _parse_rows(body, d)
    try:
        return SampleMatrix(data)
    except DomainError as exc:
        raise DataError(str(exc), line=0)


def cmd_empirical(cfg: RunConfig) -> int:
    import numpy as np

    from .empirical import (
        EstimatorConfig,
        emp_lower_rvar_curve,
        emp_upper_rvar_curve,
        marginal_quantile,
    )

    s = read_samples(_need(cfg, "input"))
    if s.d != 2:
        raise DomainError("the empirical command handles two-column data")
    kind = cfg.kind or "lower_rvar"
    if kind not in ("lower_rvar", "upper_rvar"):
        raise DomainError(f"empirical kind must be lower_rvar or upper_rvar, got {kind!r}")
    levels = LevelRange(_float(cfg, "alpha1"), _float(cfg, "alpha2"))
    est = EstimatorConfig(_int(cfg, "m", 100), levels)
    grid_n = _int(cfg, "grid", 200)
    fixed_index = _int(cfg, "fixed_index", 1)
    if fixed_index not in (1, 2):
        raise DomainError(f"fixed_index must be 1 or 2, got {fixed_index}")
    free_index = 2 if fixed_index == 1 else 1
    col = s.data[:, fixed_index - 1]
    if kind == "lower_rvar":
        lo = marginal_quantile(s, fixed_index, levels.alpha1)
        hi = float(np.max(col))
    else:
        lo = float(np.min(col))
        hi = marginal_quantile(s, fixed_index, min(levels.alpha2, 1.0))
    if not hi > lo:
        raise DomainError("degenerate fixed-coordinate range in the data")
    xs = np.linspace(lo, hi, grid_n)
    estimate = emp_lower_rvar_curve if kind == "lower_rvar" else emp_upper_rvar_curve
    curve = estimate(s, est, xs, free_index)
    stream, close = _open_out(cfg)
    try:
        stream.write(_CSV_HEADER + "\n")
        for x, val, err in zip(xs, curve.values, curve.errors):
            val = None if err is not None else float(val)
            stream.write(
                f"{x:.10g},{_fmt(val)},{kind},{levels.alpha1:.10g},"
                f"{levels.alpha2:.10g},{fixed_index}\n"
            )
    finally:
        if close:
            stream.close()
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    import numpy as np

    from .empirical import EstimatorConfig, consistency_experiment
    from .orthant import _margins, lower_var

    b = _bivariate(cfg)
    levels = LevelRange(_float(cfg, "alpha1"), _float(cfg, "alpha2"))
    if levels.alpha2 >= 1.0:
        raise DomainError("simulate needs alpha2 below 1")
    est = EstimatorConfig(_int(cfg, "m", 100), levels)
    reps = _int(cfg, "reps", 20)
    n = _int(cfg, "n", 2000)
    grid_n = _int(cfg, "grid", 21)
    fixed_index = _int(cfg, "fixed_index", 1)
    seed = _int(cfg, "seed", 20240817)
    fixed_m, free_m = _margins(b, fixed_index)
    band_lo = lower_var(b, levels.alpha1, free_m.quantile(levels.alpha2),
                        fixed_index=2 if fixed_index == 1 else 1)
    band_hi = fixed_m.quantile(1.0 - 1e-6)
    span = band_hi - band_lo
    xs = np.linspace(band_lo + 0.1 * span, band_hi - 0.1 * span, grid_n)
    report = consistency_experiment(b, reps, n, est, xs, fixed_index=fixed_index, seed=seed)
    stream, close = _open_out(cfg)
    try:
        stream.write(f"# seed={seed}\n")
        stream.write(_CSV_HEADER + ",rep_mean,rep_sd\n")
        for gi, x in enumerate(report.grid):
            theo = report.theoretical[gi]
            mean_dev = report.mean_dev[gi]
            rep_mean = None if math.isnan(mean_dev) else theo + mean_dev
            rep_sd = None if math.isnan(report.sd_dev[gi]) else report.sd_dev[gi]
            stream.write(
                f"{x:.10g},{_fmt(theo)},lower_rvar,{levels.alpha1:.10g},"
                f"{levels.alpha2:.10g},{fixed_index},{_fmt(rep_mean)},{_fmt(rep_sd)}\n"
            )
    finally:
        if close:
            stream.close()
    return 0


def cmd_sensitivity(cfg: RunConfig) -> int:
    import numpy as np

    from .robustness import branch_label, sensitivity_profile

    b = _bivariate(cfg)
    target = _need(cfg, "target")
    x_fixed = _float(cfg, "x_fixed")
    fixed_index = _int(cfg, "fixed_index", 1)
    alpha = None if cfg.alpha is None else _float(cfg, "alpha")
    levels = None
    if cfg.alpha1 is not None and cfg.alpha2 is not None:
        levels = LevelRange(_float(cfg, "alpha1"), _float(cfg, "alpha2"))
    if cfg.z_list is not None:
        try:
            z_grid = np.array([float(t) for t in cfg.z_list.split(",") if t.strip()])
        except ValueError:
            raise DomainError(f"--z-list must be comma-separated numbers, got {cfg.z_list!r}")
        if z_grid.size == 0:
            raise DomainError("--z-list is empty")
    elif cfg.z_min is not None and cfg.z_max is not None:
        z_grid = np.linspace(_float(cfg, "z_min"), _float(cfg, "z_max"), _int(cfg, "z_count", 101))
    else:
        z_grid = None
    profile = sensitivity_profile(
        b, target, x_fixed, alpha=alpha, levels=levels, z_grid=z_grid, fixed_index=fixed_index
    )
    stream, close = _open_out(cfg)
    try:
        stream.write("z,S,branch\n")
        for z, val in zip(profile.z_grid, profile.values):
            label = branch_label(target, float(z), profile.breakpoints)
            stream.write(f"{z:.10g},{val:.10g},{label}\n")
        bounded = "true" if profile.bounded else "false"
        sup = "inf" if math.isinf(profile.sup_abs) else f"{profile.sup_abs:.10g}"
        stream.write(f"bounded={bounded} sup_abs={sup}\n")
    finally:
        if close:
            stream.close()
    return 0


def _add_flags(p: argparse.ArgumentParser, margins: str | None, options: str) -> None:
    """Margin flags ("single" for uni, "pair" for the bivariate commands), then --options."""
    if margins == "single":
        for fam in _MARGINS:
            p.add_argument(f"--{fam}", nargs="+", metavar="K=V")
    elif margins == "pair":
        for name in ("margin1", "margin2", "copula"):
            p.add_argument(f"--{name}", nargs="+", metavar="TOK")
    for name in options.split():
        if name == "measure":
            p.add_argument("--measure", choices=["var", "tvar", "rvar"])
        else:
            p.add_argument(f"--{name}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvar", description="Range value at risk calculations"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_flags(sub.add_parser("uni", help="univariate measures"), "single",
               "measure alpha alpha1 alpha2 config")
    _add_flags(sub.add_parser("curve", help="orthant measure curves"), "pair",
               "kind alpha1 alpha2 grid fixed-index out config")
    _add_flags(sub.add_parser("empirical", help="estimators on CSV data"), None,
               "input kind alpha1 alpha2 m grid fixed-index out config")
    _add_flags(sub.add_parser("simulate", help="estimator consistency experiment"), "pair",
               "reps n m alpha1 alpha2 grid fixed-index seed out config")
    _add_flags(sub.add_parser("sensitivity", help="contamination sensitivity curves"), "pair",
               "target alpha alpha1 alpha2 x-fixed fixed-index z-list z-min z-max z-count out config")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    kv = {"command": args.command}
    if args.command == "uni":
        chosen = []
        for fam in _MARGINS:
            tokens = getattr(args, fam, None)
            if tokens is not None:
                chosen.append(f"{fam} " + " ".join(tokens) if tokens else fam)
        if len(chosen) > 1:
            raise DomainError("give exactly one margin family flag")
        if chosen:
            kv["margin1"] = chosen[0].strip()
    else:
        for name in ("margin1", "margin2", "copula"):
            tokens = getattr(args, name, None)
            if tokens is not None:
                kv[name] = " ".join(tokens)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if f.name not in kv and value is not None:  # margins and copula are joined above
            kv[f.name] = value
    cfg = RunConfig(**kv)
    if getattr(args, "config", None):
        cfg = _merge_config(cfg, args.config)
    return cfg


_DISPATCH = {
    "uni": cmd_uni,
    "curve": cmd_curve,
    "empirical": cmd_empirical,
    "simulate": cmd_simulate,
    "sensitivity": cmd_sensitivity,
}


def run(cfg: RunConfig) -> int:
    if cfg.command not in _DISPATCH:
        raise DomainError(f"unknown command {cfg.command!r}")
    return _DISPATCH[cfg.command](cfg)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except DataError as exc:
        print(f"input error (line {exc.line}): {exc}", file=sys.stderr)
        return 3
    except (DomainError, ComonotonicityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
