"""The three benchmark workloads: inputs from a seed, tasks, output checks.

Each workload builds its inputs in ``__init__`` (the set-up the benchmark
times), exposes a fixed ``rotation`` of task specs that the closed loop
cycles through, runs one spec with ``run`` and judges every recorded
output in ``check`` after the timed loop.  ``run`` returns the output and
the number of measure values it produced.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from checks import Checker, bf_lower_rvar, bf_upper_rvar, binomial_ok, parse_float

# tolerances: closed forms and oracles agree with quadrature far below
# these; the looser closed-form tolerance admits the known ~1e-5 relative
# error of lower_rvar at lam=1e6, which err_digits reports instead
TOL_CLOSED = 1e-4
TOL_ORACLE = 1e-6
TOL_EXACT = 1e-12
TOL_PRINTED = 1e-9  # CLI prints 10 significant digits

README_LEVELS = (0.95, 0.99)
EMP_LEVELS = (0.9, 0.99)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``smoke`` shrinks every workload to a quick pass."""

    curve_grid: int = 20
    exp_small_n: int = 2_000
    exp_small_reps: int = 20
    exp_big_n: int = 200_000
    exp_big_reps: int = 2
    exp_grid: int = 50
    emp_m: int = 250
    gumbel_n: int = 50_000
    gumbel_grid: int = 50
    cli_csv_rows: int = 20_000
    cli_curve_grid: int = 20
    cli_emp_grid: int = 200
    cli_sim_reps: int = 20
    cli_sim_n: int = 2_000
    cli_sim_grid: int = 11
    setup_repeats: int = 5  # fresh processes, import rvar to warm-up done
    csv_repeats: int = 15  # cli_batch set-up: rewrites of the input csv
    oracle_points: int = 6


SMOKE = Sizes(
    curve_grid=4, exp_small_n=500, exp_small_reps=2, exp_big_n=5_000, exp_big_reps=2,
    exp_grid=6, emp_m=50, gumbel_n=2_000, gumbel_grid=5, cli_csv_rows=500,
    cli_curve_grid=4, cli_emp_grid=10, cli_sim_reps=2, cli_sim_n=300, cli_sim_grid=3,
    setup_repeats=2, csv_repeats=2, oracle_points=2,
)


def _import_oracles(root: str):
    tests = os.path.join(root, "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import _oracles

    return _oracles


def _pick(rng: random.Random, items: list, k: int) -> list:
    return rng.sample(items, min(k, len(items)))


# ---------------------------------------------------------------------------
class OrthantSweep:
    """Orthant curves and sensitivity profiles, all in-process."""

    README_KINDS = ("lower_var", "upper_var", "lower_rvar", "upper_rvar", "lower_tvar")

    def __init__(self, root: str, seed: int, sizes: Sizes):
        import rvar

        self.rv = rvar
        self.orc = _import_oracles(root)
        self.sizes = sizes
        self.seed = seed
        rng = random.Random(seed)
        self.levels = rvar.LevelRange(*README_LEVELS)
        self.models = {"readme": rvar.BivariateModel(
            rvar.Weibull(2.0, 50.0), rvar.Weibull(2.0, 150.0), rvar.Gumbel(1.5))}
        copulas = {"pi": rvar.Independence(), "m": rvar.Comonotone(), "w": rvar.Countermonotone()}
        gev = rvar.GEV(0.0, 1.0, 0.2)
        self.models["gev"] = rvar.BivariateModel(gev, gev, rvar.Independence())
        specs = [("curve", "readme", kind) for kind in self.README_KINDS]
        for lam in (1.0, 1e6):
            for key, cop in copulas.items():
                mkey = f"exp-{key}-{lam:g}"
                self.models[mkey] = rvar.BivariateModel(
                    rvar.Exponential(lam), rvar.Exponential(lam), cop)
                specs.append(("curve", mkey, "lower_rvar"))
        specs += [("curve", "gev", "lower_rvar"), ("curve", "gev", "upper_rvar")]
        w1 = self.models["readme"].margin1
        specs.append(("sens", "lower_rvar", w1.quantile(rng.uniform(0.97, 0.995))))
        specs.append(("sens", "upper_rvar", w1.quantile(rng.uniform(0.3, 0.8))))
        self.warmup = ("curve", "readme", "lower_rvar")
        rng.shuffle(specs)
        self.rotation = specs

    def run(self, spec, rnd: int, task_id: int, tracer=None):
        rv = self.rv
        if spec[0] == "curve":
            _, mkey, kind = spec
            curve = rv.orthant_curve(self.models[mkey], kind, self.levels, grid=self.sizes.curve_grid)
            return curve, len(curve.values)
        _, target, x = spec
        prof = rv.sensitivity_profile(self.models["readme"], target, x, levels=self.levels)
        return prof, len(prof.values)

    # -- checks -----------------------------------------------------------
    def check(self, results, chk: Checker) -> None:
        rv, orc = self.rv, self.orc
        rng = random.Random(self.seed + 1)
        a1, a2 = README_LEVELS
        by_spec: dict = {}
        for res in results:
            if res.out is not None:
                by_spec.setdefault(res.spec, []).append(res)
        for spec, group in by_spec.items():
            for res in group:
                if res.spec[0] == "curve":
                    for v in res.out.values:
                        chk.expect(res.task_id, not rv.is_divergent(v) and math.isfinite(v),
                                   f"{spec}: non-finite value {v!r}")
                else:
                    chk.expect(res.task_id, bool(np.all(np.isfinite(res.out.values))),
                               f"{spec}: non-finite sensitivity")
            if spec[0] == "curve" and spec[1] != "readme":
                self._check_closed(spec, group, chk)
        # seeded subset of Gumbel points against the root+quadrature oracles
        f1 = lambda x: -math.expm1(-((x / 50.0) ** 2))
        f2 = lambda y: -math.expm1(-((y / 150.0) ** 2))
        q2 = lambda p: orc.weibull_quantile(2.0, 150.0, p)
        cop = lambda u, v: orc.gumbel_cdf(u, v, 1.5)
        for kind in self.README_KINDS:
            group = by_spec.get(("curve", "readme", kind), [])
            cells = [(r, i) for r in group for i in range(len(r.out.values))]
            for res, i in _pick(rng, cells, self.sizes.oracle_points):
                x, got = float(res.out.x_fixed[i]), res.out.values[i]
                if kind == "lower_var":
                    want = orc.root_lower_var(cop, f1(x), f2, a1, 0.0, 1e4)
                elif kind == "upper_var":
                    want = orc.root_upper_var(cop, f1(x), f2, a2, 0.0, 1e4)
                elif kind == "lower_rvar":
                    want = orc.orthant_lower_rvar(cop, f1(x), f2, a1, a2, q2, 0.0, 1e4)
                elif kind == "upper_rvar":
                    want = orc.orthant_upper_rvar(cop, f1(x), f2, a1, a2, q2, 0.0, 1e4)
                else:
                    want = orc.orthant_lower_rvar(cop, f1(x), f2, a1, 1.0, q2, 0.0, 1e4)
                chk.compare(res.task_id, got, want, TOL_ORACLE, f"{kind} at x={x!r} vs oracle")
        for target in ("lower_rvar", "upper_rvar"):
            group = [r for s, g in by_spec.items() if s[0] == "sens" and s[1] == target for r in g]
            for res in _pick(rng, group, 2):
                self._check_sensitivity(res, target, chk, rng, f1, f2, q2, cop)

    def _check_closed(self, spec, group, chk: Checker) -> None:
        rv = self.rv
        _, mkey, kind = spec
        b = self.models[mkey]
        for res in group:
            for x, got in zip(res.out.x_fixed, res.out.values):
                if mkey.startswith("exp-"):
                    want = rv.closed_lower_rvar_exponential(b, self.levels, float(x))
                elif kind == "lower_rvar":
                    want = rv.closed_lower_rvar_gev_indep(b, self.levels, float(x))
                else:
                    want = rv.closed_upper_rvar_gev_indep(b, self.levels, float(x))
                chk.compare(res.task_id, got, want, TOL_CLOSED, f"{spec} at x={float(x)!r} vs closed form")

    def _check_sensitivity(self, res, target, chk, rng, f1, f2, q2, cop) -> None:
        """Piecewise influence function rebuilt from oracle roots and integrals."""
        orc = self.orc
        a1, a2 = README_LEVELS
        x = res.spec[2]
        af = f1(x)
        if target == "lower_rvar":
            lv = orc.root_lower_var(cop, af, f2, a1, 0.0, 1e4)
            top = q2(a2)
            b_top = cop(af, a2)
            measure = orc.orthant_lower_rvar(cop, af, f2, a1, a2, q2, 0.0, 1e4)
            width = b_top - a1
            bps = (lv, top)

            def ref(z):
                if z < lv:
                    raw = ((af - a1) * lv - (af - b_top) * top) / width
                elif z <= top:
                    raw = (z * af - a1 * lv - (af - b_top) * top) / width
                else:
                    raw = (b_top * top - a1 * lv) / width
                return raw - measure
        else:
            bot = q2(a1)
            c_bot = af + a1 - cop(af, a1)
            uv2 = orc.root_upper_var(cop, af, f2, a2, 0.0, 1e4)
            measure = orc.orthant_upper_rvar(cop, af, f2, a1, a2, q2, 0.0, 1e4)
            width = a2 - c_bot
            bps = (bot, uv2)

            def ref(z):
                if z < bot:
                    raw = ((1.0 - c_bot) * bot - (1.0 - a2) * uv2) / width
                elif z <= uv2:
                    raw = (z * (1.0 - af) - (c_bot - af) * bot - (1.0 - a2) * uv2) / width
                else:
                    raw = ((a2 - af) * uv2 - (c_bot - af) * bot) / width
                return raw - measure
        prof = res.out
        what = f"sensitivity {target} at x={x!r}"
        for got, want in zip(prof.breakpoints, bps):
            chk.compare(res.task_id, got, want, TOL_ORACLE, f"{what} breakpoint")
        sup = max(abs(ref(bps[0] - 1.0)), abs(ref(bps[1] + 1.0)))
        chk.compare(res.task_id, prof.sup_abs, sup, TOL_ORACLE, f"{what} sup_abs")
        for i in _pick(rng, list(range(len(prof.values))), 10):
            z = float(prof.z_grid[i])
            chk.compare(res.task_id, prof.values[i], ref(z), TOL_ORACLE,
                        f"{what} z={z!r}", scale=measure)


# ---------------------------------------------------------------------------
class Consistency:
    """Replicated estimator experiments and empirical curves, in-process."""

    def __init__(self, root: str, seed: int, sizes: Sizes):
        import rvar

        self.rv = rvar
        self.orc = _import_oracles(root)
        self.sizes = sizes
        self.seed = seed
        self.cfg = rvar.EstimatorConfig(m=sizes.emp_m, levels=rvar.LevelRange(*EMP_LEVELS))
        gev = rvar.GEV(0.0, 1.0, 0.2)
        self.indep = rvar.BivariateModel(gev, gev, rvar.Independence())
        self.gumbel = rvar.BivariateModel(gev, gev, rvar.Gumbel(1.5))
        a1, a2 = EMP_LEVELS
        # the AC10 / demo grid: the feasible fixed-coordinate band, 10 % inset
        lo = rvar.lower_var(self.indep, a1, gev.quantile(a2), fixed_index=2)
        hi = gev.quantile(1.0 - 1e-6)
        span = hi - lo
        self.exp_grid = np.linspace(lo + 0.1 * span, hi - 0.1 * span, sizes.exp_grid)
        lo_g = rvar.lower_var(self.gumbel, a1, gev.quantile(a2), fixed_index=2)
        self.lower_grid = np.linspace(lo_g, gev.quantile(0.9995), sizes.gumbel_grid)
        hi_g = rvar.upper_var(self.gumbel, a2, gev.quantile(a1), fixed_index=2)
        self.upper_grid = np.linspace(gev.quantile(0.02), hi_g, sizes.gumbel_grid)
        self.rotation = [
            ("experiment", sizes.exp_small_n, sizes.exp_small_reps),
            ("experiment", sizes.exp_big_n, sizes.exp_big_reps),
            ("gumbel_curves", sizes.gumbel_n, 0),
        ]
        self.warmup = self.rotation[0]

    def _seed_for(self, spec, rnd: int) -> int:
        return (self.seed * 1_000_003 + rnd * 7919 + self.rotation.index(spec) * 104_729) % 2**31

    def run(self, spec, rnd: int, task_id: int, tracer=None):
        rv = self.rv
        s = self._seed_for(spec, rnd)
        if spec[0] == "experiment":
            _, n, reps = spec
            rep = rv.consistency_experiment(self.indep, reps, n, self.cfg, self.exp_grid, seed=s)
            return (s, rep), reps * len(self.exp_grid)
        sm = rv.sample(self.gumbel, spec[1], s)
        lower = [self._estimate(rv.emp_lower_rvar, sm, x) for x in self.lower_grid]
        upper = [self._estimate(rv.emp_upper_rvar, sm, x) for x in self.upper_grid]
        return (s, lower, upper), len(lower) + len(upper)

    def _estimate(self, fn, sm, x):
        try:
            return fn(sm, self.cfg, float(x), 2)
        except self.rv.DomainError:
            return None  # outside the band for this sample: an expected NA

    # -- checks -----------------------------------------------------------
    def check(self, results, chk: Checker) -> None:
        rv, orc = self.rv, self.orc
        rng = random.Random(self.seed + 2)
        a1, a2 = EMP_LEVELS
        m = self.cfg.m
        experiments = [r for r in results if r.out is not None and r.spec[0] == "experiment"]
        gumbels = [r for r in results if r.out is not None and r.spec[0] == "gumbel_curves"]
        xi = 0.2
        F = lambda x: math.exp(-((1.0 + xi * x) ** (-1.0 / xi))) if 1.0 + xi * x > 0 else 0.0
        Q = lambda p: orc.gev_quantile(0.0, 1.0, xi, p)
        theo_ref = [orc.orthant_lower_rvar(orc.pi_cdf, F(float(x)), F, a1, a2, Q, -5.0, 1e6)
                    for x in self.exp_grid]
        for res in experiments:
            _, rep = res.out
            for x, got, want in zip(self.exp_grid, rep.theoretical, theo_ref):
                chk.compare(res.task_id, got, want, TOL_ORACLE, f"model value at x={float(x)!r} vs oracle")
            chk.expect(res.task_id, int(rep.failures.sum()) < rep.reps * len(self.exp_grid),
                       "every estimate of the experiment failed")
        for spec in {r.spec for r in experiments}:
            group = [r for r in experiments if r.spec == spec]
            for res in _pick(rng, group, 1):
                s, rep = res.out
                samples = [rv.sample(self.indep, spec[1], s + r).data for r in range(rep.reps)]
                for gi in _pick(rng, list(range(len(self.exp_grid))), 3):
                    x = float(self.exp_grid[gi])
                    ests = [bf_lower_rvar(d, x, m, a1, a2) for d in samples]
                    ok = [e for e in ests if e is not None]
                    chk.expect(res.task_id, rep.failures[gi] == len(ests) - len(ok),
                               f"failure count at x={x!r}: {rep.failures[gi]} vs {len(ests) - len(ok)}")
                    if ok:
                        chk.compare(res.task_id, rep.theoretical[gi] + rep.mean_dev[gi],
                                    sum(ok) / len(ok), TOL_EXACT, f"replicate mean at x={x!r}")
        for res in _pick(rng, gumbels, 2):
            s, lower, upper = res.out
            data = rv.sample(self.gumbel, res.spec[1], s).data
            self._check_sampler(res.task_id, data, chk)
            for grid, got_vals, bf in ((self.lower_grid, lower, bf_lower_rvar),
                                       (self.upper_grid, upper, bf_upper_rvar)):
                for gi in _pick(rng, list(range(len(grid))), 4):
                    x = float(grid[gi])
                    want = bf(data, x, m, a1, a2)
                    got = got_vals[gi]
                    if want is None or got is None:
                        chk.expect(res.task_id, want is None and got is None,
                                   f"{bf.__name__} NA mismatch at x={x!r}: {got!r} vs {want!r}")
                    else:
                        chk.compare(res.task_id, got, want, TOL_EXACT, f"{bf.__name__} at x={x!r}")

    def _check_sampler(self, task_id: int, data: np.ndarray, chk: Checker) -> None:
        """Marginal and joint frequencies within 6 sigma of the Gumbel model."""
        orc = self.orc
        n = data.shape[0]
        for p in (0.5, 0.9):
            q = orc.gev_quantile(0.0, 1.0, 0.2, p)
            for col in (0, 1):
                hits = int(np.count_nonzero(data[:, col] <= q))
                chk.expect(task_id, binomial_ok(hits, n, p), f"sampler margin {col + 1} at p={p}")
            joint = int(np.count_nonzero((data[:, 0] <= q) & (data[:, 1] <= q)))
            chk.expect(task_id, binomial_ok(joint, n, orc.gumbel_cdf(p, p, 1.5)),
                       f"sampler joint frequency at p={p}")


# ---------------------------------------------------------------------------
README_MODEL_ARGS = ["--margin1", "weibull", "shape=2", "scale=50",
                     "--margin2", "weibull", "shape=2", "scale=150",
                     "--copula", "gumbel", "theta=1.5"]
SIM_MODEL_ARGS = ["--margin1", "gev", "mu=0", "sigma=1", "xi=0.2",
                  "--margin2", "gev", "mu=0", "sigma=1", "xi=0.2",
                  "--copula", "independence"]


class CliBatch:
    """One ``python -m rvar.cli`` child at a time over all five subcommands."""

    def __init__(self, root: str, seed: int, sizes: Sizes, out_dir: str):
        self.root = root
        self.sizes = sizes
        self.seed = seed
        rng = random.Random(seed)
        self.csv_path = os.path.join(out_dir, f"cli-samples-{seed}.csv")
        self.write_csv()
        a1 = round(rng.uniform(0.94, 0.96), 4)
        a2 = round(rng.uniform(0.985, 0.995), 4)
        gpd_alpha = round(rng.uniform(0.97, 0.995), 4)
        wei_alpha = round(rng.uniform(0.9, 0.97), 4)
        x_sens = round(rng.uniform(120.0, 180.0), 3)
        self.rotation = [
            ("uni", "--gev", "mu=0", "sigma=1", "xi=0.2", "--measure", "rvar",
             "--alpha1", str(a1), "--alpha2", str(a2)),
            ("uni", "--gpd", "u=10", "sigma=2", "xi=0.25", "zeta=0.05", "--measure", "tvar",
             "--alpha", str(gpd_alpha)),
            ("uni", "--weibull", "shape=2", "scale=50", "--measure", "tvar", "--alpha", str(wei_alpha)),
            ("uni", "--gev", "mu=0", "sigma=1", "xi=1.2", "--measure", "tvar", "--alpha", "0.99"),
            ("uni", "--gev", "mu=0", "sigma=1", "xi=0.2", "--measure", "var", "--alpha", "1.5"),
            ("curve", *README_MODEL_ARGS, "--kind", "lower_rvar", "--alpha1", "0.95",
             "--alpha2", "0.99", "--grid", str(self.sizes.cli_curve_grid)),
            ("empirical", "--input", self.csv_path, "--kind", "lower_rvar", "--alpha1", "0.9",
             "--alpha2", "0.99", "--grid", str(self.sizes.cli_emp_grid)),
            ("sensitivity", *README_MODEL_ARGS, "--target", "lower_rvar", "--alpha1", "0.95",
             "--alpha2", "0.99", "--x-fixed", str(x_sens)),
            ("simulate", *SIM_MODEL_ARGS, "--reps", str(self.sizes.cli_sim_reps),
             "--n", str(self.sizes.cli_sim_n), "--alpha1", "0.9", "--alpha2", "0.99",
             "--grid", str(self.sizes.cli_sim_grid), "--seed", str(seed)),
        ]
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.launcher = os.path.join(root, "perfbench", "cli_launcher.py")
        self.child_trace = os.path.join(out_dir, f"cli-child-{seed}.json")
        self.child_wall: list[float] = []

    def write_csv(self) -> None:
        """An x1,x2 csv of GEV(0, 1, 0.2) rows, each coordinate copying a shared
        uniform with probability 1/2, so the columns are dependent."""
        rng = np.random.default_rng(self.seed)
        n = self.sizes.cli_csv_rows
        shared = rng.random(n)
        u = np.where(rng.random((n, 2)) < 0.5, shared[:, None], rng.random((n, 2)))
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        x = np.expm1(-0.2 * np.log(-np.log(u))) / 0.2  # GEV(0, 1, 0.2) quantiles
        with open(self.csv_path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2"])
            w.writerows((repr(float(a)), repr(float(b))) for a, b in x)

    def run(self, spec, rnd: int, task_id: int, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "rvar.cli", *spec]
        else:
            cmd = [sys.executable, self.launcher, self.child_trace, *spec]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=self.root, timeout=150)
        wall = time.perf_counter() - t0
        if tracer is not None:
            with open(self.child_trace, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(self.child_trace)
            child["process_s"] = wall
            child["exit"] = proc.returncode
            tracer.merge(child, task_id)
        lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
        points = len(lines) - 1 if spec[0] in ("curve", "empirical", "sensitivity") else len(lines)
        if spec[0] == "simulate":
            points = 3 * (len(lines) - 2)  # model value, replicate mean and sd per row
        return (proc.returncode, proc.stdout, proc.stderr), max(points, 0)

    # -- checks -----------------------------------------------------------
    def check(self, results, chk: Checker) -> None:
        import rvar
        from rvar import cli as rcli

        refs = {}
        for spec in self.rotation:
            refs[spec] = self._reference(rvar, rcli, spec)
        for res in results:
            if res.out is None:
                continue
            code, out, err = res.out
            want_code, want = refs[res.spec]
            what = f"rvar {' '.join(res.spec[:1])}"
            if code != want_code:
                chk.fail(res.task_id, f"{what}: exit {code}, expected {want_code}: {err.strip()[-200:]}")
                continue
            if want_code != 0:
                chk.expect(res.task_id, out.strip() == "", f"{what}: output on a failing exit")
                continue
            rows = [ln for ln in out.splitlines() if ln.strip()]
            if len(rows) != len(want):
                chk.fail(res.task_id, f"{what}: {len(rows)} lines, expected {len(want)}")
                continue
            for row, ref_row in zip(rows, want):
                got_cells = row.split(",") if isinstance(ref_row, tuple) else [row]
                ref_cells = ref_row if isinstance(ref_row, tuple) else (ref_row,)
                if len(got_cells) != len(ref_cells):
                    chk.fail(res.task_id, f"{what}: row {row!r} vs {ref_cells!r}")
                    break
                for g, r in zip(got_cells, ref_cells):
                    if isinstance(r, float) and not math.isnan(r):
                        chk.compare(res.task_id, parse_float(g), r, TOL_PRINTED, f"{what} cell {g!r}")
                    elif isinstance(r, float):
                        chk.expect(res.task_id, g == "NA", f"{what}: {g!r}, expected NA")
                    else:
                        chk.expect(res.task_id, g == r, f"{what}: {g!r}, expected {r!r}")

    def _reference(self, rvar, rcli, spec):
        """(exit code, expected rows) from the in-process library.

        A row is a string, a float, or a tuple of cells; NaN stands for NA.
        """
        cmd = spec[0]
        args = rcli.build_parser().parse_args(list(spec))
        cfg = rcli.config_from_args(args)
        fmt_none = lambda v: float("nan") if v is None else v
        if cmd == "uni":
            try:
                margin = rcli.parse_margin(cfg.margin1)
                if cfg.measure == "var":
                    value = rvar.uni_var(margin, float(cfg.alpha))
                elif cfg.measure == "tvar":
                    value = rvar.uni_tvar(margin, float(cfg.alpha))
                else:
                    value = rvar.uni_rvar(margin, rvar.LevelRange(float(cfg.alpha1), float(cfg.alpha2)))
            except rvar.DomainError:
                return 2, []
            return 0, ["DIVERGES" if rvar.is_divergent(value) else value]
        levels = rvar.LevelRange(float(cfg.alpha1), float(cfg.alpha2))
        a1s, a2s = f"{levels.alpha1:.10g}", f"{levels.alpha2:.10g}"
        header = tuple(rcli._CSV_HEADER.split(","))
        if cmd == "curve":
            b = rcli._bivariate(cfg)
            curve = rvar.orthant_curve(b, cfg.kind, levels, grid=int(cfg.grid))
            return 0, [header] + [(float(x), v, cfg.kind, a1s, a2s, "1")
                                  for x, v in zip(curve.x_fixed, curve.values)]
        if cmd == "empirical":
            s = rcli.read_samples(cfg.input)
            est = rvar.EstimatorConfig(100, levels)
            lo = rvar.marginal_quantile(s, 1, levels.alpha1)
            hi = float(np.max(s.data[:, 0]))
            rows = [header]
            for x in np.linspace(lo, hi, int(cfg.grid)):
                try:
                    v = rvar.emp_lower_rvar(s, est, float(x), 2)
                except rvar.DomainError:
                    v = None
                rows.append((float(x), fmt_none(v), "lower_rvar", a1s, a2s, "1"))
            return 0, rows
        if cmd == "sensitivity":
            b = rcli._bivariate(cfg)
            prof = rvar.sensitivity_profile(b, cfg.target, float(cfg.x_fixed), levels=levels)
            rows = [("z", "S", "branch")]
            for z, v in zip(prof.z_grid, prof.values):
                rows.append((float(z), float(v), rvar.branch_label(cfg.target, float(z), prof.breakpoints)))
            bounded = "true" if prof.bounded else "false"
            rows.append(f"bounded={bounded} sup_abs={prof.sup_abs:.10g}")
            return 0, rows
        # simulate
        b = rcli._bivariate(cfg)
        est = rvar.EstimatorConfig(100, levels)
        band_lo = rvar.lower_var(b, levels.alpha1, b.margin2.quantile(levels.alpha2), fixed_index=2)
        band_hi = b.margin1.quantile(1.0 - 1e-6)
        span = band_hi - band_lo
        xs = np.linspace(band_lo + 0.1 * span, band_hi - 0.1 * span, int(cfg.grid))
        rep = rvar.consistency_experiment(b, int(cfg.reps), int(cfg.n), est, xs, seed=int(cfg.seed))
        rows = [f"# seed={int(cfg.seed)}", header + ("rep_mean", "rep_sd")]
        for gi, x in enumerate(rep.grid):
            mean = rep.theoretical[gi] + rep.mean_dev[gi]
            rows.append((float(x), float(rep.theoretical[gi]), "lower_rvar", a1s, a2s, "1",
                         float(mean), float(rep.sd_dev[gi])))
        return 0, rows
