"""rvar benchmark: three closed-loop workloads with checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload orthant_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload, one table
    python3 perfbench/run.py --smoke                                # tiny pass, asserts names

Workloads (``BENCHMARK.json`` gives the reason for each): ``orthant_sweep``
and ``consistency`` run in this process; ``cli_batch`` starts one
``python -m rvar.cli`` child at a time with ``PYTHONPATH=src``.  Each
workload cycles through a fixed rotation of tasks in whole rounds until
``--seconds`` have passed, then checks every recorded output.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs rounds
without wrappers, then the same number of rounds with every ``rvar`` layer
wrapped (see ``tracing.py``), and prints the per-layer metrics, including
the tracing overhead.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (per-task-type and per-layer medians, IQRs and call counts, the
machine, the versions and the seed) goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.  The exit code is
1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # single-threaded numpy/scipy here and in every child

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("orthant_sweep", "consistency", "cli_batch")

END_TO_END = {
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "points_per_s": "1/s",
    "err_digits": "digits",
    "success_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
EMP_FAILED = ("DomainError", "EmptyConditioningError", "InfeasibleLevelError",
              "DegenerateRangeError", "other")
PER_LAYER = {
    "orthant.copula_per_rvar": "calls/rvar",
    "orthant.var_calls": "calls/task",
    "orthant.rvar_calls": "calls/task",
    "orthant.quad_calls": "calls/task",
    "orthant.curve_ms": "ms/task",
    "orthant.self_ms": "ms/task",
    "dependence.copula_calls": "calls/task",
    "dependence.self_ms": "ms/task",
    "dependence.sample_rows": "rows/task",
    "dependence.sample_ms": "ms/task",
    "empirical.estimator_calls": "calls/task",
    "empirical.ns_per_row": "ns/row",
    "empirical.self_ms": "ms/task",
    **{f"empirical.failed.{t}": "calls/task" for t in EMP_FAILED},
    "marginals.cdf_calls": "calls/task",
    "marginals.quantile_calls": "calls/task",
    "marginals.uni_calls": "calls/task",
    "marginals.quad_calls": "calls/task",
    "marginals.self_ms": "ms/task",
    "specfun.calls": "calls/task",
    "specfun.self_ms": "ms/task",
    "robustness.profile_calls": "calls/task",
    "robustness.self_ms": "ms/task",
    "cli.process_ms": "ms",
    "cli.import_ms": "ms",
    "cli.body_ms": "ms",
    "cli.csv_read_ms": "ms",
    "cli.nonzero_exits": "exits/task",
    "trace.overhead_frac": "frac",
}
TRACED_SHARE = 0.2  # share of --seconds the untraced rounds of a traced run get


@dataclass
class TaskResult:
    task_id: int
    rnd: int
    spec: tuple
    seconds: float
    points: int
    out: object
    err: str | None
    traced: bool


def _build(name: str, seed: int, sizes):
    import workloads as W

    if name == "orthant_sweep":
        return W.OrthantSweep(ROOT, seed, sizes)
    if name == "consistency":
        return W.Consistency(ROOT, seed, sizes)
    return W.CliBatch(ROOT, seed, sizes, OUT_DIR)


def _sizes(scale: str):
    import workloads as W

    return W.SMOKE if scale == "smoke" else W.Sizes()


def timed_loop(wl, results: list, seconds: float | None = None, rounds: int | None = None,
               tracer=None) -> tuple[int, float]:
    """Run whole rounds of the rotation; return (rounds, wall seconds)."""
    t_begin = time.perf_counter()
    rnd = 0
    while True:
        for spec in wl.rotation:
            tid = len(results)
            if tracer is not None:
                tracer.start_task(tid)
            t0 = time.perf_counter()
            try:
                out, points, err = *wl.run(spec, rnd, tid, tracer), None
            except Exception as exc:  # a failed task is counted, not fatal
                out, points, err = None, 0, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_task()
            results.append(TaskResult(tid, rnd, spec, dt, points, out, err, tracer is not None))
        rnd += 1
        elapsed = time.perf_counter() - t_begin
        if (rounds is not None and rnd >= rounds) or (rounds is None and elapsed >= seconds):
            return rnd, elapsed


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "iqr": 0.0, "count": len(values)}
    q = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q[2] - q[0], "count": len(values)}


def in_process_setup(args):
    """Build the workload and run its warm-up task: import rvar to ready."""
    t0 = time.perf_counter()
    wl = _build(args.workload, args.seed, _sizes(args.scale))
    wl.run(wl.warmup, -1, -1)
    return wl, time.perf_counter() - t0


def setup_samples(args, wl, first: float | None, sizes) -> list[float]:
    """Set-up repeated: fresh processes in-process, csv rewrites for cli_batch."""
    if args.workload == "cli_batch":
        samples = []
        for _ in range(sizes.csv_repeats):
            t0 = time.perf_counter()
            wl.write_csv()
            samples.append(time.perf_counter() - t0)
        return samples
    samples = [first]
    for _ in range(sizes.setup_repeats - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe", "--scale", args.scale],
            capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def layer_metrics(tracer, traced: list[TaskResult], overhead: float) -> dict:
    n = max(len(traced), 1)
    calls, incl = tracer.calls, tracer.incl

    def per_task(x):
        return x / n

    def sum_calls(pred):
        return sum(v for k, v in calls.items() if pred(k))

    def self_ms(layer):
        return 1e3 * sum(t.get(layer, 0.0) for t in tracer.task_self.values()) / n

    measures = tracer.outer_calls.get("measure", 0)
    estimators = ("emp_lower_var", "emp_upper_var", "emp_lower_rvar", "emp_upper_rvar")
    est_s = sum(incl.get(f"empirical.{e}", 0.0) for e in estimators)
    failed = {t: 0 for t in EMP_FAILED}
    for key, v in tracer.failed.items():
        layer, etype = key.split(".", 1)
        if layer == "empirical":
            failed[etype if etype in failed else "other"] += v
    children = tracer.children
    med = lambda xs: 1e3 * statistics.median(xs) if xs else 0.0
    m = {
        "orthant.copula_per_rvar": tracer.copula_under_measure / measures if measures else 0.0,
        "orthant.var_calls": per_task(calls["orthant.lower_var"] + calls["orthant.upper_var"]),
        "orthant.rvar_calls": per_task(measures),
        "orthant.quad_calls": per_task(calls["orthant.quad"]),
        "orthant.curve_ms": per_task(1e3 * incl.get("orthant.orthant_curve", 0.0)),
        "orthant.self_ms": self_ms("orthant"),
        "dependence.copula_calls": per_task(tracer.copula_calls),
        "dependence.self_ms": self_ms("dependence"),
        "dependence.sample_rows": per_task(tracer.sample_rows),
        "dependence.sample_ms": per_task(1e3 * incl.get("dependence.sample", 0.0)),
        "empirical.estimator_calls": per_task(tracer.outer_calls.get("estimator", 0)),
        "empirical.ns_per_row": 1e9 * est_s / tracer.rows_scanned if tracer.rows_scanned else 0.0,
        "empirical.self_ms": self_ms("empirical"),
        **{f"empirical.failed.{t}": per_task(v) for t, v in failed.items()},
        "marginals.cdf_calls": per_task(sum_calls(
            lambda k: k.startswith("marginals.") and k.endswith(".cdf") or k == "marginals.cdf")),
        "marginals.quantile_calls": per_task(sum_calls(
            lambda k: k.startswith("marginals.") and k.rsplit(".", 1)[-1]
            in ("quantile", "sf_quantile", "quantile_array"))),
        "marginals.uni_calls": per_task(tracer.outer_calls.get("uni", 0)),
        "marginals.quad_calls": per_task(calls["marginals.quad"]),
        "marginals.self_ms": self_ms("marginals"),
        "specfun.calls": per_task(sum_calls(lambda k: k.startswith("specfun."))),
        "specfun.self_ms": self_ms("specfun"),
        "robustness.profile_calls": per_task(calls["robustness.sensitivity_profile"]),
        "robustness.self_ms": self_ms("robustness"),
        "cli.process_ms": med([c["process_s"] for c in children]),
        "cli.import_ms": med([c["import_s"] for c in children]),
        "cli.body_ms": med([c["body_s"] for c in children]),
        "cli.csv_read_ms": med([c["incl_s"]["cli.read_samples"] for c in children
                                if "cli.read_samples" in c["incl_s"]]),
        "cli.nonzero_exits": per_task(sum(1 for c in children if c["exit"] != 0)),
        "trace.overhead_frac": overhead,
    }
    return m


def layer_table(tracer) -> dict:
    """Per layer: call count and per-task self time median / IQR."""
    from tracing import LAYERS

    table = {}
    for layer in LAYERS:
        selfs = [1e3 * t.get(layer, 0.0) for t in tracer.task_self.values()]
        q = quartiles(selfs)
        table[layer] = {
            "calls": sum(v for k, v in tracer.calls.items() if k.split(".", 1)[0] == layer),
            "self_ms_median": q["median"],
            "self_ms_iqr": q["iqr"],
        }
    return table


def machine() -> dict:
    import numpy
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if entry.startswith("index"):
                def read(f):
                    with open(os.path.join(base, entry, f), encoding="ascii") as fh:
                        return fh.read().strip()
                caches[f"L{read('level')}-{read('type')}"] = read("size")
    except OSError:
        pass  # cache sizes are informative only
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def run_workload(args) -> int:
    for need in (os.path.join("src", "rvar", "__init__.py"), os.path.join("tests", "_oracles.py")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}", file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    sizes = _sizes(args.scale)
    if args.workload == "cli_batch":
        wl, setup_first = _build(args.workload, args.seed, sizes), None
    else:
        wl, setup_first = in_process_setup(args)

    from checks import Checker

    results: list[TaskResult] = []
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "scale": args.scale}
    if args.trace:
        from tracing import Tracer

        u_rounds, u_wall = timed_loop(wl, results, seconds=TRACED_SHARE * args.seconds)
        untraced = len(results)
        tracer = Tracer()
        tracer.install()
        try:
            t_rounds, t_wall = timed_loop(wl, results, rounds=u_rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        overhead = (t_wall / t_rounds) / (u_wall / u_rounds) - 1.0
        traced = results[untraced:]
    else:
        rounds, wall = timed_loop(wl, results, seconds=args.seconds)
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rss_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    chk = Checker()
    wl.check(results, chk)
    failures = {r.task_id: r.err for r in results if r.err is not None}
    for tid, what in chk.failed_tasks.items():
        failures.setdefault(tid, what)
    attempted, failed = len(results), len(failures)
    record.update(attempted=attempted, failed=failed, fail_frac=failed / attempted,
                  checks=chk.checked, failures=[f"task {t}: {w}" for t, w in sorted(failures.items())[:20]])

    by_kind: dict = {}
    for r in results:
        key = ("traced " if r.traced else "") + " ".join(map(str, r.spec))[:120]
        by_kind.setdefault(key, []).append(1e3 * r.seconds)
    record["task_ms_by_spec"] = {k: quartiles(v) for k, v in sorted(by_kind.items())}

    if args.trace:
        metrics = layer_metrics(tracer, traced, overhead)
        record["layers"] = layer_table(tracer)
        record["exceptions_out_of_layers"] = dict(tracer.failed)
        record["copula_per_rvar_by_fn"] = {
            fn: {"calls": n, "copula_calls": c, "per_call": c / n}
            for fn, (n, c) in sorted(tracer.measure_by_fn.items())}
        record["rounds"] = {"untraced": u_rounds, "traced": t_rounds,
                            "untraced_s": u_wall, "traced_s": t_wall}
        spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.csv.gz")
        record["spans"] = {"path": os.path.relpath(spans_path, ROOT),
                           "count": tracer.write_spans(spans_path)}
        units = PER_LAYER
    else:
        times = [r.seconds for r in results]
        tail_s, tail_pct = tail(times)
        setups = setup_samples(args, wl, setup_first, sizes)
        peak = max(rss_self, rss_child) if args.workload == "cli_batch" else rss_self
        metrics = {
            "task_p50_ms": 1e3 * statistics.median(times),
            "task_tail_ms": 1e3 * tail_s,
            "points_per_s": sum(r.points for r in results) / wall,
            "err_digits": chk.min_digits,
            "success_frac": 1.0 - failed / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak,
        }
        record.update(tail_percentile=tail_pct, tasks=len(times), rounds=rounds, wall_s=wall,
                      setup_samples_s=setups, rss_mb={"self": rss_self, "largest_child": rss_child})
        units = END_TO_END
    record["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    record["machine"] = machine()
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for k in units:
        extra = ""
        if k == "task_tail_ms":
            extra = f"  (p{record['tail_percentile']:.1f} of {record['tasks']} tasks)"
        print(f"  {k:32s} {metrics[k]:14.6g} {units[k]}{extra}")
    print(f"  {'fail_frac':32s} {failed / attempted:14.6g} frac  ({failed} of {attempted} tasks)")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    print(f"  record {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


def _child_result(workload: str, seed: int, seconds: int, trace: int, scale: str):
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--scale", scale],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]), proc
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None, proc


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    worst = 0
    print(f"{'workload':14s} " + " ".join(f"{k:>14s}" for k in END_TO_END) + f" {'fail_frac':>10s}")
    for name in WORKLOADS:
        code, res, proc = _child_result(name, args.seed, args.seconds, 0, args.scale)
        if res is None:
            print(f"{name:14s} no result (exit {code}): {proc.stderr.strip()[-300:]}")
            worst = max(worst, code or 1)
            continue
        vals = " ".join(f"{res['metrics'][k]['value']:14.6g}" for k in END_TO_END)
        print(f"{name:14s} {vals} {res['failed'] / res['attempted']:10.4g}")
        worst = max(worst, code)
    print(f"{'unit':14s} " + " ".join(f"{u:>14s}" for u in END_TO_END.values()))
    return worst


def smoke(args) -> int:
    """Each workload tiny, traced and untraced: names present, nothing failed."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    want = {0: [m["name"] for m in bench["end_to_end"]], 1: [m["name"] for m in bench["per_layer"]]}
    assert set(want[0]) == set(END_TO_END) and set(want[1]) == set(PER_LAYER), "BENCHMARK.json names drifted"
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            code, res, proc = _child_result(name, 1, 1, trace, "smoke")
            problems = []
            if res is None:
                problems.append(f"no result line (exit {code}): {proc.stderr.strip()[-300:]}")
            else:
                missing = [k for k in want[trace] if k not in res["metrics"]]
                if missing:
                    problems.append(f"missing metrics {missing}")
                if res["failed"] != 0 or not res["correct"] or code != 0:
                    problems.append(f"fail_frac {res['failed']}/{res['attempted']}, exit {code}")
            print(f"smoke {name:14s} trace {trace}: {'ok' if not problems else '; '.join(problems)}")
            if problems:
                print(proc.stdout[-2000:])
            bad += bool(problems)
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny pass over every workload")
    p.add_argument("--scale", choices=("full", "smoke"), default="full", help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        print(in_process_setup(args)[1])
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
