"""Per-layer tracing of the rvar package, installed from outside.

A ``Tracer`` wraps the public functions and methods of each ``rvar``
module (the *layers*: specfun, marginals, dependence, orthant, robustness,
empirical, cli) and scipy's ``quad``/``brentq`` where a module binds them by
name.  Every binding of a wrapped object is replaced: module attributes in
any ``rvar`` module, values of module-level dicts (the CLI dispatch table)
and methods on the classes a module defines.  ``uninstall`` puts every
original back.

Module-level functions become *spans* (name, start, end, parent span,
task id), kept in compact arrays and written out when the run ends.  Class
methods, ``copula_cdf`` and the special functions run millions of times per
run, so they are only counted and timed: their time is charged to the
enclosing span's layer accounting, which keeps a traced run within a few
MB.  Self time per layer comes from the same call stack either way: each
call's duration minus the time of the wrapped calls it made.  Wrapper cost
lands in these times; ``trace.overhead_frac`` reports how much.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("specfun", "marginals", "dependence", "orthant", "robustness", "empirical", "cli")
_FOREIGN = ("quad", "brentq")  # scipy routines bound by name inside rvar modules
_LEAF_FUNCTIONS = {
    "dependence": {"copula_cdf"},
    "marginals": {"cdf", "quantile", "mean", "is_divergent"},
}
_ORTHANT_MEASURES = {"lower_rvar", "upper_rvar", "lower_tvar", "upper_tvar"}
_EMP_ESTIMATORS = {"emp_lower_var", "emp_upper_var", "emp_lower_rvar", "emp_upper_rvar"}
_UNI = {"uni_var", "uni_rvar", "uni_tvar"}

_clock = time.perf_counter


def _model_label(fn: str, args) -> str:
    """'lower_rvar Gumbel/Weibull' style key: function, copula and margin types."""
    b = args[0] if args else None
    parts = [type(getattr(b, a, None)).__name__ for a in ("copula", "margin1", "margin2")]
    return f"{fn} {parts[0]}/{parts[1]}/{parts[2]}"


class Tracer:
    """Spans, counters and per-layer self time for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_task = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_self = array("d")
        self.calls: Counter = Counter()  # "layer.name" -> calls
        self.incl: defaultdict = defaultdict(float)  # "layer.name" -> inclusive seconds
        self.task_self: dict[int, dict[str, float]] = {}  # task -> layer -> self seconds
        self.failed: Counter = Counter()  # "layer.ErrorType" -> exceptions out of outermost calls
        self.copula_calls = 0
        self.outer_calls: Counter = Counter()  # counting group -> outermost calls
        self.copula_under_measure = 0
        self.measure_by_fn: defaultdict = defaultdict(lambda: [0, 0])  # model label -> [calls, copula calls]
        self.sample_rows = 0
        self.rows_scanned = 0
        self.children: list[dict] = []  # summaries merged from traced child processes
        self.child_spans: list[tuple] = []  # (child number, span row) with the parent's task id
        self.task = -1
        self._stack: list[list] = []  # [layer, start, child_seconds, span_index]
        self._depth: Counter = Counter()  # open calls per counting group
        self._marks: list[tuple] = []  # (copula calls at entry, model label) per open measure
        self._patches: list[tuple] = []

    # -- task bookkeeping -------------------------------------------------
    def start_task(self, task_id: int) -> None:
        self.task = task_id
        self.task_self[task_id] = defaultdict(float)

    def end_task(self) -> None:
        self.task = -1

    # -- span accounting --------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _parent_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    def _enter(self, layer: str, key: str, span: bool) -> list:
        span_index = -1
        if span:
            span_index = len(self.sp_start)
            self.sp_name.append(self._name_id(key))
            self.sp_parent.append(self._parent_span())
            self.sp_task.append(self.task)
            self.sp_start.append(0.0)
            self.sp_end.append(0.0)
            self.sp_self.append(0.0)
        frame = [layer, 0.0, 0.0, span_index]
        self._stack.append(frame)
        frame[1] = _clock()
        return frame

    def _exit(self, frame: list, key: str) -> None:
        end = _clock()
        elapsed = end - frame[1]
        own = elapsed - frame[2]
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += elapsed
        self.calls[key] += 1
        self.incl[key] += elapsed
        per_layer = self.task_self.get(self.task)
        if per_layer is not None:
            per_layer[frame[0]] += own
        if frame[3] >= 0:
            i = frame[3]
            self.sp_start[i] = frame[1]
            self.sp_end[i] = end
            self.sp_self[i] = own

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str, span: bool):
        key = f"{layer}.{name}"
        short = name.rsplit(".", 1)[-1]
        tracer = self
        enter, exit_ = self._enter, self._exit

        if layer == "dependence" and (short == "copula_cdf" or (short == "cdf" and "." in name)):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.copula_calls += 1
                frame = enter(layer, key, span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame, key)
            return wrapper

        group = None
        if layer == "orthant" and short in _ORTHANT_MEASURES:
            group = "measure"
        elif layer == "empirical" and short in _EMP_ESTIMATORS:
            group = "estimator"
        elif layer == "dependence" and short == "sample" and "." not in name:
            group = "sample"
        elif layer == "marginals" and short in _UNI:
            group = "uni"

        if group is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter(layer, key, span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame, key)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = tracer._depth[group] == 0
            if outermost:
                tracer._on_outer_enter(group, short, args, kwargs)
            tracer._depth[group] += 1
            frame = enter(layer, key, span)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if outermost:
                    tracer.failed[f"{layer}.{type(exc).__name__}"] += 1
                raise
            finally:
                exit_(frame, key)
                tracer._depth[group] -= 1
                if outermost:
                    tracer._on_outer_exit(group)
        return wrapper

    def _on_outer_enter(self, group, short, args, kwargs) -> None:
        self.outer_calls[group] += 1
        if group == "measure":
            self._marks.append((self.copula_calls, _model_label(short, args)))
        elif group == "estimator":
            self.rows_scanned += getattr(args[0] if args else kwargs.get("s"), "n", 0)
        elif group == "sample":
            n = args[1] if len(args) > 1 else kwargs.get("n", 0)
            self.sample_rows += int(n)

    def _on_outer_exit(self, group) -> None:
        if group == "measure":
            mark, label = self._marks.pop()
            used = self.copula_calls - mark
            self.copula_under_measure += used
            rec = self.measure_by_fn[label]
            rec[0] += 1
            rec[1] += used

    def _replace_everywhere(self, orig, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rvar" or mod_name.startswith("rvar.")):
                continue
            space = vars(mod)
            for attr, value in list(space.items()):
                if value is orig:
                    self._patches.append((space, attr, orig))
                    space[attr] = wrapper
                elif type(value) is dict and not attr.startswith("__"):
                    for k, v in list(value.items()):
                        if v is orig:
                            self._patches.append((value, k, orig))
                            value[k] = wrapper

    def install(self) -> None:
        """Wrap every layer of the already imported ``rvar`` package."""
        import rvar  # noqa: F401  (the package must be importable)

        for layer in LAYERS:
            mod = sys.modules.get(f"rvar.{layer}")
            if mod is None:
                continue
            leaf_all = layer == "specfun"
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    span = not (leaf_all or name in _LEAF_FUNCTIONS.get(layer, ()))
                    self._replace_everywhere(obj, self._wrap(obj, layer, name, span))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        wrapper = self._wrap(fn, layer, f"{obj.__name__}.{meth}", False)
                        self._patches.append((obj, meth, fn))
                        setattr(obj, meth, wrapper)
            for name in _FOREIGN:
                obj = vars(mod).get(name)
                if obj is not None and callable(obj):
                    self._patches.append((vars(mod), name, obj))
                    vars(mod)[name] = self._wrap(obj, layer, name, True)

    def uninstall(self) -> None:
        """Put back every original binding, newest first."""
        for target, attr, orig in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def summary(self) -> dict:
        """Counts and times in plain types, mergeable across processes."""
        return {
            "calls": dict(self.calls),
            "incl_s": dict(self.incl),
            "task_self_s": {str(t): dict(v) for t, v in self.task_self.items()},
            "failed": dict(self.failed),
            "copula_calls": self.copula_calls,
            "outer_calls": dict(self.outer_calls),
            "copula_under_measure": self.copula_under_measure,
            "measure_by_fn": {k: list(v) for k, v in self.measure_by_fn.items()},
            "sample_rows": self.sample_rows,
            "rows_scanned": self.rows_scanned,
        }

    def merge(self, child: dict, task_id: int) -> None:
        """Fold a traced child's summary in, charging its work to task_id."""
        self.calls.update(child["calls"])
        for k, v in child["incl_s"].items():
            self.incl[k] += v
        per_layer = self.task_self.setdefault(task_id, defaultdict(float))
        for layers in child["task_self_s"].values():
            for layer, v in layers.items():
                per_layer[layer] += v
        self.failed.update(child["failed"])
        self.copula_calls += child["copula_calls"]
        self.outer_calls.update(child["outer_calls"])
        self.copula_under_measure += child["copula_under_measure"]
        for fn, (n, c) in child["measure_by_fn"].items():
            rec = self.measure_by_fn[fn]
            rec[0] += n
            rec[1] += c
        self.sample_rows += child["sample_rows"]
        self.rows_scanned += child["rows_scanned"]
        self.children.append(child)
        for row in child.pop("spans", []):
            self.child_spans.append((len(self.children), (task_id, *row[1:])))

    def span_rows(self):
        for i in range(len(self.sp_start)):
            yield (
                self.sp_task[i], i, self.sp_parent[i], self.names[self.sp_name[i]],
                self.sp_start[i], self.sp_end[i], self.sp_self[i],
            )

    def write_spans(self, path: str) -> int:
        """Write spans as gzip CSV and return their number.

        proc 0 is this process, k > 0 the k-th merged child; times are in
        microseconds from each process's first span.
        """
        rows = [(0, row) for row in self.span_rows()] + self.child_spans
        origin: dict[int, float] = {}
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("proc,task,span,parent,name,start_us,end_us,self_us\n")
            for proc, (task, i, parent, name, start, end, own) in rows:
                t0 = origin.setdefault(proc, start)
                fh.write(
                    f"{proc},{task},{i},{parent},{name},{(start - t0) * 1e6:.1f},"
                    f"{(end - t0) * 1e6:.1f},{own * 1e6:.1f}\n"
                )
        return len(rows)
