"""In-memory spans around threshlab's public entry points.

``Tracer.installed()`` swaps every entry point listed in ``ENTRY_POINTS`` for
a wrapper that records a span ``[name, start, end, parent, info]``.  A
function imported elsewhere with ``from .module import name`` is a separate
binding, so the wrapper replaces the function in every threshlab namespace
that holds it (``threshlab.adversarial.empirical_concavity`` as well as
``threshlab.concavity.empirical_concavity``); methods are replaced on their
class.  Leaving the context restores the originals.

A span's self time is its duration minus the durations of its direct
children; calls are nested and single-threaded, so children never overlap.
Layers are the package's modules and a span's layer is the first part of
its name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import time
from collections import Counter

LAYERS = (
    "operators",
    "solver",
    "concavity",
    "adversarial",
    "lowrank",
    "regression",
    "cli",
    "validate",
)

ITEM_SPAN = "bench.item"
# counts kept as the maximum over spans (``max:<key>``); all others add up
MAX_KEYS = ("gap", "hessian_bytes")

_OP_KIND = {"reciprocal": "rt"}
_DESIGN = {
    "iid-gaussian": "iid",
    "adversarial-block": "block",
    "correlated-gaussian": "correlated",
}
SUBCOMMANDS = (
    "concavity-curve",
    "converge",
    "trap",
    "prox-trap",
    "regress",
    "lowrank-demo",
    "validate",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(args, kwargs, result):
    shape = getattr(args[1], "shape", None) or (len(args[1]),)
    return {"rows": math.prod(shape[:-1])}


def _solver_steps(trace, obj, rule):
    """Steps and backtracks of a finished run, counted from ``trace.etas``.

    An adaptive step starts at ``eta_init`` and halves (by ``rule.shrink``)
    once per rejected candidate, so the accepted eta gives the count.
    """
    etas = trace.etas
    backtracks = 0
    if rule is not None and rule.kind == "adaptive":
        eta_init = rule.eta_init if rule.eta_init is not None else 16.0 / obj.beta
        backtracks = sum(
            round(math.log(eta_init / eta) / math.log(1.0 / rule.shrink)) for eta in etas
        )
    return {"steps": len(etas), "backtracks": backtracks}


def _run_steps(args, kwargs, trace):
    return _solver_steps(trace, args[0], _arg(args, kwargs, 3, "rule"))


def _search_gap(args, kwargs, report):
    cf = report.closed_form
    if cf is None or math.isinf(cf):
        return None
    return {"gap": abs(report.empirical_max - cf)}


# layer -> [(attribute, span name or callable(args, kwargs) -> name,
#            after(args, kwargs, result) -> dict of counts or None)]
ENTRY_POINTS = {
    "operators": [
        (
            "ThresholdingOperator.__call__",
            lambda a, k: "operators." + _OP_KIND.get(a[0].shrink.kind, a[0].shrink.kind),
            _rows,
        ),
        ("prox_l1", "operators.prox_l1", None),
    ],
    "solver": [
        ("QuadraticObjective.random_instance", "solver.random_instance", None),
        ("iterate_threshold", "solver.iterate_threshold", _run_steps),
        ("iterate_prox", "solver.iterate_prox", _run_steps),
        ("check_theorem1_bound", "solver.check_theorem1_bound", None),
        ("kkt_residual_l1", "solver.kkt_residual_l1", None),
    ],
    "concavity": [
        (
            "empirical_concavity",
            lambda a, k: "concavity.search."
            + _OP_KIND.get(a[0].shrink.kind, a[0].shrink.kind),
            _search_gap,
        ),
        ("lower_bound_witness", "concavity.lower_bound_witness", None),
        ("concavity_ratio", "concavity.concavity_ratio", None),
    ],
    "adversarial": [
        (
            "build_trap",
            "adversarial.build_trap",
            lambda a, k, trap: {"exact": int(trap.exact_stationary)},
        ),
        ("build_prox_trap", "adversarial.build_prox_trap", None),
        ("sweep_prox_path", "adversarial.sweep_prox_path", None),
    ],
    "lowrank": [
        ("LiftedOperator.__call__", "lowrank.lift", None),
        ("MatrixObjective.random_certified", "lowrank.random_certified", None),
        ("empirical_matrix_concavity", "lowrank.empirical_matrix_concavity", None),
        (
            "iterate_threshold_matrix",
            "lowrank.iterate_threshold_matrix",
            lambda a, k, trace: _solver_steps(trace, a[0], _arg(a, k, 3, "rule")),
        ),
    ],
    "regression": [
        (
            "generate_instance",
            lambda a, k: "regression.generate." + _DESIGN[a[0].kind],
            None,
        ),
        (
            "RegressionInstance.objective",
            "regression.objective",
            # bytes of the Hessian the objective holds (8 d^2 while it is dense)
            lambda a, k, obj: {"hessian_bytes": getattr(obj.H, "nbytes", 0)},
        ),
        (
            "fit_iterative",
            "regression.fit_iterative",
            lambda a, k, out: {"violated": int(bool(out[1].bound_violated))},
        ),
        (
            "fit_lasso_baseline",
            "regression.fit_lasso_baseline",
            lambda a, k, out: {"iters": out[1].iterations},
        ),
    ],
    "cli": [
        ("main", "cli.main", None),
        (
            "write_csv",
            "cli.write_csv",
            lambda a, k, _: {"bytes": os.path.getsize(a[0])},
        ),
    ]
    + [(f"cmd_{sub.replace('-', '_')}", f"cli.{sub}", None) for sub in SUBCOMMANDS],
    "validate": [
        (
            "run_validation_suite",
            "validate.run_validation_suite",
            lambda a, k, results: {
                "checks": len(results),
                "failed": sum(not ok for _, ok, _ in results),
            },
        ),
    ],
}


class Tracer:
    """Records nested spans in memory; ``spans[i]`` is
    ``[name, start, end, parent index or -1, info dict or None]``."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                tracer.spans[index][4] = after(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        restore = []
        package = importlib.import_module("threshlab")
        modules = {layer: importlib.import_module(f"threshlab.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        try:
            for layer, entries in ENTRY_POINTS.items():
                module = modules[layer]
                for attr, name, after in entries:
                    if "." in attr:
                        cls_name, method = attr.split(".")
                        cls = getattr(module, cls_name)
                        raw = cls.__dict__[method]
                        if isinstance(raw, classmethod):
                            new = classmethod(self.wrap(raw.__func__, name, after))
                        else:
                            new = self.wrap(raw, name, after)
                        restore.append((cls, method, raw))
                        setattr(cls, method, new)
                        continue
                    original = getattr(module, attr)
                    new = self.wrap(original, name, after)
                    for ns in namespaces:
                        for key in [k for k, v in vars(ns).items() if v is original]:
                            restore.append((ns, key, original))
                            setattr(ns, key, new)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)


def span_sums(spans):
    """Per-name totals of one traced pass.

    Keys: ``n:<name>`` calls, ``t:<name>`` seconds inside, ``self:<layer>``
    and ``calls:<layer>``, ``<count>:<name>`` for every count an entry point
    records, and ``search_rows`` for operator rows evaluated inside a
    concavity search.  Counts in ``MAX_KEYS`` are kept as ``max:<key>``.
    """
    child = [0.0] * len(spans)
    in_search = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_search[i] = in_search[parent]
        if name.startswith("concavity.search."):
            in_search[i] = True
    sums = Counter()
    for i, (name, start, end, parent, info) in enumerate(spans):
        duration = end - start
        layer = name.split(".", 1)[0]
        sums[f"n:{name}"] += 1
        sums[f"t:{name}"] += duration
        sums[f"self:{layer}"] += duration - child[i]
        sums[f"calls:{layer}"] += 1
        for key, value in (info or {}).items():
            if key in MAX_KEYS:
                sums[f"max:{key}"] = max(sums[f"max:{key}"], value)
            else:
                sums[f"{key}:{name}"] += value
        if layer == "operators" and in_search[i] and info:
            sums["search_rows"] += info["rows"]
    return sums


def add_sums(a, b, weight=1.0):
    """``a`` plus ``weight`` times ``b``; ``max:`` keys keep the maximum."""
    out = Counter(a)
    for key, value in b.items():
        if key.startswith("max:"):
            out[key] = max(out[key], value)
        else:
            out[key] += weight * value
    return out


def mean_sums(sums_list):
    """Average of several passes' sums."""
    total = Counter()
    for sums in sums_list:
        total = add_sums(total, sums, 1.0 / len(sums_list))
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(s):
    """Per-layer metrics from the summed totals of one traced round."""
    item_s = s[f"t:{ITEM_SPAN}"]

    def total(prefix, key="t"):
        return sum(v for k, v in s.items() if k.startswith(f"{key}:{prefix}"))

    def mean(name, scale=1.0, key="t"):
        return scale * _ratio(s[f"{key}:{name}"], s[f"n:{name}"])

    steps = s["steps:solver.iterate_threshold"] + s["steps:solver.iterate_prox"]
    backtracks = s["backtracks:solver.iterate_threshold"] + s["backtracks:solver.iterate_prox"]
    searches = total("concavity.search.", "n")
    m = {
        "operators.calls": s["calls:operators"],
        "operators.self_s": s["self:operators"],
        "operators.share": _ratio(s["self:operators"], item_s),
        "operators.rows_per_s": _ratio(total("operators.", "rows"), total("operators.")),
    }
    for kind in ("hard", "soft", "rt", "lq"):
        m[f"operators.{kind}.us_per_call"] = mean(f"operators.{kind}", 1e6)
    m.update(
        {
            "solver.steps": steps,
            "solver.self_s": s["self:solver"],
            "solver.us_per_step": 1e6
            * _ratio(s["t:solver.iterate_threshold"] + s["t:solver.iterate_prox"], steps),
            "solver.backtracks_per_step": _ratio(backtracks, steps),
            "solver.accept_ratio": _ratio(steps, steps + backtracks),
            "solver.instance_us": mean("solver.random_instance", 1e6),
            "solver.share": _ratio(s["self:solver"], item_s),
            "concavity.searches": searches,
        }
    )
    for kind in ("hard", "soft", "rt", "lq"):
        m[f"concavity.{kind}.s_per_search"] = mean(f"concavity.search.{kind}")
    m.update(
        {
            "concavity.op_rows_per_search": _ratio(s["search_rows"], searches),
            "concavity.max_gap": s["max:gap"],
            "concavity.share": _ratio(s["self:concavity"], item_s),
            "adversarial.traps": s["n:adversarial.build_trap"],
            "adversarial.ms_per_trap": mean("adversarial.build_trap", 1e3),
            "adversarial.exact_stationary_frac": mean(
                "adversarial.build_trap", key="exact"
            ),
            "lowrank.lift_calls": s["n:lowrank.lift"],
            "lowrank.us_per_lift": mean("lowrank.lift", 1e6),
            "lowrank.us_per_matrix_step": 1e6
            * _ratio(
                s["t:lowrank.iterate_threshold_matrix"],
                s["steps:lowrank.iterate_threshold_matrix"],
            ),
            "lowrank.matrix_search_s": mean("lowrank.empirical_matrix_concavity"),
        }
    )
    for design in ("iid", "block", "correlated"):
        m[f"regression.{design}.generate_ms"] = mean(f"regression.generate.{design}", 1e3)
    m.update(
        {
            "regression.objective_ms": mean("regression.objective", 1e3),
            "regression.fit_ms": mean("regression.fit_iterative", 1e3),
            "regression.lasso_ms": mean("regression.fit_lasso_baseline", 1e3),
            "regression.lasso_iters": mean("regression.fit_lasso_baseline", key="iters"),
            "regression.hessian_bytes": s["max:hessian_bytes"],
            "regression.violation_rate": mean("regression.fit_iterative", key="violated"),
        }
    )
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.s"] = mean(f"cli.{sub}")
    m.update(
        {
            "cli.self_s": s["self:cli"],
            "cli.csv_bytes": s["bytes:cli.write_csv"],
            "validate.s": mean("validate.run_validation_suite"),
            "validate.checks": s["checks:validate.run_validation_suite"],
            "validate.failed": s["failed:validate.run_validation_suite"],
        }
    )
    return m
