"""Passes over a workload's items, the metrics they give, and the results.

A pass runs the workload's whole item list once, in an order of its own,
and times each item.  Passes repeat until the run's seconds are up; the first
always runs whole, the last is cut at the deadline.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# fresh-process set-ups per run: one ahead of each pass, and at least this many
SETUP_PROBES = 5
PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import run; run.probe(sys.argv[2], int(sys.argv[3]))"
# item_p90_ms is reported only where at least ten samples lie beyond it
P90_MIN_SAMPLES = 100


@dataclass
class PassResult:
    wall: float
    latencies: list  # seconds by item position; None for an item not run
    failures: list  # (item name, reason)

    @property
    def whole(self) -> bool:
        return None not in self.latencies


def run_pass(items, tracer=None, order=None, deadline=None) -> PassResult:
    """Run every item once, in ``order`` (positions into ``items``) if given,
    and start no item once the ``perf_counter`` time ``deadline`` has passed;
    the latencies are listed by position all the same."""
    latencies, failures = [None] * len(items), []
    start = time.perf_counter()
    for position in range(len(items)) if order is None else order:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        item = items[position]
        t0 = time.perf_counter()
        index = tracer.begin(tracing.ITEM_SPAN) if tracer else None
        reason = "output check failed"
        try:
            ok = bool(item.run())
        except Exception as exc:  # a raising item is a failed item; the run goes on
            ok, reason = False, f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.end(index)
        latencies[position] = time.perf_counter() - t0
        if not ok:
            failures.append((item.name, reason))
    return PassResult(time.perf_counter() - start, latencies, failures)


def measure(items, seconds: float, seed: int, before_pass=None) -> list:
    """Passes over the items until ``seconds`` have gone by: the first pass is
    always whole, the last one stops at the deadline.  ``before_pass`` runs
    untimed ahead of each pass.  Each pass runs the items in a fresh order
    drawn from ``seed``, so that an item's samples are spread over the run
    rather than taken at the same point of every pass, and a cut pass samples
    items at random."""
    passes = []
    rng = np.random.default_rng(seed)
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        if before_pass:
            before_pass()
        order = rng.permutation(len(items))
        passes.append(run_pass(items, order=order, deadline=deadline if passes else None))
    return passes


def end_to_end(passes, setup_s: float) -> tuple:
    """(metrics, extra): the declared end-to-end metrics, then the reported
    figures that are not gated: failed_frac, item_p90_ms and sample counts.

    ``wall_s``, the time to finish the item list, is the sum of each item's
    median latency over the run, which uses the samples of a cut pass too and
    lets a slow spell of the host move only the items it overlapped."""
    by_item = [
        [x for x in samples if x is not None] for samples in zip(*(p.latencies for p in passes))
    ]
    latencies = [x for samples in by_item for x in samples]
    attempted = len(latencies)
    failed = sum(len(p.failures) for p in passes)
    wall = sum(statistics.median(samples) for samples in by_item)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "items_per_s": len(by_item) * (1.0 - failed / attempted) / wall,
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "failed_frac": failed / attempted,
        "passes": len(passes),
        "whole_pass_walls_s": [p.wall for p in passes if p.whole],
        "items_per_pass": len(by_item),
        "item_samples": attempted,
    }
    if attempted >= P90_MIN_SAMPLES:
        extra["item_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[-1]
    return metrics, extra


def warm_up(name: str, seed: int) -> bool:
    """Build the workload and run its first item, as every run does before timing."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        items = workloads.build(name, seed, tmp).items
        return not run_pass(items[:1]).failures


def setup_seconds(name: str, seed: int) -> float:
    """Time from spawning a fresh process until it has set up and run the
    warm-up item (its exit is not counted)."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(HERE), name, str(seed)],
        cwd=ROOT,
        check=True,
        timeout=120,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout
    return float(out.split()[-1]) - start


def _git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own
    return lines[1]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


def declared_units(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _report(result: dict, metrics: dict, section: str, path: Path) -> int:
    """Write the results file and print them; the JSON summary goes last."""
    units = declared_units(section)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    result["metrics"] = {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    for name, failure in result["failures"][:10]:
        print(f"FAILED {name}: {failure}", file=sys.stderr)
    for key, value in result["environment"].items():
        print(f"env {key} = {value}")
    for key, value in result["extra"].items():
        print(f"{key} = {value}")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(f"results written to {path.relative_to(ROOT)}")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


def untraced_run(name: str, seed: int, seconds: float, smoke: bool = False) -> int:
    setups = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        items = workloads.build(name, seed, tmp, smoke).items
        run_pass(items[:1])
        # one set-up ahead of each pass, so that their median spans the run
        passes = measure(items, seconds, seed, lambda: setups.append(setup_seconds(name, seed)))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(name, seed))
    metrics, extra = end_to_end(passes, statistics.median(setups))
    failures = [f for p in passes for f in p.failures]
    by_item = {}
    for p in passes:
        for item, latency in zip(items, p.latencies):
            if latency is not None:
                by_item.setdefault(item.name, []).append(latency)
    if "item_p90_ms" not in extra:
        extra["item_p90_ms"] = f"not reported: fewer than {P90_MIN_SAMPLES} item samples"
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": 0,
        "environment": environment(),
        "correct": not failures,
        "attempted": extra["item_samples"],
        "failed": len(failures),
        "extra": extra,
        "item_median_ms": {k: 1e3 * statistics.median(v) for k, v in by_item.items()},
        "failures": failures,
    }
    path = OUT / "results" / f"{name}-seed{seed}-trace0.json"
    return _report(result, metrics, "end_to_end", path)


def traced_workload(name: str, seed: int, budget: float, out_dir: str, smoke: bool = False):
    """Alternate untraced and traced passes of one workload within ``budget``
    seconds (at least one of each).  Returns (per-pass span sums, overhead
    fraction, untraced passes + traced passes, spans of the last traced pass)."""
    items = workloads.build(name, seed, out_dir, smoke).items
    run_pass(items[:1])
    plain, traced, sums = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(items))
        tracer = tracing.Tracer()
        with tracer.installed():
            traced.append(run_pass(items, tracer))
        sums.append(tracing.span_sums(tracer.spans))
        if time.perf_counter() - start + plain[-1].wall + traced[-1].wall > budget:
            break
    overhead = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain)
        - 1.0
    )
    return tracing.mean_sums(sums), overhead, plain + traced, tracer.spans


def traced_run(seed: int, seconds: float, smoke: bool = False) -> int:
    total = Counter()
    metrics_extra, layer_calls, spans, passes = {}, {}, {}, []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in workloads.WORKLOADS:
            sums, overhead, runs, spans[name] = traced_workload(
                name, seed, seconds / len(workloads.WORKLOADS), tmp, smoke
            )
            total = tracing.add_sums(total, sums)
            metrics_extra[f"trace.{name}.overhead_frac"] = overhead
            layer_calls[name] = {layer: sums[f"calls:{layer}"] for layer in tracing.LAYERS}
            passes += runs
    metrics = {**tracing.layer_metrics(total), **metrics_extra}
    silent = [
        layer for layer in tracing.LAYERS if not any(c[layer] for c in layer_calls.values())
    ]
    failures = [f for p in passes for f in p.failures]
    for layer in silent:
        print(f"FAILED layer {layer}: no calls recorded on any workload", file=sys.stderr)
    attempted = sum(len(p.latencies) for p in passes)
    spans_path = OUT / f"spans-seed{seed}.json"
    with open(spans_path, "w") as fh:
        json.dump(spans, fh)
    result = {
        "workload": "all",
        "seed": seed,
        "seconds": seconds,
        "trace": 1,
        "environment": environment(),
        "correct": not failures and not silent,
        "attempted": attempted,
        "failed": len(failures),
        "extra": {
            "failed_frac": len(failures) / attempted,
            "layer_calls_per_pass": layer_calls,
            "spans": str(spans_path.relative_to(ROOT)),
        },
        "failures": failures,
    }
    path = OUT / "results" / f"all-seed{seed}-trace1.json"
    return _report(result, metrics, "per_layer", path)
