"""The benchmark's four workloads: fixed lists of verified items.

An item is one unit of work together with the check of its output; running
it returns True when the output is correct.  Every input is derived from the
workload seed: an item's seed is ``item_seed(seed, index)``, so the same
seed gives the same items, and the program sees only generated inputs.

Program functions are always looked up as module attributes at call time,
so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from threshlab import adversarial, cli, concavity, lowrank, operators, regression, solver

KINDS = ("hard", "rt:0", "rt:0.5", "lq:0.6666666666666666", "lq:0.4")
KAPPAS = (1.5, 2.0, 4.0)
SEARCH_PAIRS = ((4, 1), (4, 2), (4, 4), (6, 3))
TRAP_CASES = (("hard", 1.5, 2, 2), ("soft", 1.0, 2, 2), ("rt:0", 5.0, 10, 9))
STEPS = 200


@dataclass
class Item:
    name: str
    run: Callable[[], bool]


@dataclass
class Workload:
    name: str
    items: list  # items[0] is also the warm-up item


def item_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def closed_form(spec: str, rho: float) -> float:
    """Closed-form concavity of a built-in operator spec (+inf where it diverges)."""
    name, _, arg = spec.partition(":")
    if name == "hard":
        return concavity.gamma_hard(rho)
    if rho >= 1.0:
        return math.inf
    if name == "rt":
        return concavity.gamma_reciprocal(rho, float(arg))
    return concavity.gamma_lq(rho, float(arg))


def criterion_sparsity(spec: str, kappa: float) -> int:
    """Smallest s whose concavity at s' = 1 lies below 1/(2 kappa)."""
    return next(
        s for s in range(2, 200) if closed_form(spec, 1.0 / s) < 0.999 / (2.0 * kappa)
    )


# ---------------------------------------------------------------------------
# convergence: the Theorem 1 sweep plus the lifted matrix runs


def _theorem1_run(spec, s, kappa, adaptive, seed) -> bool:
    d = s + 10
    rng = np.random.default_rng(seed)
    obj = solver.QuadraticObjective.random_instance(d, 1.0, kappa, rng, linear_scale=0.4)
    op = operators.parse_operator(spec, s)
    rule = solver.StepRule.adaptive() if adaptive else solver.StepRule.fixed()
    trace = solver.iterate_threshold(obj, op, np.zeros(d), rule, STEPS)
    mini = obj.minimizer()
    y = np.zeros(d)
    keep = np.argsort(-np.abs(mini), kind="stable")[:1]
    y[keep] = mini[keep]
    gamma = closed_form(spec, 1.0 / s)
    return bool(np.all(solver.check_theorem1_bound(trace, y, gamma, kappa, obj.beta)))


def _matrix_run(seed) -> bool:
    """8x8 lifted rt:0 run at rank 3, kappa 2, against the displayed bound."""
    rng = np.random.default_rng(seed)
    kappa = 2.0
    lifted = lowrank.LiftedOperator(operators.parse_operator("rt:0", 3))
    obj = lowrank.MatrixObjective.random_certified(8, 8, 1.0, kappa, rng)
    trace = lowrank.iterate_threshold_matrix(
        obj, lifted, np.zeros((8, 8)), solver.StepRule.fixed(), 100
    )
    M = obj.vec_objective.minimizer().reshape(8, 8)
    U, sv, Vt = np.linalg.svd(M)
    Y = sv[0] * np.outer(U[:, 0], Vt[0])
    rhs = solver.convergence_bound_rhs(
        np.arange(1, 101),
        obj.value(Y),
        closed_form("rt:0", 1.0 / 3.0),
        kappa,
        obj.beta,
        float(np.sum((trace.x0 - Y) ** 2)),
    )
    return bool(np.all(trace.running_min <= rhs))


def convergence(seed: int, runs: int = 5, lq_runs: int = 2, matrix_runs: int = 3) -> Workload:
    """``runs`` instances per (hard or rt kind, kappa), every fifth adaptive;
    ``lq_runs`` fixed-step instances per (lq kind, kappa), since an adaptive
    l_q run backtracks four times per step and costs five fixed runs.  The
    counts put the median item among the fixed hard/rt runs and the 90th
    percentile among the l_q runs."""
    items = []
    for spec in KINDS:
        is_lq = spec.startswith("lq")
        for kappa in KAPPAS:
            s = criterion_sparsity(spec, kappa)
            for i in range(lq_runs if is_lq else runs):
                adaptive = not is_lq and i % 5 == 4
                items.append(
                    Item(
                        f"{spec}/kappa={kappa:g}/{'adaptive' if adaptive else 'fixed'}",
                        partial(_theorem1_run, spec, s, kappa, adaptive, item_seed(seed, len(items))),
                    )
                )
    for _ in range(matrix_runs):
        items.append(Item("matrix/rt:0", partial(_matrix_run, item_seed(seed, len(items)))))
    return Workload("convergence", items)


# ---------------------------------------------------------------------------
# concavity: searches, traps and the matrix search


def _search(spec, s, s_prime, d, budget, ascent_steps, seed) -> bool:
    op = operators.parse_operator(spec, s)
    query = concavity.ConcavityQuery(s, s_prime, d)
    report = concavity.empirical_concavity(
        op, query, budget=budget, seed=seed, ascent_steps=ascent_steps
    )
    if spec == "soft":  # continuous operators have concavity >= 1
        return report.empirical_max >= 1.0 - 1e-6
    cf = closed_form(spec, query.rho)
    if math.isinf(cf):
        return report.closed_form == math.inf and report.empirical_max > 1e3
    return cf - 1e-6 <= report.empirical_max <= cf + 1e-9


def _trap(spec, kappa, s, s_prime, seed) -> bool:
    op = operators.parse_operator(spec, s)
    trap = adversarial.build_trap(
        op, concavity.ConcavityQuery(s, s_prime), 1.0 / kappa, 1.0, seed=seed
    )
    obj = trap.objective
    trace = solver.iterate_threshold(obj, op, trap.x0, solver.StepRule.fixed(), 100)
    return (
        obj.value(trap.x0) == 0.0
        and obj.value(trap.y) < -1e-10
        and bool(np.all(trace.xs == trap.x0))
    )


def _matrix_search(spec, budget, seed) -> bool:
    lifted = lowrank.LiftedOperator(operators.parse_operator(spec, 2))
    report = lowrank.empirical_matrix_concavity(
        lifted, lowrank.MatrixConcavityQuery(6, 6, 2, 1), budget=budget, seed=seed
    )
    vec = closed_form(spec, 0.5)
    return vec - 1e-9 <= report.empirical_max <= vec + 1e-4


def concavity_workload(
    seed: int,
    budget: int = 1000,
    ascent_steps: int = 20,
    matrix_budget: int = 50,
    cheap_seeds: int = 3,
) -> Workload:
    """Searches of ``budget`` rows over every kind at the sandwich pairs and
    soft at (2, 1, d=4), the three traps, and the hard and rt:0 matrix
    searches.  The searches of the kinds other than l_q, ten times cheaper,
    run with ``cheap_seeds`` seeds each so that the median item lies well
    inside their group."""
    cases = [(spec, s, sp, None) for s, sp in SEARCH_PAIRS for spec in KINDS + ("soft",)]
    cases.append(("soft", 2, 1, 4))
    cases += [c for c in cases if not c[0].startswith("lq")] * (cheap_seeds - 1)
    items = []
    for spec, s, sp, d in cases:
        items.append(
            Item(
                f"search/{spec}/({s},{sp})",
                partial(_search, spec, s, sp, d, budget, ascent_steps, item_seed(seed, len(items))),
            )
        )
    for spec, kappa, s, sp in TRAP_CASES:
        items.append(
            Item(f"trap/{spec}", partial(_trap, spec, kappa, s, sp, item_seed(seed, len(items))))
        )
    for spec in ("hard", "rt:0"):
        items.append(
            Item(
                f"matrix-search/{spec}",
                partial(_matrix_search, spec, matrix_budget, item_seed(seed, len(items))),
            )
        )
    return Workload("concavity", items)


# ---------------------------------------------------------------------------
# regression: Monte Carlo replicates at the README sizes

S0 = 5
SIGMA = 1.0
FIT_STEPS = 100


def _replicate(kind, n, d, kappa, with_lasso, seed) -> bool:
    spec = regression.DesignSpec(
        kind, n, d, kappa=kappa, block_size=8 if kind == "adversarial-block" else None
    )
    inst = regression.generate_instance(spec, S0, SIGMA, seed)
    kappa_hat = kappa or 1.0
    s = min(int(math.ceil(3.0 * kappa_hat * S0)), d)
    ok = True
    for spec_name in ("rt:0", "hard"):
        op = operators.parse_operator(spec_name, s)
        _, report = regression.fit_iterative(inst, op, s, T=FIT_STEPS, kappa_hat=kappa_hat)
        running = report.trace.running_min
        ok &= (
            report.nnz <= s
            and math.isfinite(report.prediction_error)
            and bool(np.all(np.diff(running) <= 0.0))
        )
    if with_lasso:
        _, report = regression.fit_lasso_baseline(inst)
        ok &= math.isfinite(report.prediction_error) and math.isfinite(report.f_best)
    return ok


def regression_workload(seed: int, reps=(6, 7, 6)) -> Workload:
    """``reps`` replicates of the correlated (400, 80, kappa 4), adversarial
    block (200, 1000, kappa 4) and iid (200, 1000) designs; rt:0 and hard
    fits on each, plus the lasso baseline on iid.  As many cheap correlated
    as costly iid replicates put the median item in the middle of the block
    group."""
    designs = (
        ("correlated-gaussian", 400, 80, 4.0, False),
        ("adversarial-block", 200, 1000, 4.0, False),
        ("iid-gaussian", 200, 1000, None, True),
    )
    items = []
    for (kind, n, d, kappa, lasso), count in zip(designs, reps):
        for _ in range(count):
            items.append(
                Item(
                    f"replicate/{kind}",
                    partial(_replicate, kind, n, d, kappa, lasso, item_seed(seed, len(items))),
                )
            )
    return Workload("regression", items)


# ---------------------------------------------------------------------------
# cli: the README command lines, in-process


def _without_column(text: str, column: str) -> str:
    """CSV text with one named column removed from the header and every row."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cols = lines[header].split(",")
    if column not in cols:
        return text
    j = cols.index(column)
    kept = lines[:header] + [
        ",".join(v for k, v in enumerate(line.split(",")) if k != j) for line in lines[header:]
    ]
    return "\n".join(kept)


class _Command:
    """One command line; its CSV must match the one its first run wrote."""

    def __init__(self, argv, out, volatile_column=None):
        self.argv = argv
        self.out = out
        self.volatile_column = volatile_column
        self.reference = None

    def __call__(self) -> bool:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = cli.main(self.argv)
        if code != 0:
            return False
        with open(self.out) as fh:
            text = fh.read()
        if self.volatile_column:
            text = _without_column(text, self.volatile_column)
        if self.reference is None:
            self.reference = text
            return bool(text)
        return text == self.reference


# Runs per pass of each quick command.  The counts centre the median item in
# the converge group (concavity-curve and prox-trap below it, trap and the
# three slow commands above it: 6 + 6 == 9 + 3), and converge, whose cost
# varies by up to 1.6x with the seed, gets the most seeds, so that the
# median is taken over many instances.
QUICK_RUNS = {"concavity-curve": 6, "converge": 15, "trap": 9, "prox-trap": 6}


def cli_workload(
    seed: int, out_dir: str, regress_reps: int = 3, quick_runs: dict = QUICK_RUNS
) -> Workload:
    """Every README command line.  The four quick commands, where per-invocation
    costs dominate, run ``quick_runs[command]`` times with distinct seeds;
    ``regress`` runs ``regress_reps`` replicates instead of 20 and
    ``validate`` writes its table with ``--out``."""
    quick = [
        ("concavity-curve", ["--rho-grid", "0.01:0.99:0.01"]),
        (
            "converge",
            "--dim 20 --sparsity 9 --s-prime 1 --kappa 2 --operator rt:0 "
            "--step adaptive --iters 200".split(),
        ),
        ("trap", "--operator hard --kappa 1.5 --rho 1.0 --sparsity 2".split()),
        ("prox-trap", ["--dim", "5"]),
    ]
    slow = [
        (
            "regress",
            f"--design iid-gaussian --n 200 --d 1000 --s0 5 --reps {regress_reps} "
            "--operators rt:0 hard --with-lasso".split(),
        ),
        ("lowrank-demo", "--n 8 --m 8 --rank 3 --operator rt:0".split()),
        ("validate", []),
    ]
    items = []
    quick = [(sub, args) for sub, args in quick for _ in range(quick_runs[sub])]
    for sub, args in quick + slow:
        out = os.path.join(out_dir, f"{sub}-{len(items)}.csv")
        argv = [sub, *args, "--out", out, "--seed", str(item_seed(seed, len(items)))]
        volatile = "wall_time" if sub == "regress" else None
        items.append(Item(f"cli/{sub}", _Command(argv, out, volatile)))
    return Workload("cli", items)


WORKLOADS = ("convergence", "concavity", "regression", "cli")

# smaller item lists with the same structure, for the benchmark's own tests
SMOKE = {
    "convergence": {"runs": 1, "lq_runs": 1, "matrix_runs": 1},
    "concavity": {"budget": 20, "ascent_steps": 1, "matrix_budget": 5, "cheap_seeds": 1},
    "regression": {"reps": (1, 1, 1)},
    "cli": {"regress_reps": 1, "quick_runs": dict.fromkeys(QUICK_RUNS, 1)},
}


def build(name: str, seed: int, out_dir: str, smoke: bool = False) -> Workload:
    sizes = SMOKE[name] if smoke else {}
    if name == "convergence":
        return convergence(seed, **sizes)
    if name == "concavity":
        return concavity_workload(seed, **sizes)
    if name == "regression":
        return regression_workload(seed, **sizes)
    if name == "cli":
        return cli_workload(seed, out_dir, **sizes)
    raise ValueError(f"unknown workload {name!r}")
