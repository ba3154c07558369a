"""The paper's contracts as predicates, and the suite behind ``threshlab validate``.

Each contract is written once here, as a public ``check_*`` predicate that
returns ``(ok, detail)``; the tests call the same predicates at their own
settings.  ``run_validation_suite`` runs the ordered registry ``_CHECKS`` at
fixed settings: those predicates plus spot checks of the operator axioms,
the lift, the prox solver and the regression gradient.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import concavity as conc
from .adversarial import build_prox_trap, build_trap, default_prox_lambda_grid, sweep_prox_path
from .concavity import ConcavityQuery, empirical_concavity, lower_bound_witness
from .lowrank import LiftedOperator, embed_diag, iterate_threshold_matrix
from .operators import (
    ShrinkageFunction,
    ThresholdingOperator,
    hard_operator,
    parse_operator,
    prox_l1,
    reciprocal_operator,
    support_order,
)
from .regression import DesignSpec, generate_instance
from .solver import (
    QuadraticObjective,
    StepRule,
    check_theorem1_bound,
    convergence_bound_rhs,
    iterate_prox,
    iterate_threshold,
    kkt_residual_l1,
)

_OPERATORS = ["hard", "soft", "rt:0", "rt:0.5", "lq:0.666666667", "lq:0.4"]


# ---------------------------------------------------------------------------
# contracts


def check_closed_form_table(rhos) -> tuple:
    """gamma_hard = sqrt(rho)/2, gamma_optimal = rho/(1+rho), the shrinkage
    class at sigma(1) = (1-rho)/2 attains the optimum, and l_q at q = 2/3
    equals reciprocal at c = 0, each within 1e-12 at every rho of the grid."""
    for rho in rhos:
        if not abs(conc.gamma_hard(rho) - math.sqrt(rho) / 2) <= 1e-12:
            return False, f"gamma_hard wrong at rho={rho}"
        if not abs(conc.gamma_optimal(rho) - rho / (1 + rho)) <= 1e-12:
            return False, f"gamma_optimal wrong at rho={rho}"
        if not abs(conc.gamma_shrink_class(rho, (1 - rho) / 2) - rho / (1 + rho)) <= 1e-12:
            return False, f"optimal sigma(1) identity fails at rho={rho}"
        if not abs(conc.gamma_lq(rho, 2 / 3) - conc.gamma_reciprocal(rho, 0.0)) <= 1e-12:
            return False, f"lq(2/3) != rt(0) at rho={rho}"
    return True, f"rho grid {rhos[0]:.2f}..{rhos[-1]:.2f}"


def check_dominance(rho, g_opt, g_rt, g_hard) -> tuple:
    """Dominance and crossing of the optimal, reciprocal (c = 0) and hard
    concavity curves, given as arrays over the rho grid: g_opt <= g_rt <=
    rho / min(1.0, 4(1 - rho)), g_opt <= g_hard, and g_rt < g_hard for
    rho <= 1/4."""
    rho, g_opt, g_rt, g_hard = (np.asarray(a, dtype=float) for a in (rho, g_opt, g_rt, g_hard))
    conditions = [
        ("optimal above reciprocal", g_opt <= g_rt + 1e-15),
        ("reciprocal above its bound", g_rt <= rho / np.minimum(1.0, 4 * (1 - rho)) + 1e-12),
        ("optimal above hard", g_opt <= g_hard + 1e-15),
        ("crossing fails", (rho > 0.25) | (g_rt < g_hard)),
    ]
    for what, holds in conditions:
        if not np.all(holds):
            return False, f"{what} at rho={rho[np.argmin(holds)]}"
    return True, "dominance and crossing on rho grid"


def dominance_curves(rho) -> tuple:
    """``(rho, g_opt, g_rt, g_hard)``: the arrays ``check_dominance`` takes,
    from the closed forms (optimal, reciprocal at c = 0, hard) on the grid."""
    g = [[conc.gamma_optimal(r), conc.gamma_reciprocal(r, 0.0), conc.gamma_hard(r)] for r in rho]
    return (rho, *np.transpose(g))


def check_sandwich(report: conc.ConcavityReport) -> tuple:
    """The search is sound and tight: cf - 1e-6 <= empirical_max <= cf + 1e-9.

    Where the closed form is +inf (shrinkage kinds at rho = 1) the supremum
    diverges, and the search must show it with a ratio above 1e3.
    """
    cf, found = report.closed_form, report.empirical_max
    if cf is None:
        return False, "no closed form to compare with"
    ok = found > 1e3 if cf == math.inf else cf - 1e-6 <= found <= cf + 1e-9
    return ok, f"{found} vs closed {cf}"


def check_universal_witness(ops, query: ConcavityQuery) -> tuple:
    """The universal witness reaches rho/(1+rho) - 1e-9 for every operator."""
    floor = query.rho / (1 + query.rho) - 1e-9
    for op in ops:
        _, _, ratio = lower_bound_witness(op, query)
        if not ratio >= floor:
            return False, f"{op.name}: ratio {ratio} below {floor}"
    return True, f"{len(ops)} operators at ({query.s},{query.s_prime})"


def check_theorem1_run(obj, op, rule, T: int, s_prime: int, gamma: float) -> tuple:
    """Theorem 1 on one run of T steps from zero.

    The running minimum stays under the bound against the best
    s'-sparse truncation of the minimizer, and no step falls below 1/beta.
    """
    trace = iterate_threshold(obj, op, np.zeros(obj.dim), rule, T)
    y = hard_operator(s_prime)(obj.minimizer())
    if not np.all(check_theorem1_bound(trace, y, gamma, obj.kappa, obj.beta)):
        return False, "bound violated"
    if np.any(trace.etas < 1.0 / obj.beta):
        return False, "step below the floor"
    return True, f"{T} steps under the bound"


def check_theorem7_run(obj, lifted, rule, T: int, gamma: float) -> tuple:
    """Theorem 7's displayed inequality on one matrix run of T steps from zero.

    The comparator is the best rank-1 approximation of the minimizer.  The
    inequality holds for gamma < 1/2, so unlike Theorem 1 it is not gated on
    gamma < 1/(2 kappa).
    """
    trace = iterate_threshold_matrix(obj, lifted, np.zeros(obj.m.shape), rule, T)
    U, sv, Vt = np.linalg.svd(obj.minimizer())
    Y = sv[0] * np.outer(U[:, 0], Vt[0])
    dist0_sq = float(np.sum((trace.x0 - Y) ** 2))
    t = np.arange(1, T + 1)
    rhs = convergence_bound_rhs(t, obj.value(Y), gamma, obj.kappa, obj.beta, dist0_sq)
    return bool(np.all(trace.running_min <= rhs)), f"{T} matrix steps under the bound"


def check_stationary(objective, op, x0, steps: int) -> tuple:
    """``steps`` fixed steps from x0 return x0 bit for bit (vector or matrix)."""
    solve = iterate_threshold_matrix if np.ndim(x0) == 2 else iterate_threshold
    trace = solve(objective, op, x0, StepRule.fixed(), steps)
    if not np.all(trace.xs == x0):
        return False, "trap not stationary"
    return True, f"{steps} exactly stationary steps"


def check_trap(objective, op, x0, y, steps: int) -> tuple:
    """The stationary trap: f(x0) == 0, f(y) < -1e-10, and x0 never moves."""
    if objective.value(x0) != 0.0:
        return False, "f(x0) != 0"
    if not objective.value(y) < -1e-10:
        return False, "f(y) not negative"
    return check_stationary(objective, op, x0, steps)


def check_regression_objective(obj, X, y, theta) -> tuple:
    """``obj`` is the least-squares loss of (X, y) in the solver's form: at
    theta, ``value_and_grad`` gives (||y - X theta||^2 - ||y||^2) / (2n) and
    the normal-equation gradient -X'(y - X theta)/n, each within 1e-12
    relative."""
    r = y - X @ theta
    n = X.shape[0]
    f_ref = float(r @ r - y @ y) / (2 * n)
    g_ref = -X.T @ r / n
    f, g = obj.value_and_grad(theta)
    f_gap = abs(f - f_ref) / max(1.0, abs(f_ref))
    scale = max(1.0, float(np.max(np.abs(g_ref))))
    g_gap = float(np.max(np.abs(g - g_ref))) / scale
    return max(f_gap, g_gap) < 1e-12, f"value gap {f_gap:.2e}, gradient gap {g_gap:.2e}"


def check_prox_sweep(instance, lam_grid) -> tuple:
    """At every penalty level the l1 solution is dense or worse than f(y)."""
    records = sweep_prox_path(instance, lam_grid)
    bad = sum(not r.disjunct_holds for r in records)
    return bad == 0, f"{len(records)} lambdas, {bad} disjunction failures"


# ---------------------------------------------------------------------------
# the suite


def _first_failure(results, passed: str) -> tuple:
    """The first failing ``(ok, detail)`` of ``results``, else ``(True, passed)``."""
    for ok, detail in results:
        if not ok:
            return False, detail
    return True, passed


def _operator_axioms(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    for _ in range(40):
        d = int(rng.integers(2, 10))
        s = int(rng.integers(1, d + 1))
        z = rng.standard_normal(d) * 10.0 ** rng.integers(-2, 3)
        signs = rng.choice([-1.0, 1.0], size=d)
        for name in _OPERATORS:
            op = parse_operator(name, s)
            out = op(z)
            if np.count_nonzero(out) > s:
                return False, f"sparsity violated for {name}"
            if not np.array_equal(op(signs * z), signs * out):
                return False, f"sign equivariance violated for {name}"
            sparse_z = np.where(np.arange(d) < s, z, 0.0)
            if not np.array_equal(op(sparse_z), sparse_z):
                return False, f"idempotence violated for {name}"
            sel = set(support_order(z)[:s].tolist())
            if not set(np.flatnonzero(out).tolist()) <= sel:
                return False, f"support agreement violated for {name}"
    return True, f"40 random inputs x {len(_OPERATORS)} operators"


def _search_sandwich(seed: int) -> tuple:
    results = []
    for name in ["hard", "rt:0", "lq:0.4"]:
        op = parse_operator(name, 4)
        ok, detail = check_sandwich(empirical_concavity(op, ConcavityQuery(4, 2), budget=100, seed=seed))
        results.append((ok, f"{name}: {detail}"))
    return _first_failure(results, "hard, rt:0, lq:0.4 at (s,s')=(4,2), budget 100")


def _universal_witness(seed: int) -> tuple:
    table = ShrinkageFunction.from_table([1.0, 2.0, 50.0], [0.35, 0.2, 0.05])
    ops = [parse_operator(n, 5) for n in _OPERATORS] + [ThresholdingOperator(5, table)]
    results = [check_universal_witness(ops, ConcavityQuery(5, 2))]
    return _first_failure(results, "all kinds incl. custom table at (5,2)")


def _solver_guarantee(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    op = parse_operator("rt:0", 9)
    gamma = conc.gamma_reciprocal(1.0 / 9.0, 0.0)
    runs = (
        check_theorem1_run(
            QuadraticObjective.random_instance(16, 1.0, 2.0, rng, linear_scale=0.3),
            op, rule, 80, 1, gamma,
        )
        for rule in (StepRule.fixed(), StepRule.adaptive())
        for _ in range(10)
    )
    return _first_failure(runs, "10 instances x 2 step rules at kappa=2")


def _traps(seed: int) -> tuple:
    op = hard_operator(2)
    trap = build_trap(op, ConcavityQuery(2, 2), 1.0 / 1.5, 1.0, seed=seed)
    inst = build_prox_trap(3, np.asarray([1.0, -0.7, 1.3]))
    grid = default_prox_lambda_grid(inst, interior=25)
    results = [check_trap(trap.objective, op, trap.x0, trap.y, 20), check_prox_sweep(inst, grid)]
    return _first_failure(results, "hard trap stationary; prox sweep disjunction holds")


def _lift(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    base = reciprocal_operator(2, 0.0)
    lifted = LiftedOperator(base)
    z = np.sort(rng.uniform(0.5, 3.0, size=5))[::-1]
    direct = lifted(np.diag(z))
    if np.linalg.norm(direct - np.diag(base(z))) > 1e-10:
        return False, "diagonal lift mismatch"
    Q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    Q2, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    Z = Q1 @ np.diag(z) @ Q2.T
    gap = np.linalg.norm(lifted(Z) - Q1 @ np.diag(base(z)) @ Q2.T)
    if gap > 1e-9:
        return False, f"orthogonal invariance gap {gap}"
    y = np.asarray([0.4, 0.0, 0.2, 0.0, 0.0])
    zv = np.asarray([2.0, 1.5, 1.0, 0.8, 0.6])
    rv = conc.concavity_ratio(y, zv, base)
    rm = conc.concavity_ratio(embed_diag(y, 5, 5), embed_diag(zv, 5, 5), lifted)
    if abs(rv - rm) > 1e-12:
        return False, "embedding ratio mismatch"
    return True, "diagonal reduction, orthogonal invariance, ratio transfer"


def _prox_kkt(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    obj = QuadraticObjective.random_instance(12, 0.5, 2.0, rng, linear_scale=1.0)
    lam = 0.3
    trace = iterate_prox(obj, lam, np.zeros(12), None, 3000, kkt_tol=1e-8)
    res = kkt_residual_l1(obj, trace.xs[-1], lam)
    return res <= 1e-6, f"KKT residual {res:.2e}"


def _regression_gradient(seed: int) -> tuple:
    results = []
    for n, d in ((40, 15), (15, 40)):  # the dense and the factored Gram
        inst = generate_instance(DesignSpec("iid-gaussian", n, d), 3, 0.5, seed)
        theta = np.random.default_rng(seed + 1).standard_normal(d)
        ok, detail = check_regression_objective(inst.objective(), inst.X, inst.y, theta)
        results.append((ok, f"(n, d) = ({n}, {d}): {detail}"))
    return _first_failure(results, "dense (40, 15) and factored (15, 40) match the normal equations")


def _prox_l1_basics(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(20)
    if not np.array_equal(prox_l1(z, 0.0), z):
        return False, "prox at level 0 is not the identity"
    out = prox_l1(z, 0.5)
    if np.any(np.abs(out) > np.abs(z)) or np.any(np.sign(out) * np.sign(z) < 0):
        return False, "prox grew or flipped an entry"
    return True, "identity at 0, shrinkage toward 0"


_CHECKS = [
    ("operator-axioms", _operator_axioms),
    ("closed-form-table", lambda seed: check_closed_form_table(np.arange(0.05, 0.951, 0.05))),
    ("dominance-crossing", lambda seed: check_dominance(*dominance_curves(np.arange(0.01, 0.991, 0.01)))),
    ("search-sandwich", _search_sandwich),
    ("universal-witness", _universal_witness),
    ("solver-guarantee", _solver_guarantee),
    ("traps", _traps),
    ("lifting", _lift),
    ("prox-kkt", _prox_kkt),
    ("regression-gradient", _regression_gradient),
    ("prox-l1", _prox_l1_basics),
]


def run_validation_suite(seed: int = 0):
    """Run every check in order, printing each result with its time as it
    finishes; returns ``(name, passed, detail)`` triples."""
    results = []
    for name, fn in _CHECKS:
        t0 = time.perf_counter()
        try:
            ok, detail = fn(seed)
        except Exception as exc:
            ok, detail = False, f"exception: {exc}"
        results.append((name, bool(ok), detail))
        ms = (time.perf_counter() - t0) * 1e3
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} ({ms:.1f} ms)", flush=True)
    return results
