"""Built-in invariant suite backing the ``validate`` CLI subcommand.

Fast spot checks of the library's mathematical contracts: operator axioms on
random inputs, the closed-form concavity table, search soundness, solver
guarantees, trap behavior, lifting consistency, and the regression gradient.
Each check returns (name, passed, detail).
"""

from __future__ import annotations

import math

import numpy as np

from . import concavity as conc
from .adversarial import build_prox_trap, build_trap, default_prox_lambda_grid, sweep_prox_path
from .concavity import ConcavityQuery, empirical_concavity, lower_bound_witness
from .lowrank import LiftedOperator, embed_diag, lift_apply
from .operators import (
    ShrinkageFunction,
    custom_operator,
    hard_operator,
    parse_operator,
    prox_l1,
    reciprocal_operator,
)
from .regression import DesignSpec, generate_instance
from .solver import (
    QuadraticObjective,
    StepRule,
    check_theorem1_bound,
    iterate_prox,
    iterate_threshold,
    kkt_residual_l1,
)

_OPERATORS = ["hard", "soft", "rt:0", "rt:0.5", "lq:0.666666667", "lq:0.4"]


def _operator_axioms(rng) -> tuple:
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
            sel = set(np.argsort(-np.abs(z), kind="stable")[:s].tolist())
            if not set(np.flatnonzero(out).tolist()) <= sel:
                return False, f"support agreement violated for {name}"
    return True, f"40 random inputs x {len(_OPERATORS)} operators"


def _closed_forms() -> tuple:
    for rho in np.arange(0.05, 0.951, 0.05):
        if abs(conc.gamma_hard(rho) - math.sqrt(rho) / 2) > 1e-12:
            return False, f"gamma_hard wrong at rho={rho}"
        if abs(conc.gamma_optimal(rho) - rho / (1 + rho)) > 1e-12:
            return False, f"gamma_optimal wrong at rho={rho}"
        if abs(conc.gamma_shrink_class(rho, (1 - rho) / 2) - rho / (1 + rho)) > 1e-12:
            return False, f"optimal sigma(1) identity fails at rho={rho}"
        if abs(conc.gamma_lq(rho, 2 / 3) - conc.gamma_reciprocal(rho, 0.0)) > 1e-12:
            return False, f"lq(2/3) != rt(0) at rho={rho}"
    return True, "rho grid 0.05..0.95"


def _dominance() -> tuple:
    for rho in np.arange(0.01, 0.991, 0.01):
        g_opt, g_hard = conc.gamma_optimal(rho), conc.gamma_hard(rho)
        g_rt = conc.gamma_reciprocal(rho, 0.0)
        if not (g_opt <= g_rt + 1e-15 and g_rt <= rho / min(1.0, 4 * (1 - rho)) + 1e-12):
            return False, f"dominance fails at rho={rho}"
        if g_opt > g_hard + 1e-15:
            return False, f"optimal above hard at rho={rho}"
        if rho <= 0.25 and not g_rt < g_hard:
            return False, f"crossing fails at rho={rho}"
    return True, "dominance and crossing on rho grid"


def _search_sandwich(seed: int) -> tuple:
    for name in ["hard", "rt:0", "lq:0.4"]:
        op = parse_operator(name, 4)
        query = ConcavityQuery(4, 2)
        report = empirical_concavity(op, query, budget=100, seed=seed)
        cf = report.closed_form
        if not (cf - 1e-6 <= report.empirical_max <= cf + 1e-9):
            return False, f"{name}: {report.empirical_max} vs closed {cf}"
    return True, "hard, rt:0, lq:0.4 at (s,s')=(4,2), budget 100"


def _universal_witness(seed: int) -> tuple:
    table = ShrinkageFunction.from_table([1.0, 2.0, 50.0], [0.35, 0.2, 0.05])
    ops = [parse_operator(n, 5) for n in _OPERATORS] + [custom_operator(5, table)]
    query = ConcavityQuery(5, 2)
    floor = query.rho / (1 + query.rho) - 1e-9
    for op in ops:
        _, _, ratio = lower_bound_witness(op, query)
        if ratio < floor:
            return False, f"{op.name}: ratio {ratio} below {floor}"
    return True, "all kinds incl. custom table at (5,2)"


def _solver_guarantee(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    kappa = 2.0
    op = parse_operator("rt:0", 9)
    gamma = conc.gamma_reciprocal(1.0 / 9.0, 0.0)
    for rule in (StepRule.fixed(), StepRule.adaptive()):
        for _ in range(10):
            obj = QuadraticObjective.random_instance(16, 1.0, kappa, rng, linear_scale=0.3)
            trace = iterate_threshold(obj, op, np.zeros(16), rule, 80)
            mini = obj.minimizer()
            y = np.zeros(16)
            keep = np.argsort(-np.abs(mini), kind="stable")[:1]
            y[keep] = mini[keep]
            ok = check_theorem1_bound(trace, y, gamma, kappa, obj.beta)
            if not np.all(ok):
                return False, "bound violated"
            if np.any(trace.etas < 1.0 / obj.beta):
                return False, "step below the floor"
    return True, "10 instances x 2 step rules at kappa=2"


def _traps(seed: int) -> tuple:
    trap = build_trap(hard_operator(2), ConcavityQuery(2, 2), 1.0 / 1.5, 1.0, seed=seed)
    if trap.objective.value(trap.x0) != 0.0:
        return False, "f(x0) != 0"
    if not trap.objective.value(trap.y) < -1e-10:
        return False, "f(y) not negative"
    trace = iterate_threshold(trap.objective, hard_operator(2), trap.x0, None, 20)
    if not np.all(trace.xs == trap.x0):
        return False, "trap not stationary"
    inst = build_prox_trap(3, np.asarray([1.0, -0.7, 1.3]))
    recs = sweep_prox_path(inst, default_prox_lambda_grid(inst, interior=25))
    if not all(r.disjunct_holds for r in recs):
        return False, "prox disjunction failed"
    return True, "hard trap stationary; prox sweep disjunction holds"


def _lift(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    base = reciprocal_operator(2, 0.0)
    z = np.sort(rng.uniform(0.5, 3.0, size=5))[::-1]
    direct = lift_apply(base, np.diag(z))
    if np.linalg.norm(direct - np.diag(base(z))) > 1e-10:
        return False, "diagonal lift mismatch"
    Q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    Q2, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    Z = Q1 @ np.diag(z) @ Q2.T
    gap = np.linalg.norm(lift_apply(base, Z) - Q1 @ np.diag(base(z)) @ Q2.T)
    if gap > 1e-9:
        return False, f"orthogonal invariance gap {gap}"
    lifted = LiftedOperator(base)
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
    spec = DesignSpec("iid-gaussian", 40, 15)
    inst = generate_instance(spec, 3, 0.5, seed)
    obj = inst.objective()
    theta = np.random.default_rng(seed + 1).standard_normal(15)
    grad = obj.grad(theta)
    expected = -inst.X.T @ (inst.y - inst.X @ theta) / inst.n
    gap = float(np.max(np.abs(grad - expected)) / max(1.0, np.max(np.abs(expected))))
    return gap < 1e-12, f"analytic vs normal-equation gradient gap {gap:.2e}"


def _prox_l1_basics(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(20)
    if not np.array_equal(prox_l1(z, 0.0), z):
        return False, "prox at level 0 is not the identity"
    out = prox_l1(z, 0.5)
    if np.any(np.abs(out) > np.abs(z)) or np.any(np.sign(out) * np.sign(z) < 0):
        return False, "prox grew or flipped an entry"
    return True, "identity at 0, shrinkage toward 0"


def run_validation_suite(seed: int = 0):
    rng = np.random.default_rng(seed)
    checks = [
        ("operator-axioms", lambda: _operator_axioms(rng)),
        ("closed-form-table", _closed_forms),
        ("dominance-crossing", _dominance),
        ("search-sandwich", lambda: _search_sandwich(seed)),
        ("universal-witness", lambda: _universal_witness(seed)),
        ("solver-guarantee", lambda: _solver_guarantee(seed)),
        ("traps", lambda: _traps(seed)),
        ("lifting", lambda: _lift(seed)),
        ("prox-kkt", lambda: _prox_kkt(seed)),
        ("regression-gradient", lambda: _regression_gradient(seed)),
        ("prox-l1", lambda: _prox_l1_basics(seed)),
    ]
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"exception: {exc}"
        results.append((name, bool(ok), detail))
    return results
