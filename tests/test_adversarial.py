"""Trap construction tests: stationarity, strict failure, prox sweep."""

import numpy as np
import pytest

from threshlab import adversarial, concavity
from threshlab.adversarial import (
    ConcavityTooSmallError,
    build_prox_trap,
    build_trap,
    default_prox_lambda_grid,
    sweep_prox_path,
)
from threshlab.concavity import ConcavityQuery
from threshlab.operators import (
    InvalidParameterError,
    hard_operator,
    reciprocal_operator,
    soft_operator,
)
from threshlab.solver import StepRule, iterate_prox
from threshlab.validate import check_prox_sweep, check_trap


class TestBuildTrap:
    def test_hard_kappa_15(self):
        kappa = 1.5
        trap = build_trap(hard_operator(2), ConcavityQuery(2, 2), 1.0 / kappa, 1.0, seed=0)
        assert trap.gamma_hat > 1.0 / (2.0 * kappa)
        ok, detail = check_trap(trap.objective, hard_operator(2), trap.x0, trap.y, 100)
        assert ok, detail
        assert trap.objective.value(trap.y) < trap.objective.value(trap.x0)

    def test_soft_kappa_one(self):
        trap = build_trap(soft_operator(2), ConcavityQuery(2, 2), 1.0, 1.0, seed=0)
        ok, detail = check_trap(trap.objective, soft_operator(2), trap.x0, trap.y, 100)
        assert ok, detail

    def test_reciprocal_high_rho(self):
        kappa = 5.0
        trap = build_trap(
            reciprocal_operator(10, 0.0), ConcavityQuery(10, 9), 1.0 / kappa, 1.0, seed=0
        )
        assert trap.gamma_hat > 1.0 / (2 * kappa)
        ok, detail = check_trap(trap.objective, reciprocal_operator(10, 0.0), trap.x0, trap.y, 100)
        assert ok, detail

    def test_no_trap_below_threshold(self):
        # optimal-parameter reciprocal at rho where gamma = rho/(1+rho) <= 1/(2 kappa)
        kappa = 1.2
        with pytest.raises(ConcavityTooSmallError):
            build_trap(
                reciprocal_operator(4, 0.25), ConcavityQuery(4, 1), 1.0 / kappa, 1.0, seed=0
            )

    def test_spectrum_inside_declared_bounds(self):
        trap = build_trap(hard_operator(2), ConcavityQuery(2, 2), 0.5, 1.0, seed=1)
        eigs = np.linalg.eigvalsh(trap.objective.H)
        assert eigs[0] >= 0.5 - 1e-9
        assert eigs[-1] <= 1.0 + 1e-9

    def test_trap_hessian_rank_one(self):
        # H = beta I + (alpha - beta) u1 u1' has spectrum [alpha, beta, ..., beta]
        # with u1 = (y - x0)/||y - x0|| as the alpha eigenvector
        alpha, beta = 0.25, 1.0
        trap = build_trap(
            reciprocal_operator(10, 0.0), ConcavityQuery(10, 9), alpha, beta, seed=0
        )
        H = trap.objective.H
        u1 = (trap.y - trap.x0) / np.linalg.norm(trap.y - trap.x0)
        expect = np.full(H.shape[0], beta)
        expect[0] = alpha
        np.testing.assert_allclose(np.linalg.eigvalsh(H), expect, rtol=0, atol=1e-12)
        np.testing.assert_allclose(H @ u1, alpha * u1, rtol=0, atol=1e-12)

    def test_strict_failure_magnitude(self):
        # f(y) = -beta ||y-x||^2 (gamma_hat - 1/(2 kappa)) exactly along the
        # soft eigendirection
        kappa = 1.5
        trap = build_trap(hard_operator(2), ConcavityQuery(2, 2), 1.0 / kappa, 1.0, seed=0)
        dist_sq = float(np.sum((trap.y - trap.x0) ** 2))
        expect = -1.0 * dist_sq * (trap.gamma_hat - (1.0 / kappa) / 2.0)
        assert abs(trap.objective.value(trap.y) - expect) < 1e-9

    def test_invalid_bounds(self):
        with pytest.raises(InvalidParameterError):
            build_trap(hard_operator(2), ConcavityQuery(2, 2), -1.0, 1.0)

    def test_families_first_then_full_search(self, monkeypatch):
        # the exact families (budget 0) decide when they clear 1/(2 kappa);
        # the seeded restart search runs only when they fall short
        budgets = []

        def recording(op, query, budget=1000, seed=0):
            budgets.append(budget)
            return concavity.empirical_concavity(op, query, budget=budget, seed=seed)

        # build_trap resolves the name in its own module
        monkeypatch.setattr(adversarial, "empirical_concavity", recording)
        build_trap(hard_operator(2), ConcavityQuery(2, 2), 1.0 / 1.5, 1.0, seed=0)
        assert budgets == [0]
        budgets.clear()
        with pytest.raises(ConcavityTooSmallError):
            build_trap(
                reciprocal_operator(4, 0.25), ConcavityQuery(4, 1), 1.0 / 1.2, 1.0, seed=0
            )
        assert budgets == [0, 400]


class TestBuildProxTrap:
    def test_hand_example_d2(self):
        inst = build_prox_trap(2, np.asarray([1.0, 1.0]))
        np.testing.assert_array_equal(inst.w, [1.0, 1.0])
        # requirement c^2 - 4c - 2 > 0, root 2 + sqrt(6) ~ 4.449; c = 5 works
        assert inst.c == 5.0
        assert inst.c**2 > 4.0 * inst.c + 2.0
        # tie on |w| resolved to the lowest index
        np.testing.assert_array_equal(inst.y, [5.0, 0.0])

    def test_f_v_exceeds_f_y(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            v = rng.uniform(0.2, 3.0, d) * rng.choice([-1.0, 1.0], d)
            inst = build_prox_trap(d, v)
            assert inst.objective.value(inst.v) > inst.objective.value(inst.y)

    def test_c_inequality_always_strict(self):
        # includes the case where the naive scale formula fails (large ||v||)
        for v in ([10.0, 10.0], [0.5, 0.5, 0.5], [100.0, -3.0]):
            v = np.asarray(v)
            inst = build_prox_trap(len(v), v)
            w = inst.w
            lhs = inst.c**2 * np.max(np.abs(w)) ** 2
            rhs = 2 * inst.c * np.linalg.norm(w) * np.linalg.norm(v) + float(v @ v)
            assert lhs > rhs

    def test_dense_required(self):
        with pytest.raises(InvalidParameterError):
            build_prox_trap(3, np.asarray([1.0, 0.0, 2.0]))

    def test_lambda_zero_solution_dense(self):
        inst = build_prox_trap(4, np.asarray([1.0, -2.0, 0.3, 0.7]))
        recs = sweep_prox_path(inst, [0.0])
        assert recs[0].nnz == 4 and recs[0].dense
        # a negative level is refused, not counted as a dense solution
        with pytest.raises(InvalidParameterError):
            sweep_prox_path(build_prox_trap(3, [1.0, -0.7, 1.3]), [-0.5])

    def test_weighted_variant(self):
        v = np.asarray([1.0, -1.5, 2.0])
        weights = np.asarray([1.0, 2.0, 0.5])
        inst = build_prox_trap(3, v, weights=weights)
        np.testing.assert_array_equal(inst.w, weights * np.sign(v))
        ok, detail = check_prox_sweep(inst, default_prox_lambda_grid(inst))
        assert ok, detail


class TestSweepProxPath:
    def test_disjunction_holds_everywhere(self):
        for d, seed in [(2, 0), (5, 1)]:
            rng = np.random.default_rng(seed)
            v = rng.uniform(0.5, 1.5, d) * rng.choice([-1.0, 1.0], d)
            inst = build_prox_trap(d, v)
            ok, detail = check_prox_sweep(inst, default_prox_lambda_grid(inst))
            assert ok, detail

    def test_grid_contains_breakpoints_and_zero(self):
        inst = build_prox_trap(3, np.asarray([0.8, -1.1, 0.4]))
        grid = default_prox_lambda_grid(inst)
        assert 0.0 in grid
        for bp in np.abs(inst.target):
            assert np.min(np.abs(grid - bp)) == 0.0

    def test_above_largest_breakpoint_gives_zero(self):
        inst = build_prox_trap(2, np.asarray([1.0, 1.0]))
        lam = float(np.max(np.abs(inst.target))) * 1.05
        (rec,) = sweep_prox_path(inst, [lam])
        assert rec.nnz == 0
        f0 = 0.5 * float(inst.target @ inst.target)
        assert abs(rec.f_value - f0) < 1e-12
        assert rec.f_value > inst.objective.value(inst.y)

    def test_interior_lambda_dense(self):
        inst = build_prox_trap(3, np.asarray([1.0, 2.0, -0.5]))
        lam = 0.5 * float(np.min(np.abs(inst.target)))
        (rec,) = sweep_prox_path(inst, [lam])
        assert rec.dense

    def test_path_matches_prox_gradient_runs(self):
        # exact soft-threshold path equals converged proximal gradient
        inst = build_prox_trap(4, np.asarray([1.2, -0.6, 0.9, 2.0]))
        grid = default_prox_lambda_grid(inst)
        samples = grid[:: max(len(grid) // 5, 1)][:5]
        for lam in samples:
            recs = sweep_prox_path(inst, [lam])
            trace = iterate_prox(
                inst.objective, float(lam), np.zeros(4), StepRule.fixed(), 4000, kkt_tol=1e-14
            )
            x_exact = np.sign(inst.target) * np.maximum(np.abs(inst.target) - lam, 0.0)
            np.testing.assert_allclose(trace.xs[-1], x_exact, atol=1e-10)
            assert abs(inst.objective.value(trace.xs[-1]) - recs[0].f_value) < 1e-10
