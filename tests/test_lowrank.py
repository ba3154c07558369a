"""Lifted-operator tests: SVD reduction, concavity transfer, matrix solver."""

import numpy as np
import pytest

from threshlab.concavity import (
    ConcavityQuery,
    _ratios,
    closed_form_gamma,
    concavity_ratio,
    gamma_hard,
    gamma_reciprocal,
)
from threshlab.lowrank import (
    LiftedOperator,
    MatrixConcavityQuery,
    MatrixObjective,
    build_matrix_trap,
    embed_diag,
    empirical_matrix_concavity,
    iterate_threshold_matrix,
    numerical_rank,
)
from threshlab.operators import (
    InvalidParameterError,
    hard_operator,
    lq_operator,
    parse_operator,
    reciprocal_operator,
)
from threshlab.solver import Gram, QuadraticObjective, StepRule
from threshlab.validate import check_theorem7_run, check_trap


def _random_orthogonal(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


class TestLiftApply:
    def test_diagonal_case(self):
        Z = np.diag([3.0, 1.0, 2.0])
        out = LiftedOperator(hard_operator(2))(Z)
        np.testing.assert_allclose(out, np.diag([3.0, 0.0, 2.0]), atol=1e-12)

    def test_conjugated_reciprocal(self):
        rng = np.random.default_rng(0)
        Q1 = _random_orthogonal(rng, 4)
        Q2 = _random_orthogonal(rng, 4)
        Z = Q1[:, :2] @ np.diag([2.0, 1.0]) @ Q2[:, :2].T
        out = LiftedOperator(reciprocal_operator(1, 0.0))(Z)
        expected = Q1[:, :1] @ np.asarray([[1.0 + np.sqrt(3.0) / 2.0]]) @ Q2[:, :1].T
        assert np.linalg.norm(out - expected) <= 1e-10

    def test_idempotent_on_low_rank(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 6))
        out = LiftedOperator(hard_operator(2))(A)
        assert np.linalg.norm(out - A) <= 1e-10

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(2)
        sv = np.asarray([3.0, 2.2, 1.4, 0.9, 0.3])
        Z = np.diag(sv)
        base = reciprocal_operator(2, 0.5)
        Q1 = _random_orthogonal(rng, 5)
        Q2 = _random_orthogonal(rng, 5)
        lhs = LiftedOperator(base)(Q1 @ Z @ Q2.T)
        rhs = Q1 @ LiftedOperator(base)(Z) @ Q2.T
        assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_rank_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            Z = rng.standard_normal((6, 5))
            out = LiftedOperator(lq_operator(2, 0.5))(Z)
            assert numerical_rank(out) <= 2

    def test_lift_consistency_with_vector(self):
        # diag(z) reduces to the vector operator on sorted magnitudes
        rng = np.random.default_rng(4)
        z = np.sort(rng.uniform(0.5, 4.0, 6))[::-1]
        base = reciprocal_operator(3, 0.0)
        np.testing.assert_allclose(
            LiftedOperator(base)(np.diag(z)), np.diag(base(z)), atol=1e-10
        )

    def test_stack_matches_single(self):
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((4, 3, 6, 5))
        lifted = LiftedOperator(reciprocal_operator(2, 0.0))
        out = lifted(Z)
        assert out.shape == Z.shape
        for idx in np.ndindex(*Z.shape[:2]):
            np.testing.assert_allclose(out[idx], lifted(Z[idx]), rtol=0, atol=1e-12)


class TestMatrixConcavityRatio:
    def test_diagonal_embedding_matches_vector(self):
        base = hard_operator(2)
        lifted = LiftedOperator(base)
        z = np.asarray([2.0, 1.5, 1.0, 0.7, 0.4, 0.2])
        y = np.zeros(6)
        y[2] = 0.9
        rv = concavity_ratio(y, z, base)
        rm = concavity_ratio(embed_diag(y, 6, 6), embed_diag(z, 6, 6), lifted)
        assert abs(rv - rm) < 1e-12

    def test_stacked_identity_witness(self):
        # Z = [I; 0], Y = t V_perp V_perp^T achieves at least rho/(1+rho)
        base = hard_operator(2)
        lifted = LiftedOperator(base)
        n, m, s, sp = 7, 5, 2, 1
        Z = embed_diag(np.ones(m), n, m)
        X = lifted(Z)
        r = float(np.linalg.norm(X)) / np.sqrt(s)
        rho = sp / s
        t = (r / rho) * (1.0 - r + np.sqrt(r * r - 2 * r + 1 + rho))
        Y = np.zeros((n, m))
        Y[s, s] = t
        ratio = concavity_ratio(Y, Z, lifted)
        assert ratio >= rho / (1 + rho) - 1e-9

    def test_random_near_witness_finite(self):
        rng = np.random.default_rng(5)
        lifted = LiftedOperator(hard_operator(2))
        Z = rng.standard_normal((5, 5))
        Y = lifted(Z) + 0.01 * rng.standard_normal((5, 5))
        X = lifted(Z)
        expect = float(np.sum((Y - X) * (Z - X))) / float(np.sum((Y - X) ** 2))
        assert abs(concavity_ratio(Y, Z, lifted) - expect) < 1e-14


class TestEmpiricalMatrixConcavity:
    @pytest.mark.parametrize(
        "base_fn,cf",
        [
            (lambda: hard_operator(2), gamma_hard(0.5)),
            (lambda: reciprocal_operator(2, 0.0), gamma_reciprocal(0.5, 0.0)),
        ],
    )
    def test_transfer_two_sided(self, base_fn, cf):
        lifted = LiftedOperator(base_fn())
        report = empirical_matrix_concavity(
            lifted, MatrixConcavityQuery(6, 6, 2, 1), budget=150, seed=0
        )
        assert cf - 1e-9 <= report.empirical_max <= cf + 1e-6

    def test_embedding_reaches_vector_value(self):
        lifted = LiftedOperator(hard_operator(2))
        report = empirical_matrix_concavity(
            lifted, MatrixConcavityQuery(6, 6, 2, 1), budget=0, seed=0
        )
        assert report.empirical_max >= gamma_hard(0.5) - 1e-9

    def test_report_witnesses_recompute(self):
        lifted = LiftedOperator(reciprocal_operator(2, 0.0))
        report = empirical_matrix_concavity(
            lifted, MatrixConcavityQuery(5, 5, 2, 1), budget=50, seed=1
        )
        rm = concavity_ratio(report.witness_y, report.witness_z, lifted)
        assert abs(rm - report.ratio_at_witness) < 1e-12

    @pytest.mark.parametrize("spec", ["hard", "rt:0", "rt:0.5", "lq:0.4"])
    @pytest.mark.parametrize("n, m, s, sp", [(6, 6, 2, 1), (8, 8, 3, 1)])
    def test_no_matrix_pair_beats_the_closed_form(self, spec, n, m, s, sp):
        # the lifting result's upper direction, on the non-diagonal pairs the
        # search no longer tries: (a) random rank-s' pairs Y = A B' with a
        # random Z, and (b) the embedded witness with the factors of Y and
        # the entries of Z perturbed by eps times a standard normal
        lifted = LiftedOperator(parse_operator(spec, s))
        query = MatrixConcavityQuery(n, m, s, sp)
        cf = closed_form_gamma(lifted.base, query.rho)
        rng = np.random.default_rng(0)

        def best(A, B, Z):
            k = Z.shape[0]
            Y = np.einsum("bik,bjk->bij", A, B)
            return _ratios(Y.reshape(k, -1), Z.reshape(k, -1), lifted(Z).reshape(k, -1)).max()

        k = 2000
        scores = [
            best(
                rng.standard_normal((k, n, sp)),
                rng.standard_normal((k, m, sp)),
                rng.standard_normal((k, n, m)),
            )
        ]
        report = empirical_matrix_concavity(lifted, query, budget=0)
        U, sv, Vt = np.linalg.svd(report.witness_y)
        A0, B0 = U[:, :sp] * sv[:sp], Vt[:sp].T
        k = 500
        for eps in (1e-1, 1e-2, 1e-3):
            scores.append(
                best(
                    A0 + eps * rng.standard_normal((k, n, sp)),
                    B0 + eps * rng.standard_normal((k, m, sp)),
                    report.witness_z + eps * rng.standard_normal((k, n, m)),
                )
            )
        assert max(scores) <= cf + 1e-9, (cf, scores)

    def test_negative_budget_refused(self):
        lifted = LiftedOperator(hard_operator(2))
        with pytest.raises(InvalidParameterError, match="budget=-5 must be >= 0"):
            empirical_matrix_concavity(lifted, MatrixConcavityQuery(6, 6, 2, 1), budget=-5)

    def test_query_validation(self):
        with pytest.raises(InvalidParameterError):
            MatrixConcavityQuery(4, 4, 3, 2)  # s + s' > min(n, m)


class TestMatrixSolver:
    def test_one_step_exact_rank_recovery(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6))
        obj = QuadraticObjective(np.eye(36), m=A, g=np.zeros((6, 6)), alpha=1.0, beta=1.0)
        trace = iterate_threshold_matrix(
            obj, LiftedOperator(hard_operator(3)), np.zeros((6, 6)), None, 1
        )
        assert np.linalg.norm(trace.xs[0] - A) <= 1e-10

    def test_rank_constraint_enforced(self):
        rng = np.random.default_rng(7)
        obj = QuadraticObjective.random_instance((5, 5), 1.0, 2.0, rng)
        lifted = LiftedOperator(reciprocal_operator(2, 0.0))
        trace = iterate_threshold_matrix(obj, lifted, np.zeros((5, 5)), None, 20)
        for X in trace.xs:
            assert numerical_rank(X) <= 2

    def test_theorem7_bound_small_batch(self):
        # the displayed convergence inequality holds (gamma < 1/2 regime)
        rng = np.random.default_rng(8)
        kappa = 2.0
        lifted = LiftedOperator(reciprocal_operator(3, 0.0))
        gamma = gamma_reciprocal(1.0 / 3.0, 0.0)
        for _ in range(5):
            obj = QuadraticObjective.random_instance((8, 8), 1.0, kappa, rng)
            ok, detail = check_theorem7_run(obj, lifted, None, 50, gamma)
            assert ok, detail

    def test_adaptive_rule_floor(self):
        rng = np.random.default_rng(9)
        obj = QuadraticObjective.random_instance((6, 6), 1.0, 3.0, rng)
        lifted = LiftedOperator(hard_operator(2))
        trace = iterate_threshold_matrix(
            obj, lifted, np.zeros((6, 6)), StepRule.adaptive(), 20
        )
        assert np.all(trace.etas >= 1.0 / obj.beta)

    def test_theorem7_bound_under_adaptive_rule(self):
        # the fixed-step guarantee is checked empirically under backtracking too
        rng = np.random.default_rng(11)
        kappa = 2.0
        lifted = LiftedOperator(reciprocal_operator(3, 0.0))
        gamma = gamma_reciprocal(1.0 / 3.0, 0.0)
        for _ in range(3):
            obj = QuadraticObjective.random_instance((8, 8), 1.0, kappa, rng)
            ok, detail = check_theorem7_run(obj, lifted, StepRule.adaptive(), 50, gamma)
            assert ok, detail

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_raises_before_any_svd(self, bad):
        # one policy for every non-finite entry: the lift, the rank and the
        # matrix solver raise InvalidParameterError, never numpy's LinAlgError
        X = np.eye(4)
        X[1, 2] = bad
        lifted = LiftedOperator(hard_operator(2))
        for call in (lambda: lifted(X), lambda: lifted(np.stack([np.eye(4), X])),
                     lambda: numerical_rank(X)):
            with pytest.raises(InvalidParameterError, match="NaN or infinite entry"):
                call()
        obj = QuadraticObjective.random_instance((4, 4), 1.0, 2.0, np.random.default_rng(13))
        with pytest.raises(InvalidParameterError, match="NaN or infinite entry"):
            iterate_threshold_matrix(obj, lifted, X, None, 2)

    def test_input_without_two_axes_refused(self):
        lifted = LiftedOperator(hard_operator(1))
        for Z in (np.ones(4), np.float64(2.0)):
            for call in (lambda: lifted(Z), lambda: numerical_rank(Z)):
                with pytest.raises(InvalidParameterError, match="at least two axes"):
                    call()

    def test_transposed_start_refused(self):
        obj = QuadraticObjective.random_instance((5, 4), 1.0, 2.0, np.random.default_rng(12))
        with pytest.raises(InvalidParameterError):
            iterate_threshold_matrix(
                obj, LiftedOperator(hard_operator(2)), np.zeros((4, 5)), None, 2
            )
        with pytest.raises(InvalidParameterError):
            obj.value(np.zeros((4, 5)))

    def test_factored_gram_over_matrices(self):
        # the Hessian A'A/n of a matrix-sensing loss ||A vec(X) - b||^2 / (2n)
        # with n < pq stays factored, and the lifted solver runs on it as is
        rng = np.random.default_rng(13)
        p, q, n = 6, 5, 12
        A = rng.standard_normal((n, p * q))
        M, g = rng.standard_normal((2, p, q))
        beta = Gram(A).eig_range()[1]
        obj = QuadraticObjective(Gram(A), M, g, 0.0, beta)
        dense = QuadraticObjective(A.T @ A / n, M, g, 0.0, beta)
        for X in rng.standard_normal((3, p, q)):
            f, grad = obj.value_and_grad(X)
            f_dense, grad_dense = dense.value_and_grad(X)
            assert grad.shape == (p, q)
            np.testing.assert_allclose(f, f_dense, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(grad, grad_dense, rtol=1e-12, atol=1e-12)
        trace = iterate_threshold_matrix(
            obj, LiftedOperator(hard_operator(2)), np.zeros((p, q)), None, 20
        )
        assert len(trace.xs) == 20 and all(numerical_rank(X) <= 2 for X in trace.xs)
        assert trace.running_min[-1] < obj.value(np.zeros((p, q)))

    def test_benchmark_spelling_of_a_matrix_objective(self):
        # perfbench/tracer.py patches random_certified and
        # perfbench/workloads.py reads vec_objective
        obj = MatrixObjective.random_certified(5, 4, 1.0, 3.0, np.random.default_rng(14))
        ref = QuadraticObjective.random_instance((5, 4), 1.0, 3.0, np.random.default_rng(14))
        for name in ("H", "m", "g", "alpha", "beta"):
            assert np.asarray(getattr(obj, name)).tobytes() == np.asarray(getattr(ref, name)).tobytes()
        assert obj.m.shape == (5, 4) and obj.vec_objective is obj

    def test_requires_low_rank_start(self):
        rng = np.random.default_rng(10)
        obj = QuadraticObjective.random_instance((4, 4), 1.0, 2.0, rng)
        with pytest.raises(InvalidParameterError):
            iterate_threshold_matrix(
                obj, LiftedOperator(hard_operator(1)), rng.standard_normal((4, 4)), None, 2
            )


class TestMatrixTrap:
    def test_embedded_trap_stationary(self):
        obj, X0, Y, Z, gamma_hat = build_matrix_trap(
            hard_operator(2), ConcavityQuery(2, 2), 1.0 / 1.5, 1.0
        )
        ok, detail = check_trap(obj, LiftedOperator(hard_operator(2)), X0, Y, 30)
        assert ok, detail
