"""Regression harness tests: generation, certification, fits, Monte Carlo."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from threshlab.operators import hard_operator, reciprocal_operator
from threshlab.regression import (
    DesignSpec,
    EnumerationTooLargeError,
    InfeasibleSpecError,
    condition_scaling_experiment,
    default_lasso_penalty,
    fit_iterative,
    fit_lasso_baseline,
    fit_sparsity,
    generate_instance,
    loglog_slope,
    theorem6_bound_rhs,
    validate_lemma10,
)
from threshlab.solver import Gram


class TestGenerateInstance:
    def test_noiseless_exact(self):
        spec = DesignSpec("iid-gaussian", 200, 50)
        inst = generate_instance(spec, 5, 0.0, seed=0)
        np.testing.assert_array_equal(inst.y, inst.X @ inst.theta0)
        assert np.count_nonzero(inst.theta0) == 5

    def test_bitwise_reproducible(self):
        spec = DesignSpec("correlated-gaussian", 100, 20, kappa=3.0)
        a = generate_instance(spec, 3, 0.7, seed=42)
        b = generate_instance(spec, 3, 0.7, seed=42)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.theta0, b.theta0)

    def test_certified_kappa_within_ten_percent(self):
        for kappa in [2.0, 4.0, 8.0]:
            spec = DesignSpec("correlated-gaussian", 400, 80, kappa=kappa)
            inst = generate_instance(spec, 4, 1.0, seed=3)
            realized = inst.beta / inst.alpha
            assert abs(realized / kappa - 1.0) < 0.10

    def test_block_certification(self):
        spec = DesignSpec("adversarial-block", 150, 60, kappa=4.0, block_size=8)
        inst = generate_instance(spec, 4, 1.0, seed=5)
        b = 8
        gram_block = inst.X[:, :b].T @ inst.X[:, :b] / inst.n
        eigs = np.linalg.eigvalsh(gram_block)
        assert abs(eigs[0] - inst.block_alpha) < 1e-8
        assert abs(eigs[-1] - inst.block_beta) < 1e-8
        assert abs((eigs[-1] / eigs[0]) / 4.0 - 1.0) < 0.10
        # support planted inside the block
        assert np.all(np.flatnonzero(inst.theta0) < b)

    def test_block_size_must_be_positive_even_and_fit(self):
        # only None means the default 8; 0 is refused, not read as None
        assert DesignSpec("adversarial-block", 50, 20, kappa=2.0).block == 8
        assert DesignSpec("adversarial-block", 50, 20, kappa=2.0, block_size=20).block == 20
        for b in (0, -2, -3, 7, 22):
            with pytest.raises(InfeasibleSpecError, match=f"block size {b} must be a positive even"):
                DesignSpec("adversarial-block", 50, 20, kappa=2.0, block_size=b)
        with pytest.raises(InfeasibleSpecError, match=r"at most min\(n, d\) = 6"):
            DesignSpec("adversarial-block", 6, 20, kappa=2.0, block_size=8)
        # a block size is ignored by the other designs
        assert DesignSpec("iid-gaussian", 50, 20, block_size=0).block == 0

    def test_planted_support_must_fit_in_the_block(self):
        spec = DesignSpec("adversarial-block", 50, 20, kappa=2.0, block_size=4)
        inst = generate_instance(spec, 4, 1.0, seed=0)
        assert np.count_nonzero(inst.theta0[:4]) == 4
        with pytest.raises(InfeasibleSpecError, match="s0=5 exceeds the block size 4"):
            generate_instance(spec, 5, 1.0, seed=0)
        with pytest.raises(InfeasibleSpecError, match="s0=9 exceeds the block size 8"):
            generate_instance(DesignSpec("adversarial-block", 50, 20, kappa=2.0), 9, 1.0, 0)

    def test_infeasible_specs(self):
        with pytest.raises(InfeasibleSpecError):
            DesignSpec("correlated-gaussian", 50, 80, kappa=2.0)  # n < d
        with pytest.raises(InfeasibleSpecError):
            DesignSpec("adversarial-block", 50, 20, kappa=2.0, block_size=7)  # odd
        with pytest.raises(InfeasibleSpecError):
            DesignSpec("unknown-kind", 50, 20)
        with pytest.raises(InfeasibleSpecError):
            generate_instance(DesignSpec("iid-gaussian", 10, 5), 6, 1.0, 0)  # s0 > d
        # kappa must be given, finite and >= 1; kappa = 1 is the edge
        for kind in ("correlated-gaussian", "adversarial-block"):
            for kappa in (None, 0.0, 0.5, -2.0, math.nan, math.inf):
                with pytest.raises(InfeasibleSpecError, match="kappa"):
                    DesignSpec(kind, 50, 20, kappa=kappa)
            assert DesignSpec(kind, 50, 20, kappa=1.0).kappa == 1.0

    def test_gradient_identity(self):
        spec = DesignSpec("iid-gaussian", 60, 25)
        inst = generate_instance(spec, 3, 1.0, seed=6)
        obj = inst.objective()
        rng = np.random.default_rng(7)
        theta = rng.standard_normal(25)
        analytic = obj.grad(theta)
        direct = -inst.X.T @ (inst.y - inst.X @ theta) / inst.n
        np.testing.assert_allclose(analytic, direct, rtol=1e-12, atol=1e-12)
        # finite differences on the residual loss (constant offset drops out)
        h = 1e-6

        def loss(t):
            r = inst.y - inst.X @ t
            return float(r @ r) / (2 * inst.n)

        for i in range(0, 25, 7):
            e = np.zeros(25)
            e[i] = h
            fd = (loss(theta + e) - loss(theta - e)) / (2 * h)
            assert abs(fd - analytic[i]) <= 1e-6 * max(1.0, abs(fd))

    def test_wide_objective_holds_no_d_by_d_array(self):
        spec = DesignSpec("iid-gaussian", 50, 4000)
        inst = generate_instance(spec, 5, 1.0, seed=12)
        obj = inst.objective()
        assert isinstance(obj.H, Gram) and obj.H.X is inst.X
        held = [*vars(obj).values(), *vars(obj.H).values()]
        assert all(v.size < 4000 * 4000 for v in held if isinstance(v, np.ndarray))
        # a tall design keeps the dense X'X/n: no larger than X, cheaper to apply
        tall = generate_instance(DesignSpec("iid-gaussian", 60, 25), 3, 1.0, seed=6)
        assert tall.objective().H.shape == (25, 25)

    def test_objective_built_once_over_read_only_data(self):
        inst = generate_instance(DesignSpec("iid-gaussian", 50, 400), 5, 1.0, seed=13)
        assert inst.objective() is inst.objective()
        for a in (inst.X, inst.theta0, inst.y):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        other = dataclasses.replace(inst, y=inst.y + 1.0)
        assert other.objective() is not inst.objective()
        assert not np.array_equal(other.objective().g, inst.objective().g)


class TestFitIterative:
    def test_orthogonal_noiseless_one_step(self):
        # X'X = n I: a single fixed step recovers theta0 exactly
        rng = np.random.default_rng(8)
        n, d, s0 = 64, 8, 3
        Q, _ = np.linalg.qr(rng.standard_normal((n, d)))
        X = Q * math.sqrt(n)
        theta0 = np.zeros(d)
        theta0[:s0] = [1.0, -1.0, 1.0]
        spec = DesignSpec("iid-gaussian", n, d)
        inst = dataclasses.replace(
            generate_instance(spec, s0, 0.0, seed=9),
            X=X, theta0=theta0, y=X @ theta0, alpha=1.0, beta=1.0,
        )
        theta_hat, report = fit_iterative(inst, hard_operator(s0), s0, T=1)
        np.testing.assert_allclose(theta_hat, theta0, atol=1e-12)
        assert report.prediction_error <= 1e-20

    def test_running_best_monotone(self):
        spec = DesignSpec("iid-gaussian", 100, 200)
        inst = generate_instance(spec, 5, 1.0, seed=10)
        _, report = fit_iterative(inst, reciprocal_operator(15, 0.0), 15, T=50)
        fs = report.trace.running_min
        assert np.all(np.diff(fs) <= 0.0)

    def test_bound_fields(self):
        spec = DesignSpec("iid-gaussian", 100, 300)
        inst = generate_instance(spec, 4, 1.0, seed=11)
        _, report = fit_iterative(
            inst, reciprocal_operator(12, 0.0), 12, T=50, kappa_hat=1.0
        )
        assert report.bound_rhs is not None
        assert report.bound_violated in (True, False)

    def test_hard_smoke_no_bound(self):
        spec = DesignSpec("iid-gaussian", 100, 300)
        inst = generate_instance(spec, 4, 1.0, seed=12)
        theta_hat, report = fit_iterative(inst, hard_operator(4), 4, T=50)
        assert math.isfinite(report.prediction_error)
        assert report.bound_rhs is None

    def test_theorem6_geometric_term_vanishes_at_kappa_one(self):
        v1 = theorem6_bound_rhs(1.0, 3.0, 1.0, 5, 1000, 200, 0.05, 1, 5.0, 5.0)
        v2 = theorem6_bound_rhs(1.0, 3.0, 1.0, 5, 1000, 200, 0.05, 500, 5.0, 5.0)
        assert v1 == v2


class TestLasso:
    def test_lambda_zero_matches_least_squares(self):
        spec = DesignSpec("correlated-gaussian", 120, 20, kappa=3.0)
        inst = generate_instance(spec, 3, 0.5, seed=13)
        theta_hat, _ = fit_lasso_baseline(inst, lam=0.0, T=20000, kkt_tol=1e-12)
        ls = np.linalg.lstsq(inst.X, inst.y, rcond=None)[0]
        np.testing.assert_allclose(theta_hat, ls, atol=1e-6)

    def test_noiseless_positive_penalty_biased(self):
        spec = DesignSpec("iid-gaussian", 150, 30)
        inst = generate_instance(spec, 3, 0.0, seed=14)
        theta_hat, report = fit_lasso_baseline(inst, lam=0.2)
        assert report.prediction_error > 0.0

    def test_comparable_error_with_iterative(self):
        errs_rt, errs_lasso = [], []
        spec = DesignSpec("iid-gaussian", 200, 1000)
        for seed in range(50):
            inst = generate_instance(spec, 5, 1.0, seed=100 + seed)
            _, r1 = fit_iterative(inst, reciprocal_operator(15, 0.0), 15, T=60)
            _, r2 = fit_lasso_baseline(inst, T=400, kkt_tol=1e-6)
            errs_rt.append(r1.prediction_error)
            errs_lasso.append(r2.prediction_error)
        ratio = np.mean(errs_lasso) / np.mean(errs_rt)
        assert 0.2 <= ratio <= 5.0

    def test_default_penalty_scale(self):
        spec = DesignSpec("iid-gaussian", 200, 1000)
        inst = generate_instance(spec, 5, 1.0, seed=15)
        assert abs(default_lasso_penalty(inst) - 2 * math.sqrt(math.log(1000) / 200)) < 1e-12


class TestScalingExperiment:
    def test_small_run_and_slope(self):
        rows, means = condition_scaling_experiment(
            [1.0, 2.0], [reciprocal_operator(1, 0.0)], reps=3, seed=0, n=100, d=30, s0=3, T=60
        )
        assert len(rows) == 6
        ks = [1.0, 2.0]
        ms = [means[(k, "rt:0")] for k in ks]
        assert all(m > 0 for m in ms)
        slope = loglog_slope(ks, ms)
        assert math.isfinite(slope)

    def test_sparsity_capped_at_dimension(self):
        rows, _ = condition_scaling_experiment(
            [8.0], [reciprocal_operator(1, 0.0)], reps=1, seed=0, n=60, d=20, s0=4, T=10
        )
        assert rows[0]["s"] == 20  # ceil(3*8*4) = 96 capped at d
        assert fit_sparsity(8.0, 4, 20) == 20
        assert fit_sparsity(1.0, 5, 1000) == 15
        assert fit_sparsity(1.2, 4, 80) == 15  # ceil(14.4)

    def test_well_conditioned_operators_comparable(self):
        # kappa = 1: hard and reciprocal land within a factor of two of each other
        _, means = condition_scaling_experiment(
            [1.0],
            [hard_operator(1), reciprocal_operator(1, 0.0)],
            reps=10,
            seed=0,
            n=120,
            d=30,
            s0=3,
            T=80,
        )
        ratio = means[(1.0, "hard")] / means[(1.0, "rt:0")]
        assert 0.5 <= ratio <= 2.0


class TestLemma10:
    def test_enumeration_guard(self):
        with pytest.raises(EnumerationTooLargeError):
            validate_lemma10(13, 2, 50, 0.05, 10, 0)

    def test_violation_rate_small(self):
        rate = validate_lemma10(10, 2, 50, 0.05, 400, seed=0)
        assert rate <= 0.05

    def test_delta_one_instant(self):
        rate = validate_lemma10(6, 2, 40, 1.0, 200, seed=1)
        assert rate <= 1.0  # bound with log(1/delta) = 0 still dominated by 7 s log d

    def test_s_equals_d_chi_square_oracle(self):
        # single support: max reduces to one chi-square draw with <= 2 s dof;
        # compare the violation rate against the exact chi-square tail
        d, s, n, delta, reps = 5, 5, 40, 0.05, 3000
        rate = validate_lemma10(d, s, n, delta, reps, seed=2)
        bound = 7 * s * math.log(d) + 3 * math.log(1 / delta)
        exact_tail = 1.0 - stats.chi2.cdf(bound, df=s)
        assert rate <= max(exact_tail * 5, 2e-3) + 3 * math.sqrt(exact_tail / reps)


class TestAdversarialBlockDirection:
    def test_hard_error_at_least_reciprocal(self):
        # directional Monte Carlo: on block instances hard thresholding's mean
        # prediction error is no better than reciprocal thresholding's
        kappa, s0, n, d = 4.0, 4, 300, 150
        s = fit_sparsity(kappa, s0, d)
        spec = DesignSpec("adversarial-block", n, d, kappa=kappa, block_size=8)
        hard_errs, rt_errs = [], []
        for rep in range(25):
            inst = generate_instance(spec, s0, 1.0, seed=500 + rep)
            _, rh = fit_iterative(inst, hard_operator(s), s, T=120)
            _, rr = fit_iterative(inst, reciprocal_operator(s, 0.0), s, T=120)
            hard_errs.append(rh.prediction_error)
            rt_errs.append(rr.prediction_error)
        assert np.mean(hard_errs) >= np.mean(rt_errs)
