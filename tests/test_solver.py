"""Solver tests: gradients, line search, guarantee checks, prox, oracles."""

import dataclasses
import math

import numpy as np
import pytest

from threshlab import solver
from threshlab.concavity import gamma_hard, gamma_reciprocal
from threshlab.lowrank import LiftedOperator, iterate_threshold_matrix
from threshlab.operators import (
    InvalidParameterError,
    hard_operator,
    parse_operator,
    prox_l1,
    reciprocal_operator,
)
from threshlab.regression import DesignSpec, fit_iterative, fit_lasso_baseline, generate_instance
from threshlab.solver import (
    ContractViolationError,
    Gram,
    QuadraticObjective,
    SpectrumCertificationError,
    StepRule,
    check_theorem1_bound,
    convergence_bound_rhs,
    iterate_prox,
    iterate_threshold,
    kkt_residual_l1,
    restricted_minimum_bruteforce,
)
from threshlab.validate import check_theorem1_run


def _reference_ladder(beta, rule):
    """The step sizes of a backtracking loop that shrinks eta_init to the floor."""
    floor = 1.0 / beta
    etas = []
    if rule.kind == "adaptive":
        eta = rule.eta_init if rule.eta_init is not None else 16.0 / beta
        while eta > floor:
            etas.append(eta)
            eta = max(eta * rule.shrink, floor)
    return etas + [floor]


def _sequential_step(obj, x, fx, gx, step_map, etas):
    """Reference step: one operator call per rung, largest step first, each
    candidate scored before the next is mapped.  Same contract as
    ``solver._step``, with ``step_map`` given a one-row stack."""
    rungs = etas.ravel()
    for i, eta in enumerate(rungs[:-1]):
        cand = step_map((x - eta * gx)[None], etas[i : i + 1])[0]
        step = cand - x
        f_cand, g_cand = obj.value_and_grad(cand)
        if math.isfinite(f_cand) and (
            f_cand <= fx + np.vdot(gx, step) + np.vdot(step, step) / (2.0 * eta)
        ):
            return cand, eta, f_cand, g_cand, i
    floor = rungs[-1]
    x_next = step_map((x - floor * gx)[None], etas[-1:])[0]
    return (x_next, floor, *obj.value_and_grad(x_next), len(rungs) - 1)


class _CountingOperator:
    """Delegates to ``op`` and counts its calls."""

    def __init__(self, op):
        self.op, self.calls = op, 0

    @property
    def s(self):
        return self.op.s

    def __call__(self, z):
        self.calls += 1
        return self.op(z)


_LADDER_RULES = {"fixed": StepRule.fixed(), "default": StepRule.adaptive()}


def _ladder_runs(rule):
    """(name, thunk) for the vector, prox and matrix solvers under ``rule``."""
    runs = []
    for seed in range(3):
        rng = np.random.default_rng(40 + seed)
        obj = QuadraticObjective.random_instance(12, 1.0, 4.0, rng, linear_scale=0.5)
        for spec in ("rt:0", "hard", "lq:0.5", "soft"):
            runs.append(
                (
                    f"vector {spec} seed {seed}",
                    lambda obj=obj, spec=spec: iterate_threshold(
                        obj, parse_operator(spec, 4), np.zeros(12), rule, 40
                    ),
                )
            )
        runs.append(
            (
                f"prox seed {seed}",
                lambda obj=obj: iterate_prox(obj, 0.3, np.zeros(12), rule, 40),
            )
        )
        mobj = QuadraticObjective.random_instance((5, 4), 1.0, 3.0, rng)
        runs.append(
            (
                f"matrix seed {seed}",
                lambda mobj=mobj: iterate_threshold_matrix(
                    mobj,
                    LiftedOperator(reciprocal_operator(2, 0.0)),
                    np.zeros((5, 4)),
                    rule,
                    30,
                ),
            )
        )
    return runs


class TestQuadraticObjective:
    def test_center_and_linear_term_share_one_shape(self):
        obj = QuadraticObjective(np.eye(6), np.ones((2, 3)), np.zeros((2, 3)), 1.0, 1.0)
        assert obj.value(np.zeros((2, 3))) == 3.0 and obj.grad(np.zeros((2, 3))).shape == (2, 3)
        for m, g in [((2, 3), (3, 2)), ((2, 3), (6,)), ((6,), (2, 3)), ((2, 2), (2, 2))]:
            with pytest.raises(InvalidParameterError):
                QuadraticObjective(np.eye(6), np.ones(m), np.zeros(g), 1.0, 1.0)

    def test_construction_checks_spectrum(self):
        H = np.diag([1.0, 2.0, 3.0])
        QuadraticObjective(H, np.zeros(3), np.zeros(3), 1.0, 3.0)
        with pytest.raises(SpectrumCertificationError):
            QuadraticObjective(H, np.zeros(3), np.zeros(3), 1.5, 3.0)
        with pytest.raises(SpectrumCertificationError):
            QuadraticObjective(H, np.zeros(3), np.zeros(3), 1.0, 2.5)
        with pytest.raises(SpectrumCertificationError):
            QuadraticObjective(np.asarray([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), np.zeros(2), 0.5, 2.0)

    def test_grad_examples(self):
        obj = QuadraticObjective(np.eye(2), np.zeros(2), np.zeros(2), 1.0, 1.0)
        np.testing.assert_allclose(obj.grad([1.0, 2.0]), [1.0, 2.0])
        rng = np.random.default_rng(0)
        obj2 = QuadraticObjective.random_instance(5, 1.0, 3.0, rng)
        np.testing.assert_allclose(obj2.grad(obj2.m), np.zeros(5), atol=1e-15)

    def test_grad_finite_difference_oracle(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(5):
            obj = QuadraticObjective.random_instance(6, 0.5, 2.0, rng, linear_scale=1.0)
            x = rng.standard_normal(6)
            g = obj.grad(x)
            fd = np.zeros(6)
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                fd[i] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6)

    def test_dimension_mismatch(self):
        obj = QuadraticObjective(np.eye(2), np.zeros(2), np.zeros(2), 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            obj.grad([1.0, 2.0, 3.0])

    def test_value_and_grad_keeps_the_separate_expressions_bit_for_bit(self):
        # the reference: f and the gradient written out, each with its own
        # Hessian product
        rng = np.random.default_rng(14)
        obj = QuadraticObjective.random_instance(9, 0.5, 3.0, rng, linear_scale=1.0)
        H, m, g = obj.H, obj.m, obj.g
        for _ in range(5):
            x = rng.standard_normal(9)
            dx = x - m
            f, grad = obj.value_and_grad(x)
            assert f == float(0.5 * dx @ (H @ dx) + g @ dx)
            assert np.array_equal(grad, H @ (x - m) + g)


class TestGram:
    @pytest.mark.parametrize("n, d", [(30, 80), (80, 30), (40, 40)])
    def test_factored_matches_dense(self, n, d):
        rng = np.random.default_rng(n + d)
        X = rng.standard_normal((n, d))
        m, g = rng.standard_normal(d), rng.standard_normal(d)
        lo, hi = Gram(X).eig_range()
        dense = QuadraticObjective(X.T @ X / n, m, g, lo, hi)
        factored = QuadraticObjective(Gram(X), m, g, lo, hi)
        # dense points, then points 5 entries away from m: x - m is sparse, so
        # the Gram applies it from its cached rows
        sparse = np.tile(m, (3, 1))
        dense_points = rng.standard_normal((3, d))
        for row in sparse:
            row[rng.choice(d, 5, replace=False)] += rng.standard_normal(5)
        for x in [*dense_points, *sparse]:
            f_d, g_d = dense.value_and_grad(x)
            f_f, g_f = factored.value_and_grad(x)
            assert abs(f_f - f_d) <= 1e-12 * abs(f_d)
            assert np.max(np.abs(g_f - g_d)) <= 1e-12 * np.max(np.abs(g_d))

    def test_zero_vector_gives_exact_zeros(self):
        X = np.random.default_rng(5).standard_normal((30, 80))
        G = Gram(X)
        zero = np.zeros(80)
        assert np.array_equal(G @ zero, zero)
        G @ np.eye(80)[3]  # one cached row, which a zero weight must cancel
        assert np.array_equal(G @ zero, zero)

    def test_support_beyond_n_takes_the_factored_product(self):
        rng = np.random.default_rng(6)
        n, d = 30, 80
        X = rng.standard_normal((n, d))
        G = Gram(X)
        v = rng.standard_normal(d)
        assert (G @ v).tobytes() == (X.T @ (X @ v) / n).tobytes()
        # 20 cached rows leave room for 10 more: 11 new columns overflow it
        G @ np.where(np.arange(d) < 20, v, 0.0)
        w = np.where(np.arange(d) < 31, v, 0.0)
        assert (G @ w).tobytes() == (X.T @ (X @ w) / n).tobytes()
        assert len(G._rows) == 20

    def test_cache_never_outgrows_x(self):
        inst = generate_instance(DesignSpec("iid-gaussian", 200, 1000), 5, 1.0, seed=15)
        fit_lasso_baseline(inst)
        H = inst.objective().H
        assert 0 < len(H._rows) <= inst.n
        assert H._rows.nbytes <= inst.X.nbytes

    def test_fresh_instances_of_one_seed_fit_identically(self):
        spec = DesignSpec("iid-gaussian", 200, 1000)
        fits = []
        for _ in range(2):
            inst = generate_instance(spec, 5, 1.0, seed=16)
            _, rt = fit_iterative(inst, reciprocal_operator(15, 0.0), 15, T=50)
            _, lasso = fit_lasso_baseline(inst)
            fits.append((rt.trace, lasso.trace))
        for a, b in zip(*fits):
            for name in ("xs", "etas", "fs", "backtracks"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("n, d", [(30, 80), (80, 30)])
    def test_eig_range_certifies_the_gram(self, n, d):
        X = np.random.default_rng(3).standard_normal((n, d))
        eigs = np.linalg.eigvalsh(X.T @ X / n)
        lo, hi = Gram(X).eig_range()
        assert abs(hi - eigs[-1]) <= 1e-12 * eigs[-1]
        assert lo == 0.0 if d > n else abs(lo - eigs[0]) <= 1e-12 * eigs[-1]
        with pytest.raises(SpectrumCertificationError):
            QuadraticObjective(Gram(X), np.zeros(d), np.zeros(d), lo, 0.99 * hi)

    def test_dense_only_methods_refuse_the_factored_form(self):
        X = np.random.default_rng(4).standard_normal((3, 6))
        lo, hi = Gram(X).eig_range()
        obj = QuadraticObjective(Gram(X), np.zeros(6), np.ones(6), lo, hi)
        with pytest.raises(InvalidParameterError, match="dense Hessian"):
            obj.minimizer()
        with pytest.raises(InvalidParameterError, match="dense Hessian"):
            restricted_minimum_bruteforce(obj, 2)


class TestLineSearch:
    def test_tight_smoothness_margin(self):
        # H = beta I: the curvature condition at eta = 1/beta holds with ~zero slack
        beta = 4.0
        obj = QuadraticObjective(beta * np.eye(3), np.zeros(3), np.zeros(3), beta, beta)
        op = hard_operator(2)
        x = np.asarray([1.0, -2.0, 0.0])
        trace = iterate_threshold(obj, op, x, StepRule.fixed(), T=1)
        x_next, eta = trace.xs[0], trace.etas[0]
        assert eta == 1.0 / beta
        step = x_next - x
        slack = (
            obj.value(x)
            + float(obj.grad(x) @ step)
            + float(step @ step) / (2 * eta)
            - obj.value(x_next)
        )
        assert slack >= -1e-10

    def test_adaptive_exceeds_floor_when_well_conditioned(self):
        # true curvature alpha = 1 but certified beta = 4: larger steps pass
        obj = QuadraticObjective(np.eye(4), np.zeros(4), np.zeros(4), 1.0, 4.0)
        op = hard_operator(2)
        x = np.asarray([1.0, -0.5, 0.0, 0.0])
        eta = iterate_threshold(obj, op, x, StepRule.adaptive(), T=1).etas[0]
        assert eta > 1.0 / 4.0

    def test_adaptive_never_below_floor(self):
        rng = np.random.default_rng(2)
        obj = QuadraticObjective.random_instance(8, 1.0, 5.0, rng, linear_scale=0.5)
        op = reciprocal_operator(3, 0.0)
        trace = iterate_threshold(obj, op, np.zeros(8), StepRule.adaptive(), 30)
        assert np.all(trace.etas >= 1.0 / obj.beta)

    def test_fixed_point_returns_exactly(self):
        # stationary input: gradient step reproduces z and op(z) = x exactly
        z = np.ones(4)
        op = hard_operator(2)
        x = op(z)
        obj = QuadraticObjective(
            np.eye(4), m=x.copy(), g=-(z - x), alpha=1.0, beta=1.0
        )
        x_next = iterate_threshold(obj, op, x, StepRule.fixed(), T=1).xs[0]
        assert np.array_equal(x_next, x)


class TestIterateThreshold:
    def test_one_exact_step(self):
        # f = ||x - e1||^2 / 2, s = 1, from zero: single step lands on e1
        obj = QuadraticObjective(np.eye(3), np.asarray([1.0, 0.0, 0.0]), np.zeros(3), 1.0, 1.0)
        trace = iterate_threshold(obj, hard_operator(1), np.zeros(3), None, 1)
        np.testing.assert_array_equal(trace.xs[0], [1.0, 0.0, 0.0])
        assert trace.fs[0] == 0.0

    def test_theorem1_bound_random_instances(self):
        rng = np.random.default_rng(3)
        kappa = 3.0
        for name, gamma_fn in [
            ("hard", lambda rho: gamma_hard(rho)),
            ("rt:0", lambda rho: gamma_reciprocal(rho, 0.0)),
        ]:
            s = 11 if name == "hard" else 8
            rho = 1.0 / s
            gamma = gamma_fn(rho)
            assert gamma < 1.0 / (2 * kappa)
            op = parse_operator(name, s)
            for _ in range(10):
                obj = QuadraticObjective.random_instance(20, 1.0, kappa, rng, linear_scale=0.4)
                for rule in (StepRule.fixed(), StepRule.adaptive()):
                    ok, detail = check_theorem1_run(obj, op, rule, 60, 1, gamma)
                    assert ok, detail

    def test_theorem1_bound_20dim_kappa3(self):
        # 20-dim quadratic, kappa=3, s=6, comparator truncated to s' = s/(2k-1) = 1
        rng = np.random.default_rng(12)
        kappa, s = 3.0, 6
        sp = int(s // (2 * kappa - 1))
        gamma = gamma_reciprocal(sp / s, 0.0)
        assert gamma < 1.0 / (2 * kappa)
        op = reciprocal_operator(s, 0.0)
        for _ in range(10):
            obj = QuadraticObjective.random_instance(20, 1.0, kappa, rng, linear_scale=0.5)
            ok, detail = check_theorem1_run(obj, op, None, 100, sp, gamma)
            assert ok, detail

    def test_adaptive_descends_at_least_as_fast_directionally(self):
        # soft directional claim: the adaptive step's objective is at most the
        # fixed step's at matching t for >= 80% of (instance, t) pairs
        rng = np.random.default_rng(13)
        op = reciprocal_operator(5, 0.0)
        fracs = []
        for _ in range(25):
            obj = QuadraticObjective.random_instance(15, 1.0, 4.0, rng, linear_scale=0.5)
            tf = iterate_threshold(obj, op, np.zeros(15), StepRule.fixed(), 40)
            ta = iterate_threshold(obj, op, np.zeros(15), StepRule.adaptive(), 40)
            fracs.append(np.mean(ta.fs <= tf.fs + 1e-12))
        assert np.mean(fracs) >= 0.8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_raises(self, bad):
        rng = np.random.default_rng(15)
        obj = QuadraticObjective.random_instance(6, 1.0, 2.0, rng, linear_scale=0.5)
        x0 = np.zeros(6)
        x0[0] = bad
        with pytest.raises(InvalidParameterError, match="x0 is not finite"):
            iterate_threshold(obj, hard_operator(2), x0, None, 5)

    @pytest.mark.parametrize("rule", [StepRule.fixed(), StepRule.adaptive()])
    def test_non_finite_iterate_raises(self, rule):
        # a finite start whose first step overflows: f(x_1) is nan, and the
        # caller gets the solver's error, not numpy's overflow warning
        obj = QuadraticObjective(np.eye(2), np.zeros(2), np.asarray([-1e300, 0.0]), 1.0, 1.0)
        with pytest.raises(InvalidParameterError, match="iterate 1 is not finite"):
            iterate_threshold(obj, hard_operator(1), np.zeros(2), rule, 5)

    def test_step_rule_is_its_kind(self):
        # kind is the one field; eta_init and shrink are class constants that
        # describe the ladder to the benchmark's tracer, and no rule sets them
        assert [f.name for f in dataclasses.fields(StepRule)] == ["kind"]
        for rule in (StepRule.fixed(), StepRule.adaptive()):
            assert rule.eta_init is None and rule.shrink == 0.5
        with pytest.raises(TypeError):
            StepRule("adaptive", 1.0)
        with pytest.raises(TypeError):
            StepRule.adaptive(16.0)
        with pytest.raises(TypeError):
            StepRule("adaptive", shrink=0.7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            StepRule.adaptive().shrink = 0.7
        with pytest.raises(InvalidParameterError, match="unknown step rule"):
            StepRule("armijo")

    def test_every_solver_refuses_fewer_than_one_step(self):
        obj = QuadraticObjective(np.eye(4), np.zeros(4), np.zeros(4), 1.0, 1.0)
        mobj = QuadraticObjective(np.eye(4), np.zeros((2, 2)), np.zeros((2, 2)), 1.0, 1.0)
        lifted = LiftedOperator(hard_operator(1))
        runs = [
            lambda T: iterate_threshold(obj, hard_operator(2), np.zeros(4), None, T),
            lambda T: iterate_prox(obj, 0.1, np.zeros(4), None, T),
            lambda T: iterate_threshold_matrix(mobj, lifted, np.zeros((2, 2)), None, T),
            lambda T: solver._run(obj, lambda V, etas: V, np.zeros(4), None, T),
        ]
        for run in runs:
            for T in (0, -3):
                with pytest.raises(InvalidParameterError, match="T must be >= 1"):
                    run(T)
            assert len(run(1).fs) == 1

    def test_requires_sparse_start(self):
        obj = QuadraticObjective(np.eye(3), np.zeros(3), np.zeros(3), 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            iterate_threshold(obj, hard_operator(1), np.ones(3), None, 5)

    def test_trace_determinism(self):
        rng = np.random.default_rng(4)
        obj = QuadraticObjective.random_instance(10, 1.0, 2.0, rng, linear_scale=0.3)
        op = reciprocal_operator(4, 0.0)
        t1 = iterate_threshold(obj, op, np.zeros(10), StepRule.adaptive(), 40)
        t2 = iterate_threshold(obj, op, np.zeros(10), StepRule.adaptive(), 40)
        assert np.array_equal(t1.xs, t2.xs)
        assert np.array_equal(t1.fs, t2.fs)
        assert np.array_equal(t1.etas, t2.etas)

    def test_running_min_nonincreasing(self):
        rng = np.random.default_rng(5)
        obj = QuadraticObjective.random_instance(12, 1.0, 4.0, rng, linear_scale=1.0)
        trace = iterate_threshold(obj, hard_operator(5), np.zeros(12), None, 50)
        assert np.all(np.diff(trace.running_min) <= 0.0)

    def test_descent_identity_fixed_step(self):
        # f(x_t) <= f(x_{t-1}) + <grad, dx> + (beta/2)||dx||^2 for certified quadratics
        rng = np.random.default_rng(6)
        obj = QuadraticObjective.random_instance(10, 1.0, 3.0, rng, linear_scale=0.7)
        op = hard_operator(4)
        trace = iterate_threshold(obj, op, np.zeros(10), None, 30)
        prev = trace.x0
        for t in range(30):
            dx = trace.xs[t] - prev
            rhs = obj.value(prev) + float(obj.grad(prev) @ dx) + obj.beta / 2 * float(dx @ dx)
            assert trace.fs[t] <= rhs + 1e-10 * max(1.0, abs(rhs))
            prev = trace.xs[t]


class TestStepLadder:
    """``_step`` maps its whole ladder of step sizes in one operator call."""

    @pytest.mark.parametrize("which", ["fixed", "default"])
    def test_matches_the_sequential_reference_bit_for_bit(self, which, monkeypatch):
        rule = _LADDER_RULES[which]
        batched = [(name, run()) for name, run in _ladder_runs(rule)]
        monkeypatch.setattr(solver, "_step", _sequential_step)
        for (name, got), (_, run) in zip(batched, _ladder_runs(rule)):
            want = run()
            assert np.array_equal(got.xs, want.xs), name
            assert np.array_equal(got.fs, want.fs), name
            assert np.array_equal(got.etas, want.etas), name
            assert np.array_equal(got.backtracks, want.backtracks), name

    @pytest.mark.parametrize("which", ["fixed", "default"])
    def test_ladder_is_the_backtracking_sequence(self, which):
        obj = QuadraticObjective(np.diag([1.0, 3.0]), np.zeros(2), np.zeros(2), 1.0, 3.0)
        rule = _LADDER_RULES[which]
        want = _reference_ladder(obj.beta, rule)
        assert solver._ladder(obj, rule).tolist() == want
        assert len(want) == {"fixed": 1, "default": 5}[which]

    @pytest.mark.parametrize("beta", [1.0, 3.0, 0.7, 7.3, 1e-3, 1e-300, 1e300])
    def test_ladder_is_powers_of_two_over_beta_bit_for_bit(self, beta):
        obj = QuadraticObjective(beta * np.eye(2), np.zeros(2), np.zeros(2), beta, beta)
        adaptive = solver._ladder(obj, StepRule.adaptive())
        assert np.array_equal(adaptive, np.array([16.0, 8.0, 4.0, 2.0, 1.0]) / beta)
        assert adaptive.tolist() == _reference_ladder(beta, StepRule.adaptive())
        fixed = solver._ladder(obj, StepRule.fixed())
        assert fixed.tolist() == [1.0 / beta] == _reference_ladder(beta, StepRule.fixed())

    def test_backtracks_index_the_accepted_rung(self):
        rng = np.random.default_rng(41)
        obj = QuadraticObjective.random_instance(12, 1.0, 4.0, rng, linear_scale=0.5)
        op = reciprocal_operator(4, 0.0)
        adaptive = iterate_threshold(obj, op, np.zeros(12), StepRule.adaptive(), 40)
        # the default ladder is 16/beta, 8/beta, ..., 1/beta
        assert np.array_equal(adaptive.etas, 16.0 / obj.beta / 2.0**adaptive.backtracks)
        assert adaptive.backtracks.dtype.kind == "i"
        fixed = iterate_threshold(obj, op, np.zeros(12), StepRule.fixed(), 40)
        assert np.array_equal(fixed.backtracks, np.zeros(40, dtype=int))

    @pytest.mark.parametrize("rule", [StepRule.fixed(), StepRule.adaptive()])
    def test_one_operator_call_per_step(self, rule, monkeypatch):
        rng = np.random.default_rng(42)
        obj = QuadraticObjective.random_instance(12, 1.0, 4.0, rng, linear_scale=0.5)
        op = _CountingOperator(reciprocal_operator(4, 0.0))
        trace = iterate_threshold(obj, op, np.zeros(12), rule, 30)
        assert op.calls == len(trace.fs) == 30
        if rule.kind == "adaptive":
            assert trace.backtracks.sum() > 0  # some steps rejected a rung

        prox_calls = []

        def counting_prox(z, t):
            prox_calls.append(np.shape(z))
            return prox_l1(z, t)

        monkeypatch.setattr(solver, "prox_l1", counting_prox)
        trace = iterate_prox(obj, 0.3, np.zeros(12), rule, 30)
        assert len(prox_calls) == len(trace.fs) == 30

        mobj = QuadraticObjective.random_instance((5, 4), 1.0, 3.0, rng)
        lifted = _CountingOperator(LiftedOperator(reciprocal_operator(2, 0.0)))
        trace = iterate_threshold_matrix(mobj, lifted, np.zeros((5, 4)), rule, 20)
        assert lifted.calls == len(trace.fs) == 20


class TestCheckBound:
    def test_contract_violation(self):
        obj = QuadraticObjective(np.eye(2), np.zeros(2), np.zeros(2), 1.0, 1.0)
        trace = iterate_threshold(obj, hard_operator(1), np.zeros(2), None, 3)
        with pytest.raises(ContractViolationError):
            check_theorem1_bound(trace, np.zeros(2), 0.6, 1.0, 1.0)

    def test_factor_values(self):
        # kappa=2, gamma=0.2 -> contraction (1 - 1/2)/(1 - 0.4) = 0.8333...
        rhs = convergence_bound_rhs(np.asarray([1]), 0.0, 0.2, 2.0, 2.0, 1.0)
        assert abs(rhs[0] - 0.5 / 0.6) < 1e-12
        # gamma -> 0 recovers the classical strongly convex rate
        rhs0 = convergence_bound_rhs(np.asarray([1]), 0.0, 0.0, 2.0, 2.0, 1.0)
        assert abs(rhs0[0] - 0.5) < 1e-12

    def test_bound_true_when_below_fy(self):
        obj = QuadraticObjective(np.eye(2), np.asarray([1.0, 0.0]), np.zeros(2), 1.0, 1.0)
        trace = iterate_threshold(obj, hard_operator(1), np.zeros(2), None, 10)
        y = np.asarray([0.0, 5.0])
        ok = check_theorem1_bound(trace, y, 0.1, 1.0, 1.0)
        assert np.all(ok)


class TestIterateProx:
    def test_lambda_zero_is_gradient_descent(self):
        obj = QuadraticObjective(np.eye(4), np.asarray([1.0, -2.0, 0.5, 0.0]), np.zeros(4), 1.0, 1.0)
        trace = iterate_prox(obj, 0.0, np.zeros(4), None, 100)
        np.testing.assert_allclose(trace.xs[-1], obj.m, atol=1e-8)

    @pytest.mark.parametrize("lam", [-0.1, math.nan])
    def test_bad_penalty_rejected_before_any_step(self, lam):
        obj = QuadraticObjective(np.eye(2), np.ones(2), np.zeros(2), 1.0, 1.0)
        with pytest.raises(InvalidParameterError, match="lam"):
            iterate_prox(obj, lam, np.zeros(2), None, 5)

    def test_prox_fixed_point(self):
        # f = ||x - u||^2/2: from x0 = u one step gives prox_l1(u, lam * eta)
        u = np.asarray([3.0, -0.2, 1.0])
        obj = QuadraticObjective(np.eye(3), u, np.zeros(3), 1.0, 1.0)
        lam = 0.5
        trace = iterate_prox(obj, lam, u.copy(), None, 1)
        np.testing.assert_allclose(trace.xs[0], prox_l1(u, lam * 1.0), atol=1e-15)

    def test_kkt_residual_at_convergence(self):
        rng = np.random.default_rng(7)
        obj = QuadraticObjective.random_instance(10, 0.5, 2.0, rng, linear_scale=1.0)
        lam = 0.3
        trace = iterate_prox(obj, lam, np.zeros(10), None, 5000, kkt_tol=1e-8)
        x = trace.xs[-1]
        g = obj.grad(x)
        for i in range(10):
            if x[i] == 0.0:
                assert abs(g[i]) <= lam + 1e-6
            else:
                assert abs(g[i] + lam * np.sign(x[i])) <= 1e-6

    def test_early_stop(self):
        rng = np.random.default_rng(8)
        obj = QuadraticObjective.random_instance(6, 1.0, 2.0, rng, linear_scale=0.5)
        trace = iterate_prox(obj, 0.2, np.zeros(6), None, 5000, kkt_tol=1e-8)
        assert len(trace.fs) < 5000
        assert len(trace.xs) == len(trace.etas) == len(trace.fs)
        assert kkt_residual_l1(obj, trace.xs[-1], 0.2) <= 1e-8

    def test_kkt_stop_at_the_first_iterate_meeting_the_tolerance(self):
        # the stop uses the step's gradient; recomputing it at every iterate
        # of an uncapped run must pick the same stopping iterate
        rng = np.random.default_rng(16)
        obj = QuadraticObjective.random_instance(12, 0.5, 2.0, rng, linear_scale=1.0)
        lam, tol = 0.3, 1e-8
        stopped = iterate_prox(obj, lam, np.zeros(12), None, 5000, kkt_tol=tol)
        full = iterate_prox(obj, lam, np.zeros(12), None, len(stopped.fs) + 20)
        residuals = [kkt_residual_l1(obj, x, lam) for x in full.xs]
        first = next(t for t, r in enumerate(residuals) if r <= tol)
        assert len(stopped.fs) == first + 1
        assert np.array_equal(stopped.xs, full.xs[: first + 1])


class TestStationaryInequality:
    def test_detected_fixed_point_beats_all_subsets(self):
        # certified quadratic, operator with gamma < 1/(2 kappa): any detected
        # fixed point is at least as good as every s'-sparse restricted optimum
        rng = np.random.default_rng(9)
        kappa = 1.8
        s, sp, d = 5, 1, 10
        gamma = gamma_hard(sp / s)
        assert 2 * kappa * gamma < 1.0
        op = hard_operator(s)
        found = 0
        for trial in range(20):
            obj = QuadraticObjective.random_instance(
                d, 1.0, kappa, rng, linear_scale=0.5
            )
            trace = iterate_threshold(obj, op, np.zeros(d), None, 300)
            gaps = np.linalg.norm(np.diff(trace.xs, axis=0), axis=1)
            if gaps[-1] > 1e-12:
                continue
            found += 1
            x_fix = trace.xs[-1]
            best_val, _ = restricted_minimum_bruteforce(obj, sp)
            assert obj.value(x_fix) <= best_val + 1e-8
        assert found >= 10  # most runs converge to a fixed point

    def test_bruteforce_caps(self):
        obj = QuadraticObjective(np.eye(3), np.zeros(3), np.zeros(3), 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            restricted_minimum_bruteforce(obj, 5)

    def test_bruteforce_agrees_with_truth(self):
        # separable quadratic: best k-sparse support is the k largest centers
        m = np.asarray([3.0, -1.0, 2.0, 0.1])
        obj = QuadraticObjective(np.eye(4), m, np.zeros(4), 1.0, 1.0)
        val, x = restricted_minimum_bruteforce(obj, 2)
        np.testing.assert_allclose(x, [3.0, 0.0, 2.0, 0.0], atol=1e-12)
        assert abs(val - 0.5 * (1.0 + 0.01)) < 1e-12
