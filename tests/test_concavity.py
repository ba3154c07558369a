"""Concavity tests: closed forms, ratio examples, witnesses, and the search."""

import math

import numpy as np
import pytest

from threshlab import concavity
from threshlab.concavity import (
    ConcavityQuery,
    DegenerateWitnessError,
    closed_form_gamma,
    concavity_ratio,
    empirical_concavity,
    gamma_hard,
    gamma_lq,
    gamma_optimal,
    gamma_reciprocal,
    gamma_shrink_class,
    kappa_max,
    lower_bound_witness,
)
from threshlab.operators import (
    InvalidParameterError,
    ShrinkageFunction,
    ThresholdingOperator,
    hard_operator,
    lq_operator,
    parse_operator,
    reciprocal_operator,
    soft_operator,
)
from threshlab.validate import (
    check_dominance,
    check_sandwich,
    check_universal_witness,
    dominance_curves,
)

RHO_GRID = np.arange(0.05, 0.951, 0.05)


class TestConcavityRatio:
    def test_hard_lemma_witness(self):
        # z all-ones in d=4, s=2, y = indicator of the complementary pair
        op = hard_operator(2)
        z = np.ones(4)
        y = np.zeros(4)
        y[[2, 3]] = 1.0
        assert abs(concavity_ratio(y, z, op) - 0.5) < 1e-15

    def test_perturbed_comparator_finite(self):
        op = hard_operator(2)
        z = np.asarray([3.0, 2.0, 1.0, 0.5])
        x = op(z)
        y = x.copy()
        y[3] += 1e-3  # off-support nudge
        r = concavity_ratio(y, z, op)
        # direct formula evaluation
        diff = y - x
        assert abs(r - float(diff @ (z - x)) / float(diff @ diff)) < 1e-15

    def test_hand_example_d3(self):
        op = hard_operator(2)
        z = np.ones(3)
        y = np.asarray([0.0, 0.0, math.sqrt(2.0)])
        r = concavity_ratio(y, z, op)
        assert abs(r - math.sqrt(2.0) / 4.0) < 1e-12
        assert abs(r - gamma_hard(0.5)) < 1e-12

    def test_degenerate_witness(self):
        op = hard_operator(1)
        z = np.asarray([2.0, 1.0])
        with pytest.raises(DegenerateWitnessError):
            concavity_ratio(op(z), z, op)


class TestClosedForms:
    def test_gamma_hard(self):
        assert gamma_hard(0.25) == 0.25
        assert gamma_hard(1.0) == 0.5
        assert abs(gamma_hard(0.04) - 0.1) < 1e-15
        with pytest.raises(InvalidParameterError):
            gamma_hard(0.0)

    def test_gamma_optimal(self):
        assert gamma_optimal(1.0) == 0.5
        assert abs(gamma_optimal(0.5) - 1.0 / 3.0) < 1e-15
        for rho in [1e-4, 1e-5]:
            assert abs(gamma_optimal(rho) / rho - 1.0) < 1e-3

    def test_shrink_class_optimal_sigma(self):
        for rho in [0.1, 0.5, 0.9]:
            assert abs(gamma_shrink_class(rho, (1 - rho) / 2) - rho / (1 + rho)) < 1e-12

    def test_shrink_class_value(self):
        expect = 0.25 / (0.5 + 0.5 * math.sqrt(2.0))
        assert abs(gamma_shrink_class(0.25, 0.5) - expect) < 1e-12

    def test_shrink_class_hard_limit(self):
        for rho in [0.2, 0.6]:
            for s1 in [1e-3, 1e-4]:
                assert abs(gamma_shrink_class(rho, s1) / gamma_hard(rho) - 1.0) < 0.01

    def test_reciprocal_optimal_parameter(self):
        for rho in [0.1, 0.3, 0.7]:
            assert abs(gamma_reciprocal(rho, rho) - rho / (1 + rho)) < 1e-12

    def test_lq_optimal_parameter(self):
        for rho in [0.1, 0.4, 0.8]:
            q = 2 * (1 - rho) / (3 - rho)
            assert abs(gamma_lq(rho, q) - rho / (1 + rho)) < 1e-12

    def test_lq23_equals_rt0(self):
        for rho in np.arange(0.1, 0.91, 0.1):
            assert abs(gamma_lq(rho, 2 / 3) - gamma_reciprocal(rho, 0.0)) < 1e-12

    def test_kappa_max(self):
        assert kappa_max(0.25) == 2.0
        rho = 1 / 3
        assert abs(kappa_max(gamma_optimal(rho)) - (1 + rho) / (2 * rho)) < 1e-12
        assert abs(kappa_max(gamma_hard(0.25)) - 2.0) < 1e-12
        with pytest.raises(InvalidParameterError):
            kappa_max(0.0)

    def test_closed_form_dispatch(self):
        assert closed_form_gamma(hard_operator(4), 0.5) == gamma_hard(0.5)
        assert closed_form_gamma(reciprocal_operator(4, 0.3), 0.5) == gamma_reciprocal(0.5, 0.3)
        assert closed_form_gamma(lq_operator(4, 0.4), 0.5) == gamma_lq(0.5, 0.4)
        assert closed_form_gamma(soft_operator(4), 0.5) is None
        assert closed_form_gamma(reciprocal_operator(4, 0.0), 1.0) == math.inf
        assert closed_form_gamma(hard_operator(4), 1.0) == 0.5
        # rt:1 is hard thresholding (sigma == 0), at rho < 1 and at rho = 1
        assert closed_form_gamma(reciprocal_operator(4, 1.0), 0.5) == gamma_hard(0.5)
        assert closed_form_gamma(reciprocal_operator(4, 1.0), 1.0) == 0.5


class TestDominanceAndCrossing:
    def test_dominance_grid(self):
        ok, detail = check_dominance(*dominance_curves(np.arange(0.01, 0.991, 0.01)))
        assert ok, detail

    def test_crossing_small_rho(self):
        ok, detail = check_dominance(*dominance_curves(np.arange(0.01, 0.251, 0.01)))
        assert ok, detail

    def test_check_rejects_swapped_and_shifted_curves(self):
        rho, g_opt, g_rt, g_hard = dominance_curves(np.arange(0.01, 0.991, 0.01))
        assert not check_dominance(rho, g_opt, g_hard, g_rt)[0]
        assert check_dominance(rho, g_rt, g_opt, g_hard) == (False, "optimal above reciprocal at rho=0.01")
        above = np.maximum(g_rt, rho / np.minimum(1.0, 4 * (1 - rho)) + 1e-11)
        assert check_dominance(rho, g_opt, above, g_hard) == (False, "reciprocal above its bound at rho=0.01")
        assert check_dominance(rho, g_opt, g_rt, g_rt) == (False, "crossing fails at rho=0.01")
        ok, detail = check_dominance(rho, np.minimum(g_rt, g_hard + 1e-14), g_rt, g_hard)
        assert not ok and detail.startswith("optimal above hard")


class TestLowerBoundWitness:
    def test_hard_rho_one(self):
        op = hard_operator(3)
        _, _, ratio = lower_bound_witness(op, ConcavityQuery(3, 3))
        assert ratio >= 0.5 - 1e-9

    def test_reciprocal_tight(self):
        # at c = rho the witness sits exactly at the maximizing radius
        # r = (1+rho)/2, so the bound is attained, not just exceeded
        for rho_pair in [(4, 1), (10, 3), (5, 4)]:
            s, sp = rho_pair
            rho = sp / s
            op = reciprocal_operator(s, rho)
            _, _, ratio = lower_bound_witness(op, ConcavityQuery(s, sp))
            assert abs(ratio - rho / (1 + rho)) <= 1e-9

    def test_universal_over_kinds(self):
        table = ShrinkageFunction.from_table([1.0, 3.0, 10.0], [0.45, 0.25, 0.1])
        ops = [
            hard_operator(5),
            soft_operator(5),
            reciprocal_operator(5, 0.5),
            lq_operator(5, 0.4),
            ThresholdingOperator(5, table),
        ]
        ok, detail = check_universal_witness(ops, ConcavityQuery(5, 2))
        assert ok, detail


class TestEmpiricalConcavity:
    def test_hard_wide_dimension(self):
        report = empirical_concavity(hard_operator(4), ConcavityQuery(4, 1, d=8), budget=300, seed=0)
        assert report.closed_form == 0.25
        ok, detail = check_sandwich(report)
        assert ok, detail

    @pytest.mark.parametrize("s_prime", [2, 4])
    def test_reciprocal_at_c_one_meets_the_hard_sandwich(self, s_prime):
        op = reciprocal_operator(4, 1.0)
        report = empirical_concavity(op, ConcavityQuery(4, s_prime), budget=100, seed=0)
        assert report.closed_form == gamma_hard(s_prime / 4)
        ok, detail = check_sandwich(report)
        assert ok, detail

    def test_reciprocal_matches_closed_form(self):
        report = empirical_concavity(
            reciprocal_operator(4, 0.0), ConcavityQuery(4, 2, d=8), budget=300, seed=1
        )
        cf = gamma_reciprocal(0.5, 0.0)
        assert abs(report.empirical_max - cf) < 1e-6

    def test_soft_exceeds_one(self):
        report = empirical_concavity(soft_operator(2), ConcavityQuery(2, 1, d=4), budget=100, seed=2)
        assert report.empirical_max >= 1.0 - 1e-6

    def test_report_consistency(self):
        op = reciprocal_operator(3, 0.5)
        report = empirical_concavity(op, ConcavityQuery(3, 2), budget=100, seed=3)
        recomputed = concavity_ratio(report.witness_y, report.witness_z, op)
        assert abs(recomputed - report.ratio_at_witness) < 1e-12
        assert report.empirical_max <= report.closed_form + 1e-9
        assert np.count_nonzero(report.witness_y) <= 2

    def test_deterministic_given_seed(self):
        op = lq_operator(3, 0.4)
        q = ConcavityQuery(3, 1)
        r1 = empirical_concavity(op, q, budget=50, seed=9)
        r2 = empirical_concavity(op, q, budget=50, seed=9)
        assert r1.empirical_max == r2.empirical_max
        np.testing.assert_array_equal(r1.witness_y, r2.witness_y)
        np.testing.assert_array_equal(r1.witness_z, r2.witness_z)

    def test_restart_supports_drawn_at_once(self, monkeypatch):
        # the supports a seeded search draws: s' distinct indices in [0, d)
        # per row, one row per restart
        draw = concavity._restart_supports
        drawn = []

        def recording(rng, budget, d, sp):
            out = draw(rng, budget, d, sp)
            drawn.append((out, budget, d, sp))
            return out

        monkeypatch.setattr(concavity, "_restart_supports", recording)
        for op, q in [
            (soft_operator(2), ConcavityQuery(2, 1, d=4)),
            (lq_operator(4, 0.4), ConcavityQuery(4, 2)),
            (hard_operator(3), ConcavityQuery(3, 3, d=9)),
        ]:
            report = empirical_concavity(op, q, budget=200, seed=5, ascent_steps=10)
            assert np.count_nonzero(report.witness_y) <= q.s_prime
        assert len(drawn) == 3
        for supports, budget, d, sp in drawn:
            assert supports.shape == (budget, sp)
            assert supports.min() >= 0 and supports.max() < d
            assert np.all(np.sort(supports, axis=1)[:, 1:] > np.sort(supports, axis=1)[:, :-1])

    def test_restart_supports_uniform(self):
        # each position of the ordered subset is uniform over range(d)
        d, sp, budget = 6, 3, 60000
        supports = concavity._restart_supports(np.random.default_rng(0), budget, d, sp)
        for j in range(sp):
            freq = np.bincount(supports[:, j], minlength=d) / budget
            np.testing.assert_allclose(freq, 1.0 / d, atol=0.01)

    @pytest.mark.parametrize("kind", ["hard", "soft", "rt:0", "rt:0.5", "lq:0.4", "lq", "table"])
    @pytest.mark.parametrize("s, s_prime", [(2, 1), (4, 1), (4, 2), (4, 4), (6, 3), (10, 9)])
    def test_families_reach_their_supremum(self, kind, s, s_prime):
        # at budget 0 only the two witness families at z = all-ones are
        # scored; both depend on the operator only through xb = op(1)[0], so
        # their supremum is the shrink-class closed form at sigma(1) = 1 - xb
        # (hard's at xb = 1), and it diverges at xb = 0 or rho = 1
        if kind == "table":
            op = ThresholdingOperator(s, ShrinkageFunction.from_table([1.0, 3.0, 10.0], [0.45, 0.25, 0.1]))
        else:
            op = parse_operator(kind, s)
        query = ConcavityQuery(s, s_prime)
        report = empirical_concavity(op, query, budget=0)
        xb = float(op(np.ones(query.dim))[0])
        if xb == 1.0:
            expect = gamma_hard(query.rho)
        elif xb == 0.0 or s_prime == s:
            expect = math.inf
        else:
            expect = gamma_shrink_class(query.rho, 1.0 - xb)
        if math.isfinite(expect):
            assert abs(report.empirical_max - expect) <= 4 * math.ulp(expect)
            if report.closed_form is not None:
                assert report.closed_form == pytest.approx(expect, rel=1e-14)
        else:
            assert report.empirical_max > 1e3
            assert report.closed_form in (math.inf, None)
        if (kind, s, s_prime) == ("hard", 4, 2):
            # family A's scale t = 1/sqrt(rho), with no search error
            assert report.witness_y[np.nonzero(report.witness_y)].tolist() == [math.sqrt(2.0)] * 2

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ({"budget": -5}, "budget=-5 must be >= 0"),
            ({"ascent_steps": -3}, "ascent_steps=-3 must be >= 0"),
        ],
    )
    def test_negative_search_sizes_refused(self, sizes, message):
        with pytest.raises(InvalidParameterError, match=message):
            empirical_concavity(hard_operator(2), ConcavityQuery(2, 1), **sizes)

    def test_custom_operator_lower_estimate(self):
        table = ShrinkageFunction.from_table([1.0, 2.0, 20.0], [0.4, 0.3, 0.05])
        op = ThresholdingOperator(3, table)
        query = ConcavityQuery(3, 2)
        report = empirical_concavity(op, query, budget=100, seed=4)
        assert report.closed_form is None
        assert report.empirical_max >= gamma_optimal(query.rho) - 1e-9

    def test_query_validation(self):
        with pytest.raises(InvalidParameterError):
            ConcavityQuery(2, 3)
        with pytest.raises(InvalidParameterError):
            ConcavityQuery(2, 1, d=2)  # violates s + s' <= d
        q = ConcavityQuery(3, 2)
        assert q.dim == 5 and abs(q.rho - 2 / 3) < 1e-15
