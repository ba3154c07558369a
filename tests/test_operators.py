"""Operator unit tests: worked examples, independent oracles, and axioms."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshlab.operators import (
    InvalidParameterError,
    InvalidSparsityError,
    RootNotBracketedError,
    ShrinkageFunction,
    ShrinkOutOfRangeError,
    ThresholdingOperator,
    hard_operator,
    lq_larger_root,
    lq_operator,
    parse_operator,
    prox_l1,
    reciprocal_operator,
    soft_operator,
    support_order,
)

ALL_OPERATORS = ["hard", "soft", "rt:0", "rt:0.5", "rt:1", "lq:0.4", "lq:0.666666666667"]


def oracle_soft_fixed_s(z, s):
    """Definition-level oracle: smallest lambda giving <= s nonzeros, then shrink.

    The candidate lambdas are exactly the entry magnitudes (the nonzero count
    is piecewise constant between them), so an exhaustive scan is exact.
    """
    z = np.asarray(z, dtype=float)
    for lam in sorted([0.0] + np.abs(z).tolist()):
        if np.count_nonzero(np.abs(z) > lam) <= s:
            return np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
    raise AssertionError("unreachable: lam = max|z| always works")


def select_support(z, s):
    """Test-local reference: the ``s`` kept indices in support order, and tau.

    Built on ``support_order``, the one support rule; tau is the largest
    magnitude left outside the kept set (0.0 when ``s == len(z)``).
    """
    z = np.asarray(z, dtype=float)
    order = support_order(z)
    tau = float(np.abs(z[order[s]])) if s < z.shape[0] else 0.0
    return order[:s], tau


class TestSelectSupport:
    def test_basic(self):
        idx, tau = select_support(np.array([3.0, -1.0, 2.0, 0.5]), 2)
        assert set(idx.tolist()) == {0, 2}
        assert tau == 1.0

    def test_tie_break_lowest_index(self):
        idx, tau = select_support(np.array([1.0, 1.0, 1.0]), 2)
        assert set(idx.tolist()) == {0, 1}
        assert tau == 1.0

    def test_already_sparse(self):
        idx, tau = select_support(np.array([5.0, 4.0]), 2)
        assert set(idx.tolist()) == {0, 1}
        assert tau == 0.0

    def test_invalid_sparsity(self):
        with pytest.raises(InvalidSparsityError):
            hard_operator(0)
        with pytest.raises(InvalidSparsityError):
            hard_operator(3)(np.array([1.0, 2.0]))

    def test_tau_zero_iff_sparse(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            s = int(rng.integers(1, d + 1))
            z = rng.standard_normal(d)
            z[rng.random(d) < 0.5] = 0.0
            _, tau = select_support(z, s)
            assert (tau == 0.0) == (np.count_nonzero(z) <= s)


class TestHardThreshold:
    def test_example(self):
        np.testing.assert_array_equal(
            hard_operator(2)([3.0, -1.0, 2.0, 0.5]), [3.0, 0.0, 2.0, 0.0]
        )

    def test_identity_on_sparse(self):
        np.testing.assert_array_equal(hard_operator(1)([0.0, 0.0, 7.0]), [0.0, 0.0, 7.0])

    def test_two_entries(self):
        np.testing.assert_array_equal(hard_operator(1)([2.0, 1.0]), [2.0, 0.0])

    def test_entries_kept_exactly(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(9)
        out = hard_operator(4)(z)
        kept = out != 0
        assert np.array_equal(out[kept], z[kept])


class TestSoftThresholdFixedS:
    def test_example(self):
        np.testing.assert_allclose(soft_operator(1)([3.0, -1.0, 2.0]), [1.0, 0.0, 0.0])

    def test_no_shrink_when_sparse(self):
        np.testing.assert_array_equal(soft_operator(1)([5.0]), [5.0])

    def test_tie_case_matches_oracle(self):
        # the coordinatewise definition keeps both tied entries at s=2
        z = [2.0, -2.0, 1.0]
        np.testing.assert_array_equal(
            soft_operator(2)(z), oracle_soft_fixed_s(z, 2)
        )
        np.testing.assert_array_equal(soft_operator(2)(z), [1.0, -1.0, 0.0])

    def test_exhaustive_small_cases_match_oracle(self):
        values = [0.0, 1.0, 2.0, -1.0, -2.0]
        for d in range(1, 5):
            for z in itertools.product(values, repeat=d):
                for s in range(1, d + 1):
                    np.testing.assert_array_equal(
                        soft_operator(s)(list(z)),
                        oracle_soft_fixed_s(list(z), s),
                        err_msg=f"z={z} s={s}",
                    )


class TestReciprocalThreshold:
    def test_example_c0(self):
        out = reciprocal_operator(1, 0.0)([2.0, 1.0])
        np.testing.assert_allclose(out, [1.0 + np.sqrt(3.0) / 2.0, 0.0], atol=1e-12)
        # larger root of t + 0.25/t = 2, i.e. t^2 - 2t + 0.25 = 0
        t = out[0]
        assert abs(t * t - 2.0 * t + 0.25) < 1e-12

    def test_c1_is_hard(self):
        np.testing.assert_array_equal(reciprocal_operator(1, 1.0)([2.0, 1.0]), [2.0, 0.0])

    def test_sign_equivariance_example(self):
        out = reciprocal_operator(1, 0.0)([-2.0, 1.0])
        np.testing.assert_allclose(out, [-(1.0 + np.sqrt(3.0) / 2.0), 0.0], atol=1e-12)

    def test_invalid_c(self):
        with pytest.raises(InvalidParameterError):
            reciprocal_operator(1, 1.5)

    def test_root_identity(self):
        # each kept output value t satisfies z_i = t + tau^2 (1-c^2) / (4 t)
        rng = np.random.default_rng(2)
        for c in [0.0, 0.3, 0.8]:
            z = rng.standard_normal(10) * 3.0
            s = 4
            _, tau = select_support(z, s)
            out = reciprocal_operator(s, c)(z)
            kept = out != 0
            t = np.abs(out[kept])
            recon = t + tau**2 * (1.0 - c * c) / (4.0 * t)
            np.testing.assert_allclose(recon, np.abs(z[kept]), rtol=1e-10)

    def test_full_float_range_examples(self):
        # kept entries are never squared, so nothing overflows or underflows
        np.testing.assert_array_equal(
            reciprocal_operator(1, 0.0)([1e300, -1e300, 1e299]), [5e299, 0.0, 0.0]
        )
        out = reciprocal_operator(1, 0.0)([1e-200, 5e-201])
        np.testing.assert_allclose(out, [9.330127018922193e-201, 0.0], rtol=1e-12)
        np.testing.assert_array_equal(
            reciprocal_operator(1, 1.0)([1e200, 1e199, 0.0]), [1e200, 0.0, 0.0]
        )
        assert np.all(np.isfinite(reciprocal_operator(1, 0.0)([2e154, 1e10, 0.0])))


class TestLqThreshold:
    def test_sigma1_example(self):
        np.testing.assert_allclose(lq_operator(1, 2.0 / 3.0)([1.0, 1.0]), [0.5, 0.0], atol=1e-11)

    def test_large_entry_bounds(self):
        out = lq_operator(1, 2.0 / 3.0)([10.0, 1.0])
        sigma1 = (2.0 / 3.0) / (2.0 - 2.0 / 3.0)
        assert 10.0 - sigma1 < out[0] < 10.0

    def test_root_residual_oracle(self):
        # residual of the defining equation, checked independently of the
        # Newton iteration that solves it
        q = 2.0 / 3.0
        K = q * (2.0 - 2.0 * q) ** (1.0 - q) / (2.0 - q) ** (2.0 - q)
        for t in [1.0, 1.5, 4.0, 25.0, 400.0]:
            x = float(lq_larger_root(np.asarray([t]), q)[0])
            assert abs(x + K * x ** (q - 1.0) - t) < 1e-10

    def test_q_to_one_trend(self):
        # shrinkage at the boundary approaches tau * q/(2-q) -> 1
        shrinks = []
        for q in [0.9, 0.99]:
            out = lq_operator(1, q)([2.0, 1.0])
            shrinks.append(2.0 - out[0])
        assert shrinks[0] < shrinks[1] < 1.0
        assert abs(shrinks[1] - 0.99 / (2 - 0.99)) < 0.05

    def test_invalid_q(self):
        with pytest.raises(InvalidParameterError):
            lq_operator(1, 1.0)

    def test_root_bracket_guard(self):
        # the bracket cannot fail for t >= 1; feeding t < 1 must trip the guard
        from threshlab.operators import RootNotBracketedError

        with pytest.raises(RootNotBracketedError):
            lq_larger_root(np.asarray([0.1]), 2.0 / 3.0)

    def test_root_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(RootNotBracketedError):
                lq_larger_root(np.asarray([2.0, bad]), 0.5)

    def test_non_finite_entries_raise(self):
        # a NaN entry, or inf over an infinite tau, has no finite t: the
        # driver rejects the input before the entry map sees it
        with pytest.raises(InvalidParameterError):
            lq_operator(2, 0.5)([np.nan, np.nan, 1.0])
        with pytest.raises(InvalidParameterError):
            lq_operator(1, 0.5)([np.inf, np.inf])


class TestNonFiniteInput:
    """One policy for every kind: a NaN or infinite entry raises."""

    def test_hard_nan(self):
        # a NaN sorts last: without the check it would be dropped silently
        with pytest.raises(InvalidParameterError):
            hard_operator(1)([np.nan, 1.0, 2.0])

    def test_soft_nan_tau(self):
        # tau is NaN here: without the check the shrinkage would be skipped
        with pytest.raises(InvalidParameterError):
            soft_operator(1)([1.0, np.nan, np.nan])

    def test_reciprocal_inf(self):
        # without the check the entry map would give NaN
        with pytest.raises(InvalidParameterError):
            reciprocal_operator(1, 0.0)([np.inf, 1.0, 2.0])

    def test_lq_inf(self):
        # without the check the entry map would pass the inf through
        with pytest.raises(InvalidParameterError):
            lq_operator(1, 0.5)([np.inf, 1.0, 2.0])

    @pytest.mark.parametrize("name", ALL_OPERATORS)
    def test_any_row_of_a_batch(self, name):
        Z = np.ones((3, 4))
        Z[2, 3] = -np.inf
        with pytest.raises(InvalidParameterError):
            parse_operator(name, 2)(Z)
        # also when s == d, where no support is selected
        with pytest.raises(InvalidParameterError):
            parse_operator(name, 4)(Z)

    def test_zero_dimensional_input(self):
        # a scalar has no last axis to threshold along
        with pytest.raises(InvalidParameterError):
            hard_operator(1)(5.0)


def _lq_coefficient(q):
    return q * (2.0 - 2.0 * q) ** (1.0 - q) / (2.0 - q) ** (2.0 - q)


def _bisection_root(t, q, steps=100):
    """Reference: bisection on the bracket [t (1 - q/(2-q)), t]."""
    K = _lq_coefficient(q)
    lo = t * (1.0 - q / (2.0 - q))
    hi = t.copy()
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = mid + K * mid ** (q - 1.0) - t <= 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


LQ_ORACLE_T = np.concatenate([[1.0], np.logspace(0.0, 15.0, 400)])


class TestLqRoot:
    def test_closed_form_q_half(self):
        # x = w^2 with w the largest root of w^3 - t w + K = 0, from the
        # trigonometric form of the three-real-root cubic
        t = LQ_ORACLE_T
        K = _lq_coefficient(0.5)
        phi = np.arccos(-1.5 * np.sqrt(3.0) * K / t**1.5)
        w = 2.0 * np.sqrt(t / 3.0) * np.cos(phi / 3.0)
        np.testing.assert_allclose(lq_larger_root(t, 0.5), w * w, rtol=1e-13, atol=0.0)

    def test_closed_form_q_two_thirds(self):
        # x = w^3 with w the largest real root of w^4 - t w + K = 0
        q = 2.0 / 3.0
        K = _lq_coefficient(q)

        def largest_real_root(t):
            roots = np.roots([1.0, 0.0, 0.0, -t, K])
            return roots[np.abs(roots.imag) < 1e-9 * np.abs(roots)].real.max()

        w = np.array([largest_real_root(t) for t in LQ_ORACLE_T])
        np.testing.assert_allclose(lq_larger_root(LQ_ORACLE_T, q), w**3, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("q", [0.05, 0.4, 2.0 / 3.0, 0.9, 0.99])
    def test_newton_matches_bisection(self, q):
        t = np.concatenate([[1.0, 1.0 + 1e-12], np.logspace(0.0, 15.0, 2000)])
        x = lq_larger_root(t, q)
        np.testing.assert_allclose(x, _bisection_root(t, q), rtol=1e-13, atol=0.0)
        # a fixed step count: batched and one-at-a-time calls agree bit for bit
        rows = np.concatenate([lq_larger_root(t[i : i + 1], q) for i in range(t.size)])
        np.testing.assert_array_equal(x, rows)
        np.testing.assert_array_equal(lq_larger_root(t.reshape(2, -1), q), x.reshape(2, -1))


class TestCustomShrink:
    def test_sigma_zero_is_hard(self):
        op = ThresholdingOperator(2, ShrinkageFunction.from_callable(lambda t: np.zeros_like(t)))
        z = [3.0, -1.0, 2.0, 0.5]
        np.testing.assert_array_equal(op(z), hard_operator(2)(z))

    def test_reciprocal_sigma_matches(self):
        sig = ShrinkageFunction.from_callable(lambda t: (t - np.sqrt(t * t - 1.0)) / 2.0)
        op = ThresholdingOperator(1, sig)
        np.testing.assert_allclose(
            op([2.0, 1.0]),
            reciprocal_operator(1, 0.0)([2.0, 1.0]),
            atol=1e-12,
        )

    def test_sigma_one_shrinks_by_tau(self):
        op = ThresholdingOperator(1, ShrinkageFunction.from_callable(lambda t: np.ones_like(t)))
        z = np.array([3.0, 1.0])
        out = op(z)
        np.testing.assert_allclose(out, [2.0, 0.0])

    def test_out_of_range_sigma_raises(self):
        op = ThresholdingOperator(1, ShrinkageFunction.from_callable(lambda t: t))
        with pytest.raises(ShrinkOutOfRangeError):
            op([3.0, 1.0])

    def test_table_interpolation_clamps(self):
        sig = ShrinkageFunction.from_table([1.0, 2.0], [0.4, 0.2])
        assert sig.sigma(np.array([50.0]))[0] == 0.2
        assert abs(sig.sigma(np.array([1.5]))[0] - 0.3) < 1e-15

    def test_bad_tables_rejected(self):
        with pytest.raises(InvalidParameterError):
            ShrinkageFunction.from_table([1.0, 2.0], [0.2, 0.4])  # increasing
        with pytest.raises(InvalidParameterError):
            ShrinkageFunction.from_table([1.0, 2.0], [0.2, -0.1])  # out of range


class TestProxL1:
    def test_examples(self):
        np.testing.assert_allclose(prox_l1([3.0, -1.0, 0.5], 1.0), [2.0, 0.0, 0.0])
        z = np.array([0.3, -2.0, 1.1])
        np.testing.assert_array_equal(prox_l1(z, 0.0), z)
        np.testing.assert_allclose(prox_l1([-3.0], 5.0), [0.0])

    def test_negative_level_rejected(self):
        with pytest.raises(InvalidParameterError):
            prox_l1([1.0], -0.1)
        with pytest.raises(InvalidParameterError):  # NaN is no nonnegative level
            prox_l1([1.0, -2.0], np.nan)

    def test_array_level_is_per_row(self):
        Z = np.array([[3.0, -1.0, 0.5], [3.0, -1.0, 0.5]])
        out = prox_l1(Z, np.array([[1.0], [0.25]]))
        assert np.array_equal(out[0], prox_l1(Z[0], 1.0))
        assert np.array_equal(out[1], prox_l1(Z[1], 0.25))

    def test_negative_entry_in_array_level_rejected(self):
        with pytest.raises(InvalidParameterError):
            prox_l1(np.ones((2, 3)), np.array([[0.5], [-0.1]]))
        with pytest.raises(InvalidParameterError):
            prox_l1(np.ones((2, 3)), np.array([[0.5], [np.nan]]))


# ---------------------------------------------------------------------------
# property tests

vector_strategy = st.integers(2, 8).flatmap(
    lambda d: st.tuples(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
            min_size=d,
            max_size=d,
        ),
        st.integers(1, d),
    )
)


@settings(max_examples=150, deadline=None)
@given(vector_strategy, st.sampled_from(ALL_OPERATORS))
def test_sparsity_invariant(zs, name):
    z, s = zs
    op = parse_operator(name, s)
    assert np.count_nonzero(op(np.asarray(z))) <= s


@settings(max_examples=150, deadline=None)
@given(vector_strategy, st.sampled_from(ALL_OPERATORS))
def test_idempotence_on_sparse(zs, name):
    z, s = zs
    z = np.asarray(z)
    z[s:] = 0.0  # force s-sparsity
    op = parse_operator(name, s)
    np.testing.assert_array_equal(op(z), z)


@settings(max_examples=150, deadline=None)
@given(
    vector_strategy,
    st.sampled_from(ALL_OPERATORS),
    st.lists(st.sampled_from([-1.0, 1.0]), min_size=8, max_size=8),
)
def test_sign_equivariance_exact(zs, name, signs):
    z, s = zs
    z = np.asarray(z)
    a = np.asarray(signs[: len(z)])
    op = parse_operator(name, s)
    np.testing.assert_array_equal(op(a * z), a * op(z))


@settings(max_examples=150, deadline=None)
@given(vector_strategy, st.sampled_from(ALL_OPERATORS))
def test_support_agreement(zs, name):
    z, s = zs
    z = np.asarray(z)
    op = parse_operator(name, s)
    out = op(z)
    sel, _ = select_support(z, s)
    assert set(np.flatnonzero(out).tolist()) <= set(sel.tolist())


def _operator_by_name(name, s):
    if name == "table":
        table = ShrinkageFunction.from_table([1.0, 2.0, 4.0], [0.5, 0.3, 0.1])
        return ThresholdingOperator(s, table)
    return parse_operator(name, s)


wide_range_strategy = st.integers(2, 8).flatmap(
    lambda d: st.tuples(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(1e-6, 1e6).flatmap(lambda m: st.sampled_from([m, -m])),
            ),
            min_size=d,
            max_size=d,
        ),
        st.integers(1, d),
    )
)


def _along_axis_driver(z, s, entry_map):
    """Reference driver: the stable-argsort support rule with per-axis
    gather and scatter, for the operators' flat-index driver to match."""
    z = np.asarray(z, dtype=float)
    if s == z.shape[-1]:
        return z.copy()
    order = np.argsort(-np.abs(z), axis=-1, kind="stable")
    keep = order[..., :s]
    tau = np.take_along_axis(np.abs(z), order[..., s : s + 1], axis=-1)
    vals = np.take_along_axis(z, keep, axis=-1)
    safe_tau = np.where(tau > 0.0, tau, 1.0)
    new_vals = np.where(tau > 0.0, entry_map(vals, safe_tau), vals)
    out = np.zeros_like(z)
    np.put_along_axis(out, keep, new_vals, axis=-1)
    return out


@st.composite
def driver_inputs(draw):
    """Shapes (d,), (k, d) and (2, k, d) with d up to 40 and up to 50 rows,
    in C, Fortran or reversed-view layout.  Entries come from a drawn seed;
    small integers give many ties, and zeroing a drawn share of the entries
    gives rows with tau == 0."""
    d = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 50))
    shape = draw(st.sampled_from([(), (rows,), (2, (rows + 1) // 2)])) + (d,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        z = rng.integers(-2, 3, size=shape).astype(float)
    else:
        z = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** draw(st.integers(-6, 6))
    z[rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    layout = draw(st.sampled_from(["C", "F", "reversed"]))
    if layout == "F":
        z = np.asfortranarray(z)
    elif layout == "reversed":
        z = z[::-1, ..., ::-1] if z.ndim > 1 else z[::-1]
    return z, draw(st.integers(1, d))


@settings(max_examples=400, deadline=None)
@given(driver_inputs(), st.sampled_from(ALL_OPERATORS + ["table"]))
def test_driver_matches_along_axis_reference(zs, name):
    z, s = zs
    op = _operator_by_name(name, s)
    out = op(z)
    ref = _along_axis_driver(z, s, op.shrink.entry_map)
    assert out.shape == z.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(out).view(np.int64), np.ascontiguousarray(ref).view(np.int64)
    )


@pytest.mark.parametrize("name", ALL_OPERATORS + ["table"])
def test_driver_edge_rows_bitwise(name):
    # s == d returns the input; a row that is already s-sparse (tau == 0)
    # keeps its entries while the other rows of the batch are thresholded
    Z = np.array([[0.0, 3.0, 0.0, -1.0], [2.0, -2.0, 1.0, 0.5], [0.0, 0.0, 0.0, 0.0]])
    for s in (2, 4):
        op = _operator_by_name(name, s)
        out = op(Z)
        ref = _along_axis_driver(Z, s, op.shrink.entry_map)
        np.testing.assert_array_equal(out.view(np.int64), ref.view(np.int64))
    np.testing.assert_array_equal(_operator_by_name(name, 2)(Z)[[0, 2]], Z[[0, 2]])


@settings(max_examples=300, deadline=None)
@given(wide_range_strategy, st.sampled_from(ALL_OPERATORS + ["table"]), st.integers(-900, 900))
def test_power_of_two_scaling_exact(zs, name, k):
    # op(2^k z) == 2^k op(z) bit for bit: no scaled entry is subnormal or
    # overflows, so any deviation is the operator's own rounding
    z, s = zs
    z = np.asarray(z)
    op = _operator_by_name(name, s)
    np.testing.assert_array_equal(op(np.ldexp(z, k)), np.ldexp(op(z), k))


@settings(max_examples=100, deadline=None)
@given(vector_strategy, st.sampled_from(["rt:0", "rt:0.5", "lq:0.4", "lq:0.666666666667"]))
def test_shrinkage_sandwich(zs, name):
    # 0 <= |z_i| - |out_i| <= tau * sigma(1) on the kept entries, and the
    # shrinkage amount is nonincreasing in |z_i|
    z, s = zs
    z = np.asarray(z)
    op = parse_operator(name, s)
    out = op(z)
    sel, tau = select_support(z, s)
    if tau == 0.0:
        return
    sigma1 = op.shrink.sigma1()
    shrink = np.abs(z[sel]) - np.abs(out[sel])
    assert np.all(shrink >= -1e-12)
    assert np.all(shrink <= tau * sigma1 + 1e-9 * max(1.0, tau))
    order = np.argsort(np.abs(z[sel]))
    assert np.all(np.diff(shrink[order]) <= 1e-9 * max(1.0, tau))


@pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 0.75, 0.99])
def test_lemma5_hypothesis_grid_reciprocal(c):
    grid = np.arange(1.0, 100.0 + 1e-9, 0.01)
    sig = ShrinkageFunction.reciprocal(c).sigma(grid)
    assert np.all(np.diff(sig) <= 1e-15)
    assert np.all((sig >= 0.0) & (sig <= 1.0))
    h = sig * (grid - sig)
    assert np.all(np.diff(h) >= -1e-12)
    # for the reciprocal family the map is exactly constant (1-c^2)/4
    np.testing.assert_allclose(h, (1.0 - c * c) / 4.0, atol=1e-12)


@pytest.mark.parametrize("q", [0.3, 0.4, 2.0 / 3.0, 0.9])
def test_lemma5_hypothesis_grid_lq(q):
    grid = np.arange(1.0, 100.0 + 1e-9, 0.01)
    sig = ShrinkageFunction.lq(q).sigma(grid)
    assert np.all(np.diff(sig) <= 1e-10)
    assert np.all((sig >= 0.0) & (sig <= 1.0))
    h = sig * (grid - sig)
    assert np.all(np.diff(h) >= -1e-10)


def test_shrinkage_inequality_vs_reciprocal_floor():
    # sigma(t) >= (t - sqrt(t^2 - (1-c^2)))/2 with equality for the
    # reciprocal kind and strict inequality for lq at matching sigma(1)
    grid = np.arange(1.0, 50.0, 0.01)
    q = 2.0 / 3.0  # sigma(1) = 1/2, matching c = 0
    sig_lq = ShrinkageFunction.lq(q).sigma(grid)
    floor = ShrinkageFunction.reciprocal(0.0).sigma(grid)
    assert np.all(sig_lq >= floor - 1e-12)
    assert np.all(sig_lq[grid > 1.0 + 1e-9] > floor[grid > 1.0 + 1e-9])


def test_parse_operator():
    assert parse_operator("hard", 3).name == "hard"
    assert parse_operator("soft", 3).name == "soft"
    assert parse_operator("rt:0.5", 3).shrink.param == 0.5
    assert parse_operator("lq:0.4", 3).shrink.param == 0.4
    assert parse_operator("rt", 3).shrink.param == 0.0
    assert parse_operator("rt:", 3).shrink.param == 0.0
    assert parse_operator("lq", 3).shrink.param == 2.0 / 3.0
    with pytest.raises(InvalidParameterError):
        parse_operator("scad", 3)
    # a parameter hard or soft would drop, or one that is not a number, is
    # refused with the spec named
    for spec in ("hard:5", "soft:0.3", "hard:"):
        with pytest.raises(InvalidParameterError, match=f"'{spec}': .* takes no parameter"):
            parse_operator(spec, 3)
    for spec in ("rt:abc", "lq:q", "rt:0.5:1"):
        with pytest.raises(InvalidParameterError, match=f"'{spec}': parameter .* is not a number"):
            parse_operator(spec, 3)
    for spec in ("rt:nan", "rt:2", "lq:1"):
        with pytest.raises(InvalidParameterError, match="parameter"):
            parse_operator(spec, 3)


def test_operator_objects():
    op = reciprocal_operator(2, 0.0)
    # tau = 0.5; kept entries map to (|z| + sqrt(z^2 - tau^2)) / 2
    expected = [(2.0 + np.sqrt(3.75)) / 2.0, (1.0 + np.sqrt(0.75)) / 2.0, 0.0]
    np.testing.assert_allclose(op([2.0, 1.0, 0.5]), expected)
    assert op.with_sparsity(1).s == 1
    assert hard_operator(2).name == "hard"
    assert soft_operator(2).name == "soft"
    assert lq_operator(2, 0.4).name == "lq:0.4"


def test_batched_rows_match_single():
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((6, 7))
    custom = [
        ThresholdingOperator(3, ShrinkageFunction.from_table([1.0, 2.0, 4.0], [0.5, 0.3, 0.1])),
        ThresholdingOperator(3, ShrinkageFunction.from_callable(lambda t: 0.5 / t)),
    ]
    for op in [parse_operator(name, 3) for name in ALL_OPERATORS] + custom:
        batch = op(Z)
        for i in range(Z.shape[0]):
            np.testing.assert_array_equal(batch[i], op(Z[i]))
