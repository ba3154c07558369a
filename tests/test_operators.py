"""Operator unit tests: worked examples, independent oracles, and axioms."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshlab.operators import (
    InvalidParameterError,
    InvalidSparsityError,
    ShrinkageFunction,
    ShrinkOutOfRangeError,
    custom_operator,
    hard_operator,
    lq_larger_root,
    lq_operator,
    parse_operator,
    prox_l1,
    reciprocal_operator,
    select_support,
    soft_operator,
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
            select_support(np.array([1.0, 2.0]), 0)
        with pytest.raises(InvalidSparsityError):
            select_support(np.array([1.0, 2.0]), 3)

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


class TestLqThreshold:
    def test_sigma1_example(self):
        np.testing.assert_allclose(lq_operator(1, 2.0 / 3.0)([1.0, 1.0]), [0.5, 0.0], atol=1e-11)

    def test_large_entry_bounds(self):
        out = lq_operator(1, 2.0 / 3.0)([10.0, 1.0])
        sigma1 = (2.0 / 3.0) / (2.0 - 2.0 / 3.0)
        assert 10.0 - sigma1 < out[0] < 10.0

    def test_root_residual_oracle(self):
        # residual of the defining equation, checked independently of bisection
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


class TestCustomShrink:
    def test_sigma_zero_is_hard(self):
        op = custom_operator(2, ShrinkageFunction.from_callable(lambda t: np.zeros_like(t)))
        z = [3.0, -1.0, 2.0, 0.5]
        np.testing.assert_array_equal(op(z), hard_operator(2)(z))

    def test_reciprocal_sigma_matches(self):
        sig = ShrinkageFunction.from_callable(lambda t: (t - np.sqrt(t * t - 1.0)) / 2.0)
        op = custom_operator(1, sig)
        np.testing.assert_allclose(
            op([2.0, 1.0]),
            reciprocal_operator(1, 0.0)([2.0, 1.0]),
            atol=1e-12,
        )

    def test_sigma_one_shrinks_by_tau(self):
        op = custom_operator(1, ShrinkageFunction.from_callable(lambda t: np.ones_like(t)))
        z = np.array([3.0, 1.0])
        out = op(z)
        np.testing.assert_allclose(out, [2.0, 0.0])

    def test_out_of_range_sigma_raises(self):
        op = custom_operator(1, ShrinkageFunction.from_callable(lambda t: t))
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
    with pytest.raises(InvalidParameterError):
        parse_operator("scad", 3)


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
        custom_operator(3, ShrinkageFunction.from_table([1.0, 2.0, 4.0], [0.5, 0.3, 0.1])),
        custom_operator(3, ShrinkageFunction.from_callable(lambda t: 0.5 / t)),
    ]
    for op in [parse_operator(name, 3) for name in ALL_OPERATORS] + custom:
        batch = op(Z)
        for i in range(Z.shape[0]):
            np.testing.assert_array_equal(batch[i], op(Z[i]))
