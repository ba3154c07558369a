"""Sparsity-enforcing thresholding operators on real vectors.

Every operator here shares one support rule: keep the ``s`` largest-magnitude
entries (ties broken in favor of the lowest index, exact float comparison) and
let ``tau`` be the largest magnitude left outside the support, i.e. the
(s+1)-st largest magnitude overall.  Inputs that are already s-sparse have
``tau == 0`` and pass through unchanged.  Inputs must be finite: a NaN or
infinite entry raises InvalidParameterError.

The operator family is parameterized by a shrinkage function ``sigma`` mapping
the normalized magnitude ``t = |z_i|/tau >= 1`` of a kept entry to the relative
shrinkage applied to it: the kept entry becomes
``sign(z_i) * (|z_i| - tau * sigma(|z_i|/tau))``.  ``sigma == 0`` is hard
thresholding, ``sigma == 1`` shrinks every kept entry by exactly ``tau``
(fixed-sparsity soft thresholding), and the reciprocal and l_q kinds
interpolate between the two.

Each kind is a ``ShrinkageFunction`` that supplies its ``entry_map(vals,
tau)``, the map it applies to the kept entries; one driver selects the
support, computes tau and hands the kept entries to that map.  Hard, soft
and l_q evaluate it in closed form; reciprocal, table and callable kinds use
the generic formula above on their sigma.

All functions accept arrays of shape ``(..., d)`` and act along the last axis,
so batched evaluation is free.  Everything is pure: no shared mutable state,
safe to call from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np


class InvalidSparsityError(ValueError):
    """Sparsity level outside ``1 <= s <= dimension``."""


class InvalidParameterError(ValueError):
    """Operator parameter outside its legal range."""


class ShrinkOutOfRangeError(ValueError):
    """A shrinkage function returned a value outside [0, 1]."""


class RootNotBracketedError(RuntimeError):
    """The l_q root equation lost its bracket; indicates a bug for t >= 1."""


def _check_sparsity(d: int, s: int) -> None:
    if not isinstance(s, (int, np.integer)) or s < 1 or s > d:
        raise InvalidSparsityError(f"sparsity s={s} not in [1, {d}]")


def support_order(z: np.ndarray) -> np.ndarray:
    """Indices sorted by decreasing magnitude, ties by increasing index.

    The reference form of the support rule: the operators keep the set of
    its first ``s`` entries, but select it without sorting."""
    # stable sort on -|z| implements the lowest-index-wins tie rule exactly
    return np.argsort(-np.abs(z), axis=-1, kind="stable")


def _apply_entrywise(z, s: int, entry_map) -> np.ndarray:
    """Shared driver: select support, map kept entries, zero the rest.

    Selection is O(d) per row.  ``np.partition`` gives tau, the (s+1)-st
    largest magnitude.  Every entry with ``|z| > tau`` is kept; rows that
    come up short (ties at tau) are topped up with the entries equal to
    tau, lowest index first.  That is the set ``support_order(z)[..., :s]``
    selects, so each row keeps exactly ``s`` entries.

    ``entry_map(vals, tau)`` receives the kept entries in index order (shape
    ``(..., s)``) and the per-row threshold level (shape ``(..., 1)``,
    guaranteed > 0 where used); rows with tau == 0 keep their entries
    untouched.  The kept entries are gathered by one ``take`` and scattered
    by one ``put`` at their indices in the row-major flattening of ``z``.
    A 0-d ``z``, or a NaN or infinite entry anywhere in ``z``, raises
    InvalidParameterError.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        raise InvalidParameterError("operator input must have at least one axis")
    d = z.shape[-1]
    _check_sparsity(d, s)
    if not np.isfinite(z).all():
        raise InvalidParameterError("operator input has a NaN or infinite entry")
    if s == d:
        return z.copy()
    mag = np.abs(z)
    tau = np.partition(mag, d - s - 1, axis=-1)[..., d - s - 1 : d - s]
    keep = mag > tau
    # no row keeps more than s entries above tau, so a short total means ties
    if np.count_nonzero(keep) < tau.size * s:
        tied = mag == tau
        missing = s - np.count_nonzero(keep, axis=-1, keepdims=True)
        keep |= tied & (np.cumsum(tied, axis=-1) <= missing)
    flat = keep.ravel().nonzero()[0]
    vals = z.take(flat).reshape(tau.shape[:-1] + (s,))
    positive = tau > 0.0
    new_vals = np.where(positive, entry_map(vals, np.where(positive, tau, 1.0)), vals)
    out = np.zeros(z.shape)
    out.put(flat, new_vals)
    return out


def _lq_shrink_coefficient(q: float) -> float:
    return q * (2.0 - 2.0 * q) ** (1.0 - q) / (2.0 - q) ** (2.0 - q)


_LQ_NEWTON_STEPS = 6


def lq_larger_root(t, q: float) -> np.ndarray:
    """Larger root x of ``t = x + K x^(q-1)`` with K the l_q coefficient.

    Six Newton steps on the convex ``g(x) = x + K x^(q-1) - t`` from
    ``x = t``, where ``g > 0``, so the iterates fall monotonically onto the
    larger root.  For t in [1, 1e15] they agree with a converged bisection
    to relative 4e-15 for q <= 0.9 and 3e-14 at q = 0.99, where the root is
    ill-conditioned near t = 1 (five steps leave 2.5e-9 there).
    The step count is fixed, so batched and single-vector evaluations are
    bitwise identical.

    Precondition: every t is finite and at least 1; otherwise
    RootNotBracketedError is raised before iterating.  Postcondition: the
    root lies in the bracket ``[t (1 - q/(2-q)), t]``, whose lower end it
    attains at t = 1; that end gets an allowance of 1e-12 t for rounding,
    and a NaN fails the check.
    """
    if not 0.0 < q < 1.0:
        raise InvalidParameterError(f"lq parameter q={q} not in (0, 1)")
    t = np.asarray(t, dtype=float)
    # written as positive tests so that a NaN fails them
    if not np.all((t >= 1.0) & (t < np.inf)):
        raise RootNotBracketedError("l_q root needs finite t >= 1")
    K = _lq_shrink_coefficient(q)
    x = t
    for _ in range(_LQ_NEWTON_STEPS):
        p = K * x ** (q - 1.0)
        x = x - (x + p - t) / (1.0 - (1.0 - q) * p / x)
    lo = t * (1.0 - q / (2.0 - q) - 1e-12)
    if not np.all((x >= lo) & (x <= t)):
        raise RootNotBracketedError("l_q Newton iterate left its bracket")
    return x


def prox_l1(z, t) -> np.ndarray:
    """Soft shrinkage at a fixed level ``t >= 0`` (prox of t * l1-norm).

    ``t`` is a scalar or an array that broadcasts against ``z``, such as a
    ``(k, 1)`` column giving each row of a ``(k, d)`` stack its own level."""
    # the min method costs a fifth of np.any's dispatch on a small level;
    # written as a positive test so that a NaN level fails it
    if not np.asarray(t).min() >= 0:
        raise InvalidParameterError(f"prox level t={t} must be a nonnegative number")
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


# ---------------------------------------------------------------------------
# shrinkage functions and the operator wrapper


def _sigma_entry_map(sigma):
    """Entry map ``sign(v) * (|v| - tau * sigma(|v|/tau))`` for a given sigma."""

    def entry_map(vals, tau):
        mag = np.abs(vals)
        # t = |v|/tau capped near 1e15 (beyond it tau * sigma(t) is below one
        # ulp of v); dividing by max(tau, 1e-15 |v|) caps without overflowing
        t = np.maximum(mag / np.maximum(tau, 1e-15 * mag), 1.0)
        return np.copysign(mag - tau * sigma(t), vals)

    return entry_map


@dataclass(frozen=True)
class ShrinkageFunction:
    """Relative shrinkage rule sigma: [1, inf) -> [0, 1], nonincreasing.

    ``kind`` is one of hard | soft | reciprocal | lq | custom; ``param`` holds
    c (reciprocal) or q (lq).  ``sigma`` evaluates on arrays of normalized
    magnitudes t >= 1.  ``entry_map(vals, tau)`` applies the same rule to the
    kept entries ``vals`` (shape ``(..., s)``) at the per-row level ``tau > 0``
    (shape ``(..., 1)``), returning ``sign(v) * (|v| - tau * sigma(|v|/tau))``;
    hard, soft and l_q evaluate it in closed form.  Parameter ranges are
    checked here, once, by the factories.
    """

    kind: str
    param: Optional[float]
    sigma: Callable[[np.ndarray], np.ndarray]
    entry_map: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @classmethod
    def hard(cls) -> "ShrinkageFunction":
        """sigma == 0: kept entries pass through exactly."""
        return cls(
            "hard",
            None,
            lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            lambda vals, tau: vals,
        )

    @classmethod
    def soft(cls) -> "ShrinkageFunction":
        """sigma == 1: every kept entry shrinks by exactly tau.

        tau is the smallest soft-threshold level achieving s-sparsity; tied
        boundary entries all shrink to zero, so the output can have fewer
        than ``s`` nonzeros.
        """
        return cls(
            "soft",
            None,
            lambda t: np.ones_like(np.asarray(t, dtype=float)),
            lambda vals, tau: np.sign(vals) * (np.abs(vals) - tau),
        )

    @classmethod
    def reciprocal(cls, c: float) -> "ShrinkageFunction":
        """Reciprocal thresholding with parameter ``c`` in [0, 1].

        A kept entry maps to ``sign(z_i) * (|z_i| + sqrt(z_i^2 - tau^2(1-c^2)))/2``,
        the larger root t of ``z_i = t + tau^2 (1-c^2) / (4 t)``.  ``c = 1`` is
        hard thresholding; ``c = 0`` is the universal reciprocal operator.  The
        map is evaluated as ``|z_i| - tau * sigma(|z_i|/tau)`` with sigma in
        cancellation-free form, so no entry is squared: it neither overflows
        nor underflows anywhere in the float range.
        """
        if not 0.0 <= c <= 1.0:
            raise InvalidParameterError(f"reciprocal parameter c={c} not in [0, 1]")
        a = 1.0 - c * c
        half_a = 0.5 * a

        def sigma(t):
            t = np.asarray(t, dtype=float)
            # cancellation-free form of (t - sqrt(t^2 - a)) / 2
            return half_a / (t + np.sqrt(t * t - a))

        return cls("reciprocal", c, sigma, _sigma_entry_map(sigma))

    @classmethod
    def lq(cls, q: float) -> "ShrinkageFunction":
        """l_q thresholding via its shrinkage-function characterization.

        Each kept entry with normalized magnitude ``t = |z_i|/tau`` maps to
        ``tau * x`` where x is the larger root of the l_q root equation, with
        the sign restored.  ``sigma(1) = q/(2-q)``.
        """
        if not 0.0 < q < 1.0:
            raise InvalidParameterError(f"lq parameter q={q} not in (0, 1)")

        def entry_map(vals, tau):
            with np.errstate(over="ignore"):
                t = np.maximum(np.abs(vals) / tau, 1.0)
            # beyond the cap the shrinkage tau * sigma(t) is below one ulp of
            # vals, so those entries pass through
            in_range = t <= 1e15
            t_safe = np.where(in_range, t, 1.0)
            shrunk = np.sign(vals) * (tau * lq_larger_root(t_safe, q))
            return np.where(in_range, shrunk, vals)

        return cls(
            "lq",
            q,
            lambda t: np.asarray(t, dtype=float) - lq_larger_root(t, q),
            entry_map,
        )

    @classmethod
    def from_table(cls, t_grid, sigma_values) -> "ShrinkageFunction":
        """Monotone piecewise-linear sigma; clamps beyond the table ends."""
        t_grid = np.asarray(t_grid, dtype=float)
        sig = np.asarray(sigma_values, dtype=float)
        if t_grid.ndim != 1 or t_grid.shape != sig.shape or t_grid.size < 2:
            raise InvalidParameterError("table needs matching 1-D grids, len >= 2")
        if t_grid[0] < 1.0 or np.any(np.diff(t_grid) <= 0):
            raise InvalidParameterError("table grid must be increasing and start >= 1")
        if np.any(sig < 0.0) or np.any(sig > 1.0):
            raise InvalidParameterError("table sigma values must lie in [0, 1]")
        if np.any(np.diff(sig) > 0.0):
            raise InvalidParameterError("table sigma values must be nonincreasing")

        def sigma(t):
            return np.interp(t, t_grid, sig)

        return cls("custom", None, sigma, _sigma_entry_map(sigma))

    @classmethod
    def from_callable(cls, fn: Callable[[np.ndarray], np.ndarray]) -> "ShrinkageFunction":
        """sigma supplied by ``fn``; its values are checked on every evaluation.

        Raises ShrinkOutOfRangeError if ``fn`` strays outside [0, 1] on any
        evaluated point.
        """

        def sigma(t):
            sig = np.asarray(fn(t), dtype=float)
            if np.any(sig < -1e-12) or np.any(sig > 1.0 + 1e-12):
                raise ShrinkOutOfRangeError("sigma returned a value outside [0, 1]")
            return sig

        return cls("custom", None, sigma, _sigma_entry_map(sigma))

    def sigma1(self) -> float:
        """sigma(1), the maximum relative shrinkage."""
        return float(self.sigma(np.asarray([1.0]))[0])


@dataclass(frozen=True)
class ThresholdingOperator:
    """An s-sparse thresholding operator: support rule plus shrinkage rule.

    Output always has at most ``s`` nonzeros, commutes with coordinatewise
    sign flips, and leaves already-s-sparse inputs untouched.
    """

    s: int
    shrink: ShrinkageFunction

    def __post_init__(self):
        if self.s < 1:
            raise InvalidSparsityError(f"sparsity s={self.s} must be >= 1")

    def __call__(self, z) -> np.ndarray:
        return _apply_entrywise(z, self.s, self.shrink.entry_map)

    def with_sparsity(self, s: int) -> "ThresholdingOperator":
        return replace(self, s=s)

    @property
    def name(self) -> str:
        kind = self.shrink.kind
        if kind == "reciprocal":
            return f"rt:{self.shrink.param:g}"
        if kind == "lq":
            return f"lq:{self.shrink.param:g}"
        return kind


def hard_operator(s: int) -> ThresholdingOperator:
    return ThresholdingOperator(s, ShrinkageFunction.hard())


def soft_operator(s: int) -> ThresholdingOperator:
    return ThresholdingOperator(s, ShrinkageFunction.soft())


def reciprocal_operator(s: int, c: float = 0.0) -> ThresholdingOperator:
    return ThresholdingOperator(s, ShrinkageFunction.reciprocal(c))


def lq_operator(s: int, q: float) -> ThresholdingOperator:
    return ThresholdingOperator(s, ShrinkageFunction.lq(q))


def parse_operator(spec: str, s: int) -> ThresholdingOperator:
    """Build an operator from a CLI-style spec: hard | soft | rt[:c] | lq[:q]."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "hard":
        return hard_operator(s)
    if name == "soft":
        return soft_operator(s)
    if name == "rt":
        return reciprocal_operator(s, float(arg) if arg else 0.0)
    if name == "lq":
        return lq_operator(s, float(arg) if arg else 2.0 / 3.0)
    raise InvalidParameterError(f"unknown operator spec {spec!r}")
