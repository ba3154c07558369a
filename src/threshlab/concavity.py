"""Relative concavity of thresholding operators.

The relative concavity of an s-sparse operator Psi at sparsity proportion
rho = s'/s is the supremum of the projection-alignment ratio

    <y - Psi(z), z - Psi(z)> / ||y - Psi(z)||^2

over all z and all s'-sparse y != Psi(z).  A convex projection would keep
this nonpositive; positive values measure how far the operator is from one,
and an operator admits a restricted-optimality guarantee on kappa-conditioned
objectives exactly when its relative concavity stays below 1/(2 kappa).

This module provides the closed forms (hard thresholding, the optimal value,
the general shrinkage class and its reciprocal / l_q instances), an empirical
maximization of the defining ratio with the exact witness families from the
closed-form derivations, and the universal lower-bound witness valid for any
operator.

The ratio is written once, in the batched kernel ``_ratios``; the vector
search and the trap builder in ``adversarial`` evaluate it there, and the
matrix search in ``lowrank``, which is the vector search read through the
lift, re-scores its embedded witness there through ``_collect``.
``concavity_ratio`` ravels its inputs, so with a lifted operator it gives
the Frobenius ratio of matrices, which by the lifting lemma is the
rank-constrained concavity ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .operators import InvalidParameterError, ThresholdingOperator


class DegenerateWitnessError(ValueError):
    """The candidate y coincides with Psi(z); the ratio is undefined."""


@dataclass(frozen=True)
class ConcavityQuery:
    """Sparsity pair (s, s') and ambient dimension for a concavity search.

    Defaults to the minimal legal dimension d = s + s', where every known
    extremal witness lives.  Standing assumption: 1 <= s' <= s <= d and
    s + s' <= d.
    """

    s: int
    s_prime: int
    d: Optional[int] = None

    def __post_init__(self):
        d = self.dim
        if not (1 <= self.s_prime <= self.s <= d and self.s + self.s_prime <= d):
            raise InvalidParameterError(
                f"need 1 <= s'={self.s_prime} <= s={self.s} <= d={d} and s+s' <= d"
            )

    @property
    def dim(self) -> int:
        return self.d if self.d is not None else self.s + self.s_prime

    @property
    def rho(self) -> float:
        return self.s_prime / self.s


@dataclass
class ConcavityReport:
    """Result of an empirical concavity maximization.

    ``closed_form`` is None when no closed form is known for the operator
    kind (soft, custom) and +inf when the supremum genuinely diverges
    (shrinkage kinds at rho = 1).  ``empirical_max`` is always a certified
    lower estimate: the best honestly-evaluated ratio found.
    """

    closed_form: Optional[float]
    empirical_max: float
    witness_y: np.ndarray
    witness_z: np.ndarray
    ratio_at_witness: float


def _ratios(Y, Z, X) -> np.ndarray:
    """The ratio <Y - X, Z - X> / ||Y - X||^2 along the last axis.

    The one place the formula is written.  Arguments broadcast against each
    other; entries where Y equals X come out -inf.
    """
    diff = Y - X
    den = np.einsum("...i,...i->...", diff, diff)
    num = np.einsum("...i,...i->...", diff, Z - X)
    out = np.full(den.shape, -math.inf)
    return np.divide(num, den, out=out, where=den > 0.0)


def concavity_ratio(y, z, op) -> float:
    """The alignment ratio <y - x, z - x> / ||y - x||^2 with x = op(z).

    ``op`` may be a vector operator or a lifted (matrix) operator: the
    inputs are raveled, so for matrices this is the Frobenius ratio.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    r = float(_ratios(y.ravel(), z.ravel(), op(z).ravel()))
    if r == -math.inf:
        raise DegenerateWitnessError("y equals op(z); ratio undefined")
    return r


def gamma_hard(rho: float) -> float:
    """Relative concavity of hard thresholding: sqrt(rho)/2."""
    if not 0.0 < rho <= 1.0:
        raise InvalidParameterError(f"rho={rho} not in (0, 1]")
    return math.sqrt(rho) / 2.0


def gamma_optimal(rho: float) -> float:
    """Best possible relative concavity over all operators: rho/(1+rho)."""
    if not 0.0 < rho <= 1.0:
        raise InvalidParameterError(f"rho={rho} not in (0, 1]")
    return rho / (1.0 + rho)


def gamma_shrink_class(rho: float, sigma1: float) -> float:
    """Relative concavity of the general shrinkage class, by sigma(1).

    Valid for any nonincreasing sigma with 0 < sigma(1) < 1 whose
    t * sigma(t)(t - sigma(t)) map is nondecreasing.  Equals rho/(1+rho),
    the optimum, exactly when sigma(1) = (1-rho)/2.
    """
    if not 0.0 < rho < 1.0:
        raise InvalidParameterError(f"rho={rho} not in (0, 1)")
    if not 0.0 < sigma1 < 1.0:
        raise InvalidParameterError(f"sigma(1)={sigma1} not in (0, 1)")
    m = min(1.0, (1.0 - rho) / sigma1**2)
    num = rho / m
    den = 2.0 * sigma1 * (1.0 - sigma1) * (1.0 + math.sqrt(1.0 + (rho / sigma1**2) / m))
    return num / den


def gamma_reciprocal(rho: float, c: float) -> float:
    """Relative concavity of reciprocal thresholding: sigma(1) = (1-c)/2."""
    if not 0.0 <= c < 1.0:
        raise InvalidParameterError(f"c={c} not in [0, 1)")
    return gamma_shrink_class(rho, (1.0 - c) / 2.0)


def gamma_lq(rho: float, q: float) -> float:
    """Relative concavity of l_q thresholding: sigma(1) = q/(2-q)."""
    if not 0.0 < q < 1.0:
        raise InvalidParameterError(f"q={q} not in (0, 1)")
    return gamma_shrink_class(rho, q / (2.0 - q))


def kappa_max(gamma: float) -> float:
    """Largest condition number with a restricted-optimality guarantee."""
    if gamma <= 0.0:
        raise InvalidParameterError(f"gamma={gamma} must be positive")
    return 1.0 / (2.0 * gamma)


def closed_form_gamma(op: ThresholdingOperator, rho: float) -> Optional[float]:
    """Closed-form relative concavity for built-in kinds, if one exists.

    Reciprocal thresholding at c = 1 is hard thresholding.  Returns +inf
    for the other shrinkage kinds at rho = 1 (the supremum diverges: y can
    approach Psi(z) inside its own support) and None for soft and custom
    kinds.
    """
    kind = op.shrink.kind
    if kind == "hard" or (kind == "reciprocal" and op.shrink.param == 1.0):
        return gamma_hard(rho)
    if kind in ("reciprocal", "lq"):
        if rho >= 1.0:
            return math.inf
        if kind == "reciprocal":
            return gamma_reciprocal(rho, op.shrink.param)
        return gamma_lq(rho, op.shrink.param)
    return None


def lower_bound_witness(op: ThresholdingOperator, query: ConcavityQuery):
    """Universal witness achieving ratio >= rho/(1+rho) for any operator.

    Construction: z = all-ones, x = op(z), r = ||x||_2 / sqrt(s), scale
    t = (r/rho)(1 - r + sqrt(r^2 - 2r + 1 + rho)), and y = t * indicator of
    an s'-set disjoint from the support of x (which exists because
    s + s' <= d).  When x = 0 any small t works and the ratio is 1/t.
    """
    d, s, sp = query.dim, query.s, query.s_prime
    if op.s != s:
        raise InvalidParameterError("operator sparsity must match the query")
    z = np.ones(d)
    x = op(z)
    rho = query.rho
    support_x = set(np.flatnonzero(x).tolist())
    free = [i for i in range(d) if i not in support_x][:sp]
    r = float(np.linalg.norm(x)) / math.sqrt(s)
    if r == 0.0:
        t = 1e-6
    else:
        t = (r / rho) * (1.0 - r + math.sqrt(r * r - 2.0 * r + 1.0 + rho))
    y = np.zeros(d)
    y[free] = t
    return y, z, concavity_ratio(y, z, op)


# ---------------------------------------------------------------------------
# empirical maximization


def _collect(candidates: list, Y, Z, X) -> None:
    """Append (ratio, y, z) for every row of the stack Y with a finite ratio.

    Rows may be vectors or matrices (the ratio runs over all their entries);
    Z and X broadcast against Y.  Rows keep their order, so among equal
    ratios ``best_report`` picks the first row.
    """
    Y = np.asarray(Y, dtype=float)
    Z = np.broadcast_to(Z, Y.shape)
    k = Y.shape[0]
    r = _ratios(
        Y.reshape(k, -1), Z.reshape(k, -1), np.broadcast_to(X, Y.shape).reshape(k, -1)
    )
    for i in np.flatnonzero(np.isfinite(r)):
        candidates.append((float(r[i]), Y[i], Z[i]))


def best_report(candidates: list, closed_form: Optional[float], op) -> ConcavityReport:
    """Report for the best (ratio, y, z) candidate; the first one wins ties."""
    k = int(np.argmax([c[0] for c in candidates]))
    best_ratio, wy, wz = candidates[k]
    wy = np.array(wy, dtype=float)
    wz = np.array(wz, dtype=float)
    return ConcavityReport(
        closed_form=closed_form,
        empirical_max=float(best_ratio),
        witness_y=wy,
        witness_z=wz,
        ratio_at_witness=concavity_ratio(wy, wz, op),
    )


def _structured_candidates(op: ThresholdingOperator, query: ConcavityQuery):
    """The two witness families at z = all-ones, each at its exact maximizer.

    Under the shared support rule z = all-ones keeps its first s entries,
    all mapped to the same value xb = op(z)[0].  Family A puts y = t on s'
    entries outside that support; its maximizer is ``lower_bound_witness``.
    Family B puts y = xb + v on the first s' support entries.  With
    k = (s - s') xb its ratio is (1 - xb)(s' v - k) / (s' v^2 + k xb),
    maximized at the positive root v = (k + sqrt(k^2 + s' k xb)) / s' of
    s' v^2 - 2 k v - k xb = 0.  At k = 0 the ratio (1 - xb) / v diverges as
    v -> 0; it is scored once at v = 1e-8 (1 - xb).  Both families are
    scored through ``_ratios``, so for any kind, table and callable ones
    included, they are honest lower estimates of the supremum.
    """
    s, sp = query.s, query.s_prime
    y_a, z1, r_a = lower_bound_witness(op, query)
    out = [(r_a, y_a, z1)]
    x1 = op(z1)
    xb = float(x1[0])
    k = (s - sp) * xb
    if k > 0.0:
        v = (k + math.sqrt(k * k + sp * k * xb)) / sp
    else:
        v = 1e-8 * (1.0 - xb)
    y_b = np.zeros(query.dim)
    y_b[:sp] = xb + v
    _collect(out, y_b[None], z1, x1)
    return out


def _restart_supports(rng, budget: int, d: int, sp: int) -> np.ndarray:
    """``budget`` uniformly random ordered s'-subsets of range(d), one per row:
    the first s' entries of a random permutation, all rows in one draw."""
    return np.argsort(rng.random((budget, d)), axis=-1)[:, :sp]


def empirical_concavity(
    op: ThresholdingOperator,
    query: ConcavityQuery,
    budget: int = 1000,
    seed: int = 0,
    ascent_steps: int = 500,
) -> ConcavityReport:
    """Numerically maximize the concavity ratio over (y, z) pairs.

    Runs (a) the two witness families at z = all-ones, each scored once at
    its exact maximizer (``_structured_candidates``), and (b) ``budget``
    random restarts with batched
    coordinatewise ascent over the entries of y (on its fixed s'-support)
    and z, with a step of 0.5 shrinking by 0.9 per full sweep.
    Deterministic given the seed; restarts are independent and merged by
    maximum with first-index tie-break, so any parallel schedule would give
    the same answer.  A negative ``budget`` or ``ascent_steps`` raises
    InvalidParameterError.

    Every candidate is evaluated through the exact ratio, so the result can
    never exceed the true supremum; for hard / reciprocal / l_q kinds the
    exact maximizers attain the closed form to within a few ulps, and where
    it is +inf they report about 1e8.

    The restarts' s'-supports are drawn in one batch, as the first s'
    entries of a random permutation per row.  Earlier versions drew them
    one ``rng.choice`` per restart, so for the same seed the random
    restarts, and any witness one of them wins over the witness
    families, differ from those versions.
    """
    d, s, sp = query.dim, query.s, query.s_prime
    if op.s != s:
        raise InvalidParameterError("operator sparsity must match the query")
    for name, size in (("budget", budget), ("ascent_steps", ascent_steps)):
        if size < 0:
            raise InvalidParameterError(f"{name}={size} must be >= 0")
    rng = np.random.default_rng(seed)

    candidates = _structured_candidates(op, query)

    if budget > 0:
        n_slots = sp + d
        supports = _restart_supports(rng, budget, d, sp)
        y_vals = rng.standard_normal((budget, sp))
        Z = rng.standard_normal((budget, d))
        # each y-slot column of Y by its flat indices, one row per slot
        y_index = (supports + np.arange(0, budget * d, d)[:, None]).T.copy()
        Y = np.zeros((budget, d))
        Y.put(y_index.T, y_vals)

        # Y and X = op(Z) are kept between trials: the operator acts row by
        # row, so y-slot trials reuse X and z-slot trials reuse Y; each trial
        # moves one column of Y or Z in place and copies the old entries
        # back on the rows that do not improve
        X = op(Z)
        best = _ratios(Y, Z, X)
        for k in range(ascent_steps):
            slot = k % n_slots
            delta = 0.5 * 0.9 ** (k // n_slots)
            for sign in (1.0, -1.0):
                if slot < sp:
                    idx = y_index[slot]
                    y_old = Y.take(idx)
                    y_new = y_old + sign * delta
                    Y.put(idx, y_new)
                    trial = _ratios(Y, Z, X)
                    improve = trial > best
                    np.copyto(y_new, y_old, where=~improve)
                    Y.put(idx, y_new)
                else:
                    z_col = Z[:, slot - sp]
                    z_old = z_col.copy()
                    z_col += sign * delta
                    trial_X = op(Z)
                    trial = _ratios(Y, Z, trial_X)
                    improve = trial > best
                    np.copyto(z_col, z_old, where=~improve)
                    np.copyto(X, trial_X, where=improve[:, None])
                best = np.where(improve, trial, best)
        k_best = int(np.argmax(best))
        if np.isfinite(best[k_best]):
            candidates.append((float(best[k_best]), Y[k_best].copy(), Z[k_best].copy()))

    return best_report(candidates, closed_form_gamma(op, query.rho), op)
