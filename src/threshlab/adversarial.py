"""Worst-case constructions: stationary traps and the prox/l1 failure sweep.

``build_trap`` realizes the matching lower bound for iterative thresholding:
whenever the operator's relative concavity exceeds 1/(2 kappa), there is a
certified quadratic on which the iteration starts at a stationary point x0
with f(x0) = 0 while a sparser comparator y has f(y) < 0.  The objective is

    f(w) = -beta <z - x, w - x> + (w - x)' H (w - x) / 2

built from a concavity witness (y, z) with x = Psi(z) and the rank-one
update H = beta I + (alpha - beta) u u', u = (y - x)/||y - x||: curvature
alpha along y - x and beta across it, i.e. U diag(alpha, beta, ..., beta) U'
for any orthogonal U with first column u.

``build_prox_trap`` realizes the analogous failure for penalized soft
thresholding (l1 or weighted l1): no penalty level produces a solution that
is both sparse and at least as good as the best 1-sparse point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .concavity import ConcavityQuery, _ratios, empirical_concavity
from .operators import InvalidParameterError, ThresholdingOperator, prox_l1
from .solver import QuadraticObjective


class ConcavityTooSmallError(RuntimeError):
    """No witness with ratio above 1/(2 kappa); the trap does not exist."""


@dataclass
class TrapInstance:
    objective: QuadraticObjective
    x0: np.ndarray
    y: np.ndarray
    z: np.ndarray
    gamma_hat: float
    exact_stationary: bool


def _trap_objective(x, y, z, alpha, beta):
    """The trap's objective over points of x's shape, vector or matrix;
    ``np.outer`` flattens u, so H acts on the x.size entries."""
    u1 = (y - x) / np.linalg.norm(y - x)
    H = beta * np.eye(x.size) + (alpha - beta) * np.outer(u1, u1)
    g = -beta * (z - x)
    return QuadraticObjective(H, m=x.copy(), g=g, alpha=alpha, beta=beta)


def build_trap(
    op: ThresholdingOperator,
    query: ConcavityQuery,
    alpha: float,
    beta: float,
    budget: int = 400,
    seed: int = 0,
) -> TrapInstance:
    """Stationary-trap instance for (op, query) at condition number beta/alpha.

    The witness must have ratio above 1/(2 kappa) + 1e-6.  The exact witness
    families of the concavity search (``empirical_concavity`` at budget 0)
    are scored first; they attain the supremum for the built-in kinds.  Only
    when they fall short does the full search run, with ``budget`` seeded
    random restarts, so ``seed`` and ``budget`` matter only then.  If that
    search falls short too, ConcavityTooSmallError is raised.

    The built objective has f(x0) = 0 exactly and f(y) < 0 strictly; one
    thresholded gradient step at eta = 1/beta maps x0 back to itself.
    Stationarity is bit-exact whenever the float chain
    x0 + (1/beta)(beta (z - x0)) reproduces z, which holds for the all-ones
    witness families with beta a power of two; the instance records whether
    that verification passed.
    """
    if not 0 < alpha <= beta:
        raise InvalidParameterError("need 0 < alpha <= beta")
    kappa = beta / alpha
    threshold = 1.0 / (2.0 * kappa) + 1e-6
    report = empirical_concavity(op, query, budget=0, seed=seed)
    if report.empirical_max <= threshold:
        report = empirical_concavity(op, query, budget=budget, seed=seed)
    if report.empirical_max <= threshold:
        raise ConcavityTooSmallError(
            f"best ratio {report.empirical_max:.6g} <= 1/(2 kappa) + 1e-6"
            f" = {threshold:.6g}; no trap at kappa={kappa:g}"
        )
    y, z = report.witness_y, report.witness_z
    gamma_hat = report.ratio_at_witness
    x = op(z)
    obj = _trap_objective(x, y, z, alpha, beta)

    # verify bit-exact stationarity, re-deriving z through the solver's own
    # float chain if needed
    exact = False
    for _ in range(5):
        z_step = x - (1.0 / beta) * obj.grad(x)
        if np.array_equal(op(z_step), x):
            exact = True
            break
        z = z_step
        x = op(z)
        ratio = float(_ratios(y, z, x))
        if ratio == -math.inf:  # y == x: keep the previous gamma_hat
            break
        gamma_hat = ratio
        if gamma_hat <= threshold:
            break
        obj = _trap_objective(x, y, z, alpha, beta)
    return TrapInstance(obj, x.copy(), y, z, gamma_hat, exact)


@dataclass
class ProxTrapInstance:
    v: np.ndarray
    w: np.ndarray
    c: float
    y: np.ndarray
    weights: np.ndarray
    objective: QuadraticObjective

    @property
    def target(self) -> np.ndarray:
        """The point v + c w; the objective is half its squared distance."""
        return self.objective.m


def build_prox_trap(d: int, v, weights=None) -> ProxTrapInstance:
    """Instance on which penalized (weighted) l1 never beats the best 1-sparse y.

    ``v`` must be dense; w = weights * sign(v) is a dense subgradient of the
    regularizer at v.  The constant c is the smallest integer exceeding the
    positive root of c^2 ||w||_inf^2 = 2 c ||w||_2 ||v||_2 + ||v||_2^2, so the
    strict inequality required by the construction always holds.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (d,):
        raise InvalidParameterError(f"v must have length d={d}")
    if np.any(v == 0.0):
        raise InvalidParameterError("v must be dense (all entries nonzero)")
    if d < 2:
        raise InvalidParameterError("need d >= 2")
    if weights is None:
        weights = np.ones(d)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (d,) or np.any(weights <= 0.0):
        raise InvalidParameterError("weights must be positive, length d")
    w = weights * np.sign(v)
    A = float(np.max(np.abs(w))) ** 2
    B = 2.0 * float(np.linalg.norm(w)) * float(np.linalg.norm(v))
    C = float(np.dot(v, v))
    root = (B + math.sqrt(B * B + 4.0 * A * C)) / (2.0 * A)
    c = math.floor(root) + 1.0
    if not c * c * A > B * c + C:
        raise RuntimeError("c selection failed the strict inequality")
    i = int(np.argmax(np.abs(w)))  # ties: lowest index
    y = np.zeros(d)
    y[i] = c * w[i]
    obj = QuadraticObjective(
        np.eye(d), m=v + c * w, g=np.zeros(d), alpha=1.0, beta=1.0
    )
    return ProxTrapInstance(v, w, float(c), y, weights, obj)


def default_prox_lambda_grid(instance: ProxTrapInstance, interior: int = 100) -> np.ndarray:
    """Grid with 0, every soft-threshold breakpoint, interior fill, and one beyond."""
    bp = np.abs(instance.target) / instance.weights
    top = float(np.max(bp))
    grid = np.concatenate(
        [[0.0], bp, np.linspace(0.0, top, interior + 2)[1:-1], [1.05 * top]]
    )
    return np.unique(grid)


@dataclass
class ProxPathRecord:
    lam: float
    nnz: int
    f_value: float
    dense: bool
    beats_trap: bool  # f(x_hat) > f(y)

    @property
    def disjunct_holds(self) -> bool:
        return self.dense or self.beats_trap


def sweep_prox_path(instance: ProxTrapInstance, lam_grid) -> list:
    """Exact penalized solutions across the grid, with the failure disjunction.

    The objective is half a squared distance, so the penalized minimizer is
    the (weighted) soft thresholding of the target at each level, exactly.
    A negative level raises InvalidParameterError.
    """
    d = instance.v.shape[0]
    f_y = instance.objective.value(instance.y)
    records = []
    for lam in np.asarray(lam_grid, dtype=float):
        x_hat = prox_l1(instance.target, lam * instance.weights)
        nnz = int(np.count_nonzero(x_hat))
        f_val = instance.objective.value(x_hat)
        records.append(
            ProxPathRecord(float(lam), nnz, f_val, nnz == d, f_val > f_y)
        )
    return records
