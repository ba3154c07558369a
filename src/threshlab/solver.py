"""Iterative thresholding and proximal gradient over certified quadratics.

The objective family is restricted to quadratics with machine-checkable
spectrum bounds: f(x) = (x-m)' H (x-m) / 2 + g' (x-m) with certified
alpha <= eig(H) <= beta.  Full-spectrum bounds imply restricted strong
convexity and smoothness at every sparsity level, which is what the
convergence guarantee consumes.

An iterate may have any shape: a matrix objective is the vector objective
over its d flattened entries (vec(X), with Frobenius geometry), so the
vector, prox and lifted-matrix solvers share one quadratic type.  The
Hessian is a dense d x d array, or a ``Gram`` that applies X'X/n from the
n x d factor X, so a regression objective with d > n never forms the d x d
matrix.  A ``Gram`` keeps the rows of X'X/n that its products have touched,
at most n of them: a product with a vector supported on k cached rows costs
k d multiply-adds instead of the 2nd of X' (X v) / n, which is what the
sparse iterates of a thresholding or lasso fit need.  The solver asks for f
and its gradient together (``value_and_grad``), one Hessian product per
evaluated point.

Step sizes: fixed eta = 1/beta, or backtracking from a large initial step,
halving until the curvature condition

    f(x~) <= f(x) + <x~ - x, grad f(x)> + ||x~ - x||^2 / (2 eta)

holds, with floor 1/beta where the condition is guaranteed.  The accepted
step therefore never falls below 1/beta.  A run builds this ladder of step
sizes once (the fixed rule's ladder is the floor alone); each step maps every
rung's gradient point with one batched operator call and scores the rows in
order until one passes, so a ladder of k rungs holds k copies of the iterate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .operators import InvalidParameterError, ThresholdingOperator, prox_l1


class ContractViolationError(ValueError):
    """A guarantee was requested outside its hypothesis (gamma >= 1/(2 kappa))."""


class SpectrumCertificationError(ValueError):
    """Declared spectral bounds fail against the actual eigenvalues."""


_CERT_TOL = 1e-9


class Gram:
    """The Gram matrix X'X/n of an n x d matrix X, kept factored.

    No d x d array is ever formed.  ``H @ v`` for a 1-D v sums v's nonzeros
    times their rows of X'X/n, which the Gram keeps once computed: the
    product is ``w @ rows`` over the k cached rows, with v's nonzeros
    scattered into w, k d multiply-adds.  The rows v needs but lacks are
    computed first, in one product ``X[:, new]' X / n``.  The cache holds at
    most n rows, so it is never larger than X, and a product over k <= n
    rows costs at most half of the factored ``X' (X v) / n`` (2nd).  A v
    whose support would push the cache past n rows, or that is not 1-D,
    takes the factored product and leaves the cache as it is.

    A product fills the cache, so a ``Gram`` is not safe to share across
    threads.  The last bits of a product depend on which rows earlier
    products cached; the same sequence of products gives the same bits.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        d = X.shape[1]
        # the cached rows of X'X/n, and each column's row in it (-1 for none)
        self._rows = np.empty((0, d))
        self._slot = np.full(d, -1)

    @property
    def shape(self) -> tuple:
        d = self.X.shape[1]
        return (d, d)

    @property
    def nbytes(self) -> int:
        """Bytes of the factor each product reads."""
        return self.X.nbytes

    def __matmul__(self, v):
        n = self.X.shape[0]
        if np.ndim(v) == 1:
            nz = np.flatnonzero(v)
            new = nz[self._slot[nz] < 0]
            k = len(self._rows)
            if k + new.size <= n:
                if new.size:
                    self._rows = np.concatenate([self._rows, self.X[:, new].T @ self.X / n])
                    self._slot[new] = np.arange(k, len(self._rows))
                w = np.zeros(len(self._rows))
                w[self._slot[nz]] = v[nz]
                return w @ self._rows
        return self.X.T @ (self.X @ v) / n

    def eig_range(self) -> tuple:
        """(smallest, largest) eigenvalue of X'X/n, from ``eigvalsh`` of the
        smaller of X'X/n and XX'/n.  The two share their nonzero eigenvalues,
        and X'X/n is singular when d > n, so its smallest is then 0."""
        n, d = self.X.shape
        small = self.X.T @ self.X if d <= n else self.X @ self.X.T
        eigs = np.linalg.eigvalsh(small / n)
        return (max(float(eigs[0]), 0.0) if d <= n else 0.0), float(eigs[-1])


@dataclass
class QuadraticObjective:
    """f(x) = (x-m)' H (x-m)/2 + g'(x-m), with certified spectrum [alpha, beta].

    ``m`` and ``g`` share one shape, that of every point f takes, and ``H``
    acts on their d = ``m.size`` flattened entries: f at a matrix X is f at
    vec(X), row-major.  ``H`` is a dense symmetric array or a factored
    ``Gram``.  Construction verifies the declared bounds to a 1e-9 scale
    tolerance: a dense H by its eigendecomposition, a Gram by
    ``Gram.eig_range`` (``eigvalsh`` of the smaller of X'X/n and XX'/n).
    With ``validate=False`` the caller owns an equivalent certification, as
    ``generate_instance`` does.
    """

    H: np.ndarray | Gram
    m: np.ndarray
    g: np.ndarray
    alpha: float
    beta: float
    validate: bool = True

    def __post_init__(self):
        if not isinstance(self.H, Gram):
            self.H = np.asarray(self.H, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        d = self.H.shape[0]
        if self.H.shape != (d, d) or self.m.size != d or self.g.shape != self.m.shape:
            raise InvalidParameterError("H must be d x d, with m and g of one shape and d entries")
        if not self.alpha <= self.beta:
            raise InvalidParameterError("need alpha <= beta")
        if self.validate:
            scale = max(1.0, abs(self.beta))
            if isinstance(self.H, Gram):
                lo, hi = self.H.eig_range()
            else:
                if not np.allclose(self.H, self.H.T, atol=_CERT_TOL * scale):
                    raise SpectrumCertificationError("H is not symmetric")
                eigs = np.linalg.eigvalsh(self.H)
                lo, hi = eigs[0], eigs[-1]
            if lo < self.alpha - _CERT_TOL * scale:
                raise SpectrumCertificationError(
                    f"smallest eigenvalue {lo} below alpha={self.alpha}"
                )
            if hi > self.beta + _CERT_TOL * scale:
                raise SpectrumCertificationError(
                    f"largest eigenvalue {hi} above beta={self.beta}"
                )

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @property
    def kappa(self) -> float:
        return self.beta / self.alpha

    # the decorator form costs about half of a ``with np.errstate`` block
    @np.errstate(over="ignore", invalid="ignore")
    def value_and_grad(self, x) -> tuple:
        """``(f(x), grad f(x))`` from one Hessian product ``H @ (x - m)``;
        x and the gradient have the shape of ``m``, and any other shape (a
        transposed matrix included) raises InvalidParameterError.

        An overflow gives an inf or nan f without numpy's RuntimeWarning, so
        the solver's finiteness check reports it as InvalidParameterError."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.m.shape:
            raise InvalidParameterError(f"x has shape {x.shape}, not {self.m.shape}")
        dx = (x - self.m).ravel()
        hdx = self.H @ dx
        g = self.g.ravel()
        return float(0.5 * dx @ hdx + g @ dx), (hdx + g).reshape(x.shape)

    def value(self, x) -> float:
        return self.value_and_grad(x)[0]

    def grad(self, x) -> np.ndarray:
        return self.value_and_grad(x)[1]

    def _dense_hessian(self, what: str) -> np.ndarray:
        """The dense H, for ``what`` that needs one; a factored Gram raises."""
        if isinstance(self.H, Gram):
            raise InvalidParameterError(f"{what} needs a dense Hessian, not a factored Gram")
        return self.H

    def minimizer(self) -> np.ndarray:
        """Unconstrained minimizer m - H^{-1} g, shaped like m (requires
        alpha > 0, dense H)."""
        step = np.linalg.solve(self._dense_hessian("minimizer"), self.g.ravel())
        return self.m - step.reshape(self.m.shape)

    @classmethod
    def random_instance(
        cls,
        shape,
        alpha: float,
        beta: float,
        rng: np.random.Generator,
        linear_scale: float = 0.0,
    ) -> "QuadraticObjective":
        """Random certified quadratic over points of ``shape`` (an int d for
        vectors, or a tuple such as (n, m) for matrices), with spectrum
        endpoints exactly alpha, beta and a standard normal center m."""
        shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
        d = math.prod(shape)
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = rng.uniform(alpha, beta, size=d)
        eigs[0], eigs[-1] = alpha, beta
        H = (U * eigs) @ U.T
        H = 0.5 * (H + H.T)
        m = rng.standard_normal(shape)
        g = linear_scale * rng.standard_normal(shape)
        return cls(H, m, g, alpha, beta)


@dataclass(frozen=True)
class StepRule:
    """Fixed step eta = 1/beta, or backtracking with floor 1/beta.

    Adaptive defaults: eta_init = 16/beta (a power-of-two ladder reaching the
    floor in four halvings), shrink factor 0.5.  A given eta_init must be a
    finite positive number.
    """

    kind: str = "fixed"
    eta_init: Optional[float] = None
    shrink: float = 0.5

    def __post_init__(self):
        if self.kind not in ("fixed", "adaptive"):
            raise InvalidParameterError(f"unknown step rule {self.kind!r}")
        if not 0.0 < self.shrink < 1.0:
            raise InvalidParameterError("shrink factor must be in (0, 1)")
        # positive tests, so that a NaN fails them
        if self.eta_init is not None and not 0.0 < self.eta_init < math.inf:
            raise InvalidParameterError(f"eta_init={self.eta_init} must be finite and positive")

    @classmethod
    def fixed(cls) -> "StepRule":
        return cls("fixed")

    @classmethod
    def adaptive(cls, eta_init: Optional[float] = None, shrink: float = 0.5) -> "StepRule":
        return cls("adaptive", eta_init, shrink)


@dataclass
class IterateTrace:
    """Per-iteration record of a solver run (t = 1..T, plus the start point).

    ``backtracks[t]`` is the index of the accepted step size in its step's
    ladder: the number of larger step sizes rejected before it (always 0
    under the fixed rule).  ``running_min`` is min_{u<=t} f(x_u) over
    recorded iterates, nonincreasing by construction; ``best_x`` is the
    iterate attaining the final minimum.
    """

    x0: np.ndarray
    xs: np.ndarray
    etas: np.ndarray
    fs: np.ndarray
    backtracks: np.ndarray
    objective: object = field(repr=False)

    @property
    def running_min(self) -> np.ndarray:
        return np.minimum.accumulate(self.fs)

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.fs))

    @property
    def best_x(self) -> np.ndarray:
        return self.xs[self.best_index]


def _ladder(obj, rule) -> np.ndarray:
    """The step sizes one step tries, largest first: every rung of the
    adaptive rule above the 1/beta floor (``eta_init``, shrunk by
    ``rule.shrink`` each rung), then the floor.  The fixed rule's ladder is
    the floor alone."""
    floor = 1.0 / obj.beta
    etas = []
    if rule.kind == "adaptive":
        eta = rule.eta_init if rule.eta_init is not None else 16.0 / obj.beta
        while eta > floor:
            etas.append(eta)
            eta = max(eta * rule.shrink, floor)
    etas.append(floor)
    return np.asarray(etas)


def _step(obj, x, fx, gx, step_map, etas):
    """One gradient step from x, where fx = f(x) and gx = grad f(x).

    ``etas`` is the ladder of ``_ladder``, shaped ``(k, 1, ...)`` to
    broadcast against the stack of gradient points ``x - etas * gx``, shape
    ``(k,) + x.shape``.  ``step_map(V, etas)`` maps that stack to the k
    candidates in one call, so a step costs one operator call and holds
    k x d floats (5 x d for the default ladder).  The rows are scored in
    order, one ``value_and_grad`` each, and the first that meets the
    curvature condition is taken; the floor row, last, needs no test.
    Returns ``(x_next, eta, f(x_next), grad f(x_next), i)`` with ``i`` the
    accepted row's index in the ladder.
    """
    cands = step_map(x - etas * gx, etas)
    # the accepted row is copied, so the trace does not keep the ladder alive
    for i in range(len(etas) - 1):
        eta = etas.flat[i]
        step = cands[i] - x
        f_cand, g_cand = obj.value_and_grad(cands[i])
        # an overflowed candidate is rejected before the condition's sums
        if math.isfinite(f_cand) and (
            f_cand <= fx + np.vdot(gx, step) + np.vdot(step, step) / (2.0 * eta)
        ):
            return cands[i].copy(), eta, f_cand, g_cand, i
    # at the floor the curvature condition holds by restricted smoothness
    x_next = cands[-1].copy()
    return (x_next, etas.flat[-1], *obj.value_and_grad(x_next), len(etas) - 1)


def _finite(fx: float, where: str) -> float:
    if not math.isfinite(fx):
        raise InvalidParameterError(f"objective value {fx} at {where} is not finite")
    return fx


def _run(obj, step_map, x0, rule, T, stop=None) -> IterateTrace:
    """Run T steps of ``_step`` from x0; ``stop(x, grad f(x))`` true ends the
    run early.  A non-finite entry of x0, or a non-finite f at x0 or at an
    accepted iterate, raises InvalidParameterError."""
    rule = rule or StepRule.fixed()
    x = x0 = np.array(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise InvalidParameterError("x0 is not finite")
    # lists, not (T, ...) arrays: T is only a cap when ``stop`` ends runs early
    xs, etas, fs, backtracks = [], [], [], []
    # the ladder is the same at every step; shaped to broadcast over a stack
    ladder = _ladder(obj, rule).reshape((-1,) + (1,) * x.ndim)
    fx, gx = obj.value_and_grad(x)
    _finite(fx, "x0")
    for t in range(1, T + 1):
        x, eta, fx, gx, rung = _step(obj, x, fx, gx, step_map, ladder)
        xs.append(x)
        etas.append(eta)
        backtracks.append(rung)
        fs.append(_finite(fx, f"iterate {t}"))
        if stop is not None and stop(x, gx):
            break
    return IterateTrace(
        x0,
        np.asarray(xs),
        np.asarray(etas, dtype=float),
        np.asarray(fs),
        np.asarray(backtracks, dtype=int),
        obj,
    )


def iterate_threshold(
    obj: QuadraticObjective,
    op: ThresholdingOperator,
    x0,
    rule: Optional[StepRule] = None,
    T: int = 100,
) -> IterateTrace:
    """Run x_t = Psi_s(x_{t-1} - eta_t grad f(x_{t-1})) for T steps."""
    if np.count_nonzero(np.asarray(x0, dtype=float)) > op.s:
        raise InvalidParameterError("x0 must be s-sparse")
    if T < 1:
        raise InvalidParameterError("T must be >= 1")
    return _run(obj, lambda V, etas: op(V), x0, rule, T)


def iterate_prox(
    obj: QuadraticObjective,
    lam: float,
    x0,
    rule: Optional[StepRule] = None,
    T: int = 100,
    kkt_tol: Optional[float] = None,
) -> IterateTrace:
    """Proximal gradient on f + lam * l1: x_t = prox(x - eta grad f, lam eta).

    With ``kkt_tol`` set, stops early once the l1 subgradient optimality
    residual falls below it.
    """
    if not lam >= 0:  # a positive test, so that a NaN fails it
        raise InvalidParameterError(f"lam={lam} must be a nonnegative number")
    if T < 1:
        raise InvalidParameterError("T must be >= 1")

    def kkt_met(x, gx):
        return kkt_residual_l1(obj, x, lam, gx) <= kkt_tol

    stop = kkt_met if kkt_tol is not None else None
    return _run(obj, lambda V, etas: prox_l1(V, lam * etas), x0, rule, T, stop)


def kkt_residual_l1(obj: QuadraticObjective, x, lam: float, gx=None) -> float:
    """Max subgradient-optimality violation of f + lam * l1 at x.

    ``gx`` is grad f(x) when the caller already has it."""
    x = np.asarray(x, dtype=float)
    if gx is None:
        gx = obj.grad(x)
    zero = x == 0.0
    res_zero = np.maximum(np.abs(gx[zero]) - lam, 0.0)
    res_active = np.abs(gx[~zero] + lam * np.sign(x[~zero]))
    parts = [p for p in (res_zero, res_active) if p.size]
    return float(max(np.max(p) for p in parts)) if parts else 0.0


def convergence_bound_rhs(
    t: np.ndarray, f_y: float, gamma: float, kappa: float, beta: float, dist0_sq: float
) -> np.ndarray:
    """Right side of the convergence bound at horizons t (needs gamma < 1/2)."""
    if gamma >= 0.5:
        raise ContractViolationError("bound derivation needs gamma < 1/2")
    factor = (1.0 - 1.0 / kappa) / (1.0 - 2.0 * gamma)
    return f_y + factor ** np.asarray(t, dtype=float) * (beta / 2.0) * dist0_sq


def check_theorem1_bound(
    trace: IterateTrace, y, gamma: float, kappa: float, beta: float
) -> np.ndarray:
    """Per-horizon truth of min_{t<=T} f(x_t) <= f(y) + rate^T (beta/2)||x0-y||^2.

    Applicable only under the guarantee hypothesis gamma < 1/(2 kappa);
    raises ContractViolationError otherwise.
    """
    if gamma >= 1.0 / (2.0 * kappa):
        raise ContractViolationError(
            f"gamma={gamma} >= 1/(2 kappa)={1.0 / (2.0 * kappa)}; bound inapplicable"
        )
    y = np.asarray(y, dtype=float)
    f_y = trace.objective.value(y)
    dist0_sq = float(np.sum((trace.x0 - y) ** 2))
    horizons = np.arange(1, len(trace.fs) + 1)
    rhs = convergence_bound_rhs(horizons, f_y, gamma, kappa, beta, dist0_sq)
    return trace.running_min <= rhs


def restricted_minimum_bruteforce(obj: QuadraticObjective, k: int):
    """Exact minimum of f over k-sparse vectors by support enumeration.

    Capped at dim <= 14 and k <= 4 to bound runtime; each support solves the
    restricted normal equations.  Returns (value, minimizer).
    """
    d = obj.dim
    if d > 14 or k > 4:
        raise InvalidParameterError("brute-force oracle capped at d <= 14, k <= 4")
    if not 1 <= k <= d:
        raise InvalidParameterError("k out of range")
    H = obj._dense_hessian("restricted_minimum_bruteforce")
    rhs_full = H @ obj.m - obj.g
    best_val, best_x = np.inf, None
    for sub in itertools.combinations(range(d), k):
        idx = np.asarray(sub)
        H_sub = H[np.ix_(idx, idx)]
        try:
            xi = np.linalg.solve(H_sub, rhs_full[idx])
        except np.linalg.LinAlgError:
            xi = np.linalg.lstsq(H_sub, rhs_full[idx], rcond=None)[0]
        x = np.zeros(d)
        x[idx] = xi
        val = obj.value(x)
        if val < best_val:
            best_val, best_x = val, x
    return best_val, best_x
