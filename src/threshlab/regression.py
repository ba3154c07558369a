"""Sparse linear regression harness: y = X theta0 + sigma z.

Synthesizes designs with controlled conditioning, fits by iterative
thresholding (tracking the running-best iterate), runs the proximal-gradient
lasso baseline, measures prediction error against the high-probability bound

    kappa * 28 C sigma^2 s0 log(d) / n  +  12 sigma^2 log(1/delta) / n
        +  ((1 - 1/kappa) / (1 - 2/(C kappa)))^t * 2 beta ||theta_init - theta0||^2,

and Monte Carlo validates the chi-square union tail used in its proof.

Conditioning is certified from the realized design, by ``eigvalsh`` of the
smaller of the Gram matrices X'X/n and XX'/n (they share their nonzero
eigenvalues): for n >= d the correlated construction sets the Gram spectrum
explicitly (whiten then color), so the certified kappa equals the request up
to float error.  In the underdetermined regime only the adversarial block is
certified; iid designs there follow the usual random-design heuristic with
kappa taken as 1.

The loss's Hessian is X'X/n.  When d > n it stays factored as a ``Gram``,
since the d x d matrix would be larger than X; a product with it costs k d
multiply-adds, where k <= n counts the rows of X'X/n cached for the sparse
iterates so far, and 2nd for a vector that would push k past n.  When d <= n
it is formed densely: it is then no larger than X, and a product with it
costs d^2 multiply-adds.  An instance builds its objective once, so every fit
of the instance shares g, the Hessian and its cached rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .operators import InvalidParameterError, ThresholdingOperator
from .solver import Gram, QuadraticObjective, StepRule, iterate_prox, iterate_threshold


class InfeasibleSpecError(ValueError):
    """Design specification cannot be realized (dimensions, kappa)."""


class EnumerationTooLargeError(ValueError):
    """Support enumeration would exceed the desk-scale cap."""


DESIGN_KINDS = ("iid-gaussian", "correlated-gaussian", "adversarial-block")


@dataclass(frozen=True)
class DesignSpec:
    """How to synthesize the n x d design matrix.

    correlated-gaussian sets the Gram spectrum XtX/n to linspace(1/kappa,
    1, d) exactly; requires n >= d.  adversarial-block plants a small feature
    block whose covariance has its soft direction aligned with the
    hard-thresholding trap witness, Gram-corrected exactly on the block;
    remaining features are iid.  Both need a finite ``kappa >= 1``.  The
    block holds ``block_size`` features (8 when None), a positive even
    number at most min(n, d); other designs ignore ``block_size``.
    """

    kind: str
    n: int
    d: int
    kappa: Optional[float] = None
    block_size: Optional[int] = None

    def __post_init__(self):
        if self.kind not in DESIGN_KINDS:
            raise InfeasibleSpecError(f"unknown design kind {self.kind!r}")
        if self.n < 1 or self.d < 1:
            raise InfeasibleSpecError("need n, d >= 1")
        if self.kind != "iid-gaussian" and self.kappa is None:
            raise InfeasibleSpecError(f"{self.kind} design needs kappa")
        # a positive test, so that a NaN fails it
        if self.kappa is not None and not 1.0 <= self.kappa < math.inf:
            raise InfeasibleSpecError(f"kappa={self.kappa} must be finite and >= 1")
        if self.kind == "correlated-gaussian" and self.n < self.d:
            raise InfeasibleSpecError("correlated design needs n >= d")
        b = self.block
        if self.kind == "adversarial-block" and not (0 < b <= min(self.n, self.d) and b % 2 == 0):
            raise InfeasibleSpecError(
                f"block size {b} must be a positive even number at most min(n, d) = "
                f"{min(self.n, self.d)}"
            )

    @property
    def block(self) -> int:
        """The adversarial block's size: ``block_size``, or 8 when it is None."""
        return 8 if self.block_size is None else self.block_size


@dataclass(frozen=True)
class RegressionInstance:
    """A design X, its planted theta0 and response y, and the certified
    bounds of X'X/n.  Frozen, with X, theta0 and y made read-only, so the
    objective built on the first ``objective()`` call cannot go stale; use
    ``dataclasses.replace`` for an instance with other data."""

    X: np.ndarray
    theta0: np.ndarray
    sigma: float
    y: np.ndarray
    s0: int
    alpha: float  # certified lower Gram bound (0 when d > n)
    beta: float  # certified upper Gram bound
    block_alpha: Optional[float] = None
    block_beta: Optional[float] = None
    _objective: Optional[QuadraticObjective] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for a in (self.X, self.theta0, self.y):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def objective(self) -> QuadraticObjective:
        """f(theta) = ||y - X theta||^2 / (2n), up to the constant ||y||^2/2n.

        The Hessian X'X/n is a factored ``Gram`` when d > n, dense otherwise.
        Built on the first call; every later call returns the same object.
        """
        if self._objective is None:
            H = self.X.T @ self.X / self.n if self.d <= self.n else Gram(self.X)
            g = -self.X.T @ self.y / self.n
            obj = QuadraticObjective(
                H, m=np.zeros(self.d), g=g, alpha=self.alpha, beta=self.beta, validate=False
            )
            object.__setattr__(self, "_objective", obj)
        return self._objective

    def prediction_error(self, theta) -> float:
        diff = self.X @ (np.asarray(theta, dtype=float) - self.theta0)
        return float(np.dot(diff, diff)) / self.n


def _block_covariance(b: int, kappa: float) -> np.ndarray:
    """Covariance with soft direction along the hard-trap witness y - x."""
    u1 = np.concatenate([-np.ones(b // 2), np.ones(b // 2)]) / math.sqrt(b)
    basis = np.column_stack([u1, np.eye(b)[:, : b - 1]])
    Q, _ = np.linalg.qr(basis)
    eigs = np.ones(b)
    eigs[0] = 1.0 / kappa
    return (Q * eigs) @ Q.T


def _exact_gram_columns(G: np.ndarray, Sigma: np.ndarray, n: int) -> np.ndarray:
    """Recolor G so that the realized Gram XtX/n equals Sigma exactly."""
    gram = G.T @ G / n
    evals, evecs = np.linalg.eigh(gram)
    whiten = (evecs / np.sqrt(evals)) @ evecs.T
    evals_s, evecs_s = np.linalg.eigh(Sigma)
    color = (evecs_s * np.sqrt(np.maximum(evals_s, 0.0))) @ evecs_s.T
    return G @ whiten @ color


def generate_instance(spec: DesignSpec, s0: int, sigma: float, seed: int) -> RegressionInstance:
    """Synthesize a regression instance, deterministic from the seed.

    theta0 has s0 nonzeros valued +-1 at uniformly random positions
    (restricted to the block for the adversarial-block kind); the response is
    y = X theta0 + sigma * standard normal noise.
    """
    if s0 > spec.d or s0 < 1:
        raise InfeasibleSpecError(f"s0={s0} out of range for d={spec.d}")
    if spec.kind == "adversarial-block" and s0 > spec.block:
        raise InfeasibleSpecError(f"s0={s0} exceeds the block size {spec.block}")
    rng = np.random.default_rng(seed)
    n, d = spec.n, spec.d
    block_alpha = block_beta = None

    if spec.kind == "iid-gaussian":
        X = rng.standard_normal((n, d))
        position_pool = d
    elif spec.kind == "correlated-gaussian":
        G = rng.standard_normal((n, d))
        Vmat, _ = np.linalg.qr(rng.standard_normal((d, d)))
        Sigma = (Vmat * np.linspace(1.0 / spec.kappa, 1.0, d)) @ Vmat.T
        X = _exact_gram_columns(G, Sigma, n)
        position_pool = d
    else:  # adversarial-block
        b = spec.block
        Sigma_b = _block_covariance(b, spec.kappa)
        G = rng.standard_normal((n, d))
        X = np.concatenate(
            [_exact_gram_columns(G[:, :b], Sigma_b, n), G[:, b:]], axis=1
        )
        position_pool = b
        eigs_b = np.linalg.eigvalsh(Sigma_b)
        block_alpha, block_beta = float(eigs_b[0]), float(eigs_b[-1])

    positions = rng.choice(position_pool, size=s0, replace=False)
    theta0 = np.zeros(d)
    theta0[positions] = rng.choice([-1.0, 1.0], size=s0)
    y = X @ theta0 + sigma * rng.standard_normal(n)

    alpha, beta = Gram(X).eig_range()
    return RegressionInstance(X, theta0, sigma, y, s0, alpha, beta, block_alpha, block_beta)


# Theorem 6's constant: the fits keep ceil(C kappa s0) entries, and the bound
# is evaluated at the same C
C = 3.0


def fit_sparsity(kappa: float, s0: int, d: int) -> int:
    """Theorem 6's fit sparsity, min(ceil(C kappa s0), d)."""
    return min(int(math.ceil(C * kappa * s0)), d)


def theorem6_bound_rhs(
    kappa: float,
    C: float,
    sigma: float,
    s0: int,
    d: int,
    n: int,
    delta: float,
    t: int,
    beta: float,
    init_dist_sq: float,
) -> float:
    """Right side of the prediction-error guarantee at iteration t."""
    main = kappa * 28.0 * C * sigma**2 * s0 * math.log(d) / n
    tail = 12.0 * sigma**2 * math.log(1.0 / delta) / n
    rate = (1.0 - 1.0 / kappa) / (1.0 - 2.0 / (C * kappa))
    return main + tail + rate**t * 2.0 * beta * init_dist_sq


@dataclass
class ErrorReport:
    prediction_error: float
    nnz: float
    iterations: int
    f_best: float
    bound_rhs: Optional[float] = None
    bound_violated: Optional[bool] = None
    trace: object = field(default=None, repr=False)


def fit_iterative(
    instance: RegressionInstance,
    op: ThresholdingOperator,
    s: int,
    rule: Optional[StepRule] = None,
    T: int = 100,
    kappa_hat: Optional[float] = None,
    delta: float = 0.05,
) -> tuple:
    """Iterative thresholding fit; returns (running-best iterate, report).

    The estimate is the visited iterate with the smallest residual loss.
    When ``kappa_hat`` is supplied the report also evaluates the guarantee
    right side at the final iteration and whether it was violated.
    """
    op_s = op.with_sparsity(min(s, instance.d))
    obj = instance.objective()
    trace = iterate_threshold(obj, op_s, np.zeros(instance.d), rule, T)
    theta_hat = trace.best_x
    pred = instance.prediction_error(theta_hat)
    bound = violated = None
    if kappa_hat is not None:
        bound = theorem6_bound_rhs(
            kappa_hat,
            C,
            instance.sigma,
            instance.s0,
            instance.d,
            instance.n,
            delta,
            T,
            instance.beta,
            float(np.dot(instance.theta0, instance.theta0)),
        )
        violated = pred > bound
    report = ErrorReport(
        prediction_error=pred,
        nnz=int(np.count_nonzero(theta_hat)),
        iterations=T,
        f_best=float(np.min(trace.fs)),
        bound_rhs=bound,
        bound_violated=violated,
        trace=trace,
    )
    return theta_hat, report


def default_lasso_penalty(instance: RegressionInstance) -> float:
    return 2.0 * instance.sigma * math.sqrt(math.log(instance.d) / instance.n)


def fit_lasso_baseline(
    instance: RegressionInstance,
    lam: Optional[float] = None,
    T: int = 2000,
    kkt_tol: float = 1e-8,
) -> tuple:
    """Proximal-gradient lasso on the same loss, run to KKT residual or T steps."""
    if lam is None:
        lam = default_lasso_penalty(instance)
    obj = instance.objective()
    trace = iterate_prox(obj, lam, np.zeros(instance.d), None, T, kkt_tol=kkt_tol)
    theta_hat = trace.xs[-1]
    report = ErrorReport(
        prediction_error=instance.prediction_error(theta_hat),
        nnz=int(np.count_nonzero(theta_hat)),
        iterations=len(trace.fs),
        f_best=float(trace.fs[-1]),
        trace=trace,
    )
    return theta_hat, report


def loglog_slope(xs, ys) -> float:
    """OLS slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def condition_scaling_experiment(
    kappas,
    op_list,
    reps: int,
    seed: int,
    n: int = 400,
    d: int = 80,
    s0: int = 4,
    sigma: float = 1.0,
    T: int = 150,
):
    """Mean prediction error per (kappa, operator) on spectrum-certified designs.

    Uses s = ``fit_sparsity(kappa, s0, d)``; operators share each instance so the
    comparison is paired.  Returns (rows, means) where rows are per-rep dicts
    ordered by (kappa, rep, operator) and means maps (kappa, op name) to the
    mean error, summed in fixed seed order.
    """
    rows = []
    sums = {}
    counts = {}
    for ki, kappa in enumerate(kappas):
        s = fit_sparsity(kappa, s0, d)
        spec = DesignSpec("correlated-gaussian", n, d, kappa=float(kappa))
        for rep in range(reps):
            inst_seed = seed + 100_000 * ki + rep
            inst = generate_instance(spec, s0, sigma, inst_seed)
            for op in op_list:
                theta_hat, report = fit_iterative(inst, op, s, T=T)
                rows.append(
                    {
                        "kappa": float(kappa),
                        "operator": op.name,
                        "rep": rep,
                        "seed": inst_seed,
                        "s": s,
                        "prediction_error": report.prediction_error,
                    }
                )
                key = (float(kappa), op.name)
                sums[key] = sums.get(key, 0.0) + report.prediction_error
                counts[key] = counts.get(key, 0) + 1
    means = {k: sums[k] / counts[k] for k in sums}
    return rows, means


def validate_lemma10(
    d: int, s: int, n: int, delta: float, reps: int, seed: int
) -> float:
    """Monte Carlo rate of max_A ||U_A' z||^2 exceeding 7 s log(d) + 3 log(1/delta).

    A ranges over all size-s supports; U_A is an orthonormal basis of the
    columns of X on A united with the planted support A0.  The tail bound
    guarantees a violation probability of at most delta.
    """
    if d > 12:
        raise EnumerationTooLargeError("support enumeration capped at d <= 12")
    if not 1 <= s <= d:
        raise InvalidParameterError("s out of range")
    n_supports = math.comb(d, s)
    if n_supports > 5000:
        raise EnumerationTooLargeError(f"{n_supports} supports exceed the cap")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    A0 = np.sort(rng.choice(d, size=s, replace=False))
    bases = []
    for sub in itertools.combinations(range(d), s):
        cols = np.union1d(np.asarray(sub), A0)
        Q, _ = np.linalg.qr(X[:, cols])
        bases.append(Q)
    bound = 7.0 * s * math.log(d) + 3.0 * math.log(1.0 / delta)
    violations = 0
    for _ in range(reps):
        z = rng.standard_normal(n)
        worst = max(float(np.dot(Q.T @ z, Q.T @ z)) for Q in bases)
        if worst > bound:
            violations += 1
    return violations / reps
