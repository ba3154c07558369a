"""Experiment command line: CSV emitters for every figure and demonstration.

Subcommands: concavity-curve | converge | trap | prox-trap | regress |
lowrank-demo | validate.  Every output file starts with '#'-prefixed
key=value lines echoing the resolved configuration; re-running with the same
configuration reproduces the file bit for bit.  Floats are written with 17
significant digits so values round-trip exactly.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import concavity as conc
from . import regression as reg
from .adversarial import (
    ConcavityTooSmallError,
    build_prox_trap,
    build_trap,
    default_prox_lambda_grid,
    sweep_prox_path,
)
from .concavity import ConcavityQuery
from .lowrank import (
    LiftedOperator,
    MatrixConcavityQuery,
    MatrixObjective,
    empirical_matrix_concavity,
    iterate_threshold_matrix,
    lift_apply,
)
from .operators import parse_operator
from .solver import (
    QuadraticObjective,
    StepRule,
    convergence_bound_rhs,
    iterate_threshold,
)
from .validate import run_validation_suite


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_csv(path: str, config: dict, columns, rows) -> None:
    lines = [f"# {k}={_fmt(v)}" for k, v in sorted(config.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_rho_grid(spec: str) -> np.ndarray:
    try:
        a, b, step = (float(p) for p in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad rho grid {spec!r}, expected a:b:step") from exc
    count = int(round((b - a) / step)) + 1
    grid = a + step * np.arange(count)
    grid = grid[(grid > 0.0) & (grid < 1.0)]
    if grid.size == 0:
        raise ValueError("rho grid is empty inside (0, 1)")
    return grid


def _step_rule(name: str) -> StepRule:
    return StepRule.adaptive() if name == "adaptive" else StepRule.fixed()


def cmd_concavity_curve(args) -> int:
    grid = _parse_rho_grid(args.rho_grid)
    config = {"command": "concavity-curve", "rho_grid": args.rho_grid}
    columns = [
        "rho",
        "gamma_optimal",
        "gamma_rt_universal",
        "gamma_lq23",
        "gamma_hard",
        "kappa_max_optimal",
        "kappa_max_rt",
        "kappa_max_hard",
    ]
    rows = []
    for rho in grid:
        g_opt = conc.gamma_optimal(rho)
        g_rt = conc.gamma_reciprocal(rho, 0.0)
        g_lq = conc.gamma_lq(rho, 2.0 / 3.0)
        g_hard = conc.gamma_hard(rho)
        rows.append(
            [
                rho,
                g_opt,
                g_rt,
                g_lq,
                g_hard,
                conc.kappa_max(g_opt),
                conc.kappa_max(g_rt),
                conc.kappa_max(g_hard),
            ]
        )
    write_csv(args.out, config, columns, rows)
    return 0


def cmd_converge(args) -> int:
    rng = np.random.default_rng(args.seed)
    alpha, beta = 1.0, float(args.kappa)
    obj = QuadraticObjective.random_instance(
        args.dim, alpha, beta, rng, linear_scale=0.5
    )
    op = parse_operator(args.operator, args.sparsity)
    rule = _step_rule(args.step)
    config = {
        "command": "converge",
        "dim": args.dim,
        "sparsity": args.sparsity,
        "s_prime": args.s_prime,
        "kappa": args.kappa,
        "operator": args.operator,
        "step": args.step,
        "iters": args.iters,
        "seed": args.seed,
    }
    rho = args.s_prime / args.sparsity
    gamma = conc.closed_form_gamma(op, rho)
    with_bound = (
        gamma is not None
        and math.isfinite(gamma)
        and gamma < 1.0 / (2.0 * obj.kappa)
    )
    columns = ["t", "eta", "f", "running_min_f"]
    if with_bound:
        columns.append("theorem1_rhs")
    rows = []
    if args.iters > 0:
        trace = iterate_threshold(obj, op, np.zeros(args.dim), rule, args.iters)
        running = trace.running_min
        if with_bound:
            y = np.zeros(args.dim)
            mini = obj.minimizer()
            keep = np.argsort(-np.abs(mini), kind="stable")[: args.s_prime]
            y[keep] = mini[keep]
            rhs = convergence_bound_rhs(
                np.arange(1, args.iters + 1),
                obj.value(y),
                gamma,
                obj.kappa,
                beta,
                float(np.sum((trace.x0 - y) ** 2)),
            )
        for t in range(args.iters):
            row = [t + 1, trace.etas[t], trace.fs[t], running[t]]
            if with_bound:
                row.append(rhs[t])
            rows.append(row)
    write_csv(args.out, config, columns, rows)
    return 0


def cmd_trap(args) -> int:
    s = args.sparsity
    s_prime = max(int(round(args.rho * s)), 1)
    query = ConcavityQuery(s, s_prime)
    op = parse_operator(args.operator, s)
    alpha, beta = 1.0 / float(args.kappa), 1.0
    config = {
        "command": "trap",
        "operator": args.operator,
        "kappa": args.kappa,
        "rho": args.rho,
        "sparsity": s,
        "s_prime": s_prime,
        "iters": args.iters,
        "seed": args.seed,
    }
    try:
        trap = build_trap(op, query, alpha, beta, seed=args.seed)
    except ConcavityTooSmallError:
        print(f"no trap: gamma <= 1/(2 kappa) for {args.operator} at kappa={args.kappa}")
        write_csv(
            args.out,
            config,
            ["trap_found", "gamma_hat", "threshold"],
            [[0, float("nan"), 1.0 / (2.0 * args.kappa)]],
        )
        return 0
    trace = iterate_threshold(trap.objective, op, trap.x0, StepRule.fixed(), args.iters)
    stagnant = int(np.all(trace.xs == trap.x0))
    f_y = trap.objective.value(trap.y)
    print(
        f"trap found: gamma_hat={trap.gamma_hat:.6g}, f(x0)=0, f(y)={f_y:.6g}, "
        f"{args.iters} iterations {'stationary' if stagnant else 'NOT stationary'}"
    )
    columns = ["trap_found", "gamma_hat", "f_x0", "f_y", "iters", "stationary"]
    rows = [[1, trap.gamma_hat, trap.objective.value(trap.x0), f_y, args.iters, stagnant]]
    write_csv(args.out, config, columns, rows)
    return 0


def cmd_prox_trap(args) -> int:
    rng = np.random.default_rng(args.seed)
    v = rng.uniform(0.5, 1.5, size=args.dim) * rng.choice([-1.0, 1.0], size=args.dim)
    instance = build_prox_trap(args.dim, v)
    grid = default_prox_lambda_grid(instance)
    records = sweep_prox_path(instance, grid)
    config = {"command": "prox-trap", "dim": args.dim, "seed": args.seed, "c": instance.c}
    columns = ["lambda", "nnz", "f_value", "dense", "f_exceeds_f_y", "disjunct_holds"]
    rows = [
        [r.lam, r.nnz, r.f_value, int(r.dense), int(r.beats_trap), int(r.disjunct_holds)]
        for r in records
    ]
    write_csv(args.out, config, columns, rows)
    bad = [r for r in records if not r.disjunct_holds]
    print(
        f"prox trap d={args.dim}, c={instance.c:g}: {len(records)} lambdas, "
        f"{len(bad)} disjunction failures"
    )
    return 0 if not bad else 1


def cmd_regress(args) -> int:
    spec = reg.DesignSpec(
        kind=args.design,
        n=args.n,
        d=args.d,
        kappa=args.kappa if args.design != "iid-gaussian" else None,
        block_size=args.block_size if args.design == "adversarial-block" else None,
    )
    kappa_hat = 1.0 if args.design == "iid-gaussian" else float(args.kappa)
    s = min(int(math.ceil(3.0 * kappa_hat * args.s0)), args.d)
    config = {
        "command": "regress",
        "design": args.design,
        "n": args.n,
        "d": args.d,
        "s0": args.s0,
        "sigma": args.sigma,
        "kappa": args.kappa,
        "delta": args.delta,
        "reps": args.reps,
        "seed": args.seed,
        "operators": "+".join(args.operators),
        "with_lasso": int(args.with_lasso),
        "s": s,
    }
    columns = [
        "seed",
        "operator",
        "prediction_error",
        "bound_rhs",
        "violated",
        "nnz",
        "iterations",
        "wall_time",
    ]
    rows = []
    for rep in range(args.reps):
        inst = reg.generate_instance(spec, args.s0, args.sigma, args.seed + rep)
        for op_name in args.operators:
            op = parse_operator(op_name, s)
            t0 = time.perf_counter()
            _, report = reg.fit_iterative(
                inst, op, s, T=args.iters, kappa_hat=kappa_hat, delta=args.delta
            )
            wall = time.perf_counter() - t0
            rows.append(
                [
                    args.seed + rep,
                    op_name,
                    report.prediction_error,
                    report.bound_rhs,
                    int(bool(report.bound_violated)),
                    report.nnz,
                    report.iterations,
                    wall,
                ]
            )
        if args.with_lasso:
            t0 = time.perf_counter()
            _, report = reg.fit_lasso_baseline(inst)
            wall = time.perf_counter() - t0
            rows.append(
                [
                    args.seed + rep,
                    "lasso",
                    report.prediction_error,
                    float("nan"),
                    0,
                    report.nnz,
                    report.iterations,
                    wall,
                ]
            )
    rows.sort(key=lambda r: (r[0], r[1]))
    write_csv(args.out, config, columns, rows)
    return 0


def cmd_lowrank_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    base = parse_operator(args.operator, args.rank)
    lifted = LiftedOperator(base)
    config = {
        "command": "lowrank-demo",
        "n": args.n,
        "m": args.m,
        "rank": args.rank,
        "rank_prime": args.rank_prime,
        "operator": args.operator,
        "kappa": args.kappa,
        "iters": args.iters,
        "seed": args.seed,
    }
    # one exact step recovers an exact-rank target
    A = rng.standard_normal((args.n, args.rank)) @ rng.standard_normal((args.rank, args.m))
    one_step = lift_apply(base, A)
    eckart_young_gap = float(np.linalg.norm(one_step - A))
    query = MatrixConcavityQuery(args.n, args.m, args.rank, args.rank_prime)
    report = empirical_matrix_concavity(lifted, query, budget=100, seed=args.seed)
    obj = MatrixObjective.random_certified(args.n, args.m, 1.0, float(args.kappa), rng)
    trace = iterate_threshold_matrix(
        obj, lifted, np.zeros((args.n, args.m)), StepRule.fixed(), args.iters
    )
    columns = ["t", "eta", "f", "running_min_f"]
    rows = [
        [t + 1, trace.etas[t], trace.fs[t], trace.running_min[t]]
        for t in range(args.iters)
    ]
    config["eckart_young_gap"] = eckart_young_gap
    config["empirical_matrix_concavity"] = report.empirical_max
    if report.closed_form is not None:
        config["vector_closed_form"] = report.closed_form
    write_csv(args.out, config, columns, rows)
    print(
        f"lowrank demo: rank-{args.rank} recovery gap {eckart_young_gap:.3g}, "
        f"matrix concavity estimate {report.empirical_max:.6g}"
    )
    return 0


def cmd_validate(args) -> int:
    results = run_validation_suite(seed=args.seed)
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if args.out:
        write_csv(
            args.out,
            {"command": "validate", "seed": args.seed},
            ["check", "passed", "detail"],
            [[name, int(ok), detail.replace(",", ";")] for name, ok, detail in results],
        )
    return 0 if all(ok for _, ok, _ in results) else 1


def _load_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def build_parser() -> tuple:
    """The ``threshlab`` parser and its subcommand parsers, keyed by name."""
    parser = argparse.ArgumentParser(
        prog="threshlab", description="thresholding-operator experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add(name, **kwargs):
        commands[name] = sub.add_parser(name, **kwargs)
        return commands[name]

    def common(p):
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None, help="key=value file; flags override")

    p = add("concavity-curve", help="closed-form concavity vs rho table")
    common(p)
    p.add_argument("--rho-grid", default="0.01:0.99:0.01")
    p.set_defaults(func=cmd_concavity_curve)

    p = add("converge", help="solver trace on a random certified quadratic")
    common(p)
    p.add_argument("--dim", type=int, default=20)
    p.add_argument("--sparsity", type=int, default=6)
    p.add_argument("--s-prime", type=int, default=1)
    p.add_argument("--kappa", type=float, default=2.0)
    p.add_argument("--operator", default="rt:0")
    p.add_argument("--step", choices=["fixed", "adaptive"], default="fixed")
    p.add_argument("--iters", type=int, default=100)
    p.set_defaults(func=cmd_converge)

    p = add("trap", help="stationary-trap demonstration")
    common(p)
    p.add_argument("--operator", default="hard")
    p.add_argument("--kappa", type=float, default=1.5)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--sparsity", type=int, default=2)
    p.add_argument("--iters", type=int, default=100)
    p.set_defaults(func=cmd_trap)

    p = add("prox-trap", help="penalized soft-thresholding failure sweep")
    common(p)
    p.add_argument("--dim", type=int, default=2)
    p.set_defaults(func=cmd_prox_trap)

    p = add("regress", help="sparse regression Monte Carlo")
    common(p)
    p.add_argument("--design", choices=list(reg.DESIGN_KINDS), default="iid-gaussian")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", type=int, default=1000)
    p.add_argument("--s0", type=int, default=5)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--block-size", type=int, default=8)
    p.add_argument("--operators", nargs="+", default=["rt:0"])
    p.add_argument("--with-lasso", action="store_true")
    p.set_defaults(func=cmd_regress)

    p = add("lowrank-demo", help="lifted-operator demonstration")
    common(p)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--rank-prime", type=int, default=1)
    p.add_argument("--operator", default="rt:0")
    p.add_argument("--kappa", type=float, default=2.0)
    p.add_argument("--iters", type=int, default=50)
    p.set_defaults(func=cmd_lowrank_demo)

    p = add("validate", help="run the built-in invariant suite")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_validate)

    return parser, commands


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    # first pass to locate --config; its values become defaults, flags override
    ns, _ = parser.parse_known_args(argv)
    if getattr(ns, "config", None):
        command = commands[ns.command]
        for key, val in _load_config(ns.config).items():
            if key not in vars(ns) or key in ("command", "func"):
                continue
            default = command.get_default(key)
            if isinstance(default, bool):
                val = val.lower() in ("1", "true", "yes")
            elif isinstance(default, list):
                val = val.split()
            elif isinstance(default, (int, float)):
                val = type(default)(val)
            command.set_defaults(**{key: val})
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
