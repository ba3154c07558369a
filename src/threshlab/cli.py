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
    empirical_matrix_concavity,
    iterate_threshold_matrix,
)
from .operators import hard_operator, parse_operator
from .solver import (
    QuadraticObjective,
    StepRule,
    convergence_bound_rhs,
    iterate_threshold,
)
from .validate import check_stationary, dominance_curves, run_validation_suite


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
    if not all(map(math.isfinite, (a, b, step))) or step == 0.0:
        raise ValueError(f"bad rho grid {spec!r}, expected finite a:b:step with step != 0")
    count = int(round((b - a) / step)) + 1
    grid = a + step * np.arange(count)
    grid = grid[(grid > 0.0) & (grid < 1.0)]
    if grid.size == 0:
        raise ValueError("rho grid is empty inside (0, 1)")
    return grid


def _checked_kappa(kappa: float) -> float:
    """A ``--kappa`` value, refused unless finite and at least 1."""
    if not 1.0 <= kappa < math.inf:
        raise ValueError(f"kappa={kappa} must be finite and >= 1")
    return kappa


def _config(args, *ignored, **extra) -> dict:
    """The header of a command's CSV, read from the parsed command line: the
    command's name and every flag but ``--out``, ``--config`` and those the
    command ``ignored``, then ``extra``: derived values, and flags the
    command resolves further."""
    skip = {"func", "out", "config", *ignored}
    return {**{k: v for k, v in vars(args).items() if k not in skip}, **extra}


def cmd_concavity_curve(args) -> int:
    rho, g_opt, g_rt, g_hard = dominance_curves(_parse_rho_grid(args.rho_grid))
    g_lq = [conc.gamma_lq(r, 2.0 / 3.0) for r in rho]
    kappas = [[conc.kappa_max(g) for g in curve] for curve in (g_opt, g_rt, g_hard)]
    columns = ["rho", "gamma_optimal", "gamma_rt_universal", "gamma_lq23", "gamma_hard"]
    columns += ["kappa_max_optimal", "kappa_max_rt", "kappa_max_hard"]
    rows = zip(rho, g_opt, g_rt, g_lq, g_hard, *kappas)
    write_csv(args.out, _config(args, "seed"), columns, rows)
    return 0


def cmd_converge(args) -> int:
    alpha, beta = 1.0, _checked_kappa(args.kappa)
    if not 1 <= args.s_prime <= args.sparsity:
        raise ValueError(f"s_prime={args.s_prime} must be in [1, sparsity={args.sparsity}]")
    rng = np.random.default_rng(args.seed)
    obj = QuadraticObjective.random_instance(
        args.dim, alpha, beta, rng, linear_scale=0.5
    )
    op = parse_operator(args.operator, args.sparsity)
    config = _config(args)
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
        trace = iterate_threshold(obj, op, np.zeros(args.dim), StepRule(args.step), args.iters)
        t = np.arange(1, args.iters + 1)
        series = [t, trace.etas, trace.fs, trace.running_min]
        if with_bound:
            y = hard_operator(args.s_prime)(obj.minimizer())
            dist0_sq = float(np.sum((trace.x0 - y) ** 2))
            series.append(convergence_bound_rhs(t, obj.value(y), gamma, obj.kappa, beta, dist0_sq))
        rows = zip(*series)
    write_csv(args.out, config, columns, rows)
    return 0


def cmd_trap(args) -> int:
    s = args.sparsity
    if not 0.0 < args.rho <= 1.0:
        raise ValueError(f"rho={args.rho} must be in (0, 1]")
    s_prime = max(int(round(args.rho * s)), 1)
    query = ConcavityQuery(s, s_prime)
    op = parse_operator(args.operator, s)
    alpha, beta = 1.0 / _checked_kappa(args.kappa), 1.0
    config = _config(args, "seed", s_prime=s_prime)
    try:
        trap = build_trap(op, query, alpha, beta)
    except ConcavityTooSmallError:
        print(f"no trap: gamma <= 1/(2 kappa) for {args.operator} at kappa={args.kappa}")
        write_csv(
            args.out,
            config,
            ["trap_found", "gamma_hat", "threshold"],
            [[0, float("nan"), 1.0 / (2.0 * args.kappa)]],
        )
        return 0
    stagnant = int(check_stationary(trap.objective, op, trap.x0, args.iters)[0])
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
    config = _config(args, c=instance.c)
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
    kappa = _checked_kappa(args.kappa)
    iid, block = args.design == "iid-gaussian", args.design == "adversarial-block"
    spec = reg.DesignSpec(
        kind=args.design,
        n=args.n,
        d=args.d,
        kappa=None if iid else kappa,
        block_size=args.block_size if block else None,
    )
    # an iid design is fitted with kappa 1 whatever --kappa says; the header
    # records the kappa the fits use
    kappa_hat = 1.0 if iid else kappa
    s = reg.fit_sparsity(kappa_hat, args.s0, args.d)
    config = _config(
        args, *([] if block else ["block_size"]), kappa=kappa_hat,
        operators="+".join(args.operators), with_lasso=int(args.with_lasso), s=s,
    )
    columns = ["seed", "operator", "prediction_error", "bound_rhs", "violated", "nnz", "iterations"]
    columns.append("wall_time")
    # the lasso baseline (op None) has no bound: its bound_rhs is nan
    fits = [(name, parse_operator(name, s)) for name in args.operators]
    fits += [("lasso", None)] if args.with_lasso else []
    rows = []
    for rep in range(args.reps):
        inst = reg.generate_instance(spec, args.s0, args.sigma, args.seed + rep)
        for name, op in fits:
            t0 = time.perf_counter()
            if op is None:
                _, report = reg.fit_lasso_baseline(inst)
            else:
                _, report = reg.fit_iterative(
                    inst, op, s, T=args.iters, kappa_hat=kappa_hat, delta=args.delta
                )
            wall = time.perf_counter() - t0
            rhs = math.nan if report.bound_rhs is None else report.bound_rhs
            violated = int(bool(report.bound_violated))
            row = [report.prediction_error, rhs, violated, report.nnz, report.iterations, wall]
            rows.append([args.seed + rep, name, *row])
    rows.sort(key=lambda r: (r[0], r[1]))
    write_csv(args.out, config, columns, rows)
    return 0


def cmd_lowrank_demo(args) -> int:
    kappa = _checked_kappa(args.kappa)
    rng = np.random.default_rng(args.seed)
    base = parse_operator(args.operator, args.rank)
    lifted = LiftedOperator(base)
    config = _config(args)
    # one exact step recovers an exact-rank target
    A = rng.standard_normal((args.n, args.rank)) @ rng.standard_normal((args.rank, args.m))
    one_step = lifted(A)
    eckart_young_gap = float(np.linalg.norm(one_step - A))
    query = MatrixConcavityQuery(args.n, args.m, args.rank, args.rank_prime)
    report = empirical_matrix_concavity(lifted, query, budget=100, seed=args.seed)
    obj = QuadraticObjective.random_instance((args.n, args.m), 1.0, kappa, rng)
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
    if args.out:
        write_csv(
            args.out,
            _config(args),
            ["check", "passed", "detail"],
            [[name, int(ok), detail.replace(",", ";")] for name, ok, detail in results],
        )
    return 0 if all(ok for _, ok, _ in results) else 1


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
    p.add_argument(
        "--rho-grid",
        default="0.01:0.99:0.01",
        help="a:b:step, keeping the points inside (0, 1); a grid that starts"
        " below zero must be written --rho-grid=a:b:step",
    )
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


def _config_flags(path: str, command) -> list:
    """The ``key=value`` lines of a config file, spelled as ``command``'s flags.

    Booleans take 1/true/yes or 0/false/no and lists split on whitespace;
    argparse then checks every key and value as it checks the command line.
    """
    flags = []
    with open(path) as fh:
        lines = [line.strip() for line in fh]
    for line in lines:
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        key, val = key.strip().replace("-", "_"), val.strip()
        flag = "--" + key.replace("_", "-")
        default = command.get_default(key)
        if isinstance(default, bool):
            on = val.lower() in ("1", "true", "yes")
            if not on and val.lower() not in ("0", "false", "no"):
                command.error(f"argument {flag}: expected a boolean, got {val!r}")
            flags += [flag] if on else []
        elif isinstance(default, list):
            flags += [flag, *val.split()]
        else:
            flags.append(f"{flag}={val}")
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    # first pass to locate --config; its lines are parsed as flags placed
    # right after the subcommand, so flags on the command line override them
    ns, _ = parser.parse_known_args(argv)
    if getattr(ns, "config", None):
        at = argv.index(ns.command) + 1
        argv[at:at] = _config_flags(ns.config, commands[ns.command])
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
