"""The shared contract predicates reject constructed bad inputs."""

import dataclasses
import math

import numpy as np
import pytest

import threshlab.concavity as conc
import threshlab.validate as validate
from threshlab.adversarial import build_prox_trap, build_trap, default_prox_lambda_grid
from threshlab.concavity import ConcavityQuery, ConcavityReport
from threshlab.lowrank import LiftedOperator
from threshlab.operators import hard_operator, reciprocal_operator
from threshlab.regression import DesignSpec, generate_instance
from threshlab.solver import Gram, QuadraticObjective
from threshlab.validate import (
    check_closed_form_table,
    check_prox_sweep,
    check_regression_objective,
    check_sandwich,
    check_stationary,
    check_theorem1_run,
    check_theorem7_run,
    check_trap,
    check_universal_witness,
)


@pytest.mark.parametrize(
    "name, detail",
    [
        ("gamma_hard", "gamma_hard wrong"),
        ("gamma_optimal", "gamma_optimal wrong"),
        ("gamma_shrink_class", "optimal sigma(1) identity fails"),
        ("gamma_lq", "lq(2/3) != rt(0)"),
    ],
)
def test_closed_form_table_rejects_a_wrong_gamma(monkeypatch, name, detail):
    rhos = np.arange(0.05, 0.951, 0.05)
    assert check_closed_form_table(rhos) == (True, "rho grid 0.05..0.95")
    exact = getattr(conc, name)
    monkeypatch.setattr(conc, name, lambda *args: exact(*args) + 1e-11)
    assert check_closed_form_table(rhos) == (False, f"{detail} at rho=0.05")


def test_sandwich_rejects_values_outside_the_tolerance():
    def report(closed_form, found):
        return ConcavityReport(closed_form, found, np.zeros(2), np.ones(2), found)

    cf = conc.gamma_hard(0.5)
    assert check_sandwich(report(cf, cf))[0] and check_sandwich(report(cf, cf - 1e-7))[0]
    for found in (cf + 1e-8, cf - 1e-5, math.nan):
        assert not check_sandwich(report(cf, found))[0]
    assert not check_sandwich(report(None, 1.0))[0]
    # where the closed form is +inf the search must show the divergence
    assert check_sandwich(report(math.inf, 2e3))[0]
    assert not check_sandwich(report(math.inf, 999.0))[0]


def test_universal_witness_rejects_a_ratio_below_the_floor(monkeypatch):
    ops, query = [hard_operator(5)], ConcavityQuery(5, 2)
    assert check_universal_witness(ops, query)[0]
    floor = query.rho / (1 + query.rho) - 1e-9
    monkeypatch.setattr(validate, "lower_bound_witness", lambda op, q: (None, None, floor - 1e-12))
    assert not check_universal_witness(ops, query)[0]


def test_bound_runs_reject_a_gamma_the_operator_cannot_meet():
    # kappa = 1 makes each bound f(y) from the first step on, so an operator
    # that cannot reach the comparator y (the 2-sparse vector 1, the rank-one
    # part of the 2 x 2 identity) breaks the bound for any claimed gamma
    obj = QuadraticObjective(np.eye(2), np.ones(2), np.zeros(2), 1.0, 1.0)
    assert check_theorem1_run(obj, hard_operator(2), None, 5, 2, 0.01)[0]
    assert check_theorem1_run(obj, hard_operator(1), None, 5, 2, 0.01) == (False, "bound violated")
    eye = QuadraticObjective(np.eye(4), np.eye(2), np.zeros((2, 2)), 1.0, 1.0)
    assert check_theorem7_run(eye, LiftedOperator(hard_operator(2)), None, 5, 0.01)[0]
    assert not check_theorem7_run(eye, LiftedOperator(reciprocal_operator(1)), None, 5, 0.01)[0]


def test_trap_rejects_a_start_point_moved_by_one_ulp():
    op = hard_operator(2)
    trap = build_trap(op, ConcavityQuery(2, 2), 1.0 / 1.5, 1.0, seed=0)
    assert check_trap(trap.objective, op, trap.x0, trap.y, 20)[0]
    moved = trap.x0.copy()
    k = int(np.flatnonzero(moved)[0])
    moved[k] = np.nextafter(moved[k], np.inf)
    assert check_trap(trap.objective, op, moved, trap.y, 20) == (False, "f(x0) != 0")
    assert check_stationary(trap.objective, op, moved, 20) == (False, "trap not stationary")
    assert check_trap(trap.objective, op, trap.x0, trap.x0, 20) == (False, "f(y) not negative")


def test_prox_sweep_rejects_a_comparator_no_level_beats():
    inst = build_prox_trap(3, np.asarray([1.0, -0.7, 1.3]))
    grid = default_prox_lambda_grid(inst, interior=25)
    assert check_prox_sweep(inst, grid)[0]
    # against y = 0 the disjunction fails at every level with a sparse
    # solution: shrinking toward zero never makes f larger than f(0)
    bad = dataclasses.replace(inst, y=np.zeros(3))
    assert check_prox_sweep(bad, grid) == (False, "30 lambdas, 5 disjunction failures")


@pytest.mark.parametrize("n, d", [(40, 15), (15, 40)])
def test_regression_objective_rejects_a_wrong_hessian_product(monkeypatch, n, d):
    inst = generate_instance(DesignSpec("iid-gaussian", n, d), 3, 0.5, 0)
    theta = np.random.default_rng(1).standard_normal(d)
    obj = inst.objective()
    assert check_regression_objective(obj, inst.X, inst.y, theta)[0]
    # the objective of another response fails against this one's residual
    other = dataclasses.replace(inst, y=inst.y + 1e-9).objective()
    assert not check_regression_objective(other, inst.X, inst.y, theta)[0]
    # a product off by one part in 1e10: through the Gram factor where d > n,
    # through the dense H otherwise
    if d > n:
        exact = Gram.__matmul__
        monkeypatch.setattr(Gram, "__matmul__", lambda self, v: exact(self, v) * (1 + 1e-10))
    else:
        obj.H = obj.H * (1 + 1e-10)
    assert not check_regression_objective(obj, inst.X, inst.y, theta)[0]
