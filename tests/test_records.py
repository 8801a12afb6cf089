"""The package's 15 record types: their fields in order, their defaults,
the checks and coercions of the five validated ones, and that none can be
assigned to.

The field order is the order in which `_format` writes a record and the
goldens hold it. The records are NamedTuples, with a subclass whose
`__new__` checks and coerces where a record is validated, and `Run` and
`Trajectory` are plain classes that keep their crossings and final state
once read."""
import inspect
from fractions import Fraction

import numpy as np
import pytest

from washburn.dynamics import RegimeCase, RegimeSpec
from washburn.errors import ConsistencyError, DomainError
from washburn.integrate import RegimeTrajectory, Run, Trajectory, integrate_floats, solve
from washburn.params import ModelParams, PhysicalParams
from washburn.stability import (ApproachKind, ApproachReport, BasinAudit, BasinSpec,
                                StabilityReport, basin, linearize)
from washburn.verify import CheckOutcome
from washburn.volterra import (GridFunction, OrderIntervalReport, PicardResult, ScalingReport,
                               picard_solve)

RUN_FIELDS = ("params", "epsilon", "tolerances", "horizon", "dense")
FIELDS = {  # record: (field names in order, defaults)
    PhysicalParams: (("rho", "mu", "gamma", "theta", "g", "R", "L", "h0"),
                     {"L": 0.0, "h0": 0.0}),
    ModelParams: (("omega", "beta", "alpha", "h_e", "tau", "Oh", "Bo"),
                  {"h_e": None, "tau": None, "Oh": None, "Bo": None}),
    RegimeSpec: (("case", "a", "b"), {}),
    BasinSpec: (("C", "u_min", "u_max"), {}),
    GridFunction: (("grid", "values"), {}),
    StabilityReport: (("lambda1", "lambda2", "kind", "omega_star", "discriminant"), {}),
    ApproachReport: (("kind", "crossings", "final_distance"), {}),
    BasinAudit: (("max_level_excess", "max_lyapunov_rise", "final_distance"), {}),
    PicardResult: (("solution", "diffs", "iterations", "step"), {}),
    OrderIntervalReport: (("s_star", "lower_margin", "upper_margin", "holds"), {}),
    ScalingReport: (("lam", "max_violation", "holds"), {}),
    RegimeTrajectory: (("spec", "beta", "h0", "t", "u", "v", "h", "tolerances"), {}),
    CheckOutcome: (("name", "passed", "seconds", "details", "message"), {"message": None}),
    Run: (RUN_FIELDS, {}),
    Trajectory: (RUN_FIELDS + ("s", "u", "v", "H", "T", "E", "V", "sample_step"), {}),
}
WATER = dict(rho=1000.0, mu=0.001, gamma=0.0728, theta=0.0, g=9.81, R=1e-4)
ONE = ModelParams(1.0, 1.0, 0.5)


def grid_function():
    return GridFunction(np.linspace(0.0, 1.0, 3), np.zeros(3))


INSTANCES = {  # record: a factory of one instance
    PhysicalParams: lambda: PhysicalParams(**WATER),
    ModelParams: lambda: ONE,
    RegimeSpec: lambda: RegimeSpec.standard(RegimeCase.NEGLIGIBLE_GRAVITY),
    BasinSpec: lambda: basin(0.5),
    GridFunction: grid_function,
    StabilityReport: lambda: linearize(1.0, 1.0),
    ApproachReport: lambda: ApproachReport(ApproachKind.MONOTONE, (), 0.0),
    BasinAudit: lambda: BasinAudit(0.0, 0.0, 0.0),
    PicardResult: lambda: picard_solve(1.0, 1.0, 0.5, 1.0, step=0.25),
    OrderIntervalReport: lambda: OrderIntervalReport(0.5, 0.0, 0.0, True),
    ScalingReport: lambda: ScalingReport(0.5, 0.0, True),
    RegimeTrajectory: lambda: RegimeTrajectory(RegimeSpec.standard(RegimeCase.NEGLIGIBLE_INERTIA),
                                               1.0, 0.0, (), (), None, (), (1e-12, 1e-11)),
    CheckOutcome: lambda: CheckOutcome("x.y", True, 0.0, {}),
    Run: lambda: solve(ONE, horizon=1.0),
    Trajectory: lambda: integrate_floats(ONE, horizon=1.0),
}


def name(record) -> str:
    return record.__name__


def test_every_record_is_covered():
    assert set(INSTANCES) == set(FIELDS) and len(FIELDS) == 15


@pytest.mark.parametrize("record", FIELDS, ids=name)
def test_fields_in_order_and_defaults(record):
    fields, defaults = FIELDS[record]
    parameters = inspect.signature(record).parameters.values()
    assert tuple(p.name for p in parameters) == fields
    assert {p.name: p.default for p in parameters
            if p.default is not inspect.Parameter.empty} == defaults
    if record not in (Run, Trajectory):
        assert record._fields == fields
    instance = INSTANCES[record]()
    assert all(hasattr(instance, field) for field in fields)


@pytest.mark.parametrize("build,error,message", [
    (lambda: PhysicalParams(**{**WATER, "mu": -1.0}), DomainError,
     "mu: must be finite and > 0, got -1.0"),
    (lambda: ModelParams(omega=1.0, beta=2.0, alpha=0.5), DomainError,
     "beta: must lie in (0, 1], got 2.0"),
    (lambda: RegimeSpec(RegimeCase.NEGLIGIBLE_GRAVITY, 1, 1), DomainError,
     "a: case 1 fixes (a, b) = (Fraction(1, 1), Fraction(1, 2))"),
    (lambda: BasinSpec(C=0.0, u_min=0.6, u_max=0.5), ConsistencyError,
     "basin bounds out of order: (0.6, 0.5)"),
    (lambda: GridFunction([0.0, 1.0], [0.0, 0.0]), DomainError,
     "grid: need at least two intervals"),
], ids=["PhysicalParams", "ModelParams", "RegimeSpec", "BasinSpec", "GridFunction"])
def test_a_validated_record_refuses_a_bad_value(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_validated_records_coerce():
    spec = RegimeSpec(3, 0.5, 0.25)
    assert spec.case is RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA
    assert (spec.a, spec.b) == (Fraction(1, 2), Fraction(1, 4))
    assert all(type(x) is Fraction for x in (spec.a, spec.b))
    f = GridFunction([0, 1, 2], [0, 0, 1])
    for column in f:
        assert column.dtype == float and not column.flags.writeable


@pytest.mark.parametrize("record", FIELDS, ids=name)
def test_no_record_can_be_assigned_to(record):
    instance = INSTANCES[record]()
    field = FIELDS[record][0][0]
    for attribute in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(instance, attribute, 0.0)
    with pytest.raises(AttributeError):
        delattr(instance, field)
    assert not hasattr(instance, "extra")
