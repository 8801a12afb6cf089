"""The CSV writer against the per-value writer it replaced, and the JSON
emitter's rendering of result types against the hand converters it
replaced (`stability_report_dict`, `crossings_json`, `outcome_dict` and
the asdict/.value/numerator unpacking of the command-line front end),
byte for byte."""
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from washburn._format import dumps_json, fmt17, write_csv, write_json
from washburn.dynamics import RegimeCase, RegimeSpec
from washburn.integrate import Crossing, integrate
from washburn.params import ModelParams
from washburn.stability import (ApproachKind, PointKind, audit_trajectory, basin,
                                linearize)
from washburn.verify import CheckOutcome


def csv_by_value(path, header, columns):
    """The per-value writer write_csv replaced: one fmt17 call per value."""
    cols = [np.asarray(col, dtype=float) for col in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join(fmt17(x) for x in row) + "\n")


def awkward_columns(seed, rows, width):
    rng = np.random.default_rng(seed)
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
               for _ in range(width)]
    specials = [-0.0, 0.0, 5e-324, -2.2e-310, 1e300, -1e300, 1.7976931348623157e308,
                1.0, -1.0, 0.1, 1e-5, 123456789.0]
    columns[0][:len(specials)] = specials[:rows]
    return columns


class TestWriteCsv:
    @pytest.mark.parametrize("seed,rows,width", [(1, 40, 7), (2, 1, 1), (3, 4097, 7),
                                                 (4, 13, 2)])
    def test_same_bytes_as_the_per_value_writer(self, tmp_path, seed, rows, width):
        columns = awkward_columns(seed, rows, width)
        header = ",".join(f"c{k}" for k in range(width))
        write_csv(tmp_path / "new.csv", header, columns)
        csv_by_value(tmp_path / "old.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_no_rows_writes_the_header(self, tmp_path):
        write_csv(tmp_path / "x.csv", "a,b", [np.zeros(0), np.zeros(0)])
        assert (tmp_path / "x.csv").read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_value_in_row_order_is_named(self, tmp_path, bad):
        columns = awkward_columns(5, 20, 3)
        columns[2][4] = bad
        columns[0][9] = np.inf if np.isnan(bad) else np.nan  # a later row, another value
        with pytest.raises(ValueError, match=f"non-finite value .*{bad!r}.* in output"):
            write_csv(tmp_path / "x.csv", "a,b,c", columns)
        assert not (tmp_path / "x.csv").exists()


def test_write_json_refuses_a_non_finite_value_before_opening_the_file(tmp_path):
    with pytest.raises(ValueError, match="non-finite value inf in output"):
        write_json(tmp_path / "x.json", {"x": math.inf})
    assert not (tmp_path / "x.json").exists()


AWKWARD_STRINGS = ["\x01", "\b", "\f", "\x1f", '"', "\\", "\u00e9",
                   'a\x01b\bc\fd\x1fe"f\\g\u00e9h\n\r\t', ""]


@pytest.mark.parametrize("text", AWKWARD_STRINGS, ids=ascii)
def test_strings_and_keys_round_trip_through_json(text):
    obj = {text: text, "list": [text, {text: [text]}]}
    assert json.loads(dumps_json(obj)) == obj
    assert json.loads(dumps_json(text)) == text


def stability_report_dict(report):
    return {
        "lambda1": {"re": report.lambda1.real, "im": report.lambda1.imag},
        "lambda2": {"re": report.lambda2.real, "im": report.lambda2.imag},
        "kind": report.kind.value,
        "omega_star": report.omega_star,
        "discriminant": report.discriminant,
    }


def crossings_json(crossings):
    return [{"s": c.s, "direction": c.direction} for c in crossings]


def outcome_dict(o):
    return {"name": o.name, "passed": o.passed, "seconds": o.seconds,
            "details": o.details, "message": o.message}


def same_json(new, old):
    assert dumps_json(new) == dumps_json(old)


class TestResultTypes:
    @pytest.mark.parametrize("kind", [*PointKind, *ApproachKind])
    def test_enum_is_its_value(self, kind):
        same_json(kind, kind.value)
        same_json({"approach": kind}, {"approach": kind.value})

    @pytest.mark.parametrize("omega,beta,kind", [
        (0.1, 1.0, PointKind.STABLE_NODE), (31.4, 0.7, PointKind.STABLE_SPIRAL),
        (0.25, 1.0, PointKind.STABLE_INFLECTED_NODE)])
    def test_stability_report(self, omega, beta, kind):
        report = linearize(omega, beta)
        assert report.kind is kind
        same_json(report, stability_report_dict(report))
        same_json({"linear": report}, {"linear": stability_report_dict(report)})

    def test_crossings(self):
        traj = integrate(ModelParams(omega=1.0, beta=1.0, alpha=0.0), horizon=20.0)
        assert len(traj.crossings) >= 3
        for crossings in (traj.crossings, (), (Crossing(np.float64(0.5), -1),)):
            same_json(crossings, crossings_json(crossings))

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 1.5])
    def test_basins_and_audits(self, alpha):
        spec = basin(alpha)
        traj = integrate(ModelParams(omega=1.0, beta=1.0, alpha=alpha), horizon=5.0)
        audit = audit_trajectory(traj, spec)
        spec_dict = {"C": spec.C, "u_min": spec.u_min, "u_max": spec.u_max}
        audit_dict = {"max_level_excess": audit.max_level_excess,
                      "max_lyapunov_rise": audit.max_lyapunov_rise,
                      "final_distance": audit.final_distance}
        same_json(spec, spec_dict)
        same_json(audit, audit_dict)
        same_json({"basin": spec, "audit": audit}, {"basin": spec_dict, "audit": audit_dict})

    @pytest.mark.parametrize("outcome", [
        CheckOutcome("stability.basin", True, 0.125, {"worst": 1e-12, "points": [1, 2]}),
        CheckOutcome("acceptance.c11", False, 2.5, {}, "CheckFailure: distance 4.6e-04\n\"x\"")])
    def test_check_outcomes(self, outcome):
        same_json(outcome, outcome_dict(outcome))
        same_json({"checks": [outcome, outcome]},
                  {"checks": [outcome_dict(outcome), outcome_dict(outcome)]})

    @pytest.mark.parametrize("b", [None, Fraction(1, 10), Fraction(1, 8), Fraction(9, 20)])
    def test_case3_exponents(self, b):
        spec = RegimeSpec.standard(RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA, b=b)
        same_json({"a": spec.a, "b": spec.b},
                  {"a": [spec.a.numerator, spec.a.denominator],
                   "b": [spec.b.numerator, spec.b.denominator]})

    def test_complex_and_fraction_scalars(self):
        same_json(np.complex128(-0.5 + 2j), {"re": -0.5, "im": 2.0})
        same_json(complex(3, -0.0), {"re": 3.0, "im": -0.0})
        same_json(Fraction(-3, 7), [-3, 7])

    def test_unknown_types_are_refused(self):
        class Point(NamedTuple):
            x: float

        @dataclass
        class Record:  # records are NamedTuples: a dataclass is not one of the types
            x: float

        for obj in (object(), Point, {1, 2}, np.zeros(2), np.int64(1), Record(1.0)):
            with pytest.raises(TypeError, match="cannot serialize"):
                dumps_json(obj)
        same_json(Point(1.0), {"x": 1.0})
