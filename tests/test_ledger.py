"""The ledger: the work counters and the SHA-256 of every stored bit of a
seeded set of solves and Picard solves, against tests/golden/ledger/ledger.json,
which the package wrote at the version the file records.

A solve row is a default `integrate.solve` at a point of a seeded table
drawn as `verify._uniform_rows` draws (omega log-uniform in 10^[-1.5, 1.5],
beta log-uniform in 10^[-1.2, 0], alpha uniform in [0, 1.5]): its accepted
and rejected steps, `nfev`, its crossings and the `crossing_evaluations`
that reading them took, and the hash of its step store `_steps` (native
doubles). A Picard row is one `picard_solve`: its iterations and the hashes
of its values and its diff log, or, where it stops with ConvergenceError,
the iterations and last difference the error reports. The grids cover one
block, several blocks with a partial last one, blocks of 7 nodes (h/c = 10)
and a non-finite iterate. One run of the whole ledger takes about 0.13 s
on a 2-vCPU Xeon VM.

The column ledger, tests/golden/ledger/columns.json, holds the SHA-256 of
every sampled column that the CLI writes: s, u, v, H, T, E and V of
`integrate_floats` at the first COLUMN_SOLVES points of the table, at their
defaults, and at one regularized point; and t, u, v, h and the oracle
residual of `integrate_regime_floats` in cases 1 to 4. It takes about 0.10 s.

Regenerate a file (only when a bit is meant to move) with
    PYTHONPATH=src python tests/test_ledger.py [ledger.json] [columns.json]
(both without a name). It writes nothing and exits 1 when a named file
already records the package's version: bump the version first.
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from washburn import __version__, verify
from washburn.errors import ConvergenceError
from washburn.dynamics import RegimeSpec
from washburn.integrate import (CSV_HEADER, integrate_floats, integrate_regime_floats,
                                regime_oracle_residuals, solve)
from washburn.params import ModelParams
from washburn.volterra import picard_solve

LEDGER = Path(__file__).resolve().parent / "golden" / "ledger" / "ledger.json"
COLUMNS = LEDGER.with_name("columns.json")
SOLVES = 40
COLUMN_SOLVES = 6
EPSILON_RUN = (1.0, 1.0, 0.0, 1e-4)  # (omega, beta, alpha, epsilon)
# (case, beta, alpha, horizon) of the regime rows; case 2 stays below h* = 1
REGIMES = [(1, 0.7, 0.3, 20.0), (2, 0.7, 0.2, 4.0), (3, 0.7, 0.0, 20.0), (4, 0.7, 0.5, 20.0)]
# (omega, beta, alpha, horizon, intervals or None for picard_solve's default)
PICARD = [(1.0, 1.0, 0.5, 10.0, 2), (0.55, 0.8, 0.45, 8.0, 256),
          (0.9, 0.95, 0.7, 9.5, 4096), (1.0, 1.0, 0.0, 20.0, 3 * 4096 + 123),
          (1.0, 1.0, 0.5, 2560.0, 256), (1.0, 1.0, 0.0, 1e300, None)]


def sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def table_points(count: int) -> list[tuple[float, float, float]]:
    """(omega, beta, alpha) of the first count rows of the seeded table."""
    table = verify._uniform_rows((-1.5, -1.2, 0.0), (1.5, 0.0, 1.5))[:count]
    return [(10.0 ** log_omega, 10.0 ** log_beta, alpha)
            for log_omega, log_beta, alpha in table]


def solve_rows() -> list[dict]:
    rows = []
    for omega, beta, alpha in table_points(SOLVES):
        run = solve(ModelParams(omega, beta, alpha))
        dense = run.dense
        crossings = len(run.crossings)
        rows.append({"omega": omega, "beta": beta, "alpha": alpha,
                     "accepted": dense.accepted, "rejected": dense.rejected,
                     "nfev": dense.nfev, "crossings": crossings,
                     "crossing_evaluations": dense.crossing_evaluations,
                     "steps_sha256": sha256(dense._steps)})
    return rows


def picard_rows() -> list[dict]:
    rows = []
    for omega, beta, alpha, horizon, intervals in PICARD:
        row = {"omega": omega, "beta": beta, "alpha": alpha, "horizon": horizon,
               "intervals": intervals}
        step = None if intervals is None else horizon / intervals
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                result = picard_solve(omega, beta, alpha, horizon, step=step)
        except ConvergenceError as error:
            row.update(error="ConvergenceError", iterations=error.iterations,
                       last_diff=repr(error.last_diff))
        else:
            row.update(iterations=result.iterations,
                       values_sha256=sha256(result.solution.values.tobytes()),
                       diffs_sha256=sha256(result.diffs.tobytes()))
        rows.append(row)
    return rows


def ledger() -> dict:
    return {"version": __version__, "solves": solve_rows(), "picard": picard_rows()}


def column_rows() -> list[dict]:
    points = [(*point, 0.0) for point in table_points(COLUMN_SOLVES)] + [EPSILON_RUN]
    rows = []
    for omega, beta, alpha, epsilon in points:
        traj = integrate_floats(ModelParams(omega, beta, alpha), epsilon=epsilon)
        rows.append({"omega": omega, "beta": beta, "alpha": alpha, "epsilon": epsilon,
                     **{f"{name}_sha256": sha256(getattr(traj, name))
                        for name in CSV_HEADER.split(",")}})
    return rows


def regime_rows() -> list[dict]:
    rows = []
    for case, beta, alpha, horizon in REGIMES:
        traj = integrate_regime_floats(RegimeSpec.standard(case), beta=beta, alpha=alpha,
                                       horizon=horizon)
        oracle, residual = regime_oracle_residuals(traj)
        columns = {"t": traj.t, "u": traj.u, "v": traj.v, "h": traj.h, "residual": residual}
        rows.append({"case": case, "beta": beta, "alpha": alpha, "horizon": horizon,
                     "oracle": oracle,
                     **{f"{name}_sha256": sha256(column)
                        for name, column in columns.items() if column is not None}})
    return rows


def columns() -> dict:
    return {"version": __version__, "solves": column_rows(), "regimes": regime_rows()}


LEDGERS = {LEDGER.name: (LEDGER, ledger), COLUMNS.name: (COLUMNS, columns)}


def assert_matches_the_golden_copy(name: str):
    path, build = LEDGERS[name]
    golden = json.loads(path.read_bytes())
    got = build()
    message = ("a ledger row moved. libm (exp, log, pow) and numpy's SIMD kernels set "
               "some of these bits, so another CPU or libm may move rows that this code "
               "does not (ROADMAP, 'Output bits that do not depend on the CPU'); on the "
               "machine that wrote the file, a moved row is a changed program")
    assert got.keys() == golden.keys()
    for kind in got.keys() - {"version"}:
        assert len(got[kind]) == len(golden[kind])
        for i, (row, want) in enumerate(zip(got[kind], golden[kind])):
            assert row == want, f"{name} {kind}[{i}]: {message}"


def test_ledger_matches_the_golden_copy():
    assert_matches_the_golden_copy(LEDGER.name)


def test_column_ledger_matches_the_golden_copy():
    assert_matches_the_golden_copy(COLUMNS.name)


def regenerate(path: Path = LEDGER, build=ledger):
    """Write build() to path, or exit 1, writing nothing, when the file
    already records the package's version."""
    if path.exists() and json.loads(path.read_bytes())["version"] == __version__:
        sys.exit(f"{path.name} already records version {__version__}; bump the version "
                 "first")
    text = json.dumps(build(), indent=1) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_regeneration_refuses_the_recorded_version(tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"version": __version__}))
    with pytest.raises(SystemExit) as done:
        regenerate(path)
    assert done.value.code.endswith("bump the version first")
    assert json.loads(path.read_text()) == {"version": __version__}


if __name__ == "__main__":
    for name in sys.argv[1:] or LEDGERS:
        regenerate(*LEDGERS[name])
