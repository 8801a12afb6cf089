"""Every file a small set of CLI runs writes, byte for byte against the
copies under tests/golden/, which the package wrote at version 0.10.0,
and every `--help` text at COLUMNS=80 against tests/golden/help/, written
at the same version.

tests/golden/verify/details.json holds the details of every passing check
of `verify.CHECKS`, keyed by check name, and under the criterion-11 name
the per-point distances that check reports; tests/test_acceptance.py
compares each check's details to it as `_format.dumps_json` renders them.

Regenerate the copies (only when an output is meant to change) with
    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from washburn import _format, cli

GOLDEN = Path(__file__).resolve().parent / "golden"
VERIFY_DETAILS = GOLDEN / "verify" / "details.json"

WATER_JSON = {"rho": 1000.0, "mu": 0.001, "gamma": 0.0728, "theta_deg": 0.0,
              "g": 9.81, "R": 1e-4, "L": 0.0, "h0": 0.0}

# name: argv, run in an empty directory holding water.json
RUNS = {
    "classify": ["classify", "--omega", "1", "--beta", "1", "--alpha", "0", "--horizon", "40",
                 "--output", "classify.json"],
    "basin": ["basin", "--alpha", "0.5", "--output", "basin.json"],
    "nondim": ["nondim", "--input", "water.json", "--output", "nondim.json"],
    "simulate": ["simulate", "--omega", "1", "--beta", "1", "--alpha", "0.5", "--classify",
                 "--horizon", "25", "--sample-step", "0.5", "-o", "sim"],
    "inconclusive": ["simulate", "--omega", "0.1", "--beta", "1", "--alpha", "0", "--classify",
                     "--horizon", "5", "--sample-step", "0.5", "-o", "inc"],
    "picard": ["picard", "--omega", "1", "--beta", "1", "--alpha", "0", "--horizon", "2",
               "--step", "0.1", "-o", "pic"],
    "regime3": ["regime", "--case", "3", "--beta", "0.7", "--horizon", "5",
                "--sample-step", "0.25", "-o", "r3"],
    "regime4": ["regime", "--case", "4", "--beta", "0.7", "--alpha", "0.5", "--horizon", "5",
                "--sample-step", "0.25", "-o", "r4"],
}

# help file name: argv whose help text it holds
HELP = {"washburn": ["--help"],
        **{sub: [sub, "--help"]
           for sub in ("nondim", "simulate", "picard", "classify", "basin", "regime",
                       "verify")}}


def run_in(directory: Path, argv) -> dict:
    """Run argv in directory; return {file name: bytes} of what it wrote."""
    (directory / "water.json").write_text(json.dumps(WATER_JSON))
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        assert cli.main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.name != "water.json"}


@pytest.mark.parametrize("name", RUNS)
def test_files_match_the_golden_copies(tmp_path, capsys, name):
    written = run_in(tmp_path, RUNS[name])
    out, err = capsys.readouterr()
    assert (out, err) == ("", "")
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(written) == sorted(expected)
    for file_name, data in written.items():
        assert data == expected[file_name], f"{name}/{file_name} differs"


def help_text(argv) -> bytes:
    """What `washburn ARGV` prints to stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as done:
        cli.main(argv)
    assert done.value.code == 0, argv
    return out.getvalue().encode()


@pytest.mark.parametrize("name", HELP)
def test_help_matches_the_golden_copy(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_text(HELP[name]) == (GOLDEN / "help" / f"{name}.txt").read_bytes()


def verify_details() -> dict:
    """Every passing check's details, and criterion 11's per-point distances."""
    from washburn import verify

    details = {o.name: o.details for o in verify.run_checks() if o.passed}
    details["acceptance.c11_convergence_to_equilibrium"] = {
        "distances": {f"beta={b},omega={w},alpha={a}": verify.convergence_distance(b, w, a)
                      for b, w, a in verify.ACCEPTANCE_GRID}}
    return details


if __name__ == "__main__":
    for name, argv in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            target = GOLDEN / name
            target.mkdir(parents=True, exist_ok=True)
            for old in target.iterdir():
                old.unlink()
            for file_name, data in run_in(Path(tmp), argv).items():
                (target / file_name).write_bytes(data)
    os.environ["COLUMNS"] = "80"
    (GOLDEN / "help").mkdir(exist_ok=True)
    for name, argv in HELP.items():
        (GOLDEN / "help" / f"{name}.txt").write_bytes(help_text(argv))
    VERIFY_DETAILS.parent.mkdir(exist_ok=True)
    _format.write_json(VERIFY_DETAILS, verify_details())
