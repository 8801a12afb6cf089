"""Every file a small set of CLI runs writes, byte for byte against the
copies under tests/golden/, which the package wrote at version 0.12.0,
and every `--help` text at COLUMNS=80 against tests/golden/help/, written
at the same version.

tests/golden/verify/details.json holds the details of every passing check
of `verify.CHECKS`, keyed by check name, and under the criterion-11 name
the per-point distances that check reports; tests/test_acceptance.py
compares each check's details to it as `_format.dumps_json` renders them.

Regenerate the copies (only when an output is meant to change) with
    PYTHONPATH=src python tests/test_golden.py
Files are the same bytes for the same inputs at a given version, so the
script first runs every argv and compares: if a run's data file (any but
its `*.meta.json`) would change, appear or vanish while the package's
version is the one the golden `*.meta.json` files record, it lists those
files, exits 1 and writes nothing. Bump the version first. The help texts
and verify/details.json are not compared.
"""
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from washburn import __version__, _format, cli

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


def silent_changes(written: dict, golden: Path, version: str) -> list[str]:
    """The data files, as "run/file", that `written` ({run: {file name:
    bytes}}) would change, add or remove under golden, when version is one
    that golden's `*.meta.json` files record; none at any other version.
    Every `*.meta.json` may change: it holds the version."""
    recorded = {json.loads(p.read_bytes())["version"] for p in golden.glob("*/*.meta.json")}
    if version not in recorded:
        return []
    changed = []
    for name, files in written.items():
        old = {p.name: p.read_bytes() for p in (golden / name).glob("*")}
        changed += [f"{name}/{file_name}" for file_name in sorted(old.keys() | files.keys())
                    if not file_name.endswith(".meta.json")
                    and old.get(file_name) != files.get(file_name)]
    return changed


def regenerate(golden: Path = GOLDEN):
    """Rewrite every golden copy, or exit 1, writing nothing, when a data
    file would change silently (`silent_changes` at the package's version)."""
    written = {}
    for name, argv in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            written[name] = run_in(Path(tmp), argv)
    changed = silent_changes(written, golden, __version__)
    if changed:
        sys.exit(f"these files change at version {__version__}, which the golden copies "
                 "record; bump the version first:\n  " + "\n  ".join(changed))
    for name, files in written.items():
        target = golden / name
        target.mkdir(parents=True, exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        for file_name, data in files.items():
            (target / file_name).write_bytes(data)
    os.environ["COLUMNS"] = "80"
    (golden / "help").mkdir(exist_ok=True)
    for name, argv in HELP.items():
        (golden / "help" / f"{name}.txt").write_bytes(help_text(argv))
    (golden / "verify").mkdir(exist_ok=True)
    _format.write_json(golden / "verify" / VERIFY_DETAILS.name, verify_details())


def test_regeneration_refuses_a_silent_data_change(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    recorded = json.loads((golden / "simulate" / "sim.meta.json").read_bytes())["version"]
    written = {name: {p.name: p.read_bytes() for p in (golden / name).iterdir()}
               for name in RUNS}
    assert silent_changes(written, golden, recorded) == []
    written["simulate"]["sim.meta.json"] += b" "  # the version line may change
    assert silent_changes(written, golden, recorded) == []
    csv = bytearray(written["simulate"]["sim.csv"])
    csv[-2] ^= 1  # one altered digit of the last row
    written["simulate"]["sim.csv"] = bytes(csv)
    written["picard"]["pic.gp"] = b"set output\n"  # a file that appears
    del written["regime3"]["r3.gp"]  # and one that vanishes
    want = ["picard/pic.gp", "regime3/r3.gp", "simulate/sim.csv"]
    assert sorted(silent_changes(written, golden, recorded)) == want
    assert silent_changes(written, golden, recorded + ".1") == []
    # The script's own run: the copy's CSV now differs from what the package
    # writes at the version its copies record, so it exits 1 and writes nothing.
    (golden / "simulate" / "sim.csv").write_bytes(csv)
    before = {p: p.read_bytes() for p in golden.rglob("*") if p.is_file()}
    with pytest.raises(SystemExit) as done:
        regenerate(golden)
    assert done.value.code.endswith("\n  simulate/sim.csv")
    assert {p: p.read_bytes() for p in golden.rglob("*") if p.is_file()} == before


if __name__ == "__main__":
    regenerate()
