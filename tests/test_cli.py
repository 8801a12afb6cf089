import contextlib
import importlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from washburn import _rk, cli, dynamics, verify
from washburn.integrate import REGIME_HORIZON_CAP, integrate
from washburn.params import ModelParams


WATER_JSON = {"rho": 1000.0, "mu": 0.001, "gamma": 0.0728, "theta_deg": 0.0,
              "g": 9.81, "R": 1e-4, "L": 0.0, "h0": 0.0}
BIG_RHO = json.dumps({**WATER_JSON, "rho": 10**400}).encode()
BIG_R = json.dumps({**WATER_JSON, "R": 1e200}).encode()
SUBNORMAL = json.dumps({**WATER_JSON, "rho": 6.92e48, "mu": 1.12e-253, "gamma": 4.13e-134,
                        "g": 6.08e23, "R": 2.0e-141}).encode()


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run(argv):
    return cli.main(argv)


def run_rejected(argv, capsys):
    """Exit code and stderr of an argv that must fail with a message."""
    code = run(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def run_without_warnings(argv, capsys):
    """Exit code and stderr of an argv, failing on any warning it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would escape main()
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects a value (nan for --max-iter) or a missing flag
            code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err, argv
    assert "Warning" not in err, argv
    return code, err


class TestNondim:
    def test_report_fields_and_precision(self, tmp_path, capsys):
        src = tmp_path / "water.json"
        src.write_text(json.dumps(WATER_JSON))
        assert run(["nondim", "--input", str(src)]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert set(report) == {"omega", "beta", "alpha", "h_e", "tau", "Oh",
                               "Bo", "omega_star"}
        assert report["beta"] == 1.0
        assert report["h_e"] == pytest.approx(0.1484199796126401631, rel=1e-13)
        # 17 significant digits on every float
        assert "1.4841997961264017e-01" in out

    def test_strict_keys(self, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({**WATER_JSON, "surprise": 1}))
        assert run(["nondim", "--input", str(src)]) == 2

    @pytest.mark.parametrize("command", ["nondim", "simulate"])
    @pytest.mark.parametrize("content", [
        b"{", b"\xff\xfe{}",  # not JSON, not UTF-8
        pytest.param(BIG_RHO, id="rho-401-digits"),  # no float holds it
        pytest.param(BIG_R, id="R-1e200"),  # R^2 overflows
        pytest.param(SUBNORMAL, id="mu-subnormal-product"),  # 8 mu h_e is subnormal
        pytest.param(b"[1, 2]", id="json-array"),  # JSON, but not an object
    ])
    def test_malformed_input_exits_2(self, tmp_path, capsys, command, content):
        src = tmp_path / "bad.json"
        src.write_bytes(content)
        code, err = run_rejected([command, "--input", str(src), "--output",
                                  str(tmp_path / "x")], capsys)
        assert code == 2
        field = {BIG_RHO: "rho: ", BIG_R: "R: ", SUBNORMAL: "mu: ",
                 b"[1, 2]": "input: expected a JSON object\n"}.get(content, f"input: {src}: ")
        assert err.startswith(f"configuration error: {field}")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [src]


def nested(depth: int, opener: str, closer: str) -> str:
    return opener * depth + "0" + closer * depth


@pytest.mark.parametrize("command,content,message", [
    ("nondim", nested(1000, "[", "]"), "nested too deeply to parse"),
    ("simulate", nested(1000, '{"a": ', "}"), "nested too deeply to parse"),
    ("nondim", " " * cli.INPUT_LIMIT + json.dumps(WATER_JSON), "longer than 65536 characters"),
], ids=["nested-arrays", "nested-objects", "oversize"])
def test_an_input_too_deep_or_too_long_exits_2(tmp_path, capsys, command, content, message):
    src = tmp_path / "bad.json"
    src.write_text(content)
    code, err = run_rejected([command, "--input", str(src), "--output", str(tmp_path / "x")],
                             capsys)
    assert code == 2
    assert err.startswith(f"configuration error: input: {src}: {message}")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_an_endless_input_is_read_no_further_than_the_limit(capsys):
    code, err = run_rejected(["nondim", "--input", "/dev/zero"], capsys)
    assert code == 2
    assert err == ("configuration error: input: /dev/zero: longer than 65536 characters "
                   "(64 KiB), the most an input file may hold\n")


@pytest.mark.parametrize("value,kind", [
    ('"' + "x" * 60000 + '"', "string"),
    (nested(900, "[", "]").replace("0", ""), "array"),
], ids=["long-string", "deep-array"])
def test_a_long_or_deep_value_is_named_by_its_json_type(tmp_path, capsys, value, kind):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({**WATER_JSON, "rho": 0}).replace('"rho": 0', f'"rho": {value}'))
    code, err = run_rejected(["nondim", "--input", str(src)], capsys)
    assert code == 2
    assert err == f"configuration error: rho: must be a number, got a JSON {kind}\n"


@pytest.mark.parametrize("extra", [{"x" * 60000: 1}, {f"x{i}": 1 for i in range(5000)}],
                         ids=["one-long-key", "5000-keys"])
def test_unexpected_keys_are_counted_in_one_short_line(tmp_path, capsys, extra):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({**WATER_JSON, **extra}))
    code, err = run_rejected(["nondim", "--input", str(src)], capsys)
    assert code == 2
    assert err.startswith(f"configuration error: input: unexpected keys: {len(extra)}, first 'x")
    assert err.count("\n") == 1 and len(err) < 200


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(sorted(WATER_JSON)) | st.text(max_size=3),
                                        children, max_size=4)),
    max_leaves=20)
# Water with some keys replaced, so that some files pass the checks and
# others fail them one key at a time.
INPUT_OBJECTS = JSON_VALUES | st.builds(
    lambda changed: {**WATER_JSON, **changed},
    st.dictionaries(st.sampled_from(sorted(WATER_JSON)), st.floats(0.0, 1e3) | JSON_VALUES,
                    max_size=2))


@settings(max_examples=30, deadline=None)
@given(obj=INPUT_OBJECTS, depth=st.sampled_from([0, 0, 1, 50, 2000]))
def test_any_json_input_exits_0_or_2_in_one_line(tmp_path_factory, obj, depth):
    src = tmp_path_factory.getbasetemp() / "any.json"
    src.write_text(nested(depth, "[", "]").replace("0", json.dumps(obj), 1))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["nondim", "--input", str(src)])
    err = err.getvalue()
    if code == 2:
        assert err.startswith("configuration error: ") and err.count("\n") == 1, err
    else:
        assert code == 0, err
        assert err == "" or err.startswith("warning: ") and err.count("\n") == 1, err
        assert all(math.isfinite(x) for x in json.loads(out.getvalue()).values())


TALL_START = json.dumps({**WATER_JSON, "R": 1e-3, "h0": 0.01})  # h0/h_e = 0.674
TALL_WARNING = ("warning: alpha = h0/h_e = 0.673764 is not small; the model assumes an "
                "initial column much shorter than the equilibrium height\n")


@pytest.mark.parametrize("command", [["nondim"], ["simulate", "--horizon", "1", "-o", "run"]],
                         ids=lambda command: command[0])
def test_a_large_alpha_warns_in_one_line(tmp_path, command):
    (tmp_path / "tall.json").write_text(TALL_START)
    done = subprocess.run([sys.executable, "-m", "washburn.cli", command[0], "--input",
                           "tall.json", *command[1:]], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert (done.returncode, done.stderr) == (0, TALL_WARNING)
    if command[0] == "nondim":
        assert json.loads(done.stdout)["alpha"] == pytest.approx(0.673764, rel=1e-6)
    else:
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.csv", "run.gp", "run.json", "run.meta.json", "tall.json"]


def test_other_warnings_of_the_input_escape(tmp_path, capsys, monkeypatch):
    nondimensionalize = cli.params_module.nondimensionalize

    def noisy(physical):
        warnings.warn("a scale overflowed", RuntimeWarning)
        return nondimensionalize(physical)

    monkeypatch.setattr(cli.params_module, "nondimensionalize", noisy)
    src = tmp_path / "tall.json"
    src.write_text(TALL_START)
    with pytest.warns(RuntimeWarning, match="a scale overflowed") as record:
        assert run(["nondim", "--input", str(src)]) == 0
    assert [w.category for w in record] == [RuntimeWarning]
    assert capsys.readouterr().err == TALL_WARNING


class TestSimulate:
    def test_files_and_first_row(self, tmp_path):
        prefix = str(tmp_path / "run")
        code = run(["simulate", "--omega", "1", "--beta", "1", "--alpha", "0",
                    "--horizon", "30", "-o", prefix])
        assert code == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0] == "s,u,v,H,T,E,V"
        first = [float(x) for x in lines[1].split(",")]
        assert first[:6] == [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert first[6] == pytest.approx(1.0 / 6.0, abs=1e-15)
        summary = json.loads((tmp_path / "run.json").read_text())
        assert abs(summary["final_state"]["u"] - 0.5) < 1e-6
        assert len(summary["crossings"]) >= 2
        assert (tmp_path / "run.gp").read_text().startswith("# gnuplot")
        meta = json.loads((tmp_path / "run.meta.json").read_text())
        assert meta["config"]["horizon"] == 30.0

    def test_deterministic_output(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        argv = ["simulate", "--omega", "0.25", "--beta", "0.5", "--alpha", "0.1",
                "--horizon", "10"]
        assert run(argv + ["-o", a]) == 0
        assert run(argv + ["-o", b]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_classification_near_critical(self, tmp_path):
        prefix = str(tmp_path / "crit")
        code = run(["simulate", "--omega", "0.25", "--beta", "1", "--alpha", "0",
                    "--horizon", "40", "--classify", "-o", prefix])
        assert code == 0
        summary = json.loads((tmp_path / "crit.json").read_text())
        classification = summary["classification"]
        assert classification["linear"]["kind"] == "stable-inflected-node"
        assert classification["approach"] == "monotone"
        assert classification["basin"]["C"] == pytest.approx(1.0 / 6.0, abs=1e-16)
        assert classification["audit"]["max_level_excess"] <= 1e-8

    def test_epsilon_twin_distance(self, tmp_path):
        # The largest |u_eps - u_0| over the samples, bit for bit that of
        # two array runs at the same horizon and sample step.
        prefix = str(tmp_path / "eps")
        code = run(["simulate", "--omega", "1", "--beta", "1", "--alpha", "0",
                    "--horizon", "20", "--epsilon", "1e-4", "-o", prefix])
        assert code == 0
        summary = json.loads((tmp_path / "eps.json").read_text())
        params = ModelParams(1.0, 1.0, 0.0)
        u_eps, u_0 = (integrate(params, epsilon, horizon=20.0).u for epsilon in (1e-4, 0.0))
        gap = float(np.max(np.abs(u_eps - u_0)))
        assert summary["sup_distance_to_unregularized"] == gap == 1.1973771253526166e-04

    def test_physical_input(self, tmp_path):
        src = tmp_path / "water.json"
        src.write_text(json.dumps(WATER_JSON))
        prefix = str(tmp_path / "phys")
        assert run(["simulate", "--input", str(src), "--horizon", "5",
                    "-o", prefix]) == 0
        summary = json.loads((tmp_path / "phys.json").read_text())
        assert summary["params"]["h_e"] is not None

    def test_bad_alpha_exits_2(self, tmp_path):
        assert run(["simulate", "--omega", "1", "--beta", "1", "--alpha", "1.7",
                    "-o", str(tmp_path / "x")]) == 2

    def test_horizon_cap_exits_2(self, tmp_path):
        assert run(["simulate", "--omega", "1", "--beta", "1", "--alpha", "0",
                    "--horizon", "2e6", "-o", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("command,tol_args", [
        pytest.param(command, tol_args, id=f"tol_args{i}-{command}")
        for i, tol_args in enumerate([["--abs-tol", "nan"], ["--rel-tol", "inf"],
                                      ["--rel-tol", "0"], ["--rel-tol", "1"],
                                      ["--abs-tol", "1e3"],
                                      # more than MAX_INTERVALS samples; classify
                                      # samples nothing and has no --sample-step
                                      ["--sample-step", "1e-15"],
                                      # above params.MAX_TOLERANCE, where u can
                                      # leave [0, 9/8]
                                      ["--rel-tol", "0.05"], ["--abs-tol", "0.01"],
                                      # below params.MIN_REL_TOL
                                      ["--rel-tol", "1e-15"]])
        for command in ("classify", "simulate")
        if command == "simulate" or tol_args[0] != "--sample-step"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, command, tol_args):
        code, err = run_rejected([command, "--omega", "1", "--beta", "1", "--alpha", "0",
                                  *tol_args, "--output", str(tmp_path / "x")], capsys)
        assert code == 2
        name = tol_args[0][2:].replace("-", "_")
        assert err.startswith(f"configuration error: {name}:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "classify"])
    def test_underflowing_damping_exits_3(self, tmp_path, capsys, monkeypatch, command):
        # beta/sqrt(omega) is 0.0, so the default horizon is the cap.
        monkeypatch.setattr(_rk, "MAX_STEPS", 2**12)
        code, err = run_without_warnings([command, "--omega", "1e300", "--beta", "1e-300",
                                          "--alpha", "0", "--output", str(tmp_path / "x")],
                                         capsys)
        assert code == 3
        assert err.startswith("numeric failure: step budget of 4096 steps")
        assert err.endswith(" of 1000000.0\n")

    @pytest.mark.parametrize("alpha", ["0", "0.5"])
    def test_epsilon_above_one_exits_2(self, tmp_path, capsys, alpha):
        # Above 1 the regularized equilibrium (1 - epsilon)/2 is negative.
        code, err = run_rejected(["simulate", "--omega", "1", "--beta", "1", "--alpha", alpha,
                                  "--epsilon", "1e300", "-o", str(tmp_path / "x")], capsys)
        assert code == 2
        assert err == "configuration error: epsilon: must lie in [0, 1], got 1e+300\n"
        assert list(tmp_path.iterdir()) == []

    def test_output_under_a_missing_directory_exits_2(self, tmp_path, capsys):
        code, err = run_rejected(["simulate", "--omega", "1", "--beta", "1", "--alpha", "0",
                                  "--horizon", "5", "-o", str(tmp_path / "missing" / "x")],
                                 capsys)
        assert code == 2
        assert err.startswith("i/o error: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


NOT_UTF8 = "\udce9"  # the byte 0xe9 of a path that does not decode as UTF-8


@pytest.mark.parametrize("argv,echoed", [
    (["simulate", "--omega", "1", "--beta", "1", "--alpha", "0.5", "-o", NOT_UTF8 + "run"],
     "output"),
    (["regime", "--case", "1", "--beta", "1", "-o", NOT_UTF8 + "reg"], "output"),
    (["simulate", "--input", NOT_UTF8 + ".json", "-o", "enc"], "input"),
], ids=["simulate-output", "regime-output", "simulate-input"])
def test_a_path_a_file_echoes_must_encode_as_utf8(tmp_path, monkeypatch, capsys, argv, echoed):
    monkeypatch.chdir(tmp_path)
    (tmp_path / (NOT_UTF8 + ".json")).write_text(json.dumps(WATER_JSON))
    code, err = run_rejected(argv, capsys)
    assert code == 2
    path = argv[argv.index("-o" if echoed == "output" else "--input") + 1]
    assert err == (f"configuration error: {echoed}: {path!r} does not encode as UTF-8, "
                   "so no file can echo it\n")
    assert os.listdir(tmp_path) == [NOT_UTF8 + ".json"]


def test_paths_no_file_echoes_need_not_encode_as_utf8(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["picard", "--omega", "1", "--beta", "1", "--alpha", "0.5", "--horizon", "2",
                "-o", NOT_UTF8 + "pic"]) == 0
    assert sorted(os.listdir(tmp_path)) == [NOT_UTF8 + "pic" + suffix
                                            for suffix in (".csv", ".json", ".meta.json")]


def test_utf8_paths_are_echoed_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "é.json").write_text(json.dumps(WATER_JSON))
    assert run(["simulate", "--input", "é.json", "--horizon", "1", "-o", "érun"]) == 0
    assert "plot 'érun.csv' skip 1".encode() in (tmp_path / "érun.gp").read_bytes()
    assert '"input": "é.json"'.encode() in (tmp_path / "érun.meta.json").read_bytes()


PLOTTED_ARGVS = {  # the commands that write a .gp script, less their -o
    "simulate": ["simulate", "--omega", "1", "--beta", "1", "--alpha", "0.5", "--horizon", "1"],
    "regime": ["regime", "--case", "2", "--beta", "1", "--horizon", "1"],
}


@pytest.mark.parametrize("command", PLOTTED_ARGVS)
def test_a_quote_in_the_output_path_is_doubled_in_the_plot_script(tmp_path, monkeypatch,
                                                                  command):
    # gnuplot reads '' inside a single-quoted string as one quote.
    monkeypatch.chdir(tmp_path)
    assert run([*PLOTTED_ARGVS[command], "-o", "a'b"]) == 0
    script = (tmp_path / "a'b.gp").read_text().splitlines()
    plot = [line for line in script if line.startswith("plot ")]
    assert len(plot) == 1 and plot[0].startswith("plot 'a''b.csv' skip 1 using 1:")
    assert len(script) == 9
    assert sorted(os.listdir(tmp_path)) == ["a'b" + suffix
                                            for suffix in (".csv", ".gp", ".json", ".meta.json")]


@pytest.mark.parametrize("command", PLOTTED_ARGVS)
@pytest.mark.parametrize("line_break", ["\n", "\r"], ids=["lf", "cr"])
def test_an_output_path_with_a_line_break_is_refused(tmp_path, monkeypatch, capsys, command,
                                                     line_break):
    monkeypatch.chdir(tmp_path)
    prefix = f"a{line_break}b"
    code, err = run_rejected([*PLOTTED_ARGVS[command], "-o", prefix], capsys)
    assert code == 2
    assert err == (f"configuration error: output: {prefix!r} holds a line break, "
                   "so no gnuplot script can echo it\n")
    assert os.listdir(tmp_path) == []


class TestPicard:
    def test_files(self, tmp_path):
        prefix = str(tmp_path / "fp")
        code = run(["picard", "--omega", "1", "--beta", "1", "--alpha", "0",
                    "--horizon", "5", "--step", str(5 / 512), "-o", prefix])
        assert code == 0
        lines = (tmp_path / "fp.csv").read_text().splitlines()
        assert lines[0] == "s,u"
        sidecar = json.loads((tmp_path / "fp.json").read_text())
        assert sidecar["iterations"] > 1
        assert sidecar["final_diff"] < 1e-10
        assert sidecar["h"] == pytest.approx(5 / 512)

    def test_nonconvergence_exits_3(self, tmp_path):
        assert run(["picard", "--omega", "1", "--beta", "1", "--alpha", "0",
                    "--horizon", "5", "--max-iter", "1",
                    "-o", str(tmp_path / "fp")]) == 3

    def test_infinite_tol_exits_2(self, tmp_path, capsys):
        code, err = run_rejected(["picard", "--omega", "1", "--beta", "1", "--alpha", "0",
                                  "--tol", "inf", "-o", str(tmp_path / "fp")], capsys)
        assert code == 2
        assert err.startswith("configuration error: tol:")

    @pytest.mark.parametrize("run_args", [["--omega", "1", "--beta", "1", "--horizon", "1e300"]])
    def test_overflowing_iterate_exits_3_without_warnings(self, tmp_path, capsys, run_args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would escape main()
            code, err = run_rejected(["picard", *run_args, "--alpha", "0",
                                      "-o", str(tmp_path / "fp")], capsys)
        assert code == 3
        assert err.startswith("numeric failure: no convergence")
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("triple,key", [
        pytest.param(["--omega", "1", "--beta", "2", "--alpha", "0"], "beta", id="beta-2"),
        pytest.param(["--omega", "1", "--beta", "0", "--alpha", "0"], "beta", id="beta-0"),
        pytest.param(["--beta", "1", "--alpha", "0"], "omega", id="missing-omega")])
    def test_triple_is_checked_like_simulate(self, tmp_path, capsys, triple, key):
        code, err = run_rejected(["picard", *triple, "-o", str(tmp_path / "fp")], capsys)
        assert code == 2
        assert err.startswith(f"configuration error: {key}: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("grid_args", [["--horizon", "10", "--step", "nan"],
                                           ["--horizon", "10", "--step", "1e-9"],
                                           ["--horizon", "inf"]])
    def test_unbounded_grid_exits_2(self, tmp_path, capsys, grid_args):
        code, err = run_rejected(["picard", "--omega", "1", "--beta", "1", "--alpha", "0",
                                  *grid_args, "-o", str(tmp_path / "fp")], capsys)
        assert code == 2
        assert err.startswith("configuration error:")
        assert not (tmp_path / "fp.csv").exists()


class TestClassifyCommand:
    def test_oscillatory(self, capsys):
        assert run(["classify", "--omega", "1", "--beta", "1", "--alpha", "0",
                    "--horizon", "40"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["approach"] == "oscillatory"
        assert report["linear"]["kind"] == "stable-spiral"

    def test_unsettled_exits_3(self, capsys):
        assert run(["classify", "--omega", "1", "--beta", "1", "--alpha", "0",
                    "--horizon", "2"]) == 3

    def test_a_sample_step_is_a_usage_error(self, tmp_path, capsys):
        # classify samples nothing, so it takes no --sample-step.
        with pytest.raises(SystemExit) as done:
            run(["classify", "--omega", "0.3", "--beta", "1", "--alpha", "0.2",
                 "--horizon", "60", "--sample-step", "0.01",
                 "--output", str(tmp_path / "c.json")])
        assert done.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: washburn ")
        assert err.endswith("washburn: error: unrecognized arguments: --sample-step 0.01\n")
        assert list(tmp_path.iterdir()) == []

    def test_the_verdict_samples_nothing(self, capsys, monkeypatch):
        # One dense-output time, the horizon, for the final state; no E/V
        # columns and no sampled trajectory.
        asked = []
        sample = _rk.DenseSolution.sample

        def recording_sample(self, times):
            asked.append(list(times))
            return sample(self, times)

        def refused(*args, **kwargs):
            raise AssertionError("classify sampled a trajectory")

        integrate = importlib.import_module("washburn.integrate")  # the module, not the function
        monkeypatch.setattr(_rk.DenseSolution, "sample", recording_sample)
        monkeypatch.setattr(dynamics, "lyapunov_columns", refused)
        monkeypatch.setattr(integrate, "integrate_floats", refused)
        monkeypatch.setattr(integrate, "integrate", refused)
        assert run(["classify", "--omega", "0.3", "--beta", "1", "--alpha", "0.2",
                    "--horizon", "60"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["approach"] == "oscillatory"
        assert [c["direction"] for c in report["crossings"]] == [1, -1, 1]
        assert asked == [[60.0]]

    @pytest.mark.parametrize("output", [[], ["--output", "c.json"]], ids=["stdout", "file"])
    @pytest.mark.parametrize("argv", [
        # beta^2 underflows to 0
        ["simulate", "--omega=1", "--beta=1e-300", "--alpha=1", "--horizon=2", "--classify",
         "-o", "e"],
        ["classify", "--omega=1", "--beta=1e-300", "--alpha=1", "--horizon=40"],
        # 4 omega / beta^2 overflows
        ["classify", "--omega", "1e300", "--beta", "1e-10", "--alpha", "1", "--horizon", "1"],
    ], ids=["simulate-beta-1e-300", "classify-beta-1e-300", "classify-omega-1e300"])
    def test_no_float_discriminant_exits_2(self, tmp_path, capsys, monkeypatch, argv,
                                           output):
        monkeypatch.chdir(tmp_path)
        code, err = run_rejected([*argv, *output], capsys)
        assert code == 2
        assert err.startswith("configuration error: beta: 4 omega / beta^2 is not a finite")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestBasinCommand:
    def test_values(self, capsys):
        assert run(["basin", "--alpha", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["C"] == pytest.approx(1.0 / 6.0, abs=1e-16)
        assert report["u_min"] == 0.0
        assert report["u_max"] == pytest.approx(9.0 / 8.0, abs=0.0)


class TestRegimeCommand:
    def test_case3_square_root(self, tmp_path):
        prefix = str(tmp_path / "c3")
        code = run(["regime", "--case", "3", "--beta", "1", "--horizon", "10",
                    "-o", prefix])
        assert code == 0
        rows = np.loadtxt(tmp_path / "c3.csv", delimiter=",", skiprows=1)
        t, h = rows[:, 0], rows[:, 2]
        assert np.max(np.abs(h - np.sqrt(2.0 * t))) < 1e-10
        summary = json.loads((tmp_path / "c3.json").read_text())
        assert summary["max_residual"] < 1e-10
        assert summary["oracle"] == "closed_form_h"

    def test_case_name_and_exponents(self, tmp_path):
        prefix = str(tmp_path / "c1")
        code = run(["regime", "--case", "negligible-gravity", "--beta", "0.5",
                    "--horizon", "5", "-o", prefix])
        assert code == 0
        summary = json.loads((tmp_path / "c1.json").read_text())
        assert summary["exponents"] == {"a": [1, 1], "b": [1, 2]}
        assert summary["max_residual"] < 1e-8

    def test_unknown_case_exits_2(self, tmp_path):
        assert run(["regime", "--case", "5", "--beta", "1",
                    "-o", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("bad_args", [["--case", "1", "--beta", "inf"],
                                          ["--case", "2", "--beta", "1", "--alpha", "2"],
                                          ["--case", "1", "--beta", "1", "--sample-step", "nan"],
                                          ["--case", "1", "--beta", "1", "--sample-step", "1e-15"],
                                          ["--case", "3", "--beta", "1", "--b-exponent", "nan"],
                                          ["--case", "3", "--beta", "1", "--b-exponent", "inf"],
                                          # a = 2b must lie in (0, 1)
                                          ["--case", "3", "--beta", "1", "--b-exponent", "0.5"],
                                          ["--case", "3", "--beta", "1", "--b-exponent=-0.1"],
                                          ["--case", "1", "--beta", "1", "--b-exponent", "0.3"],
                                          ["--case", "2", "--beta", "1", "--b-exponent", "0.25"],
                                          ["--case", "negligible-viscosity", "--beta", "1",
                                           "--b-exponent", "0.25"]])
    def test_out_of_range_input_exits_2(self, tmp_path, capsys, bad_args):
        code, err = run_rejected(["regime", *bad_args, "-o", str(tmp_path / "x")], capsys)
        assert code == 2
        assert err.startswith("configuration error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text,a,b", [("0.1", [1, 5], [1, 10]), ("0.125", [1, 4], [1, 8]),
                                          ("0.25", [1, 2], [1, 4])])
    def test_b_exponent_is_the_typed_decimal(self, tmp_path, text, a, b):
        prefix = str(tmp_path / "c3")
        assert run(["regime", "--case", "negligible-gravity-inertia", "--beta", "1",
                    "--horizon", "1", "--b-exponent", text, "-o", prefix]) == 0
        summary = json.loads((tmp_path / "c3.json").read_text())
        assert summary["case_name"] == "negligible-gravity-inertia"
        assert summary["exponents"] == {"a": a, "b": b}

    def test_horizon_above_the_cap_exits_2(self, tmp_path, capsys):
        code, err = run_rejected(["regime", "--case", "1", "--beta", "1", "--horizon", "1e300",
                                  "-o", str(tmp_path / "r")], capsys)
        assert code == 2
        assert err.startswith("configuration error: horizon:")
        assert list(tmp_path.iterdir()) == []

    def test_undamped_case4_at_the_horizon_cap(self, tmp_path):
        prefix = str(tmp_path / "c4")
        assert run(["regime", "--case", "4", "--beta", "1", "--alpha", "0.5",
                    "--horizon", repr(REGIME_HORIZON_CAP), "-o", prefix]) == 0
        summary = json.loads((tmp_path / "c4.json").read_text())
        assert summary["horizon"] == REGIME_HORIZON_CAP
        assert summary["oracle"] == "energy_drift"

    @pytest.mark.parametrize("run_args", [["--beta", "0.5"],
                                          ["--beta", "1", "--alpha", "1.2", "--horizon", "4"]])
    def test_case2_oracle_past_asymptote_exits_3(self, tmp_path, capsys, run_args):
        code, err = run_rejected(["regime", "--case", "2", *run_args,
                                  "-o", str(tmp_path / "c2")], capsys)
        assert code == 3
        assert "implicit_time oracle is not finite from t* = " in err

    @pytest.mark.parametrize("case,oracle", [("3", "closed_form_h")])
    def test_overflowing_run_exits_3_without_warnings(self, tmp_path, capsys, case, oracle):
        code, err = run_without_warnings(["regime", "--case", case, "--beta", "1e-308",
                                          "-o", str(tmp_path / "r")], capsys)
        assert code == 3
        # The first-step coefficients overflow: the dense output is NaN from s = 0.
        assert err == f"numeric failure: {oracle} oracle is not finite from t* = 0.0 (h* = nan)\n"

    @pytest.mark.parametrize("beta,horizon", [("1e-308", 20.0), ("1e-300", 1000.0)])
    def test_case1_at_a_vanishing_beta_keeps_a_finite_oracle(self, tmp_path, capsys, beta,
                                                             horizon):
        # u* = t*^2/2 to the last bit; t*/beta alone overflows, and the
        # closed form's two terms cancel to nothing.
        code, err = run_without_warnings(["regime", "--case", "1", "--beta", beta,
                                          "--horizon", repr(horizon),
                                          "-o", str(tmp_path / "r")], capsys)
        assert (code, err) == (0, "")
        summary = json.loads((tmp_path / "r.json").read_text())
        assert summary["max_residual"] <= 1e-14 * horizon**2


class TestVerifyCommand:
    def test_basin_filter(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run(["verify", "--only", "basin", "--output", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(report_path.read_text())
        names = [c["name"] for c in report["checks"]]
        assert "stability.basin_geometry" in names
        assert all("basin" in n for n in names)
        assert "PASS stability.basin_geometry" in out

    def test_failing_check_exits_4(self, monkeypatch, capsys):
        def doomed():
            raise verify.CheckFailure("synthetic failure")

        monkeypatch.setitem(verify.CHECKS, "synthetic.doomed", doomed)
        code = run(["verify", "--only", "synthetic.doomed"])
        assert code == 4
        assert "FAIL synthetic.doomed" in capsys.readouterr().out

    def test_unknown_filter_exits_2(self):
        assert run(["verify", "--only", "no-such-check"]) == 2


def readme_commands() -> list:
    """The argvs of the `washburn` lines in README's "Command line" block,
    comments stripped."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:] for line in block.splitlines()
            if line.startswith("washburn ")]


FULL_VERIFY = ["verify", "--output", "report.json"]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_the_readme_commands_exit_as_documented(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "water.json").write_text(json.dumps(WATER_JSON))
    monkeypatch.chdir(tmp_path)
    code = run(argv)
    out = capsys.readouterr().out
    if argv != FULL_VERIFY:
        assert code == 0
        return
    # The full sweep fails criterion 11 alone, as README's Verification says.
    assert code == 4
    report = json.loads((tmp_path / "report.json").read_text())
    failed = [check["name"] for check in report["checks"] if not check["passed"]]
    assert failed == ["acceptance.c11_convergence_to_equilibrium"]
    [fail] = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fail.startswith("FAIL acceptance.c11_convergence_to_equilibrium ")


def test_the_readme_block_holds_every_command():
    commands = [argv[0] for argv in readme_commands()]
    assert commands == ["nondim", "simulate", "picard", "classify", "basin", "regime",
                        "verify", "verify"]
    assert FULL_VERIFY in readme_commands()


EDGE_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e-300", "1e300")

# name: (base argv, numeric flags); each flag is appended with each edge
# value, and argparse keeps the last occurrence.
EDGE_TABLE = {
    "simulate": (["simulate", "--omega=1", "--beta=1", "--alpha=0", "--horizon=2"],
                 ["omega", "beta", "alpha", "epsilon", "horizon", "sample-step", "abs-tol",
                  "rel-tol"]),
    # gamma = 1e154: a dry start from rest takes one step to its default horizon.
    "simulate-extreme-damping": (["simulate", "--omega=1e-308", "--beta=1", "--alpha=0"],
                                 ["omega", "beta", "alpha", "epsilon", "horizon",
                                  "sample-step", "abs-tol", "rel-tol"]),
    "simulate-classify": (["simulate", "--omega=1", "--beta=1", "--alpha=1", "--horizon=2",
                           "--classify"],
                          ["omega", "beta", "alpha", "epsilon", "horizon", "sample-step",
                           "abs-tol", "rel-tol"]),
    "classify": (["classify", "--omega=1", "--beta=1", "--alpha=0", "--horizon=40"],
                 ["omega", "beta", "alpha", "horizon", "abs-tol", "rel-tol"]),
    "classify-at-equilibrium": (["classify", "--omega=1", "--beta=1", "--alpha=1",
                                 "--horizon=40"],
                                ["omega", "beta", "alpha", "horizon", "abs-tol", "rel-tol"]),
    **{f"regime{case}": (["regime", f"--case={case}", "--beta=1", "--horizon=2"],
                         ["beta", "alpha", "b-exponent", "horizon", "sample-step"])
       for case in (2, 3)},
    "picard": (["picard", "--omega=1", "--beta=1", "--alpha=0", "--horizon=1", "--step=0.01"],
               ["omega", "beta", "alpha", "horizon", "step", "tol", "max-iter"]),
    # c = sqrt(omega)/beta overflows to inf: the kernel is its limit s - t.
    "picard-undamped": (["picard", "--omega=1e300", "--beta=1e-300", "--alpha=0"], []),
    # beta t stays below 1e-296, where the case-1 closed form cancels to nothing.
    "regime1-tiny-beta": (["regime", "--case=1", "--beta=1e-300", "--horizon=1000"], []),
    # beta^2 overflows: the closed form's last term is its limit, 0.
    "regime1-huge-beta": (["regime", "--case=1", "--beta=1e155", "--horizon=1e-150"], []),
    "basin": (["basin", "--alpha=0"], ["alpha"]),
}


@pytest.mark.parametrize("base", [pytest.param(base, id=name)
                                  for name, (base, _) in EDGE_TABLE.items()])
def test_edge_table_base_argvs_exit_0(tmp_path, capsys, base):
    code, _ = run_without_warnings([*base, f"--output={tmp_path / 'run'}"], capsys)
    assert code == 0, base


@pytest.mark.parametrize("base,flag", [
    pytest.param(base, flag, id=f"{name}-{flag}")
    for name, (base, flags) in EDGE_TABLE.items() for flag in flags])
def test_edge_values_exit_with_a_documented_code(tmp_path, capsys, monkeypatch, base, flag):
    monkeypatch.setattr(_rk, "MAX_STEPS", 2**12)  # a stiff run spends it in milliseconds
    for i, value in enumerate(EDGE_VALUES):
        argv = [*base, f"--{flag}={value}", f"--output={tmp_path / f'run{i}'}"]
        code, _ = run_without_warnings(argv, capsys)
        assert code in (0, 2, 3, 4), argv


@pytest.mark.parametrize("base,dropped", [
    pytest.param(base, i, id=f"{name}-{base[i].lstrip('-').split('=')[0]}")
    for name, (base, _) in EDGE_TABLE.items() for i in range(1, len(base))])
def test_missing_flag_exits_with_a_documented_code(tmp_path, capsys, monkeypatch, base,
                                                   dropped):
    monkeypatch.setattr(_rk, "MAX_STEPS", 2**12)
    argv = [*base[:dropped], *base[dropped + 1:], f"--output={tmp_path / 'run'}"]
    code, _ = run_without_warnings(argv, capsys)
    assert code in (0, 2, 3, 4), argv


@pytest.mark.parametrize("argv,code,message", [pytest.param(*case, id=case[0][0]) for case in [
    (["simulate", "--omega", "1", "--beta", "1", "--alpha", "0", "--horizon", "1e-320"],
     2, "configuration error: horizon: "),
    # classify samples nothing: the run takes one step and has not settled.
    (["classify", "--omega", "1", "--beta", "1", "--alpha", "0", "--horizon", "1e-320"],
     3, "numeric failure: trajectory has not settled"),
    (["regime", "--case", "1", "--beta", "1", "--horizon", "1e-320"],
     2, "configuration error: horizon: "),
    (["picard", "--omega", "1", "--beta", "1", "--alpha", "0", "--horizon", "5e-324"],
     2, "configuration error: horizon: "),
]])
def test_horizon_too_small_for_its_default_step_names_horizon(tmp_path, capsys, argv, code,
                                                              message):
    # horizon/4096 underflows to 0, which a sampled run would otherwise
    # report as the sample step or the grid, keys the argv never passed.
    got, err = run_rejected([*argv, "--output", str(tmp_path / "run")], capsys)
    assert got == code
    assert err.startswith(message), err


def fresh(code: str, cwd=None) -> list:
    """What a fresh interpreter prints, one JSON value a line, when it runs
    code and then prints the sorted names in its sys.modules."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
                          check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def main_in_fresh(argv, cwd) -> tuple:
    """Exit code of `washburn ARGV` run in cwd by a fresh interpreter, and
    every module the interpreter holds after it."""
    code = ("import contextlib, io, json, washburn.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        code = washburn.cli.main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "print(json.dumps(code))")
    exit_code, modules = fresh(code, cwd)
    return exit_code, modules


def modules_after_cli_import():
    return fresh("import washburn.cli")[-1]


def test_cli_import_loads_no_scipy():
    assert [m for m in modules_after_cli_import() if m.split(".")[0] == "scipy"] == []


def test_cli_import_loads_no_verify():
    assert "washburn.verify" not in modules_after_cli_import()


@pytest.mark.parametrize("code", ["import washburn", "import washburn.cli"])
def test_import_loads_no_numpy(code):
    assert "numpy" not in fresh(code)[-1]


# The package modules (and fractions) each kind of run may load: a command
# imports what it runs and no more.
BASE = {"washburn", "washburn.cli", "washburn.errors", "washburn.params", "washburn._format"}
SOLVES = BASE | {"washburn.integrate", "washburn._rk", "washburn.dynamics"}
STABILITY = {"washburn.stability", "washburn.dynamics"}
REGIME = SOLVES | {"fractions"}

# Runs that load no numpy: the scalar commands, argvs the parameter checks
# refuse, and simulate, classify and regime, which solve on Python floats.
NUMPY_FREE_ARGVS = {  # name: (argv, exit code, modules)
    "nondim": (["nondim", "--input", "water.json"], 0, BASE),
    "basin": (["basin", "--alpha", "0.5", "--output", "basin.json"], 0, BASE | STABILITY),
    "help": (["--help"], 0, BASE),
    "version": (["--version"], 0, BASE),
    "simulate-missing-alpha": (["simulate", "--omega", "1", "--beta", "1", "-o", "run"], 2,
                               BASE),
    "classify-beta-2": (["classify", "--omega", "1", "--beta", "2", "--alpha", "0"], 2, BASE),
    "picard-alpha-9": (["picard", "--omega", "1", "--beta", "1", "--alpha", "9",
                        "-o", "pic"], 2, BASE),
    "regime-negative-beta": (["regime", "--case", "1", "--beta", "-1", "-o", "reg"], 2, REGIME),
    "regime-horizon-2e3": (["regime", "--case", "2", "--beta", "1", "--horizon", "2e3",
                            "-o", "reg"], 2, REGIME),
    "regime-sample-step": (["regime", "--case", "2", "--beta", "1", "--sample-step", "1e-12",
                            "-o", "reg"], 2, REGIME),
    "simulate": (["simulate", "--omega", "1", "--beta", "1", "--alpha", "0.5", "-o", "run"], 0,
                 SOLVES),
    "simulate-classify": (["simulate", "--omega", "1", "--beta", "1", "--alpha", "0.5",
                           "--classify", "-o", "run"], 0, SOLVES | STABILITY),
    "simulate-epsilon": (["simulate", "--omega", "1", "--beta", "1", "--alpha", "0",
                          "--epsilon", "1e-4", "-o", "run"], 0, SOLVES),
    "simulate-input": (["simulate", "--input", "water.json", "-o", "run"], 0, SOLVES),
    "classify": (["classify", "--omega", "0.5", "--beta", "0.5", "--alpha", "0"], 0,
                 SOLVES | STABILITY),
    "regime1": (["regime", "--case", "1", "--beta", "1", "--horizon", "1", "-o", "reg"], 0,
                REGIME),
    "regime2": (["regime", "--case", "2", "--beta", "0.7", "--alpha", "0.2", "--horizon", "4",
                 "-o", "reg"], 0, REGIME),
    "regime3": (["regime", "--case", "3", "--beta", "0.7", "--horizon", "5", "--sample-step",
                 "0.3", "-o", "reg"], 0, REGIME),
    "regime4": (["regime", "--case", "4", "--beta", "0.7", "--alpha", "0.5", "-o", "reg"], 0,
                REGIME),
    # The oracle fails: h* rounds to 1 mid-run, or the run starts above it.
    "regime2-past-asymptote": (["regime", "--case", "2", "--beta", "0.5", "-o", "reg"], 3,
                               REGIME),
    "regime2-above-asymptote": (["regime", "--case", "2", "--beta", "1", "--alpha", "1.2",
                                 "--horizon", "4", "-o", "reg"], 3, REGIME),
}


def package_modules(modules) -> set:
    """The washburn modules among the names in modules, and fractions if there."""
    return {m for m in modules if m.split(".")[0] == "washburn" or m == "fractions"}


@pytest.mark.parametrize("name", NUMPY_FREE_ARGVS)
def test_scalar_and_refused_runs_load_no_numpy(tmp_path, name):
    argv, exit_code, loaded = NUMPY_FREE_ARGVS[name]
    (tmp_path / "water.json").write_text(json.dumps(WATER_JSON))
    code, modules = main_in_fresh(argv, tmp_path)
    assert code == exit_code
    assert "numpy" not in modules
    # The records are NamedTuples and plain classes: importing dataclasses
    # would load inspect (with ast, dis and tokenize) too.
    assert "dataclasses" not in modules and "inspect" not in modules
    assert package_modules(modules) == loaded


def test_a_solving_run_loads_numpy(tmp_path):
    # Only picard: simulate, classify and regime solve on Python floats.
    argv = ["picard", "--omega", "1", "--beta", "1", "--alpha", "0.5", "--horizon", "1",
            "-o", "pic"]
    code, modules = main_in_fresh(argv, tmp_path)
    assert code == 0
    assert "numpy" in modules
    assert "dataclasses" not in modules  # numpy itself loads inspect
    assert package_modules(modules) == BASE | {"washburn.volterra"}


def test_no_package_module_loads_dataclasses():
    names = sorted(f"washburn.{path.stem}" for path in (SRC / "washburn").glob("*.py")
                   if path.stem != "__init__")
    assert "washburn.verify" in names
    modules = fresh("import " + ", ".join(names))[-1]
    assert set(names) <= set(modules)
    assert "dataclasses" not in modules
