"""The package's lazy exports, each probed in a fresh interpreter.

`washburn` resolves its exports on first use. `integrate` names both a
submodule and an exported function; loading the submodule must never
leave the module where the function belongs.
"""
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import washburn

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def fresh(code: str):
    """The JSON that code prints last, run in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("steps", [
    ["import washburn.verify"],
    ["import washburn.cli"],
    ["from washburn.integrate import CSV_HEADER"],
    ["washburn.integrate", "import washburn.verify"],
    ["washburn.integrate", "from washburn.integrate import CSV_HEADER"],
    [],
], ids=lambda steps: " then ".join(steps) or "nothing else")
def test_integrate_is_the_function_in_every_import_order(steps):
    code = "\n".join(["import json, sys, washburn", *steps,
                      "first, second = washburn.integrate, washburn.integrate",
                      "function = sys.modules['washburn.integrate'].integrate",
                      "print(json.dumps([first is function, second is function]))"])
    assert fresh(code) == [True, True]


def test_star_import_binds_every_export():
    code = ("import json\n"
            "from washburn import *\n"
            "import washburn\n"
            "missing = [n for n in washburn.__all__ if globals().get(n) is not getattr(washburn, n)]\n"
            "print(json.dumps([len(washburn.__all__), missing]))")
    assert fresh(code) == [48, []]


def test_every_export_is_listed_by_dir_before_first_use():
    code = ("import json, washburn\n"
            "print(json.dumps(sorted(set(washburn.__all__) - set(dir(washburn)))))")
    assert fresh(code) == []


def test_an_unknown_name_raises_attribute_error():
    code = ("import json, washburn\n"
            "try:\n"
            "    washburn.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(json.dumps(str(exc)))")
    assert fresh(code) == "module 'washburn' has no attribute 'no_such_name'"


def test_the_build_reads_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools marks `[tool.setuptools]` as beta
        config = pyprojecttoml.read_configuration(ROOT / "pyproject.toml")
    assert "version" in config["project"]["dynamic"]
    assert config["project"]["version"] == washburn.__version__


def library_use_snippet() -> str:
    """The python block under README's "Library use" heading."""
    section = (ROOT / "README.md").read_text().split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_readme_library_snippet_prints_what_its_comments_say():
    snippet = library_use_snippet()
    prints = [line for line in snippet.splitlines() if line.startswith("print(")]
    printed = []
    namespace = {"print": lambda *objs: printed.append(objs)}
    exec(snippet, namespace)
    assert len(printed) == len(prints) == 4
    (state, crossings), *_ = printed
    traj = namespace["traj"]
    assert isinstance(state, washburn.State)
    assert state == (float(traj.u[-1]), float(traj.v[-1]))
    assert abs(state.u - 0.5) < 1e-6 and abs(state.v) < 1e-6
    assert crossings == len(traj.crossings) > 0
    # Each commented line prints exactly its comment, its arguments joined
    # as `print` joins them.
    commented = [(" ".join(map(str, objs)), line.split("#", 1)[1].strip())
                 for line, objs in zip(prints, printed) if "#" in line]
    assert len(commented) == 3
    for text, comment in commented:
        assert text == comment
