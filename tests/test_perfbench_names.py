"""The benchmark under perfbench/ reaches the program by name, and the traced
run (`--trace 1`) that reaches most of those names runs in no test. So this
file parses perfbench/*.py with `ast`, imports none of it, and resolves
every washburn name it reads: a rename in the package fails here rather
than in the next benchmark run."""
import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

from washburn import verify

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(BENCH.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def literal(tree: ast.Module, name: str):
    """The literal value a top-level assignment gives name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no top-level {name}")


def dotted(node) -> str | None:
    """"a.b.c" for a Name or a chain of Attributes on one, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


class Names:
    """The washburn modules a file binds to names, file-wide: `import
    washburn[.x] [as y]`, `from washburn[.x] import y [as z]`, `self.y =
    <bound name>` and `importlib.import_module("washburn.x")`."""

    def __init__(self, tree: ast.Module):
        self.bound: dict[str, ModuleType] = {}
        self.problems: list[str] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "washburn":
                        module = importlib.import_module(alias.name)
                        if alias.asname:
                            self.bound[alias.asname] = module
                        else:
                            self.bound["washburn"] = importlib.import_module("washburn")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] \
                    == "washburn":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):
                        self.problems.append(f"from {node.module} import {alias.name}")
                        continue
                    value = getattr(module, alias.name)
                    if isinstance(value, ModuleType):
                        self.bound[alias.asname or alias.name] = value
        for node in ast.walk(tree):  # self.y = x, once x is bound
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) \
                    and node.value.id in self.bound:
                for target in node.targets:
                    if dotted(target):
                        self.bound[dotted(target)] = self.bound[node.value.id]

    def resolve(self, node):
        """The object node names, or None when it is not read off a bound module."""
        if isinstance(node, ast.Call) and dotted(node.func) == "importlib.import_module" \
                and node.args and isinstance(node.args[0], ast.Constant) \
                and str(node.args[0].value).split(".")[0] == "washburn":
            return importlib.import_module(node.args[0].value)
        name = dotted(node)
        if name in self.bound:
            return self.bound[name]
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if isinstance(base, ModuleType):
                return getattr(base, node.attr, None)
        return None


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_washburn_name_the_benchmark_reads_resolves(path):
    tree = parse(path)
    names = Names(tree)
    missing = list(names.problems)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = names.resolve(node.value)
            if isinstance(base, ModuleType) and not hasattr(base, node.attr):
                missing.append(f"{base.__name__}.{node.attr} (line {node.lineno})")
    assert missing == []


def test_the_guard_sees_the_names_it_guards():
    tree = parse(BENCH / "probe.py")
    names = Names(tree)
    read = set()
    for node in ast.walk(tree):
        base = names.resolve(node.value) if isinstance(node, ast.Attribute) else None
        if isinstance(base, ModuleType):
            read.add(f"{base.__name__}.{node.attr}")
    assert {"washburn.dynamics.case1_closed_form_u", "washburn.stability.lyapunov_columns",
            "washburn.volterra.KernelOperator", "washburn.verify.CHECKS",
            "washburn.integrate"} <= read


def test_the_benchmark_names_verify_checks_that_exist():
    probe, checks = parse(BENCH / "probe.py"), parse(BENCH / "checks.py")
    assert literal(checks, "C11_NAME") in verify.CHECKS
    for name in literal(probe, "VERIFY_SINGLES").values():
        assert name in verify.CHECKS
    argv = literal(probe, "CLI_VERIFY_ARGV")
    assert argv[argv.index("--only") + 1] in verify.CHECKS
    for group in literal(probe, "VERIFY_GROUPS"):
        assert any(name.startswith(group + ".") for name in verify.CHECKS), group
