"""No dead names in the package: each module-level function, class and
assigned name in src/washburn/*.py is read by package code (its own module
included), by the benchmark under perfbench/, or through
`washburn._EXPORTS`. verify's `check_*` and `acceptance_*` functions count
as read, since its registry collects them by prefix. Each method and
property of a class in the package is read as an attribute by package or
perfbench code. Dunder names are read by Python itself.

A name counts as read where it is loaded as a name, read as an attribute
of anything, or imported by name. This file parses the sources with `ast`
and imports neither the package nor perfbench."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "washburn"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def reads(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def attribute_reads(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def defines(tree: ast.Module):
    """The names a module's top-level statements bind by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def methods(tree: ast.Module):
    """The methods and properties that the body of each class in a module defines,
    as (class name, method name)."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield cls.name, node.name


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets):
            return {name for names in ast.literal_eval(node.value).values() for name in names}
    raise AssertionError("washburn/__init__.py has no _EXPORTS")


def registered(module: str, name: str) -> bool:
    return module == "verify" and name.startswith(("check_", "acceptance_"))


def test_every_module_level_name_is_read():
    trees = {path: parse(path) for path in READERS}
    read = set().union(*map(reads, trees.values())) | exports(trees[PACKAGE / "__init__.py"])
    unread = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in defines(trees[path])
              if not is_dunder(name) and name not in read and not registered(path.stem, name)]
    assert unread == []


def test_every_method_is_read_as_an_attribute():
    read = set().union(*(attribute_reads(parse(path)) for path in READERS))
    unread = [f"{path.stem}.{cls}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for cls, name in methods(parse(path))
              if not is_dunder(name) and name not in read]
    assert unread == []
