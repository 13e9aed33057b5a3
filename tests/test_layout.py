"""Package layout: each private helper has one home and is not imported by
siblings, every exported name is used by the program, and all arithmetic is
plain double precision."""

import ast
import re
from pathlib import Path

import capsieve

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "capsieve"


def _private_sibling_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                name = alias.name
                dunder = name.startswith("__") and name.endswith("__")
                if name.startswith("_") and not dunder:
                    found.append(f"{path.name}:{node.lineno}: "
                                 f"from .{node.module} import {name}")
    return found


def test_no_private_names_imported_from_siblings():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no modules found under {SRC}"
    offenders = [hit for path in modules for hit in _private_sibling_imports(path)]
    assert offenders == []


def test_plain_double_precision():
    # extended precision is 80-bit on some platforms and 64-bit on others
    offenders = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
                 for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if "longdouble" in line or "float128" in line]
    assert offenders == []


def _loaded_names(path: Path) -> set[str]:
    """Names read in a Python file, as bare names or as attributes."""
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def test_every_export_is_used_by_the_program():
    # used in the package (a definition or a re-export is no use), by the
    # benchmark or in the README's Python usage block; the tests do not count
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used = {w for block in re.findall(r"```python\n(.*?)```", readme, re.S)
            for w in re.findall(r"\w+", block)}
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        used |= _loaded_names(path)
    assert sorted(set(capsieve.__all__) - used) == []


def test_readme_usage_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    scope = {}
    exec(block, scope)
    assert scope["cs"].t2_constant(scope["s2"], 0, 0.0) == 2.0


def test_module_exports_are_defined_in_the_module():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # the package re-exports the modules' names
            continue
        body = ast.parse(path.read_text(encoding="utf-8")).body
        defined = {node.name for node in body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {t.id for node in body if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    if isinstance(t, ast.Name)}
        for node in body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                offenders += [f"{path.name}: {name}" for name in ast.literal_eval(node.value)
                              if name not in defined]
    assert offenders == []
