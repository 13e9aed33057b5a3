"""Package layout: each private helper has one home and is not imported by
siblings, and all arithmetic is plain double precision."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "capsieve"


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
