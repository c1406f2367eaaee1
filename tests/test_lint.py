"""Static checks on the package source that need no external linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gamow_lab"
#: __init__.py imports to re-export, so it is not checked
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads, as 'line name'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{line} {name}" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def integration_rule_sources(path: Path) -> list[str]:
    """scipy.integrate imports and leggauss calls, as 'line name'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.startswith("scipy.integrate")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.integrate") or (
                    node.module == "scipy"
                    and any(a.name == "integrate" for a in node.names)):
                found.append(f"{node.lineno} {node.module}")
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if name == "leggauss":
                found.append(f"{node.lineno} leggauss")
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "quadrature.py"],
    ids=lambda p: p.name)
def test_integration_rules_come_from_quadrature(path):
    # every Gauss-Legendre rule and integrator lives in quadrature.py
    assert integration_rule_sources(path) == []
