"""Static checks on the package source that need no external linter."""

import ast
import importlib
import os
import re
import subprocess
import sys
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


def unused_parameters(path: Path) -> list[str]:
    """Function parameters (other than self and cls) that the function's
    body never reads, as 'line function.name'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        used = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        found += [f"{node.lineno} {node.name}.{p.arg}" for p in params
                  if p.arg not in ("self", "cls") and p.arg not in used]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path) == []


def top_level_names(path: Path) -> set[str]:
    """Names a module defines at its top level (not the ones it imports)."""
    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return found


def unread_private_names() -> list[str]:
    """Top-level _names of the package's modules that no package source
    reads, as 'module.name'."""
    defined, read = [], set()
    for path in SRC.glob("*.py"):
        defined += [f"{path.stem}.{n}" for n in top_level_names(path)
                    if n.startswith("_") and not n.endswith("__")]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(n for n in defined if n.split(".", 1)[1] not in read)


def test_no_unread_private_names():
    # a deleted routine leaves no private helper or constant behind
    assert unread_private_names() == []


def private_imports(path: Path) -> list[str]:
    """Private names a module imports from another package module, as
    'line module.name' (relative imports, or absolute ones of gamow_lab)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not (
                node.level or (node.module or "").split(".")[0]
                == "gamow_lab"):
            continue
        found += [f"{node.lineno} {node.module}.{alias.name}"
                  for alias in node.names if alias.name.startswith("_")
                  and not alias.name.endswith("__")]
    return found


def test_no_private_imports_across_modules():
    # a name another module needs is public in the module that owns it
    assert [f"{p.name}:{line}" for p in SRC.glob("*.py")
            for line in private_imports(p)] == []


def unraised_exceptions() -> list[str]:
    """Classes of exceptions.py, GamowLabError aside, that no raise
    statement in the package names."""
    tree = ast.parse((SRC / "exceptions.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, ast.ClassDef)} - {"GamowLabError"}
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc,
                                                  ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    return sorted(defined - raised)


def test_every_exception_is_raised():
    # a deleted failure path leaves no exception type behind
    assert unraised_exceptions() == []


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


def _dataclass_defaults(node: ast.ClassDef) -> list[str]:
    """Settable fields of a dataclass that have a default."""
    if not any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list):
        return []
    found = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and item.value is not None
                and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id",
                                                   None) == "field":
            kw = {k.arg: k.value for k in value.keywords}
            settable = not (isinstance(kw.get("init"), ast.Constant)
                            and kw["init"].value is False)
            if not (settable and ("default" in kw or "default_factory" in kw)):
                continue
        found.append(item.target.id)
    return found


def defaulted_parameters(path: Path) -> set[str]:
    """Every knob with a default, as 'module:qualname.name': function
    parameters (positional or keyword-only) and settable dataclass fields
    (an ``init=False`` field is not settable)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                names = [p.arg for p in positional[len(positional)
                                                   - len(a.defaults):]]
                names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
                found.update(f"{prefix}{child.name}.{n}" for n in names)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                found.update(f"{prefix}{child.name}.{n}"
                             for n in _dataclass_defaults(child))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, f"{path.stem}:")
    return found


#: every defaulted parameter and settable defaulted dataclass field in the
#: package; a new knob needs an entry here
KNOBS = {
    "cli:main.argv",
    "decay_analysis:nonescape_curve.policy",
    "profiles:parse_profile.a",
}


def test_knob_census():
    found = set().union(*(defaulted_parameters(p) for p in MODULES))
    assert found == KNOBS


def width_reads(path: Path) -> list[str]:
    """Reads of an attribute named ``a`` (the well width), as 'line'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [str(node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "a"]


def test_width_read_only_by_cli():
    # the library works in units of the well width; only the CLI scales
    # its inputs and outputs by --width
    assert {p.name: width_reads(p) for p in SRC.glob("*.py")
            if p.name != "cli.py" and width_reads(p)} == {}


def profile_rule_reads(path: Path) -> list[str]:
    """Reads of an attribute named ``coef`` or ``nodes`` (a profile's
    rule), as 'line name'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{node.lineno} {node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("coef", "nodes")]


def test_profile_rule_read_only_by_profiles():
    # phi has one implementation, overlap_transform's closed forms; the
    # profile rule serves first_moment and the norm check alone
    assert {p.name: profile_rule_reads(p) for p in SRC.glob("*.py")
            if p.name != "profiles.py" and profile_rule_reads(p)} == {}


#: the route switch between direct and rotated times, and the rotated
#: route's type and time blocks
ROUTE_NAMES = {"DIRECT_TIME_LIMIT", "TIME_BLOCK", "RotatedExpansion"}


def route_reads(path: Path) -> list[str]:
    """Uses of a ROUTE_NAMES name (read, import or assignment), as
    'line name'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"{node.lineno} {n}" for n in names if n in ROUTE_NAMES]
    return found


def test_route_switch_read_only_by_gamow_expansion():
    # gamow_expansion.evolve alone picks each time's route and builds the
    # rotated route's expansion
    assert {p.name: route_reads(p) for p in MODULES
            if p.name != "gamow_expansion.py" and route_reads(p)} == {}


#: standard-library packages that start threads or processes
CONCURRENCY = {"threading", "concurrent", "multiprocessing"}


def concurrency_imports(path: Path) -> list[str]:
    """Imports of a CONCURRENCY package or module, as 'line module'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        found += [f"{node.lineno} {n}" for n in names
                  if n.split(".")[0] in CONCURRENCY]
    return found


def test_threads_start_only_in_spectral_evolution():
    # spectral_evolution._ordered_map is the one place that starts
    # threads, and it uses plain threading
    assert {p.name: concurrency_imports(p) for p in MODULES
            if p.name != "spectral_evolution.py"
            and concurrency_imports(p)} == {}
    assert [line.split()[1] for line in concurrency_imports(
        SRC / "spectral_evolution.py")] == ["threading"]


#: the pole table, its one entry point and its cutoffs
POLE_NAMES = {"DEFAULT_KMAX", "MAX_POLES", "Poles", "enumerate_poles",
              "pole_cutoff"}


def pole_imports(path: Path) -> list[str]:
    """Imports of a POLE_NAMES name from anywhere but .potential_model, as
    'line module.name'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{node.lineno} {'.' * node.level}{node.module}.{alias.name}"
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level, node.module) != (1, "potential_model")
            for alias in node.names if alias.name in POLE_NAMES]


def test_pole_tables_come_from_potential_model():
    # enumerate_poles memoizes the one table every route reads, and
    # potential_model owns the cutoffs that pick its poles
    assert {p.name: pole_imports(p) for p in SRC.glob("*.py")
            if pole_imports(p)} == {}


def test_readme_names_resolve():
    # every `module.name` the README cites is defined in that module, and
    # each further `.attr` resolves on it
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    missing = []
    for ref in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`",
                                     readme))):
        stem, name, *rest = ref.split(".")
        path = SRC / f"{stem}.py"
        if path not in MODULES:
            continue
        obj = importlib.import_module(f"gamow_lab.{stem}")
        for part in [name, *rest]:
            obj = getattr(obj, part, missing)
        if name not in top_level_names(path) or obj is missing:
            missing.append(ref)
    assert missing == []


#: every name gamow_lab/__init__.py re-exports; a new export needs an
#: entry here
EXPORTED = {
    # exceptions
    "CountMismatch", "GamowLabError", "GridTooCoarse", "NoCrossing",
    "PoleProximity", "QuadratureNotConverged", "SeedOutOfRegime",
    "WindowBeforeCrossover", "WindowTooSmall", "WrongQuadrant",
    # potential_model
    "Poles", "WellParameters", "coefficient_A", "coefficient_A_bar",
    "coefficient_B", "enumerate_poles", "refine_pole",
    # profiles
    "InitialProfile", "box_mode", "overlap_transform",
    "parse_profile", "truncated_gaussian",
    # spectral_evolution
    "WaveState", "evolve_direct", "spectral_tail_mass", "unitarity_audit",
    # gamow_expansion
    "Residues", "RotatedExpansion", "asymptotic_background",
    "background_integral", "crossover_time", "evolve_rotated",
    "integrand_f", "nonescape_asymptote", "verify_residue",
    # decay_analysis
    "DecayCurve", "RegimeReport", "fit_exponential", "fit_tail_exponent",
    "flux_derivative", "geometric_times", "nonescape_curve",
    "regime_report",
}


def test_export_census():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert len(imported) == len(set(imported))
    assert set(imported) == EXPORTED


def heavy_modules_after(code: str) -> str:
    """The sorted list of scipy and numpy.ma modules loaded once ``code``
    has run in a fresh interpreter."""
    code += ("\nimport sys\nprint(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy' "
             "or m == 'numpy.ma' or m.startswith('numpy.ma.')))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


def test_cli_import_leaves_out_scipy():
    # scipy's import would be most of every command's start-up; only
    # sici (direct psi at t = 0) loads it, on first use
    assert heavy_modules_after("import gamow_lab.cli") == "[]"


def test_job_paths_leave_out_scipy_and_numpy_ma():
    # one small job per route: regime analysis (both crossings), the
    # direct route (merged panel edges) and the audit (its FFTs), for a
    # box mode and for a Gaussian (its Faddeeva w is numpy's, not
    # scipy.special.wofz)
    code = """
import gamow_lab.cli
import numpy as np
from gamow_lab import (WellParameters, evolve_direct, parse_profile,
                       regime_report, unitarity_audit)
w, p = WellParameters(10.0), parse_profile("box:1")
regime_report(p, w)
evolve_direct(p, 0.05, np.linspace(0.0, 1.0, 65), w)
unitarity_audit(p, 1.0, w)
g = parse_profile("gauss:0.5,0.06")
evolve_direct(g, 0.05, np.linspace(0.0, 1.0, 65), w)
unitarity_audit(g, 1.0, w)
"""
    assert heavy_modules_after(code) == "[]"
