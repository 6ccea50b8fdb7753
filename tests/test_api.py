import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stefa

SUBMODULES = ("tensor", "sieve", "estimator", "prediction", "simlab", "cli")


def test_package_exports_resolve():
    for name in stefa.__all__:
        assert hasattr(stefa, name), f"stefa.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve_once(module):
    mod = importlib.import_module(f"stefa.{module}")
    exported = mod.__all__
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, f"stefa.{module}.__all__ lists missing {missing}"
    duplicates = sorted({name for name in exported if exported.count(name) > 1})
    assert not duplicates, f"stefa.{module}.__all__ repeats {duplicates}"


def test_numpy_only_paths_import_no_scipy():
    # a fresh interpreter: this one has scipy loaded by other tests
    code = """
import sys
import stefa, stefa.cli
from stefa import BasisSpec, build_design, fit_stefa
from stefa.simlab import SimConfig, generate
inst = generate(SimConfig(dims=(20, 20, 20), rank=2, alpha=1.0, j_star=3, seed=1))
designs = [build_design(x, BasisSpec(degree=3)) for x in inst.covariates]
fit_stefa(inst.observed, designs, ranks=(2, 2, 2))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
phi = build_design(inst.covariates[0], BasisSpec(family="bspline", degree=5)).phi
assert phi.shape == (20, 1 + 5 * inst.covariates[0].shape[1])
assert "scipy.interpolate" in sys.modules
"""
    src = str(Path(stefa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_every_private_module_level_name_is_used():
    # a private function, class or assigned name at the top of a module that
    # nothing in the package reads is dead code
    package = Path(stefa.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    defined = []
    used = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Store)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    dead = [f"{module}: {name}" for module, name in defined if name not in used]
    assert not dead, f"private names that nothing uses: {dead}"


def _is_property(node) -> bool:
    return any(getattr(d, "id", getattr(d, "attr", "")).endswith("property")
               for d in node.decorator_list)


def test_every_exported_function_is_called():
    # a function a submodule exports, or a public method of a class it
    # exports, that nothing in the package calls, other than itself, is a
    # second surface kept only for the tests; properties are read, not called
    package = Path(stefa.__file__).resolve().parent
    calls = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            scopes = [(getattr(top, "name", None), top)]
            if isinstance(top, ast.ClassDef):
                scopes = [(f"{top.name}.{getattr(member, 'name', '')}", member)
                          for member in top.body]
            for owner, scope in scopes:
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call):
                        func = node.func
                        name = getattr(func, "id", getattr(func, "attr", None))
                        calls.append((path.stem, owner, name))
    uncalled = []
    for module in SUBMODULES:
        exported = set(importlib.import_module(f"stefa.{module}").__all__)
        tree = ast.parse((package / f"{module}.py").read_text())
        public = []                 # (owner, name) of each function or method
        for node in tree.body:
            if getattr(node, "name", None) not in exported:
                continue
            if isinstance(node, ast.FunctionDef):
                public.append((node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                public += [(f"{node.name}.{m.name}", m.name) for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("_")
                           and not _is_property(m)]
        uncalled += [f"{module}: {owner}" for owner, name in public
                     if not any(callee == name and (caller, where) != (module, owner)
                                for caller, where, callee in calls)]
    assert not uncalled, \
        f"exported functions and methods that nothing calls: {uncalled}"


def test_readme_imports_name_exported_functions():
    # a name deleted from a module's __all__ leaves README's examples stale
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```\w*\n(.*?)^```", readme.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    statements = [match for block in blocks for match in re.findall(
        r"^from stefa\b[\w.]* import (?:\([^)]*\)|.*)$", block,
        flags=re.MULTILINE)]
    assert statements, "README shows no import from stefa"
    stale = []
    for statement in statements:
        node = ast.parse(statement).body[0]
        exported = importlib.import_module(node.module).__all__
        stale += [f"{node.module}.{alias.name}" for alias in node.names
                  if alias.name not in exported]
    assert not stale, f"README imports names that are not exported: {stale}"


def test_readme_python_blocks_run_in_order():
    # README's examples share their names (y, designs, fit, ranks), so they
    # run as one script on a small seeded draw; a changed signature fails here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 4
    inst = stefa.generate(stefa.SimConfig(dims=(30, 32, 34), rank=2, alpha=0.9,
                                          j_star=3, seed=26))
    x_new = np.random.default_rng(26).uniform(size=(5, 2))
    namespace = {"y": inst.observed, "x1": inst.covariates[0],
                 "x2": inst.covariates[1], "x_new": x_new}
    for block in blocks:
        exec(block, namespace)
    assert namespace["pred"].shape == (5, 32, 34)
    assert namespace["ranks"] == namespace["fit"].ranks
