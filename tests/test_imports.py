"""No module imports a name it never uses, and importing the package stays light.

The repository configures no linter, so this test is the check: every
name bound by an import in ``src/spectracon``, ``tests/`` and ``scripts/``
must be referenced in its module.  Package ``__init__`` files are exempt,
since their imports are the package's re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for p in [*(ROOT / "src" / "spectracon").glob("*.py"),
                           *(ROOT / "tests").glob("*.py"),
                           *(ROOT / "scripts").glob("*.py")]
               if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import of ``source`` that nothing else references."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names exported through __all__ count as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(set(bound) - used)


def test_check_sees_unused_names():
    src = "import math\nimport numpy as np\nfrom os import path, sep\nprint(np.pi, sep)\n"
    assert unused_imports(src) == ["math", "path"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _run_in_package(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter on ``src``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_package_import_leaves_scipy_optimize_out():
    # no module of the package uses scipy.optimize (next two tests)
    code = "import sys, spectracon; print('scipy.optimize' in sys.modules)"
    assert _run_in_package(code).strip() == "False"


def test_a_full_refutation_search_leaves_scipy_optimize_out():
    # disk 0.9 is contained but its order-2 bound is negative, so the
    # verdict walks and polishes before it gives up
    code = """
import sys
from spectracon import check_containment
from spectracon.families import disk_pair
v = check_containment(*disk_pair(0.9))
print(v.status, v.details["note"], sep="|")
print("scipy.optimize" in sys.modules)
"""
    verdict, loaded = _run_in_package(code).strip().splitlines()
    assert verdict == "Inconclusive|negative bound without a confirmed point"
    assert loaded == "False"


def imports_scipy_optimize(source: str) -> bool:
    """Whether ``source`` imports scipy.optimize, a submodule or a name of it."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
    return any(n == "scipy.optimize" or n.startswith("scipy.optimize.") for n in names)


def test_check_sees_scipy_optimize_imports():
    for src in ("import scipy.optimize\n", "from scipy import optimize\n",
                "from scipy.optimize import minimize\n",
                "def f():\n    from scipy import optimize as o\n"):
        assert imports_scipy_optimize(src)
    assert not imports_scipy_optimize("import scipy.linalg\nfrom scipy import sparse\n")


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "spectracon").glob("*.py")),
                         ids=lambda p: p.name)
def test_package_never_imports_scipy_optimize(path):
    assert not imports_scipy_optimize(path.read_text())
