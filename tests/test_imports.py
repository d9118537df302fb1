"""No module imports a name it never uses.

The repository configures no linter, so this test is the check: every
name bound by an import in ``src/spectracon``, ``tests/`` and ``scripts/``
must be referenced in its module.  Package ``__init__`` files are exempt,
since their imports are the package's re-exports.
"""

import ast
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
