"""The solver's contract, read from the source: ``solve`` reports every
outcome as a status and raises nothing of its own, so no caller needs to
catch ``NumericalFailure`` around it.  ``SdpSolution.reliable`` is the one
place a solve is judged.
"""

import ast
from pathlib import Path

import spectracon

SRC = Path(spectracon.__file__).resolve().parent

# handlers that would catch NumericalFailure
_CATCHERS = {"NumericalFailure", "SpectraconError", "Exception", "BaseException"}


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _is_solve_call(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return ((isinstance(func, ast.Name) and func.id == "solve")
            or (isinstance(func, ast.Attribute) and func.attr == "solve"))


def _caught_names(handler):
    if handler.type is None:
        return {"BaseException"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id if isinstance(t, ast.Name) else getattr(t, "attr", "") for t in types}


def test_no_handler_around_solve_catches_numerical_failure():
    calls = 0
    offenders = []
    for name, tree in _modules().items():
        calls += sum(_is_solve_call(node) for node in ast.walk(tree))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Try):
                continue
            if not any(_is_solve_call(n) for stmt in node.body for n in ast.walk(stmt)):
                continue
            for handler in node.handlers:
                if _caught_names(handler) & _CATCHERS:
                    offenders.append(f"{name}:{handler.lineno}")
    # probe, cp_sdfp, both boundedness searches, circumradius, moment, sos
    assert calls >= 7
    assert offenders == []


def test_solve_has_no_raise():
    tree = _modules()["sdpcore.py"]
    solve = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "solve")
    raises = [node.lineno for node in ast.walk(solve) if isinstance(node, ast.Raise)]
    assert raises == []
