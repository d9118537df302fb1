"""The public surface: the README quick start runs as written, and no
public function takes open-ended options.

The solver and search settings are module constants; a ``**kwargs``
pass-through would let callers set them again, one function at a time.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import spectracon
from spectracon.sdpcore import solve

README = Path(__file__).resolve().parents[1] / "README.md"


def _modules():
    for info in pkgutil.iter_modules(spectracon.__path__):
        if not info.name.startswith("_"):
            yield importlib.import_module(f"spectracon.{info.name}")


def _public_functions():
    """(qualified name, function) for every public function and method."""
    seen = {}
    roots = [(f"spectracon.{name}", getattr(spectracon, name))
             for name in spectracon.__all__]
    for mod in _modules():
        roots += [(f"{mod.__name__}.{name}", obj)
                  for name, obj in vars(mod).items() if not name.startswith("_")]
    for qual, obj in roots:
        if inspect.isclass(obj):
            for name, member in vars(obj).items():
                if inspect.isfunction(member) and not name.startswith("_"):
                    seen[id(member)] = (f"{qual}.{name}", member)
        elif inspect.isfunction(obj):
            seen[id(obj)] = (qual, obj)
    return [(qual, fn) for qual, fn in seen.values()
            if fn.__module__.startswith("spectracon")]


def test_no_public_function_takes_kwargs():
    functions = _public_functions()
    assert len(functions) > 50
    open_ended = [qual for qual, fn in functions
                  if any(p.kind is inspect.Parameter.VAR_KEYWORD
                         for p in inspect.signature(fn).parameters.values())]
    assert open_ended == []


def test_settable_values_do_not_grow():
    """Every parameter with a default, and every ``**kwargs``, is a value a
    caller can set; their number over the public functions may only fall."""
    settable = [(qual, p.name) for qual, fn in _public_functions()
                for p in inspect.signature(fn).parameters.values()
                if p.default is not inspect.Parameter.empty
                or p.kind is inspect.Parameter.VAR_KEYWORD]
    assert len(settable) <= 62


def test_solve_takes_only_the_problem():
    assert list(inspect.signature(solve).parameters) == ["problem"]


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("Certified")
    assert "Refuted" in out
