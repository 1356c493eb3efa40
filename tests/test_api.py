"""The public API: ``entweave.__all__`` is what the package imports, and no
public callable of the library takes a dimension."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import entweave


def test_all_lists_every_imported_public_name():
    tree = ast.parse(Path(entweave.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    names = entweave.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert set(names) == public
    for name in names:
        assert hasattr(entweave, name), name


def _public_callables(mod):
    """Public functions and classes defined in ``mod``, and the public methods
    of each class; exceptions are left out, as they take only a message."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            yield name, obj
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # a classmethod's function
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_no_public_callable_takes_a_dimension():
    # every map is a qubit map and every pair state 4x4, so no public
    # function, class or method of the library layers takes a dimension or a
    # factor index; most qmath helpers are not in __all__, so the modules are
    # walked
    banned = {"d", "dims", "in_dim", "out_dim", "which"}
    seen = []
    for layer in ("qmath", "states", "entanglement", "channels", "continuous",
                  "optics"):
        mod = importlib.import_module(f"entweave.{layer}")
        for name, member in _public_callables(mod):
            params = set(inspect.signature(member).parameters)
            assert not params & banned, f"{layer}.{name} takes {sorted(params & banned)}"
            seen.append(f"{layer}.{name}")
    assert {"qmath.choi_matrices", "qmath.partial_transpose",
            "channels.QuantumChannel.from_kraus", "continuous.Liouvillian"} <= set(seen)


def test_readme_sketch_runs_as_documented():
    # README's library sketch is run statement by statement and each bare
    # expression kept by its source text, so a public name the package no
    # longer has, or a commented value that no longer holds, fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (sketch,) = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    namespace, values = {}, {}
    for node in ast.parse(sketch).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(sketch, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert values["eb_order(phi)"] == 2
    assert values["eb_length(line, 6.0)"] == pytest.approx(1.7739, abs=5e-5)
    assert values["eb_length(line, 6.0, 1e-4, profile)"] == pytest.approx(1.7739, abs=5e-5)
    concurrence, success = values["run_point(mprime_setup())"]
    assert concurrence == pytest.approx(0.0737, abs=5e-5)
    assert success == pytest.approx(1 / 8, abs=1e-12)
