"""Every library name the benchmark's tracer instruments is bound.

``benchmarks/tracing.py`` wraps each (module, attribute) of its
``LIBRARY_CALL_SITES`` with getattr/setattr, so a traced benchmark run
fails when a name there is no longer bound.  This reads the table from
the file's source, without importing or changing it, so that removing a
traced name fails the test suite too.
"""

import ast
import importlib

import pytest

from conftest import REPO_ROOT

TRACING = REPO_ROOT / "benchmarks" / "tracing.py"


def module_constant(name):
    """The literal value assigned to ``name`` at the top of tracing.py."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {TRACING}")


@pytest.mark.parametrize("module, attr", [
    site[:2] for site in module_constant("LIBRARY_CALL_SITES")])
def test_traced_name_is_bound(module, attr):
    assert hasattr(importlib.import_module(f"fblsec.{module}"), attr)


def test_cli_method_table_is_bound():
    module, attr = module_constant("CLI_METHOD_TABLE")
    assert isinstance(getattr(importlib.import_module(f"fblsec.{module}"),
                          attr), dict)
