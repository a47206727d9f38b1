"""Every code name the documentation points at is bound.

The docstrings of ``src/fblsec`` name private helpers in double
backticks (``_best_split``, ``_Objective.box``,
``lfp_model._link_pair``), and README.md names them as
``fblsec.<module>.<name>``.  A name that a change deletes or renames
leaves those mentions stale; this resolves each of them by import and
getattr, so a stale one fails the suite.
"""

import ast
import importlib
import re

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "fblsec"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__main__")
# ``_name``, ``_Name.attr`` or ``module.name`` (a module of the package)
DOC_NAME = re.compile(r"``((?:_|(?:%s)\.)[A-Za-z_][\w.]*)``"
                      % "|".join(MODULES))
README_NAME = re.compile(r"fblsec\.(%s)\.(\w+(?:\.\w+)*)" % "|".join(MODULES))


def module(name):
    return importlib.import_module(f"fblsec.{name}")


def bound(obj, dotted):
    """Whether every part of ``dotted`` resolves from ``obj``."""
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def resolves(name, home):
    """A docstring name of module ``home``: module-qualified names in
    their module, others in ``home`` or, failing that, in any module of
    the package (a docstring may name a helper of another module)."""
    first, _, rest = name.partition(".")
    if first in MODULES:
        return bound(module(first), rest)
    return any(bound(module(m), name) for m in [home] + MODULES)


def docstring_names():
    """(module, name) of every double-backticked name in a docstring."""
    out = []
    for stem in MODULES:
        tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node, clean=False) or ""
                out += [(stem, name) for name in DOC_NAME.findall(doc)]
    return out


def test_docstring_names_are_bound():
    names = docstring_names()
    assert len(names) > 50  # the scan finds the docstrings' names
    assert [(stem, name) for stem, name in names
            if not resolves(name, stem)] == []


def test_readme_names_are_bound():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    names = README_NAME.findall(text)
    assert names
    assert [f"{m}.{name}" for m, name in names
            if not bound(module(m), name)] == []


def test_a_stale_name_is_caught():
    assert not resolves("_best_redundancy", "solvers")
    assert not resolves("_Objective.nl", "solvers")
    assert not resolves("lfp_model._no_such_helper", "solvers")
    assert resolves("_Objective.box", "solvers")
    assert resolves("_hazard_balance", "solvers")
