"""The link kernel is the one place that evaluates a link.

``lfp_model._link_pair`` is the only function of ``src/fblsec`` that
takes ``log_ndtr`` of a margin, and the margin expression
``fbl_core._margin`` is used only by it, by ``fbl_core.rate_margin`` and
by ``lfp_model.link_errors``.  A second copy of either would let the
value, the derivatives and the balance drift apart; this reads every
module's syntax tree and names the functions that use each of them.
"""

import ast

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "fblsec"


def use_sites(source, name):
    """The qualified names of the functions whose bodies use ``name``,
    or any alias an import binds to it, as a plain name or an
    attribute; "<module>" for a use outside every function."""
    tree = ast.parse(source)
    aliases = {name} | {alias.asname for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)
                        for alias in node.names
                        if alias.name == name and alias.asname}
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = child.name if scope == "<module>" \
                    else f"{scope}.{child.name}"
                visit(child, inner)
                continue
            if ((isinstance(child, ast.Name) and child.id in aliases)
                    or (isinstance(child, ast.Attribute)
                        and child.attr in aliases)):
                sites.add(scope)
            visit(child, scope)

    visit(tree, "<module>")
    return sites


def package_sites(name, directory=SRC):
    """``use_sites`` of ``name`` in every module of ``directory``, as
    "module.function"."""
    return {f"{path.stem}.{site}" for path in sorted(directory.glob("*.py"))
            for site in use_sites(path.read_text(encoding="utf-8"), name)}


def test_log_ndtr_is_taken_in_the_link_kernel_alone():
    assert package_sites("log_ndtr") == {"lfp_model._link_pair"}


def test_margin_is_evaluated_in_three_places():
    assert package_sites("_margin") == {
        "fbl_core.rate_margin", "lfp_model._link_pair",
        "lfp_model.link_errors"}


def test_a_second_site_is_caught():
    source = '''
from scipy.special import log_ndtr as lnd
from scipy import special


def kernel(w):
    return lnd(w)


class Model:
    def value(self, w):
        return special.log_ndtr(-w)


def passes(f=lnd):
    def inner(w):
        return map(lnd, w)
    return inner
'''
    assert use_sites(source, "log_ndtr") == {
        "kernel", "Model.value", "passes", "passes.inner"}
