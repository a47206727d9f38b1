"""The link kernel is the one place that evaluates a link, and BCD and
MM have one stopping rule.

``lfp_model._link_pair`` is the only function of ``src/fblsec`` that
takes ``log_ndtr`` of a margin, and the margin expression
``fbl_core._margin`` is used only by it, by ``fbl_core.rate_margin`` and
by ``lfp_model.link_errors``.  A second copy of either would let the
value, the derivatives and the balance drift apart.  Every search of
BCD and MM ends on the one step rule ``solvers._step_done``, the only
reader of its tolerance ``_BLOCK_TOL``, and the descent and MM's passes
on ``solvers._stopped``, the only reader of ``_REL_TOL``; no solver
function takes a tolerance of its own.  Both directions are laid out
for a vector pass in one place, ``solvers._both``, the only reader of
``_directions`` besides the tables' re-index of the entries that have
a box.  This reads every module's syntax tree and names the functions
that use each of them.
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


def test_each_tolerance_is_read_by_its_rule_alone():
    # "<module>" is the constant's own definition
    assert package_sites("_BLOCK_TOL") == {"solvers.<module>",
                                           "solvers._step_done"}
    assert package_sites("_REL_TOL") == {"solvers.<module>",
                                         "solvers._stopped"}


def test_both_directions_are_laid_out_in_one_place():
    assert package_sites("_directions") == {"solvers._both",
                                            "solvers._direction_tables"}


def test_no_solver_function_takes_a_tolerance():
    tree = ast.parse((SRC / "solvers.py").read_text(encoding="utf-8"))
    parameters = {arg.arg for node in ast.walk(tree)
                  if isinstance(node, ast.arguments)
                  for arg in (*node.posonlyargs, *node.args,
                              *node.kwonlyargs)}
    assert "x" in parameters
    assert not parameters & {"atol", "rtol"}
    assert not package_sites("atol") | package_sites("rtol")


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
