"""Tests start a process only where the process is what they test.

``test_bench_cli.run_main`` runs the CLI in the test's own process and
fails on any warning, where a fresh interpreter pays about half a
second of numpy and scipy imports.  So ``subprocess`` is used by four
probes alone: ``python -m fblsec`` once per exit code, and the import
cost check, which needs an interpreter that has imported nothing yet.
This reads every test module's syntax tree and names the functions that
use it.
"""

from conftest import REPO_ROOT
from test_kernel_sites import package_sites


def test_only_the_process_probes_start_a_process():
    assert package_sites("subprocess", REPO_ROOT / "tests") == {
        "test_bench_cli.TestSolve.test_module_entry_point",
        "test_bench_cli.TestSolve.test_module_exits_1_without_warnings",
        "test_bench_cli.TestSolve.test_module_exits_2_without_warnings",
        "test_import_cost."
        "test_import_loads_nothing_beyond_numpy_and_scipy_special",
    }
