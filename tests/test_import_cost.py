"""``import fblsec`` loads no module beyond what numpy and scipy.special
load.

The package's import is most of a fresh process's set-up time (the CLI's
and the benchmark's alike), so a module it pulls in on top of numpy and
scipy.special, such as ``scipy.optimize`` or ``scipy.stats``, is paid on
every start.  The check runs in a fresh interpreter, where no other test
has imported anything yet.
"""

import subprocess
import sys

# Prints the modules that ``import fblsec`` adds, its own excepted.
PROBE = """
import sys
import numpy, scipy.special
before = set(sys.modules)
import fblsec
print(*sorted(m for m in set(sys.modules) - before
              if m != "fblsec" and not m.startswith("fblsec.")))
"""


def test_import_loads_nothing_beyond_numpy_and_scipy_special():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == []
