"""Importing the package stays cheap.

``scipy.stats`` costs about as much to import as the rest of the
package together, and neither the solver nor the serving path needs
it, so only the functions that use it import it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_repro_leaves_scipy_stats_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys, repro, repro.core, repro.serve, repro.analysis.experiments\n"
        "print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False", out.stdout + out.stderr
