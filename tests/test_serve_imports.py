"""The serve path never imports ``scipy.stats``.

Importing it costs every server and shard process about a second and
tens of MiB; the p-values come from ``scipy.special`` instead.  A fresh
interpreter is the only honest probe (this one has imported everything
the other tests use).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SERVE_PATH = ("repro.app.cli", "repro.service", "repro.gateway",
              "repro.runtime.executors.process")


def test_serve_path_does_not_import_scipy_stats():
    probe = "; ".join([f"import {module}" for module in SERVE_PATH] + [
        "import sys",
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "[]", out.stdout
