"""The benchmark's tracer (perfbench/tracer.py) wraps library entry points by
name, such as ``treecore.generating_poly``, ``treecore.weight_census`` and
``halfmobile.hm_stats``.  Installing it in a fresh interpreter fails when one
of them is renamed or removed, so the library and the benchmark cannot drift
apart unnoticed.  The check only reads ``perfbench/``: no bytecode is written.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_library():
    code = "import sys; sys.path.insert(0, 'perfbench'); import tracer; tracer.install()"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
