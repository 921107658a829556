import os
import subprocess
import sys
from pathlib import Path

import brauergraph


def test_combinatorial_layer_does_not_import_the_oracle():
    """``import brauergraph`` in a fresh interpreter loads no oracle module."""
    src = str(Path(brauergraph.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, brauergraph; "
            "print(sorted(m for m in sys.modules if m.startswith('brauergraph.oracle')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
