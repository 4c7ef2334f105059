import os
import subprocess
import sys
from pathlib import Path

import pqossim


def test_import_does_not_load_scipy():
    # scipy is only needed by the k-d-tree chamfer path, which imports it lazily
    src = str(Path(pqossim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import pqossim, sys; assert not any(m.startswith('scipy') for m in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
