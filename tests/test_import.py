import os
import subprocess
import sys
from pathlib import Path

import pqossim

SRC = str(Path(pqossim.__file__).resolve().parent.parent)

# a quick offline phase, a test phase and an export, each writing its figure CSVs
RUNS = """
import sys, tempfile
from pathlib import Path
from pqossim import cli
from pqossim.config import default_config
from pqossim.harness import run_offline_training, run_test
from pqossim.policies import DqlGreedyPolicy

config = default_config("quick")
config.run.offline_episodes = config.run.test_episodes = 1
with tempfile.TemporaryDirectory() as tmp:
    agent, _ = run_offline_training(config, Path(tmp, "off"))
    run_test(config, Path(tmp, "test"), DqlGreedyPolicy(agent.online), agent)
    assert cli.main(["export", "--records", str(Path(tmp, "test", "records.csv")), "--out", str(Path(tmp, "figs"))]) == 0
assert "numpy.ma" not in sys.modules, "a run loaded numpy.ma"
"""


def _run_child(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300)


def test_import_does_not_load_scipy():
    # scipy is only needed by the k-d-tree chamfer path, which imports it lazily
    _run_child("import pqossim, sys; assert not any(m.startswith('scipy') for m in sys.modules)")


def test_no_run_loads_numpy_ma():
    # numpy.ma is about 1 MB of a run's peak; np.percentile and np.median load it through np.unique
    _run_child(RUNS)
