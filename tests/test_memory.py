"""A phase's peak memory does not grow with its length.

Each period's rows go to disk as the period ends, and a record keeps only
its figure columns (16 B per vehicle-period), so a paper-length phase fits
in bounded memory: its figure pass adds one 8 B working column at a time.
The phases run in a child process, whose `ru_maxrss` is its own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pqossim

SRC = str(Path(pqossim.__file__).resolve().parents[1])

CHILD = """
import json, resource, sys, tempfile
from pqossim.config import default_config
from pqossim.harness import run_offline_training

peaks = []
for episodes in (2, 12):
    config = default_config("paper")
    config.sim.n_vehicles = 5
    config.agent.replay_capacity = 1000
    config.run.offline_episodes = episodes
    with tempfile.TemporaryDirectory() as out:
        run_offline_training(config, out)
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
print(json.dumps({"peaks": peaks, "rows": [e * config.sim.steps_per_episode * 5 for e in (2, 12)]}))
"""

# 16 B kept per row plus one 8 B working column at figure time; rows kept in
# memory take several hundred
MAX_BYTES_PER_ROW = 40


def test_peak_memory_is_flat_in_phase_length():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True, timeout=600
    )
    out = json.loads(result.stdout.splitlines()[-1])
    (short, long), (short_rows, long_rows) = out["peaks"], out["rows"]
    slope = (long - short) / (long_rows - short_rows)
    assert slope <= MAX_BYTES_PER_ROW, f"peak grew {slope:.0f} B per added vehicle-period ({short} -> {long} B)"
