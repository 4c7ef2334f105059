"""A training run killed with SIGKILL leaves no torn file under a final name.

Every output goes through `atomic_open`: a killed run may leave `<name>.tmp`
files, but any file under its final name must be whole. A whole file
equals the one an uninterrupted run writes, since runs are deterministic.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pqossim
from pqossim.cli import main
from pqossim.dqn import AgentConfig, DqnAgent
from pqossim.harness import FIGURE_FILES, read_records_csv

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")

COMMAND = ["train-offline", "--profile", "quick", "--episodes", "3"]
SRC = str(Path(pqossim.__file__).resolve().parents[1])

# The child runs the CLI with a `np.savez` that writes half the archive,
# flushes and hangs, so `checkpoint.npz.tmp` stays half written until the
# kill. `DqnAgent.save` looks `np.savez` up at call time.
CHILD = """
import io, sys, time
import numpy as np
from pqossim.cli import main

def half_savez(file, **arrays):
    whole = io.BytesIO()
    savez(whole, **arrays)
    file.write(whole.getvalue()[: len(whole.getvalue()) // 2])
    file.flush()
    time.sleep(600)

savez, np.savez = np.savez, half_savez
sys.exit(main(sys.argv[1:]))
"""


def _start(out: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, *COMMAND, "--out", str(out)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _kill_when(out: Path, ready, timeout_s: float = 60.0) -> bool:
    """Start a run, SIGKILL it once `ready(names in out)` holds; False if it ended or timed out first."""
    proc = _start(out)
    deadline = time.monotonic() + timeout_s
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            names = set(os.listdir(out)) if out.exists() else set()
            if ready(names):
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=10)
                return True
            time.sleep(0.005)
        return False
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _assert_whole_or_absent(out: Path, reference: Path) -> None:
    for name in os.listdir(out):
        if name.endswith(".tmp"):
            continue
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name
    if (out / "records.csv").exists():
        assert [len(rec.rows) for rec in read_records_csv(out / "records.csv")] == [200] * 3
    if (out / "checkpoint.npz").exists():
        got = DqnAgent.load(out / "checkpoint.npz", AgentConfig())
        want = DqnAgent.load(reference / "checkpoint.npz", AgentConfig())
        assert np.array_equal(got._params, want._params) and got.step_count == want.step_count


# (what the kill waits for, must a .tmp file be left behind)
KILL_POINTS = [
    ("mid-episode, after the resolved config", lambda names: "resolved_config.txt" in names, False),
    ("records.csv half written", lambda names: "records.csv.tmp" in names, True),
    ("between the CSVs and the checkpoint", lambda names: "records.csv" in names, False),
    ("checkpoint half written", lambda names: "checkpoint.npz.tmp" in names, True),
]


def test_killed_training_leaves_no_torn_file(tmp_path, capsys):
    reference = tmp_path / "reference"
    assert main([*COMMAND, "--out", str(reference)]) == 0
    capsys.readouterr()
    for i, (point, ready, leaves_tmp) in enumerate(KILL_POINTS):
        out = tmp_path / f"kill{i}"
        assert _kill_when(out, ready), f"no run was killed at: {point}"
        _assert_whole_or_absent(out, reference)
        assert not leaves_tmp or any(n.endswith(".tmp") for n in os.listdir(out)), point


def _lines(path: Path) -> int:
    try:
        with open(path, "rb") as fh:
            return sum(1 for _ in fh)
    except FileNotFoundError:  # the phase ended or failed between listdir and open
        return 0


def test_killed_mid_phase_leaves_no_final_csv(tmp_path):
    # records.csv.tmp grows while the phase runs; kill once it holds more
    # than one whole episode (a header, then 200 rows per episode)
    final = {"records.csv", "episodes.csv", *FIGURE_FILES}
    for attempt in range(4):
        out = tmp_path / f"kill-{attempt}"
        tmp = out / "records.csv.tmp"
        if _kill_when(out, lambda names: not names & final and _lines(tmp) > 1 + 200):
            break
    else:
        pytest.fail("no run was killed with more than one episode in records.csv.tmp")
    names = set(os.listdir(out))
    assert not names & final
    assert _lines(tmp) > 1 + 200
