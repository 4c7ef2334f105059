"""The benchmark's cell watcher reads env counters it cannot check itself.

`benchmarks/checks.py`'s `EnvWatch` looks up `queued_packets`, the
`total_*` packet counters and `scheduler_idle_violations` by name on every
env a run builds; a rename or removal would leave it behind.
"""

import importlib.util
import sys
from pathlib import Path

from pqossim.config import default_config
from pqossim.env import NetworkEnv
from pqossim.harness import run_test
from pqossim.policies import ConstantPolicy

_CHECKS = Path(__file__).resolve().parent.parent / "benchmarks" / "checks.py"


def _run_quick_test(out):
    config = default_config("quick")
    config.sim.n_vehicles = 5
    config.sim.episode_duration_s = 2.0
    config.run.test_episodes = 2
    run_test(config, out, ConstantPolicy(1450))


def test_the_benchmark_watcher_checks_every_episode(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_checks", _CHECKS)
    checks = importlib.util.module_from_spec(spec)
    # its dataclasses look their own module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, checks)
    spec.loader.exec_module(checks)
    # the watcher wraps NetworkEnv.reset; this puts the original back afterwards
    monkeypatch.setattr(NetworkEnv, "reset", NetworkEnv.reset)
    watch = checks.EnvWatch(NetworkEnv)

    _run_quick_test(tmp_path / "conserving")
    assert watch.finish() == []

    monkeypatch.setattr(NetworkEnv, "queued_packets", lambda self: 1)
    _run_quick_test(tmp_path / "leaking")
    problems = watch.finish()
    assert problems and all(p.startswith("packets generated ") for p in problems)
