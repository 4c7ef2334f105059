"""Golden digests: a tiny fixed workload must write the same CSV bytes.

The determinism tests elsewhere compare a build against itself; these
digests were recorded once and pin the simulator's and the learner's
outputs across refactors. The CSVs see the learner only through its online
actions, so the trained agent's weights and Adam moments are pinned too.
A change that is meant to move results must say why and re-record them
(run this file with GOLDEN_PRINT=1 -s to print the current digests).
"""

import hashlib
import os

import pytest

from pqossim.config import default_config
from pqossim.env import NetworkEnv
from pqossim.harness import run_offline_training, run_online_training, run_test, weights_digest
from pqossim.modes import MODE_1450, MODE_1451, MODE_RAW
from pqossim.policies import ConstantPolicy

GOLDEN = {
    "offline/records.csv": "d26af20b19e741a1ea757d55b66f1c921d3f45c496f7c67dbb593e34e90d9cf7",
    "offline/episodes.csv": "f03297ba516bac556d50390145dcb7bb82e4be01f07881e17ab952f53d1e3bfb",
    "online/records.csv": "924728af297eaf67cf80eca278e026ed257c7b9f11fcbb2a2530988adc0b63a9",
    "online/episodes.csv": "fee21b263298fd6a3231c452565df143fe230674c53aa532a552077eee3edd9e",
    "raw/records.csv": "ab6e7985541b7d908dd6f5a4a8879a75beb910c9828cfac7d0bf46fea2fafa86",
    "raw/episodes.csv": "afe235352f7d7a4c1152320416c8cf4df169a89c3d5b726bc379fa81291d6be4",
    "mixed/records.csv": "c39eaea31edc836d6a216f05dcbe0705add152b352848a1a7b67066a3af2740f",
    "mixed/episodes.csv": "cc8a531b8d1f77ac4540abc72e8e85d8f7fbfdc4b7f0551461e09347bc0bd403",
}

# after the golden offline + online training: `weights_digest` (online then
# target parameters) and SHA-256 over the Adam m then v moments, both in
# parameter order w0, b0, w1, b1, ...
GOLDEN_LEARNER = {
    "weights": "91412eff1b882e8a1d7f5dff0db4c3ed9280a4af02e4459fb68d26f266a6e1b9",
    "adam_moments": "60fc4acd5604fc8994c1a0641d3b7635bdcb5c788058bfd24d58607ca6f1fd4d",
}


class _PerVehiclePolicy:
    """Vehicle v always gets modes[v]; `decide` is called once per vehicle in order."""

    name = "mixed"

    def __init__(self, modes):
        self.modes = modes
        self.calls = 0

    def decide(self, state, rng):
        mode = self.modes[self.calls % len(self.modes)]
        self.calls += 1
        return mode


def _golden_config():
    cfg = default_config("quick")
    cfg.sim.n_vehicles = 3
    cfg.sim.rng_seed = 7
    cfg.agent.rng_seed = 7
    cfg.sim.episode_duration_s = 2.0  # 20 steps per episode
    cfg.run.offline_episodes = 3
    cfg.run.online_episodes = 2
    cfg.run.test_episodes = 2
    return cfg


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Run the golden workload once; returns (CSV digests, learner digests)."""
    root = tmp_path_factory.mktemp("golden")
    cfg = _golden_config()
    agent, _ = run_offline_training(cfg, root / "offline")
    run_online_training(cfg, root / "online", agent=agent)
    learner = {
        "weights": weights_digest(agent),
        "adam_moments": hashlib.sha256(agent._adam_m.tobytes() + agent._adam_v.tobytes()).hexdigest(),
    }
    run_test(cfg, root / "raw", ConstantPolicy(MODE_RAW))
    run_test(cfg, root / "mixed", _PerVehiclePolicy([MODE_RAW, MODE_1450, MODE_1451]))
    csvs = {key: hashlib.sha256((root / key).read_bytes()).hexdigest() for key in GOLDEN}
    if os.environ.get("GOLDEN_PRINT"):
        for key, digest in {**csvs, **learner}.items():
            print(f'    "{key}": "{digest}",')
    return csvs, learner


def test_golden_csv_digests(golden_run):
    got, _ = golden_run
    mismatched = [key for key in GOLDEN if got[key] != GOLDEN[key]]
    assert not mismatched, f"CSV bytes changed: {mismatched}"


def test_golden_learner_digests(golden_run):
    _, got = golden_run
    mismatched = [key for key in GOLDEN_LEARNER if got[key] != GOLDEN_LEARNER[key]]
    assert not mismatched, f"learner state changed: {mismatched}"


def test_golden_workload_covers_the_drop_path():
    # the raw vehicle must overflow the residency bound within one golden
    # episode, or the digests would not pin the drop path
    cfg = _golden_config()
    env = NetworkEnv(cfg.sim)
    env.reset(cfg.sim.rng_seed)
    while not env.done:
        env.step([MODE_RAW, MODE_1450, MODE_1451])
    assert env.total_dropped > 0
