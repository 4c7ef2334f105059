"""Golden digests: a tiny fixed workload must write the same CSV bytes.

The determinism tests elsewhere compare a build against itself; these
digests were recorded once and pin the simulator's and the learner's
outputs across refactors: records, episodes and the five figure CSVs of
every golden run. The CSVs see the learner only through its online
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
    "offline/action_probability.csv": "04271a6a0a8e35120025420c722bf348571aba0a91a577bebd1b64c72128ca29",
    "offline/cd_distribution.csv": "fd24c6c6beed8e72bbd2c38795c4d778f4ab5f3b69abd4f6653d13152663dda8",
    "offline/qos_distribution.csv": "3b3067ef4ab9560c54493236b1d847936772410046f3cfe0e2c08e0c53b186aa",
    "offline/delay_boxplot.csv": "1ec7a75056634241fd26782416dd91fde77baee39a664500963aa2d445671c74",
    "offline/reward_distribution.csv": "9659bb278a43f692761b06117c42f6311dfaa8a8ce184f273f767c72f13cf453",
    "online/records.csv": "924728af297eaf67cf80eca278e026ed257c7b9f11fcbb2a2530988adc0b63a9",
    "online/episodes.csv": "fee21b263298fd6a3231c452565df143fe230674c53aa532a552077eee3edd9e",
    "online/action_probability.csv": "822de4e2d12bf8b1292775855edbd51c130d70a28f11124712141c63829ef93b",
    "online/cd_distribution.csv": "a44e80bd7132b95bb6b9aa94c690e9ed7bf4a3887f2a4bf88ac84eab5df788a2",
    "online/qos_distribution.csv": "b22dd5022b9c5f6e9c8dca6d2b0dcfd072f0bd7a5c726e137cdade80f85cef3b",
    "online/delay_boxplot.csv": "a41251c8ff72460db6450174464d940577d84a625cf5d883c834175da9f1a8a7",
    "online/reward_distribution.csv": "2e69bbd873228f32eeb686aa5624490248cb6c3125d11e72ace51745926025dd",
    "raw/records.csv": "ab6e7985541b7d908dd6f5a4a8879a75beb910c9828cfac7d0bf46fea2fafa86",
    "raw/episodes.csv": "afe235352f7d7a4c1152320416c8cf4df169a89c3d5b726bc379fa81291d6be4",
    "raw/action_probability.csv": "e3fdc52473ca5a399ccc6cd6571a6d5bb2502fb3c4df7db8e7a48e31d35c88b3",
    "raw/cd_distribution.csv": "c0a0fd24095f4e79e62337c0cd469e681aa9c765f767a025e75470bee74f571b",
    "raw/qos_distribution.csv": "6558398e67980baa394e9a0a2397617813a419576f308e57822e77b76f8a1d6a",
    "raw/delay_boxplot.csv": "8c06e4613056525e757302121bbc5aad508bb402b7c1f71cd52eb977a9a785a0",
    "raw/reward_distribution.csv": "6a5b15ff1c1b4fa67fc1f2d049967e860861142f9f51cc7c3bdd934cb97f70b7",
    "mixed/records.csv": "c39eaea31edc836d6a216f05dcbe0705add152b352848a1a7b67066a3af2740f",
    "mixed/episodes.csv": "cc8a531b8d1f77ac4540abc72e8e85d8f7fbfdc4b7f0551461e09347bc0bd403",
    "mixed/action_probability.csv": "808f39a5c4b530dc07a3f315de501d416bcfceb5d673af308006d59ce9189441",
    "mixed/cd_distribution.csv": "598ef403b9ea7a1c1c91997336fb57f48157d28fb298f86c16b0db2b9a65945a",
    "mixed/qos_distribution.csv": "1f1281d595282a37ff82137bbc3ca9cb427b99cc0e998e26256b34530ca618e1",
    "mixed/delay_boxplot.csv": "9e7d7065f032ddffe52c51c1c1f87bf2c82c8f3c6e740cb30d783866a5961988",
    "mixed/reward_distribution.csv": "3ccffd7ab776e2dfbca1fa661ead2015759743f2492c27dd9ae3b5a0795399eb",
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
        "adam_moments": hashlib.sha256(agent._moments.tobytes()).hexdigest(),
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
