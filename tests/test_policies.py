import numpy as np
import pytest

from pqossim.dqn import AgentConfig, DqnAgent, QNetwork
from pqossim.env import SimConfig
from pqossim.errors import CheckpointError
from pqossim.modes import AGENT_ACTION_IDS, AGENT_ACTION_MODES, MODE_1451, mode_from_id
from pqossim.policies import ConstantPolicy, DqlGreedyPolicy, DqlTrainingPolicy


def bias_net(out_bias):
    net = QNetwork()
    for p in net.parameters():
        p[:] = 0.0
    net.biases[-1][:] = out_bias
    return net


def test_action_index_mapping_is_fixed():
    assert AGENT_ACTION_IDS == (1450, 1451, 1452)
    assert [m.mode_id for m in AGENT_ACTION_MODES] == [1450, 1451, 1452]


def test_constant_policy_ignores_state():
    rng = np.random.default_rng(0)
    policy = ConstantPolicy(1452)
    for _ in range(100):
        state = rng.uniform(0, 1, size=8)
        assert policy.decide(state, rng).mode_id == 1452


def test_constant_policy_accepts_mode_objects():
    assert ConstantPolicy(MODE_1451).mode is MODE_1451
    with pytest.raises(ValueError):
        ConstantPolicy(7)


def test_constant_full_episode_trace():
    # the default episode is 800 control periods; a constant policy yields
    # one identical decision per period
    steps = SimConfig().steps_per_episode
    assert steps == 800
    rng = np.random.default_rng(1)
    policy = ConstantPolicy(0)
    trace = [policy.decide(rng.uniform(0, 1, 8), rng).mode_id for _ in range(steps)]
    assert trace == [0] * 800


def test_greedy_policy_picks_argmax_mode():
    policy = DqlGreedyPolicy(bias_net([0.0, 1.0, 0.0]))
    assert policy.decide(np.zeros(8), None).mode_id == 1451
    policy = DqlGreedyPolicy(bias_net([0.0, 0.0, 2.0]))
    assert policy.decide(np.zeros(8), None).mode_id == 1452


def test_training_policy_explores_uniformly_at_eps_one():
    agent = DqnAgent(AgentConfig(rng_seed=3))
    policy = DqlTrainingPolicy(agent, epsilon=1.0)
    rng = np.random.default_rng(4)
    counts = {mid: 0 for mid in AGENT_ACTION_IDS}
    n = 9000
    for _ in range(n):
        counts[policy.decide(np.zeros(8), rng).mode_id] += 1
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    for mid in AGENT_ACTION_IDS:
        assert abs(counts[mid] - n / 3) <= 3.5 * sigma


def test_training_policy_greedy_at_eps_zero():
    agent = DqnAgent(AgentConfig(rng_seed=5))
    agent.online = bias_net([0.2, 0.1, 0.9])
    policy = DqlTrainingPolicy(agent, epsilon=0.0)
    rng = np.random.default_rng(6)
    assert all(policy.decide(np.zeros(8), rng).mode_id == 1452 for _ in range(20))


def test_greedy_from_checkpoint_roundtrip(tmp_path):
    agent = DqnAgent(AgentConfig(rng_seed=7))
    path = tmp_path / "ckpt.npz"
    agent.save(path)
    policy = DqlGreedyPolicy(DqnAgent.load(path, AgentConfig()).online)
    state = np.full(8, 0.5)
    expected = AGENT_ACTION_MODES[int(np.argmax(agent.online.forward(state)))]
    assert policy.decide(state, None) is expected


def test_checkpoint_with_wrong_mapping_rejected(tmp_path):
    agent = DqnAgent(AgentConfig(rng_seed=8))
    path = tmp_path / "ckpt.npz"
    agent.save(path, action_mode_ids=(1450, 1452, 1451))  # reordered
    with pytest.raises(CheckpointError):
        DqlGreedyPolicy(DqnAgent.load(path, AgentConfig()).online)


def test_greedy_policy_requires_three_actions():
    with pytest.raises(ValueError):
        DqlGreedyPolicy(QNetwork((8, 12, 6, 2)))


def test_mode_lookup():
    assert mode_from_id(1450).mean_payload_kb == 200.0
    assert mode_from_id(0).mean_payload_kb == 3200.0
    with pytest.raises(ValueError):
        mode_from_id(1449)
