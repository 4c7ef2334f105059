import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqossim.dqn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AgentConfig,
    DqnAgent,
    QNetwork,
    ReplayBuffer,
    Transition,
    double_q_targets,
    forward,
    select_action,
)
from pqossim.errors import CheckpointError


def zero_net(out_bias=None, layer_sizes=(8, 12, 6, 3)) -> QNetwork:
    """All-zero network; optionally pin the output bias to fixed q-values."""
    net = QNetwork(layer_sizes)
    for p in net.parameters():
        p[:] = 0.0
    if out_bias is not None:
        net.biases[-1][:] = out_bias
    return net


def random_state(rng, n=8):
    return rng.uniform(0.0, 1.0, size=n)


def random_batch(rng, size=10, n_in=8, n_act=3):
    """A batched Transition, every field with a leading axis of `size`."""
    return Transition(
        state=rng.uniform(0.0, 1.0, size=(size, n_in)),
        action=rng.integers(n_act, size=size),
        reward=rng.uniform(0, 1, size=size),
        next_state=rng.uniform(0.0, 1.0, size=(size, n_in)),
        terminal=rng.integers(2, size=size) == 0,
    )


def batch_of(*transitions):
    """Stack single Transitions into one batched Transition."""
    return Transition(
        np.stack([t.state for t in transitions]),
        np.array([t.action for t in transitions]),
        np.array([t.reward for t in transitions], dtype=np.float64),
        np.stack([t.next_state for t in transitions]),
        np.array([t.terminal for t in transitions]),
    )


# -- forward ---------------------------------------------------------------


def test_forward_zero_network():
    net = zero_net()
    assert np.array_equal(forward(net, np.zeros(8)), np.zeros(3))
    assert np.array_equal(forward(net, np.ones(8)), np.zeros(3))


def test_forward_hand_computed_single_path():
    # one active unit per layer: q0 = 3 * relu(2 * relu(1 * s0))
    net = zero_net()
    net.weights[0][0, 0] = 1.0
    net.weights[1][0, 0] = 2.0
    net.weights[2][0, 0] = 3.0
    state = np.zeros(8)
    state[0] = 0.5
    q = forward(net, state)
    assert q[0] == pytest.approx(3.0, abs=0.0)
    assert q[1] == 0.0 and q[2] == 0.0
    # negative input is cut by the first relu
    state[0] = -0.5
    assert np.array_equal(forward(net, state), np.zeros(3))


def test_forward_finite_closure():
    rng = np.random.default_rng(0)
    net = QNetwork(rng=rng)
    for _ in range(100):
        q = forward(net, random_state(rng))
        assert np.all(np.isfinite(q))


def test_forward_rejects_wrong_length():
    net = QNetwork()
    with pytest.raises(ValueError):
        forward(net, np.zeros(7))


# -- action selection --------------------------------------------------------


def test_select_action_pure_exploration_is_uniform():
    rng = np.random.default_rng(1)
    net = zero_net()
    n = 30_000
    counts = np.zeros(3, dtype=int)
    for _ in range(n):
        counts[select_action(net, np.zeros(8), 1.0, rng)] += 1
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - n / 3) <= 3 * sigma), counts


def test_select_action_greedy_and_tiebreak():
    rng = np.random.default_rng(2)
    net = zero_net(out_bias=[0.1, 0.9, 0.2])
    assert select_action(net, np.zeros(8), 0.0, rng) == 1
    net = zero_net(out_bias=[0.5, 0.5, 0.1])
    assert select_action(net, np.zeros(8), 0.0, rng) == 0


def test_select_action_epsilon_bounds():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        select_action(zero_net(), np.zeros(8), 1.5, rng)


# -- double-q target ---------------------------------------------------------


def test_double_q_target_terminal():
    # a terminal row keeps its bare reward; its neighbour still bootstraps
    batch = batch_of(
        Transition(np.zeros(8), 0, 0.7, np.zeros(8), True),
        Transition(np.zeros(8), 0, 0.7, np.zeros(8), False),
    )
    targets = double_q_targets(zero_net(), zero_net(out_bias=[1.0, 1.0, 1.0]), batch, 0.95)
    assert targets[0] == 0.7
    assert targets[1] == pytest.approx(0.7 + 0.95, abs=1e-15)


def test_double_q_target_arithmetic():
    online = zero_net(out_bias=[0.0, 1.0, 0.0])  # argmax -> action 1
    target = zero_net(out_bias=[0.3, 1.0, 0.9])  # evaluates action 1 as 1.0
    batch = batch_of(Transition(np.zeros(8), 0, 0.5, np.zeros(8), False))
    targets = double_q_targets(online, target, batch, 0.95)
    assert targets.shape == (1,)
    assert targets[0] == pytest.approx(1.45, abs=1e-15)


def test_double_q_collapses_to_classic_when_nets_equal():
    rng = np.random.default_rng(4)
    net = QNetwork(rng=rng)
    twin = net.clone()
    batch = batch_of(
        *(Transition(random_state(rng), 0, float(rng.uniform()), random_state(rng), False) for _ in range(20))
    )
    classic = batch.reward + 0.9 * net.forward_batch(batch.next_state).max(axis=1)
    assert np.allclose(double_q_targets(net, twin, batch, 0.9), classic, rtol=0.0, atol=1e-12)


def test_double_q_decouples_selection_from_evaluation():
    # online prefers action 0, whose target-net value is NOT the max:
    # the double estimate must differ from the naive max-based target
    online = zero_net(out_bias=[1.0, 0.0, 0.0])
    target = zero_net(out_bias=[0.2, 0.9, 0.0])
    batch = batch_of(Transition(np.zeros(8), 0, 0.0, np.zeros(8), False))
    double = double_q_targets(online, target, batch, 0.95)[0]
    naive = 0.95 * 0.9
    assert double == pytest.approx(0.95 * 0.2, abs=1e-15)
    assert double != naive


# -- training ---------------------------------------------------------------


def agent_with(**kwargs) -> DqnAgent:
    defaults = dict(batch_size=10, rng_seed=5)
    defaults.update(kwargs)
    return DqnAgent(AgentConfig(**defaults))


def test_zero_loss_updates_only_through_weight_decay():
    agent = agent_with(weight_decay=1e-3, learning_rate=1e-2)
    rng = np.random.default_rng(6)
    states = np.stack([random_state(rng) for _ in range(10)])
    actions = [int(rng.integers(3)) for _ in range(10)]
    # terminal transitions whose rewards equal the current predictions,
    # computed through the same batched forward train_batch uses
    q = agent.online.forward_batch(states)
    batch = batch_of(
        *(Transition(states[i], actions[i], float(q[i, actions[i]]), states[i], True) for i in range(10))
    )
    before = [p.copy() for p in agent.online.parameters()]
    loss = agent.train_batch(batch)
    assert loss == 0.0
    lr, wd = agent.config.learning_rate, agent.config.weight_decay
    for p_before, p_after in zip(before, agent.online.parameters()):
        assert np.array_equal(p_after, p_before - lr * (wd * p_before))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    agent = agent_with(weight_decay=0.0)
    h = 1e-5
    worst = 0.0
    for _ in range(3):
        batch = random_batch(rng)
        states, actions = batch.state, batch.action
        targets = double_q_targets(agent.online, agent.target, batch, agent.config.discount)
        loss, grads = agent._loss_and_grads(states, actions, targets)

        def loss_at():
            q = agent.online.forward_batch(states)
            err = q[np.arange(len(actions)), actions] - targets
            return float(np.mean(err * err))

        for p, g in zip(agent.online.parameters(), grads):
            flat_p, flat_g = p.ravel(), g.ravel()
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + h
                up = loss_at()
                flat_p[i] = orig - h
                down = loss_at()
                flat_p[i] = orig
                numeric = (up - down) / (2 * h)
                scale = max(abs(numeric), abs(flat_g[i]), 1e-6)
                worst = max(worst, abs(numeric - flat_g[i]) / scale)
    assert worst < 1e-4, worst


def test_first_adam_step_magnitude_is_learning_rate():
    agent = agent_with(weight_decay=0.0, learning_rate=1e-3)
    rng = np.random.default_rng(8)
    batch = random_batch(rng)
    targets = double_q_targets(agent.online, agent.target, batch, agent.config.discount)
    _, grads = agent._loss_and_grads(batch.state, batch.action, targets)
    before = [p.copy() for p in agent.online.parameters()]
    agent.train_batch(batch)
    lr = agent.config.learning_rate
    checked = 0
    for p_before, p_after, g in zip(before, agent.online.parameters(), grads):
        mask = np.abs(g) > 1e-6
        if not np.any(mask):
            continue
        step = np.abs(p_after - p_before)[mask]
        assert np.all(step <= lr * 1.0001)
        assert np.all(step >= lr * 0.9)
        checked += int(mask.sum())
    assert checked > 0


def test_batch_size_enforced():
    agent = agent_with()
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        agent.train_batch(random_batch(rng, size=0))
    with pytest.raises(ValueError):
        # a single, unbatched transition
        agent.train_batch(Transition(np.zeros(8), 0, 0.0, np.zeros(8), False))
    with pytest.raises(ValueError):
        agent.train_batch(random_batch(rng, size=3))


def test_batch_larger_than_the_replay_ring_rejected():
    # the ring would never hold a full batch, so training would never step
    with pytest.raises(ValueError, match="batch_size"):
        AgentConfig(batch_size=20, replay_capacity=10)
    AgentConfig(batch_size=10, replay_capacity=10)  # one full ring is one batch


@pytest.mark.parametrize(
    "field,value",
    [
        ("learning_rate", 0.0),
        ("weight_decay", -1e-3),
        ("batch_size", 0),
        ("replay_capacity", 0),
        ("target_sync_period", 0),
    ],
)
def test_invalid_agent_config_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        AgentConfig(**{field: value})


def test_degenerate_network_and_ring_rejected():
    with pytest.raises(ValueError, match="at least an input and an output layer"):
        QNetwork((8,))
    with pytest.raises(ValueError, match="capacity must be >= 1"):
        ReplayBuffer(0)


def test_target_network_staleness_and_sync():
    agent = agent_with(target_sync_period=5, learning_rate=1e-2)
    rng = np.random.default_rng(10)
    frozen = [p.copy() for p in agent.target.parameters()]
    for i in range(4):
        agent.train_batch(random_batch(rng))
        for p, f in zip(agent.target.parameters(), frozen):
            assert np.array_equal(p, f)
    agent.train_batch(random_batch(rng))  # fifth step triggers the sync
    for p_t, p_o in zip(agent.target.parameters(), agent.online.parameters()):
        assert np.array_equal(p_t, p_o)


def test_training_is_bit_exact_deterministic():
    def run():
        agent = agent_with(learning_rate=1e-3, rng_seed=77)
        rng = np.random.default_rng(123)
        for _ in range(30):
            agent.train_batch(random_batch(rng))
        return agent

    a, b = run(), run()
    for p1, p2 in zip(a.online.parameters(), b.online.parameters()):
        assert np.array_equal(p1, p2)


_LAYER_SIZES = st.one_of(
    st.sampled_from([(8, 12, 6, 2), (8, 3), (8, 12, 6, 3), (8, 16, 16, 8, 3)]),
    st.lists(st.integers(1, 12), min_size=2, max_size=5).map(tuple),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    layer_sizes=_LAYER_SIZES,
    batch_size=st.integers(1, 32),
    sync=st.integers(1, 3),
    weight_decay=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_train_step_equals_the_per_network_reference(layer_sizes, batch_size, sync, weight_decay, seed):
    """train_batch against the same step spelled out network by network."""
    cfg = AgentConfig(
        learning_rate=1e-2, weight_decay=weight_decay, batch_size=batch_size,
        replay_capacity=batch_size, target_sync_period=sync, rng_seed=seed % 1000,
    )
    agent = DqnAgent(cfg, layer_sizes)
    ref = DqnAgent(cfg, layer_sizes)
    m, v = np.zeros_like(ref.online.flat), np.zeros_like(ref.online.flat)
    rng = np.random.default_rng(seed)
    n_in, n_act = layer_sizes[0], layer_sizes[-1]
    for t in range(1, 8):
        batch = random_batch(rng, size=batch_size, n_in=n_in, n_act=n_act)
        loss = agent.train_batch(batch)

        targets = double_q_targets(ref.online, ref.target, batch, cfg.discount)
        ref_loss, grads = ref._loss_and_grads(batch.state, batch.action, targets)
        g = np.concatenate([grad.ravel() for grad in grads])
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        update = (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)
        p = ref.online.flat
        p -= cfg.learning_rate * (update + cfg.weight_decay * p)
        if t % sync == 0:
            ref.target.copy_from(ref.online)

        assert loss == ref_loss
        assert np.array_equal(agent.online.flat, ref.online.flat)
        assert np.array_equal(agent.target.flat, ref.target.flat)
        assert np.array_equal(agent._adam_m, m) and np.array_equal(agent._adam_v, v)
    assert agent.step_count == 7


def test_networks_and_moments_are_rows_of_one_array():
    agent = agent_with(target_sync_period=2)
    rng = np.random.default_rng(17)
    for _ in range(3):
        agent.train_batch(random_batch(rng))
    assert agent._params.shape == agent._moments.shape == (2, agent.online.flat.size)
    for row, view in enumerate((agent.online.flat, agent.target.flat)):
        assert np.shares_memory(view, agent._params[row]) and not np.shares_memory(view, agent._params[1 - row])
    for row, view in enumerate((agent._adam_m, agent._adam_v)):
        assert np.shares_memory(view, agent._moments[row]) and not np.shares_memory(view, agent._moments[1 - row])
    # a clone, or a fresh net filled by copy_from, owns its parameters
    twin = agent.online.clone()
    other = QNetwork(agent.online.layer_sizes)
    other.copy_from(agent.target)
    for net, source in ((twin, agent.online), (other, agent.target)):
        assert np.array_equal(net.flat, source.flat)
        assert not np.shares_memory(net.flat, agent._params)
        assert not np.shares_memory(net.flat, agent._moments)
        net.flat[:] = 7.0
        assert not np.any(source.flat == 7.0)


# -- replay buffer ------------------------------------------------------------


def t_with_reward(r):
    return Transition(np.zeros(8), 0, r, np.zeros(8), False)


def test_ring_eviction():
    buf = ReplayBuffer(3)
    for r in (1.0, 2.0, 3.0, 4.0):
        buf.push(t_with_reward(r))
    assert len(buf) == 3
    # a full-ring sample sees exactly what the ring holds
    batch = buf.sample(3, np.random.default_rng(0))
    assert sorted(batch.reward) == [2.0, 3.0, 4.0]


def test_not_ready_signal():
    buf = ReplayBuffer(10)
    rng = np.random.default_rng(11)
    buf.push(t_with_reward(1.0))
    assert buf.sample(2, rng) is None
    buf.push(t_with_reward(2.0))
    assert buf.sample(2, rng) is not None


def test_sample_without_replacement():
    buf = ReplayBuffer(10)
    for r in range(5):
        buf.push(t_with_reward(float(r)))
    rng = np.random.default_rng(12)
    batch = buf.sample(5, rng)
    assert batch.state.shape == batch.next_state.shape == (5, 8)
    assert batch.action.shape == batch.reward.shape == batch.terminal.shape == (5,)
    assert sorted(batch.reward) == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_sampling_is_uniform_over_indices():
    buf = ReplayBuffer(10)
    for r in range(10):
        buf.push(t_with_reward(float(r)))
    rng = np.random.default_rng(13)
    counts = np.zeros(10)
    draws = 10_000
    for _ in range(draws):
        counts[buf.sample(3, rng).reward.astype(int)] += 1
    expected = draws * 3 / 10
    sigma = np.sqrt(draws * 0.3 * 0.7)
    assert np.all(np.abs(counts - expected) <= 3.2 * sigma), counts


# -- persistence --------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    agent = agent_with(learning_rate=1e-3)
    rng = np.random.default_rng(14)
    for _ in range(7):
        agent.train_batch(random_batch(rng))
    path = tmp_path / "ckpt.npz"
    agent.save(path)
    loaded = DqnAgent.load(path, agent.config)
    assert loaded.step_count == agent.step_count
    for p1, p2 in zip(agent.online.parameters(), loaded.online.parameters()):
        assert np.array_equal(p1, p2)
    for p1, p2 in zip(agent.target.parameters(), loaded.target.parameters()):
        assert np.array_equal(p1, p2)
    assert np.array_equal(agent._adam_m, loaded._adam_m)
    assert np.array_equal(agent._adam_v, loaded._adam_v)
    # training continues identically from the restored state
    batch = random_batch(np.random.default_rng(15))
    agent.train_batch(batch)
    loaded.train_batch(batch)
    for p1, p2 in zip(agent.online.parameters(), loaded.online.parameters()):
        assert np.array_equal(p1, p2)


def test_checkpoint_records_action_mapping(tmp_path):
    agent = agent_with()
    path = tmp_path / "ckpt.npz"
    agent.save(path)
    with np.load(path) as data:
        assert data["action_mode_ids"].tolist() == [1450, 1451, 1452]


def _shares_flat(net: QNetwork) -> bool:
    return all(np.shares_memory(p, net.flat) for p in net.parameters())


def test_parameters_stay_views_of_the_flat_vector(tmp_path):
    agent = agent_with(learning_rate=1e-3, target_sync_period=2)
    rng = np.random.default_rng(16)
    for _ in range(3):
        agent.train_batch(random_batch(rng))
    assert _shares_flat(agent.online) and _shares_flat(agent.target)
    path = tmp_path / "ckpt.npz"
    agent.save(path)
    loaded = DqnAgent.load(path, agent.config)
    assert _shares_flat(loaded.online) and _shares_flat(loaded.target)
    assert np.array_equal(loaded.online.flat, agent.online.flat)
    twin = agent.online.clone()
    assert _shares_flat(twin) and not np.shares_memory(twin.flat, agent.online.flat)
    twin.copy_from(loaded.target)
    assert _shares_flat(twin) and np.array_equal(twin.flat, loaded.target.flat)
    # a write through the flat vector shows in every view
    twin.flat[:] = 1.0
    assert all(np.all(p == 1.0) for p in twin.parameters())


def test_wrong_shape_checkpoint_array_rejected(tmp_path):
    agent = agent_with()
    path = tmp_path / "ckpt.npz"
    agent.save(path)
    with np.load(path) as data:
        arrays = dict(data)
    arrays["w1"] = np.zeros((6, 12))  # transposed
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    with pytest.raises(CheckpointError, match="shape"):
        DqnAgent.load(bad, agent.config)


@pytest.mark.parametrize(
    "field,value",
    [
        ("layer_sizes", np.array(5)),  # 0-d, not a size list
        ("layer_sizes", np.array([8, -1, 3])),
        ("action_mode_ids", np.array(1450)),
        ("step_count", np.array([1, 2])),
        ("format_version", np.int64(2)),
        ("adam_v3", None),  # missing
    ],
)
def test_malformed_checkpoint_field_rejected(tmp_path, field, value):
    path = tmp_path / "ckpt.npz"
    agent_with().save(path)
    with np.load(path) as data:
        arrays = dict(data)
    if value is None:
        del arrays[field]
    else:
        arrays[field] = value
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(CheckpointError) as caught:
        DqnAgent.load(path, AgentConfig())
    assert str(caught.value).startswith(f"{path}: ")


def test_corrupt_checkpoint_rejected(tmp_path):
    path = tmp_path / "bad.npz"
    agent_with().save(path)
    whole = path.read_bytes()
    # every member stored with a compression method zipfile does not know
    unknown = bytearray(whole)
    at = unknown.find(b"PK\x01\x02")
    while at >= 0:
        unknown[at + 10 : at + 12] = (99).to_bytes(2, "little")
        at = unknown.find(b"PK\x01\x02", at + 4)
    # a bare .npy array
    npy = io.BytesIO()
    np.save(npy, np.arange(3))
    # garbage, the torn copies a killed write leaves, the unknown method, then the array
    contents = (b"this is not a checkpoint", whole[: len(whole) // 2], whole[:-30], b"", bytes(unknown), npy.getvalue())
    for content in contents:
        path.write_bytes(content)
        with pytest.raises(CheckpointError):
            DqnAgent.load(path, AgentConfig())


def test_failed_save_leaves_the_earlier_checkpoint_whole(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.npz"
    agent_with().save(path)
    before = path.read_bytes()

    def torn_savez(file, **arrays):
        file.write(before[:100])
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", torn_savez)
    with pytest.raises(OSError, match="disk full"):
        agent_with(rng_seed=6).save(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# -- end-to-end sanity on a tiny known MDP ------------------------------------


MDP = {(0, 0): (0, 0.9), (0, 1): (1, 0.0), (1, 0): (0, 0.5), (1, 1): (1, 0.6)}


def value_iteration(gamma=0.95, tol=1e-10):
    v = np.zeros(2)
    while True:
        q = np.array(
            [[MDP[(s, a)][1] + gamma * v[MDP[(s, a)][0]] for a in (0, 1)] for s in (0, 1)]
        )
        v_new = q.max(axis=1)
        if np.abs(v_new - v).max() < tol:
            return q.argmax(axis=1)
        v = v_new


def encode(s):
    v = np.zeros(8)
    v[s] = 1.0
    return v


def train_mdp_agent(seed, steps=5000, gamma=0.95):
    cfg = AgentConfig(
        discount=gamma,
        learning_rate=3e-3,
        weight_decay=0.0,
        batch_size=10,
        replay_capacity=5000,
        target_sync_period=50,
        rng_seed=seed,
    )
    agent = DqnAgent(cfg, layer_sizes=(8, 12, 6, 2))
    buf = ReplayBuffer(cfg.replay_capacity)
    rng = np.random.default_rng(seed)
    s = 0
    for _ in range(steps):
        a = int(rng.integers(2))
        s2, r = MDP[(s, a)]
        buf.push(Transition(encode(s), a, r, encode(s2), False))
        batch = buf.sample(cfg.batch_size, rng)
        if batch is not None:
            agent.train_batch(batch)
        s = s2
    return agent


def test_mdp_policy_matches_value_iteration():
    optimal = list(value_iteration())
    for seed in (0, 1, 2):
        agent = train_mdp_agent(seed)
        learned = [int(np.argmax(forward(agent.online, encode(s)))) for s in (0, 1)]
        assert learned == optimal
