import dataclasses

import numpy as np
import pytest

from pqossim.env import NetworkEnv, SimConfig, StepKpis, state_vector
from pqossim.errors import ConfigError
from pqossim.modes import MODE_1450, MODE_1451, MODE_1452, MODE_RAW


def quick_cfg(**kwargs) -> SimConfig:
    defaults = dict(n_vehicles=1, episode_duration_s=2.0, rng_seed=11)
    defaults.update(kwargs)
    return SimConfig(**defaults)


def table_cfg(tmp_path, table, **kwargs) -> SimConfig:
    """A quick_cfg whose MCS table is read from a file holding `table`'s rows."""
    path = tmp_path / "mcs.txt"
    np.savetxt(path, table)
    return quick_cfg(mcs_table_path=str(path), **kwargs)


def run_steps(env, actions, n_steps, seed=None):
    env.reset(seed)
    out = []
    for _ in range(n_steps):
        out.append(env.step(actions))
    return out


def test_default_episode_is_800_steps():
    assert SimConfig().steps_per_episode == 800


def test_reset_is_bit_exact_deterministic():
    cfg = quick_cfg(n_vehicles=3)
    env1, env2 = NetworkEnv(cfg), NetworkEnv(cfg)
    s1, s2 = env1.reset(99), env2.reset(99)
    assert np.array_equal(s1, s2)
    for _ in range(5):
        st1, k1, d1 = env1.step([MODE_1450] * 3)
        st2, k2, d2 = env2.step([MODE_1450] * 3)
        assert np.array_equal(st1, st2)
        assert k1 == k2
        assert d1 == d2


def test_different_seeds_differ():
    cfg = quick_cfg()
    env = NetworkEnv(cfg)
    env.reset(1)
    a = env.step([MODE_1450])[1][0]
    env.reset(2)
    b = env.step([MODE_1450])[1][0]
    assert a.sinr_db != b.sinr_db


def test_reset_returns_one_state_per_vehicle():
    cfg = quick_cfg(n_vehicles=5)
    states = NetworkEnv(cfg).reset()
    assert states.shape == (5, 8)
    assert np.all(states == 0.0)


def test_zero_vehicles_rejected():
    with pytest.raises(ConfigError):
        quick_cfg(n_vehicles=0)


def test_one_frame_per_period_at_defaults():
    # 10 Hz frames over a 100 ms period: exactly one frame, ~200 KB for
    # the 200 KB mode (134 packets nominal, 10% payload spread)
    env = NetworkEnv(quick_cfg(episode_duration_s=5.0))
    env.reset(3)
    counts = []
    for _ in range(50):
        _, kpis, _ = env.step([MODE_1450])
        counts.append(kpis[0].packets_generated)
    assert all(90 <= c <= 180 for c in counts), counts
    mean_kb = np.mean(counts) * env.config.packet_size_bytes / 1000.0
    assert mean_kb == pytest.approx(200.0, rel=0.05)


def test_two_frames_per_period_at_20hz():
    env = NetworkEnv(quick_cfg(frame_rate_hz=20.0))
    env.reset(4)
    _, kpis, _ = env.step([MODE_1452])
    # two 17 KB frames of ~12 packets each
    assert 18 <= kpis[0].packets_generated <= 32


def test_light_load_reaches_prr_one():
    env = NetworkEnv(quick_cfg())
    env.reset(5)
    for i in range(10):
        _, kpis, _ = env.step([MODE_1452])
        if i >= 2:
            assert kpis[0].prr == 1.0
            assert kpis[0].packets_delivered == kpis[0].packets_generated


def test_raw_mode_overloads_any_configuration():
    # 3200 KB per 100 ms is 256 Mbit/s, far above the cell ceiling: the
    # queue must grow and per-period mean delay must climb
    env = NetworkEnv(quick_cfg())
    env.reset(6)
    delays = []
    backlog = []
    for _ in range(4):
        _, kpis, _ = env.step([MODE_RAW])
        delays.append(kpis[0].delay_mean)
        backlog.append(env.queued_packets())
    assert all(d2 > d1 for d1, d2 in zip(delays, delays[1:])), delays
    assert all(b2 > b1 for b1, b2 in zip(backlog, backlog[1:])), backlog


def test_packet_conservation_every_period():
    env = NetworkEnv(quick_cfg(n_vehicles=3, episode_duration_s=3.0))
    env.reset(7)
    rng = np.random.default_rng(0)
    modes = [MODE_RAW, MODE_1450, MODE_1451, MODE_1452]
    done = False
    while not done:
        actions = [modes[rng.integers(4)] for _ in range(3)]
        _, _, done = env.step(actions)
        assert (
            env.total_generated
            == env.total_delivered + env.total_dropped + env.queued_packets()
        )
    assert env.total_dropped > 0  # raw mode must have overflowed the bound


def test_prr_bounds():
    env = NetworkEnv(quick_cfg(n_vehicles=2, episode_duration_s=3.0))
    env.reset(8)
    done = False
    while not done:
        _, kpis, done = env.step([MODE_RAW, MODE_1451])
        for k in kpis:
            assert 0.0 <= k.prr <= 1.0
            if k.packets_generated > 0:
                assert k.prr == k.packets_delivered / k.packets_generated


def test_work_conservation_under_congestion():
    env = NetworkEnv(quick_cfg(n_vehicles=4, episode_duration_s=3.0))
    env.reset(9)
    done = False
    while not done:
        _, _, done = env.step([MODE_RAW, MODE_1450, MODE_1451, MODE_1452])
    assert env.scheduler_idle_violations == 0


def test_outage_starves_queue_and_saturates_delay_features(tmp_path):
    # a table whose lowest threshold is unreachable keeps every vehicle in
    # outage: nothing is ever delivered
    cfg = table_cfg(tmp_path, [[1000.0, 1.0]])
    env = NetworkEnv(cfg)
    env.reset(10)
    states, kpis, _ = env.step([MODE_1452])
    k = kpis[0]
    assert k.packets_delivered == 0
    assert k.prr == 0.0
    assert k.delay_mean == k.delay_max == k.delay_min == cfg.queue_drop_ms
    assert k.delay_std == 0.0
    assert k.mcs_index == 0
    assert k.ofdm_symbols_used == 0
    # outage vehicles are not schedulable, so unused budget is not a
    # work-conservation violation
    assert env.scheduler_idle_violations == 0
    assert np.all((states >= 0.0) & (states <= 1.0))


def test_delay_features_saturate_at_the_drop_bound(tmp_path):
    # delays saturate at queue_drop_ms, which is also their scale: a period
    # that delivers nothing reads exactly 1.0 however short the bound
    env = NetworkEnv(table_cfg(tmp_path, [[1000.0, 1.0]], queue_drop_ms=100.0))
    env.reset(10)
    states, kpis, _ = env.step([MODE_1452])
    assert kpis[0].packets_delivered == 0
    assert list(states[0, 3:7]) == [1.0, 1.0, 1.0, 0.0]  # mean, max, min, std


def test_state_features_always_in_unit_interval():
    env = NetworkEnv(quick_cfg(n_vehicles=2, episode_duration_s=3.0))
    env.reset(12)
    done = False
    while not done:
        states, _, done = env.step([MODE_RAW, MODE_1452])
        assert np.all((states >= 0.0) & (states <= 1.0))


def test_state_vector_layout():
    # every feature of every vehicle against the scale the state_vector
    # docstring gives it, under a SINR range other than the default
    cfg = quick_cfg(n_vehicles=3, sinr_min_db=0.0, sinr_max_db=30.0, queue_drop_ms=150.0)
    env = NetworkEnv(cfg)
    env.reset(13)
    top = env.mcs_table.index_max
    budget = cfg.symbol_budget_per_period
    span = cfg.sinr_max_db - cfg.sinr_min_db
    drop = cfg.queue_drop_ms
    clipped = 0
    for _ in range(10):
        states, kpis, _ = env.step([MODE_RAW, MODE_1451, MODE_1452])
        assert states.shape == (3, 8)
        for v, k in enumerate(kpis):
            raw = [
                k.mcs_index / top,
                k.ofdm_symbols_used / budget,
                (k.sinr_db - cfg.sinr_min_db) / span,
                k.delay_mean / drop,
                k.delay_max / drop,
                k.delay_min / drop,
                k.delay_std / drop,
                k.prr,
            ]
            expected = [min(max(x, 0.0), 1.0) for x in raw]
            assert states[v].tolist() == expected
            clipped += expected != raw
        assert np.array_equal(state_vector(kpis, cfg, top), states)
    assert clipped > 0  # the clamp ran on some feature


def test_kpi_fields_lead_with_the_state_features():
    # state_vector reads the first eight StepKpis fields as the state, in order
    assert StepKpis._fields[:8] == (
        "mcs_index",
        "ofdm_symbols_used",
        "sinr_db",
        "delay_mean",
        "delay_max",
        "delay_min",
        "delay_std",
        "prr",
    )


def test_congestion_monotonic_in_offered_load():
    # same seed, same channel: raw mode never yields lower mean delay than
    # the smallest mode
    cfg = quick_cfg(n_vehicles=2, episode_duration_s=2.0)
    light = NetworkEnv(cfg)
    heavy = NetworkEnv(cfg)
    light.reset(14)
    heavy.reset(14)
    done = False
    while not done:
        _, k_light, done = light.step([MODE_1452, MODE_1452])
        _, k_heavy, _ = heavy.step([MODE_RAW, MODE_RAW])
        for kl, kh in zip(k_light, k_heavy):
            assert kh.delay_mean >= kl.delay_mean


def test_delay_ordering_invariant():
    env = NetworkEnv(quick_cfg(n_vehicles=2, episode_duration_s=3.0))
    env.reset(15)
    done = False
    while not done:
        _, kpis, done = env.step([MODE_1450, MODE_1451])
        for k in kpis:
            assert k.delay_min <= k.delay_mean <= k.delay_max


def test_action_validation():
    env = NetworkEnv(quick_cfg(n_vehicles=2))
    env.reset(16)
    with pytest.raises(ValueError):
        env.step([MODE_1450])  # one action missing
    with pytest.raises(ValueError):
        env.step([MODE_1450, 9999])  # unknown mode id
    env.step([1450, 1452])  # ids are accepted


def test_step_lifecycle_errors():
    env = NetworkEnv(quick_cfg())
    with pytest.raises(RuntimeError):
        env.step([MODE_1450])
    env.reset(17)
    done = False
    while not done:
        _, _, done = env.step([MODE_1450])
    with pytest.raises(RuntimeError):
        env.step([MODE_1450])


@pytest.mark.parametrize(
    "field,value",
    [
        ("bandwidth_mhz", 0.0),
        ("bandwidth_mhz", 0.01),  # rounds to 0 resource elements per symbol
        ("bandwidth_mhz", 1e308),  # overflows them
        ("noise_figure_db", -1.0),
        ("episode_duration_s", 0.0),
        ("control_period_ms", 0),
        ("control_period_ms", 33),  # 33 not divisible into 2000 ms
        ("tick_ms", 3),  # does not divide 100
        ("frame_rate_hz", 0.0),
        ("pathloss_exponent", -1.0),
        ("shadowing_sigma_db", -1.0),
        ("shadowing_corr", 1.0),
        ("route_half_length_m", 500.0),  # outside cell radius
        ("speed_mps", -1.0),
        ("packet_size_bytes", 0),
        ("queue_drop_ms", 0.0),
        ("payload_cv", -0.1),
        ("symbols_per_tick", 0),
        ("sinr_min_db", 41.0),
    ],
)
def test_invalid_config_rejected(field, value):
    with pytest.raises(ConfigError):
        quick_cfg(**{field: value})


def test_config_independent_instances():
    # two envs over one config must not share mutable state
    cfg = quick_cfg(n_vehicles=2)
    env1, env2 = NetworkEnv(cfg), NetworkEnv(cfg)
    env1.reset(1)
    env2.reset(2)
    env1.step([MODE_RAW, MODE_RAW])
    before = env2.queued_packets()
    assert before == 0


@pytest.mark.parametrize("rows", [10, 20])
def test_mcs_feature_reaches_one_at_the_table_top(tmp_path, rows):
    # every threshold lies far below the cell's SINR: each tick sits at the
    # table's top index, which must map to exactly 1.0 whatever the length
    table = np.column_stack([np.linspace(-40.0, -20.0, rows), np.linspace(0.5, 6.0, rows)])
    env = NetworkEnv(table_cfg(tmp_path, table, n_vehicles=2))
    env.reset(19)
    states, kpis, _ = env.step([MODE_1452, MODE_1452])
    assert [k.mcs_index for k in kpis] == [rows - 1] * 2
    assert np.all(states[:, 0] == 1.0)


def test_mcs_feature_scales_by_the_table_top_index(tmp_path):
    table = np.column_stack([np.linspace(0.0, 60.0, 20), np.linspace(0.5, 6.0, 20)])
    env = NetworkEnv(table_cfg(tmp_path, table, n_vehicles=3, episode_duration_s=1.0))
    assert env.mcs_table.index_max == 19
    env.reset(20)
    seen = set()
    while not env.done:
        states, kpis, _ = env.step([MODE_1451] * 3)
        for v, k in enumerate(kpis):
            seen.add(k.mcs_index)
            assert states[v, 0] == k.mcs_index / 19
    assert max(seen) < 19  # the feature is not saturated below the top
