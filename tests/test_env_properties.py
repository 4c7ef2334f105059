"""Property tests: cell invariants over random configs and action sequences."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pqossim.env as env_module
from pqossim.config import default_config
from pqossim.env import NetworkEnv, SimConfig
from pqossim.modes import CANONICAL_MODES, MODE_1450, MODE_RAW

# frame rates in 2-40 Hz, half of them rounded to 0.01 Hz
_RATES = st.one_of(st.floats(2.0, 40.0), st.floats(2.0, 40.0).map(lambda r: round(r, 2)))

_CONFIGS = st.builds(
    SimConfig,
    n_vehicles=st.integers(1, 6),
    frame_rate_hz=_RATES,
    # up to 40 KB, so that frames of the 17 KB mode often fit in one packet
    packet_size_bytes=st.integers(200, 40_000),
    queue_drop_ms=st.floats(1.0, 500.0),
    symbols_per_tick=st.integers(1, 30),
    bandwidth_mhz=st.floats(5.0, 100.0),
    payload_cv=st.floats(0.0, 0.5),
    episode_duration_s=st.just(0.6),  # 6 periods
    rng_seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_CONFIGS, data=st.data())
def test_cell_invariants_hold_every_step(cfg, data):
    env = NetworkEnv(cfg)
    env.reset(cfg.rng_seed)
    n = cfg.n_vehicles
    budget = cfg.symbol_budget_per_period
    while not env.done:
        actions = data.draw(st.lists(st.sampled_from(CANONICAL_MODES), min_size=n, max_size=n))
        states, kpis, _ = env.step(actions)
        assert env.total_generated == env.total_delivered + env.total_dropped + env.queued_packets()
        assert env.scheduler_idle_violations == 0
        assert states.shape == (n, 8)
        assert np.all((states >= 0.0) & (states <= 1.0))
        for k in kpis:
            assert 0 <= k.ofdm_symbols_used <= budget
            assert k.delay_min <= k.delay_mean <= k.delay_max
            assert k.delay_std >= 0.0
            assert 0.0 <= k.prr <= 1.0
            assert 0 <= k.packets_delivered <= k.packets_generated


# k frames in p 100 ms periods: every p periods a frame is due exactly at a
# period's start, where a float frame interval may round it to just before
_PERIOD_LOCKED_RATES = st.integers(1, 40).flatmap(
    lambda p: st.integers(-(-p // 5), 4 * p).map(lambda k: 10 * k / p)
)


@settings(max_examples=200, deadline=None)
@given(
    rate=st.one_of(_RATES, _PERIOD_LOCKED_RATES),
    tick_ms=st.sampled_from([1, 2, 5]),
    periods=st.integers(1, 40),
    n=st.integers(1, 2),
)
def test_every_frame_of_the_episode_is_generated(rate, tick_ms, periods, n):
    # packets larger than any frame: each frame is one packet
    cfg = SimConfig(frame_rate_hz=rate, tick_ms=tick_ms, episode_duration_s=periods / 10,
                    packet_size_bytes=10**7, n_vehicles=n)
    env = NetworkEnv(cfg)
    env.reset(5)
    generated = [0] * n
    while not env.done:
        for v, k in enumerate(env.step([MODE_1450] * n)[1]):
            generated[v] += k.packets_generated
    # frame k is sent at k / rate s; count the k with k * 1000 / rate < episode ms
    frames = math.ceil(Fraction(periods * cfg.control_period_ms) * Fraction(rate) / 1000)
    assert generated == [frames] * n


def _step_side_by_side(cfg, seed, action_lists, setting, values):
    """Step one env per value of the module constant `setting`, same actions.

    Yields, after every step, one observation per env: the states, KPIs and
    the cell counters.
    """
    envs = [NetworkEnv(cfg) for _ in values]
    for env in envs:
        env.reset(seed)
    shipped = getattr(env_module, setting)
    try:
        for actions in action_lists:
            seen = []
            for env, value in zip(envs, values):
                setattr(env_module, setting, value)
                states, kpis, _ = env.step(actions)
                seen.append((states, kpis, _counters(env)))
            yield seen
    finally:
        setattr(env_module, setting, shipped)


def _counters(env):
    return (
        env.total_generated,
        env.total_delivered,
        env.total_dropped,
        env.queued_packets(),
        env.scheduler_idle_violations,
    )


_STRETCH_CONFIGS = st.builds(
    SimConfig,
    n_vehicles=st.integers(1, 6),
    frame_rate_hz=_RATES,
    queue_drop_ms=st.floats(1.0, 500.0).filter(lambda d: d != int(d)),
    tick_ms=st.sampled_from([1, 2, 5]),
    tx_power_dbm=st.one_of(st.just(23.0), st.floats(-25.0, 0.0)),
    packet_size_bytes=st.integers(200, 40_000),
    symbols_per_tick=st.integers(1, 30),
    bandwidth_mhz=st.floats(5.0, 100.0),
    episode_duration_s=st.just(0.6),  # 6 periods
    rng_seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_STRETCH_CONFIGS, data=st.data())
def test_stretch_drain_matches_scalar_ticks(cfg, data):
    """Stretches change no output: shipped, eager and all-scalar envs agree.

    The all-scalar reference sets the break-even above ticks x vehicles, so
    no stretch qualifies; the eager env tries a stretch on every tick whose
    candidate run is non-empty.
    """
    n = cfg.n_vehicles
    action_lists = data.draw(
        st.lists(
            st.lists(st.sampled_from(CANONICAL_MODES), min_size=n, max_size=n),
            min_size=cfg.steps_per_episode,
            max_size=cfg.steps_per_episode,
        )
    )
    scalar = cfg.ticks_per_period * n + 1
    thresholds = (env_module._STRETCH_MIN_VEHICLE_TICKS, 1, scalar)
    for seen in _step_side_by_side(cfg, cfg.rng_seed, action_lists, "_STRETCH_MIN_VEHICLE_TICKS", thresholds):
        ref_states, ref_kpis, ref_counters = seen[-1]
        for states, kpis, counters in seen[:-1]:
            assert np.array_equal(states, ref_states)
            assert kpis == ref_kpis
            assert counters == ref_counters


_LONE_CONFIGS = st.builds(
    SimConfig,
    n_vehicles=st.integers(1, 3),
    frame_rate_hz=_RATES,
    queue_drop_ms=st.floats(1.0, 500.0),
    tick_ms=st.sampled_from([1, 2, 5]),
    # below about 0 dBm the cell edge falls into outage
    tx_power_dbm=st.one_of(st.just(23.0), st.floats(-25.0, 0.0)),
    packet_size_bytes=st.integers(200, 40_000),
    symbols_per_tick=st.integers(1, 30),
    bandwidth_mhz=st.floats(5.0, 100.0),
    episode_duration_s=st.just(0.6),  # 6 periods
    rng_seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_LONE_CONFIGS, data=st.data())
def test_lone_drain_matches_the_scalar_ticks(cfg, data):
    """A lone backlogged vehicle drained in one loop or tick by tick: same outputs.

    In the reference env the lone drain runs no tick, so every tick it
    would cover runs through the generic tick loop and the stretches.
    """
    n = cfg.n_vehicles
    envs = [NetworkEnv(cfg) for _ in range(2)]
    for env in envs:
        env.reset(cfg.rng_seed)
    envs[1]._drain_lone = lambda v, t0, *args: (t0, 0, 0)
    while not envs[0].done:
        actions = data.draw(st.lists(st.sampled_from(CANONICAL_MODES), min_size=n, max_size=n))
        (states, kpis, _), (ref_states, ref_kpis, _) = (env.step(actions) for env in envs)
        assert np.array_equal(states, ref_states)
        assert kpis == ref_kpis
        assert _counters(envs[0]) == _counters(envs[1])


def test_lone_drain_runs_every_busy_tick_at_one_vehicle(monkeypatch):
    """At one vehicle the lone drain runs every backlogged tick, in one call per frame."""
    covered = []
    drain = NetworkEnv._drain_lone

    def counting(self, v, t0, *args):
        end, delivered, dropped = drain(self, v, t0, *args)
        covered.append(end - t0)
        return end, delivered, dropped

    def never(*args):
        raise AssertionError("a lone vehicle's tick left the lone drain")

    monkeypatch.setattr(NetworkEnv, "_drain_lone", counting)
    monkeypatch.setattr(NetworkEnv, "_drain_stretch", never)
    env = NetworkEnv(SimConfig(n_vehicles=1, episode_duration_s=2.0))
    env.reset(7)
    while not env.done:
        covered.clear()
        env.step([MODE_RAW])  # backlogged from the first frame on
        assert covered == [env.config.ticks_per_period]


def test_stretches_cover_the_contended_ticks(monkeypatch):
    """In a loaded five-vehicle cell nearly every tick runs inside a stretch."""
    cfg = SimConfig(n_vehicles=5, episode_duration_s=2.0)
    covered = []
    drain = NetworkEnv._drain_stretch

    def counting(self, t0, *args):
        end, delivered = drain(self, t0, *args)
        covered.append(end - t0)
        return end, delivered

    monkeypatch.setattr(NetworkEnv, "_drain_stretch", counting)
    action_lists = [[MODE_1450] * 5] * cfg.steps_per_episode
    scalar = cfg.ticks_per_period * 5 + 1
    thresholds = (env_module._STRETCH_MIN_VEHICLE_TICKS, scalar)
    for seen in _step_side_by_side(cfg, 7, action_lists, "_STRETCH_MIN_VEHICLE_TICKS", thresholds):
        (states, kpis, counters), ref = seen
        assert np.array_equal(states, ref[0])
        assert (kpis, counters) == ref[1:]
    assert sum(covered) >= 0.8 * cfg.steps_per_episode * cfg.ticks_per_period


_BLOCK_CONFIGS = st.builds(
    SimConfig,
    n_vehicles=st.integers(1, 6),
    tick_ms=st.sampled_from([1, 2, 5]),
    tx_power_dbm=st.one_of(st.just(23.0), st.floats(-25.0, 0.0)),
    shadowing_sigma_db=st.sampled_from([0.0, 4.0]),
    episode_duration_s=st.integers(1, 25).map(lambda periods: periods / 10),
    rng_seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_BLOCK_CONFIGS, data=st.data())
def test_channel_blocks_change_no_output(cfg, data):
    """One period per block, the shipped blocks and one block per episode agree.

    A budget of one value gives one-period blocks; the episode's whole
    tick x vehicle count gives one block. Episodes of 1-25 periods cut the
    shipped blocks (3-102 periods) short or leave a clipped last block.
    """
    n = cfg.n_vehicles
    action_lists = data.draw(
        st.lists(
            st.lists(st.sampled_from(CANONICAL_MODES), min_size=n, max_size=n),
            min_size=cfg.steps_per_episode,
            max_size=cfg.steps_per_episode,
        )
    )
    whole = cfg.steps_per_episode * cfg.ticks_per_period * n
    budgets = (1, env_module._CHANNEL_BLOCK_VALUES, whole)
    for seen in _step_side_by_side(cfg, cfg.rng_seed, action_lists, "_CHANNEL_BLOCK_VALUES", budgets):
        ref_states, ref_kpis, ref_counters = seen[0]
        for states, kpis, counters in seen[1:]:
            assert np.array_equal(states, ref_states)
            assert kpis == ref_kpis
            assert counters == ref_counters


def test_channel_buffers_do_not_grow_with_episode_length():
    """A paper-length episode holds the same channel arrays as a quick one."""
    for n in (1, 5):
        sizes = []
        for profile in ("quick", "paper"):
            env = NetworkEnv(replace(default_config(profile).sim, n_vehicles=n))
            env.reset(3)
            env.step([MODE_1450] * n)
            sizes.append((env._eff.nbytes, len(env._mean_sinr), len(env._mean_mcs)))
        periods = env_module._CHANNEL_BLOCK_VALUES // (env.config.ticks_per_period * n)
        assert sizes[0] == sizes[1] == (periods * env.config.ticks_per_period * n * 8, periods, periods)
