"""Property tests: cell invariants over random configs and action sequences."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqossim.env import NetworkEnv, SimConfig
from pqossim.modes import CANONICAL_MODES

_CONFIGS = st.builds(
    SimConfig,
    n_vehicles=st.integers(1, 6),
    frame_rate_hz=st.floats(2.0, 40.0),
    packet_size_bytes=st.integers(200, 12_000),
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
        states, _, kpis, _ = env.step(actions)
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
