"""Differential tests: the cell against a per-packet reference model.

`reference_cell.py` is a second, independent implementation of the cell's
queues, scheduler and KPI aggregation. Stepped beside a `NetworkEnv` on the
env's own channel, it must give every period the same KPIs and the same
packet counts, whichever of the env's drains ran the period's ticks.
"""

import math

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from reference_cell import ReferenceCell, water_fill

from pqossim.env import NetworkEnv, SimConfig
from pqossim.modes import CANONICAL_MODES

_CONFIGS = st.builds(
    SimConfig,
    n_vehicles=st.integers(1, 6),
    # half of the rates rounded to 0.01 Hz
    frame_rate_hz=st.one_of(st.floats(2.0, 40.0), st.floats(2.0, 40.0).map(lambda r: round(r, 2))),
    # up to 40 KB, so that frames of the 17 KB mode often fit in one packet
    packet_size_bytes=st.integers(200, 40_000),
    # whole milliseconds let a packet's age equal the bound, where the drop is strict
    queue_drop_ms=st.one_of(st.integers(1, 500).map(float), st.floats(1.0, 500.0)),
    tick_ms=st.sampled_from([1, 2, 5]),
    # from 15 dBm down, more and more ticks fall into outage
    tx_power_dbm=st.one_of(st.just(23.0), st.floats(0.0, 15.0)),
    symbols_per_tick=st.integers(1, 30),
    bandwidth_mhz=st.floats(5.0, 100.0),
    payload_cv=st.floats(0.0, 0.5),
    episode_duration_s=st.just(0.6),  # 6 periods
    rng_seed=st.integers(0, 2**32 - 1),
)


# no shrink phase: a failure is reported as first drawn, since shrinking one
# took minutes and about 1 GB, where failing on the drawn example takes a second
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(cfg=_CONFIGS, data=st.data())
def test_the_cell_matches_the_per_packet_reference(cfg, data):
    n = cfg.n_vehicles
    ticks = cfg.ticks_per_period
    env = NetworkEnv(cfg)
    env.reset(cfg.rng_seed)
    ref = ReferenceCell(cfg, cfg.rng_seed)
    while not env.done:
        period = ref.period
        modes = data.draw(st.lists(st.sampled_from(CANONICAL_MODES), min_size=n, max_size=n))
        _, kpis, _ = env.step(modes)
        # the channel block the env just used still holds this period
        row = period - env._block_start
        eff = env._eff[row * ticks : (row + 1) * ticks].tolist()
        want = ref.step(modes, eff, env._mean_sinr[row], env._mean_mcs[row])
        for v, (got, expected) in enumerate(zip(kpis, want)):
            *exact, std = got[:7]
            *ref_exact, ref_std = expected[:7]
            assert (*exact, *got[7:]) == (*ref_exact, *expected[7:]), f"period {period}, vehicle {v}"
            # numpy's two-pass std may be a few ulp off the exact one, which the model has within an ulp
            assert abs(std - ref_std) <= 4 * math.ulp(ref_std), f"period {period}, vehicle {v}"
        assert (env.total_generated, env.total_delivered, env.total_dropped, env.queued_packets()) == (
            ref.generated, ref.delivered, ref.dropped, ref.queued()
        ), f"period {period}"


@settings(max_examples=300, deadline=None)
@given(
    needs=st.dictionaries(st.integers(0, 7), st.integers(1, 60), max_size=8),
    budget=st.integers(1, 30),
    rr=st.integers(0, 10**9),
)
def test_water_fill_matches_the_reference(needs, budget, rr):
    env = NetworkEnv(SimConfig())
    env.reset()
    grants = env._water_fill(dict(needs), budget, rr)
    assert grants == water_fill(needs, budget, rr)
    assert sum(grants.values()) == min(budget, sum(needs.values()))
    assert all(0 < g <= needs[v] for v, g in grants.items())
    assert env.scheduler_idle_violations == 0
