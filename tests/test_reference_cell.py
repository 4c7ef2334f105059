"""Differential tests: the cell against a per-packet reference model.

`reference_cell.py` is a second, independent implementation of the cell's
channel, queues, scheduler and KPI aggregation. Its channel must give
every tick the env's efficiency and every period the env's mean MCS and,
within a few ulp, mean SINR. Stepped beside a `NetworkEnv` on its own
channel, the reference cell must give every period the same KPIs and the
same packet counts, whichever of the env's drains ran the period's ticks.
"""

import math
from itertools import accumulate

import numpy as np
from hypothesis import HealthCheck, Phase, assume, event, given, settings
from hypothesis import strategies as st
from reference_cell import ReferenceCell, ReferenceChannel, water_fill

from pqossim.env import NetworkEnv, SimConfig, StepKpis
from pqossim.link import McsTable
from pqossim.modes import CANONICAL_MODES, MODE_1452

# Every term of a tick's SINR (transmit power, pathloss, shadowing, noise)
# stays below 256 dB in magnitude here. The env's numpy `hypot`/`log10`
# and tick sums may round differently from the reference's scalar ones, so
# SINRs and their period means are compared within a few ulp of that.
_SINR_SLACK_DB = 4 * math.ulp(256.0)

# no shrink phase: a failure is reported as first drawn, since shrinking one
# took minutes and about 1 GB, where failing on the drawn example takes a second
_NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


def _at_a_threshold(sinr: float, thresholds) -> bool:
    """Whether `sinr` lies so near an MCS threshold that the two channels may map it to different rows."""
    return any(abs(sinr - threshold) <= _SINR_SLACK_DB for threshold in thresholds)


# random ladders of 1-20 rows, strictly increasing in threshold and efficiency
_TABLES = st.integers(1, 20).flatmap(
    lambda rows: st.tuples(
        st.lists(st.floats(-20.0, 50.0), min_size=rows, max_size=rows, unique=True).map(sorted),
        st.lists(st.floats(0.05, 1.0), min_size=rows, max_size=rows).map(lambda steps: list(accumulate(steps))),
    )
).map(lambda columns: McsTable(np.column_stack(columns)))

_CHANNEL_CONFIGS = st.builds(
    SimConfig,
    n_vehicles=st.integers(1, 6),
    tick_ms=st.sampled_from([1, 2, 5]),
    # corners at most hypot(165, 165) = 233 m out, inside the cell radius
    route_half_length_m=st.floats(1.0, 165.0),
    route_half_width_m=st.floats(1.0, 165.0),
    speed_mps=st.floats(0.0, 60.0),
    tx_power_dbm=st.floats(-10.0, 30.0),
    shadowing_sigma_db=st.floats(0.0, 10.0),
    shadowing_corr=st.floats(0.0, 0.999),
    episode_duration_s=st.just(0.6),  # 6 periods
    rng_seed=st.integers(0, 2**32 - 1),
)


def test_the_reference_channel_matches_the_env():
    """Every tick's efficiency is exact, bar SINRs at a threshold; mean MCS exact, mean SINR within the slack."""
    seen = {"tick values": 0, "at a threshold": 0}

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow], phases=_NO_SHRINK)
    @given(cfg=_CHANNEL_CONFIGS, table=_TABLES)
    def check(cfg, table):
        n = cfg.n_vehicles
        ticks = cfg.ticks_per_period
        env = NetworkEnv(cfg)
        env.mcs_table = table
        env.reset(cfg.rng_seed)
        ref = ReferenceChannel(cfg, cfg.rng_seed, table)
        while not env.done:
            period = env._step_count
            env.step([MODE_1452] * n)
            # the channel block the env just used still holds this period
            row = period - env._block_start
            eff = env._eff[row * ticks : (row + 1) * ticks].tolist()
            ref_ticks, mean_sinr, mean_mcs = ref.next_period()
            at_threshold = 0
            for t, (got_row, want_row) in enumerate(zip(eff, ref_ticks)):
                for v, (got, (sinr, _, want)) in enumerate(zip(got_row, want_row)):
                    if got != want:
                        assert _at_a_threshold(sinr, ref.thresholds), f"period {period}, tick {t}, vehicle {v}"
                        at_threshold += 1
            seen["tick values"] += ticks * n
            seen["at a threshold"] += at_threshold
            if not at_threshold:
                assert env._mean_mcs[row] == mean_mcs, f"period {period}"
            for v, (got, want) in enumerate(zip(env._mean_sinr[row], mean_sinr)):
                assert abs(got - want) <= _SINR_SLACK_DB, f"period {period}, vehicle {v}"

    check()
    assert seen["at a threshold"] * 10_000 < seen["tick values"], seen


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


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow], phases=_NO_SHRINK)
@given(cfg=_CONFIGS, data=st.data())
def test_the_cell_matches_the_per_packet_reference(cfg, data):
    n = cfg.n_vehicles
    env = NetworkEnv(cfg)
    env.reset(cfg.rng_seed)
    ref = ReferenceCell(cfg, cfg.rng_seed)
    while not env.done:
        period = ref.period
        modes = data.draw(st.lists(st.sampled_from(CANONICAL_MODES), min_size=n, max_size=n))
        _, kpis, _ = env.step(modes)
        want = ref.step(modes)
        # the env's channel may put a tick whose SINR lies at a threshold on the next MCS row
        ticks = ref.last_period[0]
        at_threshold = any(_at_a_threshold(sinr, ref.channel.thresholds) for row in ticks for sinr, _, _ in row)
        if at_threshold:
            event("a tick's SINR lies at an MCS threshold")
        assume(not at_threshold)
        for v, (got, expected) in enumerate(zip(kpis, want)):
            expected = StepKpis(*expected)
            where = f"period {period}, vehicle {v}"
            assert got._replace(sinr_db=0.0, delay_std=0.0) == expected._replace(sinr_db=0.0, delay_std=0.0), where
            assert abs(got.sinr_db - expected.sinr_db) <= _SINR_SLACK_DB, where
            # numpy's two-pass std may be a few ulp off the exact one, which the model has within an ulp
            assert abs(got.delay_std - expected.delay_std) <= 4 * math.ulp(expected.delay_std), where
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
