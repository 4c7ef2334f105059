"""Cell-level uplink simulation driving the mode-adaptation loop.

One gNB at the origin serves a small fleet of vehicles that stream LiDAR
frames upward. The model is deliberately parametric rather than
protocol-accurate:

* mobility: each vehicle loops a rectangular route at constant speed,
  seeded phase offsets spreading the fleet along the loop; only the
  distance to the gNB matters;
* channel: log-distance pathloss plus AR(1)-correlated lognormal
  shadowing, evaluated per 1 ms scheduling tick; SINR maps to a spectral
  efficiency through a threshold table (see `link`);
* traffic: one compressed frame per vehicle per frame interval, payload
  drawn around the active mode's mean, segmented into fixed-size packets;
* scheduling: per tick the cell's symbol budget is split equally among
  backlogged vehicles, redistributing whatever a draining queue cannot
  use; packets exceeding a residency bound are dropped;
* reporting: per control period the simulator aggregates the KPIs the
  agent observes (MCS, symbols, SINR, delay statistics, PRR) and
  normalizes the fleet's KPIs into one 8-feature state per vehicle.

Everything is driven by seeded generator streams: identical (config,
seed, action sequence) reproduces identical KPI streams bit for bit.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, check_finite
from .link import McsTable, load_mcs_table
from .modes import ApplicationMode, mode_from_id

# Resource elements carried by one full-band OFDM symbol, per MHz of
# bandwidth (133 resource blocks x 12 subcarriers at 50 MHz).
_RE_PER_SYMBOL_PER_MHZ = 1596.0 / 50.0

_STATE_SIZE = 8

# Radius of the cell around the gNB; every corner of the route lies inside it.
_CELL_RADIUS_M = 240.0

# The scalar tick loop hands a tick to `NetworkEnv._drain_stretch` only
# when the stretch starting there is expected to cover at least this many
# vehicle-ticks (ticks x schedulable vehicles). On a 2-CPU x86 VM a scalar
# tick with m vehicles scheduled costs about 1 + 2m us and the numpy pass
# about 90 us whatever m, so they break even near 40 vehicle-ticks for
# every fleet size.
_STRETCH_MIN_VEHICLE_TICKS = 40

# `NetworkEnv.step` computes the channel in blocks of as many whole periods
# as fit this many tick x vehicle values, at least one: 20 periods at one
# vehicle, 4 at five. That spreads the channel's fixed numpy cost while its
# arrays stay a few tens of KB, whatever the episode length.
_CHANNEL_BLOCK_VALUES = 2048

# Payload normals are drawn from their stream this many at a time.
_PAYLOAD_DRAWS = 64


@dataclass
class SimConfig:
    """Every knob of the simulated cell; defaults are the shipped calibration.

    The calibration is chosen so that, at the default bandwidth, a single
    vehicle can sustain the 200 KB mode but never the raw 3200 KB stream,
    and five vehicles make the 200 KB mode intermittently unsustainable.
    """

    # radio
    carrier_frequency_ghz: float = 3.5
    bandwidth_mhz: float = 50.0
    tx_power_dbm: float = 23.0
    noise_figure_db: float = 5.0
    # timing
    control_period_ms: int = 100
    episode_duration_s: float = 80.0
    tick_ms: int = 1
    frame_rate_hz: float = 10.0
    # fleet
    n_vehicles: int = 1
    rng_seed: int = 1
    # channel
    pathloss_exponent: float = 2.8
    shadowing_sigma_db: float = 4.0
    shadowing_corr: float = 0.99
    mcs_table_path: str = ""
    # mobility (rectangular loop centred on the gNB)
    route_half_length_m: float = 130.0
    route_half_width_m: float = 30.0
    speed_mps: float = 13.9
    # traffic and queueing
    packet_size_bytes: int = 1500
    queue_drop_ms: float = 400.0
    payload_cv: float = 0.10
    # scheduler
    symbols_per_tick: int = 14
    # SINR normalization bounds of the state vector
    sinr_min_db: float = -10.0
    sinr_max_db: float = 40.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        check_finite(self)
        if self.carrier_frequency_ghz <= 0:
            raise ConfigError("carrier_frequency_ghz must be > 0")
        if not math.isfinite(_RE_PER_SYMBOL_PER_MHZ * self.bandwidth_mhz) or self.re_per_symbol < 1:
            raise ConfigError(
                f"bandwidth_mhz = {self.bandwidth_mhz} gives no finite resource-element count >= 1 per symbol"
            )
        if self.noise_figure_db < 0:
            raise ConfigError("noise_figure_db must be >= 0")
        if int(self.control_period_ms) != self.control_period_ms or self.control_period_ms <= 0:
            raise ConfigError("control_period_ms must be a positive integer")
        if int(self.tick_ms) != self.tick_ms or self.tick_ms <= 0:
            raise ConfigError("tick_ms must be a positive integer")
        if self.control_period_ms % self.tick_ms != 0:
            raise ConfigError("tick_ms must divide control_period_ms")
        if self.episode_duration_s <= 0:
            raise ConfigError("episode_duration_s must be > 0")
        steps = self.episode_duration_s * 1000.0 / self.control_period_ms
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
            raise ConfigError("control_period_ms must divide episode_duration_s * 1000")
        if self.frame_rate_hz <= 0:
            raise ConfigError("frame_rate_hz must be > 0")
        if int(self.n_vehicles) != self.n_vehicles or self.n_vehicles < 1:
            raise ConfigError(f"n_vehicles must be a positive integer, got {self.n_vehicles}")
        if self.pathloss_exponent <= 0:
            raise ConfigError("pathloss_exponent must be > 0")
        if self.shadowing_sigma_db < 0:
            raise ConfigError("shadowing_sigma_db must be >= 0")
        if not 0.0 <= self.shadowing_corr < 1.0:
            raise ConfigError("shadowing_corr must be in [0, 1)")
        if self.route_half_length_m <= 0 or self.route_half_width_m <= 0:
            raise ConfigError("route dimensions must be > 0")
        if math.hypot(self.route_half_length_m, self.route_half_width_m) > _CELL_RADIUS_M:
            raise ConfigError(f"route corner lies outside the {_CELL_RADIUS_M:g} m cell radius")
        if self.speed_mps < 0:
            raise ConfigError("speed_mps must be >= 0")
        if self.packet_size_bytes < 1:
            raise ConfigError("packet_size_bytes must be >= 1")
        if self.queue_drop_ms <= 0:
            raise ConfigError("queue_drop_ms must be > 0")
        if self.payload_cv < 0:
            raise ConfigError("payload_cv must be >= 0")
        if self.symbols_per_tick < 1:
            raise ConfigError("symbols_per_tick must be >= 1")
        if self.sinr_min_db >= self.sinr_max_db:
            raise ConfigError("sinr_min_db must be < sinr_max_db")

    @property
    def steps_per_episode(self) -> int:
        return int(round(self.episode_duration_s * 1000.0 / self.control_period_ms))

    @property
    def ticks_per_period(self) -> int:
        return self.control_period_ms // self.tick_ms

    @property
    def re_per_symbol(self) -> int:
        return int(round(_RE_PER_SYMBOL_PER_MHZ * self.bandwidth_mhz))

    @property
    def symbol_budget_per_period(self) -> int:
        return self.symbols_per_tick * self.ticks_per_period

    @property
    def noise_dbm(self) -> float:
        return -174.0 + 10.0 * math.log10(self.bandwidth_mhz * 1e6) + self.noise_figure_db

    @property
    def pathloss_ref_db(self) -> float:
        """Free-space pathloss at 1 m for the carrier frequency."""
        f_hz = self.carrier_frequency_ghz * 1e9
        return 20.0 * math.log10(4.0 * math.pi * f_hz / 299_792_458.0)

    @property
    def route_perimeter_m(self) -> float:
        return 4.0 * (self.route_half_length_m + self.route_half_width_m)

    @property
    def mcs_table(self) -> McsTable:
        """The table at `mcs_table_path`, the built-in one if the path is empty.

        It is read once per path, so a run simulates the table its validation read.
        """
        if vars(self).get("_mcs_table", (None,))[0] != self.mcs_table_path:
            path = self.mcs_table_path
            self._mcs_table = (path, load_mcs_table(path) if path else McsTable())
        return self._mcs_table[1]


class StepKpis(NamedTuple):
    """Per-vehicle KPIs aggregated over one control period.

    Delay statistics cover packets delivered during the period, whichever
    period generated them; when nothing was delivered they saturate at the
    queue residency bound (std 0). `packets_delivered` and `prr` instead
    follow the period's own cohort: packets generated in the period that
    were also delivered before it ended. The first eight fields are the
    state features, in the state's order.
    """

    mcs_index: int
    ofdm_symbols_used: int
    sinr_db: float
    delay_mean: float
    delay_max: float
    delay_min: float
    delay_std: float
    prr: float
    packets_generated: int
    packets_delivered: int


def state_vector(kpis: Sequence[StepKpis], config: SimConfig, mcs_index_max: int) -> np.ndarray:
    """Min-max normalize a fleet's KPIs into its (n, 8) agent states.

    Order: [mcs, symbols, sinr, delay_mean, delay_max, delay_min,
    delay_std, prr], the first eight `StepKpis` fields; every entry clamped
    to [0, 1]. The MCS feature is scaled by the table's top index
    (`McsTable.index_max`), so it reaches 1.0 exactly there whatever the
    table's length; a one-row table has only index 0 and keeps the feature
    at 0. Symbols are scaled by the period's budget and SINR over
    [sinr_min_db, sinr_max_db]. The delay features are scaled by
    `queue_drop_ms`, where delays saturate: a period that delivers nothing
    reads 1.0 on delay mean, max and min.
    """
    top = max(mcs_index_max, 1)
    budget = config.symbol_budget_per_period
    lo = config.sinr_min_db
    span = config.sinr_max_db - lo
    drop = config.queue_drop_ms
    # scalar divisions and clamps, then one array for the fleet: at one
    # vehicle this is cheaper than numpy's divide and clip. For finite
    # features the clamp equals `np.clip(f, 0.0, 1.0)`, -0.0 included.
    return np.array(
        [
            [f if 0.0 <= f <= 1.0 else float(f > 0.0) for f in (
                mcs / top, sym / budget, (sinr - lo) / span,
                mean / drop, high / drop, low / drop, std / drop, prr)]
            for mcs, sym, sinr, mean, high, low, std, prr, *_ in kpis
        ],
        dtype=np.float64,
    )


# A queued burst is the packets of one frame sharing an arrival time, kept
# as a mutable list indexed by these positions: the packet count, the
# frame's size in bits and the bits of it already sent. Every packet is
# full-size except the last, so a burst with `sent < bits` has finished
# `sent // full_bits` packets, and all of them once `sent == bits`.
_ARRIVAL, _PERIOD, _PACKETS, _BITS, _SENT = range(5)


def _serve(q: deque, bits: int, now_end: int, period: int, runs: list, full_bits: int) -> tuple[int, int]:
    """Send one tick's `bits` from queue `q`, carrying them from burst to burst, oldest first.

    Appends a (delay, packets) run to `runs` per burst that finishes
    packets, the delay taken at `now_end`, the end of the tick. Returns the
    packets finished and how many of them were generated in `period`.
    """
    got = own = 0
    while q:
        burst = q[0]
        arrival, burst_period, packets, size, sent = burst
        after = sent + bits
        if after < size:
            finished = after // full_bits - sent // full_bits
            burst[_SENT] = after
        else:
            finished = packets - sent // full_bits
            q.popleft()
        if finished:
            runs += (now_end - arrival, finished)
            got += finished
            if burst_period == period:
                own += finished
        if after <= size:
            break
        bits = after - size
    return got, own


class NetworkEnv:
    """Seeded episodic simulation of the shared cell.

    Usage: construct with a config, call `reset()` for the initial
    per-vehicle states, then `step(actions)` once per control period until
    `done`. All randomness comes from streams derived from the reset seed.
    """

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        self.mcs_table = config.mcs_table
        self._full_bits = config.packet_size_bytes * 8
        self._re_sym = config.re_per_symbol
        self._steps = config.steps_per_episode
        # (a, b): frame k arrives on episode tick k * a // b, the tick holding k / frame_rate_hz s exactly
        num, den = config.frame_rate_hz.as_integer_ratio()
        self._frame_clock = (1000 * den, num * config.tick_ms)
        # the route as four segments counterclockwise from (a, -b): right
        # side, top, left side, bottom; each has a start (arc length and
        # corner) and a unit direction
        a, b = config.route_half_length_m, config.route_half_width_m
        c1, c2, c3 = 2 * b, 2 * b + 2 * a, 4 * b + 2 * a
        self._seg_ends = np.array([c1, c2, c3])
        self._seg_start = np.array([0.0, c1, c2, c3])
        self._seg_x0 = np.array([a, a, -a, -a])
        self._seg_sx = np.array([0.0, -1.0, 0.0, 1.0])
        self._seg_y0 = np.array([-b, b, b, -b])
        self._seg_sy = np.array([1.0, 0.0, -1.0, 0.0])
        self._grant_tables: dict = {}
        self._ready = False

    # -- lifecycle -----------------------------------------------------

    def reset(self, seed=None) -> np.ndarray:
        """Start a fresh episode; returns the (n_vehicles, 8) initial states.

        `seed` may be an int or a numpy SeedSequence; None reuses the
        config's rng_seed. Identical seeds reproduce the episode exactly.
        The initial state is all zeros: no KPIs exist before traffic flows.
        """
        cfg = self.config
        if seed is None:
            seed = cfg.rng_seed
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        mob_ss, shadow_ss, payload_ss = ss.spawn(3)
        self._rng_shadow = np.random.default_rng(shadow_ss)
        self._rng_payload = np.random.default_rng(payload_ss)
        self._normals: list[float] = []  # payload draws not yet used, next one last

        n = cfg.n_vehicles
        rng_mob = np.random.default_rng(mob_ss)
        self._phase_m = rng_mob.uniform(0.0, cfg.route_perimeter_m, size=n)
        # AR(1) shadowing carry-over: each vehicle's last value, in dB
        self._shadow_last = self._rng_shadow.normal(0.0, cfg.shadowing_sigma_db, size=n).tolist()

        self._queues = [deque() for _ in range(n)]
        self._queue_bits = [0] * n
        self._step_count = 0
        self._next_frame = 0
        self._block_start = self._block_end = 0
        self.total_generated = 0
        self.total_delivered = 0
        self.total_dropped = 0
        # ticks on which symbols were left unused while a schedulable
        # (backlogged, non-outage) vehicle still wanted them; stays 0
        self.scheduler_idle_violations = 0
        self._ready = True
        return np.zeros((n, _STATE_SIZE), dtype=np.float64)

    @property
    def done(self) -> bool:
        return self._ready and self._step_count >= self._steps

    def queued_packets(self) -> int:
        """Packets currently waiting or in transmission, fleet-wide."""
        return sum(b[_PACKETS] - b[_SENT] // self._full_bits for q in self._queues for b in q)

    # -- per-period physics --------------------------------------------

    def _channel_block(self, periods: int) -> None:
        """Compute the channel of `periods` whole periods from the current one.

        Keeps the per-tick efficiency, shape (periods * T, n), each period's
        tick means of SINR and MCS and, if any tick is in outage, per vehicle
        the block rows whose eff > 0 differs from the row before in the same
        period.
        """
        cfg = self.config
        n = cfg.n_vehicles
        ticks = cfg.ticks_per_period
        span = periods * ticks
        start_ms = self._step_count * cfg.control_period_ms
        t_s = (start_ms + np.arange(span, dtype=np.float64) * cfg.tick_ms) / 1000.0
        s = (self._phase_m[None, :] + cfg.speed_mps * t_s[:, None]) % cfg.route_perimeter_m

        # position along the segment s falls in, in closed form
        k = np.searchsorted(self._seg_ends, s, side="right")
        d = s - self._seg_start.take(k)
        x = self._seg_x0.take(k) + self._seg_sx.take(k) * d
        y = self._seg_y0.take(k) + self._seg_sy.take(k) * d
        dist = np.hypot(x, y)

        sigma = cfg.shadowing_sigma_db
        rho = cfg.shadowing_corr
        # one draw for the block is the same stream as one draw per period
        innov = self._rng_shadow.standard_normal((span, n)) * (sigma * math.sqrt(1.0 - rho * rho))
        # shadow[t] = innov[t] + rho * shadow[t - 1], one scalar chain per vehicle
        columns = []
        for v, column in enumerate(innov.T.tolist()):
            y = self._shadow_last[v]
            columns.append([y := x + rho * y for x in column])
            self._shadow_last[v] = y
        shadow = np.fromiter(chain.from_iterable(columns), np.float64, span * n).reshape(n, span).T.copy()

        pathloss = cfg.pathloss_ref_db + 10.0 * cfg.pathloss_exponent * np.log10(
            np.maximum(dist, 1.0)
        )
        sinr_db = cfg.tx_power_dbm - pathloss + shadow - cfg.noise_dbm
        mcs_idx, eff = self.mcs_table.lookup(sinr_db)
        by_period = (periods, ticks, n)
        self._eff = eff
        self._mean_sinr = (sinr_db.reshape(by_period).sum(axis=1) / ticks).tolist()
        self._mean_mcs = (mcs_idx.reshape(by_period).sum(axis=1, dtype=np.float64) / ticks).tolist()
        self._outage_flips = None
        if not eff.all():
            self._outage_flips = flips = [[] for _ in range(n)]
            p, t, v = np.nonzero(np.diff(eff.reshape(by_period) > 0.0, axis=1))
            for u, w in zip((p * ticks + t + 1).tolist(), v.tolist()):
                flips[w].append(u)
        self._block_start, self._block_end = self._step_count, self._step_count + periods

    def _enqueue_frame(self, vehicle: int, arrival_ms: int, period: int, mode: ApplicationMode) -> int:
        """Queue one frame as a burst; returns its packet count."""
        cfg = self.config
        if not self._normals:
            # one block draw is the same stream as as many scalar draws
            self._normals = self._rng_payload.standard_normal(_PAYLOAD_DRAWS).tolist()[::-1]
        payload_kb = mode.mean_payload_kb * (1.0 + cfg.payload_cv * self._normals.pop())
        payload_bytes = int(round(max(1.0, payload_kb) * 1000.0))
        n_packets = -(-payload_bytes // cfg.packet_size_bytes)
        self._queues[vehicle].append([arrival_ms, period, n_packets, 8 * payload_bytes, 0])
        self._queue_bits[vehicle] += 8 * payload_bytes
        self.total_generated += n_packets
        return n_packets

    def _water_fill(self, needs: dict[int, int], budget: int, rr: int) -> dict[int, int]:
        """Split a tick's symbols among its schedulable vehicles.

        Equal shares, the remainder going round-robin from the tick counter
        `rr`; whatever a vehicle cannot use flows back to the others, round
        after round, until the budget or the needs run out. Returns the
        nonzero grants; `needs` may be consumed.
        """
        remaining = budget
        used: dict[int, int] = {}
        while remaining > 0 and needs:
            vids = sorted(needs)
            m = len(vids)
            base, extra = divmod(remaining, m)
            consumed = 0
            for i, v in enumerate(vids):
                grant = base + (1 if (i - rr) % m < extra else 0)
                take = min(grant, needs[v])
                if take:
                    used[v] = used.get(v, 0) + take
                    consumed += take
                if take >= needs[v]:
                    del needs[v]
                else:
                    needs[v] -= take
            remaining -= consumed
            if consumed == 0:
                break
        if remaining > 0 and needs:
            self.scheduler_idle_violations += 1
        return used

    def _grant_table(self, m: int):
        """Round-robin grants of a stretch with m schedulable vehicles.

        Row r holds what `_water_fill`'s first round grants on a tick whose
        round-robin offset is r modulo m; rows run to ticks_per_period + m,
        so any stretch is one slice starting at row (offset % m). Returns
        (grants, grants * re_per_symbol, running grant sums with a leading
        zero row), cached per m.
        """
        table = self._grant_tables.get(m)
        if table is None:
            cfg = self.config
            base, extra = divmod(cfg.symbols_per_tick, m)
            rows = np.arange(cfg.ticks_per_period + m)[:, None]
            grants = base + ((np.arange(m) - rows) % m < extra)
            sums = np.zeros((len(grants) + 1, m), dtype=np.int64)
            np.cumsum(grants, axis=0, out=sums[1:])
            table = self._grant_tables[m] = (grants, grants * cfg.re_per_symbol, sums)
        return table

    def _drain_stretch(
        self, t0, t1, sched, eff, rr, start_ms, period, symbols_used, cohort_delivered, delay_runs
    ):
        """Schedule and drain ticks t0, t0 + 1, ... before t1 in one numpy pass.

        Tick t0's frames and drops are already applied and `sched` lists
        its schedulable vehicles in order. The caller guarantees that in
        (t0, t1) no frame arrives, no queued burst crosses the drop cutoff
        and no backlogged vehicle enters or leaves outage, so the
        schedulable set stays `sched`. The pass covers the longest prefix
        on which every schedulable vehicle's need is above its round-robin
        grant, so each tick spends the whole budget exactly as
        `_water_fill`'s first round does; one more tick where some need
        equals its grant may end it, draining that queue. Served bits carry
        across packets, bursts and ticks exactly as the scalar drain carries
        its leftovers, so the bursts' packet-count rule applied to a
        cumulative sum of the bits gives the packets finished per tick.
        Every float operation is the scalar loop's own, in the same order.

        Updates the queues and the period's accumulators in place; returns
        (end, delivered): the first tick not run (t0 if none qualified) and
        the packets delivered.
        """
        cfg = self.config
        full_bits = self._full_bits
        re_sym = cfg.re_per_symbol
        queues = self._queues
        queue_bits = self._queue_bits
        m = len(sched)
        span = t1 - t0
        grants, grant_bits, grant_sums = self._grant_table(m)
        phase = (rr + t0) % m
        grants = grants[phase : phase + span]
        # (ticks, m) blocks: served bits, their running sums and the needs
        e = eff[t0:t1] if m == len(queue_bits) else eff[t0:t1, sched]
        bits = (grant_bits[phase : phase + span] * e).astype(np.int64)
        served = bits.cumsum(axis=0)
        queued0 = np.array([queue_bits[v] for v in sched])
        # the scalar need is ceil(x) for x = queued bits / (re_sym * eff),
        # and ceil(x) > g is x > g for integer g
        x = (queued0 - served + bits) / (re_sym * e)
        short = (x <= grants).ravel()
        k = int(short.argmax())
        k = k // m if short[k] else span
        if k < span and all(
            xv > max(g - 1, 0) for xv, g in zip(x[k].tolist(), grants[k].tolist())
        ):
            # every need is still at least its grant: the tick runs as a
            # stretch tick that ends the stretch, emptying some queue
            k += 1
        if k == 0:
            return t0, 0
        served = served[:k]
        np.minimum(served[-1], queued0, out=served[-1])
        final = served[-1].tolist()
        symbols = (grant_sums[phase + k] - grant_sums[phase]).tolist()

        # one row per burst a vehicle reaches, vehicles in order, oldest
        # burst first: (vehicle, where the burst starts in bits served
        # since t0, its packet count less one, its bits, the packets it had
        # finished before t0, the run delay at tick t0, own-period flag)
        table = []
        first_row = []
        first_end = start_ms + (t0 + 1) * cfg.tick_ms
        for j, v in enumerate(sched):
            first_row.append(len(table))
            offset = 0
            x_end = final[j]
            for arrival, burst_period, packets, size, sent in queues[v]:
                if offset >= x_end:
                    break
                table.append((j, offset - sent, packets - 1, size, sent // full_bits,
                              first_end - arrival, burst_period == period))
                offset += size - sent
        first_row.append(len(table))
        row_j, start, before_last, size, done0, delay0, _ = np.array(table, dtype=np.int64).reshape(-1, 7).T
        # packets of each burst finished since t0 by the end of each tick,
        # (rows, k); served bits may start short of a burst or run past it
        y = np.maximum(served.T[row_j] - start[:, None], 0)
        done = np.minimum(y // full_bits, before_last[:, None])
        done += y >= size[:, None]
        done -= done0[:, None]
        per_tick = done.copy()
        per_tick[:, 1:] -= done[:, :-1]
        # one (delay, packets) run per burst and tick: row-major order is
        # per vehicle, oldest burst first, which is delivery order because
        # a vehicle's bursts drain one after another
        flat = per_tick.ravel()
        hits = np.flatnonzero(flat)
        rows, ticks_in = np.divmod(hits, k)
        pairs = np.empty(2 * hits.size, dtype=np.int64)
        pairs[0::2] = delay0[rows] + ticks_in * cfg.tick_ms
        pairs[1::2] = flat[hits]
        pairs = pairs.tolist()
        run_bounds = np.searchsorted(rows, first_row).tolist()
        got = done[:, -1].tolist()
        for j, v in enumerate(sched):
            delay_runs[v] += pairs[2 * run_bounds[j] : 2 * run_bounds[j + 1]]
            symbols_used[v] += symbols[j]
            x_end = final[j]
            queue_bits[v] -= x_end
            q = queues[v]
            for r in range(first_row[j], first_row[j + 1]):
                _, burst_start, _, burst_bits, _, _, own = table[r]
                if own:
                    cohort_delivered[v] += got[r]
                if x_end - burst_start < burst_bits:
                    q[0][_SENT] = x_end - burst_start
                else:
                    q.popleft()
        return t0 + k, sum(got)

    def _drain_lone(
        self, v, t0, t1, eff, start_ms, period, symbols_used, cohort_delivered, delay_runs
    ):
        """Drop, schedule and drain ticks t0, t0 + 1, ... before t1 for vehicle v alone.

        Tick t0's frames are already queued, v is the only backlogged
        vehicle and no frame arrives in (t0, t1), so each tick runs as the
        scalar loop runs it with one schedulable vehicle: drop the bursts
        past the residency bound, then grant min(need, symbols_per_tick),
        or nothing in outage. The need is ceil(x) for x = queued bits /
        (re_sym * eff), and ceil(x) > s is x > s for the integer s, so the
        ceiling is taken only on a tick that can empty the queue. Stops
        after the tick that empties it. `eff` holds the period's
        efficiencies as floats, tick after tick, vehicle after vehicle.

        Updates the queue and the period's accumulators in place; returns
        (end, delivered, dropped): the first tick not run and the packets
        delivered and dropped.
        """
        cfg = self.config
        n = cfg.n_vehicles
        tick_ms = cfg.tick_ms
        re_sym = self._re_sym
        per_tick = cfg.symbols_per_tick
        drop_ms = cfg.queue_drop_ms
        full_bits = self._full_bits
        q = self._queues[v]
        queued = self._queue_bits[v]
        runs = delay_runs[v]
        at = t0 * n + v
        now_ms = start_ms + t0 * tick_ms
        t = t0
        symbols = delivered = dropped = own = 0
        while t < t1 and queued:
            cutoff = now_ms - drop_ms
            while q and q[0][_ARRIVAL] < cutoff:
                _, _, packets, size, sent = q.popleft()
                dropped += packets - sent // full_bits
                queued -= size - sent
            e = eff[at]
            at += n
            t += 1
            now_ms += tick_ms
            if queued > 0 and e > 0.0:
                x = queued / (re_sym * e)
                sym = per_tick if x > per_tick else math.ceil(x)
                symbols += sym
                bits = int(sym * re_sym * e)
                queued = queued - bits if bits < queued else 0
                got, mine = _serve(q, bits, now_ms, period, runs, full_bits)
                delivered += got
                own += mine
        self._queue_bits[v] = queued
        symbols_used[v] += symbols
        cohort_delivered[v] += own
        return t, delivered, dropped

    # -- the control-period step ---------------------------------------

    def step(self, actions: Sequence) -> tuple[np.ndarray, list[StepKpis], bool]:
        """Advance one control period under the given per-vehicle modes.

        `actions` holds one ApplicationMode (or canonical mode id) per
        vehicle. Returns (states, kpis, done) where states is the
        (n_vehicles, 8) array of normalized features and kpis one
        `StepKpis` per vehicle.
        """
        if not self._ready:
            raise RuntimeError("call reset() before step()")
        if self.done:
            raise RuntimeError("episode finished; call reset()")
        cfg = self.config
        n = cfg.n_vehicles
        if len(actions) != n:
            raise ValueError(f"expected {n} actions, got {len(actions)}")
        modes = [a if isinstance(a, ApplicationMode) else mode_from_id(a) for a in actions]

        period = self._step_count
        start_ms = period * cfg.control_period_ms
        ticks = cfg.ticks_per_period
        tick_ms = cfg.tick_ms
        re_sym = self._re_sym
        symbols_per_tick = cfg.symbols_per_tick
        drop_ms = cfg.queue_drop_ms
        full_bits = self._full_bits

        if period == self._block_end:
            per_block = max(1, _CHANNEL_BLOCK_VALUES // (ticks * n))
            self._channel_block(min(per_block, self._steps - period))
        # this period's ticks are rows base, base + 1, ... of the block
        base = (period - self._block_start) * ticks
        eff = self._eff[base : base + ticks]
        # the same as Python floats, tick after tick, for the scalar ticks
        eff_list = eff.ravel().tolist()
        outage_flips = self._outage_flips

        # frames arriving at each tick offset within this period (same for
        # the fleet), and the ticks they arrive on, in order, ending with `ticks`
        a, b = self._frame_clock
        first = period * ticks
        arrivals: dict[int, int] = {}
        k = self._next_frame
        while (t := k * a // b - first) < ticks:
            arrivals[t] = arrivals.get(t, 0) + 1
            k += 1
        self._next_frame = k
        arrival_ticks = [*arrivals, ticks]

        queues = self._queues
        queue_bits = self._queue_bits
        gen_counts = [0] * n
        cohort_delivered = [0] * n
        symbols_used = [0] * n
        # per vehicle, the period's delivery delays as flat (delay, packets)
        # runs in delivery order: every packet of a burst finished in one
        # tick shares one delay
        delay_runs: list[list[int]] = [[] for _ in range(n)]
        delivered = 0
        dropped = 0

        # the round-robin offset advances one per tick from the episode's start
        rr = period * ticks
        scalar_until = 0
        t = 0
        while t < ticks:
            now_ms = start_ms + t * tick_ms
            frames = arrivals.get(t)
            if frames:
                for _ in range(frames):
                    for v in range(n):
                        gen_counts[v] += self._enqueue_frame(v, now_ms, period, modes[v])
            elif not any(queue_bits):
                # empty cell: nothing to drop, schedule or drain before the next frame
                t = arrival_ticks[bisect.bisect_right(arrival_ticks, t)]
                continue
            if queue_bits.count(0) == n - 1:
                # one backlogged vehicle has the cell to itself up to the next frame
                end, sent, lost = self._drain_lone(
                    queue_bits.index(max(queue_bits)), t, arrival_ticks[bisect.bisect_right(arrival_ticks, t)],
                    eff_list, start_ms, period, symbols_used, cohort_delivered, delay_runs,
                )
                delivered += sent
                dropped += lost
                if end > t:
                    t = end
                    continue
            # bursts older than the residency bound are dropped whole, then
            # each backlogged, non-outage vehicle asks for the symbols that
            # would empty its queue
            cutoff = now_ms - drop_ms
            at = t * n  # the tick's row in the flat efficiencies
            needs = {}
            for v in range(n):
                q = queues[v]
                if not q:
                    continue
                while q and q[0][_ARRIVAL] < cutoff:
                    _, _, packets, size, sent = q.popleft()
                    dropped += packets - sent // full_bits
                    queue_bits[v] -= size - sent
                if queue_bits[v] > 0 and eff_list[at + v] > 0.0:
                    needs[v] = math.ceil(queue_bits[v] / (re_sym * eff_list[at + v]))
            # at an equal share of symbols_per_tick / m, the smallest need
            # lasts min(need) * m / symbols_per_tick ticks; when that covers
            # the break-even, try to run this tick and the ones after it as
            # one stretch, up to the next frame, the next drop or the next
            # outage change of a backlogged vehicle, whichever comes first
            if (
                t >= scalar_until
                and needs
                and min(needs.values()) * len(needs) ** 2 >= _STRETCH_MIN_VEHICLE_TICKS * symbols_per_tick
            ):
                limit = arrival_ticks[bisect.bisect_right(arrival_ticks, t)]
                oldest = min(q[0][_ARRIVAL] for q in queues if q)
                limit = bisect.bisect_right(
                    range(t + 1, limit), oldest, key=lambda u: start_ms + u * tick_ms - drop_ms
                ) + t + 1
                if outage_flips is not None:
                    for v in range(n):
                        if queue_bits[v] > 0:
                            flips = outage_flips[v]
                            i = bisect.bisect_right(flips, base + t)
                            if i < len(flips) and flips[i] < base + limit:
                                limit = flips[i] - base
                if (limit - t) * len(needs) < _STRETCH_MIN_VEHICLE_TICKS:
                    scalar_until = limit
                else:
                    end, sent = self._drain_stretch(
                        t, limit, list(needs), eff, rr, start_ms, period,
                        symbols_used, cohort_delivered, delay_runs,
                    )
                    delivered += sent
                    if end > t:
                        t = end
                        continue
            now_end = now_ms + tick_ms
            for v, sym in self._water_fill(needs, symbols_per_tick, rr + t).items():
                symbols_used[v] += sym
                bits = int(sym * re_sym * eff_list[at + v])
                queue_bits[v] -= min(bits, queue_bits[v])
                got, own = _serve(queues[v], bits, now_end, period, delay_runs[v], full_bits)
                delivered += got
                cohort_delivered[v] += own
            t += 1

        self.total_delivered += delivered
        self.total_dropped += dropped

        # -- aggregation ------------------------------------------------
        mean_sinr = self._mean_sinr[period - self._block_start]
        mean_mcs = self._mean_mcs[period - self._block_start]
        kpis: list[StepKpis] = []
        for v in range(n):
            runs = delay_runs[v]
            if runs:
                # delays are whole milliseconds, so the sum is exact and the
                # mean equals numpy's; std needs numpy's summation order, so
                # the runs stay in delivery order
                values, counts = runs[0::2], runs[1::2]
                d_max, d_min = float(max(values)), float(min(values))
                total = sum(counts)
                d_mean = sum(map(operator.mul, values, counts)) / total
                # numpy's two-pass std, spelled out without its wrapper:
                # d_mean is its mean, and each run's squared deviation,
                # repeated, is the summand array of its second pass
                pairs = np.array(runs)
                x = pairs[0::2] - d_mean
                x *= x
                d_std = math.sqrt(np.add.reduce(x.repeat(pairs[1::2])) / total)
            else:
                # nothing delivered: saturate at the residency bound
                d_mean = d_max = d_min = cfg.queue_drop_ms
                d_std = 0.0
            gen = gen_counts[v]
            got = cohort_delivered[v]
            kpis.append(StepKpis(
                round(mean_mcs[v]), symbols_used[v], mean_sinr[v], d_mean, d_max, d_min, d_std,
                got / gen if gen > 0 else 1.0, gen, got,
            ))

        self._step_count += 1
        return state_vector(kpis, cfg, self.mcs_table.index_max), kpis, self.done
