"""A per-packet reference model of the cell: channel, queues, scheduler and KPIs.

Written from the README's model notes, not from `pqossim.env`: it shares
none of the env's channel blocks, frame clock, burst encoding,
packet-count rule, drains, stretches or round-robin tables.

`ReferenceChannel` steps the channel one tick at a time in scalar Python:
the route as four plain branches on the arc length, the position at the
tick's start, `math.hypot` and `math.log10`, one AR(1) chain per vehicle
fed by one size-n normal draw per tick, and a linear scan of the MCS
thresholds. `ReferenceCell` holds one deque of single packets per vehicle;
every tick queues the frame whose exact send time falls in it (in
`Fraction` arithmetic), drops the packets older than the residency bound,
water-fills the symbol budget on the reference channel's efficiencies and
sends the granted bits packet by packet, and every delivered packet keeps
its own delay. So it runs end to end from a config, a seed and a mode
sequence.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np


class ReferenceChannel:
    """The channel of `config`, one tick at a time, seeded like `NetworkEnv.reset(seed)`.

    `mcs_table` replaces the config's table when given.
    """

    def __init__(self, config, seed: int, mcs_table=None):
        self.config = config
        n = config.n_vehicles
        table = config.mcs_table if mcs_table is None else mcs_table
        self.thresholds = table.thresholds.tolist()
        self.efficiencies = table.efficiencies.tolist()
        # reset spawns (mobility, shadowing, payload) streams from the seed
        mobility, shadowing, _ = np.random.SeedSequence(seed).spawn(3)
        self.phases = np.random.default_rng(mobility).uniform(0.0, config.route_perimeter_m, size=n).tolist()
        self._shadow_rng = np.random.default_rng(shadowing)
        self.shadow = self._shadow_rng.normal(0.0, config.shadowing_sigma_db, size=n).tolist()
        self.tick = 0

    def _distance(self, s: float) -> float:
        """Distance to the gNB at arc length s of the route.

        The route runs counterclockwise from (a, -b): up the right side,
        along the top, down the left side and back along the bottom.
        """
        a, b = self.config.route_half_length_m, self.config.route_half_width_m
        if s < 2 * b:
            x, y = a, s - b
        elif s < 2 * b + 2 * a:
            x, y = a - (s - 2 * b), b
        elif s < 4 * b + 2 * a:
            x, y = -a, b - (s - (2 * b + 2 * a))
        else:
            x, y = (s - (4 * b + 2 * a)) - a, -b
        return math.hypot(x, y)

    def _mcs(self, sinr: float) -> tuple[int, float]:
        """(MCS index, efficiency) of the highest threshold at or below `sinr`; (0, 0.0) in outage."""
        above = 0
        for threshold in self.thresholds:
            if sinr < threshold:
                break
            above += 1
        return (above - 1, self.efficiencies[above - 1]) if above else (0, 0.0)

    def next_tick(self) -> list[tuple[float, int, float]]:
        """(SINR dB, MCS index, efficiency) per vehicle for the next tick."""
        cfg = self.config
        rho = cfg.shadowing_corr
        scale = cfg.shadowing_sigma_db * math.sqrt(1.0 - rho * rho)
        now_s = self.tick * cfg.tick_ms / 1000  # the tick's start
        self.tick += 1
        out = []
        for v, z in enumerate(self._shadow_rng.standard_normal(cfg.n_vehicles).tolist()):
            self.shadow[v] = z * scale + rho * self.shadow[v]
            s = (self.phases[v] + cfg.speed_mps * now_s) % cfg.route_perimeter_m
            pathloss = cfg.pathloss_ref_db + 10.0 * cfg.pathloss_exponent * math.log10(max(self._distance(s), 1.0))
            sinr = cfg.tx_power_dbm - pathloss + self.shadow[v] - cfg.noise_dbm
            out.append((sinr, *self._mcs(sinr)))
        return out

    def next_period(self):
        """The next control period's ticks and per-vehicle means.

        Returns (ticks, mean SINR, mean MCS): `ticks` holds one
        `next_tick()` row per tick, and the means are each vehicle's tick
        means, the SINR one summed exactly (`math.fsum`).
        """
        n = self.config.n_vehicles
        count = self.config.ticks_per_period
        ticks = [self.next_tick() for _ in range(count)]
        mean_sinr = [math.fsum(row[v][0] for row in ticks) / count for v in range(n)]
        mean_mcs = [sum(row[v][1] for row in ticks) / count for v in range(n)]
        return ticks, mean_sinr, mean_mcs


def water_fill(needs: dict[int, int], budget: int, tick: int) -> dict[int, int]:
    """Split one tick's `budget` symbols among vehicles wanting `needs` symbols.

    Each round shares what is left equally among the vehicles still short
    of their need, taken in vehicle order. The remainder goes one symbol
    each to the vehicles from position `tick` mod (their count) on, wrapping
    round. A vehicle takes at most what it still needs, and whatever it
    leaves is shared in the next round. Returns the positive grants.
    """
    short = {v: need for v, need in needs.items() if need > 0}
    grants = dict.fromkeys(short, 0)
    left = budget
    while left > 0 and short:
        order = sorted(short)
        share, extra = divmod(left, len(order))
        start = tick % len(order)
        for position, v in enumerate(order[start:] + order[:start]):
            take = min(share + (1 if position < extra else 0), short[v])
            grants[v] += take
            short[v] -= take
            left -= take
            if short[v] == 0:
                del short[v]
    return {v: g for v, g in grants.items() if g > 0}


class ReferenceCell:
    """The cell of `config`, one packet at a time, seeded like `NetworkEnv.reset(seed)`.

    After each `step`, `last_period` holds that period's `ReferenceChannel.next_period()`.
    """

    def __init__(self, config, seed: int):
        self.config = config
        n = config.n_vehicles
        self.channel = ReferenceChannel(config, seed)
        self.last_period = None
        payload_seed = np.random.SeedSequence(seed).spawn(3)[2]
        self._payload = np.random.default_rng(payload_seed)
        # each packet is [arrival ms, generating period, bits still to send]
        self.queues = [deque() for _ in range(n)]
        self.backlog = [0] * n  # bits queued per vehicle
        self.period = 0
        self.generated = self.delivered = self.dropped = 0

    def queued(self) -> int:
        return sum(len(q) for q in self.queues)

    def _frame_ticks(self) -> list[int]:
        """The tick of this period each frame arrives in, one entry per frame.

        Frame k of the episode is sent at exactly k / frame_rate_hz seconds
        and arrives in the tick holding that time.
        """
        cfg = self.config
        per_tick = Fraction(cfg.frame_rate_hz) * cfg.tick_ms / 1000  # frames per tick, exactly
        first_tick = self.period * cfg.ticks_per_period
        ticks = []
        k = math.ceil(first_tick * per_tick)
        while (tick := math.floor(k / per_tick)) < first_tick + cfg.ticks_per_period:
            ticks.append(tick - first_tick)
            k += 1
        return ticks

    def _queue_frame(self, v: int, mode, arrival: int) -> int:
        cfg = self.config
        payload_kb = mode.mean_payload_kb * (1.0 + cfg.payload_cv * self._payload.standard_normal())
        payload = int(round(max(1.0, payload_kb) * 1000.0))  # bytes
        size = cfg.packet_size_bytes
        count = -(-payload // size)
        for i in range(count):
            last = i == count - 1
            bits = 8 * (payload - (count - 1) * size if last else size)
            self.queues[v].append([arrival, self.period, bits])
        self.backlog[v] += 8 * payload
        self.generated += count
        return count

    def step(self, modes) -> list[tuple]:
        """Run one control period; returns per vehicle the ten `StepKpis` values."""
        cfg = self.config
        self.last_period = self.channel.next_period()
        channel, mean_sinr, mean_mcs = self.last_period
        n = cfg.n_vehicles
        ticks = cfg.ticks_per_period
        re_sym = cfg.re_per_symbol
        budget = cfg.symbols_per_tick
        start = self.period * cfg.control_period_ms
        frame_ticks = self._frame_ticks()
        generated = [0] * n
        own_delivered = [0] * n
        symbols = [0] * n
        delays: list[list[int]] = [[] for _ in range(n)]

        for t in range(ticks):
            now = start + t * cfg.tick_ms
            for _ in range(frame_ticks.count(t)):
                for v in range(n):
                    generated[v] += self._queue_frame(v, modes[v], now)
            cutoff = now - cfg.queue_drop_ms
            needs = {}
            for v, q in enumerate(self.queues):
                while q and q[0][0] < cutoff:
                    self.backlog[v] -= q.popleft()[2]
                    self.dropped += 1
                eff = channel[t][v][2]
                if self.backlog[v] > 0 and eff > 0.0:
                    needs[v] = math.ceil(self.backlog[v] / (re_sym * eff))
            grants = water_fill(needs, budget, self.period * ticks + t)
            assert sum(grants.values()) == min(budget, sum(needs.values())), "symbols left idle"
            for v, sym in grants.items():
                symbols[v] += sym
                bits = int(sym * re_sym * channel[t][v][2])
                self.backlog[v] -= min(bits, self.backlog[v])
                q = self.queues[v]
                while bits > 0 and q:
                    packet = q[0]
                    if bits < packet[2]:
                        packet[2] -= bits
                        break
                    bits -= packet[2]
                    q.popleft()
                    delays[v].append(now + cfg.tick_ms - packet[0])
                    self.delivered += 1
                    if packet[1] == self.period:
                        own_delivered[v] += 1

        kpis = []
        for v in range(n):
            d = delays[v]
            if d:
                count, total = len(d), sum(d)
                mean = Fraction(total, count)
                var = Fraction(count * sum(x * x for x in d) - total * total, count * count)
                stats = (float(mean), float(max(d)), float(min(d)), math.sqrt(var.numerator / var.denominator))
            else:
                drop = cfg.queue_drop_ms
                stats = (drop, drop, drop, 0.0)
            gen = generated[v]
            prr = own_delivered[v] / gen if gen else 1.0
            kpis.append((round(mean_mcs[v]), symbols[v], mean_sinr[v], *stats, prr, gen, own_delivered[v]))
        self.period += 1
        return kpis
