"""A per-packet reference model of the cell's queues, scheduler and KPIs.

Written from the README's model notes, not from `pqossim.env`: it shares
none of the env's frame clock, burst encoding, packet-count rule, drains,
stretches or round-robin tables. Every vehicle holds one deque of single
packets; every tick queues the frames whose exact send time falls in it
(in `Fraction` arithmetic), drops the packets older than the residency
bound, water-fills the symbol budget and sends the granted bits packet by
packet, and every delivered packet keeps its own delay.

It takes the channel from the env under test (each period's per-tick
efficiencies and its mean SINR and MCS), so a differential test checks
frame timing, queueing, scheduling and aggregation, not channel arithmetic.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np


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
    """The cell of `config`, one packet at a time, seeded like `NetworkEnv.reset(seed)`."""

    def __init__(self, config, seed: int):
        self.config = config
        n = config.n_vehicles
        # reset spawns (mobility, shadowing, payload) streams from the seed
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

    def step(self, modes, eff, mean_sinr, mean_mcs) -> list[tuple]:
        """Run one control period; returns per vehicle the ten `StepKpis` values.

        `eff` is the period's (ticks, n) spectral efficiencies and
        `mean_sinr`/`mean_mcs` its per-vehicle tick means.
        """
        cfg = self.config
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
                if self.backlog[v] > 0 and eff[t][v] > 0.0:
                    needs[v] = math.ceil(self.backlog[v] / (re_sym * eff[t][v]))
            grants = water_fill(needs, budget, self.period * ticks + t)
            assert sum(grants.values()) == min(budget, sum(needs.values())), "symbols left idle"
            for v, sym in grants.items():
                symbols[v] += sym
                bits = int(sym * re_sym * eff[t][v])
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
