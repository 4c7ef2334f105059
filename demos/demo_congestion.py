"""Congestion phenomenology: what each constant mode does to the cell.

Runs one seeded episode per mode at five vehicles and prints the per-period
fleet averages. The raw stream (mode 0) overloads any configuration: watch
its delay ramp to the drop bound while PRR collapses. The heavily
compressed mode 1452 stays comfortable; 1450/1451 sit in between.
"""

import numpy as np

from pqossim import CANONICAL_MODES, NetworkEnv, SimConfig

cfg = SimConfig(n_vehicles=5, episode_duration_s=3.0, rng_seed=1)

for mode in CANONICAL_MODES:
    env = NetworkEnv(cfg)
    env.reset()
    print(f"\nmode {mode.mode_id} ({mode.mean_payload_kb:.0f} KB per frame)")
    print("period  mean_delay_ms  prr    backlog_packets  mean_sinr_db")
    done, period = False, 0
    while not done:
        _, kpis, done = env.step([mode] * 5)
        delay = np.mean([k.delay_mean for k in kpis])
        prr = np.mean([k.prr for k in kpis])
        sinr = np.mean([k.sinr_db for k in kpis])
        print(
            f"{period:>6}  {delay:13.1f}  {prr:5.3f}  {env.queued_packets():>15}  {sinr:12.1f}"
        )
        period += 1
    print(
        f"totals: generated={env.total_generated} delivered={env.total_delivered} "
        f"dropped={env.total_dropped}"
    )
