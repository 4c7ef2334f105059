"""Output checks that recompute what pqossim wrote without calling pqossim.

Every formula here (the reward, the QoS predicate, the epsilon schedule,
the replay-fill rule, the figure counts) is written out again from the
paper and the documented CSV layout, so a fault in the library's own code
path cannot make its outputs look right. Inputs (the experiment config)
come from the workload; only the numbers in the CSV files are judged.

A failed check marks vehicle-periods as failed: the rows it names, or
every row of the run when the whole output is wrong.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RECORDS_HEADER = [
    "episode", "step", "vehicle", "action", "mcs_index", "ofdm_symbols_used",
    "sinr_db", "delay_mean", "delay_max", "delay_min", "delay_std", "prr",
    "packets_generated", "packets_delivered", "cd", "reward", "qos_met", "policy",
]

# Chamfer distance of each application mode (paper, Table of modes).
MODE_CD = {0: 0.0, 1450: 0.000044, 1451: 5.476881, 1452: 35.634660}
MODE_IDS = tuple(MODE_CD)
AGENT_ACTIONS = (1450, 1451, 1452)

TOL = 1e-12
MAX_MESSAGES = 40


@dataclass
class RunSpec:
    """One call into a run_* entry point and what its outputs must satisfy."""

    name: str  # output directory, relative to the round directory
    phase: str  # "offline", "online" or "test"
    label: str  # expected `policy` column
    config: object  # the ExperimentConfig the run was given
    episodes: int
    mode_id: int | None = None  # constant test policy, None otherwise

    @property
    def steps(self) -> int:
        sim = self.config.sim
        return int(round(sim.episode_duration_s * 1000.0 / sim.control_period_ms))

    @property
    def vehicles(self) -> int:
        return self.config.sim.n_vehicles

    @property
    def ops(self) -> int:
        return self.episodes * self.steps * self.vehicles

    def keys(self):
        return [
            (e, s, v)
            for e in range(self.episodes)
            for s in range(self.steps)
            for v in range(self.vehicles)
        ]


class Failures:
    """Failed vehicle-periods, keyed (run, episode, step, vehicle)."""

    def __init__(self):
        self.bad: set[tuple] = set()
        self.messages: list[str] = []
        self.count = 0

    def add(self, spec: RunSpec, message: str, keys=None) -> None:
        self.count += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"{spec.name}: {message}")
        for key in spec.keys() if keys is None else keys:
            self.bad.add((spec.name, *key))

    @property
    def ok(self) -> bool:
        return self.count == 0


@dataclass(slots=True)
class Row:
    episode: int
    step: int
    vehicle: int
    action: int
    mcs_index: int
    symbols: int
    sinr_db: float
    delay_mean: float
    delay_max: float
    delay_min: float
    delay_std: float
    prr: float
    generated: int
    delivered: int
    cd: float
    reward: float
    qos_met: int
    policy: str

    @property
    def key(self):
        return (self.episode, self.step, self.vehicle)


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        return header, list(reader)


def read_records(path: Path):
    header, raw = _read_csv(path)
    if header != RECORDS_HEADER:
        raise ValueError(f"records header {header}")
    rows = []
    for r in raw:
        rows.append(
            Row(
                int(r[0]), int(r[1]), int(r[2]), int(r[3]), int(r[4]), int(r[5]),
                float(r[6]), float(r[7]), float(r[8]), float(r[9]), float(r[10]),
                float(r[11]), int(r[12]), int(r[13]), float(r[14]), float(r[15]),
                int(r[16]), r[17],
            )
        )
    return rows


def paper_reward(prr: float, delay_ms: float, cd: float, alpha: float, delta_m: float, cd_m: float):
    """(reward, qos_met): zero unless every packet arrived and delay < delta_m."""
    met = prr == 1.0 and delay_ms < delta_m
    if not met:
        return 0.0, met
    return (1.0 - alpha) * (delta_m - delay_ms) / delta_m + alpha * (cd_m - cd) / cd_m, met


def epsilon_schedule(spec: RunSpec, episode: int) -> float:
    agent = spec.config.agent
    if spec.phase == "offline":
        return 1.0
    if spec.phase == "test":
        return 0.0
    if episode >= agent.eps_decay_episodes:
        return agent.eps_end
    return agent.eps_start + (agent.eps_end - agent.eps_start) * episode / agent.eps_decay_episodes


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_run(spec: RunSpec, run_dir: Path, failures: Failures):
    """Check one run's records, episodes and figure CSVs; returns its rows."""
    try:
        rows = read_records(run_dir / "records.csv")
    except (OSError, ValueError, IndexError) as exc:
        failures.add(spec, f"records.csv unreadable: {exc}")
        return None
    keys = spec.keys()
    if [r.key for r in rows] != keys:
        failures.add(spec, f"{len(rows)} rows, expected {len(keys)} in episode/step/vehicle order")
        return None
    _check_rows(spec, rows, failures)
    _check_episodes(spec, run_dir, rows, failures)
    _check_figures(spec, run_dir, rows, failures)
    return rows


def _check_rows(spec: RunSpec, rows, failures: Failures) -> None:
    sim, reward = spec.config.sim, spec.config.reward
    budget = sim.symbols_per_tick * (sim.control_period_ms // sim.tick_ms)
    alpha, delta_m, cd_m = reward.alpha, reward.delta_m_ms, reward.cd_m
    for r in rows:
        problems = []
        if r.policy != spec.label:
            problems.append(f"policy {r.policy!r} != {spec.label!r}")
        if not 0.0 <= r.prr <= 1.0:
            problems.append(f"prr {r.prr} outside [0, 1]")
        if not r.delay_min <= r.delay_mean <= r.delay_max:
            problems.append("delay_min <= delay_mean <= delay_max violated")
        if r.delay_std < 0.0:
            problems.append("delay_std < 0")
        if not 0 <= r.delivered <= r.generated:
            problems.append(f"delivered {r.delivered} > generated {r.generated}")
        expected_prr = r.delivered / r.generated if r.generated else 1.0
        if not _close(r.prr, expected_prr):
            problems.append(f"prr {r.prr} != delivered/generated {expected_prr}")
        if not 0 <= r.symbols <= budget:
            problems.append(f"symbols {r.symbols} outside [0, {budget}]")
        if r.action not in MODE_CD or r.cd != MODE_CD[r.action]:
            problems.append(f"cd {r.cd} does not belong to mode {r.action}")
        want_reward, want_met = paper_reward(r.prr, r.delay_mean, r.cd, alpha, delta_m, cd_m)
        if r.qos_met != int(want_met):
            problems.append(f"qos_met {r.qos_met} != {int(want_met)}")
        if not _close(r.reward, want_reward):
            problems.append(f"reward {r.reward!r} != {want_reward!r}")
        if spec.phase == "offline":
            if r.action != AGENT_ACTIONS[r.episode % len(AGENT_ACTIONS)]:
                problems.append(f"offline action {r.action} breaks the round-robin")
        elif spec.mode_id is not None:
            if r.action != spec.mode_id:
                problems.append(f"action {r.action} != constant mode {spec.mode_id}")
            if spec.mode_id == 0 and r.qos_met:
                problems.append("raw mode met QoS")
        elif r.action not in AGENT_ACTIONS:
            problems.append(f"action {r.action} not in the agent's action set")
        if problems:
            failures.add(spec, f"row {r.key}: " + "; ".join(problems), [r.key])


def _per_episode(rows):
    out: dict[int, list] = {}
    for r in rows:
        out.setdefault(r.episode, []).append(r)
    return out


def _check_episodes(spec: RunSpec, run_dir: Path, rows, failures: Failures) -> None:
    try:
        header, lines = _read_csv(run_dir / "episodes.csv")
    except OSError as exc:
        failures.add(spec, f"episodes.csv unreadable: {exc}")
        return
    want_header = ["episode", "epsilon", "mean_reward", "qos_fraction"] + [
        f"count_{m}" for m in MODE_IDS
    ]
    by_episode = _per_episode(rows)
    if header != want_header or len(lines) != spec.episodes:
        failures.add(spec, "episodes.csv header or length wrong")
        return
    for line in lines:
        episode = int(line[0])
        ep_rows = by_episode.get(episode, [])
        ep_keys = [r.key for r in ep_rows]
        n = len(ep_rows)
        if not n:
            failures.add(spec, f"episodes.csv names unknown episode {episode}")
            continue
        if not _close(float(line[1]), epsilon_schedule(spec, episode)):
            failures.add(spec, f"episode {episode}: epsilon {line[1]} off schedule", ep_keys)
        mean_reward = math.fsum(r.reward for r in ep_rows) / n
        qos_fraction = sum(r.qos_met for r in ep_rows) / n
        counts = [sum(1 for r in ep_rows if r.action == m) for m in MODE_IDS]
        if (
            not _close(float(line[2]), mean_reward, 1e-9)
            or not _close(float(line[3]), qos_fraction, 1e-9)
            or [int(c) for c in line[4:]] != counts
        ):
            failures.add(spec, f"episode {episode}: episodes.csv disagrees with records", ep_keys)


def _check_figures(spec: RunSpec, run_dir: Path, rows, failures: Failures) -> None:
    total = len(rows)
    try:
        # qos_distribution: one line per outcome
        header, lines = _read_csv(run_dir / "qos_distribution.csv")
        met = sum(r.qos_met for r in rows)
        want = [(0, total - met), (1, met)]
        got = [(int(a), int(b)) for a, b, _ in lines]
        if header != ["qos_met", "count", "fraction"] or got != want or not all(
            _close(float(f), c / total) for (_, c), (_, _, f) in zip(want, lines)
        ):
            failures.add(spec, f"qos_distribution.csv {got} != recount {want}")

        # cd_distribution: histogram of the chamfer distance per row
        header, lines = _read_csv(run_dir / "cd_distribution.csv")
        recount: dict[float, int] = {}
        for r in rows:
            recount[r.cd] = recount.get(r.cd, 0) + 1
        got_cd = {float(a): int(b) for a, b, _ in lines}
        if header != ["cd", "count", "fraction"] or got_cd != recount:
            failures.add(spec, f"cd_distribution.csv {got_cd} != recount {recount}")

        # action_probability: per-episode selection frequency of each mode
        header, lines = _read_csv(run_dir / "action_probability.csv")
        if header != ["episode"] + [f"p_{m}" for m in MODE_IDS] or len(lines) != spec.episodes:
            failures.add(spec, "action_probability.csv header or length wrong")
        else:
            by_episode = _per_episode(rows)
            for line in lines:
                ep_rows = by_episode[int(line[0])]
                want_p = [sum(1 for r in ep_rows if r.action == m) / len(ep_rows) for m in MODE_IDS]
                if not all(_close(float(g), w) for g, w in zip(line[1:], want_p)):
                    failures.add(
                        spec, f"action_probability.csv episode {line[0]} != recount",
                        [r.key for r in ep_rows],
                    )

        # delay_boxplot: quartiles and 1.5 IQR whiskers of the per-row mean delay
        header, lines = _read_csv(run_dir / "delay_boxplot.csv")
        delays = [r.delay_mean for r in rows]
        label, med, p25, p75, lo, hi = lines[0]
        med, p25, p75, lo, hi = (float(x) for x in (med, p25, p75, lo, hi))
        if (
            len(lines) != 1
            or label != spec.label
            or not min(delays) <= lo <= p25 <= med <= p75 <= hi <= max(delays)
            or not _close(med, statistics.median(delays), 1e-9)
        ):
            failures.add(spec, "delay_boxplot.csv inconsistent with the recorded delays")

        # reward_distribution: percentiles 0..100 of the reward mapped onto [-1, 1]
        header, lines = _read_csv(run_dir / "reward_distribution.csv")
        values = [float(v) for _, v in lines]
        rewards = [r.reward for r in rows]
        if (
            [int(q) for q, _ in lines] != list(range(101))
            or any(b < a for a, b in zip(values, values[1:]))
            or not _close(values[0], 2.0 * min(rewards) - 1.0)
            or not _close(values[-1], 2.0 * max(rewards) - 1.0)
        ):
            failures.add(spec, "reward_distribution.csv inconsistent with the recorded rewards")
    except (OSError, ValueError, IndexError, KeyError, StopIteration) as exc:
        failures.add(spec, f"figure CSV unreadable: {exc!r}")


def learning_steps(spec: RunSpec, rows) -> int:
    """Periods in which the phase's fresh replay buffer held a full batch.

    Every row with traffic pushes one transition before the period's
    sample; a gradient step runs whenever the buffer then holds a batch.
    """
    agent = spec.config.agent
    pushed = steps = 0
    for _, period_rows in itertools.groupby(rows, key=lambda r: (r.episode, r.step)):
        pushed += sum(r.generated > 0 for r in period_rows)
        steps += min(pushed, agent.replay_capacity) >= agent.batch_size
    return steps


def check_training(offline: RunSpec, online: RunSpec, rows: dict, round_dir: Path, failures: Failures):
    """Checkpoint step counts follow the replay-fill rule across both phases."""
    if rows.get(offline.name) is None or rows.get(online.name) is None:
        return
    want_off = learning_steps(offline, rows[offline.name])
    want_on = want_off + learning_steps(online, rows[online.name])
    for spec, want in ((offline, want_off), (online, want_on)):
        try:
            with np.load(round_dir / spec.name / "checkpoint.npz", allow_pickle=False) as data:
                got = int(data["step_count"])
        except (OSError, ValueError, KeyError) as exc:
            failures.add(spec, f"checkpoint unreadable: {exc}")
            continue
        if got != want:
            failures.add(spec, f"checkpoint step_count {got} != {want} periods with a full batch")


def check_same_channel(specs: list[RunSpec], rows: dict, failures: Failures) -> None:
    """Runs under one seed face one channel, whatever the policy."""
    ref = next((s for s in specs if rows.get(s.name) is not None), None)
    if ref is None:
        return
    want = [(r.sinr_db, r.mcs_index) for r in rows[ref.name]]
    for spec in specs:
        got = rows.get(spec.name)
        if got is None or spec is ref:
            continue
        bad = [r.key for r, w in zip(got, want) if (r.sinr_db, r.mcs_index) != w]
        if bad:
            failures.add(spec, f"{len(bad)} rows see another channel than {ref.name}", bad)


def digest_tree(root: Path) -> dict[str, str]:
    """SHA-256 of every CSV under root, keyed by relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*.csv"))
    }


class EnvWatch:
    """Packet conservation and scheduler idleness of every env the library builds.

    Installed as a wrapper around `NetworkEnv.reset`: when an env starts a
    new episode, the episode it just finished is checked; `finish` checks
    the last episode of every env seen since the previous call. Both read
    the env's public counters: generated = delivered + dropped + queued, and
    no tick left symbols idle while a schedulable vehicle waited.

    It also notes the `perf_counter_ns` time of every reset in `marks`, which
    cut a round into the same episode-sized segments every time it runs.
    """

    def __init__(self, env_class):
        self._envs: dict[int, object] = {}
        self.problems: list[str] = []
        self.marks: list[int] = []
        original = vars(env_class)["reset"]
        envs = self._envs
        marks = self.marks
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def reset(env, *args, **kwargs):
            marks.append(clock())
            if id(env) in envs:
                self._check(env)
            else:
                envs[id(env)] = env
            return original(env, *args, **kwargs)

        env_class.reset = reset

    def _check(self, env) -> None:
        queued = env.queued_packets()
        accounted = env.total_delivered + env.total_dropped + queued
        if env.total_generated != accounted:
            self.problems.append(
                f"packets generated {env.total_generated} != delivered {env.total_delivered}"
                f" + dropped {env.total_dropped} + queued {queued}"
            )
        if env.scheduler_idle_violations:
            self.problems.append(f"{env.scheduler_idle_violations} scheduler idle violations")

    def finish(self) -> list[str]:
        """Check every env's last episode; return and clear the problems seen."""
        for env in self._envs.values():
            self._check(env)
        self._envs.clear()
        problems, self.problems = self.problems, []
        return problems
