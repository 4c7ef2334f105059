"""Experiment orchestration: training phases, test phase, CSV outputs.

The protocol has three phases. Offline training fixes one action for a
whole episode, cycling round-robin through the agent's action set so the
replay buffer sees every mode under every channel condition. Online
training switches to per-step epsilon-greedy decisions with a linearly
decaying epsilon. The test phase runs a frozen policy (greedy DQL or a
constant baseline) with learning disabled and summarizes the results.

One agent serves the whole fleet: every vehicle contributes transitions
to the shared replay buffer, and one gradient step runs per control
period once the buffer holds a full batch.

Episode channel realizations are seeded per (base seed, phase, episode),
independent of the policy, so different policies tested under the same
seed face identical conditions.
"""

from __future__ import annotations

import csv
import hashlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .atomic import atomic_open
from .config import ExperimentConfig
from .dqn import DqnAgent, ReplayBuffer, Transition
from .env import NetworkEnv, StepKpis
from .modes import AGENT_ACTION_MODES, CANONICAL_MODES, ApplicationMode
from .policies import ConstantPolicy, DqlTrainingPolicy
from .reward import QosSample, compute_reward, normalize_reward, qos_met

_PHASE_CODES = {"offline": 1, "online": 2, "test": 3}

# One vehicle-period record, the unit of every CSV export: its fields are
# the records.csv columns in order, less the run-level `policy` label.
StepRow = NamedTuple(
    "StepRow",
    [
        ("episode", int),
        ("step", int),
        ("vehicle", int),
        ("action", int),
        *get_type_hints(StepKpis).items(),
        ("cd", float),
        ("reward", float),
        ("qos_met", int),
    ],
)

RECORDS_HEADER = [*StepRow._fields, "policy"]
_COLUMN_TYPES = tuple(get_type_hints(StepRow).values())

FIGURE_FILES = (
    "action_probability.csv",
    "cd_distribution.csv",
    "qos_distribution.csv",
    "delay_boxplot.csv",
    "reward_distribution.csv",
)


@dataclass
class EpisodeRecord:
    """The step rows of one episode.

    `policy` is the run-level label carried into every CSV row: the phase
    name for training records, the policy name for test records.
    """

    episode: int
    epsilon: float
    policy: str = "run"
    rows: list[StepRow] = field(default_factory=list)

    @property
    def action_counts(self) -> Counter:
        return Counter(row.action for row in self.rows)


@dataclass
class TestSummary:
    """Distribution statistics of a test run (reporting scale)."""

    policy: str
    episodes: int
    steps: int
    qos_fraction: float
    median_reward: float
    max_reward: float
    delay_median: float
    delay_p25: float
    delay_p75: float
    delay_whisker_low: float
    delay_whisker_high: float
    action_fractions: dict[int, float]


def _episode_seed(base_seed: int, phase: str, episode: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([base_seed, _PHASE_CODES[phase], episode])


def _epsilon_for_episode(cfg, episode: int) -> float:
    """Linear decay from eps_start to eps_end over eps_decay_episodes."""
    if episode >= cfg.eps_decay_episodes:
        return cfg.eps_end
    frac = episode / cfg.eps_decay_episodes
    return cfg.eps_start + (cfg.eps_end - cfg.eps_start) * frac


def weights_digest(agent: DqnAgent) -> str:
    """SHA-256 over all online and target parameters; guards phase isolation."""
    h = hashlib.sha256()
    for net in (agent.online, agent.target):
        h.update(net.flat.tobytes())
    return h.hexdigest()


def _run_episode(env, policy, agent, buffer, rng, episode, episode_seed, epsilon, reward_params, label="run"):
    """One episode; returns its EpisodeRecord.

    Given a replay buffer, the episode learns: transitions flow into the
    buffer and one training step of `agent` runs per period once a batch
    is available. Periods that generated no traffic produce no transition.
    """
    record = EpisodeRecord(episode=episode, epsilon=epsilon, policy=label)
    rows = record.rows
    states = env.reset(episode_seed)
    n = env.config.n_vehicles
    step = 0
    done = False
    while not done:
        modes = [policy.decide(states[v], rng) for v in range(n)]
        next_states, kpis, done = env.step(modes)
        for v, (mode, k) in enumerate(zip(modes, kpis)):
            sample = QosSample(k.prr, k.delay_mean, mode.cd_sym)
            reward = compute_reward(sample, reward_params)
            met = qos_met(sample, reward_params)
            rows.append(StepRow(episode, step, v, mode.mode_id, *k, mode.cd_sym, reward, int(met)))
            if buffer is not None and k.packets_generated > 0:
                buffer.push(
                    Transition(
                        state=states[v],
                        action=_action_index(mode),
                        reward=reward,
                        next_state=next_states[v],
                        terminal=done,
                    )
                )
        if buffer is not None:
            batch = buffer.sample(agent.config.batch_size, rng)
            if batch is not None:
                agent.train_batch(batch)
        states = next_states
        step += 1
    return record


def _action_index(mode: ApplicationMode) -> int:
    try:
        return AGENT_ACTION_MODES.index(mode)
    except ValueError:
        raise ValueError(f"mode {mode.mode_id} is not in the agent action set") from None


def _run_episodes(config, phase, episodes, policy_for, label, agent=None, buffer=None):
    """Run one phase's episodes; `policy_for(episode)` gives (policy, epsilon).

    Channel realizations are seeded per (base seed, phase, episode) and the
    decision stream per (base seed, phase).
    """
    if episodes < 1:
        raise ValueError(f"{phase} phase needs at least one episode, got {episodes}")
    base_seed = config.sim.rng_seed
    env = NetworkEnv(config.sim)
    rng = np.random.default_rng(np.random.SeedSequence([base_seed, 100 + _PHASE_CODES[phase]]))
    records: list[EpisodeRecord] = []
    for episode in range(episodes):
        policy, epsilon = policy_for(episode)
        seed = _episode_seed(base_seed, phase, episode)
        records.append(
            _run_episode(env, policy, agent, buffer, rng, episode, seed, epsilon, config.reward, label)
        )
    return records


def _write_outputs(records: list[EpisodeRecord], output_dir) -> TestSummary:
    """Write records.csv, episodes.csv and the figure CSVs; returns the summary."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_records_csv(records, out / "records.csv")
    write_episodes_csv(records, out / "episodes.csv")
    return emit_figures_csv(records, out)


def run_offline_training(config: ExperimentConfig, output_dir, agent: DqnAgent | None = None):
    """Offline phase: one action fixed per episode, cycling round-robin.

    Returns (agent, records); writes records, per-episode stats, figure
    CSVs and the checkpoint under output_dir.
    """
    run = config.resolved_run()
    return _train(config, output_dir, "offline", run.offline_episodes, agent)


def run_online_training(config: ExperimentConfig, output_dir, agent: DqnAgent | None = None):
    """Online phase: per-step epsilon-greedy decisions with decaying epsilon."""
    run = config.resolved_run()
    return _train(config, output_dir, "online", run.online_episodes, agent)


def _train(config, output_dir, phase, episodes, agent):
    if agent is None:
        agent = DqnAgent(config.agent)

    def policy_for(episode):
        if phase == "offline":
            return ConstantPolicy(AGENT_ACTION_MODES[episode % len(AGENT_ACTION_MODES)]), 1.0
        epsilon = _epsilon_for_episode(config.agent, episode)
        return DqlTrainingPolicy(agent, epsilon), epsilon

    buffer = ReplayBuffer(config.agent.replay_capacity)
    records = _run_episodes(config, phase, episodes, policy_for, phase, agent, buffer)
    _write_outputs(records, output_dir)
    agent.save(Path(output_dir) / "checkpoint.npz")
    return agent, records


def run_test(config: ExperimentConfig, output_dir, policy, agent: DqnAgent | None = None):
    """Test phase: frozen policy, no learning, plus a distribution summary.

    `policy` is a ConstantPolicy or DqlGreedyPolicy. If `agent` is given,
    its weights are checksummed before and after to prove they never moved.
    Returns (records, summary).
    """
    if isinstance(policy, DqlTrainingPolicy):
        raise ValueError("test phase requires a frozen policy")
    digest_before = weights_digest(agent) if agent is not None else None
    label = getattr(policy, "name", "policy")
    episodes = config.resolved_run().test_episodes
    records = _run_episodes(config, "test", episodes, lambda episode: (policy, 0.0), label)
    if agent is not None and weights_digest(agent) != digest_before:
        raise RuntimeError("agent weights changed during the test phase")
    return records, _write_outputs(records, output_dir)


def summarize_test(records: list[EpisodeRecord], policy_name: str) -> TestSummary:
    rows = [r for rec in records for r in rec.rows]
    return _summarize(rows, _normalized_rewards(rows), len(records), policy_name)


def _normalized_rewards(rows: list[StepRow]) -> np.ndarray:
    return np.array([normalize_reward(r.reward) for r in rows])


def _summarize(rows: list[StepRow], rewards: np.ndarray, episodes: int, policy_name: str) -> TestSummary:
    if not rows:
        raise ValueError("no step rows to summarize")
    delays = np.array([r.delay_mean for r in rows])
    p25, med, p75 = np.percentile(delays, [25.0, 50.0, 75.0])
    iqr = p75 - p25
    in_low = delays[delays >= p25 - 1.5 * iqr]
    in_high = delays[delays <= p75 + 1.5 * iqr]
    counts = Counter(r.action for r in rows)
    total = len(rows)
    return TestSummary(
        policy=policy_name,
        episodes=episodes,
        steps=total,
        qos_fraction=sum(r.qos_met for r in rows) / total,
        median_reward=float(np.median(rewards)),
        max_reward=float(rewards.max()),
        delay_median=float(med),
        delay_p25=float(p25),
        delay_p75=float(p75),
        delay_whisker_low=float(in_low.min()),
        delay_whisker_high=float(in_high.max()),
        action_fractions={m: counts[m] / total for m in sorted(counts)},
    )


# -- CSV emission --------------------------------------------------------


@contextmanager
def _csv_file(path):
    """A csv writer onto `path`, which appears only once it is written whole."""
    with atomic_open(path) as fh:
        yield csv.writer(fh, lineterminator="\n")


def write_records_csv(records: list[EpisodeRecord], path) -> None:
    with _csv_file(path) as w:
        w.writerow(RECORDS_HEADER)
        for rec in records:
            w.writerows((*row, rec.policy) for row in rec.rows)


def write_episodes_csv(records: list[EpisodeRecord], path) -> None:
    mode_ids = [m.mode_id for m in CANONICAL_MODES]
    with _csv_file(path) as w:
        w.writerow(
            ["episode", "epsilon", "mean_reward", "qos_fraction"]
            + [f"count_{m}" for m in mode_ids]
        )
        for rec in records:
            counts = rec.action_counts
            mean_reward = float(np.mean([r.reward for r in rec.rows]))
            qos_fraction = float(np.mean([r.qos_met for r in rec.rows]))
            w.writerow([rec.episode, rec.epsilon, mean_reward, qos_fraction] + [counts[m] for m in mode_ids])


def emit_figures_csv(records: list[EpisodeRecord], output_dir) -> TestSummary:
    """Write the five figure-ready CSVs for a set of episode records.

    Returns the records' `TestSummary`, labeled with their policy, which
    the delay boxplot is drawn from.

    action_probability: per-episode selection frequency of each mode;
    cd_distribution: histogram of per-step chamfer distances;
    qos_distribution: fraction of periods meeting / violating QoS;
    delay_boxplot: median, quartiles and whiskers of per-period mean delay,
    labeled with the records' policy;
    reward_distribution: percentiles of the normalized reward.
    """
    if not records:
        raise ValueError("no records to export")
    rows = [r for rec in records for r in rec.rows]
    rewards = _normalized_rewards(rows)
    summary = _summarize(rows, rewards, len(records), records[0].policy)
    total = len(rows)
    mode_ids = [m.mode_id for m in CANONICAL_MODES]
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    with _csv_file(out / "action_probability.csv") as w:
        w.writerow(["episode"] + [f"p_{m}" for m in mode_ids])
        for rec in records:
            counts = rec.action_counts
            w.writerow([rec.episode] + [counts[m] / len(rec.rows) for m in mode_ids])

    with _csv_file(out / "cd_distribution.csv") as w:
        w.writerow(["cd", "count", "fraction"])
        values = Counter(r.cd for r in rows)
        w.writerows([cd, values[cd], values[cd] / total] for cd in sorted(values))

    with _csv_file(out / "qos_distribution.csv") as w:
        w.writerow(["qos_met", "count", "fraction"])
        met = sum(r.qos_met for r in rows)
        w.writerow([0, total - met, (total - met) / total])
        w.writerow([1, met, met / total])

    with _csv_file(out / "delay_boxplot.csv") as w:
        w.writerow(["policy", "median", "p25", "p75", "whisker_low", "whisker_high"])
        w.writerow(
            [
                summary.policy,
                summary.delay_median,
                summary.delay_p25,
                summary.delay_p75,
                summary.delay_whisker_low,
                summary.delay_whisker_high,
            ]
        )

    with _csv_file(out / "reward_distribution.csv") as w:
        w.writerow(["percentile", "normalized_reward"])
        w.writerows(zip(range(101), np.percentile(rewards, range(101)).tolist()))
    return summary


def read_records_csv(path) -> list[EpisodeRecord]:
    """Read a records.csv back into episode records of `StepRow`s (for re-export)."""
    by_episode: dict[int, EpisodeRecord] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RECORDS_HEADER:
            raise ValueError(f"{path}: unexpected records header {header}")
        for fields in reader:
            if len(fields) != len(RECORDS_HEADER):
                raise ValueError(
                    f"{path}:{reader.line_num}: expected {len(RECORDS_HEADER)} fields, got {len(fields)}"
                )
            try:
                row = StepRow._make(parse(text) for parse, text in zip(_COLUMN_TYPES, fields))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
            rec = by_episode.setdefault(
                row.episode, EpisodeRecord(episode=row.episode, epsilon=0.0, policy=fields[-1])
            )
            rec.rows.append(row)
    if not by_episode:
        raise ValueError(f"{path}: no rows")
    return [by_episode[e] for e in sorted(by_episode)]
