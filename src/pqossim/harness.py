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
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, groupby
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .atomic import atomic_open
from .config import ExperimentConfig
from .dqn import DqnAgent, ReplayBuffer, Transition
from .env import NetworkEnv, StepKpis
from .modes import AGENT_ACTION_MODES, CANONICAL_MODES, ApplicationMode
from .policies import ConstantPolicy, DqlTrainingPolicy
from .reward import QosSample, compute_reward, qos_met

_PHASE_CODES = {"offline": 1, "online": 2, "test": 3}

# One vehicle-period record, the unit of every CSV export: its fields are
# the records.csv columns in order, less the run-level `policy` label.
StepRow = NamedTuple(
    "StepRow",
    [("episode", int), ("step", int), ("vehicle", int), ("action", int), *get_type_hints(StepKpis).items(),
     ("cd", float), ("reward", float), ("qos_met", int)],
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


@dataclass(eq=False)  # its columns are arrays, which do not compare to one bool
class EpisodeRecord:
    """One episode: its episodes.csv facts, its figure inputs and its rows' line range.

    `policy` labels its CSV rows: the phase name in training, the policy name
    under test. `rows` is the range of the episode's line numbers in
    records.csv (the header is line 1), one line per row. `delays` and
    `rewards` are the float64 delay_mean and raw reward columns, the only
    per-row data kept in memory.
    """

    episode: int
    epsilon: float
    policy: str
    rows: range
    action_counts: Counter
    cd_counts: Counter
    qos_count: int
    delays: np.ndarray
    rewards: np.ndarray


class _Tally:
    """An episode's figure inputs, gathered row by row, in a live run or from a records.csv."""

    def __init__(self):
        self.actions, self.cds, self.qos = Counter(), Counter(), 0
        self.delays, self.rewards = array("d"), array("d")

    def add(self, rows) -> None:
        for r in rows:
            self.actions[r.action] += 1
            self.cds[r.cd] += 1
            self.qos += r.qos_met
            self.delays.append(r.delay_mean)
            self.rewards.append(r.reward)

    def record(self, episode, epsilon, policy, path, line) -> EpisodeRecord:
        rewards, delays = np.array(self.rewards), np.array(self.delays)
        for column, ok, rule in (
            # NaN fails every comparison; `np.isfinite` here lifted train-n5 peak RSS by about 0.4 MB
            (rewards, (rewards >= 0.0) & (rewards <= 1.0), "raw reward must be in [0, 1]"),
            (delays, (delays >= 0.0) & (delays < np.inf), "delay_mean must be finite and >= 0"),
        ):
            bad = np.flatnonzero(~ok)
            if bad.size:
                raise ValueError(f"{path}:{line + bad[0]}: {rule}, got {column[bad[0]]}")
        rows = range(line, line + len(rewards))
        return EpisodeRecord(episode, epsilon, policy, rows, self.actions, self.cds, self.qos, delays, rewards)


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


def _epsilon_for_episode(cfg, episode: int) -> float:
    """Linear decay from eps_start to eps_end over eps_decay_episodes."""
    if episode >= cfg.eps_decay_episodes:
        return cfg.eps_end
    return cfg.eps_start + (cfg.eps_end - cfg.eps_start) * (episode / cfg.eps_decay_episodes)


def weights_digest(agent: DqnAgent) -> str:
    """SHA-256 over all online and target parameters; guards phase isolation."""
    return hashlib.sha256(b"".join(net.flat.tobytes() for net in (agent.online, agent.target))).hexdigest()


def _run_episode(env, policy, agent, buffer, rng, episode, episode_seed, reward_params):
    """One episode; yields each period's step rows, one per vehicle, as the period ends.

    Given a replay buffer, the episode learns: transitions flow into the
    buffer and one training step of `agent` runs per period once a batch
    is available. Periods that generated no traffic produce no transition.
    """
    states = env.reset(episode_seed)
    step, done = 0, False
    while not done:
        modes = [policy.decide(states[v], rng) for v in range(env.config.n_vehicles)]
        next_states, kpis, done = env.step(modes)
        rows = []
        for v, (mode, k) in enumerate(zip(modes, kpis)):
            sample = QosSample(k.prr, k.delay_mean, mode.cd_sym)
            reward = compute_reward(sample, reward_params)
            met = qos_met(sample, reward_params)
            rows.append(StepRow(episode, step, v, mode.mode_id, *k, mode.cd_sym, reward, int(met)))
            if buffer is not None and k.packets_generated > 0:
                buffer.push(Transition(states[v], _action_index(mode), reward, next_states[v], done))
        if buffer is not None:
            batch = buffer.sample(agent.config.batch_size, rng)
            if batch is not None:
                agent.train_batch(batch)
        yield rows
        states = next_states
        step += 1


def _action_index(mode: ApplicationMode) -> int:
    try:
        return AGENT_ACTION_MODES.index(mode)
    except ValueError:
        raise ValueError(f"mode {mode.mode_id} is not in the agent action set") from None


def _run_episodes(config, phase, episodes, policy_for, label, output_dir, agent=None, buffer=None):
    """Run one phase's episodes; `policy_for(episode)` gives (policy, epsilon).

    Channel realizations are seeded per (base seed, phase, episode) and the
    decision stream per (base seed, phase). records.csv grows a period and
    episodes.csv an episode at a time, each inside one `atomic_open`.
    """
    if episodes < 1:
        raise ValueError(f"{phase} phase needs at least one episode, got {episodes}")
    if any(c in str(label) for c in "\r\n"):
        raise ValueError(f"policy label {label!r} must not hold a line break")
    base_seed = config.sim.rng_seed
    env = NetworkEnv(config.sim)
    rng = np.random.default_rng(np.random.SeedSequence([base_seed, 100 + _PHASE_CODES[phase]]))
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    records: list[EpisodeRecord] = []
    with _csv_file(out / "records.csv", RECORDS_HEADER) as records_csv, _csv_file(
        out / "episodes.csv", EPISODES_HEADER
    ) as episodes_csv:
        for episode in range(episodes):
            policy, epsilon = policy_for(episode)
            seed = np.random.SeedSequence([base_seed, _PHASE_CODES[phase], episode])
            tally = _Tally()
            for rows in _run_episode(env, policy, agent, buffer, rng, episode, seed, config.reward):
                write_records_csv(records_csv, rows, label)
                tally.add(rows)
            line = records[-1].rows.stop if records else 2  # of the episode's first row; the header is line 1
            records.append(tally.record(episode, epsilon, label, out / "records.csv", line))
            write_episodes_csv(episodes_csv, records[-1])
    return records


def run_offline_training(config: ExperimentConfig, output_dir, agent: DqnAgent | None = None):
    """Offline phase: one action fixed per episode, cycling round-robin.

    Returns (agent, records); writes records, per-episode stats, figure
    CSVs and the checkpoint under output_dir.
    """
    return _train(config, output_dir, "offline", config.resolved_run().offline_episodes, agent)


def run_online_training(config: ExperimentConfig, output_dir, agent: DqnAgent | None = None):
    """Online phase: per-step epsilon-greedy decisions with decaying epsilon."""
    return _train(config, output_dir, "online", config.resolved_run().online_episodes, agent)


def _train(config, output_dir, phase, episodes, agent):
    if agent is None:
        agent = DqnAgent(config.agent)

    def policy_for(episode):
        if phase == "offline":
            return ConstantPolicy(AGENT_ACTION_MODES[episode % len(AGENT_ACTION_MODES)]), 1.0
        epsilon = _epsilon_for_episode(config.agent, episode)
        return DqlTrainingPolicy(agent, epsilon), epsilon

    buffer = ReplayBuffer(config.agent.replay_capacity)
    records = _run_episodes(config, phase, episodes, policy_for, phase, output_dir, agent, buffer)
    emit_figures_csv(records, output_dir)
    agent.save(Path(output_dir) / "checkpoint.npz")
    return agent, records


def run_test(config: ExperimentConfig, output_dir, policy, agent: DqnAgent | None = None):
    """Test phase: frozen policy, no learning, plus a distribution summary.

    `policy` is a ConstantPolicy or DqlGreedyPolicy. If `agent` is given,
    its weights are checksummed before and after to prove they never moved;
    if they did, the phase raises before writing its figure CSVs.
    Returns (records, summary).
    """
    if isinstance(policy, DqlTrainingPolicy):
        raise ValueError("test phase requires a frozen policy")
    digest_before = weights_digest(agent) if agent is not None else None
    label, episodes = getattr(policy, "name", "policy"), config.resolved_run().test_episodes
    records = _run_episodes(config, "test", episodes, lambda episode: (policy, 0.0), label, output_dir)
    if agent is not None and weights_digest(agent) != digest_before:
        raise RuntimeError("agent weights changed during the test phase")
    return records, emit_figures_csv(records, output_dir)


def summarize_test(records: list[EpisodeRecord], policy_name: str) -> TestSummary:
    return _summarize(records, policy_name)[0]


def _summarize(records: list[EpisodeRecord], policy_name: str) -> tuple[TestSummary, np.ndarray]:
    """The records' summary and their rewards mapped onto [-1, +1], in row order."""
    # the concatenations are copies, so the percentiles may reorder them instead of copying again
    delays = np.concatenate([rec.delays for rec in records])
    p25, med, p75 = np.percentile(delays, [25.0, 50.0, 75.0], overwrite_input=True)
    iqr = p75 - p25
    low, high = delays[delays >= p25 - 1.5 * iqr].min(), delays[delays <= p75 + 1.5 * iqr].max()
    rewards = np.concatenate([rec.rewards for rec in records])
    rewards *= 2.0  # `normalize_reward`'s map, in place; `_Tally.record` checked the range
    rewards -= 1.0
    counts = sum((rec.action_counts for rec in records), Counter())
    total = len(delays)
    return TestSummary(
        policy=policy_name, episodes=len(records), steps=total,
        qos_fraction=sum(rec.qos_count for rec in records) / total,
        median_reward=float(np.median(rewards, overwrite_input=True)), max_reward=float(rewards.max()),
        delay_median=float(med), delay_p25=float(p25), delay_p75=float(p75),
        delay_whisker_low=float(low), delay_whisker_high=float(high),
        action_fractions={m: counts[m] / total for m in sorted(counts)},
    ), rewards


# -- CSV emission --------------------------------------------------------

_MODE_IDS = [m.mode_id for m in CANONICAL_MODES]
EPISODES_HEADER = ["episode", "epsilon", "mean_reward", "qos_fraction", *(f"count_{m}" for m in _MODE_IDS)]


@contextmanager
def _csv_file(path, header):
    """A csv writer onto `path`, header written; the file appears only once written whole."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        yield writer


def write_records_csv(writer, rows: list[StepRow], policy: str) -> None:
    """Append step rows to records.csv."""
    writer.writerows((*row, policy) for row in rows)


def write_episodes_csv(writer, rec: EpisodeRecord) -> None:
    """Append one episode's line to episodes.csv."""
    mean_reward, qos_fraction = float(np.mean(rec.rewards)), rec.qos_count / len(rec.rows)
    counts = [rec.action_counts[m] for m in _MODE_IDS]
    writer.writerow([rec.episode, rec.epsilon, mean_reward, qos_fraction, *counts])


def emit_figures_csv(records: list[EpisodeRecord], output_dir) -> TestSummary:
    """Write the five figure-ready CSVs (`FIGURE_FILES`, described in the README).

    Returns the records' `TestSummary`, labeled with their policy, which
    the delay boxplot is drawn from. Only the records' counts and columns
    are read, never their rows.
    """
    if not records:
        raise ValueError("no records to export")
    summary, rewards = _summarize(records, records[0].policy)
    total = summary.steps
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    with _csv_file(out / "action_probability.csv", ["episode"] + [f"p_{m}" for m in _MODE_IDS]) as w:
        for rec in records:
            w.writerow([rec.episode] + [rec.action_counts[m] / len(rec.rows) for m in _MODE_IDS])

    with _csv_file(out / "cd_distribution.csv", ["cd", "count", "fraction"]) as w:
        values = sum((rec.cd_counts for rec in records), Counter())
        w.writerows([cd, values[cd], values[cd] / total] for cd in sorted(values))

    with _csv_file(out / "qos_distribution.csv", ["qos_met", "count", "fraction"]) as w:
        met = sum(rec.qos_count for rec in records)
        w.writerows([[0, total - met, (total - met) / total], [1, met, met / total]])

    boxplot = ["median", "p25", "p75", "whisker_low", "whisker_high"]
    with _csv_file(out / "delay_boxplot.csv", ["policy", *boxplot]) as w:
        w.writerow([summary.policy, *(getattr(summary, f"delay_{k}") for k in boxplot)])

    with _csv_file(out / "reward_distribution.csv", ["percentile", "normalized_reward"]) as w:
        w.writerows(zip(range(101), np.percentile(rewards, range(101), overwrite_input=True).tolist()))
    return summary


def _parse_rows(fh, path):
    """(line, StepRow, policy label) for each row of the records.csv text `fh`, its header checked first.

    A malformed header or row, or bytes that are not UTF-8, raise ValueError
    naming `path` and the line.
    """
    reader = csv.reader(fh)
    try:
        if (header := next(reader, RECORDS_HEADER)) != RECORDS_HEADER:  # an empty file has no rows
            raise ValueError(f"unexpected records header {header}")
        for fields in reader:
            if len(fields) != len(RECORDS_HEADER):
                raise ValueError(f"expected {len(RECORDS_HEADER)} fields, got {len(fields)}")
            yield reader.line_num, StepRow._make(parse(text) for parse, text in zip(_COLUMN_TYPES, fields)), fields[-1]
    except UnicodeDecodeError as exc:
        # the decoder fails on a whole chunk read ahead, so count the lines up to the bad byte
        line = reader.line_num + 1 + exc.object.count(b"\n", 0, exc.start)
        raise ValueError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def read_records_csv(path) -> list[EpisodeRecord]:
    """Read a records.csv back into episode records, one episode's rows in memory at a time.

    Each episode's rows must be contiguous and one line each, as a run writes them.
    """
    by_episode: dict[int, EpisodeRecord] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for episode, group in groupby(_parse_rows(fh, path), key=lambda item: item[1].episode):
            line, row, policy = next(group)
            if episode in by_episode:
                raise ValueError(f"{path}:{line}: episode {episode} resumes after another episode's rows")
            tally = _Tally()
            tally.add(chain([row], (item[1] for item in group)))
            by_episode[episode] = tally.record(episode, 0.0, policy, path, line)
    if not by_episode:
        raise ValueError(f"{path}: no rows")
    return [by_episode[e] for e in sorted(by_episode)]
