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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .dqn import DqnAgent, ReplayBuffer, Transition
from .env import NetworkEnv, StepKpis
from .modes import AGENT_ACTION_MODES, CANONICAL_MODES, ApplicationMode
from .policies import ConstantPolicy, DqlGreedyPolicy, DqlTrainingPolicy
from .reward import compute_reward, normalize_reward, qos_met

_PHASE_CODES = {"offline": 1, "online": 2, "test": 3}

RECORDS_HEADER = [
    "episode",
    "step",
    "vehicle",
    "action",
    "mcs_index",
    "ofdm_symbols_used",
    "sinr_db",
    "delay_mean",
    "delay_max",
    "delay_min",
    "delay_std",
    "prr",
    "packets_generated",
    "packets_delivered",
    "cd",
    "reward",
    "qos_met",
    "policy",
]

FIGURE_FILES = (
    "action_probability.csv",
    "cd_distribution.csv",
    "qos_distribution.csv",
    "delay_boxplot.csv",
    "reward_distribution.csv",
)


@dataclass(slots=True)
class StepRow:
    """One vehicle-period record, the unit of every CSV export."""

    episode: int
    step: int
    vehicle: int
    action: int
    kpis: StepKpis
    cd: float
    reward: float
    qos_met: bool


@dataclass
class EpisodeRecord:
    """Per-episode aggregate built from its step rows.

    `policy` is the run-level label carried into every CSV row: the phase
    name for training records, the policy name for test records.
    """

    episode: int
    epsilon: float
    policy: str = "run"
    rows: list[StepRow] = field(default_factory=list)

    @property
    def action_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for row in self.rows:
            counts[row.action] = counts.get(row.action, 0) + 1
        return counts

    @property
    def mean_reward(self) -> float:
        return float(np.mean([r.reward for r in self.rows])) if self.rows else 0.0

    @property
    def qos_fraction(self) -> float:
        return float(np.mean([r.qos_met for r in self.rows])) if self.rows else 0.0


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


def _run_episode(
    env, policy, agent, buffer, rng, episode, episode_seed, epsilon, reward_params, learn, label="run"
):
    """One episode; returns its EpisodeRecord.

    When `learn` is set, transitions flow into the replay buffer and one
    training step runs per period once a batch is available. Periods that
    generated no traffic produce no transition.
    """
    record = EpisodeRecord(episode=episode, epsilon=epsilon, policy=label)
    states = env.reset(episode_seed)
    n = env.config.n_vehicles
    step = 0
    done = False
    while not done:
        modes = [policy.decide(states[v], rng) for v in range(n)]
        next_states, samples, kpis, done = env.step(modes)
        for v in range(n):
            reward = compute_reward(samples[v], reward_params)
            met = qos_met(samples[v], reward_params)
            record.rows.append(
                StepRow(
                    episode=episode,
                    step=step,
                    vehicle=v,
                    action=modes[v].mode_id,
                    kpis=kpis[v],
                    cd=samples[v].cd,
                    reward=reward,
                    qos_met=met,
                )
            )
            if learn and kpis[v].packets_generated > 0:
                action_index = _action_index(modes[v])
                buffer.push(
                    Transition(
                        state=states[v],
                        action=action_index,
                        reward=reward,
                        next_state=next_states[v],
                        terminal=done,
                    )
                )
        if learn:
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
    if episodes < 1:
        raise ValueError(f"{phase} phase needs at least one episode, got {episodes}")
    base_seed = config.sim.rng_seed
    env = NetworkEnv(config.sim)
    if agent is None:
        agent = DqnAgent(config.agent)
    buffer = ReplayBuffer(config.agent.replay_capacity)
    rng = np.random.default_rng(np.random.SeedSequence([base_seed, 100 + _PHASE_CODES[phase]]))

    records: list[EpisodeRecord] = []
    for episode in range(episodes):
        if phase == "offline":
            fixed = AGENT_ACTION_MODES[episode % len(AGENT_ACTION_MODES)]
            policy = ConstantPolicy(fixed)
            epsilon = 1.0
        else:
            epsilon = _epsilon_for_episode(config.agent, episode)
            policy = DqlTrainingPolicy(agent, epsilon)
        records.append(
            _run_episode(
                env,
                policy,
                agent,
                buffer,
                rng,
                episode,
                _episode_seed(base_seed, phase, episode),
                epsilon,
                config.reward,
                learn=True,
                label=phase,
            )
        )

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    agent.save(out / "checkpoint.npz")
    write_records_csv(records, out / "records.csv")
    write_episodes_csv(records, out / "episodes.csv")
    emit_figures_csv(records, out)
    return agent, records


def run_test(config: ExperimentConfig, output_dir, policy, agent: DqnAgent | None = None):
    """Test phase: frozen policy, no learning, plus a distribution summary.

    `policy` is a ConstantPolicy or DqlGreedyPolicy. If `agent` is given,
    its weights are checksummed before and after to prove they never moved.
    Returns (records, summary).
    """
    run = config.resolved_run()
    episodes = run.test_episodes
    if episodes < 1:
        raise ValueError(f"test phase needs at least one episode, got {episodes}")
    if isinstance(policy, DqlTrainingPolicy):
        raise ValueError("test phase requires a frozen policy")
    base_seed = config.sim.rng_seed
    env = NetworkEnv(config.sim)
    rng = np.random.default_rng(np.random.SeedSequence([base_seed, 100 + _PHASE_CODES["test"]]))

    digest_before = weights_digest(agent) if agent is not None else None
    label = getattr(policy, "name", "policy")
    records: list[EpisodeRecord] = []
    for episode in range(episodes):
        records.append(
            _run_episode(
                env,
                policy,
                None,
                None,
                rng,
                episode,
                _episode_seed(base_seed, "test", episode),
                0.0,
                config.reward,
                learn=False,
                label=label,
            )
        )
    if agent is not None and weights_digest(agent) != digest_before:
        raise RuntimeError("agent weights changed during the test phase")

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_records_csv(records, out / "records.csv")
    write_episodes_csv(records, out / "episodes.csv")
    summary = emit_figures_csv(records, out)
    return records, summary


def summarize_test(records: list[EpisodeRecord], policy_name: str) -> TestSummary:
    rows = [r for rec in records for r in rec.rows]
    if not rows:
        raise ValueError("no step rows to summarize")
    rewards = np.array([normalize_reward(r.reward) for r in rows])
    delays = np.array([r.kpis.delay_mean for r in rows])
    p25, med, p75 = np.percentile(delays, [25.0, 50.0, 75.0])
    iqr = p75 - p25
    in_low = delays[delays >= p25 - 1.5 * iqr]
    in_high = delays[delays <= p75 + 1.5 * iqr]
    counts: dict[int, int] = {}
    for r in rows:
        counts[r.action] = counts.get(r.action, 0) + 1
    total = len(rows)
    return TestSummary(
        policy=policy_name,
        episodes=len(records),
        steps=total,
        qos_fraction=float(np.mean([r.qos_met for r in rows])),
        median_reward=float(np.median(rewards)),
        max_reward=float(rewards.max()),
        delay_median=float(med),
        delay_p25=float(p25),
        delay_p75=float(p75),
        delay_whisker_low=float(in_low.min()),
        delay_whisker_high=float(in_high.max()),
        action_fractions={m: counts.get(m, 0) / total for m in sorted(counts)},
    )


# -- CSV emission --------------------------------------------------------


def _writer(handle):
    return csv.writer(handle, lineterminator="\n")


def write_records_csv(records: list[EpisodeRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(RECORDS_HEADER)
        for rec in records:
            for r in rec.rows:
                k = r.kpis
                w.writerow(
                    [
                        r.episode,
                        r.step,
                        r.vehicle,
                        r.action,
                        k.mcs_index,
                        k.ofdm_symbols_used,
                        repr(k.sinr_db),
                        repr(k.delay_mean),
                        repr(k.delay_max),
                        repr(k.delay_min),
                        repr(k.delay_std),
                        repr(k.prr),
                        k.packets_generated,
                        k.packets_delivered,
                        repr(r.cd),
                        repr(r.reward),
                        int(r.qos_met),
                        rec.policy,
                    ]
                )


def write_episodes_csv(records: list[EpisodeRecord], path) -> None:
    mode_ids = [m.mode_id for m in CANONICAL_MODES]
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(
            ["episode", "epsilon", "mean_reward", "qos_fraction"]
            + [f"count_{m}" for m in mode_ids]
        )
        for rec in records:
            counts = rec.action_counts
            w.writerow(
                [rec.episode, repr(rec.epsilon), repr(rec.mean_reward), repr(rec.qos_fraction)]
                + [counts.get(m, 0) for m in mode_ids]
            )


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
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [r for rec in records for r in rec.rows]
    mode_ids = [m.mode_id for m in CANONICAL_MODES]

    with open(out / "action_probability.csv", "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["episode"] + [f"p_{m}" for m in mode_ids])
        for rec in records:
            counts = rec.action_counts
            total = len(rec.rows)
            w.writerow([rec.episode] + [repr(counts.get(m, 0) / total) for m in mode_ids])

    with open(out / "cd_distribution.csv", "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["cd", "count", "fraction"])
        values: dict[float, int] = {}
        for r in rows:
            values[r.cd] = values.get(r.cd, 0) + 1
        for cd in sorted(values):
            w.writerow([repr(cd), values[cd], repr(values[cd] / len(rows))])

    with open(out / "qos_distribution.csv", "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["qos_met", "count", "fraction"])
        met = sum(1 for r in rows if r.qos_met)
        w.writerow([0, len(rows) - met, repr((len(rows) - met) / len(rows))])
        w.writerow([1, met, repr(met / len(rows))])

    summary = summarize_test(records, records[0].policy)
    with open(out / "delay_boxplot.csv", "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["policy", "median", "p25", "p75", "whisker_low", "whisker_high"])
        w.writerow(
            [
                summary.policy,
                repr(summary.delay_median),
                repr(summary.delay_p25),
                repr(summary.delay_p75),
                repr(summary.delay_whisker_low),
                repr(summary.delay_whisker_high),
            ]
        )

    rewards = np.array([normalize_reward(r.reward) for r in rows])
    with open(out / "reward_distribution.csv", "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(["percentile", "normalized_reward"])
        for q in range(101):
            w.writerow([q, repr(float(np.percentile(rewards, q)))])
    return summary


def read_records_csv(path) -> list[EpisodeRecord]:
    """Rebuild episode records from a records.csv (for re-export)."""
    by_episode: dict[int, EpisodeRecord] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RECORDS_HEADER:
            raise ValueError(f"{path}: unexpected records header {reader.fieldnames}")
        for row in reader:
            episode = int(row["episode"])
            rec = by_episode.setdefault(
                episode, EpisodeRecord(episode=episode, epsilon=0.0, policy=row["policy"])
            )
            kpis = StepKpis(
                mcs_index=int(row["mcs_index"]),
                ofdm_symbols_used=int(row["ofdm_symbols_used"]),
                sinr_db=float(row["sinr_db"]),
                delay_mean=float(row["delay_mean"]),
                delay_max=float(row["delay_max"]),
                delay_min=float(row["delay_min"]),
                delay_std=float(row["delay_std"]),
                prr=float(row["prr"]),
                packets_generated=int(row["packets_generated"]),
                packets_delivered=int(row["packets_delivered"]),
            )
            rec.rows.append(
                StepRow(
                    episode=episode,
                    step=int(row["step"]),
                    vehicle=int(row["vehicle"]),
                    action=int(row["action"]),
                    kpis=kpis,
                    cd=float(row["cd"]),
                    reward=float(row["reward"]),
                    qos_met=bool(int(row["qos_met"])),
                )
            )
    if not by_episode:
        raise ValueError(f"{path}: no rows")
    return [by_episode[e] for e in sorted(by_episode)]
