import csv
import re
import shutil
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqossim.config import apply_kv, default_config
from pqossim.dqn import AgentConfig, DqnAgent, ReplayBuffer
from pqossim.env import NetworkEnv, SimConfig
from pqossim.harness import (
    FIGURE_FILES,
    EpisodeRecord,
    _percentiles,
    _run_episode,
    _summarize,
    emit_figures_csv,
    read_records_csv,
    run_offline_training,
    run_online_training,
    run_test,
    weights_digest,
)
from pqossim.modes import mode_from_id
from pqossim.policies import ConstantPolicy, DqlGreedyPolicy, DqlTrainingPolicy
from pqossim.reward import RewardParams


def tiny_config(n_vehicles=1, seed=5, offline=3, online=4, test=2):
    cfg = default_config("quick")
    cfg.sim.n_vehicles = n_vehicles
    cfg.sim.rng_seed = seed
    cfg.agent.rng_seed = seed
    cfg.sim.episode_duration_s = 2.0  # 20 steps per episode
    cfg.run.offline_episodes = offline
    cfg.run.online_episodes = online
    cfg.run.test_episodes = test
    return cfg


def records_csv_rows(path):
    """records.csv's rows as dicts of column text, keyed by their line (the header is line 1)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return {reader.line_num: row for row in reader}


def test_offline_actions_cycle_round_robin(tmp_path):
    cfg = tiny_config(offline=4)
    _, records = run_offline_training(cfg, tmp_path / "off")
    n = cfg.sim.steps_per_episode
    per_episode = [dict(rec.action_counts) for rec in records]
    assert per_episode == [{1450: n}, {1451: n}, {1452: n}, {1450: n}]


def test_one_qos_verdict_per_row(tmp_path, monkeypatch):
    """The reward reuses the row's `qos_met` verdict instead of deciding it again."""
    import pqossim.harness as harness_module
    import pqossim.reward as reward_module

    calls = []

    def counting(original):
        def qos_met(sample, params):
            calls.append(sample)
            return original(sample, params)

        return qos_met

    # harness looks qos_met up in its own namespace; a compute_reward that
    # decided QoS itself would look it up in reward's
    for module in (harness_module, reward_module):
        monkeypatch.setattr(module, "qos_met", counting(module.qos_met))
    cfg = tiny_config(n_vehicles=2, offline=1)
    _, records = run_offline_training(cfg, tmp_path / "off")
    assert len(calls) == sum(len(rec.rows) for rec in records) == 2 * cfg.sim.steps_per_episode


def test_episode_accounting(tmp_path):
    cfg = tiny_config(n_vehicles=3, offline=2)
    _, records = run_offline_training(cfg, tmp_path / "off")
    steps = cfg.sim.steps_per_episode
    for rec in records:
        assert len(rec.rows) == steps * 3
        assert sum(rec.action_counts.values()) == steps * 3


def test_live_records_match_records_csv_read_back(tmp_path):
    cfg = tiny_config(n_vehicles=3, offline=3)
    _, records = run_offline_training(cfg, tmp_path / "off")
    loaded = read_records_csv(tmp_path / "off" / "records.csv")
    lines = records_csv_rows(tmp_path / "off" / "records.csv")
    n = cfg.sim.steps_per_episode * 3
    assert [rec.rows for rec in records] == [range(2 + i * n, 2 + (i + 1) * n) for i in range(3)]
    assert len(lines) == 3 * n
    for live, back in zip(records, loaded):
        assert live.rows == back.rows
        # each record's line range holds that episode's rows, in the order its columns keep them
        assert {lines[i]["episode"] for i in live.rows} == {str(live.episode)}
        assert live.rewards.tolist() == [float(lines[i]["reward"]) for i in live.rows]
        assert live.delays.tolist() == [float(lines[i]["delay_mean"]) for i in live.rows]
        # the figure inputs are filled the same way while running and while reading
        assert (live.action_counts, live.cd_counts, live.qos_count) == (
            back.action_counts,
            back.cd_counts,
            back.qos_count,
        )
        assert np.array_equal(live.delays, back.delays) and np.array_equal(live.rewards, back.rewards)


def test_training_pushes_one_transition_per_vehicle_step():
    cfg = tiny_config(n_vehicles=2)
    env = NetworkEnv(cfg.sim)
    agent = DqnAgent(cfg.agent)
    buffer = ReplayBuffer(1000)
    rng = np.random.default_rng(0)
    for _ in _run_episode(
        env,
        ConstantPolicy(1451),
        agent,
        buffer,
        rng,
        episode=0,
        episode_seed=1,
        reward_params=cfg.reward,
    ):
        pass
    assert len(buffer) == cfg.sim.steps_per_episode * 2


def test_no_traffic_periods_are_skipped():
    # 5 Hz frames over 100 ms periods: every other period generates nothing
    cfg = tiny_config()
    cfg.sim.frame_rate_hz = 5.0
    env = NetworkEnv(cfg.sim)
    agent = DqnAgent(cfg.agent)
    buffer = ReplayBuffer(1000)
    rng = np.random.default_rng(0)
    periods = _run_episode(
        env,
        ConstantPolicy(1452),
        agent,
        buffer,
        rng,
        episode=0,
        episode_seed=1,
        reward_params=cfg.reward,
    )
    rows = [row for period in periods for row in period]
    steps = cfg.sim.steps_per_episode
    assert len(rows) == steps  # KPIs still reported every period
    assert len(buffer) == steps // 2  # but idle periods store no transition


def test_online_epsilon_decays_monotonically(tmp_path):
    cfg = tiny_config(online=6)
    cfg.agent.eps_decay_episodes = 5
    _, records = run_online_training(cfg, tmp_path / "on")
    eps = [r.epsilon for r in records]
    assert eps[0] == cfg.agent.eps_start
    assert all(e1 >= e2 for e1, e2 in zip(eps, eps[1:]))
    assert eps[-1] == cfg.agent.eps_end


def test_online_pure_exploration_is_uniform(tmp_path):
    cfg = tiny_config(n_vehicles=2, online=3)
    cfg.agent.eps_start = 1.0
    cfg.agent.eps_end = 1.0
    _, records = run_online_training(cfg, tmp_path / "on")
    for rec in records:
        total = len(rec.rows)
        sigma = np.sqrt(total * (1 / 3) * (2 / 3))
        for mode_id in (1450, 1451, 1452):
            assert abs(rec.action_counts.get(mode_id, 0) - total / 3) <= 4 * sigma


def test_rows_carry_the_chosen_mode_cd(tmp_path):
    # the reward's sample takes its cd from the mode each row chose
    cfg = tiny_config(n_vehicles=3, online=2)
    cfg.agent.eps_start = 1.0
    cfg.agent.eps_end = 1.0
    _, records = run_online_training(cfg, tmp_path / "on")
    rows = records_csv_rows(tmp_path / "on" / "records.csv").values()
    assert len(rows) == sum(len(rec.rows) for rec in records)
    assert {int(r["action"]) for r in rows} == {1450, 1451, 1452}
    assert all(float(r["cd"]) == mode_from_id(int(r["action"])).cd_sym for r in rows)
    for rec in records:
        # the cd tally is the action tally, each action counted at its mode's cd
        cds = Counter()
        for action, count in rec.action_counts.items():
            cds[mode_from_id(action).cd_sym] += count
        assert rec.cd_counts == cds


def test_test_phase_is_deterministic_and_frozen(tmp_path):
    cfg = tiny_config()
    agent, _ = run_offline_training(cfg, tmp_path / "off")
    digest = weights_digest(agent)
    policy = DqlGreedyPolicy(agent.online)
    rec1, sum1 = run_test(cfg, tmp_path / "t1", policy, agent)
    rec2, sum2 = run_test(cfg, tmp_path / "t2", policy, agent)
    assert weights_digest(agent) == digest
    assert [(rec.rows, rec.action_counts) for rec in rec1] == [(rec.rows, rec.action_counts) for rec in rec2]
    assert sum1 == sum2
    assert (tmp_path / "t1" / "records.csv").read_bytes() == (
        tmp_path / "t2" / "records.csv"
    ).read_bytes()


def test_test_phase_rejects_training_policy(tmp_path):
    cfg = tiny_config()
    agent = DqnAgent(cfg.agent)
    with pytest.raises(ValueError):
        run_test(cfg, tmp_path / "t", DqlTrainingPolicy(agent, 0.5))


def test_constant_test_cd_is_the_mode_constant(tmp_path):
    cfg = tiny_config()
    records, _ = run_test(cfg, tmp_path / "t", ConstantPolicy(1450))
    assert [rec.cd_counts for rec in records] == [Counter({0.000044: cfg.sim.steps_per_episode})] * 2


def test_summary_rewards_in_normalized_range(tmp_path):
    cfg = tiny_config(n_vehicles=2)
    records, summary = run_test(cfg, tmp_path / "t", ConstantPolicy(1451))
    assert -1.0 <= summary.median_reward <= 1.0
    assert -1.0 <= summary.max_reward <= 1.0
    assert 0.0 <= summary.qos_fraction <= 1.0
    assert summary.steps == cfg.sim.steps_per_episode * 2 * 2


def test_training_phases_write_expected_files(tmp_path):
    cfg = tiny_config()
    run_offline_training(cfg, tmp_path / "off")
    expected = {"checkpoint.npz", "records.csv", "episodes.csv", *FIGURE_FILES}
    assert expected == {p.name for p in (tmp_path / "off").iterdir()}


def test_online_resumes_from_offline_checkpoint(tmp_path):
    cfg = tiny_config()
    agent, _ = run_offline_training(cfg, tmp_path / "off")
    steps_before = agent.step_count
    agent2 = DqnAgent.load(tmp_path / "off" / "checkpoint.npz", cfg.agent)
    assert agent2.step_count == steps_before
    run_online_training(cfg, tmp_path / "on", agent2)
    assert agent2.step_count > steps_before


def test_figure_csv_headers(tmp_path):
    cfg = tiny_config()
    records, _ = run_test(cfg, tmp_path / "t", ConstantPolicy(1452))
    out = tmp_path / "t"
    heads = {
        "action_probability.csv": "episode,p_0,p_1450,p_1451,p_1452",
        "cd_distribution.csv": "cd,count,fraction",
        "qos_distribution.csv": "qos_met,count,fraction",
        "delay_boxplot.csv": "policy,median,p25,p75,whisker_low,whisker_high",
        "reward_distribution.csv": "percentile,normalized_reward",
    }
    for name, header in heads.items():
        first = (out / name).read_text().splitlines()[0]
        assert first == header, name


def test_emit_figures_requires_records(tmp_path):
    with pytest.raises(ValueError):
        emit_figures_csv([], tmp_path)


def test_records_csv_roundtrip_through_export(tmp_path):
    cfg = tiny_config()
    records, _ = run_test(cfg, tmp_path / "t", ConstantPolicy(1451))
    loaded = read_records_csv(tmp_path / "t" / "records.csv")
    def facts(rec):
        return rec.episode, rec.policy, rec.rows, rec.action_counts, rec.cd_counts, rec.qos_count

    assert [facts(rec) for rec in loaded] == [facts(rec) for rec in records]
    for back, live in zip(loaded, records):
        assert np.array_equal(back.delays, live.delays) and np.array_equal(back.rewards, live.rewards)
    emit_figures_csv(loaded, tmp_path / "re")
    for name in FIGURE_FILES:
        assert (tmp_path / "re" / name).read_bytes() == (tmp_path / "t" / name).read_bytes()


def test_records_outlive_their_directory(tmp_path):
    # a record holds its own counts and columns, so a later run into the same
    # directory, or removing it, changes nothing a record reports
    cfg = tiny_config(n_vehicles=2, test=3)
    out, kept = tmp_path / "t", tmp_path / "kept"
    first, _ = run_test(cfg, out, ConstantPolicy(1452))
    kept.mkdir()
    for name in FIGURE_FILES:
        shutil.copy(out / name, kept / name)
    second, _ = run_test(cfg, out, ConstantPolicy(1450))
    shutil.rmtree(out)
    n = cfg.sim.steps_per_episode * 2
    assert [rec.rows for rec in first] == [range(2 + i * n, 2 + (i + 1) * n) for i in range(3)]
    assert [dict(rec.action_counts) for rec in first] == [{1452: n}] * 3
    assert [dict(rec.action_counts) for rec in second] == [{1450: n}] * 3
    emit_figures_csv(first, tmp_path / "again")
    for name in FIGURE_FILES:
        assert (tmp_path / "again" / name).read_bytes() == (kept / name).read_bytes()


@pytest.mark.parametrize("label", ["two\nlines", "two\rlines"])
def test_a_label_with_a_line_break_is_rejected_before_any_file_opens(tmp_path, label):
    # a quoted label spanning two lines would shift every later row's line
    # away from the range its record reports
    class TwoLines(ConstantPolicy):
        name = label

    out = tmp_path / "t"
    with pytest.raises(ValueError, match=re.escape(f"policy label {label!r} must not hold a line break")):
        run_test(tiny_config(), out, TwoLines(1452))
    assert not (out / "records.csv").exists()


def test_failed_write_leaves_the_earlier_outputs_whole(tmp_path, monkeypatch):
    cfg = tiny_config()
    out = tmp_path / "t"
    run_test(cfg, out, ConstantPolicy(1451))
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    real_writer = csv.writer

    class TornWriter:
        """Writes the header and a few rows, then fails as a full disk would.

        Rows are counted over all `writerows` calls, since records.csv is
        appended a period at a time.
        """

        def __init__(self, handle, **options):
            self.writer = real_writer(handle, **options)
            self.rows = 0

        def writerow(self, row):
            self.writer.writerow(row)

        def writerows(self, rows):
            for row in rows:
                self.rows += 1
                if self.rows == 6:
                    raise OSError("disk full")
                self.writer.writerow(row)

    monkeypatch.setattr(csv, "writer", TornWriter)
    with pytest.raises(OSError, match="disk full"):
        run_test(cfg, out, ConstantPolicy(1452))
    # records.csv is byte-identical and no temp file is left behind
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_rerun_is_byte_identical(tmp_path):
    for d in ("a", "b"):
        cfg = tiny_config()
        run_offline_training(cfg, tmp_path / d)
    for name in ("records.csv", "episodes.csv", *FIGURE_FILES):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


_COLUMNS = {
    "uniform": lambda rng, n: rng.uniform(0.0, 1.0, n),
    "whole_ms": lambda rng, n: rng.integers(0, 50, n).astype(np.float64),  # many ties
    "reward_grid": lambda rng, n: rng.integers(0, 21, n) / 20.0,  # maps onto a grid in [-1, 1]
}


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 3000),
    delay_kind=st.sampled_from(["uniform", "whole_ms"]),
    reward_kind=st.sampled_from(["uniform", "reward_grid"]),
    episodes=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_figure_statistics_are_numpys_bit_for_bit(n, delay_kind, reward_kind, episodes, seed):
    """The figure pass's percentiles, medians and whiskers equal numpy's, which stays the reference."""
    rng = np.random.default_rng(seed)
    delays, raw = _COLUMNS[delay_kind](rng, n), _COLUMNS[reward_kind](rng, n)
    rewards = 2.0 * raw - 1.0
    for column in (delays, raw, rewards):
        for pcts in ([25.0, 50.0, 75.0], range(101)):
            assert _percentiles(np.sort(column), pcts).tobytes() == np.percentile(column, pcts).tobytes()

    records = [
        EpisodeRecord(e, 0.0, "p", range(len(d)), Counter(), Counter(), 0, d, r)
        for e, (d, r) in enumerate(zip(np.array_split(delays, episodes), np.array_split(raw, episodes)))
    ]
    summary, ordered = _summarize(records, "p")
    p25, med, p75 = np.percentile(delays, [25.0, 50.0, 75.0])
    iqr = p75 - p25
    assert _bits(summary.delay_p25, summary.delay_median, summary.delay_p75) == _bits(p25, med, p75)
    assert _bits(summary.delay_whisker_low, summary.delay_whisker_high) == _bits(
        delays[delays >= p25 - 1.5 * iqr].min(), delays[delays <= p75 + 1.5 * iqr].max()
    )
    assert _bits(summary.median_reward, summary.max_reward) == _bits(np.median(rewards), rewards.max())
    assert ordered.tobytes() == np.sort(rewards).tobytes()
