import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqossim.config import _AGENT_FIELDS, _REWARD_FIELDS, _RUN_FIELDS, _SIM_SECTIONS
from pqossim.config import apply_kv, default_config, load_config, serialize
from pqossim.env import SimConfig
from pqossim.errors import ConfigError


def test_paper_profile_defaults():
    cfg = default_config("paper")
    assert cfg.sim.steps_per_episode == 800
    assert cfg.agent.discount == 0.95
    assert cfg.agent.learning_rate == 1e-4
    assert cfg.agent.weight_decay == 1e-3
    assert cfg.agent.batch_size == 10
    assert cfg.reward.delta_m_ms == 50.0
    assert cfg.reward.cd_m == 45.0


def test_paper_run_lengths_depend_on_fleet():
    cfg = default_config("paper")
    cfg.sim.n_vehicles = 1
    run = cfg.resolved_run()
    assert (run.offline_episodes, run.online_episodes, run.test_episodes) == (2500, 2500, 100)
    cfg.sim.n_vehicles = 5
    run = cfg.resolved_run()
    assert (run.offline_episodes, run.online_episodes, run.test_episodes) == (500, 500, 100)


def test_quick_profile_defaults():
    cfg = default_config("quick")
    assert cfg.sim.steps_per_episode == 200
    run = cfg.resolved_run()
    assert (run.offline_episodes, run.online_episodes, run.test_episodes) == (30, 60, 20)


def test_unknown_profile_rejected():
    with pytest.raises(ConfigError):
        default_config("fast")


def test_explicit_run_lengths_override_profile():
    cfg = default_config("quick")
    cfg.run.online_episodes = 7
    assert cfg.resolved_run().online_episodes == 7
    assert cfg.resolved_run().offline_episodes == 30


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        """
# experiment setup
sim.n_vehicles = 5
sim.rng_seed = 42        # inline comment
channel.shadowing_sigma_db = 2.5
reward.alpha = 1.0
agent.learning_rate = 0.0005
run.test_episodes = 3
"""
    )
    cfg = load_config(path, profile="quick")
    assert cfg.sim.n_vehicles == 5
    assert cfg.sim.rng_seed == 42
    assert cfg.sim.shadowing_sigma_db == 2.5
    assert cfg.reward.alpha == 1.0
    assert cfg.agent.learning_rate == 0.0005
    assert cfg.resolved_run().test_episodes == 3
    # untouched quick defaults survive
    assert cfg.sim.steps_per_episode == 200


@pytest.mark.parametrize(
    "line",
    [
        "sim.unknown_field = 3",
        "nosection = 3",
        "weird.key = 1",
        "sim.n_vehicles = five",
        "sim.n_vehicles",
        "reward.alpha = 2.0",
    ],
)
def test_bad_config_lines_rejected(tmp_path, line):
    path = tmp_path / "exp.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_serialize_roundtrip(tmp_path):
    cfg = default_config("quick")
    cfg.sim.n_vehicles = 5
    apply_kv(cfg, "reward.alpha", "1.0")
    text = serialize(cfg)
    path = tmp_path / "resolved.cfg"
    path.write_text(text)
    again = load_config(path, profile="quick")
    assert again.sim.n_vehicles == 5
    assert again.reward.alpha == 1.0
    assert serialize(again) == text


def test_apply_kv_validates_types():
    cfg = default_config("quick")
    with pytest.raises(ConfigError):
        apply_kv(cfg, "agent.batch_size", "ten")
    apply_kv(cfg, "agent.batch_size", "12")
    assert cfg.agent.batch_size == 12


def test_mcs_table_path_is_string():
    cfg = default_config("quick")
    apply_kv(cfg, "channel.mcs_table_path", "tables/custom.txt")
    assert cfg.sim.mcs_table_path == "tables/custom.txt"


@pytest.mark.parametrize(
    "line",
    [
        "sim.episode_duration_s = inf",
        "sim.frame_rate_hz = inf",
        "sim.bandwidth_mhz = nan",
        "channel.shadowing_sigma_db = nan",
        "traffic.queue_drop_ms = -inf",
        "agent.learning_rate = nan",
        "reward.delta_m_ms = nan",
        "mobility.speed_mps = 1e999",
    ],
)
def test_non_finite_numbers_rejected_naming_the_key(tmp_path, line):
    path = tmp_path / "exp.cfg"
    path.write_text(line + "\n")
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
        load_config(path, profile="quick")


def test_sim_config_rejects_non_finite_fields():
    for name, value in (("queue_drop_ms", math.nan), ("frame_rate_hz", math.inf), ("bandwidth_mhz", math.nan)):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            SimConfig(**{name: value})
    with pytest.raises(ConfigError, match="control_period_ms must divide"):
        SimConfig(episode_duration_s=1e306)


def test_agent_errors_surface_as_config_errors(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("agent.discount = 2\n")
    with pytest.raises(ConfigError, match="agent.discount must be in"):
        load_config(path)


_KNOWN_KEYS = [
    *(f"{section}.{key}" for section, keys in _SIM_SECTIONS.items() for key in keys),
    *(f"agent.{key}" for key in _AGENT_FIELDS),
    *(f"reward.{key}" for key in _REWARD_FIELDS),
    *(f"run.{key}" for key in _RUN_FIELDS),
]
_VALUES = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e999", "0", "1_000", "0x10", "", "five"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"), max_size=12),
)
_LINES = st.tuples(
    st.one_of(st.sampled_from(_KNOWN_KEYS), st.from_regex(r"[a-z_.]{0,20}", fullmatch=True)),
    _VALUES,
).map(lambda kv: f"{kv[0]} = {kv[1]}")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_LINES, max_size=6))
def test_any_config_text_loads_or_raises_config_error(tmp_path, lines):
    path = tmp_path / "fuzz.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        config = load_config(path, profile="quick")
    except ConfigError:
        return
    for group in (config.sim, config.agent, config.reward):
        for field in dataclasses.fields(group):
            value = getattr(group, field.name)
            assert not isinstance(value, float) or math.isfinite(value), field.name
