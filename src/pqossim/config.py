"""Plain-text experiment configuration: `section.key = value` lines.

A config file carries three groups of settings: the simulated cell
(`sim.*`, `channel.*`, `mobility.*`, `traffic.*`, `sched.*`, `bounds.*`,
all feeding SimConfig), the agent (`agent.*`) and the reward (`reward.*`),
plus run lengths (`run.*`). Unknown keys are rejected. Two shipped
profiles provide defaults: "paper" runs the full-length protocol, "quick"
is a desk-scale preset for fast end-to-end runs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .dqn import AgentConfig
from .env import SimConfig
from .errors import ConfigError
from .reward import RewardParams

PROFILES = ("quick", "paper")

# (section, key) -> (config group, dataclass field)
_SIM_SECTIONS = {
    "sim": (
        "carrier_frequency_ghz",
        "bandwidth_mhz",
        "tx_power_dbm",
        "noise_figure_db",
        "control_period_ms",
        "episode_duration_s",
        "tick_ms",
        "frame_rate_hz",
        "n_vehicles",
        "rng_seed",
    ),
    "channel": (
        "pathloss_exponent",
        "shadowing_sigma_db",
        "shadowing_corr",
        "cell_radius_m",
        "mcs_table_path",
    ),
    "mobility": ("route_half_length_m", "route_half_width_m", "speed_mps"),
    "traffic": ("packet_size_bytes", "queue_drop_ms", "payload_cv"),
    "sched": ("symbols_per_tick",),
    "bounds": ("delay_bound_ms", "sinr_min_db", "sinr_max_db"),
}

_AGENT_FIELDS = (
    "discount",
    "learning_rate",
    "weight_decay",
    "batch_size",
    "replay_capacity",
    "target_sync_period",
    "eps_start",
    "eps_end",
    "eps_decay_episodes",
    "rng_seed",
)

_REWARD_FIELDS = ("alpha", "delta_m_ms", "cd_m")

_RUN_FIELDS = ("offline_episodes", "online_episodes", "test_episodes")


@dataclass
class RunLengths:
    """Episode counts per phase; None means profile default."""

    offline_episodes: int | None = None
    online_episodes: int | None = None
    test_episodes: int | None = None


@dataclass
class ExperimentConfig:
    """Everything a run needs, before phase-specific resolution."""

    sim: SimConfig
    agent: AgentConfig
    reward: RewardParams
    run: RunLengths
    profile: str = "paper"

    def resolved_run(self) -> RunLengths:
        """Fill episode-count defaults from the profile and fleet size."""
        r = self.run
        if self.profile == "quick":
            offline, online, test = 30, 60, 20
        else:
            training = 2500 if self.sim.n_vehicles == 1 else 500
            offline, online, test = training, training, 100
        return RunLengths(
            offline_episodes=r.offline_episodes if r.offline_episodes is not None else offline,
            online_episodes=r.online_episodes if r.online_episodes is not None else online,
            test_episodes=r.test_episodes if r.test_episodes is not None else test,
        )


def default_config(profile: str = "paper") -> ExperimentConfig:
    """Shipped defaults for a profile.

    The quick profile shortens episodes to 200 steps and compensates for
    the reduced step budget with a larger learning rate, a faster target
    sync and a shorter discount horizon; everything physical stays
    identical to the paper profile.
    """
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    sim = SimConfig()
    agent = AgentConfig()
    if profile == "quick":
        sim.episode_duration_s = 20.0
        agent.learning_rate = 1e-3
        agent.target_sync_period = 50
        agent.discount = 0.6
        agent.eps_decay_episodes = 60
    return ExperimentConfig(sim=sim, agent=agent, reward=RewardParams(), run=RunLengths(), profile=profile)


def _parse_scalar(text: str, current, key: str):
    if isinstance(current, bool):
        raise ConfigError("boolean config fields are not supported")
    if isinstance(current, int) and not isinstance(current, bool):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"expected integer, got {text!r}") from None
    if isinstance(current, float):
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"expected number, got {text!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite number, got {text!r}")
        return value
    return text


def apply_kv(config: ExperimentConfig, dotted_key: str, value: str) -> None:
    """Set one `section.key = value` entry onto the config."""
    if "." not in dotted_key:
        raise ConfigError(f"config key {dotted_key!r} must look like section.key")
    section, key = dotted_key.split(".", 1)
    if section in _SIM_SECTIONS:
        if key not in _SIM_SECTIONS[section]:
            raise ConfigError(f"unknown config key {dotted_key!r}")
        target = config.sim
    elif section == "agent":
        if key not in _AGENT_FIELDS:
            raise ConfigError(f"unknown config key {dotted_key!r}")
        target = config.agent
    elif section == "reward":
        if key not in _REWARD_FIELDS:
            raise ConfigError(f"unknown config key {dotted_key!r}")
        # RewardParams is frozen; rebuild with the new field
        parsed = _parse_scalar(value, getattr(config.reward, key), dotted_key)
        config.reward = dataclasses.replace(config.reward, **{key: parsed})
        return
    elif section == "run":
        if key not in _RUN_FIELDS:
            raise ConfigError(f"unknown config key {dotted_key!r}")
        try:
            setattr(config.run, key, int(value))
        except ValueError:
            raise ConfigError(f"expected integer for {dotted_key!r}, got {value!r}") from None
        return
    else:
        raise ConfigError(f"unknown config section {section!r}")
    current = getattr(target, key)
    setattr(target, key, _parse_scalar(value, current, dotted_key))


def load_config(path, profile: str = "paper") -> ExperimentConfig:
    """Parse a config file over the profile defaults.

    Lines are `section.key = value`; blank lines and `#` comments are
    ignored. Values are validated on load.
    """
    config = default_config(profile)
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'section.key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            apply_kv(config, key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    validate(config)
    return config


def validate(config: ExperimentConfig) -> None:
    config.sim.validate()
    # dataclass __post_init__ validations re-run on replace; re-trigger here
    try:
        AgentConfig(**dataclasses.asdict(config.agent))
    except ValueError as exc:
        # AgentConfig's messages start with the field name
        raise ConfigError(f"agent.{exc}") from None
    RewardParams(**dataclasses.asdict(config.reward))


def serialize(config: ExperimentConfig) -> str:
    """Render the full resolved config as parseable `section.key = value` text."""
    lines = [f"# profile: {config.profile}"]
    for section, fields in _SIM_SECTIONS.items():
        for key in fields:
            lines.append(f"{section}.{key} = {getattr(config.sim, key)}")
    for key in _AGENT_FIELDS:
        lines.append(f"agent.{key} = {getattr(config.agent, key)}")
    for key in _REWARD_FIELDS:
        lines.append(f"reward.{key} = {getattr(config.reward, key)}")
    run = config.resolved_run()
    for key in _RUN_FIELDS:
        lines.append(f"run.{key} = {getattr(run, key)}")
    return "\n".join(lines) + "\n"
