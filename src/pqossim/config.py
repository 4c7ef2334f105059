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
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .dqn import AgentConfig
from .env import SimConfig
from .errors import ConfigError
from .link import load_mcs_table
from .reward import RewardParams

PROFILES = ("quick", "paper")


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


# section -> (ExperimentConfig attribute, keys). SimConfig's fields are
# split by topic; every other group is one section keyed by its fields.
SECTIONS = {
    "sim": (
        "sim",
        (
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
    ),
    "channel": (
        "sim",
        ("pathloss_exponent", "shadowing_sigma_db", "shadowing_corr", "mcs_table_path"),
    ),
    "mobility": ("sim", ("route_half_length_m", "route_half_width_m", "speed_mps")),
    "traffic": ("sim", ("packet_size_bytes", "queue_drop_ms", "payload_cv")),
    "sched": ("sim", ("symbols_per_tick",)),
    "bounds": ("sim", ("sinr_min_db", "sinr_max_db")),
    **{
        attr: (attr, tuple(f.name for f in fields(cls)))
        for attr, cls in (("agent", AgentConfig), ("reward", RewardParams), ("run", RunLengths))
    },
}


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


def _parse(text: str, kind: type, key: str):
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {text!r}")
    return value


def apply_kv(config: ExperimentConfig, dotted_key: str, value: str) -> None:
    """Set one `section.key = value` entry onto the config, parsed by the field's type."""
    if "." not in dotted_key:
        raise ConfigError(f"config key {dotted_key!r} must look like section.key")
    section, key = dotted_key.split(".", 1)
    if section not in SECTIONS:
        raise ConfigError(f"unknown config section {section!r}")
    attr, keys = SECTIONS[section]
    if key not in keys:
        raise ConfigError(f"unknown config key {dotted_key!r}")
    group = getattr(config, attr)
    hint = typing.get_type_hints(type(group))[key]
    kind, *_ = typing.get_args(hint) or (hint,)  # `int | None` parses as int
    setattr(group, key, _parse(value, kind, dotted_key))


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
    # seeds feed np.random.SeedSequence, which takes no negative entropy
    for section in ("sim", "agent"):
        seed = getattr(config, section).rng_seed
        if seed < 0:
            raise ConfigError(f"{section}.rng_seed must be >= 0, got {seed}")
    for key, episodes in dataclasses.asdict(config.run).items():
        if episodes is not None and episodes < 1:
            raise ConfigError(f"run.{key} must be >= 1, got {episodes}")
    config.sim.validate()
    if config.sim.mcs_table_path:
        # NetworkEnv reads the table again; reading it here rejects a bad
        # one before a run writes anything
        load_mcs_table(config.sim.mcs_table_path)
    try:
        config.agent.validate()
    except ValueError as exc:
        # AgentConfig's messages start with the field name
        raise ConfigError(f"agent.{exc}") from None
    config.reward.validate()


def serialize(config: ExperimentConfig) -> str:
    """Render the full resolved config as parseable `section.key = value` text."""
    resolved = dataclasses.replace(config, run=config.resolved_run())
    lines = [f"# profile: {config.profile}"]
    for section, (attr, keys) in SECTIONS.items():
        group = getattr(resolved, attr)
        lines.extend(f"{section}.{key} = {getattr(group, key)}" for key in keys)
    return "\n".join(lines) + "\n"
