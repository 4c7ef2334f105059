"""pqossim: a seeded cell simulator and double-DQN mode-adaptation agent.

Vehicles stream compressed LiDAR frames through a shared cell; every
control period an agent picks each vehicle's compression mode to balance
link QoS (delay, packet reception) against point-cloud fidelity.
"""

from .config import ExperimentConfig, default_config, load_config
from .dqn import AgentConfig, DqnAgent, QNetwork, ReplayBuffer, Transition, forward, select_action
from .env import NetworkEnv, SimConfig, StepKpis, state_vector
from .errors import CheckpointError, ConfigError
from .harness import run_offline_training, run_online_training, run_test, emit_figures_csv
from .link import DEFAULT_MCS_TABLE, McsTable
from .modes import (
    AGENT_ACTION_IDS,
    AGENT_ACTION_MODES,
    CANONICAL_MODES,
    MODE_1450,
    MODE_1451,
    MODE_1452,
    MODE_RAW,
    ApplicationMode,
    mode_from_id,
)
from .policies import ConstantPolicy, DqlGreedyPolicy, DqlTrainingPolicy
from .qoe import as_point_cloud, chamfer_sym, chamfer_sym_accelerated, load_point_cloud
from .reward import QosSample, RewardParams, compute_reward, normalize_reward, qos_met

__version__ = "0.1.0"

__all__ = [
    "AGENT_ACTION_IDS",
    "AGENT_ACTION_MODES",
    "AgentConfig",
    "ApplicationMode",
    "CANONICAL_MODES",
    "CheckpointError",
    "ConfigError",
    "ConstantPolicy",
    "DEFAULT_MCS_TABLE",
    "DqlGreedyPolicy",
    "DqlTrainingPolicy",
    "DqnAgent",
    "ExperimentConfig",
    "MODE_1450",
    "MODE_1451",
    "MODE_1452",
    "MODE_RAW",
    "McsTable",
    "NetworkEnv",
    "QNetwork",
    "QosSample",
    "ReplayBuffer",
    "RewardParams",
    "SimConfig",
    "StepKpis",
    "Transition",
    "as_point_cloud",
    "chamfer_sym",
    "chamfer_sym_accelerated",
    "compute_reward",
    "default_config",
    "emit_figures_csv",
    "forward",
    "load_config",
    "load_point_cloud",
    "mode_from_id",
    "normalize_reward",
    "qos_met",
    "run_offline_training",
    "run_online_training",
    "run_test",
    "select_action",
    "state_vector",
]
