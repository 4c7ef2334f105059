"""Per-step mode decision policies: fixed baselines and the learned agent.

All policies share one call shape: decide(state, rng) -> ApplicationMode.
Constant policies ignore the state entirely; the DQL policies wrap a
q-network with epsilon-greedy selection (epsilon 0 when frozen for tests).
The action-index to mode-id mapping is fixed and recorded in checkpoints
so a reordered build cannot silently misread saved weights.
"""

from __future__ import annotations

import numpy as np

from .dqn import AgentConfig, DqnAgent, QNetwork, select_action
from .errors import CheckpointError
from .modes import AGENT_ACTION_IDS, AGENT_ACTION_MODES, ApplicationMode, mode_from_id


def load_checked_agent(path, config: AgentConfig | None = None) -> DqnAgent:
    """Load a checkpoint, refusing one saved with another action mapping."""
    ids = DqnAgent.checkpoint_action_ids(path)
    if ids != AGENT_ACTION_IDS:
        raise CheckpointError(f"{path}: checkpoint action mapping {ids} != expected {AGENT_ACTION_IDS}")
    return DqnAgent.load(path, config if config is not None else AgentConfig())


class ConstantPolicy:
    """Always the same mode, whatever the state."""

    def __init__(self, mode: ApplicationMode | int):
        self.mode = mode if isinstance(mode, ApplicationMode) else mode_from_id(mode)

    @property
    def name(self) -> str:
        return f"constant:{self.mode.mode_id}"

    def decide(self, state, rng) -> ApplicationMode:
        return self.mode


class DqlGreedyPolicy:
    """Greedy (epsilon 0) decisions from a frozen q-network."""

    def __init__(self, net: QNetwork):
        if net.n_actions != len(AGENT_ACTION_MODES):
            raise ValueError(
                f"network has {net.n_actions} actions, expected {len(AGENT_ACTION_MODES)}"
            )
        self.net = net
        self.name = "dql"

    def decide(self, state, rng) -> ApplicationMode:
        q = self.net.forward(np.asarray(state, dtype=np.float64))
        return AGENT_ACTION_MODES[int(np.argmax(q))]


class DqlTrainingPolicy:
    """Epsilon-greedy decisions from a live agent; epsilon set per episode."""

    def __init__(self, agent: DqnAgent, epsilon: float = 1.0):
        self.agent = agent
        self.epsilon = epsilon
        self.name = "dql-training"

    def decide(self, state, rng) -> ApplicationMode:
        a = select_action(self.agent.online, np.asarray(state, dtype=np.float64), self.epsilon, rng)
        return AGENT_ACTION_MODES[a]
