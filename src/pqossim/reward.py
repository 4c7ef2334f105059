"""Piecewise QoS/QoE reward of the mode-adaptation agent.

A control period earns a positive reward only when its QoS held: every
packet of the period delivered (PRR exactly 1) and mean delay strictly
under the tolerated maximum. The positive branch blends normalized delay
headroom with normalized point-cloud fidelity headroom, weighted by alpha
(alpha=1: fidelity only, alpha=0: delay only).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, check_finite


@dataclass
class RewardParams:
    """Weight and tolerance bounds of the reward.

    alpha       -- QoE weight in [0, 1]; (1 - alpha) weighs delay
    delta_m_ms  -- maximum tolerated mean delay per period (ms)
    cd_m        -- maximum tolerated chamfer distance
    """

    alpha: float = 0.5
    delta_m_ms: float = 50.0
    cd_m: float = 45.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        check_finite(self)
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.delta_m_ms <= 0:
            raise ConfigError(f"delta_m_ms must be > 0, got {self.delta_m_ms}")
        if self.cd_m <= 0:
            raise ConfigError(f"cd_m must be > 0, got {self.cd_m}")


@dataclass(frozen=True)
class QosSample:
    """Per-vehicle outcome of one control period, as seen by the reward.

    prr           -- delivered/generated packets of the period, in [0, 1]
    mean_delay_ms -- mean delay of packets delivered during the period
    cd            -- chamfer distance of the mode that was active
    """

    prr: float
    mean_delay_ms: float
    cd: float


def qos_met(sample: QosSample, params: RewardParams) -> bool:
    """True iff mean delay is strictly below the bound and PRR is exactly 1."""
    if not 0.0 <= sample.prr <= 1.0:
        raise ValueError(f"prr must be in [0, 1], got {sample.prr}")
    if sample.mean_delay_ms < 0:
        raise ValueError(f"mean_delay_ms must be >= 0, got {sample.mean_delay_ms}")
    if sample.cd < 0:
        raise ValueError(f"cd must be >= 0, got {sample.cd}")
    return sample.mean_delay_ms < params.delta_m_ms and sample.prr == 1.0


def compute_reward(sample: QosSample, params: RewardParams) -> float:
    """Reward in [0, 1] for one period.

    0 when QoS failed; otherwise
    (1-alpha) * (delta_m - delay)/delta_m + alpha * (cd_m - cd)/cd_m.

    The active mode's cd must respect cd_m (the mode table is validated
    against the reward bounds); violating that is a configuration error,
    not a zero-reward period.
    """
    met = qos_met(sample, params)  # validates the sample first
    if sample.cd > params.cd_m:
        raise ConfigError(
            f"mode chamfer distance {sample.cd} exceeds tolerated maximum {params.cd_m}"
        )
    if not met:
        return 0.0
    delay_term = (params.delta_m_ms - sample.mean_delay_ms) / params.delta_m_ms
    qoe_term = (params.cd_m - sample.cd) / params.cd_m
    return (1.0 - params.alpha) * delay_term + params.alpha * qoe_term


def normalize_reward(r: float) -> float:
    """Affine map of a raw reward from [0, 1] onto [-1, +1].

    Reporting-only: learning always consumes the raw reward. The map is
    order-preserving, so per-state action rankings are unchanged.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"raw reward must be in [0, 1], got {r}")
    return 2.0 * r - 1.0
