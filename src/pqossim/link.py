"""SINR to MCS link adaptation.

A 15-entry threshold table maps SINR to an MCS index and a spectral
efficiency in bits per resource element. Below the lowest threshold the
link is in outage: index 0 with zero efficiency. The default table is the
classic 4-bit CQI efficiency ladder; an alternative table can be loaded
from a plain-text file (one "min_sinr_db efficiency" pair per line).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# (min SINR dB, bits per resource element), index k active on [t_k, t_k+1)
DEFAULT_MCS_TABLE = np.array(
    [
        [1.95, 0.1523],
        [4.00, 0.2344],
        [6.00, 0.3770],
        [8.00, 0.6016],
        [10.00, 0.8770],
        [11.95, 1.1758],
        [14.05, 1.4766],
        [16.00, 1.9141],
        [17.90, 2.4063],
        [19.90, 2.7305],
        [21.50, 3.3223],
        [23.45, 3.9023],
        [25.00, 4.5234],
        [27.30, 5.1152],
        [29.00, 5.5547],
    ],
    dtype=np.float64,
)


class McsTable:
    """Piecewise-constant, non-decreasing SINR -> (index, efficiency) map."""

    def __init__(self, table: np.ndarray | None = None):
        table = DEFAULT_MCS_TABLE if table is None else np.asarray(table, dtype=np.float64)
        if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 1:
            raise ConfigError(f"MCS table must have shape (K, 2), got {table.shape}")
        if not np.all(np.isfinite(table)):
            raise ConfigError("MCS table contains non-finite values")
        if np.any(np.diff(table[:, 0]) <= 0) or np.any(np.diff(table[:, 1]) <= 0):
            raise ConfigError("MCS table thresholds and efficiencies must be strictly increasing")
        if np.any(table[:, 1] <= 0):
            raise ConfigError("MCS table efficiencies must be positive")
        self.thresholds = np.ascontiguousarray(table[:, 0])
        self.efficiencies = np.ascontiguousarray(table[:, 1])
        self._outage_and_efficiencies = np.concatenate([[0.0], self.efficiencies])

    @property
    def index_max(self) -> int:
        return len(self.thresholds) - 1

    def lookup(self, sinr_db):
        """Vectorized map of SINR (dB) to (mcs_index, efficiency).

        Outage (below the lowest threshold) yields index 0 with zero
        efficiency; above the highest threshold the map saturates at the
        last entry.
        """
        # thresholds at or below each SINR: 0 in outage, else the MCS index + 1
        above = np.searchsorted(self.thresholds, np.asarray(sinr_db, dtype=np.float64), side="right")
        return np.maximum(above - 1, 0).astype(np.int64), self._outage_and_efficiencies.take(above)


def load_mcs_table(path) -> McsTable:
    """Load a threshold table from a text file of 'min_sinr_db efficiency' rows.

    A file that cannot be opened or read as text (missing, a directory, a
    name holding NUL, bytes that do not decode) is a ConfigError too.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigError(f"{path}: cannot read MCS table: {exc}") from exc
    if not text.strip():
        raise ConfigError(f"{path}: MCS table file is empty")
    try:
        return McsTable(np.loadtxt(text.splitlines(), dtype=np.float64, ndmin=2))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed MCS table: {exc}") from exc
