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

    @property
    def index_max(self) -> int:
        return len(self.thresholds) - 1

    def lookup(self, sinr_db):
        """Vectorized map of SINR (dB) to (mcs_index, efficiency).

        Outage (below the lowest threshold) yields index 0 with zero
        efficiency; above the highest threshold the map saturates at the
        last entry.
        """
        sinr = np.asarray(sinr_db, dtype=np.float64)
        idx = np.searchsorted(self.thresholds, sinr, side="right") - 1
        outage = idx < 0
        idx = np.where(outage, 0, idx)
        eff = np.where(outage, 0.0, self.efficiencies[idx])
        return idx.astype(np.int64), eff


_DEFAULT = McsTable()


def sinr_to_mcs(sinr_db: float, table: McsTable | None = None) -> tuple[int, float]:
    """Map one SINR value to (mcs_index, spectral efficiency in bits/RE)."""
    if not np.isfinite(sinr_db):
        raise ValueError(f"sinr_db must be finite, got {sinr_db}")
    tab = _DEFAULT if table is None else table
    idx, eff = tab.lookup(float(sinr_db))
    return int(idx), float(eff)


def load_mcs_table(path) -> McsTable:
    """Load a threshold table from a text file of 'min_sinr_db efficiency' rows."""
    with open(path) as fh:
        text = fh.read()
    if not text.strip():
        raise ConfigError(f"{path}: MCS table file is empty")
    try:
        raw = np.loadtxt(text.splitlines(), dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed MCS table: {exc}") from exc
    return McsTable(raw)
