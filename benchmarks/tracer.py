"""Per-layer tracing by wrapping pqossim's public functions from outside.

Each wrapped function is replaced, for the duration of a traced section, by
a closure that times the call with `perf_counter_ns` and charges it to a
layer. A call's self time is its duration minus the duration of the wrapped
calls made inside it, so the self times of all layers add up to at most
the wall time spent inside the outermost wrapped calls. Nothing in the
library changes; `uninstall` puts every original function back.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

# (module path, class name or None, attribute, layer). Module-level names are
# patched in the module whose globals the caller looks them up in: harness
# imports compute_reward/qos_met by name, and compute_reward calls qos_met
# through reward's globals.
WRAPPED = (
    ("pqossim.env", "NetworkEnv", "step", "env.step"),
    ("pqossim.env", "NetworkEnv", "reset", "env.reset"),
    ("pqossim.env", None, "state_vector", "env.state_vector"),
    ("pqossim.link", "McsTable", "lookup", "link.lookup"),
    ("pqossim.harness", None, "compute_reward", "reward"),
    ("pqossim.harness", None, "qos_met", "reward"),
    ("pqossim.reward", None, "qos_met", "reward"),
    ("pqossim.policies", "ConstantPolicy", "decide", "policies.decide"),
    ("pqossim.policies", "DqlGreedyPolicy", "decide", "policies.decide"),
    ("pqossim.policies", "DqlTrainingPolicy", "decide", "policies.decide"),
    ("pqossim.dqn", "QNetwork", "forward", "dqn.forward"),
    ("pqossim.dqn", "DqnAgent", "train_batch", "dqn.train_batch"),
    ("pqossim.dqn", "ReplayBuffer", "sample", "dqn.replay.sample"),
    ("pqossim.dqn", "ReplayBuffer", "push", "dqn.replay.push"),
    ("pqossim.dqn", "DqnAgent", "save", "dqn.checkpoint"),
    ("pqossim.harness", None, "run_offline_training", "harness.loop"),
    ("pqossim.harness", None, "run_online_training", "harness.loop"),
    ("pqossim.harness", None, "run_test", "harness.loop"),
    ("pqossim.harness", None, "write_records_csv", "harness.csv"),
    ("pqossim.harness", None, "write_episodes_csv", "harness.csv"),
    ("pqossim.harness", None, "emit_figures_csv", "harness.figures"),
    ("pqossim.harness", None, "summarize_test", "harness.figures"),
)

# Layers whose per-call durations are kept for percentiles.
SAMPLED = ("env.step", "dqn.train_batch")


class Tracer:
    """Self time, call counts and sampled durations per layer."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.layer_calls: Counter = Counter()
        self.function_calls: Counter = Counter()
        self.samples_ns: dict[str, list[int]] = {layer: [] for layer in SAMPLED}
        self.wall_ns = 0
        self._child_ns = [0]
        self._originals: list[tuple[object, str, object]] = []
        self._installed_at = 0

    def _wrap(self, fn, layer: str, name: str):
        child_ns = self._child_ns
        self_ns = self.self_ns
        layer_calls = self.layer_calls
        function_calls = self.function_calls
        samples = self.samples_ns.get(layer)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_ns.pop()
                child_ns[-1] += elapsed
                self_ns[layer] += elapsed - inner
                layer_calls[layer] += 1
                function_calls[name] += 1
                if samples is not None:
                    samples.append(elapsed)

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every entry of WRAPPED; `modules` maps module path to module."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module_path, class_name, attr, layer in WRAPPED:
            owner = modules[module_path]
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = vars(owner)[attr]
            name = f"{class_name or module_path.rsplit('.', 1)[1]}.{attr}"
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, name))
        self._installed_at = time.perf_counter_ns()

    def uninstall(self) -> None:
        self.wall_ns += time.perf_counter_ns() - self._installed_at
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @property
    def self_total_ns(self) -> int:
        return sum(self.self_ns.values())


def percentile_us(tracers: list[Tracer], layer: str, q: float) -> float:
    """Nearest-rank percentile of one sampled layer's call durations, pooled."""
    data = sorted(ns for t in tracers for ns in t.samples_ns[layer])
    if not data:
        return 0.0
    rank = max(1, math.ceil(len(data) * q / 100))
    return data[rank - 1] / 1000.0
