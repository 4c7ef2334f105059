"""Self-contained double deep Q-learning core.

A small fully-connected ReLU network (default 8 -> 12 -> 6 -> 3) maps the
state vector to one q-value per action. Training follows the double-DQN
rule: the online network picks the bootstrap action, a periodically
synchronized target network evaluates it. Updates are Adam with decoupled
weight decay, computed by hand-written backpropagation; no ML runtime is
involved, which keeps runs bit-reproducible across machines.
"""

from __future__ import annotations

import math
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError
from .modes import AGENT_ACTION_IDS

DEFAULT_LAYER_SIZES = (8, 12, 6, 3)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class AgentConfig:
    """Hyperparameters of the learning agent."""

    discount: float = 0.95
    learning_rate: float = 1e-4
    weight_decay: float = 1e-3
    batch_size: int = 10
    replay_capacity: int = 50_000
    target_sync_period: int = 100
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_episodes: int = 500
    rng_seed: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must be in [0, 1), got {self.discount}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.replay_capacity < 1:
            raise ValueError("replay_capacity must be >= 1")
        if self.target_sync_period < 1:
            raise ValueError("target_sync_period must be >= 1")
        for name in ("eps_start", "eps_end"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.eps_decay_episodes < 1:
            raise ValueError("eps_decay_episodes must be >= 1")


@dataclass(frozen=True)
class Transition:
    """One replay record (s, a, r, s', terminal), or a batch of them.

    `ReplayBuffer.sample` and `DqnAgent.train_batch` use the batched form:
    every field carries a leading batch axis.
    """

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


class QNetwork:
    """Dense ReLU network with a linear head, float64 throughout.

    All parameters live in one contiguous vector `flat`, laid out
    w0, b0, w1, b1, ...; `weights` and `biases` are reshaped views into it.
    """

    def __init__(self, layer_sizes=DEFAULT_LAYER_SIZES, rng: np.random.Generator | None = None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        rng = rng if rng is not None else np.random.default_rng(0)
        # (start, stop, shape) of w0, b0, w1, b1, ... inside the flat vector
        self._spans = []
        at = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            for shape in ((fan_in, fan_out), (fan_out,)):
                size = math.prod(shape)
                self._spans.append((at, at + size, shape))
                at += size
        self.flat = np.zeros(at, dtype=np.float64)
        params = self.views(self.flat)
        self.weights: list[np.ndarray] = params[0::2]
        self.biases: list[np.ndarray] = params[1::2]
        for w in self.weights:
            # uniform Glorot bounds keep initial q-values near zero
            fan_in, fan_out = w.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))

    def views(self, vec: np.ndarray) -> list[np.ndarray]:
        """Split a parameter-sized vector into views shaped w0, b0, w1, b1, ..."""
        return [vec[start:stop].reshape(shape) for start, stop, shape in self._spans]

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_actions(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list[np.ndarray]:
        params = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        return params

    def copy_from(self, other: "QNetwork") -> None:
        np.copyto(self.flat, other.flat)

    def clone(self) -> "QNetwork":
        out = QNetwork(self.layer_sizes)
        out.copy_from(self)
        return out

    def forward_batch(self, states: np.ndarray) -> np.ndarray:
        """(B, n_inputs) -> (B, n_actions) q-values."""
        h = np.asarray(states, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.n_inputs:
            raise ValueError(f"expected (B, {self.n_inputs}) states, got {h.shape}")
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
            if i != last:
                np.maximum(h, 0.0, out=h)
        return h

    def forward(self, state) -> np.ndarray:
        """Single-state q-values, shape (n_actions,)."""
        s = np.asarray(state, dtype=np.float64)
        if s.shape != (self.n_inputs,):
            raise ValueError(f"expected state of shape ({self.n_inputs},), got {s.shape}")
        return self.forward_batch(s[None, :])[0]


def forward(net: QNetwork, state) -> np.ndarray:
    return net.forward(state)


def select_action(net: QNetwork, state, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy: uniform random with prob epsilon, else greedy argmax.

    Greedy ties break toward the lowest action index (argmax semantics),
    so behavior is deterministic given the q-values.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(net.n_actions))
    return int(np.argmax(net.forward(state)))


def double_q_targets(online: QNetwork, target: QNetwork, batch: Transition, discount: float) -> np.ndarray:
    """Bootstrap targets of a batch: the online net selects, the target net scores.

    Terminal transitions keep their bare reward.
    """
    a_star = np.argmax(online.forward_batch(batch.next_state), axis=1)
    boot = target.forward_batch(batch.next_state)[np.arange(len(a_star)), a_star]
    return batch.reward + np.where(batch.terminal, 0.0, discount * boot)


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform batch sampling.

    The ring is a set of preallocated arrays, one row per transition,
    sized from the first pushed state; `np.empty` leaves the pages
    untouched until the ring fills them.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._fill = 0
        self._next = 0
        self._states = None  # allocated on the first push

    def __len__(self) -> int:
        return self._fill

    def push(self, t: Transition) -> None:
        if self._states is None:
            shape = (self.capacity, *np.shape(t.state))
            self._states = np.empty(shape, dtype=np.float64)
            self._next_states = np.empty(shape, dtype=np.float64)
            self._actions = np.empty(self.capacity, dtype=np.int64)
            self._rewards = np.empty(self.capacity, dtype=np.float64)
            self._terminal = np.empty(self.capacity, dtype=bool)
        i = self._next
        self._states[i] = t.state
        self._actions[i] = t.action
        self._rewards[i] = t.reward
        self._next_states[i] = t.next_state
        self._terminal[i] = t.terminal
        self._next = (i + 1) % self.capacity
        if self._fill < self.capacity:
            self._fill += 1

    def sample(self, batch_size: int, rng: np.random.Generator) -> Transition | None:
        """Uniform sample without replacement, or None while under-filled.

        The sample is one Transition whose fields carry a leading batch axis.
        """
        if self._fill < batch_size:
            return None
        idx = rng.choice(self._fill, size=batch_size, replace=False)
        return Transition(
            self._states[idx],
            self._actions[idx],
            self._rewards[idx],
            self._next_states[idx],
            self._terminal[idx],
        )


class DqnAgent:
    """Online/target network pair plus the AdamW training step."""

    def __init__(self, config: AgentConfig, layer_sizes=DEFAULT_LAYER_SIZES):
        self.config = config
        init_rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
        self.online = QNetwork(layer_sizes, init_rng)
        self.target = self.online.clone()
        self.step_count = 0
        # Adam moments, laid out like the online network's flat vector
        self._adam_m = np.zeros_like(self.online.flat)
        self._adam_v = np.zeros_like(self.online.flat)

    # -- gradients -------------------------------------------------------

    def _loss_and_grads(self, states, actions, targets):
        """MSE loss at the taken actions and its parameter gradients.

        The gradients are aligned with `parameters()`: views into one
        fresh vector, see `_loss_and_grad_vector`.
        """
        loss, grad = self._loss_and_grad_vector(states, actions, targets)
        return loss, self.online.views(grad)

    def _loss_and_grad_vector(self, states, actions, targets):
        """MSE loss and its gradient as one vector laid out like `online.flat`."""
        net = self.online
        batch = states.shape[0]
        acts = [states]
        pre = []
        h = states
        last = len(net.weights) - 1
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = h @ w
            z += b
            pre.append(z)
            h = z if i == last else np.maximum(z, 0.0)
            acts.append(h)
        q = acts[-1]
        rows = np.arange(batch)
        err = q[rows, actions] - targets
        # sum / batch is exactly np.mean
        loss = float((err * err).sum() / batch)

        grad = np.empty_like(net.flat)
        grads = net.views(grad)
        delta = np.zeros_like(q)
        delta[rows, actions] = 2.0 * err / batch
        for i in range(last, -1, -1):
            np.matmul(acts[i].T, delta, out=grads[2 * i])
            delta.sum(axis=0, out=grads[2 * i + 1])
            if i > 0:
                delta = (delta @ net.weights[i].T) * (pre[i - 1] > 0.0)
        return loss, grad

    def _adam_step(self, grad: np.ndarray) -> None:
        """One AdamW update of the online network from a flat gradient."""
        cfg = self.config
        self.step_count += 1
        t = self.step_count
        corr1 = 1.0 - ADAM_BETA1**t
        corr2 = 1.0 - ADAM_BETA2**t
        p, m, v = self.online.flat, self._adam_m, self._adam_v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (grad * grad)
        update = (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
        # decoupled weight decay: not part of the moment estimates
        p -= cfg.learning_rate * (update + cfg.weight_decay * p)

    def train_batch(self, batch: Transition) -> float:
        """One gradient step on a batched Transition; returns the pre-update loss.

        Targets are double-DQN bootstraps treated as constants. The target
        network is refreshed by full copy every `target_sync_period` steps.
        """
        size = np.shape(batch.action)
        if size != (self.config.batch_size,):
            raise ValueError(f"batch of shape {size} != ({self.config.batch_size},)")
        targets = double_q_targets(self.online, self.target, batch, self.config.discount)
        loss, grad = self._loss_and_grad_vector(
            np.asarray(batch.state, dtype=np.float64), batch.action, targets
        )
        self._adam_step(grad)
        if self.step_count % self.config.target_sync_period == 0:
            self.target.copy_from(self.online)
        return loss

    # -- persistence -------------------------------------------------------

    def _checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """Checkpoint key -> live view of every parameter and moment tensor."""
        out = {}
        for prefix, net in (("", self.online), ("target_", self.target)):
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                out[f"{prefix}w{i}"] = w
                out[f"{prefix}b{i}"] = b
        # moment arrays follow the parameter order: w0, b0, w1, b1, ...
        moments = zip(self.online.views(self._adam_m), self.online.views(self._adam_v))
        for i, (m, v) in enumerate(moments):
            out[f"adam_m{i}"] = m
            out[f"adam_v{i}"] = v
        return out

    def save(self, path, action_mode_ids=AGENT_ACTION_IDS) -> None:
        """Write a versioned checkpoint; round-trips bit-exact.

        The file is written beside `path` and renamed over it, so a write
        that dies midway leaves any earlier checkpoint whole.
        """
        data = {
            "format_version": np.int64(CHECKPOINT_FORMAT_VERSION),
            "layer_sizes": np.asarray(self.online.layer_sizes, dtype=np.int64),
            "step_count": np.int64(self.step_count),
            "action_mode_ids": np.asarray(action_mode_ids, dtype=np.int64),
        }
        data.update(self._checkpoint_arrays())
        tmp = f"{path}.tmp"
        try:
            # a file handle, since np.savez appends ".npz" to a bare path
            with open(tmp, "wb") as fh:
                np.savez(fh, **data)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path, config: AgentConfig) -> "DqnAgent":
        try:
            with np.load(path, allow_pickle=False) as data:
                return cls._from_npz(dict(data), config, path)
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc

    @classmethod
    def _from_npz(cls, data: dict, config: AgentConfig, path) -> "DqnAgent":
        try:
            version = int(data["format_version"])
            if version != CHECKPOINT_FORMAT_VERSION:
                raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
            sizes = tuple(int(s) for s in data["layer_sizes"])
            agent = cls(config, layer_sizes=sizes)
            agent.step_count = int(data["step_count"])
            # write into the live views, so weights, biases and moments stay
            # windows on their flat vectors
            for key, view in agent._checkpoint_arrays().items():
                np.copyto(view, _checked(data[key], view.shape, path))
            return agent
        except KeyError as exc:
            raise CheckpointError(f"{path}: checkpoint missing field {exc}") from exc

    @staticmethod
    def checkpoint_action_ids(path) -> tuple[int, ...]:
        """Action-index to mode-id mapping recorded in a checkpoint."""
        try:
            with np.load(path, allow_pickle=False) as data:
                return tuple(int(i) for i in data["action_mode_ids"])
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc


def _checked(arr: np.ndarray, shape, path) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.shape != tuple(shape):
        raise CheckpointError(f"{path}: checkpoint array has shape {arr.shape}, expected {shape}")
    return arr
