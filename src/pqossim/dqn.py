"""Self-contained double deep Q-learning core.

A small fully-connected ReLU network (default 8 -> 12 -> 6 -> 3) maps the
state vector to one q-value per action. Training follows the double-DQN
rule: the online network picks the bootstrap action, a periodically
synchronized target network evaluates it. Updates are Adam with decoupled
weight decay, computed by hand-written backpropagation; no ML runtime is
involved. Runs are bit-reproducible on one host, and across hosts only
where numpy dispatches to the same SIMD level and OpenBLAS picks an FMA
kernel for the small matmuls (ROADMAP open item 1 removes that limit).
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atomic import atomic_open
from .errors import CheckpointError, check_finite
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
        check_finite(self)
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
        if self.batch_size > self.replay_capacity:
            # the buffer never holds a full batch, so no gradient step would run
            raise ValueError(
                f"batch_size ({self.batch_size}) must be <= replay_capacity ({self.replay_capacity})"
            )
        if self.target_sync_period < 1:
            raise ValueError("target_sync_period must be >= 1")
        for name in ("eps_start", "eps_end"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.eps_decay_episodes < 1:
            raise ValueError("eps_decay_episodes must be >= 1")


class Transition(NamedTuple):
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
        self._bind(np.zeros(at, dtype=np.float64))
        for w in self.weights:
            # uniform Glorot bounds keep initial q-values near zero
            fan_in, fan_out = w.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))

    def _bind(self, flat: np.ndarray) -> "QNetwork":
        """Make `flat`, a parameter-sized float64 vector, hold the parameters from now on.

        Nothing is copied: the network takes the values `flat` holds.
        """
        params = self.views(flat)
        self.flat = flat
        self.weights: list[np.ndarray] = params[0::2]
        self.biases: list[np.ndarray] = params[1::2]
        return self

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
    q_online = online.forward_batch(batch.next_state)
    q_target = target.forward_batch(batch.next_state)
    return _bootstrap(q_online, q_target, batch.reward, batch.terminal, discount)


def _bootstrap(q_online, q_target, reward, terminal, discount: float) -> np.ndarray:
    """The double-Q rule on next-state q-values of both networks, (B, n_actions) each."""
    a_star = q_online.argmax(axis=1)
    boot = q_target[np.arange(len(a_star)), a_star]
    return reward + np.where(terminal, 0.0, discount * boot)


def _layers(weights, biases, outs, pre) -> None:
    """Forward pass that keeps every layer's output and pre-activation.

    outs[0] holds the input; the pass writes the pre-activation of layer i
    into pre[i] and its output (ReLU but for the linear head) into
    outs[i + 1], which is pre[i] itself for the head. Weights and biases
    with leading stack axes run every stacked network on every stacked
    input in one matmul per layer; each slice equals the 2-D pass.
    """
    for i, (w, b, z) in enumerate(zip(weights, biases, pre)):
        np.matmul(outs[i], w, out=z)
        z += b
        if outs[i + 1] is not z:
            np.maximum(z, 0.0, out=outs[i + 1])


def _workspace(x: np.ndarray, lead: tuple, layer_sizes) -> tuple[list, list]:
    """(outs, pre) buffers for `_layers` on input `x`, with leading axes `lead`."""
    pre = [np.empty((*lead, size)) for size in layer_sizes[1:]]
    return [x, *(np.empty_like(z) for z in pre[:-1]), pre[-1]], pre


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
        # `take` gathers the state rows in a third of fancy indexing's time
        return Transition(
            self._states.take(idx, axis=0),
            self._actions[idx],
            self._rewards[idx],
            self._next_states.take(idx, axis=0),
            self._terminal[idx],
        )


class DqnAgent:
    """Online/target network pair plus the AdamW training step."""

    def __init__(self, config: AgentConfig, layer_sizes=DEFAULT_LAYER_SIZES):
        self.config = config
        init_rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
        online = QNetwork(layer_sizes, init_rng)
        # row 0 is the online network, row 1 the target: a sync is one row copy
        self._params = np.stack([online.flat, online.flat])
        self.online = online._bind(self._params[0])
        self.target = online.clone()._bind(self._params[1])
        self.step_count = 0
        # Adam moments laid out like `online.flat`: row 0 is m, row 1 is v
        self._moments = np.zeros_like(self._params)
        self._adam_m, self._adam_v = self._moments
        # train_batch workspaces: every layer's stacked pass on one input
        # (1, 2, B, n_inputs) holding (next_state, state), the gradient
        # (row 0) and its square (row 1), and the AdamW scratch. Stacked
        # temporaries outgrow numpy's small-block cache; allocated per step
        # they cost more than the arithmetic in a training loop.
        x = np.empty((1, 2, config.batch_size, online.n_inputs))
        self._outs, self._pre = _workspace(x, (2, 2, config.batch_size), online.layer_sizes)
        self._grad = np.empty_like(self._params)
        self._grads = online.views(self._grad[0])
        self._scratch = np.empty_like(self._params)
        self._beta = np.array([[ADAM_BETA1], [ADAM_BETA2]])
        self._one_minus_beta = np.array([[1.0 - ADAM_BETA1], [1.0 - ADAM_BETA2]])
        self._corr = np.empty((2, 1))
        # both networks' layers as (2, 1, fan_in, fan_out) weights and (2, 1, 1, fan_out) biases
        stacked = [self._params[:, start:stop].reshape(2, 1, -1, shape[-1]) for start, stop, shape in online._spans]
        self._stacked_w, self._stacked_b = stacked[0::2], stacked[1::2]

    # -- gradients -------------------------------------------------------

    def _loss_and_grads(self, states, actions, targets):
        """MSE loss at the taken actions and its parameter gradients.

        The gradients are aligned with `parameters()`: views into one
        fresh vector laid out like `online.flat`.
        """
        net = self.online
        outs, pre = _workspace(states, np.shape(states)[:1], net.layer_sizes)
        _layers(net.weights, net.biases, outs, pre)
        grads = net.views(np.empty_like(net.flat))
        loss = self._backprop(outs, pre, (), actions, targets, grads)
        return loss, grads

    def _backprop(self, outs, pre, at, actions, targets, grads) -> float:
        """MSE loss at the taken actions; writes its gradient into `grads`.

        `outs` and `pre` come from `_layers`, and `at` indexes the online
        network's pass over the batch states in each of them (`()` for a
        plain 2-D pass). `grads` are the parameter views of a gradient vector.
        """
        weights = self.online.weights
        q = outs[-1][at]
        batch = q.shape[0]
        rows = np.arange(batch)
        err = q[rows, actions] - targets
        # sum / batch is exactly np.mean
        loss = float((err * err).sum() / batch)
        delta = np.zeros_like(q)
        delta[rows, actions] = 2.0 * err / batch
        for i in range(len(weights) - 1, -1, -1):
            np.matmul(outs[i][at].T, delta, out=grads[2 * i])
            delta.sum(axis=0, out=grads[2 * i + 1])
            if i > 0:
                delta = (delta @ weights[i].T) * (pre[i - 1][at] > 0.0)
        return loss

    def _adam_step(self) -> None:
        """One AdamW update of the online network from the gradient in `_grad[0]`.

        m and v are updated together as the rows of `_moments`, each with
        its own beta; every element sees the same operations as in
        `m = b1*m + (1-b1)*g`, `v = b2*v + (1-b2)*g*g`,
        `p -= lr * ((m/c1) / (sqrt(v/c2) + eps) + wd*p)`.
        """
        cfg = self.config
        self.step_count += 1
        t = self.step_count
        g, s, c = self._grad, self._scratch, self._corr
        np.multiply(g[0], g[0], out=g[1])
        self._moments *= self._beta
        np.multiply(self._one_minus_beta, g, out=s)
        self._moments += s
        c[0, 0] = 1.0 - ADAM_BETA1**t
        c[1, 0] = 1.0 - ADAM_BETA2**t
        np.divide(self._moments, c, out=s)
        update, denom = s
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update /= denom
        # decoupled weight decay: not part of the moment estimates
        p, step = self.online.flat, denom
        np.multiply(p, cfg.weight_decay, out=step)
        step += update
        step *= cfg.learning_rate
        p -= step

    def train_batch(self, batch: Transition) -> float:
        """One gradient step on a batched Transition; returns the pre-update loss.

        Targets are double-DQN bootstraps treated as constants. The target
        network is refreshed by full copy every `target_sync_period` steps.
        One stacked pass per layer runs both networks on the next states
        and the states; the online net on the states feeds the backprop.
        """
        cfg = self.config
        x = self._outs[0]
        shapes = (np.shape(batch.action), np.shape(batch.state), np.shape(batch.next_state))
        if shapes != ((cfg.batch_size,), x.shape[2:], x.shape[2:]):
            raise ValueError(f"batch of shapes {shapes} != ({cfg.batch_size},), {x.shape[2:]}")
        x[0, 0] = batch.next_state
        x[0, 1] = batch.state
        # axis 0 picks the network (online, target), axis 1 the input (next_state, state)
        outs, pre = self._outs, self._pre
        _layers(self._stacked_w, self._stacked_b, outs, pre)
        q = outs[-1]
        targets = _bootstrap(q[0, 0], q[1, 0], batch.reward, batch.terminal, cfg.discount)
        loss = self._backprop(outs, pre, (0, 1), batch.action, targets, self._grads)
        self._adam_step()
        if self.step_count % cfg.target_sync_period == 0:
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

    def save(self, path) -> None:
        """Write a versioned checkpoint; round-trips bit-exact.

        The file is written beside `path` and renamed over it, so a write
        that dies midway leaves any earlier checkpoint whole.
        """
        data = {
            "format_version": np.int64(CHECKPOINT_FORMAT_VERSION),
            "layer_sizes": np.asarray(self.online.layer_sizes, dtype=np.int64),
            "step_count": np.int64(self.step_count),
            "action_mode_ids": np.asarray(AGENT_ACTION_IDS, dtype=np.int64),
        }
        data.update(self._checkpoint_arrays())
        # a file handle, since np.savez appends ".npz" to a bare path
        with atomic_open(path, "wb") as fh:
            np.savez(fh, **data)

    @classmethod
    def load(cls, path, config: AgentConfig) -> "DqnAgent":
        """Read a checkpoint written by `save`; a torn file, a malformed field, another
        format or shape, or an action mapping other than AGENT_ACTION_IDS is a CheckpointError."""
        try:
            # np.load leaves a file it opened itself open when zipfile raises,
            # and reads a bare .npy file as an array, no context manager (TypeError)
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
                data = dict(npz)
        except (OSError, ValueError, EOFError, NotImplementedError, TypeError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
        try:
            version = int(data["format_version"])
            if version != CHECKPOINT_FORMAT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            ids = tuple(int(i) for i in data["action_mode_ids"])
            if ids != AGENT_ACTION_IDS:
                raise ValueError(f"checkpoint action mapping {ids} != expected {AGENT_ACTION_IDS}")
            sizes = tuple(int(s) for s in data["layer_sizes"])
            agent = cls(config, layer_sizes=sizes)
            agent.step_count = int(data["step_count"])
            # write into the live views, so weights, biases and moments stay
            # windows on their flat vectors
            for key, view in agent._checkpoint_arrays().items():
                arr = np.asarray(data[key], dtype=np.float64)
                if arr.shape != view.shape:
                    raise ValueError(f"{key} has shape {arr.shape}, expected {view.shape}")
                np.copyto(view, arr)
            return agent
        except KeyError as exc:
            raise CheckpointError(f"{path}: checkpoint missing field {exc}") from exc
        except (TypeError, ValueError) as exc:  # a failed check above, or a malformed field
            raise CheckpointError(f"{path}: {exc}") from exc
