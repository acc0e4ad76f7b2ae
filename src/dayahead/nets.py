"""Minimal feed-forward networks with exact analytic gradients.

Just enough machinery for the trading policy: affine layers with tanh hidden
activations and a linear output, reverse-mode gradients checked against
finite differences in the test suite, orthogonal initialization, and a plain
RMSprop optimizer.  Everything is numpy; a policy is a pair of such networks
(actor and critic) plus a learned state-independent log-std vector, all views
into one float64 parameter vector that the optimizer updates as a whole.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .data import DataError, read_arrays, read_json


def _shapes(sizes: list[int]) -> list[tuple[int, ...]]:
    """Weight shapes, then bias shapes, of a network with layer widths ``sizes``."""
    layers = list(zip(sizes[:-1], sizes[1:]))
    return [(n_out, n_in) for n_in, n_out in layers] + [(n_out,) for _, n_out in layers]


def _size(sizes: list[int]) -> int:
    return sum(map(math.prod, _shapes(sizes)))


def _views(vector: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of ``vector`` with the given shapes, which must fill it."""
    ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
    if vector.shape != (ends[-1],):
        raise ValueError(f"parameter vector of shape {vector.shape}, expected ({ends[-1]},)")
    return [vector[end - math.prod(shape):end].reshape(shape)
            for shape, end in zip(shapes, ends)]


class MLP:
    """Fully connected network: tanh hidden layers and a linear output.

    ``sizes`` are the layer widths, input first.  ``weights[i]`` has shape
    (sizes[i + 1], sizes[i]) and ``biases[i]`` length sizes[i + 1]; all the
    weights, then all the biases, are views into the float64 ``vector``
    (zeros unless given), so writing one writes the other.
    """

    def __init__(self, sizes: list[int], vector: np.ndarray | None = None):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = [int(n) for n in sizes]
        self.vector = np.zeros(_size(self.sizes)) if vector is None else vector
        views = _views(self.vector, _shapes(self.sizes))
        self.weights, self.biases = views[:len(views) // 2], views[len(views) // 2:]


def forward(net: MLP, x: np.ndarray) -> np.ndarray:
    """Evaluate the network; accepts a single vector or a (batch, in) matrix."""
    y, _ = forward_cached(net, x, need_cache=False)
    return y


def forward_cached(net: MLP, x: np.ndarray, need_cache: bool = True):
    """Evaluate and keep the per-layer activations needed by ``backward``."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != net.sizes[0]:
        raise ValueError(f"input size {a.shape[1]} != network input {net.sizes[0]}")
    cache = [a] if need_cache else None
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w.T + b
        if i < last:
            a = np.tanh(a)
        if need_cache:
            cache.append(a)
    return (a[0] if single else a), cache


def backward(net: MLP, cache: list[np.ndarray], output_gradient: np.ndarray,
             grad: MLP) -> MLP:
    """Exact gradients of a scalar loss given d loss / d output, written into
    ``grad``, a net of the same sizes, which is returned.

    ``cache`` comes from ``forward_cached``; batched output gradients are
    summed over the batch, matching the gradient of a summed loss.
    """
    g = np.asarray(output_gradient, dtype=float)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != cache[-1].shape:
        raise ValueError(f"output gradient shape {g.shape} != output shape {cache[-1].shape}")
    for i in range(len(net.weights) - 1, -1, -1):
        np.matmul(g.T, cache[i], out=grad.weights[i])
        g.sum(axis=0, out=grad.biases[i])
        if i > 0:
            g = (g @ net.weights[i]) * (1.0 - cache[i] ** 2)
    return grad


def orthogonal_init(net: MLP, rng: np.random.Generator | int,
                    gains: float | list[float] = 1.0) -> MLP:
    """Orthogonally initialize every weight matrix in place; zero the biases.

    Whichever of rows/columns is smaller ends up orthonormal, scaled by the
    layer gain.  ``gains`` is a single value or one per layer.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if np.isscalar(gains):
        gains = [float(gains)] * len(net.weights)
    if len(gains) != len(net.weights):
        raise ValueError("need one gain per layer")
    for w, b, gain in zip(net.weights, net.biases, gains):
        rows, cols = w.shape
        a = rng.standard_normal((max(rows, cols), min(rows, cols)))
        q, r = np.linalg.qr(a)
        q = q * np.sign(np.diag(r))  # fix the sign ambiguity for a unique Q
        w[:] = gain * (q if rows >= cols else q.T)
        b[:] = 0.0
    return net


# ---------------------------------------------------------------------------
# RMSprop
# ---------------------------------------------------------------------------

def rmsprop_step(params: np.ndarray, grad: np.ndarray, square_avg: np.ndarray,
                 lr: float = 1e-4, decay: float = 0.99, eps: float = 1e-5) -> None:
    """One RMSprop update of the parameter vector ``params``, in place.

    ``square_avg`` is the caller's moving average of squared gradients (zeros
    at first), updated in place too; the step is lr * g / (sqrt(avg) + eps).
    A non-finite gradient aborts before anything is written: it signals a
    diverging training run rather than something to silently clip.
    """
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient in RMSprop update")
    square_avg *= decay
    square_avg += (1.0 - decay) * grad * grad
    params -= lr * grad / (np.sqrt(square_avg) + eps)


def clip_gradient_norm(grad: PolicyParams, max_norm: float) -> float:
    """Scale the gradient vector in place so its global L2 norm is at most
    ``max_norm``; returns the norm before clipping.  Squares are summed array
    by array in ``parameters()`` order: one sum over the whole vector would
    group the additions differently and change the last bits.
    """
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in grad.parameters()))
    if max_norm > 0 and norm > max_norm:
        grad.vector *= max_norm / norm
    return float(norm)


# ---------------------------------------------------------------------------
# The trading policy: actor + critic + log-std
# ---------------------------------------------------------------------------

POLICY_FORMAT_VERSION = 1
# What the JSON header of a policy file holds.  Its meta keys are those a
# trainer records (include_weather, the price scale and policy_binding's).
POLICY_HEADER = {"format_version": (POLICY_FORMAT_VERSION,), "actor_layers": int,
                 "critic_layers": int, "meta": {
                     "include_weather?": bool, "price_scale?": float, "battery_capacity?": float,
                     "max_wind_speed?": float, "temperature_range?": [float, 2]}}


class PolicyParams:
    """Trainable parameters of the Gaussian bidding policy.

    The actor, with layer widths ``sizes``, maps an observation to the 96
    action means; exploration noise is scaled by a learned, state-independent
    ``log_std``.  The critic has the same hidden layers and a scalar output.
    All three are views into one float64 ``vector`` (zeros unless given), in
    ``parameters()`` order.  ``meta`` carries whatever the policy needs to be
    deployable standalone, in particular the observation normalization.
    """

    def __init__(self, sizes: list[int], vector: np.ndarray | None = None,
                 meta: dict | None = None):
        self.sizes = [int(n) for n in sizes]
        critic_sizes = [*self.sizes[:-1], 1]
        parts = [_size(self.sizes), _size(critic_sizes), self.sizes[-1]]
        self.vector = np.zeros(sum(parts)) if vector is None else vector
        actor, critic, self.log_std = _views(self.vector, [(n,) for n in parts])
        self.actor = MLP(self.sizes, actor)
        self.critic = MLP(critic_sizes, critic)
        self.meta = {} if meta is None else meta

    @property
    def input_size(self) -> int:
        return self.sizes[0]

    @property
    def action_size(self) -> int:
        return self.sizes[-1]

    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays in ``vector`` order: actor weights, actor
        biases, critic weights, critic biases, log-std."""
        return [*self.actor.weights, *self.actor.biases,
                *self.critic.weights, *self.critic.biases, self.log_std]

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.sizes, self.vector.copy(), dict(self.meta))


# Orthogonal-init gains of the hidden layers and of the two output heads.
HIDDEN_GAIN = 1.0
POLICY_GAIN = 0.01
VALUE_GAIN = 1.0


def init_policy(input_size: int, hidden_size: int = 200, action_size: int = 96,
                seed: int | np.random.Generator = 0, log_std_init: float = -1.0,
                meta: dict | None = None) -> PolicyParams:
    """Fresh orthogonally-initialized actor-critic pair.

    The small policy-head gain keeps initial actions near zero, i.e. initial
    bids near the median price and the rounding threshold.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    policy = PolicyParams([input_size, hidden_size, action_size], meta=meta)
    orthogonal_init(policy.actor, rng, [HIDDEN_GAIN, POLICY_GAIN])
    orthogonal_init(policy.critic, rng, [HIDDEN_GAIN, VALUE_GAIN])
    policy.log_std[:] = float(log_std_init)
    return policy


def _stored_arrays(policy: PolicyParams) -> list[tuple[str, np.ndarray]]:
    """The trainable arrays under their ``.npz`` keys, in the file's order:
    layer by layer, weights before biases, then log-std."""
    named = []
    for prefix, net in (("actor", policy.actor), ("critic", policy.critic)):
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            named += [(f"{prefix}_w{i}", w), (f"{prefix}_b{i}", b)]
    return named + [("log_std", policy.log_std)]


def save_policy(path, policy: PolicyParams) -> None:
    """Serialize a policy to ``.npz`` (exact float64 round trip)."""
    arrays = dict(_stored_arrays(policy))
    header = {"format_version": POLICY_FORMAT_VERSION, "actor_layers": len(policy.actor.weights),
              "critic_layers": len(policy.critic.weights), "meta": policy.meta}
    arrays["header"] = np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_policy(path) -> PolicyParams:
    """Read a policy written by ``save_policy``.  A file that is not an
    ``.npz``, a header that does not hold :data:`POLICY_HEADER`, a missing
    array, or one whose shape differs from its place in the policy, raises a
    DataError naming the file and the key."""
    arrays = read_arrays(path)

    def stored(key: str) -> np.ndarray:
        if key not in arrays:
            raise DataError(f"{path}: no array {key}")
        return arrays[key]

    header = read_json(f"{path} header", POLICY_HEADER, stored("header").tobytes())
    weights = [stored(f"actor_w{i}") for i in range(header["actor_layers"])]
    if not weights or any(w.ndim != 2 for w in weights):
        raise DataError(f"{path}: actor weights must be matrices")
    policy = PolicyParams([weights[0].shape[1], *(w.shape[0] for w in weights)],
                          meta=header["meta"])
    for key, view in _stored_arrays(policy):
        array = stored(key)
        if array.shape != view.shape:
            raise DataError(f"{path}: {key} has shape {array.shape}, expected {view.shape}")
        view[...] = array
    return policy
