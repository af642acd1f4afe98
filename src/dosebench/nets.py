"""Minimal dense network with hand-written gradients and Adam.

ReLU hidden layers, linear output. Everything is float64 numpy; forward
returns a cache that backward consumes to produce exact parameter gradients.
Checkpoints use a small self-describing binary container (little-endian
float64 payload, layer header, CRC) so round trips are bit-exact.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

_MAGIC = b"DNET"
_FORMAT_VERSION = 1
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8   # Adam, Kingma & Ba's defaults


class CheckpointError(Exception):
    """Unreadable or mismatching checkpoint file."""


@dataclass
class DenseNet:
    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "DenseNet":
        return DenseNet(list(self.layer_sizes),
                        [w.copy() for w in self.weights],
                        [b.copy() for b in self.biases])

    def copy_from(self, other: "DenseNet"):
        if other.layer_sizes != self.layer_sizes:
            raise ValueError("layer size mismatch")
        for w, ow in zip(self.weights, other.weights):
            w[...] = ow
        for b, ob in zip(self.biases, other.biases):
            b[...] = ob


@dataclass
class OptimizerState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    learning_rate: float
    step: int = 0


def _params(net: DenseNet):
    return list(net.weights) + list(net.biases)


def init_near_zero(layer_sizes, scale: float, seed: int) -> DenseNet:
    """Uniform weights in [-scale, scale], biases exactly zero."""
    if scale < 0:
        raise ValueError("scale must be non-negative")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.uniform(-scale, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return DenseNet(list(layer_sizes), weights, biases)


def init_standard(layer_sizes, seed: int) -> DenseNet:
    """Fan-in-scaled uniform init for critics and Q-networks."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return DenseNet(list(layer_sizes), weights, biases)


def forward(net: DenseNet, x):
    """Batched forward pass.

    Accepts (d,) or (n, d); returns (output, cache). Hidden layers are ReLU,
    the final layer is linear.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != net.layer_sizes[0]:
        raise ValueError(f"input width {x.shape[1]} != {net.layer_sizes[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    acts = [x]
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w + b
        if i < n_layers - 1:
            z = np.maximum(z, 0.0)
        acts.append(z)
    out = acts[-1][0] if squeeze else acts[-1]
    return out, acts


def backward(net: DenseNet, cache, output_gradient):
    """Exact gradients of the forward map; returns (weight_grads, bias_grads)."""
    if len(cache) != len(net.weights) + 1:
        raise ValueError("cache does not match network depth")
    g = np.asarray(output_gradient, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    w_grads = [None] * len(net.weights)
    b_grads = [None] * len(net.biases)
    for i in reversed(range(len(net.weights))):
        a_in = cache[i]
        if i < len(net.weights) - 1:
            g = g * (cache[i + 1] > 0)  # ReLU mask on this layer's output
        w_grads[i] = a_in.T @ g
        b_grads[i] = g.sum(axis=0)
        g = g @ net.weights[i].T
    return w_grads, b_grads


def make_optimizer(net: DenseNet, learning_rate: float) -> OptimizerState:
    params = _params(net)
    return OptimizerState(m=[np.zeros_like(p) for p in params],
                          v=[np.zeros_like(p) for p in params],
                          learning_rate=learning_rate)


def adam_step(net: DenseNet, grads, opt: OptimizerState):
    """Bias-corrected Adam update in place; grads = (w_grads, b_grads)."""
    w_grads, b_grads = grads
    flat_grads = list(w_grads) + list(b_grads)
    params = _params(net)
    opt.step += 1
    b1c = 1.0 - _BETA1 ** opt.step
    b2c = 1.0 - _BETA2 ** opt.step
    for p, g, m, v in zip(params, flat_grads, opt.m, opt.v):
        m *= _BETA1
        m += (1 - _BETA1) * g
        v *= _BETA2
        v += (1 - _BETA2) * g * g
        p -= opt.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + _EPSILON)


def save_params(net: DenseNet, path):
    """Write the checkpoint container; round trip is bit-exact."""
    header = struct.pack("<4sII", _MAGIC, _FORMAT_VERSION, len(net.layer_sizes))
    header += struct.pack(f"<{len(net.layer_sizes)}I", *net.layer_sizes)
    payload = b"".join(
        arr.astype("<f8", copy=False).tobytes()
        for pair in zip(net.weights, net.biases) for arr in pair)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(struct.pack("<I", crc))
        fh.write(payload)


def load_params(path) -> DenseNet:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        magic, version, n_sizes = struct.unpack_from("<4sII", data, 0)
    except struct.error as exc:
        raise CheckpointError(f"truncated checkpoint header: {exc}") from exc
    if magic != _MAGIC:
        raise CheckpointError("not a dense-net checkpoint (bad magic)")
    if version != _FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    off = 12
    try:
        sizes = list(struct.unpack_from(f"<{n_sizes}I", data, off))
        off += 4 * n_sizes
        (crc,) = struct.unpack_from("<I", data, off)
        off += 4
    except struct.error as exc:
        raise CheckpointError(f"truncated checkpoint: {exc}") from exc
    payload = data[off:]
    expected_bytes = 8 * sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    if len(payload) != expected_bytes:
        raise CheckpointError("checkpoint payload length mismatch")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CheckpointError("checkpoint CRC mismatch (corrupted file)")
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        nw = fan_in * fan_out * 8
        weights.append(np.frombuffer(payload[pos:pos + nw], dtype="<f8")
                       .reshape(fan_in, fan_out).copy())
        pos += nw
        nb = fan_out * 8
        biases.append(np.frombuffer(payload[pos:pos + nb], dtype="<f8").copy())
        pos += nb
    return DenseNet(sizes, weights, biases)
