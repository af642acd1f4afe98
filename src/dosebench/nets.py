"""Minimal dense network with hand-written gradients and Adam.

ReLU hidden layers, linear output, all float64. A net's parameters are one
vector ``w0, b0, w1, b1, …`` (weights row-major, fan-in by fan-out), which
``weights`` and ``biases`` view; gradients, Adam's moments and checkpoints
share that layout. A ``.dnet`` checkpoint is a header (magic, version, layer
sizes), a CRC32 and the vector as little-endian float64.

The per-call work is sized for the one-row forwards and single updates of a
training loop and for row-stacked ``(L, 1, d)`` forwards (one per lock-step
evaluation round, two per PPO collect for the critic's values), each row with
the bytes of its own one-row forward. ``forward`` adds the bias and applies
ReLU in place on arrays it made, ``backward`` masks in place only gradients it
computed itself, and Adam writes its intermediates into two scratch vectors
and flushes subnormals from its first moment (see ``adam_step``). Each keeps
the IEEE operations, and so the bytes, of the plain expressions.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

_MAGIC = b"DNET"
_FORMAT_VERSION = 1
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8   # Adam, Kingma & Ba's defaults
_TINY = np.finfo(np.float64).tiny              # the least normal float64
_FLUSH_EVERY = 16                              # Adam steps between m flushes


class CheckpointError(Exception):
    """Unreadable or mismatching checkpoint file."""


def _n_params(layer_sizes) -> int:
    return sum(a * b + b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


def _layers(layer_sizes, vector: np.ndarray):
    """(weights, biases) as views of a parameter vector: the layout."""
    if vector.shape != (_n_params(layer_sizes),):
        raise ValueError("parameter vector does not match the layer sizes")
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        end = pos + fan_in * fan_out
        weights.append(vector[pos:end].reshape(fan_in, fan_out))
        biases.append(vector[end:end + fan_out])
        pos = end + fan_out
    return weights, biases


@dataclass
class DenseNet:
    layer_sizes: list[int]
    params: np.ndarray               # float64, updated in place only

    def __post_init__(self):
        self.weights, self.biases = _layers(self.layer_sizes, self.params)

    def copy(self) -> "DenseNet":
        return DenseNet(list(self.layer_sizes), self.params.copy())

    def copy_from(self, other: "DenseNet"):
        if other.layer_sizes != self.layer_sizes:
            raise ValueError("layer size mismatch")
        self.params[...] = other.params


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    learning_rate: float
    step: int = 0

    def __post_init__(self):
        # Scratch vectors for adam_step's intermediates.
        self._scratch = (np.empty_like(self.m), np.empty_like(self.m))


def init_near_zero(layer_sizes, scale: float, seed: int) -> DenseNet:
    """Uniform weights in [-scale, scale], biases exactly zero."""
    if scale < 0:
        raise ValueError("scale must be non-negative")
    rng = np.random.default_rng(seed)
    net = DenseNet(list(layer_sizes), np.zeros(_n_params(layer_sizes)))
    for w in net.weights:
        w[...] = rng.uniform(-scale, scale, size=w.shape)
    return net


def init_standard(layer_sizes, seed: int) -> DenseNet:
    """Fan-in-scaled uniform init for critics and Q-networks."""
    rng = np.random.default_rng(seed)
    net = DenseNet(list(layer_sizes), np.zeros(_n_params(layer_sizes)))
    for w in net.weights:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


def forward(net: DenseNet, x):
    """Forward pass of one row, a batch, or a row-stacked batch.

    Accepts (d,), (n, d) or (L, 1, d); returns (output, cache), the output
    shaped like x with the last axis resized. Hidden layers are ReLU, the
    final layer is linear. An (n, d) batch is one matrix product per layer,
    whose bytes may differ in the last place from n one-row forwards. An
    (L, 1, d) batch stacks L one-row products: each row gets the bytes of
    its own one-row forward, so a lock-step round makes one call for all of
    its lanes.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[-1] != net.layer_sizes[0]:
        raise ValueError(f"input width {x.shape[-1]} != {net.layer_sizes[0]}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    acts = [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w
        z += b                      # the same IEEE add as ``x @ w + b``
        if i < last:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    out = acts[-1][0] if squeeze else acts[-1]
    return out, acts


def backward(net: DenseNet, cache, output_gradient) -> np.ndarray:
    """Exact gradients of the forward map, laid out like ``net.params``."""
    if len(cache) != len(net.weights) + 1:
        raise ValueError("cache does not match network depth")
    g = np.asarray(output_gradient, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    grads = np.empty_like(net.params)
    w_grads, b_grads = _layers(net.layer_sizes, grads)
    last = len(net.weights) - 1
    for i in reversed(range(last + 1)):
        if i < last:
            # ReLU mask on this layer's output, in place: below the output
            # layer g is the product computed here, never the caller's array.
            g *= cache[i + 1] > 0
        np.matmul(cache[i].T, g, out=w_grads[i])
        g.sum(axis=0, out=b_grads[i])
        if i > 0:                   # the input layer's gradient is not needed
            g = g @ net.weights[i].T
    return grads


def make_optimizer(net: DenseNet, learning_rate: float) -> OptimizerState:
    zeros = np.zeros_like(net.params)
    return OptimizerState(m=zeros, v=zeros.copy(), learning_rate=learning_rate)


def adam_step(net: DenseNet, grads: np.ndarray, opt: OptimizerState):
    """Bias-corrected Adam update of ``net.params`` in place.

    The operations and their order are those of
    ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    params -= lr * (m/b1c) / (sqrt(v/b2c) + eps)``, written into scratch.

    An entry whose gradient stays exactly zero decays its ``m`` by b1 per
    step into subnormals, whose arithmetic is several times slower, and takes
    about 340 steps from the least normal float to zero. So every 16th step
    sets first-moment entries below the least normal float to +0.0: an entry
    stays subnormal for at most 15 steps. A flush moves a parameter by less
    than ``lr * tiny / (b1c * eps)`` (about 2e-302 at lr = 1e-3), below half
    an ulp of any parameter larger than about 1e-285, so the parameters keep
    their bytes.
    """
    m, v, (a, b) = opt.m, opt.v, opt._scratch
    opt.step += 1
    b1c = 1.0 - _BETA1 ** opt.step
    b2c = 1.0 - _BETA2 ** opt.step
    m *= _BETA1
    np.multiply(grads, 1 - _BETA1, out=a)
    m += a
    if opt.step % _FLUSH_EVERY == 0:
        np.abs(m, out=a)
        np.copyto(m, 0.0, where=a < _TINY)
    v *= _BETA2
    np.multiply(grads, 1 - _BETA2, out=a)
    a *= grads
    v += a
    np.divide(m, b1c, out=a)
    a *= opt.learning_rate
    np.divide(v, b2c, out=b)
    np.sqrt(b, out=b)
    b += _EPSILON
    a /= b
    net.params -= a


def save_params(net: DenseNet, path):
    """Write the checkpoint container; round trip is bit-exact."""
    header = struct.pack("<4sII", _MAGIC, _FORMAT_VERSION, len(net.layer_sizes))
    header += struct.pack(f"<{len(net.layer_sizes)}I", *net.layer_sizes)
    payload = net.params.astype("<f8", copy=False).tobytes()
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
        raise CheckpointError(
            f"{path}: truncated checkpoint header: {exc}") from exc
    if magic != _MAGIC:
        raise CheckpointError(
            f"{path}: not a dense-net checkpoint (bad magic)")
    if version != _FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version}")
    off = 12
    try:
        sizes = list(struct.unpack_from(f"<{n_sizes}I", data, off))
        off += 4 * n_sizes
        (crc,) = struct.unpack_from("<I", data, off)
        off += 4
    except struct.error as exc:
        raise CheckpointError(f"{path}: truncated checkpoint: {exc}") from exc
    payload = data[off:]
    if len(payload) != 8 * _n_params(sizes):
        raise CheckpointError(f"{path}: checkpoint payload length mismatch")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CheckpointError(
            f"{path}: checkpoint CRC mismatch (corrupted file)")
    # A writeable, native-order copy: the net may be trained further.
    return DenseNet(sizes, np.frombuffer(payload, "<f8").astype(np.float64))
