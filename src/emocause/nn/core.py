"""Minimal neural toolkit: LSTM/Bi-LSTM parameters, linear layers,
activations, losses and SGD with momentum. Analytic gradients for the fixed
architectures live with the models; the sequence kernels are in kernels.py.

Everything is float64. Random state is a numpy Generator created with
`np.random.default_rng(seed)`; identical seeds give identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels

Rng = np.random.Generator


def _uniform_init(rng: Rng, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _check_finite(name: str, a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite values")


@dataclass
class LstmParams:
    """One direction's LSTM weights, gates stacked row-wise as i|f|g|o."""

    w_x: np.ndarray  # (4H, D)
    w_h: np.ndarray  # (4H, H)
    bias: np.ndarray  # (4H,)

    def __post_init__(self):
        self.w_x = np.ascontiguousarray(self.w_x, dtype=np.float64)
        self.w_h = np.ascontiguousarray(self.w_h, dtype=np.float64)
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float64)
        four_h, hidden = self.w_h.shape
        if four_h != 4 * hidden:
            raise ValueError(f"w_h must be (4H, H), got {self.w_h.shape}")
        if self.w_x.shape[0] != four_h:
            raise ValueError("w_x and w_h disagree on hidden size")
        if self.bias.shape != (four_h,):
            raise ValueError(f"bias must be (4H,), got {self.bias.shape}")
        for name in ("w_x", "w_h", "bias"):
            _check_finite(name, getattr(self, name))

    @property
    def hidden_dim(self) -> int:
        return self.w_h.shape[1]

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[1]

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, rng: Rng) -> "LstmParams":
        return cls(
            w_x=_uniform_init(rng, (4 * hidden_dim, input_dim), input_dim),
            w_h=_uniform_init(rng, (4 * hidden_dim, hidden_dim), hidden_dim),
            bias=_uniform_init(rng, 4 * hidden_dim, hidden_dim),
        )

    def tensors(self) -> list[np.ndarray]:
        return [self.w_x, self.w_h, self.bias]


@dataclass
class BiLstm:
    forward: LstmParams
    backward: LstmParams

    def __post_init__(self):
        if self.forward.input_dim != self.backward.input_dim:
            raise ValueError("directions disagree on input dim")
        if self.forward.hidden_dim != self.backward.hidden_dim:
            raise ValueError("directions disagree on hidden dim")

    @property
    def input_dim(self) -> int:
        return self.forward.input_dim

    @property
    def hidden_dim(self) -> int:
        return self.forward.hidden_dim

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, rng: Rng) -> "BiLstm":
        return cls(LstmParams.init(input_dim, hidden_dim, rng),
                   LstmParams.init(input_dim, hidden_dim, rng))

    def tensors(self) -> list[np.ndarray]:
        return self.forward.tensors() + self.backward.tensors()


class BiLstmCache:
    """Everything both directions recorded during a forward pass."""

    __slots__ = ("xs", "xs_rev", "fwd", "bwd")

    def __init__(self, xs, xs_rev, fwd, bwd):
        self.xs = xs
        self.xs_rev = xs_rev
        self.fwd = fwd  # (hs, cs, gates, tanh_c) of the left-to-right run
        self.bwd = bwd  # same for the run over the reversed sequence


def bilstm_run(m: BiLstm, xs: np.ndarray) -> BiLstmCache:
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise ValueError("bilstm: need a nonempty (T, D) sequence")
    if xs.shape[1] != m.input_dim:
        raise ValueError(f"bilstm: input dim {xs.shape[1]} != {m.input_dim}")
    xs_rev = np.ascontiguousarray(xs[::-1])
    fwd = kernels.lstm_forward_seq(m.forward.w_x, m.forward.w_h, m.forward.bias, xs)
    bwd = kernels.lstm_forward_seq(m.backward.w_x, m.backward.w_h, m.backward.bias, xs_rev)
    return BiLstmCache(xs, xs_rev, fwd, bwd)


def bilstm_last_output(cache: BiLstmCache) -> np.ndarray:
    """concat(h_fwd at the final position, h_bwd at position 0) — each
    direction's state after it has consumed the whole sequence."""
    return np.concatenate([cache.fwd[0][-1], cache.bwd[0][-1]])


def bilstm_backward_last(m: BiLstm, cache: BiLstmCache, d_last: np.ndarray):
    """BPTT when the loss touches only bilstm_last_output. Returns gradients
    in tensors() order."""
    T = cache.xs.shape[0]
    h = m.hidden_dim
    d_f = np.zeros((T, h))
    d_f[T - 1] = d_last[:h]
    d_b = np.zeros((T, h))
    d_b[T - 1] = d_last[h:]
    g_f = kernels.lstm_backward_seq(m.forward.w_x, m.forward.w_h, cache.xs, *cache.fwd, d_f)
    g_b = kernels.lstm_backward_seq(m.backward.w_x, m.backward.w_h, cache.xs_rev, *cache.bwd, d_b)
    return list(g_f) + list(g_b)


@dataclass
class LinearParams:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)

    def __post_init__(self):
        self.weight = np.ascontiguousarray(self.weight, dtype=np.float64)
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("linear: weight must be (out, in) with bias (out,)")
        _check_finite("weight", self.weight)
        _check_finite("bias", self.bias)

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: Rng) -> "LinearParams":
        return cls(weight=_uniform_init(rng, (out_dim, in_dim), in_dim),
                   bias=_uniform_init(rng, out_dim, in_dim))

    def tensors(self) -> list[np.ndarray]:
        return [self.weight, self.bias]


def linear(p: LinearParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (p.in_dim,):
        raise ValueError(f"linear: input shape {x.shape} != ({p.in_dim},)")
    return p.weight @ x + p.bias


def elu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, np.expm1(x))


def elu_grad(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, 1.0, np.exp(x))


def sigmoid(x: float) -> float:
    # split on sign so exp never overflows
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def log_softmax(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x)
    return shifted - np.log(np.sum(np.exp(shifted)))


def dropout_mask(p: float, shape, rng: Rng) -> np.ndarray:
    return (rng.random(shape) >= p) / (1.0 - p)


def nll_loss(log_probs: np.ndarray, target: int) -> float:
    log_probs = np.asarray(log_probs, dtype=np.float64)
    if not 0 <= target < log_probs.shape[0]:
        raise ValueError(f"target {target} out of range for {log_probs.shape[0]} classes")
    return float(-log_probs[target])


BCE_EPS = 1e-7


def bce_loss(p: float, y: int) -> float:
    if y not in (0, 1):
        raise ValueError(f"bce label must be 0 or 1, got {y}")
    p = min(max(float(p), BCE_EPS), 1.0 - BCE_EPS)
    return float(-(y * np.log(p) + (1 - y) * np.log(1.0 - p)))


@dataclass
class SgdConfig:
    """SGD with classical momentum: v <- mu*v + g, theta <- theta - lr*v.
    Velocity buffers are allocated on first use, one per parameter tensor."""

    learning_rate: float = 0.003
    momentum: float = 0.9
    velocities: list[np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


def sgd_step(cfg: SgdConfig, params: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
    """Update params in place; returns them for convenience. The grads are
    spent: each one is overwritten with its step."""
    if len(params) != len(grads):
        raise ValueError("params and grads differ in length")
    if cfg.velocities is None:
        cfg.velocities = [np.zeros_like(p) for p in params]
    if len(cfg.velocities) != len(params):
        raise ValueError("velocity buffers do not match params")
    for theta, g, v in zip(params, grads, cfg.velocities):
        v *= cfg.momentum
        v += g
        theta -= np.multiply(v, cfg.learning_rate, out=g)
    return params
