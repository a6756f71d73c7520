"""Minimal neural toolkit: LSTM/Bi-LSTM and linear-layer weights (views of
a model's flat parameter vector, see bilstm_mlp.layout), activations,
losses and SGD with momentum. Analytic gradients for the fixed
architectures live with the models; the sequence kernels are in kernels.py.

Everything is float64. Random state is a numpy Generator created with
`np.random.default_rng(seed)`; identical seeds give identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels

Rng = np.random.Generator


@dataclass
class LstmParams:
    """One direction's LSTM weights, gates stacked row-wise as i|f|g|o."""

    w_x: np.ndarray  # (4H, D)
    w_h: np.ndarray  # (4H, H)
    bias: np.ndarray  # (4H,)

    @property
    def hidden_dim(self) -> int:
        return self.w_h.shape[1]

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[1]


@dataclass
class BiLstm:
    forward: LstmParams
    backward: LstmParams

    @property
    def input_dim(self) -> int:
        return self.forward.input_dim

    @property
    def hidden_dim(self) -> int:
        return self.forward.hidden_dim


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


def bilstm_backward_last(m: BiLstm, cache: BiLstmCache, d_last: np.ndarray,
                         grad: BiLstm) -> None:
    """BPTT when the loss touches only bilstm_last_output. Writes the
    gradients into grad's arrays."""
    T = cache.xs.shape[0]
    h = m.hidden_dim
    for p, g, xs, run, d in ((m.forward, grad.forward, cache.xs, cache.fwd, d_last[:h]),
                             (m.backward, grad.backward, cache.xs_rev, cache.bwd, d_last[h:])):
        d_h_out = np.zeros((T, h))
        d_h_out[T - 1] = d
        kernels.lstm_backward_seq(p.w_x, p.w_h, xs, *run, d_h_out, g.w_x, g.w_h, g.bias)


@dataclass
class LinearParams:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


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
    The velocity vector is allocated on first use, shaped like the flat
    parameter vector."""

    learning_rate: float = 0.003
    momentum: float = 0.9
    velocity: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning rate must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


def sgd_step(cfg: SgdConfig, theta: np.ndarray, grad: np.ndarray) -> None:
    """Update the flat parameter vector theta in place. grad is spent: it
    is overwritten with the step."""
    if cfg.velocity is None:
        cfg.velocity = np.zeros_like(theta)
    if cfg.velocity.shape != theta.shape or grad.shape != theta.shape:
        raise ValueError("parameter, gradient and velocity vectors differ in shape")
    v = cfg.velocity
    v *= cfg.momentum
    v += grad
    theta -= np.multiply(v, cfg.learning_rate, out=grad)
