"""Minimal neural toolkit: LSTM/Bi-LSTM and linear-layer weights (views of
a model's flat parameter vector, see bilstm_mlp.layout), activations,
losses and SGD with momentum. The network's forward and backward passes
are in bilstm_mlp.py, the heads' loss gradients on the model classes; the
sequence kernels are in kernels.py. A Bi-LSTM pass makes one kernel call
for both directions, and the kernels choose how their time loop covers
them.

Everything is float64. Random state is a numpy Generator created with
`np.random.default_rng(seed)`; identical seeds give identical streams.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels

Rng = np.random.Generator


@dataclass(eq=False)
class BiLstm:
    """Both directions' LSTM weights, gates stacked row-wise as i|f|g|o,
    each tensor one array with the direction first: row 0 is the forward
    direction's, row 1 the backward's. A model's are views of its flat
    vector (bilstm_mlp._cut), and so are a training run's velocity's."""

    w_x: np.ndarray  # (2, k, 4H, d): one block per entry of the block weights
    w_h: np.ndarray  # (2, 4H, H)
    bias: np.ndarray  # (2, 4H)

    @property
    def hidden_dim(self) -> int:
        return self.w_h.shape[2]


class BiLstmCache:
    """Everything both directions recorded during a forward pass over B
    sequences packed by length."""

    __slots__ = ("xs", "weights", "lengths", "last", "hs", "gates", "cells")

    def __init__(self, xs, weights, lengths, last, hs, gates, cells):
        self.xs = xs  # (2, N, d): the sequences' timesteps, one after another, per direction
        self.weights = weights  # (B, k) block weights, one row per sequence
        self.lengths = lengths  # B ints
        # (steps, columns): sequence i's last state is hs[steps[i], columns[i]]
        self.last = last
        # the forward kernel's outputs, with D = 2 (kernels.lstm_forward_seq)
        self.hs, self.gates, self.cells = hs, gates, cells


def bilstm_bytes(hidden: int, steps: int, batch: int) -> int:
    """Bytes of the kernel arrays bilstm_run holds for batch sequences of at
    most steps timesteps, counted 7H per direction and padded step: gates
    (4H) plus hs, cs and tanh(c) (H each). The kernel's cells (4H) hold
    those three in three of their slots; the fourth, -tanh(g), is left
    out, so the inference chunks, and with them the scores' last bits, do
    not change."""
    return 2 * 8 * 7 * hidden * (steps + 1) * batch


def one_hot_block(p) -> int | None:
    """The index of block weights p's one nonzero entry when that entry is
    exactly 1.0, else None: the weights of a step that reads and updates a
    single input weight block."""
    nonzero = [j for j, x in enumerate(p) if x]
    if len(nonzero) == 1 and p[nonzero[0]] == 1.0:
        return nonzero[0]
    return None


def effective_weights(w_x: np.ndarray, p: list) -> np.ndarray:
    """sum_j p[j] * w_x[..., j, :, :] over the (k, 4H, d) input weight
    blocks of one or more directions (any leading axes): a new (..., 4H, d)
    array, one contraction of p with the (..., k, 4H*d) view; for a one-hot
    p, the blocks w_x[..., j, :, :] themselves (a view), so the emotion
    model's single block and the cause scorer's teacher-forced training
    copy nothing."""
    j = one_hot_block(p)
    if j is not None:
        return w_x[..., j, :, :]
    *lead, k, four_h, d = w_x.shape
    return np.matmul(p, w_x.reshape(*lead, k, four_h * d)).reshape(*lead, four_h, d)


def bilstm_run(m: BiLstm, rows: np.ndarray, lengths, weights) -> BiLstmCache:
    """Both directions over B sequences at once.

    rows (N, d) holds the sequences' timesteps one after another, lengths
    (B,) their lengths and weights (B, k) their block weights, one per
    (4H, d) block W_x^(j) of each direction's input weights. rows may also
    be (2, N, d), those rows and, per sequence, the same rows reversed, as
    the cache holds them: a training run builds that once per example.
    Sequence i's timestep input is kron(weights[i], row), but that
    k*d-wide input is never built: since W_x kron(p, v) = (sum_j p_j
    W_x^(j)) v, the rows are projected through W_eff = sum_j p_j W_x^(j)
    (effective_weights), formed for both directions at once per run of
    consecutive sequences with equal weights and dropped after it. The
    negated projections are packed by decreasing length (ties keep their
    order) into the kernel's time-major, gate-major array, the backward
    direction's with each sequence reversed. A single sequence (a training
    step) is packed without being sorted or mapped. Both directions then
    run in one kernel call, which chooses how its time loop covers them.
    """
    rows = np.asarray(rows, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    lengths = [int(n) for n in lengths]
    if rows.ndim not in (2, 3) or (rows.ndim == 3 and len(rows) != 2) or not lengths \
            or min(lengths) < 1:
        raise ValueError("bilstm: need nonempty (T, D) sequences")
    n, d = rows.shape[-2:]
    if n != sum(lengths):
        raise ValueError(f"bilstm: {n} rows for sequences of {sum(lengths)} steps")
    batch = len(lengths)
    _, k, _, dim = m.w_x.shape
    if weights.shape != (batch, k) or d != dim:
        raise ValueError(f"bilstm: input dim {weights.shape[1:]} x {d} != ({k},) x {dim}")
    w = weights.tolist()
    ends = list(itertools.accumulate(lengths))
    spans = list(zip([0] + ends[:-1], ends))  # each sequence's rows
    if rows.ndim == 3:
        xs = rows
    else:
        xs = np.empty((2, n, d))
        xs[0] = rows
        for a, b in spans:
            xs[1, a:b] = rows[a:b][::-1]
    if batch == 1:
        order, col, firsts = [0], [0], [0]
    else:
        order = sorted(range(batch), key=lengths.__getitem__, reverse=True)  # stable
        col = [0] * batch
        for c, i in enumerate(order):
            col[i] = c
        firsts = [i for i in range(batch) if i == 0 or w[i] != w[i - 1]]
    ordered = [lengths[i] for i in order]
    # the kernel reads no padding
    zx = np.empty((ordered[0], 4, batch, 2, m.hidden_dim)) if batch > 1 else None
    for s, end in zip(firsts, firsts[1:] + [batch]):
        base = spans[s][0]
        z = np.matmul(xs[:, base:spans[end - 1][1]],
                      effective_weights(m.w_x, w[s]).transpose(0, 2, 1))
        z += m.bias[:, None]
        z = _negated_gate_major(z)
        if batch == 1:  # the one sequence's rows are the kernel's input
            zx = z[:, :, None]
        else:
            for i in range(s, end):
                zx[:lengths[i], :, col[i]] = z[spans[i][0] - base:spans[i][1] - base]
    return BiLstmCache(xs, weights, lengths, (lengths, col),
                       *kernels.lstm_forward_seq(zx, m.w_h, ordered))


def _negated_gate_major(z: np.ndarray) -> np.ndarray:
    """-z as a new (T, 4, D, H) C-contiguous array, for projections z
    (D, T, 4H): the rows of the kernel's input."""
    D, T, four_h = z.shape
    return np.negative(z.reshape(D, T, 4, four_h // 4).transpose(1, 2, 0, 3), order="C")


def bilstm_last_output(cache: BiLstmCache) -> np.ndarray:
    """(B, 2H): per sequence, concat(h_fwd at its final position, h_bwd at
    position 0) — each direction's state after it has consumed the whole
    sequence."""
    steps, cols = cache.last
    if len(steps) == 1:  # a training step: basic indexing, no gather
        return cache.hs[steps[0], cols[0]].reshape(1, -1)
    return cache.hs[steps, cols].reshape(len(steps), -1)


def bilstm_backward_last(m: BiLstm, cache: BiLstmCache, d_last: np.ndarray,
                         grad: BiLstm) -> None:
    """BPTT for one sequence when the loss touches only bilstm_last_output.
    Adds the gradients into grad's arrays, in one kernel call."""
    if len(cache.lengths) != 1:
        raise ValueError("bilstm backward: one sequence at a time")
    T = cache.lengths[0]
    d_h_out = np.zeros((T, 2, m.hidden_dim))
    d_h_out[T - 1] = d_last.reshape(2, -1)
    kernels.lstm_backward_seq(m.w_h, cache.xs, cache.gates[:, :, 0], cache.cells[:, :, 0],
                              d_h_out, grad.w_x, grad.w_h, grad.bias, cache.weights[0].tolist())


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
    """Over the last axis, so a (B, n) array gives one distribution per row."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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


@dataclass(frozen=True)
class SgdConfig:
    """SGD with classical momentum: v <- mu*v + g, theta <- theta - lr*v.
    Only the hyperparameters: the velocity v is the training run's
    (bilstm_mlp.Momentum), so one config can serve any number of runs."""

    learning_rate: float = 0.003
    momentum: float = 0.9

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning rate must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


def sgd_step(theta: np.ndarray, velocity: np.ndarray, rate: float, decay: float) -> None:
    """theta -= rate * velocity, then velocity *= decay, in place, a block
    of about kernels.BLOCK values (whole rows of a 2-D array) at a time, so
    each block of the velocity is still in cache for the second op.

    This is SGD with momentum's update, with no gradient vector held: the
    backward pass adds this step's gradient g into the velocity the last
    step left scaled by mu, and a step passes rate = lr and decay = mu;
    the ops and their order are the recursion's, so theta follows it bit
    for bit. A lazily updated block's catch-up passes its closed form's
    rate and decay (bilstm_mlp.Momentum)."""
    if theta.shape != velocity.shape:
        raise ValueError("parameter and velocity vectors differ in shape")
    rows = max(1, kernels.BLOCK // math.prod(theta.shape[1:]))
    step = np.empty((min(rows, len(theta)),) + theta.shape[1:])
    for r in range(0, len(theta), rows):
        v = velocity[r:r + rows]
        theta[r:r + rows] -= np.multiply(v, rate, out=step[:len(v)])
        v *= decay
