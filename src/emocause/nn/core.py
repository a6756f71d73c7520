"""Minimal neural toolkit: LSTM/Bi-LSTM and linear-layer weights (views of
a model's flat parameter vector, see bilstm_mlp.layout), activations,
losses and SGD with momentum. The network's forward and backward passes
are in bilstm_mlp.py, the heads' loss gradients on the model classes; the
sequence kernels are in kernels.py.

Everything is float64. Random state is a numpy Generator created with
`np.random.default_rng(seed)`; identical seeds give identical streams.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels

Rng = np.random.Generator


@dataclass
class LstmParams:
    """One direction's LSTM weights, gates stacked row-wise as i|f|g|o."""

    w_x: np.ndarray  # (k, 4H, d): one block per entry of the block weights
    w_h: np.ndarray  # (4H, H)
    bias: np.ndarray  # (4H,)

    @property
    def hidden_dim(self) -> int:
        return self.w_h.shape[1]


@dataclass(eq=False)
class BiLstm:
    forward: LstmParams
    backward: LstmParams
    _calls: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def hidden_dim(self) -> int:
        return self.forward.hidden_dim

    def calls(self) -> list:
        """One (directions, w_x, w_h, bias) per kernel call: the call's
        slice of the direction axis and its (D, k, 4H, d), (D, 4H, H) and
        (D, 4H) tensors. That is one D = 2 call over strided views of both
        directions (directions()) when paired(H), else one D = 1 call per
        direction. The views are built once per model and pairing, for a
        model's parameters and for a training run's velocity alike."""
        pair = paired(self.hidden_dim)
        if pair not in self._calls:
            params = (self.forward, self.backward)
            if pair:
                self._calls[pair] = [(slice(0, 2),) + tuple(
                    directions(getattr(self.forward, name), getattr(self.backward, name))
                    for name in ("w_x", "w_h", "bias"))]
            else:
                self._calls[pair] = [(slice(e, e + 1), p.w_x[None], p.w_h[None], p.bias[None])
                                     for e, p in enumerate(params)]
        return self._calls[pair]


class BiLstmCache:
    """Everything both directions recorded during a forward pass over B
    sequences packed by length."""

    __slots__ = ("xs", "weights", "lengths", "last", "runs")

    def __init__(self, xs, weights, lengths, last, runs):
        self.xs = xs  # (2, N, d): the sequences' timesteps, one after another, per direction
        self.weights = weights  # (B, k) block weights, one row per sequence
        self.lengths = lengths  # B ints
        # (steps, columns): sequence i's last state is hs[steps[i], columns[i]]
        self.last = last
        # one (directions, w_h, outputs) per kernel call (BiLstm.calls): the
        # call's slice of the direction axis, its (D, 4H, H) recurrent
        # weights and the forward kernel's (hs, gates, cells), each with the
        # call's D axis
        self.runs = runs


# The two directions run in one kernel call (D = 2) when their recurrent
# weights together take at most this many bytes, else in one call each.
# One step of the paired loop reads both matrices; while they fit in a
# core's L2 cache together, the paired loop saves half the per-step numpy
# calls, but when one fits and two do not, alternating them makes every
# recurrent product read from the next cache level (README "LSTM kernels").
PAIR_BYTES = 1 << 20


def paired(hidden: int) -> bool:
    """Whether both directions of a hidden-wide Bi-LSTM run in one call."""
    return 2 * 4 * hidden * hidden * 8 <= PAIR_BYTES


def directions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (2, *a.shape) array of two equally shaped arrays, one per
    direction. When both lie in one buffer, as a model's two directions do
    in its flat vector, it is a strided view and copies nothing; else a
    copy."""
    if a.shape == b.shape and a.strides == b.strides and (
            a is b or (a.base is not None and a.base is b.base)):
        step = b.__array_interface__["data"][0] - a.__array_interface__["data"][0]
        return np.lib.stride_tricks.as_strided(a, (2,) + a.shape, (step,) + a.strides)
    return np.stack((a, b))


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
    W_x^(j)) v, each kernel call projects the rows through
    W_eff = sum_j p_j W_x^(j) (effective_weights), formed once per run of
    consecutive sequences with equal weights and dropped after it. The
    negated projections are packed by decreasing length (ties keep their
    order) into the kernel's time-major, gate-major array, the backward
    direction's with each sequence reversed. A single sequence (a training
    step) is packed without being sorted or mapped. Both
    directions then run in one kernel call (D = 2) when paired(H), else in
    one D = 1 call each (BiLstm.calls); every later step loops over the
    calls the cache records.
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
    k, _, dim = m.forward.w_x.shape
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
    hidden = m.hidden_dim
    ordered = [lengths[i] for i in order]
    runs = []
    for dirs, w_x, w_h, bias in m.calls():
        # the kernel reads no padding
        zx = np.empty((ordered[0], 4, batch, len(w_h), hidden)) if batch > 1 else None
        for s, end in zip(firsts, firsts[1:] + [batch]):
            base = spans[s][0]
            z = np.matmul(xs[dirs, base:spans[end - 1][1]],
                          effective_weights(w_x, w[s]).transpose(0, 2, 1))
            z += bias[:, None]
            z = _negated_gate_major(z)
            if batch == 1:  # the one sequence's rows are the kernel's input
                zx = z[:, :, None]
            else:
                for i in range(s, end):
                    zx[:lengths[i], :, col[i]] = z[spans[i][0] - base:spans[i][1] - base]
        runs.append((dirs, w_h, kernels.lstm_forward_seq(zx, w_h, ordered)))
    return BiLstmCache(xs, weights, lengths, (lengths, col), runs)


def _negated_gate_major(z: np.ndarray) -> np.ndarray:
    """-z as a new (T, 4, D, H) C-contiguous array, for projections z
    (D, T, 4H): the rows of the kernel's input."""
    D, T, four_h = z.shape
    return np.negative(z.reshape(D, T, 4, four_h // 4).transpose(1, 2, 0, 3), order="C")


def bilstm_last_output(cache: BiLstmCache) -> np.ndarray:
    """(B, 2H): per sequence, concat(h_fwd at its final position, h_bwd at
    position 0) — each direction's state after it has consumed the whole
    sequence. For one sequence run in one kernel call it is a view of the
    cache's hs."""
    steps, cols = cache.last
    if len(steps) == 1:  # a training step: basic indexing, no gather
        parts = [hs[steps[0], cols[0]].reshape(1, -1) for _, _, (hs, *_) in cache.runs]
    else:
        parts = [hs[steps, cols].reshape(len(steps), -1) for _, _, (hs, *_) in cache.runs]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def bilstm_backward_last(m: BiLstm, cache: BiLstmCache, d_last: np.ndarray,
                         grad: BiLstm) -> None:
    """BPTT for one sequence when the loss touches only bilstm_last_output.
    Adds the gradients into grad's arrays, one kernel call per forward
    call, through grad's views for that call (BiLstm.calls)."""
    if len(cache.lengths) != 1:
        raise ValueError("bilstm backward: one sequence at a time")
    T = cache.lengths[0]
    h = m.hidden_dim
    weights = cache.weights[0].tolist()
    d_h_out = np.zeros((T, 2, h))
    d_h_out[T - 1] = d_last.reshape(2, h)
    for (dirs, w_h, out), (_, d_wx, d_wh, d_bias) in zip(cache.runs, grad.calls()):
        _, gates, cells = out
        kernels.lstm_backward_seq(w_h, cache.xs[dirs], gates[:, :, 0], cells[:, :, 0],
                                  d_h_out[:, dirs], d_wx, d_wh, d_bias, weights)


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
    Only the hyperparameters: the velocity v is the training run's, passed
    to sgd_step, so one config can serve any number of runs."""

    learning_rate: float = 0.003
    momentum: float = 0.9

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning rate must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


def sgd_step(cfg: SgdConfig, theta: np.ndarray, velocity: np.ndarray) -> None:
    """Update the parameters theta and their velocity in place.

    No gradient vector is held: velocity comes in as mu*v + g, this step's
    gradient g already added by the backward pass into the mu-scaled
    velocity the last step left (zero before the first step). One pass
    over cache-sized blocks runs theta -= lr*v, then v *= mu, ready for the
    next step's gradient; the ops and their order are the recursion's, so
    theta follows it bit for bit. A training run passes each span of the
    two flat vectors it updates (bilstm_mlp.Momentum)."""
    if theta.shape != velocity.shape:
        raise ValueError("parameter and velocity vectors differ in shape")
    _momentum_pass(theta, velocity, cfg.learning_rate, cfg.momentum)


def _momentum_pass(theta: np.ndarray, velocity: np.ndarray, rate: float, decay: float) -> None:
    """theta -= rate * velocity, then velocity *= decay, in place, a block
    of about kernels.BLOCK values (whole rows of a 2-D array) at a time, so
    each block of the velocity is still in cache for the second op."""
    rows = max(1, kernels.BLOCK // math.prod(theta.shape[1:]))
    step = np.empty((min(rows, len(theta)),) + theta.shape[1:])
    for r in range(0, len(theta), rows):
        v = velocity[r:r + rows]
        theta[r:r + rows] -= np.multiply(v, rate, out=step[:len(v)])
        v *= decay
