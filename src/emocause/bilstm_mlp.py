"""The Bi-LSTM + MLP network shared by the emotion classifier and the cause
scorer:

    (T, D) inputs -> Bi-LSTM -> last output -> dropout 0.5 -> linear to mid
    -> ELU -> linear to the output width (the logits)

"Last output" concatenates each direction's final hidden state, i.e. the
forward state at the last token and the backward state at the first, so
both summarize the whole sequence.

A model subclasses BiLstmMlp to fix its input width (copies of the word
embedding per timestep), its output width and its ECPE1 kind code, and
supplies a head: the loss on the logits and d(loss)/d(logits). This module
owns the parameters, one flat float64 vector whose initialization, views,
gradient and model file all follow one layout table (layout()), and the
forward and backward passes and the training loop.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError, OovError
from .nn import core
from .nn.serialize import load_container, save_container

log = logging.getLogger(__name__)

DEFAULT_MID = 80
DROPOUT_P = 0.5


def layout(input_dim: int, hidden: int, mid: int, out: int) -> tuple:
    """The network's tensors as (part, name, shape, init fan-in), in their
    order in the flat parameter vector and the model file, for a Bi-LSTM
    over input_dim-wide timesteps."""
    four_h = 4 * hidden
    return (
        ("forward", "w_x", (four_h, input_dim), input_dim),
        ("forward", "w_h", (four_h, hidden), hidden),
        ("forward", "bias", (four_h,), hidden),
        ("backward", "w_x", (four_h, input_dim), input_dim),
        ("backward", "w_h", (four_h, hidden), hidden),
        ("backward", "bias", (four_h,), hidden),
        ("fc1", "weight", (mid, 2 * hidden), 2 * hidden),
        ("fc1", "bias", (mid,), 2 * hidden),
        ("fc2", "weight", (out, mid), mid),
        ("fc2", "bias", (out,), mid),
    )


def _cut(flat: np.ndarray, dims):
    """(part, name, view of flat, fan-in) for each row of layout(*dims)."""
    start = 0
    for part, name, shape, fan_in in layout(*dims):
        end = start + math.prod(shape)
        yield part, name, flat[start:end].reshape(shape), fan_in
        start = end


def n_values(dims) -> int:
    return sum(math.prod(shape) for _, _, shape, _ in layout(*dims))


def draw(dims, rng: core.Rng) -> np.ndarray:
    """A new flat vector: each tensor in layout order drawn uniformly from
    +-1/sqrt(fan-in)."""
    flat = np.empty(n_values(dims))
    for _, _, view, fan_in in _cut(flat, dims):
        bound = 1.0 / np.sqrt(fan_in)
        view[...] = rng.uniform(-bound, bound, size=view.shape)
    return flat


@dataclass(eq=False)
class Weights:
    """The network's tensors as views of one flat float64 vector. A model's
    parameters and a training run's gradient both take this form."""

    flat: np.ndarray
    bilstm: core.BiLstm  # input_dim -> 2H
    fc1: core.LinearParams  # 2H -> mid
    fc2: core.LinearParams  # mid -> out

    @classmethod
    def over(cls, flat: np.ndarray, dims, **fields):
        """A cls over flat, which holds the n_values(dims) values of
        layout(*dims); fields gives any further fields."""
        parts = {}
        for part, name, view, _ in _cut(flat, dims):
            parts.setdefault(part, {})[name] = view
        return cls(flat=flat,
                   bilstm=core.BiLstm(core.LstmParams(**parts["forward"]),
                                      core.LstmParams(**parts["backward"])),
                   fc1=core.LinearParams(**parts["fc1"]),
                   fc2=core.LinearParams(**parts["fc2"]),
                   **fields)

    def zeros_like(self) -> "Weights":
        """A zero vector cut the same way, e.g. the gradient of a training run."""
        dims = (self.bilstm.input_dim, self.bilstm.hidden_dim,
                self.fc1.out_dim, self.fc2.out_dim)
        return Weights.over(np.zeros_like(self.flat), dims)


@dataclass(eq=False)
class BiLstmMlp(Weights):
    table: EmbeddingTable

    kind: ClassVar[int]  # ECPE1 descriptor kind code
    what: ClassVar[str]  # "a ... model", for error messages
    input_blocks: ClassVar[int]  # copies of the embedding per timestep
    out_width: ClassVar[int]

    @classmethod
    def init(cls, table: EmbeddingTable, rng: core.Rng, hidden: int,
             mid: int = DEFAULT_MID):
        dims = (cls.input_blocks * table.dim, hidden, mid, cls.out_width)
        return cls.over(draw(dims, rng), dims, table=table)


class ForwardCache:
    __slots__ = ("bilstm", "mask", "h_drop", "z1", "a1", "logits")


def forward(m: BiLstmMlp, xs: np.ndarray, train: bool,
            rng: core.Rng | None) -> ForwardCache:
    """Logits for a (T, D) input sequence, with what backward() needs.
    Train mode draws one dropout mask from rng."""
    cache = ForwardCache()
    cache.bilstm = core.bilstm_run(m.bilstm, xs)
    h_last = core.bilstm_last_output(cache.bilstm)
    if train:
        if rng is None:
            raise ValueError("training forward pass needs an rng")
        cache.mask = core.dropout_mask(DROPOUT_P, h_last.shape, rng)
        cache.h_drop = h_last * cache.mask
    else:
        cache.mask = None
        cache.h_drop = h_last
    cache.z1 = core.linear(m.fc1, cache.h_drop)
    cache.a1 = core.elu(cache.z1)
    cache.logits = core.linear(m.fc2, cache.a1)
    return cache


def backward(m: BiLstmMlp, cache: ForwardCache, d_logits: np.ndarray,
             grad: Weights) -> None:
    """Writes d(loss)/d(parameters) into grad, given d(loss)/d(logits)."""
    np.outer(d_logits, cache.a1, out=grad.fc2.weight)
    grad.fc2.bias[...] = d_logits
    dz1 = np.multiply(m.fc2.weight.T @ d_logits, core.elu_grad(cache.z1),
                      out=grad.fc1.bias)
    np.outer(dz1, cache.h_drop, out=grad.fc1.weight)
    dh = m.fc1.weight.T @ dz1
    if cache.mask is not None:
        dh *= cache.mask
    core.bilstm_backward_last(m.bilstm, cache.bilstm, dh, grad.bilstm)


def train(cls, table: EmbeddingTable, examples, to_row, step, rng: core.Rng,
          epochs: int, cfg: core.SgdConfig | None, hidden: int, log_epochs: bool):
    """Batch-size-1 SGD with momentum over seeded shuffles of the examples.

    to_row(example) gives (inputs, target), or raises OovError to skip the
    example (skips get one warning up front). step is the model's
    loss_and_grads, which writes into the one gradient vector of the run.
    Returns (model, per-epoch mean-loss trace); a
    non-finite epoch loss stops training with a ValueError naming the epoch.
    """
    if not examples:
        raise ValueError("no training examples")
    rows = []
    for ex in examples:
        try:
            rows.append(to_row(ex))
        except OovError:
            continue
    if len(rows) < len(examples):
        log.warning("skipped %d of %d examples with no in-vocabulary tokens",
                    len(examples) - len(rows), len(examples))
    if not rows:
        raise DataError("every training example is out of vocabulary")
    if cfg is None:
        cfg = core.SgdConfig()
    model = cls.init(table, rng, hidden=hidden)
    grad = model.zeros_like()
    trace = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(rows))
        total = 0.0
        for idx in order:
            xs, target = rows[idx]
            total += step(model, xs, target, True, rng, grad)
            core.sgd_step(cfg, model.flat, grad.flat)
        mean = total / len(rows)
        if not np.isfinite(mean):
            raise ValueError(f"epoch {epoch}: mean training loss is {mean}")
        trace.append(mean)
        if log_epochs:
            print(f"epoch {epoch} loss {mean}")
    return model, trace


def save(m: BiLstmMlp, path) -> None:
    save_container(path,
                   [m.kind, m.table.dim, m.bilstm.hidden_dim,
                    m.fc1.out_dim, m.fc2.out_dim],
                   m.flat)


def load(cls, path, table: EmbeddingTable):
    """The model's tensors are views of the file's payload, read in one array."""
    descriptor, payload = load_container(path)
    if len(descriptor) != 5 or descriptor[0] != cls.kind:
        raise DataError(f"{path}: not {cls.what} file")
    _, dim, hidden, mid, out = descriptor
    if out != cls.out_width:
        raise DataError(f"{path}: expected {cls.out_width} output(s), file has {out}")
    if dim != table.dim:
        raise DataError(f"{path}: model expects dim {dim}, table has {table.dim}")
    dims = (cls.input_blocks * dim, hidden, mid, out)
    expected = n_values(dims)
    if payload.size != expected:
        raise DataError(f"{path}: payload holds {payload.size} values, expected {expected}")
    if not np.all(np.isfinite(payload)):
        raise DataError(f"{path}: parameters contain non-finite values")
    return cls.over(payload, dims, table=table)
