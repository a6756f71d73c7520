"""The Bi-LSTM + MLP network shared by the emotion classifier and the cause
scorer:

    (T, d) word vectors and block weights p -> Bi-LSTM -> last output
    -> dropout 0.5 -> linear to mid -> ELU -> linear to the output width
    (the logits) -> the model's head

A timestep's input is kron(p, v), input_blocks copies of the word vector v
scaled by p: the emotion probabilities for the cause scorer, [1.0] for the
emotion classifier. The Bi-LSTM projects v through the p-weighted sum of
its input weight blocks instead, so that wide input is never built (see
core.bilstm_run). "Last output" concatenates each direction's final hidden
state, i.e. the forward state at the last token and the backward state at
the first, so both summarize the whole sequence.

Inference runs many sequences per call; training runs one. A model
subclasses BiLstmMlp to fix its number of input blocks, its output width
and its ECPE1 kind code, and defines its head: head(logits, target) gives
one sequence's loss and d(loss)/d(logits). Everything else is here, once
for both models: the parameters, one flat float64 vector whose
initialization, views, momentum velocity and model file all follow one
layout table (layout()); the forward and backward passes; the training
step (loss_and_grads: forward, head, backward, adding the gradient into a
vector cut like the parameters); the training loop; and save and load.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError, OovError
from .nn import core, kernels
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
    +-1/sqrt(fan-in). Each view is filled in place, with the same ops as
    rng.uniform(-bound, bound) (low + (high - low) * random), so the
    values are the same bits and no tensor-sized temporary is made."""
    flat = np.empty(n_values(dims))
    for _, _, view, fan_in in _cut(flat, dims):
        bound = 1.0 / np.sqrt(fan_in)
        rng.random(out=view)
        view *= bound - -bound
        view += -bound
    return flat


@dataclass(eq=False)
class Weights:
    """The network's tensors as views of one flat float64 vector. A model's
    parameters and a training run's velocity both take this form."""

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
        """A zero vector cut the same way, e.g. the velocity of a training
        run. np.zeros, not np.zeros_like: the pages are zeroed lazily by
        the system, where np.zeros_like writes every value."""
        dims = (self.bilstm.input_dim, self.bilstm.hidden_dim,
                self.fc1.out_dim, self.fc2.out_dim)
        return Weights.over(np.zeros(self.flat.size), dims)


@dataclass(eq=False)
class BiLstmMlp(Weights):
    """A model: the network over its embedding table. A subclass sets the
    class attributes below and defines head(logits, target) -> (loss,
    d(loss)/d(logits)) for one sequence's (out_width,) logits."""

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


def forward(m: BiLstmMlp, rows: np.ndarray, lengths, weights, train: bool,
            rng: core.Rng | None) -> ForwardCache:
    """Logits (B, out) for B sequences, with what backward() needs: rows,
    lengths and weights as core.bilstm_run takes them. The MLP runs as one
    product per layer over the batch. Train mode draws one dropout mask
    from rng."""
    cache = ForwardCache()
    cache.bilstm = core.bilstm_run(m.bilstm, rows, lengths, weights)
    h_last = core.bilstm_last_output(cache.bilstm)
    if train:
        if rng is None:
            raise ValueError("training forward pass needs an rng")
        cache.mask = core.dropout_mask(DROPOUT_P, h_last.shape, rng)
        cache.h_drop = h_last * cache.mask
    else:
        cache.mask = None
        cache.h_drop = h_last
    cache.z1 = cache.h_drop @ m.fc1.weight.T + m.fc1.bias
    cache.a1 = core.elu(cache.z1)
    cache.logits = cache.a1 @ m.fc2.weight.T + m.fc2.bias
    return cache


def logits(m: BiLstmMlp, sequences, weights) -> np.ndarray:
    """Inference logits (B, out) for B sequences of row indices into the
    model's table, each nonempty; weights (B, input_blocks) as forward()
    takes them."""
    lengths = [len(s) for s in sequences]
    rows = m.table.vectors[np.fromiter(itertools.chain.from_iterable(sequences), dtype=np.intp)]
    return forward(m, rows, lengths, weights, False, None).logits


def backward(m: BiLstmMlp, cache: ForwardCache, d_logits: np.ndarray,
             grad: Weights) -> None:
    """Adds d(loss)/d(parameters) into grad, given d(loss)/d(logits), for
    a forward pass over one sequence. The weight gradients are outer
    products, added a row block at a time like the kernels' products."""
    a1, h_drop = cache.a1[0], cache.h_drop[0]
    kernels._add_product(grad.fc2.weight, d_logits[:, None], a1[None, :])
    grad.fc2.bias += d_logits
    dz1 = (m.fc2.weight.T @ d_logits) * core.elu_grad(cache.z1[0])
    kernels._add_product(grad.fc1.weight, dz1[:, None], h_drop[None, :])
    grad.fc1.bias += dz1
    dh = m.fc1.weight.T @ dz1
    if cache.mask is not None:
        dh *= cache.mask[0]
    core.bilstm_backward_last(m.bilstm, cache.bilstm, dh, grad.bilstm)


def loss_and_grads(m: BiLstmMlp, rows: np.ndarray, weights: np.ndarray, target,
                   train: bool, rng: core.Rng | None, grad: Weights) -> float:
    """The loss of one sequence under the model's head; its gradient is
    added into grad, which is left as found where the gradient is zero by
    construction (the input weight blocks of zero block weights). Training
    passes the velocity, already scaled by the momentum; a gradient check
    passes a fresh zero vector. rows (T, d) are the sequence's word vectors
    and weights (1, input_blocks) its block weights; train mode draws a
    dropout mask from rng."""
    cache = forward(m, rows, (len(rows),), weights, train, rng)
    loss, d_logits = m.head(cache.logits[0], target)
    backward(m, cache, d_logits, grad)
    return loss


def train(cls, table: EmbeddingTable, examples, to_row, rng: core.Rng,
          epochs: int, cfg: core.SgdConfig, hidden: int, log_epochs: bool):
    """Batch-size-1 SGD with momentum over seeded shuffles of the examples.

    to_row(example) gives (rows, weights, target) as loss_and_grads takes
    them: the (T, d) vectors of the example's in-vocabulary tokens, its
    (1, input_blocks) block weights and its target; it raises OovError to
    skip the example (skips get one warning up front). The run holds one
    vector besides the parameters, the momentum velocity: each step's
    backward pass adds its gradient into the velocity the last step left
    scaled by the momentum, and core.sgd_step updates the parameters and
    scales the velocity again, so no gradient vector is held. Returns
    (model, per-epoch mean-loss trace); a non-finite epoch loss stops
    training with a ValueError naming the epoch.
    """
    if not examples:
        raise ValueError("no training examples")
    held = []
    for ex in examples:
        try:
            held.append(to_row(ex))
        except OovError:
            continue
    if len(held) < len(examples):
        log.warning("skipped %d of %d examples with no in-vocabulary tokens",
                    len(examples) - len(held), len(examples))
    if not held:
        raise DataError("every training example is out of vocabulary")
    model = cls.init(table, rng, hidden=hidden)
    velocity = model.zeros_like()
    trace = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(held))
        total = 0.0
        for idx in order:
            total += loss_and_grads(model, *held[idx], True, rng, velocity)
            core.sgd_step(cfg, model.flat, velocity.flat)
        mean = total / len(held)
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
    if hidden <= 0 or mid <= 0:
        raise DataError(f"{path}: hidden and mid widths must be positive, "
                        f"file has {hidden} and {mid}")
    dims = (cls.input_blocks * dim, hidden, mid, out)
    expected = n_values(dims)
    if payload.size != expected:
        raise DataError(f"{path}: payload holds {payload.size} values, expected {expected}")
    if not np.all(np.isfinite(payload)):
        raise DataError(f"{path}: parameters contain non-finite values")
    return cls.over(payload, dims, table=table)
