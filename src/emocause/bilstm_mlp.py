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
owns the shape checks, initialization, the forward and backward passes,
the training loop and the model file layout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .embeddings import EmbeddingTable
from .errors import DataError, OovError
from .nn import core
from .nn.serialize import load_container, save_container, split_payload

log = logging.getLogger(__name__)

DEFAULT_MID = 80
DROPOUT_P = 0.5


@dataclass
class BiLstmMlp:
    bilstm: core.BiLstm  # input_blocks * d -> 2H
    fc1: core.LinearParams  # 2H -> mid
    fc2: core.LinearParams  # mid -> out_width
    table: EmbeddingTable

    kind: ClassVar[int]  # ECPE1 descriptor kind code
    what: ClassVar[str]  # "a ... model", for error messages
    input_blocks: ClassVar[int]  # copies of the embedding per timestep
    out_width: ClassVar[int]

    def __post_init__(self):
        if self.bilstm.input_dim != self.input_blocks * self.table.dim:
            raise ValueError(f"Bi-LSTM input must be {self.input_blocks} * embedding dim")
        if self.fc1.in_dim != 2 * self.bilstm.hidden_dim:
            raise ValueError("fc1 input must be twice the Bi-LSTM hidden size")
        if self.fc2.in_dim != self.fc1.out_dim:
            raise ValueError("fc2 input must match fc1 output")
        if self.fc2.out_dim != self.out_width:
            raise ValueError(f"output width must be {self.out_width}")

    @classmethod
    def init(cls, table: EmbeddingTable, rng: core.Rng, hidden: int,
             mid: int = DEFAULT_MID):
        return cls(
            bilstm=core.BiLstm.init(cls.input_blocks * table.dim, hidden, rng),
            fc1=core.LinearParams.init(2 * hidden, mid, rng),
            fc2=core.LinearParams.init(mid, cls.out_width, rng),
            table=table,
        )

    def parameters(self) -> list[np.ndarray]:
        return self.bilstm.tensors() + self.fc1.tensors() + self.fc2.tensors()


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


def backward(m: BiLstmMlp, cache: ForwardCache, d_logits: np.ndarray) -> list[np.ndarray]:
    """Gradients in parameters() order, given d(loss)/d(logits)."""
    d_w2 = np.outer(d_logits, cache.a1)
    da1 = m.fc2.weight.T @ d_logits
    dz1 = da1 * core.elu_grad(cache.z1)
    d_w1 = np.outer(dz1, cache.h_drop)
    dh = m.fc1.weight.T @ dz1
    if cache.mask is not None:
        dh = dh * cache.mask
    lstm_grads = core.bilstm_backward_last(m.bilstm, cache.bilstm, dh)
    return lstm_grads + [d_w1, dz1, d_w2, d_logits]


def train(cls, table: EmbeddingTable, examples, to_row, step, rng: core.Rng,
          epochs: int, cfg: core.SgdConfig | None, hidden: int, mid: int,
          log_epochs: bool):
    """Batch-size-1 SGD with momentum over seeded shuffles of the examples.

    to_row(example) gives (inputs, target), or raises OovError to skip the
    example (skips get one warning up front). step is the model's
    loss_and_grads. Returns (model, per-epoch mean-loss trace); a
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
    model = cls.init(table, rng, hidden=hidden, mid=mid)
    params = model.parameters()
    trace = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(rows))
        total = 0.0
        for idx in order:
            xs, target = rows[idx]
            loss, grads = step(model, xs, target, train=True, rng=rng)
            core.sgd_step(cfg, params, grads)
            del grads  # let the next step's gradients reuse this memory
            total += loss
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
                   m.parameters())


def load(cls, path, table: EmbeddingTable):
    descriptor, payload = load_container(path)
    if len(descriptor) != 5 or descriptor[0] != cls.kind:
        raise DataError(f"{path}: not {cls.what} file")
    _, dim, hidden, mid, out = descriptor
    if out != cls.out_width:
        raise DataError(f"{path}: expected {cls.out_width} output(s), file has {out}")
    if dim != table.dim:
        raise DataError(f"{path}: model expects dim {dim}, table has {table.dim}")
    lstm = [(4 * hidden, cls.input_blocks * dim), (4 * hidden, hidden), (4 * hidden,)]
    t = split_payload(payload, lstm + lstm + [(mid, 2 * hidden), (mid,), (out, mid), (out,)],
                      path)
    return cls(
        bilstm=core.BiLstm(core.LstmParams(*t[0:3]), core.LstmParams(*t[3:6])),
        fc1=core.LinearParams(*t[6:8]),
        fc2=core.LinearParams(*t[8:10]),
        table=table,
    )
