"""The Bi-LSTM + MLP network shared by the emotion classifier and the cause
scorer:

    (T, d) word vectors and block weights p -> Bi-LSTM -> last output
    -> dropout 0.5 -> linear to mid -> ELU -> linear to the output width
    (the logits) -> the model's head

A timestep's input is kron(p, v), input_blocks copies of the word vector v
scaled by p: the emotion probabilities for the cause scorer, [1.0] for the
emotion classifier. Each direction's input weights are stored as one
(4H, d) block per entry of p, and the Bi-LSTM projects v through their
p-weighted sum, so that wide input is never built (see core.bilstm_run).
"Last output" concatenates each direction's final hidden state, i.e. the
forward state at the last token and the backward state at the first, so
both summarize the whole sequence.

Inference runs many sequences per call; training runs one. A model
subclasses BiLstmMlp to fix its number of input blocks, its output width
and its ECPE1 kind code, and defines its head: head(logits, target) gives
one sequence's loss and d(loss)/d(logits). Everything else is here, once
for both models: the parameters, one flat float64 vector whose
initialization, views and model file all follow one layout table
(layout()); the forward and backward passes; the training step
(loss_and_grads: forward, head, backward, adding the gradient into a
vector cut like the parameters); the training loop with its momentum
(Momentum), which updates only the input weight blocks a step reads; and
save and load.
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


def layout(blocks: int, dim: int, hidden: int, mid: int, out: int) -> tuple:
    """The network's tensors as (part, name, shape, init fan-in), in their
    order in the flat vector and the model file, for a Bi-LSTM whose
    timestep input is kron(p, v), blocks copies of a dim-wide word vector.
    Each direction's input weights are stored as blocks contiguous (4H,
    dim) blocks, one per entry of p (block-major); their fan-in is the
    width of that input, blocks * dim. The parameters, a gradient, a
    training run's velocity and the model file all follow this layout."""
    four_h = 4 * hidden
    return (
        ("forward", "w_x", (blocks, four_h, dim), blocks * dim),
        ("forward", "w_h", (four_h, hidden), hidden),
        ("forward", "bias", (four_h,), hidden),
        ("backward", "w_x", (blocks, four_h, dim), blocks * dim),
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
    +-1/sqrt(fan-in), with the ops of rng.uniform(-bound, bound) (low +
    (high - low) * random). An input weight tensor draws its values in
    (gate row, block, column) order, the order of the (4H, blocks * dim)
    matrix that multiplies kron(p, v), so a seed gives every weight the
    value it had when that matrix was stored row by row. Each tensor is
    filled a row block of about kernels.BLOCK values at a time, so no
    tensor-sized temporary is made."""
    flat = np.empty(n_values(dims))
    for _, _, view, fan_in in _cut(flat, dims):
        bound = 1.0 / np.sqrt(fan_in)
        rows = view.transpose(1, 0, 2) if view.ndim == 3 else view
        step = max(1, kernels.BLOCK // rows[0].size)
        for r in range(0, len(rows), step):
            block = rows[r:r + step]
            block[...] = -bound + (bound - -bound) * rng.random(block.shape)
    return flat


@dataclass(eq=False)
class Weights:
    """The network's tensors as views of one flat float64 vector. A model's
    parameters and a training run's velocity both take this form."""

    flat: np.ndarray
    bilstm: core.BiLstm  # kron(p, v) inputs -> 2H
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

    @property
    def dims(self) -> tuple:
        """(blocks, dim, hidden, mid, out), as layout() takes them."""
        blocks, _, dim = self.bilstm.forward.w_x.shape
        return (blocks, dim, self.bilstm.hidden_dim, self.fc1.out_dim, self.fc2.out_dim)

    def zeros_like(self) -> "Weights":
        """A zero vector cut the same way: a gradient, or a training run's
        velocity. np.zeros, not np.zeros_like: the pages are zeroed lazily
        by the system, where np.zeros_like writes every value, and a page
        never written is never held."""
        return Weights.over(np.zeros(self.flat.size), self.dims)


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
        dims = (cls.input_blocks, table.dim, hidden, mid, cls.out_width)
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
    a forward pass over one sequence. The MLP's weight gradients are outer
    products, np.multiply.outer's exact products; they add into grad as a
    (k x 1) @ (1 x n) product's do (x + -0.0 and x + 0.0 differ only for
    x = -0.0)."""
    a1, h_drop = cache.a1[0], cache.h_drop[0]
    grad.fc2.weight += np.multiply.outer(d_logits, a1)
    grad.fc2.bias += d_logits
    dz1 = (m.fc2.weight.T @ d_logits) * core.elu_grad(cache.z1[0])
    grad.fc1.weight += np.multiply.outer(dz1, h_drop)
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
    passes a fresh zero vector. rows (T, d) are the sequence's word vectors,
    or (2, T, d) those and the same reversed (core.bilstm_run), and weights
    (1, input_blocks) its block weights; train mode draws a dropout mask
    from rng."""
    cache = forward(m, rows, (rows.shape[-2],), weights, train, rng)
    loss, d_logits = m.head(cache.logits[0], target)
    backward(m, cache, d_logits, grad)
    return loss


class Momentum:
    """A training run's momentum: its velocity, cut like the parameters,
    and the lazy state of the input weight blocks.

    A step gives a gradient to the input blocks its block weights read:
    one per direction when they are one-hot (core.one_hot_block), as the
    cause scorer's teacher-forced emotion is, and all of them otherwise.
    On a block a step leaves idle, classical momentum has a closed form
    (the sparse updates of Carpenter 2008 and Bottou 2012): over k idle
    steps, theta -= lr*(1 + mu + ... + mu^(k-1))*v and v <- mu^k*v. So an
    idle block keeps only that sum a and power s, a += s then s *= mu per
    step, and is caught up, theta -= lr*a*v then v *= s, before a step
    reads it and at the end of the run (finish). A block that has never
    had a gradient holds a zero velocity and is never caught up or passed
    over, so its velocity's pages are never touched.

    Each region a step updates is one span (start, end) at the same
    offsets in the parameters and the velocity: one direction's input
    weight block (layout() stores the blocks block-major), or a tensor
    between them. A step's spans are joined where they touch, so a model
    with one input block, the emotion classifier, has nothing idle and is
    updated in one pass. There are k + 1 patterns of active blocks (one
    block, or all of them), and each pattern's span views are built on its
    first step and reused."""

    def __init__(self, model: BiLstmMlp, cfg: core.SgdConfig):
        k = model.input_blocks
        self.cfg = cfg
        self.theta = model.flat
        self.velocity = model.zeros_like()
        self.blocks = [[] for _ in range(k)]  # per block, its span in each direction
        self.dense, start = [], 0
        for _, name, shape, _ in layout(*model.dims):
            size = math.prod(shape)
            if name == "w_x":
                for e, spans in enumerate(self.blocks):
                    spans.append((start + e * size // k, start + (e + 1) * size // k))
            else:
                self.dense.append((start, start + size))
            start += size
        self.sums = [0.0] * k  # a
        # s; 0 until a block's first gradient, so that a stays 0 and a block
        # whose velocity is still zero is never caught up
        self.powers = [0.0] * k
        # per active-block pattern, keyed by the one-hot block or None for
        # all of them: (active blocks, idle blocks, the (theta, velocity)
        # views of the step's joined spans), built on the pattern's first step
        self.patterns = {}
        self.active, self.idle, self.passes = [], [], []

    def begin_step(self, weights: np.ndarray) -> None:
        """Catches up the input blocks a step with block weights (1, k)
        reads and gives a gradient, and marks them active."""
        j = core.one_hot_block(weights[0].tolist())
        if j not in self.patterns:
            active = list(range(len(self.blocks))) if j is None else [j]
            spans = _joined(self.dense + [s for e in active for s in self.blocks[e]])
            self.patterns[j] = (active, [e for e in range(len(self.blocks)) if e not in active],
                                [(self.theta[a:b], self.velocity.flat[a:b]) for a, b in spans])
        self.active, self.idle, self.passes = self.patterns[j]
        for e in self.active:
            self._catch_up(e)
            self.powers[e] = 1.0

    def end_step(self) -> None:
        """Once the step's gradient is in the velocity: one core.sgd_step
        pass over each span of the step, every tensor but the input weights
        and the active blocks; every other block goes one more step idle."""
        for theta, velocity in self.passes:
            core.sgd_step(self.cfg, theta, velocity)
        for e in self.idle:
            self.sums[e] += self.powers[e]
            self.powers[e] *= self.cfg.momentum

    def finish(self) -> None:
        """Catches every block up, so the parameters are the plain
        recursion's."""
        for e in range(len(self.blocks)):
            self._catch_up(e)

    def _catch_up(self, e: int) -> None:
        if self.sums[e]:
            for a, b in self.blocks[e]:
                core._momentum_pass(self.theta[a:b], self.velocity.flat[a:b],
                                    self.cfg.learning_rate * self.sums[e], self.powers[e])
            self.sums[e], self.powers[e] = 0.0, 1.0


def _joined(spans) -> list:
    """The (start, end) spans in order, those that touch joined into one."""
    out = []
    for a, b in sorted(spans):
        if out and out[-1][1] == a:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def train(cls, table: EmbeddingTable, examples, to_row, rng: core.Rng,
          epochs: int, cfg: core.SgdConfig, hidden: int, log_epochs: bool):
    """Batch-size-1 SGD with momentum over seeded shuffles of the examples.

    to_row(example) gives (rows, weights, target) as loss_and_grads takes
    them: the (T, d) vectors of the example's in-vocabulary tokens, its
    (1, input_blocks) block weights and its target; it raises OovError to
    skip the example (skips get one warning up front). Each example's rows
    are held forward and reversed, (2, T, d), so no step copies them. The
    run holds one vector besides the parameters, the momentum velocity
    (Momentum): each step's backward pass adds its gradient into the
    velocity the last step left scaled by the momentum, and
    core.sgd_step updates the parameters and scales the velocity again,
    so no gradient vector is held. Input blocks a step leaves idle are
    updated lazily, and every block is caught up before the model is
    returned. Returns (model, per-epoch mean-loss trace); a non-finite
    epoch loss stops training with a DataError naming the epoch.
    """
    if not examples:
        raise ValueError("no training examples")
    held = []  # per example, its rows forward and reversed, as bilstm_run holds them
    for ex in examples:
        try:
            rows, weights, target = to_row(ex)
        except OovError:
            continue
        held.append((np.stack((rows, rows[::-1])), weights, target))
    if len(held) < len(examples):
        log.warning("skipped %d of %d examples with no in-vocabulary tokens",
                    len(examples) - len(held), len(examples))
    if not held:
        raise DataError("every training example is out of vocabulary")
    model = cls.init(table, rng, hidden=hidden)
    momentum = Momentum(model, cfg)
    trace = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(held))
        total = 0.0
        for idx in order:
            rows, weights, target = held[idx]
            momentum.begin_step(weights)
            total += loss_and_grads(model, rows, weights, target, True, rng, momentum.velocity)
            momentum.end_step()
        mean = total / len(held)
        if not np.isfinite(mean):
            raise DataError(f"epoch {epoch}: mean training loss is {mean}")
        trace.append(mean)
        if log_epochs:
            print(f"epoch {epoch} loss {mean}")
    momentum.finish()
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
    dims = (cls.input_blocks, dim, hidden, mid, out)
    expected = n_values(dims)
    if payload.size != expected:
        raise DataError(f"{path}: payload holds {payload.size} values, expected {expected}")
    if not np.all(np.isfinite(payload)):
        raise DataError(f"{path}: parameters contain non-finite values")
    return cls.over(payload, dims, table=table)
