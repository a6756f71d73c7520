"""Gradient verification at toy scale, shared by the CLI and the test suite.

Every check builds a small random instance, puts its analytic gradient
into a fresh zero vector cut like the flat parameter vector, and compares
the two against central finite differences. The linear-layer checks write
the gradient by hand; the LSTM, Bi-LSTM and architecture checks run the
backward passes, which add into the vector they are given, so starting
from zero gives the gradient itself. Dropout is exercised
with a mask held fixed across the finite-difference evaluations. The
finite-difference losses run forward passes only: the architecture checks
take the model's head loss on the forward pass's logits, and check the
gradient of the shared training step, bilstm_mlp.loss_and_grads.
"""

from __future__ import annotations

import numpy as np

from . import bilstm_mlp, cause_model, emotion_model
from .embeddings import EmbeddingTable
from .nn import core, kernels
from .nn.gradcheck import DEFAULT_EPS, gradient_check

TOY_DIM = 6
TOY_HIDDEN = 4
TOY_MID = 5


def _toy_weights(rng: np.random.Generator, dims):
    """Random network weights and a fresh zero gradient vector. A layer
    check uses one part; the rest has analytic and numerical gradients of
    exactly zero."""
    w = bilstm_mlp.Weights.over(bilstm_mlp.draw(dims, rng), dims)
    return w, w.zeros_like()


def check_linear(seed: int, eps: float = DEFAULT_EPS) -> float:
    rng = np.random.default_rng(seed)
    w, g = _toy_weights(rng, (1, 1, 1, 4, 3))  # fc2 is the 4 -> 3 layer
    x = rng.normal(size=4)
    r = rng.normal(size=3)

    def loss():
        return float(r @ core.linear(w.fc2, x))

    np.outer(r, x, out=g.fc2.weight)
    g.fc2.bias[...] = r
    return gradient_check(loss, w.flat, g.flat, eps=eps)


def check_linear_elu_logsoftmax_nll(seed: int, eps: float = DEFAULT_EPS) -> float:
    rng = np.random.default_rng(seed)
    w, g = _toy_weights(rng, (1, 1, 1, 4, 4))
    x = rng.normal(size=4)
    target = int(rng.integers(4))

    def forward():
        z = core.linear(w.fc2, x)
        a = core.elu(z)
        return z, a, core.log_softmax(a)

    def loss():
        return core.nll_loss(forward()[2], target)

    z, a, log_probs = forward()
    da = np.exp(log_probs)
    da[target] -= 1.0
    dz = np.multiply(da, core.elu_grad(z), out=g.fc2.bias)
    np.outer(dz, x, out=g.fc2.weight)
    return gradient_check(loss, w.flat, g.flat, eps=eps)


def check_linear_sigmoid_bce(seed: int, eps: float = DEFAULT_EPS) -> float:
    rng = np.random.default_rng(seed)
    w, g = _toy_weights(rng, (1, 1, 1, 4, 1))
    x = rng.normal(size=4)
    y = int(rng.integers(2))

    def loss():
        return core.bce_loss(core.sigmoid(float(core.linear(w.fc2, x)[0])), y)

    g.fc2.bias[0] = core.sigmoid(float(core.linear(w.fc2, x)[0])) - y
    np.outer(g.fc2.bias, x, out=g.fc2.weight)
    return gradient_check(loss, w.flat, g.flat, eps=eps)


def check_dropout(seed: int, eps: float = DEFAULT_EPS) -> float:
    rng = np.random.default_rng(seed)
    w, g = _toy_weights(rng, (1, 1, 1, 5, 6))
    x = rng.normal(size=5)
    r = rng.normal(size=6)
    mask = core.dropout_mask(0.5, 6, rng)

    def loss():
        return float(r @ (core.linear(w.fc2, x) * mask))

    np.multiply(r, mask, out=g.fc2.bias)
    np.outer(g.fc2.bias, x, out=g.fc2.weight)
    return gradient_check(loss, w.flat, g.flat, eps=eps)


def check_lstm(seed: int, eps: float = DEFAULT_EPS, hidden: int = 3,
               steps: int = 4) -> float:
    """Single-direction LSTM with loss touching every timestep's output,
    so the full backpropagation through time is exercised."""
    rng = np.random.default_rng(seed)
    w, g = _toy_weights(rng, (1, TOY_DIM, hidden, 1, 1))
    p, gp = w.bilstm, g.bilstm  # the forward direction's [:1] views: D = 1
    xs = rng.normal(size=(1, steps, TOY_DIM))
    r = rng.normal(size=(steps, 1, hidden))

    def run():  # one direction, B = 1
        zx = -(xs[0] @ p.w_x[0, 0].T + p.bias[0]).reshape(steps, 4, 1, 1, hidden)
        return [a[..., 0, :, :] for a in kernels.lstm_forward_seq(zx, p.w_h[:1], (steps,))]

    def loss():
        return float(np.sum(r * run()[0][1:]))

    kernels.lstm_backward_seq(p.w_h[:1], xs, *run()[1:], r, gp.w_x[:1], gp.w_h[:1],
                              gp.bias[:1], (1.0,))
    return gradient_check(loss, w.flat, g.flat, eps=eps)


def check_bilstm_last(seed: int, eps: float = DEFAULT_EPS) -> float:
    rng = np.random.default_rng(seed)
    w, g = _toy_weights(rng, (1, TOY_DIM, TOY_HIDDEN, 1, 1))
    xs = rng.normal(size=(5, TOY_DIM))
    r = rng.normal(size=2 * TOY_HIDDEN)

    def run():
        return core.bilstm_run(w.bilstm, xs, (5,), emotion_model.ONE_BLOCK)

    def loss():
        return float(r @ core.bilstm_last_output(run())[0])

    core.bilstm_backward_last(w.bilstm, run(), r, g.bilstm)
    return gradient_check(loss, w.flat, g.flat, eps=eps)


def _toy_table(rng: np.random.Generator, dim: int = TOY_DIM) -> EmbeddingTable:
    words = [f"w{i}" for i in range(4)]
    return EmbeddingTable(words, rng.normal(size=(len(words), dim)))


def _check_architecture(model: bilstm_mlp.BiLstmMlp, xs: np.ndarray,
                        weights: np.ndarray, target, mask_seed: int, train: bool,
                        eps: float) -> float:
    """The model's whole stack on one sequence: the training step's
    gradient against the head's loss on forward-only logits, with a
    dropout mask drawn from mask_seed in train mode."""
    def mask_rng():
        return np.random.default_rng(mask_seed) if train else None

    def loss():
        logits = bilstm_mlp.forward(model, xs, (len(xs),), weights, train, mask_rng()).logits[0]
        return model.head(logits, target)[0]

    grad = model.zeros_like()
    bilstm_mlp.loss_and_grads(model, xs, weights, target, train, mask_rng(), grad)
    return gradient_check(loss, model.flat, grad.flat, eps=eps)


def check_emotion_architecture(seed: int, eps: float = DEFAULT_EPS,
                               train: bool = False) -> float:
    """Full classifier stack: Bi-LSTM -> (dropout) -> linear -> ELU ->
    linear -> log-softmax -> NLL."""
    rng = np.random.default_rng(seed)
    table = _toy_table(rng)
    model = emotion_model.EmotionClassifier.init(table, rng, hidden=TOY_HIDDEN,
                                                 mid=TOY_MID)
    xs = table.vectors[rng.integers(len(table), size=5)]
    target = int(rng.integers(emotion_model.N_EMOTIONS))
    return _check_architecture(model, xs, emotion_model.ONE_BLOCK, target,
                               int(rng.integers(2 ** 31)), train, eps)


def check_cause_architecture(seed: int, eps: float = DEFAULT_EPS,
                             train: bool = False) -> float:
    """Full scorer stack: Bi-LSTM over the factored emotion-scaled input
    (random, not one-hot, probabilities, so every input weight block gets
    a gradient) -> (dropout) -> linear -> ELU -> linear -> sigmoid -> BCE."""
    rng = np.random.default_rng(seed)
    table = _toy_table(rng)
    model = cause_model.CauseScorer.init(table, rng, hidden=TOY_HIDDEN, mid=TOY_MID)
    probs = rng.random(cause_model.N_EMOTIONS)
    probs /= probs.sum()
    tokens = [table.words[int(i)] for i in rng.integers(len(table), size=4)]
    label = int(rng.integers(2))
    return _check_architecture(model, table.rows(tokens), probs[None, :], label,
                               int(rng.integers(2 ** 31)), train, eps)


LAYER_CHECKS = (
    ("linear", check_linear),
    ("linear+elu+log_softmax+nll", check_linear_elu_logsoftmax_nll),
    ("linear+sigmoid+bce", check_linear_sigmoid_bce),
    ("dropout", check_dropout),
    ("lstm", check_lstm),
    ("bilstm", check_bilstm_last),
)

ARCHITECTURE_CHECKS = (
    ("emotion architecture (eval)", lambda s, eps=DEFAULT_EPS: check_emotion_architecture(s, eps)),
    ("emotion architecture (train)", lambda s, eps=DEFAULT_EPS: check_emotion_architecture(s, eps, train=True)),
    ("cause architecture (eval)", lambda s, eps=DEFAULT_EPS: check_cause_architecture(s, eps)),
    ("cause architecture (train)", lambda s, eps=DEFAULT_EPS: check_cause_architecture(s, eps, train=True)),
)

ALL_CHECKS = LAYER_CHECKS + ARCHITECTURE_CHECKS


def run_all(seeds=range(5), eps: float = DEFAULT_EPS, report=None) -> float:
    """Max relative error over every check and seed. `report` receives one
    (name, seed, error) call per run when given."""
    worst = 0.0
    for name, check in ALL_CHECKS:
        for seed in seeds:
            err = check(int(seed), eps)
            if report is not None:
                report(name, int(seed), err)
            worst = max(worst, err)
    return worst
