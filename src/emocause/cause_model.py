"""Clause-level cause scorer.

Each in-vocabulary word contributes eight copies of its embedding, one per
emotion, each scaled by that emotion's probability from the review-level
classifier; the copies are concatenated into the timestep input (8*d), the
Kronecker product of the probabilities and the vector. These rows go
through the shared Bi-LSTM + MLP network (bilstm_mlp.py, 1024 hidden units
per direction by default) with a scalar sigmoid head. Trained with BCE,
batch size 1, 50 epochs. The review's cause clause is the one with the
highest score.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import bilstm_mlp
from .embeddings import EMOTIONS, EmbeddingTable
from .errors import OovError
from .nn import core
from .nn.serialize import KIND_CAUSE

log = logging.getLogger(__name__)

DEFAULT_HIDDEN = 1024
N_EMOTIONS = len(EMOTIONS)
DEFAULT_EPOCHS = 50
PROB_SUM_TOL = 1e-6


class CauseScorer(bilstm_mlp.BiLstmMlp):
    kind = KIND_CAUSE
    what = "a cause model"
    input_blocks = N_EMOTIONS
    out_width = 1


def _check_probs(probs) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (N_EMOTIONS,):
        raise ValueError(f"emotion probabilities must have length {N_EMOTIONS}")
    if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL or np.any(probs < 0):
        raise ValueError("emotion probabilities must be a distribution")
    return probs


@dataclass(frozen=True)
class CauseTrainExample:
    tokens: tuple
    probs: np.ndarray
    label: int

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("example has no tokens")
        object.__setattr__(self, "probs", _check_probs(self.probs))
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


def one_hot_probs(emotion: str) -> np.ndarray:
    probs = np.zeros(N_EMOTIONS)
    probs[EMOTIONS.index(emotion)] = 1.0
    return probs


def emotion_scaled_inputs(tokens, probs, table: EmbeddingTable) -> np.ndarray:
    """(T, 8*d) inputs: for each in-vocabulary word with vector v, the
    eight blocks p1*v, ..., p8*v in fixed emotion order, from one broadcast
    product over the gathered rows (OovError when no token is known)."""
    probs = _check_probs(probs)
    vectors = table.rows(tokens)
    n, d = vectors.shape
    return (probs[:, None] * vectors[:, None, :]).reshape(n, N_EMOTIONS * d)


def score_clause(m: CauseScorer, tokens, probs, train: bool = False,
                 rng: core.Rng | None = None) -> float:
    """Probability in (0, 1) that the clause is a cause clause."""
    xs = emotion_scaled_inputs(tokens, probs, m.table)
    return core.sigmoid(float(bilstm_mlp.forward(m, xs, train, rng).logits[0]))


def loss_and_grads(m: CauseScorer, xs: np.ndarray, label: int,
                   train: bool, rng: core.Rng | None, grad: bilstm_mlp.Weights) -> float:
    """BCE loss; its gradient is written into grad. d(loss)/d(logit) of
    sigmoid + BCE collapses to (p - y)."""
    cache = bilstm_mlp.forward(m, xs, train, rng)
    prob = core.sigmoid(float(cache.logits[0]))
    loss = core.bce_loss(prob, label)
    bilstm_mlp.backward(m, cache, np.array([prob - label]), grad)
    return loss


def select_cause_clause(m: CauseScorer, clauses, probs) -> tuple[int, list]:
    """Index of the highest-scoring clause (ties go to the lowest index) and
    every clause's score, None for a clause whose tokens are all out of
    vocabulary; such clauses are not scored. OovError when no clause (or an
    empty list) can be scored."""
    scores = []
    for clause in clauses:
        try:
            scores.append(score_clause(m, clause.words, probs))
        except OovError:
            scores.append(None)
    scored = [i for i, s in enumerate(scores) if s is not None]
    if not scored:
        raise OovError("no clause has an in-vocabulary token")
    return max(scored, key=scores.__getitem__), scores


def train_cause(examples, table: EmbeddingTable, rng: core.Rng,
                epochs: int = DEFAULT_EPOCHS, cfg: core.SgdConfig | None = None,
                hidden: int = DEFAULT_HIDDEN, log_epochs: bool = False):
    """Returns (model, per-epoch mean-loss trace); see bilstm_mlp.train.
    A single-label dataset trains anyway, with a warning."""
    labels = {ex.label for ex in examples}
    if len(labels) == 1:
        log.warning("training data contains only label %s", labels.pop())
    return bilstm_mlp.train(
        CauseScorer, table, examples,
        lambda ex: (emotion_scaled_inputs(ex.tokens, ex.probs, table), ex.label),
        loss_and_grads, rng, epochs, cfg, hidden, log_epochs)


def save_cause_model(m: CauseScorer, path) -> None:
    bilstm_mlp.save(m, path)


def load_cause_model(path, table: EmbeddingTable) -> CauseScorer:
    return bilstm_mlp.load(CauseScorer, path, table)
