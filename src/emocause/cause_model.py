"""Clause-level cause scorer.

In the paper's model each in-vocabulary word contributes eight copies of
its embedding, one per emotion, each scaled by that emotion's probability
from the review-level classifier: the timestep input is the Kronecker
product p (x) v, 8*d wide. That input is never built here. The shared
Bi-LSTM + MLP network (bilstm_mlp.py, 1024 hidden units per direction by
default) holds its input weights as eight (4H, d) blocks and projects v
through their p-weighted sum, formed once per review and direction; the
gradient of block k is p_k times the gradient of that sum. The head is a
scalar sigmoid under BCE (CauseScorer.head). Trained by bilstm_mlp.train:
batch size 1, 50 epochs, holding each example as its (T, d) word vectors
and p. Inference scores many clauses per call (score); the review's cause
clause is the one with the highest score. Models are saved and loaded with
bilstm_mlp.save and bilstm_mlp.load.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import bilstm_mlp
from .embeddings import EMOTIONS, EmbeddingTable
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

    @staticmethod
    def head(logits: np.ndarray, label: int):
        """BCE of the label under the sigmoid of the one logit.
        d(loss)/d(logit) of sigmoid + BCE collapses to (p - y)."""
        prob = core.sigmoid(float(logits[0]))
        return core.bce_loss(prob, label), np.array([prob - label])


def _check_probs(probs, shape=(N_EMOTIONS,)) -> np.ndarray:
    """probs as a float64 array of the given shape, each last-axis row a
    distribution over the emotions."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != shape:
        raise ValueError(f"emotion probabilities must have shape {shape}")
    if np.any(np.abs(probs.sum(axis=-1) - 1.0) > PROB_SUM_TOL) or np.any(probs < 0):
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


def score(m: CauseScorer, sequences, probs) -> np.ndarray:
    """Cause scores in (0, 1) for B clauses, in one batched forward: each
    clause is the nonempty sequence of its in-vocabulary tokens' row indices
    in the model's table, and probs (B, 8) holds the emotion probabilities
    of its review. Give a review's clauses one after another, so that its
    effective input weights are formed once."""
    probs = _check_probs(probs, (len(sequences), N_EMOTIONS))
    return np.array([core.sigmoid(float(z)) for z in bilstm_mlp.logits(m, sequences, probs)[:, 0]])


def train_cause(examples, table: EmbeddingTable, rng: core.Rng,
                epochs: int = DEFAULT_EPOCHS, cfg: core.SgdConfig = core.SgdConfig(),
                hidden: int = DEFAULT_HIDDEN, log_epochs: bool = False):
    """Returns (model, per-epoch mean-loss trace); see bilstm_mlp.train.
    Each example is held as its clause's (T, d) word vectors and its
    probabilities. A single-label dataset trains anyway, with a warning."""
    labels = {ex.label for ex in examples}
    if len(labels) == 1:
        log.warning("training data contains only label %s", labels.pop())
    return bilstm_mlp.train(
        CauseScorer, table, examples,
        lambda ex: (table.rows(ex.tokens), ex.probs[None, :], ex.label),
        rng, epochs, cfg, hidden, log_epochs)
