"""Review-level 8-way emotion classifier.

The shared Bi-LSTM + MLP network (bilstm_mlp.py, 256 hidden units per
direction by default) over the review's word embeddings, with a
log-softmax head. Trained with NLL loss, batch size 1, SGD with momentum,
for 100 epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bilstm_mlp
from .embeddings import EMOTIONS, EmbeddingTable
from .nn import core
from .nn.serialize import KIND_EMOTION

DEFAULT_HIDDEN = 256
N_EMOTIONS = len(EMOTIONS)
DEFAULT_EPOCHS = 100


@dataclass
class EmotionClassifier(bilstm_mlp.BiLstmMlp):
    labels: tuple = EMOTIONS

    kind = KIND_EMOTION
    what = "an emotion model"
    input_blocks = 1
    out_width = N_EMOTIONS


@dataclass(frozen=True)
class EmotionTrainExample:
    tokens: tuple
    label: str

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("example has no tokens")
        if self.label not in EMOTIONS:
            raise ValueError(f"unknown emotion label {self.label!r}")


def forward_emotion(m: EmotionClassifier, tokens, train: bool = False,
                    rng: core.Rng | None = None) -> np.ndarray:
    """Log-probabilities over the 8 emotions for a tokenized review; its
    in-vocabulary tokens are the timesteps (OovError when there are none)."""
    xs = m.table.rows(tokens)
    return core.log_softmax(bilstm_mlp.forward(m, xs, train, rng).logits)


def loss_and_grads(m: EmotionClassifier, xs: np.ndarray, target: int,
                   train: bool, rng: core.Rng | None, grad: bilstm_mlp.Weights) -> float:
    """NLL loss; its gradient is written into grad. d(loss)/d(logits) of
    log-softmax + NLL is softmax minus the one-hot target."""
    cache = bilstm_mlp.forward(m, xs, train, rng)
    log_probs = core.log_softmax(cache.logits)
    loss = core.nll_loss(log_probs, target)
    d_logits = np.exp(log_probs)
    d_logits[target] -= 1.0
    bilstm_mlp.backward(m, cache, d_logits, grad)
    return loss


def train_emotion(examples, table: EmbeddingTable, rng: core.Rng,
                  epochs: int = DEFAULT_EPOCHS, cfg: core.SgdConfig | None = None,
                  hidden: int = DEFAULT_HIDDEN, log_epochs: bool = False):
    """Returns (model, per-epoch mean-loss trace); see bilstm_mlp.train.
    Examples whose tokens are all out of vocabulary are skipped."""
    return bilstm_mlp.train(
        EmotionClassifier, table, examples,
        lambda ex: (table.rows(ex.tokens), EMOTIONS.index(ex.label)),
        loss_and_grads, rng, epochs, cfg, hidden, log_epochs)


def save_emotion_model(m: EmotionClassifier, path) -> None:
    bilstm_mlp.save(m, path)


def load_emotion_model(path, table: EmbeddingTable) -> EmotionClassifier:
    return bilstm_mlp.load(EmotionClassifier, path, table)
