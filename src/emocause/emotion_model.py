"""Review-level 8-way emotion classifier.

The shared Bi-LSTM + MLP network (bilstm_mlp.py, 256 hidden units per
direction by default) over the review's word embeddings, one input block
with weight 1, under a log-softmax + NLL head (EmotionClassifier.head).
Inference classifies many reviews per call (classify). Trained by
bilstm_mlp.train: batch size 1, SGD with momentum, 100 epochs. Models are
saved and loaded with bilstm_mlp.save and bilstm_mlp.load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bilstm_mlp
from .embeddings import EMOTIONS, EmbeddingTable
from .errors import DataError
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

    @staticmethod
    def head(logits: np.ndarray, target: int):
        """NLL of the target under log-softmax. d(loss)/d(logits) is softmax
        minus the one-hot target."""
        log_probs = core.log_softmax(logits)
        loss = core.nll_loss(log_probs, target)
        d_logits = np.exp(log_probs)
        d_logits[target] -= 1.0
        return loss, d_logits


@dataclass(frozen=True)
class EmotionTrainExample:
    tokens: tuple
    label: str

    def __post_init__(self):
        if not self.tokens:  # a gold review with no parse_ids
            raise DataError("example has no tokens")
        if self.label not in EMOTIONS:
            raise ValueError(f"unknown emotion label {self.label!r}")


ONE_BLOCK = np.ones((1, 1))  # a review's block weights: its word vectors as they are


def classify(m: EmotionClassifier, sequences) -> np.ndarray:
    """Log-probabilities (B, 8) over the emotions for B reviews, in one
    batched forward; each review is the nonempty sequence of its
    in-vocabulary tokens' row indices in the model's table."""
    weights = np.broadcast_to(ONE_BLOCK, (len(sequences), 1))
    return core.log_softmax(bilstm_mlp.logits(m, sequences, weights))


def train_emotion(examples, table: EmbeddingTable, rng: core.Rng,
                  epochs: int = DEFAULT_EPOCHS, cfg: core.SgdConfig = core.SgdConfig(),
                  hidden: int = DEFAULT_HIDDEN, log_epochs: bool = False):
    """Returns (model, per-epoch mean-loss trace); see bilstm_mlp.train.
    Examples whose tokens are all out of vocabulary are skipped."""
    return bilstm_mlp.train(
        EmotionClassifier, table, examples,
        lambda ex: (table.rows(ex.tokens), ONE_BLOCK, EMOTIONS.index(ex.label)),
        rng, epochs, cfg, hidden, log_epochs)
