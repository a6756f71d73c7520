"""Shared builders and oracles used by both the module tests and the
acceptance suite."""

import numpy as np

from emocause import bilstm_mlp, cause_model, emotion_model
from emocause.clustering import cosine_distance
from emocause.embeddings import EMOTIONS, EmbeddingTable, build_similarity_matrix
from emocause.nn import core


def reference_complete_link(vectors, threshold):
    """Naive complete-linkage oracle: recompute every cluster distance from
    scratch each step; same scan order and merge convention as the
    implementation."""
    clusters = [[i] for i in range(len(vectors))]
    while len(clusters) > 1:
        best = None
        best_d = np.inf
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = max(cosine_distance(vectors[a], vectors[b])
                        for a in clusters[i] for b in clusters[j])
                if d < best_d:
                    best_d, best = d, (i, j)
        if best_d >= threshold:
            break
        i, j = best
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]
    return sorted(clusters, key=lambda c: c[0])


def as_partition(clusters):
    return {frozenset(c) for c in clusters}


def reference_emotion_aware_table(table, lexicon, k):
    """Per-word oracle for build_emotion_aware_table: sort each row of the
    similarity matrix by (-similarity, emotion word), weight the first k by
    max(similarity, 0) * max intensity, and average the normalized blend
    with the raw vector; all-zero weights keep the raw vector."""
    matrix = build_similarity_matrix(table, lexicon)
    out = np.array(table.vectors)
    for i, word in enumerate(table.words):
        top = sorted(zip(matrix.emotion_words, matrix.row(word)),
                     key=lambda pair: (-pair[1], pair[0]))[:k]
        weights = [max(float(sim), 0.0) * lexicon.max_intensity(ew) for ew, sim in top]
        total = sum(weights)
        if total == 0.0:
            continue
        blend = sum(w / total * table[ew] for (ew, _), w in zip(top, weights))
        out[i] = (table.vectors[i] + blend) / 2.0
    return out


def kron_scaled_inputs(tokens, probs, table):
    """Per-token oracle for cause_model.emotion_scaled_inputs: one np.kron
    of the probabilities and each in-vocabulary word's vector."""
    return np.array([np.kron(probs, table[t]) for t in tokens if t in table])


def sigmoid_vec(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def lstm_cell(p, x, h, c):
    """One LSTM step: returns (h', c'). Standard gates, no peepholes; the
    per-step oracle for the sequence kernels."""
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if x.shape != (p.input_dim,) or h.shape != (p.hidden_dim,) or c.shape != (p.hidden_dim,):
        raise ValueError("lstm_cell: state/input shapes do not match parameters")
    hidden = p.hidden_dim
    z = p.w_x @ x + p.w_h @ h + p.bias
    i = sigmoid_vec(z[:hidden])
    f = sigmoid_vec(z[hidden:2 * hidden])
    g = np.tanh(z[2 * hidden:3 * hidden])
    o = sigmoid_vec(z[3 * hidden:])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def random_bilstm(rng, input_dim, hidden):
    """A randomly initialised Bi-LSTM, cut from a network's flat vector."""
    dims = (input_dim, hidden, 1, 1)
    return bilstm_mlp.Weights.over(bilstm_mlp.draw(dims, rng), dims).bilstm


def bilstm_outputs(cache):
    """Per-timestep outputs (T, 2H): concat of both directions' states at
    each original position."""
    hs_f = cache.fwd[0][1:]
    hs_b = cache.bwd[0][1:][::-1]
    return np.concatenate([hs_f, hs_b], axis=1)


def bilstm_forward(m, seq):
    """Sequence of per-timestep output vectors, each of length 2*hidden."""
    return list(bilstm_outputs(core.bilstm_run(m, np.asarray(seq, dtype=np.float64))))


def dropout(x, p, train, rng=None):
    """Inverted dropout: zero each element with probability p and scale
    survivors by 1/(1-p) in train mode; identity in eval mode."""
    x = np.asarray(x, dtype=np.float64)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x.copy()
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    return x * core.dropout_mask(p, x.shape, rng)


# 10 distinct emotion words covering all 8 classes (two classes twice)
SEPARABLE_CLASSES = (0, 1, 2, 3, 4, 5, 6, 7, 0, 1)


def separable_emotion_setup(dim=10, scale=6.0):
    """(table, examples): 10 reviews, each separable by one high-signal
    emotion word; class k's words point along embedding axis k."""
    rng = np.random.default_rng(0)
    words, vecs = [], []
    for w, cls in enumerate(SEPARABLE_CLASSES):
        v = rng.normal(0.0, 0.2, dim)
        v[cls] += scale
        words.append(f"emo{w}")
        vecs.append(v)
    for extra in ("the", "item", "seems", "today"):
        words.append(extra)
        vecs.append(rng.normal(0.0, 0.8, dim))
    table = EmbeddingTable(words, np.array(vecs))
    examples = [
        emotion_model.EmotionTrainExample(
            ("the", "item", "seems", f"emo{w}", "today"), EMOTIONS[cls])
        for w, cls in enumerate(SEPARABLE_CLASSES)
    ]
    return table, examples


CAUSE_POSITIVE = (("because", "battery", "broke"),
                  ("because", "battery", "works"),
                  ("battery", "broke"),
                  ("because", "broke"),
                  ("battery", "works", "because"))
CAUSE_NEGATIVE = (("works", "fine"), ("nice", "item"), ("item", "good"),
                  ("good", "fine"), ("nice", "good", "fine"))


def separable_cause_setup(dim=10):
    """(table, examples): 10 clauses, positives marked by 'because'/'battery'."""
    words = ["because", "battery", "broke", "works", "fine", "nice", "item", "good"]
    table = EmbeddingTable(words,
                           np.random.default_rng(1).normal(size=(len(words), dim)))
    probs = cause_model.one_hot_probs("anger")
    examples = ([cause_model.CauseTrainExample(t, probs, 1) for t in CAUSE_POSITIVE]
                + [cause_model.CauseTrainExample(t, probs, 0) for t in CAUSE_NEGATIVE])
    return table, examples


def predict_label(m, tokens):
    log_probs = emotion_model.forward_emotion(m, tokens, train=False)
    return m.labels[int(np.argmax(log_probs))]


def emotion_accuracy(model, examples):
    return sum(predict_label(model, ex.tokens) == ex.label for ex in examples)


def cause_accuracy(model, examples):
    return sum((cause_model.score_clause(model, ex.tokens, ex.probs) >= 0.5)
               == bool(ex.label) for ex in examples)


def run_cli_chain(workdir, seed=0, products=2, reviews=24, dim=12,
                  emotion_hidden=16, cause_hidden=24, emotion_epochs=40,
                  cause_epochs=15):
    """gen-synthetic -> build-embeddings -> train both models, all through
    the CLI, inside workdir. Returns a ready PipelineConfig."""
    from emocause.cli import main
    from emocause.pipeline import PipelineConfig

    w = str(workdir)
    paths = {name: f"{w}/{name}" for name in
             ("corpus.jsonl", "parses.conllu", "embeddings.txt", "lexicon.tsv",
              "aware.txt", "emotion.bin", "cause.bin")}
    assert main(["gen-synthetic", "--output-dir", w, "--seed", str(seed),
                 "--products", str(products), "--reviews", str(reviews),
                 "--dim", str(dim)]) == 0
    assert main(["build-embeddings", "--embeddings", paths["embeddings.txt"],
                 "--lexicon", paths["lexicon.tsv"],
                 "--output", paths["aware.txt"]]) == 0
    assert main(["train-emotion", "--corpus", paths["corpus.jsonl"],
                 "--parses", paths["parses.conllu"],
                 "--embeddings", paths["aware.txt"],
                 "--output", paths["emotion.bin"],
                 "--epochs", str(emotion_epochs),
                 "--hidden", str(emotion_hidden), "--seed", str(seed)]) == 0
    assert main(["train-cause", "--corpus", paths["corpus.jsonl"],
                 "--parses", paths["parses.conllu"],
                 "--embeddings", paths["aware.txt"],
                 "--output", paths["cause.bin"],
                 "--epochs", str(cause_epochs),
                 "--hidden", str(cause_hidden), "--seed", str(seed)]) == 0
    return PipelineConfig(
        embeddings_path=paths["embeddings.txt"],
        aware_path=paths["aware.txt"],
        corpus_path=paths["corpus.jsonl"],
        parses_path=paths["parses.conllu"],
        emotion_model_path=paths["emotion.bin"],
        cause_model_path=paths["cause.bin"],
    )
