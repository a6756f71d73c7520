"""Shared builders and oracles used by both the module tests and the
acceptance suite."""

import bisect
import dataclasses
import struct

import numpy as np
from hypothesis import strategies as st

from emocause import bilstm_mlp, cause_model, embeddings, emotion_model, pipeline
from emocause.clustering import cosine_distance
from emocause.embeddings import (DEFAULT_TOP_K, EMOTIONS, EmbeddingTable,
                                 build_similarity_matrix)
from emocause.errors import OovError
from emocause.nn import core, kernels


def with_parses(record, parse_ids):
    """record read from other parses, as inference sees it: its gold labels
    are dropped, since their cause span indexes the sentences it had."""
    return dataclasses.replace(record, parse_ids=tuple(parse_ids), gold_emotion=None,
                               gold_cause=None)


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


def similarity_row(matrix, table, word: str) -> np.ndarray:
    """A word's row of the SimilarityMatrix built over table; KeyError for a
    word not in the table."""
    index = table.indices((word,))
    if not index:
        raise KeyError(f"word {word!r} not in similarity matrix")
    return matrix.values[index[0]]


def top_k_emotion_words(matrix, table, word: str, k: int = DEFAULT_TOP_K) -> list:
    """A word's k most similar emotion words as (word, similarity),
    descending, through the selection build_emotion_aware_table runs on
    every row; equal similarities are ordered lexicographically by emotion
    word (the columns are sorted)."""
    cols, sims = embeddings._top_k(similarity_row(matrix, table, word)[None, :].copy(), k)
    return [(matrix.emotion_words[j], float(s)) for j, s in zip(cols[0], sims[0])]


def reference_emotion_aware_table(table, lexicon, k):
    """Per-word oracle for build_emotion_aware_table: sort each row of the
    similarity matrix by (-similarity, emotion word), weight the first k by
    max(similarity, 0) * max intensity, and average the normalized blend
    with the raw vector; all-zero weights keep the raw vector."""
    matrix = build_similarity_matrix(table, lexicon)
    out = np.array(table.vectors)
    for i, word in enumerate(table.words):
        top = sorted(zip(matrix.emotion_words, similarity_row(matrix, table, word)),
                     key=lambda pair: (-pair[1], pair[0]))[:k]
        weights = [max(float(sim), 0.0) * lexicon.max_intensity(ew) for ew, sim in top]
        total = sum(weights)
        if total == 0.0:
            continue
        blend = sum(w / total * table[ew] for (ew, _), w in zip(top, weights))
        out[i] = (table.vectors[i] + blend) / 2.0
    return out


def kron_weights(w_x):
    """A direction's input weights, stored as k (4H, d) blocks, as the
    (4H, k*d) matrix that multiplies the paper's kron(p, v) input: row r
    holds gate row r of every block, one block after another."""
    k, four_h, d = w_x.shape
    return w_x.transpose(1, 0, 2).reshape(four_h, k * d)


def interleaved_draw(dims, rng):
    """draw's values as it gave them when each input weight tensor was the
    (4H, k*d) matrix of kron_weights, stored row by row, and every tensor
    was filled whole in layout order: the oracle for the block-major draw.
    Returns the tensors in layout order, input weights in that matrix
    form."""
    blocks, dim, hidden, mid, out = dims
    four_h = 4 * hidden
    shapes = ([((four_h, blocks * dim), blocks * dim), ((four_h, hidden), hidden),
               ((four_h,), hidden)] * 2
              + [((mid, 2 * hidden), 2 * hidden), ((mid,), 2 * hidden),
                 ((out, mid), mid), ((out,), mid)])
    tensors = []
    for shape, fan_in in shapes:
        bound = 1.0 / np.sqrt(fan_in)
        view = np.empty(shape)
        rng.random(out=view)
        view *= bound - -bound
        view += -bound
        tensors.append(view)
    return tensors


def kron_scaled_inputs(tokens, probs, table):
    """The paper's (T, 8d) cause input, the oracle for the factored
    projection: one np.kron of the probabilities and each in-vocabulary
    word's vector."""
    return np.array([np.kron(probs, table[t]) for t in tokens if t in table])


def reference_lstm_forward_seq(w_x, w_h, bias, xs):
    """The one-sequence forward kernel that the batch-major kernel
    replaced, kept verbatim as an oracle: an LSTM left to right over xs
    (T, D) from zero state. Returns (hs, cs, gates, tanh_c) with hs/cs
    (T+1, H), gates (T, 4H) post-activation in i|f|g|o order and tanh_c
    (T, H)."""
    T = xs.shape[0]
    H = w_h.shape[1]
    hs = np.zeros((T + 1, H))
    cs = np.zeros((T + 1, H))
    tanh_c = np.empty((T, H))
    gates = xs @ w_x.T + bias
    for t in range(T):
        z = gates[t]
        z += w_h @ hs[t]
        i, f, g, o = act = z.reshape(4, H)
        tanh_g = np.tanh(g)
        act[:] = 1.0 / (1.0 + np.exp(-act))
        g[:] = tanh_g
        np.multiply(f, cs[t], out=cs[t + 1])
        cs[t + 1] += i * g
        np.tanh(cs[t + 1], out=tanh_c[t])
        np.multiply(o, tanh_c[t], out=hs[t + 1])
    return hs, cs, gates, tanh_c


def interleaved_lstm_forward_seq(zx, w_h, lengths):
    """The batch-major forward kernel that the negated, gate-major kernel
    replaced, kept verbatim as an oracle: it takes the input
    pre-activations as they are, gates interleaved per row.

    Run an LSTM left to right from zero state over B sequences at once,
    in D directions at once.

    zx is (T, D, B, 4H), time-major: zx[t, e, i] is sequence i's input
    pre-activation at step t in direction e, bias included, and w_h
    (D, 4H, H) holds each direction's recurrent weights. lengths (B,) is
    sorted in decreasing order with lengths[0] == T, so step t updates only
    the first n_active[t] rows; every direction runs the same lengths. zx
    is turned into the gate activations in place.

    Returns (hs, cs, gates, tanh_c): hs/cs are (T+1, D, B, H) with row 0
    the initial zero state, gates is zx, (T, D, B, 4H) post-activation in
    i|f|g|o order, and tanh_c is (T, D, B, H); everything the backward
    pass needs. Sequence i's last state in direction e is
    hs[lengths[i], e, i]; entries past a sequence's end are not computed
    (zero in hs, cs and tanh_c, and zx's own values in gates) and not read.
    """
    T, D, B, four_h = zx.shape
    H = w_h.shape[2]
    neg = [-int(n) for n in lengths]  # ascending
    if len(neg) != B or neg[0] != -T or neg[-1] > -1 or neg != sorted(neg):
        raise ValueError("lstm: lengths must be >= 1, in decreasing order, the first equal to T")
    n_active = [bisect.bisect_left(neg, -t) for t in range(T)]  # lengths > t
    hs = np.zeros((T + 1, D, B, H))
    cs = np.zeros((T + 1, D, B, H))
    tanh_c = np.zeros((T, D, B, H))
    w_ht = w_h.transpose(0, 2, 1)
    acts = zx.reshape(T, D, B, 4, H).transpose(0, 3, 1, 2, 4)  # gate-major views of zx
    h_prev, c_prev = hs[0], cs[0]
    # each step's views come from iterating the arrays, and are cut to the
    # n sequences still running only once some have ended
    for z, act, h, c, tc, n in zip(zx, acts, hs[1:], cs[1:], tanh_c, n_active):
        if n < B:
            z, act, h, c, tc = z[:, :n], act[:, :, :n], h[:, :n], c[:, :n], tc[:, :n]
            h_prev, c_prev = h_prev[:, :n], c_prev[:, :n]
        z += np.matmul(h_prev, w_ht)
        i, f, g, o = act
        tanh_g = np.tanh(g)
        # the sigmoid of every gate, over z's rows rather than the gate
        # views, then the cell gate's tanh put back
        np.exp(np.negative(z, z), z)
        np.add(z, 1.0, z)
        np.divide(1.0, z, z)
        g[...] = tanh_g
        np.multiply(f, c_prev, c)
        c += i * g
        np.multiply(o, np.tanh(c, tc), h)
        h_prev, c_prev = h, c
    return hs, cs, zx, tanh_c



def _interleaved_add_product(target, a, b):
    """target += a @ b, a row block of about kernels.BLOCK values of target
    at a time, so the product is never held whole and each block of target
    is still in cache when it is added to."""
    rows = max(1, kernels.BLOCK // target.shape[1])
    for r in range(0, target.shape[0], rows):
        target[r:r + rows] += a[r:r + rows] @ b



def interleaved_lstm_backward_seq(w_h, xs, hs, cs, gates, tanh_c, d_h_out, d_wx, d_wh, d_bias,
                      block_weights):
    """The backward kernel that the time-major, batched-gradient kernel
    replaced, kept verbatim as an oracle (its row-block product is
    _interleaved_add_product). Backpropagate through time over one
    sequence in D directions at once, given d_h_out (T, D, H), the gradient of the loss w.r.t. each
    timestep's hidden output, and the forward kernel's outputs for that
    sequence ((T+1, D, H), (T+1, D, H), (T, D, 4H), (T, D, H)).

    w_h (D, 4H, H) holds each direction's recurrent weights and xs
    (D, T, D_in) its inputs. They were projected with the weights
    sum_j block_weights[j] * block_j of k = len(block_weights) (4H, D_in)
    input blocks, so the gradient of block j is dZ.T @ (block_weights[j] *
    xs). Direction e's gradients are added into d_wx[e] (k, 4H, D_in),
    d_wh[e] (4H, H) and d_bias[e] (4H,), not written: the caller passes
    the vectors it accumulates into, as arrays with a leading direction
    axis or as sequences of D arrays. Block j of d_wx[e] is not touched
    where block_weights[j] is zero, and no (T, k*D_in) input or
    (4H, k*D_in) temporary is made. Input gradients are not computed; the
    models feed frozen embeddings.
    """
    D, T = xs.shape[:2]
    H = w_h.shape[2]
    i, f, g, o = gates.reshape(T, D, 4, H).transpose(2, 0, 1, 3)
    # the local derivatives, which do not depend on the recurrence: d(c) by
    # the i, f and g pre-activations, d(h) by the o pre-activation, d(h)/d(c)
    dc_dz_ifg = np.empty((T, D, 3, H))
    np.multiply(g * i, 1.0 - i, out=dc_dz_ifg[:, :, 0])
    np.multiply(cs[:-1] * f, 1.0 - f, out=dc_dz_ifg[:, :, 1])
    np.multiply(i, 1.0 - g * g, out=dc_dz_ifg[:, :, 2])
    dh_dz_o = tanh_c * o * (1.0 - o)
    dh_dc = o * (1.0 - tanh_c * tanh_c)
    dz = np.empty((D, T, 4, H))
    dh = np.zeros((D, H))
    dc = np.zeros((D, H))
    for t in range(T - 1, -1, -1):
        dht = d_h_out[t] + dh
        dct = dht * dh_dc[t] + dc
        np.multiply(dc_dz_ifg[t], dct[:, None], out=dz[:, t, :3])
        np.multiply(dh_dz_o[t], dht, out=dz[:, t, 3])
        dc = dct * f[t]
        dh = np.matmul(dz[:, t].reshape(D, 1, 4 * H), w_h).reshape(D, H)
    dz = dz.reshape(D, T, 4 * H)
    for e, (wx, wh, bias) in enumerate(zip(d_wx, d_wh, d_bias)):
        dz_t = dz[e].T
        for j, weight in enumerate(block_weights):
            if weight:
                _interleaved_add_product(wx[j], dz_t, xs[e] if weight == 1.0 else weight * xs[e])
        _interleaved_add_product(wh, dz_t, hs[:-1, e])
        bias += dz[e].sum(0)


def gate_major(zx):
    """The kernel's negated, gate-major (T, 4, B, D, H) input for the input
    pre-activations zx (T, D, B, 4H) the interleaved kernel takes."""
    T, D, B, four_h = zx.shape
    return np.negative(zx.reshape(T, D, B, 4, four_h // 4).transpose(0, 3, 2, 1, 4)).copy()


def as_interleaved(out):
    """The kernel's (hs, gates, cells) as the interleaved kernel returns
    them: (hs, cs, gates, tanh_c), each with the direction axis before the
    batch axis, and gates (T, D, B, 4H) with tanh(g) in the cell gate's
    slot."""
    hs, gates, cells = out
    T, _, B, D, H = gates.shape
    act = gates.transpose(0, 3, 2, 1, 4).copy()
    np.negative(cells[:T, 0].transpose(0, 2, 1, 3), out=act[..., 2, :])
    return (hs.transpose(0, 2, 1, 3), cells[:, 1].transpose(0, 2, 1, 3),
            act.reshape(T, D, B, 4 * H), cells[:T, 3].transpose(0, 2, 1, 3))


def kron_logits(m, tokens, probs):
    """Oracle for a cause scorer's logit: both directions run by the
    reference kernel over the (T, 8d) Kronecker input and the full input
    weights, then the MLP, as the paper writes the model."""
    xs = kron_scaled_inputs(tokens, probs, m.table)
    last = [reference_lstm_forward_seq(kron_weights(p.w_x), p.w_h, p.bias, seq)[0][-1]
            for p, seq in ((m.bilstm.forward, xs), (m.bilstm.backward, xs[::-1]))]
    a1 = core.elu(core.linear(m.fc1, np.concatenate(last)))
    return core.linear(m.fc2, a1)


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
    w_x = kron_weights(p.w_x)
    if x.shape != w_x.shape[1:] or h.shape != (p.hidden_dim,) or c.shape != (p.hidden_dim,):
        raise ValueError("lstm_cell: state/input shapes do not match parameters")
    hidden = p.hidden_dim
    z = w_x @ x + p.w_h @ h + p.bias
    i = sigmoid_vec(z[:hidden])
    f = sigmoid_vec(z[hidden:2 * hidden])
    g = np.tanh(z[2 * hidden:3 * hidden])
    o = sigmoid_vec(z[3 * hidden:])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def random_bilstm(rng, dim, hidden, blocks=1):
    """A randomly initialised Bi-LSTM over blocks input blocks of width dim,
    cut from a network's flat vector."""
    dims = (blocks, dim, hidden, 1, 1)
    return bilstm_mlp.Weights.over(bilstm_mlp.draw(dims, rng), dims).bilstm


def bilstm_outputs(cache):
    """Per-timestep outputs (T, 2H) of a one-sequence run: concat of both
    directions' states at each original position."""
    hs = np.concatenate([out[0][1:, 0] for _, _, out in cache.runs], axis=1)  # (T, 2, H)
    return np.concatenate([hs[:, 0], hs[::-1, 1]], axis=1)


def bilstm_forward(m, seq):
    """Sequence of per-timestep output vectors, each of length 2*hidden."""
    seq = np.asarray(seq, dtype=np.float64)
    return list(bilstm_outputs(core.bilstm_run(m, seq, (len(seq),), emotion_model.ONE_BLOCK)))


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


def forward_emotion(m, tokens, train=False, rng=None):
    """Log-probabilities over the 8 emotions for one tokenized review: the
    batched classifier's one-review call, or in train mode one forward
    pass with a dropout mask drawn from rng."""
    if not train:
        return emotion_model.classify(m, [m.table.indices(tokens)])[0]
    rows = m.table.rows(tokens)
    logits = bilstm_mlp.forward(m, rows, (len(rows),), emotion_model.ONE_BLOCK, train, rng).logits
    return core.log_softmax(logits[0])


def predict_label(m, tokens):
    log_probs = forward_emotion(m, tokens, train=False)
    return m.labels[int(np.argmax(log_probs))]


def emotion_accuracy(model, examples):
    return sum(predict_label(model, ex.tokens) == ex.label for ex in examples)


def score_clause(m, tokens, probs):
    """Cause score of one clause: the batched scorer's one-clause call
    (OovError when no token is known)."""
    index = m.table.indices(tokens)
    if not index:
        raise OovError("every token is out of vocabulary")
    return float(cause_model.score(m, [index], [probs])[0])


def select_cause_clause(m, clauses, probs):
    """(index of the cause clause, per-clause scores) of one review's
    clauses, as inference picks it: one batched call over the distinct
    scorable clauses. OovError when no clause can be scored."""
    slots, distinct = pipeline.distinct_clauses(clauses, m.table)
    if not distinct:
        raise OovError("no clause has an in-vocabulary token")
    return pipeline.choose(slots, cause_model.score(m, distinct, [probs] * len(distinct)))


def infer_review(record, sentences, emo, causes):
    """Inference over a one-review corpus: the review's ReviewInference, or
    ReviewSkipped with its reason."""
    results, skipped = pipeline.infer_corpus([record], sentences, emo, causes)
    if not results:
        raise pipeline.ReviewSkipped(next(r for r, n in skipped.items() if n))
    return results[0][1]


def cause_accuracy(model, examples):
    return sum((score_clause(model, ex.tokens, ex.probs) >= 0.5)
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


@st.composite
def mutated_container(draw, data: bytes) -> bytes:
    """data, the bytes of an ECPE1 container, after one to three mutations:
    a byte flipped, the end cut off, bytes appended, or the descriptor
    count (the u32 after the magic) replaced."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["flip", "truncate", "append", "count"]))
        if how == "flip" and out:
            out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
        elif how == "truncate" and out:
            del out[draw(st.integers(0, len(out) - 1)):]
        elif how == "append":
            out += draw(st.binary(min_size=1, max_size=24))
        elif how == "count" and len(out) >= 9:
            count = draw(st.one_of(st.integers(0, 16), st.integers(0, 2**32 - 1)))
            out[5:9] = struct.pack("<I", count)
    return bytes(out)


# Unicode digits and whitespace that str.isdigit, int(), float() or
# str.split treat unlike their ASCII look-alikes
ODD_CHARACTERS = ("\u00b2", "\u0663", "\u2460", "\uff11", "\u00a0", "\u2028", "\u3000",
                  "\x1c", "\x85", "\x0b", "\t", "\n")
HUGE_NUMBERS = ("9" * 5000, "1e999", "-1e-999", "nan", "inf", "1_0", "0x1p-2", "4" * 400 + ".5")


@st.composite
def mutated_lines(draw, data: bytes) -> bytes:
    """data, the bytes of a line-oriented text file, after one to three
    mutations: a byte flipped, the end cut off, a line repeated, an odd
    Unicode digit or whitespace character inserted, or a huge or
    unusual number inserted. An insertion may split a multibyte
    character, so the result need not be UTF-8."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["flip", "truncate", "repeat", "odd", "number"]))
        at = draw(st.integers(0, len(out)))
        if how == "flip" and out:
            out[min(at, len(out) - 1)] ^= draw(st.integers(1, 255))
        elif how == "truncate":
            del out[at:]
        elif how == "repeat" and out:
            lines = bytes(out).splitlines(keepends=True)
            line = draw(st.sampled_from(lines))
            k = draw(st.integers(0, len(lines)))
            out = bytearray(b"".join(lines[:k] + [line] * draw(st.integers(1, 3)) + lines[k:]))
        elif how in ("odd", "number"):
            pool = ODD_CHARACTERS if how == "odd" else HUGE_NUMBERS
            out[at:at] = draw(st.sampled_from(pool)).encode("utf-8")
    return bytes(out)
