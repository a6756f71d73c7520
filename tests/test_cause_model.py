import numpy as np
import pytest

from emocause import bilstm_mlp, cause_model, pipeline
from emocause.embeddings import EmbeddingTable
from emocause.errors import OovError
from emocause.nn import core

from conftest import random_table
from helpers import (cause_accuracy, interleaved_lstm_backward_seq, kron_logits,
                     kron_scaled_inputs, kron_weights, reference_lstm_forward_seq, score_clause,
                     select_cause_clause, separable_cause_setup)


def uniform_probs():
    return np.full(8, 0.125)


def dyadic_probs(kind, rng):
    """Probabilities that are exact multiples of 1/64."""
    if kind == "one_hot":
        return cause_model.one_hot_probs("fear")
    if kind == "uniform":
        return uniform_probs()
    return np.bincount(rng.integers(8, size=64), minlength=8) / 64.0


class TestEmotionScaledInputs:
    """The factored cause input: each direction projects a word vector v
    through W_eff = sum_k p_k W_x^(k) rather than W_x through kron(p, v)."""

    def blocks(self, rng, hidden, dim):
        w_blocks = rng.normal(size=(8, 4 * hidden, dim))
        return kron_weights(w_blocks), w_blocks

    def effective(self, w_blocks, probs):
        return core.effective_weights(w_blocks, list(probs))

    def test_one_hot_isolates_block(self, rng):
        w_x, w_blocks = self.blocks(rng, 2, 4)
        probs = cause_model.one_hot_probs("disgust")  # index 2
        w_eff = self.effective(w_blocks, probs)
        assert w_eff.shape == (8, 4)
        assert np.array_equal(w_eff, w_x[:, 8:12])

    def test_uniform_gives_equal_blocks(self, rng):
        # equal blocks give that block back: the weights sum to one
        block = rng.normal(size=(8, 4))
        w_blocks = np.repeat(block[None], 8, axis=0)
        assert np.allclose(self.effective(w_blocks, uniform_probs()), block, atol=1e-12)

    def test_hand_values(self):
        w_blocks = np.zeros((8, 4, 2))  # blocks of a d = 2 input
        w_blocks[0], w_blocks[1] = [[1.0, 2.0]] * 4, [[3.0, 4.0]] * 4
        probs = np.array([0.6, 0.4, 0, 0, 0, 0, 0, 0], dtype=float)
        w_eff = self.effective(w_blocks, probs)
        assert np.allclose(w_eff, [[0.6 * 1 + 0.4 * 3, 0.6 * 2 + 0.4 * 4]] * 4, atol=1e-12)

    def test_blocks_sum_to_vector(self, rng):
        # the projection of v equals W_x kron(p, v), the paper's input
        table = random_table(rng, 4, 5)
        w_x, w_blocks = self.blocks(rng, 3, 5)
        probs = rng.dirichlet(np.ones(8))
        w_eff = self.effective(w_blocks, probs)
        for word in ("w2", "w3"):
            assert np.allclose(w_eff @ table[word], w_x @ np.kron(probs, table[word]),
                               rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["one_hot", "uniform", "random"])
    @pytest.mark.parametrize("dim", [1, 4, 16, 300])
    def test_byte_equal_to_per_token_kron(self, kind, dim):
        # with every product exact (small integers, multiples of 1/64 and of
        # 1/16), any summation order gives the same bytes, so the factored
        # projection must equal the kron path exactly
        rng = np.random.default_rng(dim)
        table = EmbeddingTable([f"w{i}" for i in range(6)],
                               rng.integers(1, 5, size=(6, dim)) * rng.choice([-1.0, 1.0], size=(6, dim)))
        w_blocks = rng.integers(-16, 17, size=(8, 12, dim)) / 16.0
        probs = dyadic_probs(kind, rng)
        tokens = tuple(rng.choice(["w0", "w1", "w2", "w3", "w4", "w5", "zz", "yy"], size=12))
        rows = table.rows(tokens)
        projected = rows @ self.effective(w_blocks, probs).T
        expected = kron_scaled_inputs(tokens, probs, table) @ kron_weights(w_blocks).T
        assert projected.shape == expected.shape and projected.dtype == expected.dtype
        assert projected.tobytes() == expected.tobytes()

    def test_all_oov(self, rng):
        # an all-OOV clause gets no timesteps and no score
        table = random_table(rng, 2, 3)
        slots, distinct = pipeline.distinct_clauses([clause_like(("zz",)), clause_like(("w0",))],
                                                    table)
        assert slots == [None, 0] and distinct == [(0,)]
        with pytest.raises(OovError):
            table.rows(("zz",))

    def test_invalid_probs(self, rng):
        table = random_table(rng, 2, 3)
        m = cause_model.CauseScorer.init(table, rng, hidden=2, mid=3)
        with pytest.raises(ValueError, match="distribution"):
            cause_model.score(m, [(0,)], [np.full(8, 0.2)])


class TestFactoredModel:
    """The scorer against the paper's form: the reference kernel over the
    (T, 8d) Kronecker input with the full input weights."""

    @pytest.mark.parametrize("kind", ["one_hot", "random"])
    def test_logits_agree_with_kron_path(self, rng, kind):
        table = random_table(rng, 6, 5)
        m = cause_model.CauseScorer.init(table, rng, hidden=4, mid=5)
        tokens = [("w0", "w3", "w1"), ("w5",), ("w2", "w2", "w4", "w0")]
        probs = [rng.dirichlet(np.ones(8)) if kind == "random" else cause_model.one_hot_probs(e)
                 for e in ("joy", "fear", "joy")]
        logits = bilstm_mlp.logits(m, [table.indices(t) for t in tokens], probs)
        for row, t, p in zip(logits, tokens, probs):
            assert np.allclose(row, kron_logits(m, t, p), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("kind", ["one_hot", "random"])
    def test_gradient_agrees_with_kron_path(self, rng, kind):
        # the oracle runs the one-sequence forward and the interleaved
        # backward kernel (tests/helpers.py) on the kron input as one 8d-wide
        # block
        table = random_table(rng, 6, 5)
        m = cause_model.CauseScorer.init(table, rng, hidden=4, mid=5)
        probs = rng.dirichlet(np.ones(8)) if kind == "random" else cause_model.one_hot_probs("trust")
        tokens = ("w1", "w4", "w2")
        grad = m.zeros_like()
        bilstm_mlp.loss_and_grads(m, table.rows(tokens), probs[None, :], 1, False, None, grad)
        # d(loss)/d(last output) through the head, as bilstm_mlp.backward has it
        prob = core.sigmoid(float(kron_logits(m, tokens, probs)[0]))
        z1 = core.linear(m.fc1, np.concatenate(
            [reference_lstm_forward_seq(kron_weights(p.w_x), p.w_h, p.bias, xs)[0][-1]
             for p, xs in ((m.bilstm.forward, kron_scaled_inputs(tokens, probs, table)),
                           (m.bilstm.backward, kron_scaled_inputs(tokens[::-1], probs, table)))]))
        d_last = m.fc1.weight.T @ ((m.fc2.weight[0] * (prob - 1)) * core.elu_grad(z1))
        for p, g, words, d in ((m.bilstm.forward, grad.bilstm.forward, tokens, d_last[:4]),
                               (m.bilstm.backward, grad.bilstm.backward, tokens[::-1], d_last[4:])):
            xs = kron_scaled_inputs(words, probs, table)
            d_h_out = np.zeros((3, 4))
            d_h_out[-1] = d
            w_x = kron_weights(p.w_x)
            expected = [np.zeros((1,) + w_x.shape), np.zeros_like(p.w_h), np.zeros_like(p.bias)]
            run = reference_lstm_forward_seq(w_x, p.w_h, p.bias, xs)
            interleaved_lstm_backward_seq(p.w_h[None], xs[None], *(a[:, None] for a in run),
                                          d_h_out[:, None], *([a] for a in expected), (1.0,))
            for got, want in zip((kron_weights(g.w_x), g.w_h, g.bias),
                                 (expected[0][0],) + tuple(expected[1:])):
                assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_one_hot_leaves_other_blocks_as_found(self, rng):
        # the step adds into the vector it is given (in training, the
        # velocity); a zero-weight block is not touched
        table = random_table(rng, 6, 5)
        m = cause_model.CauseScorer.init(table, rng, hidden=4, mid=5)
        grad, found = m.zeros_like(), m.zeros_like()
        grad.flat[:] = rng.normal(size=grad.flat.size)
        found.flat[:] = grad.flat
        probs = cause_model.one_hot_probs("sadness")  # index 5
        bilstm_mlp.loss_and_grads(m, table.rows(("w0", "w1")), probs[None, :], 0,
                                  True, np.random.default_rng(1), grad)
        for g, f in ((grad.bilstm.forward, found.bilstm.forward),
                     (grad.bilstm.backward, found.bilstm.backward)):
            blocks, before = g.w_x, f.w_x
            assert np.all(np.isfinite(blocks[5])) and np.any(blocks[5] != before[5])
            assert np.delete(blocks, 5, axis=0).tobytes() == np.delete(before, 5, axis=0).tobytes()

    def test_trainer_holds_d_wide_inputs(self, monkeypatch):
        table, examples = separable_cause_setup(dim=10)
        held = []
        real = bilstm_mlp.loss_and_grads

        def spy(m, rows, weights, *args):
            held.append((rows.shape[-1], weights.shape))
            return real(m, rows, weights, *args)

        monkeypatch.setattr(bilstm_mlp, "loss_and_grads", spy)
        cause_model.train_cause(examples, table, np.random.default_rng(0), epochs=1, hidden=4)
        assert held and set(held) == {(10, (1, 8))}


class TestScoreClause:
    def test_in_unit_interval_and_deterministic(self, rng):
        table = random_table(rng, 5, 4)
        m = cause_model.CauseScorer.init(table, rng, hidden=4, mid=5)
        for _ in range(10):
            tokens = tuple(f"w{int(i)}" for i in rng.integers(5, size=3))
            a = score_clause(m, tokens, uniform_probs())
            b = score_clause(m, tokens, uniform_probs())
            assert 0.0 < a < 1.0
            assert a == b


def marker_sensitive_scorer(table):
    """Hand-set weights, written into the views of a zero-initialised model
    with one hidden unit: the forward cell gate watches input dim 0, i/f/o
    gates are saturated open, the backward direction is shut, and the head
    maps tanh-accumulated marker counts to ~0.9 vs ~0.2."""
    m = cause_model.CauseScorer.init(table, np.random.default_rng(0), hidden=1, mid=1)
    m.flat[:] = 0.0
    m.bilstm.forward.w_x[0, 2, 0] = 10.0
    m.bilstm.forward.bias[:] = [20.0, 20.0, 0.0, 20.0]
    m.bilstm.backward.bias[:] = [-20.0, 0.0, 0.0, 0.0]
    m.fc1.weight[0, 0] = 1.0
    h_marker = np.tanh(1.0)
    b = np.log(0.2 / 0.8)
    m.fc2.weight[0, 0] = (np.log(0.9 / 0.1) - b) / h_marker
    m.fc2.bias[0] = b
    return m


def clause_like(words):
    """A minimal Clause stand-in: distinct_clauses only reads .words."""
    class _C:
        def __init__(self, words):
            self.words = tuple(words)
    return _C(words)


class TestSelectCauseClause:
    def single_marker_table(self):
        # word "marker" carries dim0 = 1, everything else dim0 = 0
        return EmbeddingTable(["marker", "plain", "other"],
                              [[1.0, 0.5], [0.0, 1.0], [0.0, -0.7]])

    def probs_first(self):
        return cause_model.one_hot_probs("anger")  # block 0 keeps dim 0 alive

    def test_single_clause(self):
        m = marker_sensitive_scorer(self.single_marker_table())
        idx, scores = select_cause_clause(
            m, [clause_like(("plain",))], self.probs_first())
        assert idx == 0 and len(scores) == 1 and 0.0 < scores[0] < 1.0

    def test_constructed_scores_pick_marker_clause(self):
        m = marker_sensitive_scorer(self.single_marker_table())
        clauses = [clause_like(("marker", "plain")), clause_like(("plain", "other"))]
        # the same batched call select makes: both clauses, one after the other
        hi, lo = cause_model.score(m, [m.table.indices(c.words) for c in clauses],
                                   [self.probs_first()] * 2)
        assert hi > 0.8 and lo < 0.25
        idx, scores = select_cause_clause(m, clauses, self.probs_first())
        assert idx == 0 and scores == [hi, lo]

    def test_marker_clause_second(self):
        m = marker_sensitive_scorer(self.single_marker_table())
        clauses = [clause_like(("plain",)), clause_like(("marker",))]
        idx, _ = select_cause_clause(m, clauses, self.probs_first())
        assert idx == 1

    def test_tie_breaks_to_lowest_index(self):
        m = marker_sensitive_scorer(self.single_marker_table())
        clauses = [clause_like(("plain", "other")), clause_like(("plain", "other"))]
        idx, _ = select_cause_clause(m, clauses, self.probs_first())
        assert idx == 0

    def test_oov_clauses_excluded(self):
        m = marker_sensitive_scorer(self.single_marker_table())
        clauses = [clause_like(("zz",)), clause_like(("marker",))]
        idx, scores = select_cause_clause(m, clauses, self.probs_first())
        assert idx == 1 and scores[0] is None

    def test_all_oov_raises(self):
        m = marker_sensitive_scorer(self.single_marker_table())
        with pytest.raises(OovError):
            select_cause_clause(
                m, [clause_like(("zz",)), clause_like(("yy",))], self.probs_first())

    def test_empty_clause_list(self):
        m = marker_sensitive_scorer(self.single_marker_table())
        with pytest.raises(OovError):
            select_cause_clause(m, [], self.probs_first())


class TestTrainCause:
    def test_overfits_marked_clauses(self):
        table, examples = separable_cause_setup()
        model, trace = cause_model.train_cause(
            examples, table, np.random.default_rng(42), epochs=50, hidden=32)
        assert cause_accuracy(model, examples) == 10
        assert trace[-1] < trace[0]

    def test_bit_identical_across_runs(self):
        table, examples = separable_cause_setup()
        runs = []
        for _ in range(2):
            model, trace = cause_model.train_cause(
                examples, table, np.random.default_rng(3), epochs=2, hidden=8)
            runs.append((model.flat, trace))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_single_label_data_warns_but_trains(self, rng, caplog):
        table = random_table(rng, 4, 5)
        probs = uniform_probs()
        examples = [cause_model.CauseTrainExample((f"w{i}",), probs, 1)
                    for i in range(3)]
        with caplog.at_level("WARNING"):
            model, trace = cause_model.train_cause(
                examples, table, np.random.default_rng(0), epochs=1, hidden=4)
        assert "only label" in caplog.text
        assert len(trace) == 1


class TestExampleValidation:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="distribution"):
            cause_model.CauseTrainExample(("a",), np.full(8, 0.5), 1)

    def test_label_must_be_binary(self):
        with pytest.raises(ValueError, match="label"):
            cause_model.CauseTrainExample(("a",), uniform_probs(), 2)


class TestSerialization:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        table = random_table(rng, 4, 3)
        model = cause_model.CauseScorer.init(table, rng, hidden=4, mid=5)
        path = tmp_path / "cause.bin"
        bilstm_mlp.save(model, path)
        loaded = bilstm_mlp.load(cause_model.CauseScorer, path, table)
        assert np.array_equal(model.flat, loaded.flat)
        probs = uniform_probs()
        assert (score_clause(model, ("w0", "w2"), probs)
                == score_clause(loaded, ("w0", "w2"), probs))

    def test_kind_mismatch_rejected(self, rng, tmp_path):
        from emocause import emotion_model
        table = random_table(rng, 4, 3)
        emo = emotion_model.EmotionClassifier.init(table, rng, hidden=4, mid=5)
        path = tmp_path / "emotion.bin"
        bilstm_mlp.save(emo, path)
        with pytest.raises(ValueError, match="not a cause model"):
            bilstm_mlp.load(cause_model.CauseScorer, path, table)


class TestInvariants:
    def test_reference_default_sizes(self):
        assert cause_model.DEFAULT_HIDDEN == 1024
        assert bilstm_mlp.DEFAULT_MID == 80
        assert cause_model.DEFAULT_EPOCHS == 50
        assert bilstm_mlp.DROPOUT_P == 0.5

    def test_input_dim_is_eight_d(self, rng):
        table = random_table(rng, 3, 7)
        model = cause_model.CauseScorer.init(table, rng, hidden=4)
        assert kron_weights(model.bilstm.forward.w_x).shape == (16, 56)
        assert model.fc2.out_dim == 1
