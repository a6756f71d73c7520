import numpy as np
import pytest

from emocause import bilstm_mlp, cause_model
from emocause.embeddings import EmbeddingTable
from emocause.errors import OovError

from conftest import random_table
from helpers import cause_accuracy, kron_scaled_inputs, separable_cause_setup


def uniform_probs():
    return np.full(8, 0.125)


class TestEmotionScaledInputs:
    def test_one_hot_isolates_block(self, rng):
        table = random_table(rng, 3, 4)
        probs = cause_model.one_hot_probs("disgust")  # index 2
        xs = cause_model.emotion_scaled_inputs(("w1",), probs, table)
        assert xs.shape == (1, 32)
        v = table["w1"]
        assert np.array_equal(xs[0, 8:12], v)
        mask = np.ones(32, dtype=bool)
        mask[8:12] = False
        assert not np.any(xs[0, mask])

    def test_uniform_gives_equal_blocks(self, rng):
        table = random_table(rng, 3, 4)
        xs = cause_model.emotion_scaled_inputs(("w0",), uniform_probs(), table)
        v = table["w0"]
        for k in range(8):
            assert np.allclose(xs[0, 4 * k:4 * (k + 1)], v / 8.0, atol=1e-12)

    def test_hand_values(self):
        table = EmbeddingTable(["w"], [[1.0, 2.0]])
        probs = np.array([0.6, 0.4, 0, 0, 0, 0, 0, 0], dtype=float)
        xs = cause_model.emotion_scaled_inputs(("w",), probs, table)
        expected = [0.6, 1.2, 0.4, 0.8] + [0.0] * 12
        assert np.allclose(xs[0], expected, atol=1e-12)

    def test_blocks_sum_to_vector(self, rng):
        table = random_table(rng, 4, 5)
        probs = rng.random(8)
        probs /= probs.sum()
        xs = cause_model.emotion_scaled_inputs(("w2", "w3"), probs, table)
        for t, word in enumerate(("w2", "w3")):
            blocks = xs[t].reshape(8, 5)
            assert np.allclose(blocks.sum(axis=0), table[word], atol=1e-9)

    @pytest.mark.parametrize("kind", ["one_hot", "uniform", "random"])
    @pytest.mark.parametrize("dim", [1, 4, 16, 300])
    def test_byte_equal_to_per_token_kron(self, kind, dim):
        rng = np.random.default_rng(dim)
        table = random_table(rng, 6, dim)
        probs = {"one_hot": cause_model.one_hot_probs("fear"),
                 "uniform": uniform_probs(),
                 "random": rng.dirichlet(np.ones(8))}[kind]
        tokens = tuple(rng.choice(["w0", "w1", "w2", "w3", "w4", "w5", "zz", "yy"], size=12))
        xs = cause_model.emotion_scaled_inputs(tokens, probs, table)
        expected = kron_scaled_inputs(tokens, probs, table)
        assert xs.shape == expected.shape and xs.dtype == expected.dtype
        assert xs.tobytes() == expected.tobytes()

    def test_all_oov(self, rng):
        table = random_table(rng, 2, 3)
        with pytest.raises(OovError):
            cause_model.emotion_scaled_inputs(("zz",), uniform_probs(), table)

    def test_invalid_probs(self, rng):
        table = random_table(rng, 2, 3)
        with pytest.raises(ValueError, match="distribution"):
            cause_model.emotion_scaled_inputs(("w0",), np.full(8, 0.2), table)


class TestScoreClause:
    def test_in_unit_interval_and_deterministic(self, rng):
        table = random_table(rng, 5, 4)
        m = cause_model.CauseScorer.init(table, rng, hidden=4, mid=5)
        for _ in range(10):
            tokens = tuple(f"w{int(i)}" for i in rng.integers(5, size=3))
            a = cause_model.score_clause(m, tokens, uniform_probs())
            b = cause_model.score_clause(m, tokens, uniform_probs())
            assert 0.0 < a < 1.0
            assert a == b


def marker_sensitive_scorer(table):
    """Hand-set weights, written into the views of a zero-initialised model
    with one hidden unit: the forward cell gate watches input dim 0, i/f/o
    gates are saturated open, the backward direction is shut, and the head
    maps tanh-accumulated marker counts to ~0.9 vs ~0.2."""
    m = cause_model.CauseScorer.init(table, np.random.default_rng(0), hidden=1, mid=1)
    m.flat[:] = 0.0
    m.bilstm.forward.w_x[2, 0] = 10.0
    m.bilstm.forward.bias[:] = [20.0, 20.0, 0.0, 20.0]
    m.bilstm.backward.bias[:] = [-20.0, 0.0, 0.0, 0.0]
    m.fc1.weight[0, 0] = 1.0
    h_marker = np.tanh(1.0)
    b = np.log(0.2 / 0.8)
    m.fc2.weight[0, 0] = (np.log(0.9 / 0.1) - b) / h_marker
    m.fc2.bias[0] = b
    return m


def clause_like(words):
    """A minimal Clause stand-in: select_cause_clause only reads .words."""
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
        idx, scores = cause_model.select_cause_clause(
            m, [clause_like(("plain",))], self.probs_first())
        assert idx == 0 and len(scores) == 1 and 0.0 < scores[0] < 1.0

    def test_constructed_scores_pick_marker_clause(self):
        m = marker_sensitive_scorer(self.single_marker_table())
        clauses = [clause_like(("marker", "plain")), clause_like(("plain", "other"))]
        hi = cause_model.score_clause(m, clauses[0].words, self.probs_first())
        lo = cause_model.score_clause(m, clauses[1].words, self.probs_first())
        assert hi > 0.8 and lo < 0.25
        idx, scores = cause_model.select_cause_clause(m, clauses, self.probs_first())
        assert idx == 0 and scores == [hi, lo]

    def test_marker_clause_second(self):
        m = marker_sensitive_scorer(self.single_marker_table())
        clauses = [clause_like(("plain",)), clause_like(("marker",))]
        idx, _ = cause_model.select_cause_clause(m, clauses, self.probs_first())
        assert idx == 1

    def test_tie_breaks_to_lowest_index(self):
        m = marker_sensitive_scorer(self.single_marker_table())
        clauses = [clause_like(("plain", "other")), clause_like(("plain", "other"))]
        idx, _ = cause_model.select_cause_clause(m, clauses, self.probs_first())
        assert idx == 0

    def test_oov_clauses_excluded(self):
        m = marker_sensitive_scorer(self.single_marker_table())
        clauses = [clause_like(("zz",)), clause_like(("marker",))]
        idx, scores = cause_model.select_cause_clause(m, clauses, self.probs_first())
        assert idx == 1 and scores[0] is None

    def test_all_oov_raises(self):
        m = marker_sensitive_scorer(self.single_marker_table())
        with pytest.raises(OovError):
            cause_model.select_cause_clause(
                m, [clause_like(("zz",)), clause_like(("yy",))], self.probs_first())

    def test_empty_clause_list(self):
        m = marker_sensitive_scorer(self.single_marker_table())
        with pytest.raises(OovError):
            cause_model.select_cause_clause(m, [], self.probs_first())


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
        cause_model.save_cause_model(model, path)
        loaded = cause_model.load_cause_model(path, table)
        assert np.array_equal(model.flat, loaded.flat)
        probs = uniform_probs()
        assert (cause_model.score_clause(model, ("w0", "w2"), probs)
                == cause_model.score_clause(loaded, ("w0", "w2"), probs))

    def test_kind_mismatch_rejected(self, rng, tmp_path):
        from emocause import emotion_model
        table = random_table(rng, 4, 3)
        emo = emotion_model.EmotionClassifier.init(table, rng, hidden=4, mid=5)
        path = tmp_path / "emotion.bin"
        emotion_model.save_emotion_model(emo, path)
        with pytest.raises(ValueError, match="not a cause model"):
            cause_model.load_cause_model(path, table)


class TestInvariants:
    def test_reference_default_sizes(self):
        assert cause_model.DEFAULT_HIDDEN == 1024
        assert bilstm_mlp.DEFAULT_MID == 80
        assert cause_model.DEFAULT_EPOCHS == 50
        assert bilstm_mlp.DROPOUT_P == 0.5

    def test_input_dim_is_eight_d(self, rng):
        table = random_table(rng, 3, 7)
        model = cause_model.CauseScorer.init(table, rng, hidden=4)
        assert model.bilstm.input_dim == 56
        assert model.fc2.out_dim == 1
