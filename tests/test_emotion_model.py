import numpy as np
import pytest

from emocause import bilstm_mlp, emotion_model
from emocause.embeddings import EMOTIONS, EmbeddingTable
from emocause.nn import core
from emocause.nn.serialize import KIND_EMOTION, MAGIC, save_container

from conftest import random_table
from helpers import emotion_accuracy, predict_label, separable_emotion_setup


@pytest.fixture
def toy_model(rng):
    table = random_table(rng, 6, 5)
    return emotion_model.EmotionClassifier.init(table, rng, hidden=4, mid=5)


class TestForward:
    def test_output_shape_and_distribution(self, toy_model):
        log_probs = emotion_model.forward_emotion(toy_model, ("w0", "w3"))
        assert log_probs.shape == (8,)
        probs = np.exp(log_probs)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs > 0)

    def test_eval_mode_deterministic(self, toy_model):
        a = emotion_model.forward_emotion(toy_model, ("w1", "w2", "w5"))
        b = emotion_model.forward_emotion(toy_model, ("w1", "w2", "w5"))
        assert np.array_equal(a, b)

    def test_train_mode_needs_rng(self, toy_model):
        with pytest.raises(ValueError, match="rng"):
            emotion_model.forward_emotion(toy_model, ("w0",), train=True)

    def test_argmax_stable_across_calls(self, toy_model):
        labels = {predict_label(toy_model, ("w0", "w1"))
                  for _ in range(5)}
        assert len(labels) == 1


def probs_with_logits(model, logits):
    """exp(forward_emotion), the probabilities inference reads, with the
    output layer set so that every review gets the given logits."""
    model.fc2.weight[...] = 0.0
    model.fc2.bias[...] = logits
    return np.exp(emotion_model.forward_emotion(model, ("w0", "w3")))


class TestEmotionProbs:
    def test_uniform(self, toy_model):
        probs = probs_with_logits(toy_model, 0.0)
        assert np.allclose(probs, 0.125, atol=1e-12)

    def test_exp_log_identity(self, toy_model, rng):
        p = rng.random(8)
        p /= p.sum()
        assert np.allclose(probs_with_logits(toy_model, np.log(p)), p, atol=1e-12)

    def test_matches_hand_exp(self, toy_model, rng):
        logits = rng.normal(size=8)
        assert np.allclose(probs_with_logits(toy_model, logits),
                           np.exp(logits) / np.exp(logits).sum(), atol=1e-12)


class TestTrainEmotion:
    def test_overfits_separable_examples(self):
        table, examples = separable_emotion_setup()
        model, trace = emotion_model.train_emotion(
            examples, table, np.random.default_rng(42), epochs=100, hidden=32)
        assert emotion_accuracy(model, examples) == 10
        assert trace[-1] < trace[0]

    def test_bit_identical_across_runs(self):
        table, examples = separable_emotion_setup()
        runs = []
        for _ in range(2):
            model, trace = emotion_model.train_emotion(
                examples, table, np.random.default_rng(7), epochs=3, hidden=8)
            runs.append((model.flat, trace))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_oov_examples_skipped_with_warning(self, rng, caplog):
        table = random_table(rng, 4, 6)
        examples = [
            emotion_model.EmotionTrainExample(("w0", "w1"), "joy"),
            emotion_model.EmotionTrainExample(("zz",), "fear"),
        ]
        with caplog.at_level("WARNING"):
            model, trace = emotion_model.train_emotion(
                examples, table, np.random.default_rng(0), epochs=1, hidden=4)
        assert "skipped 1 of 2" in caplog.text
        assert len(trace) == 1

    def test_empty_examples_rejected(self, rng):
        table = random_table(rng, 3, 4)
        with pytest.raises(ValueError):
            emotion_model.train_emotion([], table, np.random.default_rng(0))

    def test_non_finite_loss_names_the_epoch(self, monkeypatch):
        table, examples = separable_emotion_setup()
        real = emotion_model.loss_and_grads
        steps = []

        def nan_in_epoch_two(*args, **kwargs):
            loss = real(*args, **kwargs)
            steps.append(loss)
            return float("nan") if len(steps) > len(examples) else loss

        monkeypatch.setattr(emotion_model, "loss_and_grads", nan_in_epoch_two)
        with pytest.raises(ValueError, match="epoch 2"):
            emotion_model.train_emotion(examples, table, np.random.default_rng(0),
                                        epochs=3, hidden=4)
        assert len(steps) == 2 * len(examples)


class TestLossDecreaseProperty:
    def test_five_steps_decrease_for_95_percent_of_seeds(self):
        rng0 = np.random.default_rng(5)
        table = EmbeddingTable([f"w{i}" for i in range(6)],
                               rng0.normal(size=(6, 6)))
        xs = table.rows(("w0", "w3", "w5"))
        ok = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = emotion_model.EmotionClassifier.init(table, rng, hidden=4, mid=5)
            cfg = core.SgdConfig()  # lr 0.003, momentum 0.9
            grad = m.zeros_like()
            losses = [emotion_model.loss_and_grads(m, xs, 2, False, None, grad)]
            for _ in range(5):
                emotion_model.loss_and_grads(m, xs, 2, True, rng, grad)
                core.sgd_step(cfg, m.flat, grad.flat)
                losses.append(emotion_model.loss_and_grads(m, xs, 2, False, None, grad))
            ok += all(b < a for a, b in zip(losses, losses[1:]))
        assert ok >= 19


class TestSerialization:
    def test_round_trip_bit_exact(self, toy_model, tmp_path):
        path = tmp_path / "emotion.bin"
        emotion_model.save_emotion_model(toy_model, path)
        loaded = emotion_model.load_emotion_model(path, toy_model.table)
        assert np.array_equal(toy_model.flat, loaded.flat)
        out_a = emotion_model.forward_emotion(toy_model, ("w0", "w1"))
        out_b = emotion_model.forward_emotion(loaded, ("w0", "w1"))
        assert np.array_equal(out_a, out_b)

    def test_bad_magic_rejected(self, toy_model, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            emotion_model.load_emotion_model(path, toy_model.table)

    def test_failed_write_keeps_earlier_file(self, toy_model, tmp_path):
        path = tmp_path / "emotion.bin"
        emotion_model.save_emotion_model(toy_model, path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            # the header is written, then the payload cannot be converted
            save_container(path, [KIND_EMOTION], np.array(["oops"]))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["emotion.bin"]

    @pytest.mark.parametrize("damage,message", [
        (lambda blob: blob[:len(blob) // 2], "payload"),
        (lambda blob: blob[:-8], "payload holds"),
        (lambda blob: blob + b"\x00", "not a whole number of f64 values"),
        # magic, the u32 count, then one and a half of the five descriptor values
        (lambda blob: blob[:len(MAGIC) + 4 + 6], "truncated descriptor"),
    ], ids=["half-length", "one-value-short", "trailing-byte", "cut-in-descriptor"])
    def test_damaged_file_rejected(self, toy_model, tmp_path, damage, message):
        path = tmp_path / "emotion.bin"
        emotion_model.save_emotion_model(toy_model, path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=message):
            emotion_model.load_emotion_model(path, toy_model.table)


class TestInvariants:
    def test_fixed_widths(self, rng):
        table = random_table(rng, 4, 7)
        model = emotion_model.EmotionClassifier.init(table, rng, hidden=6)
        assert model.fc2.out_dim == 8
        assert model.fc1.in_dim == 12
        assert model.labels == EMOTIONS

    def test_reference_default_sizes(self):
        assert emotion_model.DEFAULT_HIDDEN == 256
        assert bilstm_mlp.DEFAULT_MID == 80
        assert emotion_model.DEFAULT_EPOCHS == 100
        assert bilstm_mlp.DROPOUT_P == 0.5
