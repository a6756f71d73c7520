import tracemalloc

import numpy as np
import pytest

from emocause import bilstm_mlp, cause_model, emotion_model
from emocause.errors import DataError
from emocause.nn import core, serialize

from conftest import random_table
from helpers import score_clause, separable_cause_setup, separable_emotion_setup

KINDS = {"emotion": emotion_model.EmotionClassifier, "cause": cause_model.CauseScorer}


def fields(m):
    """Every array the kernels read, as (name, array)."""
    return [(f"bilstm.{d}.{n}", getattr(getattr(m.bilstm, d), n))
            for d in ("forward", "backward") for n in ("w_x", "w_h", "bias")] + \
           [(f"{layer}.{n}", getattr(getattr(m, layer), n))
            for layer in ("fc1", "fc2") for n in ("weight", "bias")]


def assert_views_of(m, flat):
    arrays = fields(m)
    for name, a in arrays:
        assert np.shares_memory(a, flat), name
    # the ten tensors tile the vector: no gap, no overlap
    assert sum(a.size for _, a in arrays) == flat.size


@pytest.fixture(params=sorted(KINDS))
def model_cls(request):
    return KINDS[request.param]


class TestFlatVector:
    def test_fields_are_views_of_the_flat_vector(self, model_cls, rng):
        m = model_cls.init(random_table(rng, 5, 3), rng, hidden=4, mid=5)
        assert_views_of(m, m.flat)
        before = (m.bilstm.forward.w_x.copy(), m.fc2.bias.copy())
        core.sgd_step(core.SgdConfig(learning_rate=1.0, momentum=0.0),
                      m.flat, np.ones_like(m.flat))
        assert np.array_equal(m.bilstm.forward.w_x, before[0] - 1.0)
        assert np.array_equal(m.fc2.bias, before[1] - 1.0)

    def test_gradient_is_cut_like_the_parameters(self, model_cls, rng):
        m = model_cls.init(random_table(rng, 5, 3), rng, hidden=4, mid=5)
        grad = m.zeros_like()
        assert_views_of(grad, grad.flat)
        assert not np.shares_memory(grad.flat, m.flat)
        for (name, a), (_, g) in zip(fields(m), fields(grad)):
            assert g.shape == a.shape, name

    def test_init_draws_each_tensor_in_file_order(self, model_cls):
        # per-tensor oracle: w_x, w_h, bias of each direction, then fc1 and
        # fc2 weight and bias, each uniform in +-1/sqrt(fan-in)
        rng = np.random.default_rng(4)
        table = random_table(rng, 5, 3)
        m = model_cls.init(table, np.random.default_rng(11), hidden=4, mid=5)
        d, h, mid, out = model_cls.input_blocks * 3, 4, 5, model_cls.out_width
        oracle = np.random.default_rng(11)
        expected = []
        for shape, fan_in in ([((4 * h, d), d), ((4 * h, h), h), ((4 * h,), h)] * 2
                              + [((mid, 2 * h), 2 * h), ((mid,), 2 * h),
                                 ((out, mid), mid), ((out,), mid)]):
            bound = 1.0 / np.sqrt(fan_in)
            expected.append(oracle.uniform(-bound, bound, size=shape))
        assert np.array_equal(m.flat, np.concatenate([e.ravel() for e in expected]))
        for (name, a), e in zip(fields(m), expected):
            assert np.array_equal(a, e), name


class TestGradientIsAdded:
    """The training step adds its gradient into the vector it is given."""

    def test_adding_twice_gives_twice_adding_once(self, model_cls, rng):
        m = model_cls.init(random_table(rng, 5, 3), rng, hidden=4, mid=5)
        rows = m.table.rows(("w0", "w3", "w1"))
        weights = rng.dirichlet(np.ones(model_cls.input_blocks))[None, :]
        once, twice = m.zeros_like(), m.zeros_like()
        bilstm_mlp.loss_and_grads(m, rows, weights, 0, False, None, once)
        for _ in range(2):
            bilstm_mlp.loss_and_grads(m, rows, weights, 0, False, None, twice)
        assert np.all(np.isfinite(once.flat)) and np.any(once.flat)
        assert twice.flat.tobytes() == (2 * once.flat).tobytes()

    def test_training_holds_one_vector_besides_the_model(self):
        # at d = 64, H = 128 the parameters (5.4 MB) dwarf a step's other
        # arrays; a held gradient vector would put the peak near 3x
        table, examples = separable_cause_setup(dim=64)
        tracemalloc.start()
        try:
            model, _ = cause_model.train_cause(examples, table, np.random.default_rng(0),
                                               epochs=1, hidden=128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * model.flat.nbytes


class TestModelFile:
    def test_save_load_save_is_byte_identical(self, model_cls, rng, tmp_path):
        table = random_table(rng, 5, 3)
        bilstm_mlp.save(model_cls.init(table, rng, hidden=4, mid=5), tmp_path / "a.bin")
        loaded = bilstm_mlp.load(model_cls, tmp_path / "a.bin", table)
        bilstm_mlp.save(loaded, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_loaded_tensors_are_views_of_the_payload(self, model_cls, rng, tmp_path, monkeypatch):
        table = random_table(rng, 5, 3)
        bilstm_mlp.save(model_cls.init(table, rng, hidden=4, mid=5), tmp_path / "m.bin")
        payloads = []

        def recorded(path):
            descriptor, payload = serialize.load_container(path)
            payloads.append(payload)
            return descriptor, payload

        monkeypatch.setattr(bilstm_mlp, "load_container", recorded)
        loaded = bilstm_mlp.load(model_cls, tmp_path / "m.bin", table)
        assert loaded.flat is payloads[0]
        assert_views_of(loaded, loaded.flat)

    def test_non_finite_parameter_rejected(self, model_cls, rng, tmp_path):
        table = random_table(rng, 5, 3)
        m = model_cls.init(table, rng, hidden=4, mid=5)
        m.fc1.weight[0, 0] = np.nan
        bilstm_mlp.save(m, tmp_path / "m.bin")
        with pytest.raises(ValueError, match="non-finite"):
            bilstm_mlp.load(model_cls, tmp_path / "m.bin", table)

    @pytest.mark.parametrize("width", ["hidden", "mid"])
    def test_zero_width_rejected(self, model_cls, width, rng, tmp_path):
        # the payload has the size those widths give, so only a width is wrong
        table = random_table(rng, 5, 3)
        hidden, mid = (0, 5) if width == "hidden" else (4, 0)
        dims = (model_cls.input_blocks * 3, hidden, mid, model_cls.out_width)
        path = tmp_path / "m.bin"
        serialize.save_container(path, [model_cls.kind, 3, hidden, mid, model_cls.out_width],
                                 np.ones(bilstm_mlp.n_values(dims)))
        with pytest.raises(DataError, match=r"m\.bin: hidden and mid widths must be positive"):
            bilstm_mlp.load(model_cls, path, table)


class TestTrainerOwnsItsMomentum:
    """The velocity belongs to a training run; an SgdConfig holds only the
    hyperparameters, so one config can serve any number of runs."""

    def test_runs_sharing_a_config_are_byte_identical(self):
        table, examples = separable_emotion_setup()
        cfg = core.SgdConfig()
        a, _ = emotion_model.train_emotion(examples, table, np.random.default_rng(7),
                                           epochs=3, cfg=cfg, hidden=8)
        b, _ = emotion_model.train_emotion(examples, table, np.random.default_rng(7),
                                           epochs=3, cfg=cfg, hidden=8)
        assert a.flat.tobytes() == b.flat.tobytes()

    def test_one_config_serves_both_models(self):
        cfg = core.SgdConfig()
        table, examples = separable_emotion_setup()
        emotion_model.train_emotion(examples, table, np.random.default_rng(0),
                                    epochs=1, cfg=cfg, hidden=4)
        table, examples = separable_cause_setup()
        _, trace = cause_model.train_cause(examples, table, np.random.default_rng(0),
                                           epochs=1, cfg=cfg, hidden=4)
        assert len(trace) == 1 and np.isfinite(trace[0])


def test_one_gradient_per_training_run_and_none_for_inference(monkeypatch, tmp_path):
    made = []
    real = bilstm_mlp.Weights.zeros_like

    def counted(self):
        made.append(self.flat.size)
        return real(self)

    monkeypatch.setattr(bilstm_mlp.Weights, "zeros_like", counted)
    rng = np.random.default_rng(0)
    table = random_table(rng, 4, 3)
    probs = cause_model.one_hot_probs("joy")
    examples = [cause_model.CauseTrainExample((f"w{i}",), probs, i % 2) for i in range(4)]
    model, _ = cause_model.train_cause(examples, table, rng, epochs=3, hidden=4)
    assert made == [model.flat.size]
    bilstm_mlp.save(model, tmp_path / "m.bin")
    loaded = bilstm_mlp.load(cause_model.CauseScorer, tmp_path / "m.bin", table)
    score_clause(loaded, ("w0", "w1"), probs)
    assert made == [model.flat.size]
