import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocause import bilstm_mlp, cause_model, emotion_model
from emocause.errors import DataError
from emocause.nn import core, kernels, serialize

from conftest import random_table
from helpers import (interleaved_draw, kron_weights, mutated_container, score_clause,
                     separable_cause_setup, separable_emotion_setup)

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
        assert np.array_equal(m.flat, np.concatenate([a.ravel() for _, a in fields(m)]))
        for (name, a), e in zip(fields(m), expected):
            assert np.array_equal(kron_weights(a) if a.ndim == 3 else a, e), name

    # the paper's cause sizes scaled down, the criterion-7 emotion model, a
    # toy cause model, and input weight rows wider than a fill block
    @pytest.mark.parametrize("dims", [(8, 40, 64, 5, 1), (1, 16, 32, 80, 8), (8, 3, 4, 5, 1),
                                      (8, 2100, 1, 1, 1)])
    def test_draw_matches_the_interleaved_stream(self, dims):
        # every (gate row, block, column) of the block-major input weights,
        # and every other tensor, has the interleaved draw's value bit for bit
        flat = bilstm_mlp.draw(dims, np.random.default_rng(3))
        oracle = interleaved_draw(dims, np.random.default_rng(3))
        w = bilstm_mlp.Weights.over(flat, dims)
        assert flat.size == sum(e.size for e in oracle)
        for (name, a), e in zip(fields(w), oracle):
            assert (kron_weights(a) if a.ndim == 3 else a).tobytes() == e.tobytes(), name


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
    def test_payload_order_is_the_documented_one(self, rng, tmp_path):
        # README, "Model file layout": after the 29-byte header come the
        # forward w_x's eight (4H x d) blocks, block j at values
        # [j*4H*d, (j+1)*4H*d), then its w_h and bias; the backward
        # direction's blocks follow at the same stride
        d, h = 3, 4
        m = cause_model.CauseScorer.init(random_table(rng, 5, d), rng, hidden=h, mid=5)
        bilstm_mlp.save(m, tmp_path / "cause.bin")
        payload = np.frombuffer((tmp_path / "cause.bin").read_bytes()[29:], dtype="<f8")
        size = 4 * h * d
        backward = 8 * size + 4 * h * h + 4 * h
        for j, p in enumerate(np.eye(8)):
            # block j is the one a one-hot p_j reads
            for start, w_x in ((0, m.bilstm.forward.w_x), (backward, m.bilstm.backward.w_x)):
                block = core.effective_weights(w_x, list(p))
                assert payload[start + j * size:start + (j + 1) * size].tobytes() == block.tobytes()

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
        dims = (model_cls.input_blocks, 3, hidden, mid, model_cls.out_width)
        path = tmp_path / "m.bin"
        serialize.save_container(path, [model_cls.kind, 3, hidden, mid, model_cls.out_width],
                                 np.ones(bilstm_mlp.n_values(dims)))
        with pytest.raises(DataError, match=r"m\.bin: hidden and mid widths must be positive"):
            bilstm_mlp.load(model_cls, path, table)


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """kind -> (its class, a small valid model file's bytes, the table it
    was saved with, a scratch path)."""
    rng = np.random.default_rng(3)
    table = random_table(rng, 5, 3)
    out = {}
    for kind, cls in KINDS.items():
        path = tmp_path_factory.mktemp("fuzz") / f"{kind}.bin"
        bilstm_mlp.save(cls.init(table, rng, hidden=2, mid=3), path)
        out[kind] = cls, path.read_bytes(), table, path
    return out


# a module-level function: hypothesis refuses a parametrized method, whose
# calls come from more than one instance
@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=100, deadline=1000)
@given(data=st.data())
def test_a_mutated_model_file_loads_or_raises_data_error(model_files, kind, data):
    cls, good, table, path = model_files[kind]
    path.write_bytes(data.draw(mutated_container(good)))
    try:
        bilstm_mlp.load(cls, path, table)
    except DataError:
        pass


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

    def counted(self, *args):
        made.append(self.flat.size)
        return real(self, *args)

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


class PlainMomentum:
    """The oracle for bilstm_mlp.Momentum: the per-step recursion, one
    core.sgd_step over the whole vector each step, with the velocity cut
    like the parameters."""

    def __init__(self, model, cfg):
        self.model, self.cfg = model, cfg
        self.velocity = model.zeros_like()

    def begin_step(self, weights):
        pass

    def end_step(self):
        core.sgd_step(self.cfg, self.model.flat, self.velocity.flat)

    def finish(self):
        pass


# lazy catch-ups sum the idle steps' geometric series in another order than
# the per-step recursion. Bound: no value may move by more than LAZY_RTOL of
# the largest |theta| of its tensor; over 20 seeds of the random-sequence
# test the largest move was 8.2e-16 of it
LAZY_RTOL = 1e-13


def assert_lazy_close(lazy, plain, blocks=range(8)):
    """Every tensor, of the input weights only the given blocks."""
    for (name, a), (_, b) in zip(fields(lazy), fields(plain)):
        if name.endswith("w_x"):
            a, b = (w[list(blocks)] for w in (a, b))
        assert np.max(np.abs(a - b)) <= LAZY_RTOL * np.max(np.abs(b)), name


def cause_examples(emotions, n_words=6, seed=0):
    """One-hot cause examples over random words, example i teacher-forced
    to emotions[i]."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    return [cause_model.CauseTrainExample(
                tuple(words[j] for j in rng.integers(n_words, size=int(rng.integers(1, 5)))),
                cause_model.one_hot_probs(cause_model.EMOTIONS[e]), i % 2)
            for i, e in enumerate(emotions)]


def train_both(monkeypatch, examples, table, epochs=3, hidden=4, train=cause_model.train_cause):
    """(lazy model, plain model): the same seeded run with bilstm_mlp's
    Momentum and with PlainMomentum."""
    lazy, _ = train(examples, table, np.random.default_rng(7), epochs=epochs, hidden=hidden)
    monkeypatch.setattr(bilstm_mlp, "Momentum", PlainMomentum)
    plain, _ = train(examples, table, np.random.default_rng(7), epochs=epochs, hidden=hidden)
    monkeypatch.undo()
    return lazy, plain


class TestLazyMomentum:
    """A training step updates only the input blocks it reads; the others
    are caught up in closed form when next read and before train returns."""

    def test_random_block_sequences_match_the_plain_recursion(self, monkeypatch):
        table = random_table(np.random.default_rng(2), 6, 3)
        for seed in range(4):
            emotions = np.random.default_rng(seed).integers(0, 8, size=12)
            lazy, plain = train_both(monkeypatch, cause_examples(emotions, seed=seed), table)
            assert lazy.flat.tobytes() != plain.flat.tobytes()  # some block was idle
            assert_lazy_close(lazy, plain)

    def test_injected_gradients_match_the_plain_recursion_before_each_read(self, rng):
        # random block sequences, dense steps among them, with random
        # gradients added straight into the velocity: before each step, the
        # blocks it reads and every other tensor are the recursion's
        m = cause_model.CauseScorer.init(random_table(rng, 5, 3), rng, hidden=4, mid=5)
        plain = cause_model.CauseScorer.over(m.flat.copy(), m.dims, table=m.table)
        lazy_m, plain_m = bilstm_mlp.Momentum(m, core.SgdConfig()), PlainMomentum(plain, core.SgdConfig())
        for step in range(40):
            weights = np.zeros((1, 8))
            if step % 9 == 8:
                weights[0] = rng.dirichlet(np.ones(8))
            else:
                weights[0, rng.integers(3)] = 1.0
            lazy_m.begin_step(weights)
            read = np.flatnonzero(weights[0])
            assert lazy_m.active == (list(read) if len(read) == 1 else list(range(8)))
            assert_lazy_close(m, plain, lazy_m.active)
            grad = m.zeros_like()
            grad.flat[:] = rng.normal(size=grad.flat.size)
            for w_x in (grad.bilstm.forward.w_x, grad.bilstm.backward.w_x):
                w_x[weights[0] == 0] = 0.0
            lazy_m.velocity.flat += grad.flat
            plain_m.velocity.flat += grad.flat
            lazy_m.end_step()
            plain_m.end_step()
        lazy_m.finish()
        assert_lazy_close(m, plain)

    def test_one_block_is_bit_exact(self, monkeypatch):
        table = random_table(np.random.default_rng(2), 6, 3)
        lazy, plain = train_both(monkeypatch, cause_examples([5] * 10), table)
        assert lazy.flat.tobytes() == plain.flat.tobytes()
        table, examples = separable_emotion_setup()
        lazy, plain = train_both(monkeypatch, examples, table, hidden=8,
                                 train=emotion_model.train_emotion)
        assert lazy.flat.tobytes() == plain.flat.tobytes()

    def test_never_active_block_is_never_written(self, monkeypatch):
        # every write into the velocity's input weights goes through the
        # kernels' row-block product or core's blocked pass
        made, written = [], []
        real_pass, real_product = core._momentum_pass, kernels._add_product

        class Recorded(bilstm_mlp.Momentum):
            def __init__(self, model, cfg):
                super().__init__(model, cfg)
                made.append(self)

        def recorded_pass(theta, velocity, rate, decay):
            written.append(velocity)
            real_pass(theta, velocity, rate, decay)

        def recorded_product(target, a, b):
            written.append(target)
            real_product(target, a, b)

        monkeypatch.setattr(bilstm_mlp, "Momentum", Recorded)
        monkeypatch.setattr(core, "_momentum_pass", recorded_pass)
        monkeypatch.setattr(kernels, "_add_product", recorded_product)
        table = random_table(np.random.default_rng(2), 6, 3)
        cause_model.train_cause(cause_examples([1, 6, 1, 1, 6]), table,
                                np.random.default_rng(0), epochs=3, hidden=4)
        velocity = made[0].velocity.bilstm
        for e in range(8):
            blocks = [velocity.forward.w_x[e], velocity.backward.w_x[e]]
            touched = any(np.shares_memory(w, b) for w in written for b in blocks)
            assert touched == (e in (1, 6)), e
            assert all(np.any(b) for b in blocks) == (e in (1, 6)), e

    def test_parameters_are_caught_up_before_train_returns(self, rng):
        m = cause_model.CauseScorer.init(random_table(rng, 5, 3), rng, hidden=4, mid=5)
        rows = m.table.rows(("w0", "w2", "w1"))
        plain = cause_model.CauseScorer.over(m.flat.copy(), m.dims, table=m.table)
        lazy_m, plain_m = bilstm_mlp.Momentum(m, core.SgdConfig()), PlainMomentum(plain, core.SgdConfig())
        for e in (0, 0, 4, 4, 4, 4):  # block 0 ends the run four steps behind
            weights = np.zeros((1, 8))
            weights[0, e] = 1.0
            for model, mom in ((m, lazy_m), (plain, plain_m)):
                mom.begin_step(weights)
                bilstm_mlp.loss_and_grads(model, rows, weights, 1, False, None, mom.velocity)
                mom.end_step()
        behind = np.abs(m.flat - plain.flat)
        assert np.max(behind) > 1e3 * LAZY_RTOL * np.max(np.abs(plain.flat))
        lazy_m.finish()
        assert_lazy_close(m, plain)

    def test_dense_step_updates_every_block(self, rng):
        m = cause_model.CauseScorer.init(random_table(rng, 5, 3), rng, hidden=4, mid=5)
        rows = m.table.rows(("w0", "w2", "w1"))
        lazy_m = bilstm_mlp.Momentum(m, core.SgdConfig())
        for weights in (np.eye(8)[None, 2], rng.dirichlet(np.ones(8))[None, :]):
            before = m.bilstm.forward.w_x.copy()
            lazy_m.begin_step(weights)
            bilstm_mlp.loss_and_grads(m, rows, weights, 1, False, None, lazy_m.velocity)
            lazy_m.end_step()
            changed = np.any(m.bilstm.forward.w_x != before, axis=(1, 2))
            assert changed.tolist() == [bool(w) for w in weights[0]]
