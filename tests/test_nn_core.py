import math

import numpy as np
import pytest

from emocause import bilstm_mlp, checks
from emocause.emotion_model import ONE_BLOCK
from emocause.nn import core, kernels
from emocause.nn.gradcheck import max_relative_error, numerical_gradient

from helpers import bilstm_forward, bilstm_outputs, dropout, lstm_cell, random_bilstm


def scalar_lstm_params():
    # one hidden unit; rows are gates i|f|g|o
    return core.LstmParams(
        w_x=np.array([[[0.5], [-0.3], [0.8], [0.2]]]),
        w_h=np.array([[0.1], [0.4], [-0.6], [0.7]]),
        bias=np.array([0.05, -0.15, 0.25, -0.35]),
    )


class TestLstmCell:
    def test_zero_everything(self):
        p = core.LstmParams(np.zeros((1, 4, 2)), np.zeros((4, 1)), np.zeros(4))
        h, c = lstm_cell(p, np.array([3.0, -1.0]), np.zeros(1), np.zeros(1))
        assert h[0] == 0.0 and c[0] == 0.0

    def test_scalar_hand_arithmetic(self):
        # independent oracle: plain math on the gate equations
        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        h0, c0, x = 0.3, -0.2, 1.0
        i = sig(0.5 * x + 0.1 * h0 + 0.05)
        f = sig(-0.3 * x + 0.4 * h0 - 0.15)
        g = math.tanh(0.8 * x - 0.6 * h0 + 0.25)
        o = sig(0.2 * x + 0.7 * h0 - 0.35)
        c1 = f * c0 + i * g
        h1 = o * math.tanh(c1)

        h, c = lstm_cell(scalar_lstm_params(), np.array([x]),
                              np.array([h0]), np.array([c0]))
        assert h[0] == pytest.approx(h1, abs=1e-6)
        assert c[0] == pytest.approx(c1, abs=1e-6)

    def test_saturated_gates_pass_cell_through(self):
        # huge forget bias, huge negative input bias: c' ~ c
        p = core.LstmParams(np.zeros((1, 4, 1)),
                            np.zeros((4, 1)),
                            np.array([-50.0, 50.0, 0.0, 0.0]))
        c0 = np.array([0.7])
        _, c1 = lstm_cell(p, np.array([0.0]), np.zeros(1), c0)
        assert c1[0] == pytest.approx(0.7, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lstm_cell(scalar_lstm_params(), np.array([1.0, 2.0]),
                           np.zeros(1), np.zeros(1))


class TestBiLstm:
    def test_length_one_sequence(self, rng):
        m = random_bilstm(rng, 3, 2)
        x = rng.normal(size=(1, 3))
        out = bilstm_forward(m, x)
        assert len(out) == 1 and out[0].shape == (4,)
        h_f, c_f = lstm_cell(m.forward, x[0], np.zeros(2), np.zeros(2))
        h_b, c_b = lstm_cell(m.backward, x[0], np.zeros(2), np.zeros(2))
        assert np.allclose(out[0], np.concatenate([h_f, h_b]), atol=1e-12)

    def test_palindrome_symmetry(self, rng):
        # same params both directions + palindromic input: reversing the
        # output sequence and swapping its halves is the identity
        p = random_bilstm(rng, 3, 2).forward
        m = core.BiLstm(p, p)
        a, b = rng.normal(size=3), rng.normal(size=3)
        out = bilstm_forward(m, np.stack([a, b, a]))
        for t in range(3):
            mirrored = np.concatenate([out[2 - t][2:], out[2 - t][:2]])
            assert np.allclose(out[t], mirrored, atol=1e-12)

    def test_output_length_matches_input(self, rng):
        m = random_bilstm(rng, 3, 2)
        for n in range(1, 11):
            assert len(bilstm_forward(m, rng.normal(size=(n, 3)))) == n

    def test_empty_sequence_rejected(self, rng):
        m = random_bilstm(rng, 3, 2)
        with pytest.raises(ValueError, match="nonempty"):
            bilstm_forward(m, np.empty((0, 3)))

    def test_last_output_is_final_state_of_each_direction(self, rng):
        m = random_bilstm(rng, 3, 2)
        xs = rng.normal(size=(4, 3))
        cache = core.bilstm_run(m, xs, (4,), ONE_BLOCK)
        last = core.bilstm_last_output(cache)[0]
        outs = bilstm_outputs(cache)
        assert np.array_equal(last[:2], outs[-1][:2])   # forward at T-1
        assert np.array_equal(last[2:], outs[0][2:])    # backward at 0

    def test_batch_matches_one_sequence_runs(self, rng):
        # mixed lengths out of order, a tie, and a run of equal block weights
        m = random_bilstm(rng, 3, 3, blocks=2)
        lengths = [2, 5, 1, 5, 3]
        rows = rng.normal(size=(sum(lengths), 3))
        weights = rng.dirichlet(np.ones(2), size=5)
        weights[2] = weights[1]
        last = core.bilstm_last_output(core.bilstm_run(m, rows, lengths, weights))
        start = 0
        for i, n in enumerate(lengths):
            one = core.bilstm_run(m, rows[start:start + n], (n,), weights[i:i + 1])
            assert np.allclose(last[i], core.bilstm_last_output(one)[0], rtol=1e-12, atol=1e-15)
            start += n

    # 2 * 4H * H * 8 bytes is exactly core.PAIR_BYTES at H = 128
    @pytest.mark.parametrize("hidden,calls", [(128, 1), (129, 2)], ids=["at-bound", "over"])
    def test_one_kernel_call_for_both_directions_up_to_the_bound(self, rng, monkeypatch,
                                                                   hidden, calls):
        spied = {"lstm_forward_seq": [], "lstm_backward_seq": []}
        for name, seen in spied.items():
            real = getattr(kernels, name)
            monkeypatch.setattr(kernels, name,
                                lambda *a, _real=real, _seen=seen: _seen.append(a) or _real(*a))
        m = random_bilstm(rng, 2, hidden)
        cache = core.bilstm_run(m, rng.normal(size=(3, 2)), (3,), ONE_BLOCK)
        grad = random_bilstm(rng, 2, hidden)
        core.bilstm_backward_last(m, cache, rng.normal(size=2 * hidden), grad)
        assert core.paired(hidden) == (calls == 1)
        assert [len(seen) for seen in spied.values()] == [calls, calls]
        # every call carries the direction axis: D = 2 at the bound, D = 1 over it
        w_h = [a[1] for a in spied["lstm_forward_seq"]] + [a[0] for a in spied["lstm_backward_seq"]]
        assert [a.shape for a in w_h] == [(2 // calls, 4 * hidden, hidden)] * (2 * calls)
        assert core.bilstm_last_output(cache).shape == (1, 2 * hidden)

    def test_paired_and_apart_runs_are_the_same_bytes(self, rng, monkeypatch):
        m = random_bilstm(rng, 3, 5, blocks=2)
        lengths = [2, 5, 1, 5, 3]
        rows = rng.normal(size=(sum(lengths), 3))
        weights = rng.dirichlet(np.ones(2), size=5)
        paired = core.bilstm_last_output(core.bilstm_run(m, rows, lengths, weights))
        monkeypatch.setattr(core, "PAIR_BYTES", 0)
        apart = core.bilstm_last_output(core.bilstm_run(m, rows, lengths, weights))
        assert paired.tobytes() == apart.tobytes()

    @pytest.mark.parametrize("lengths", [[5], [2, 5, 1]], ids=["B1", "B3"])
    def test_rows_held_with_their_reversal_give_the_same_bytes(self, rng, lengths):
        # a training run hands in each example's (2, T, d) rows, forward and
        # reversed, as the cache holds them
        m = random_bilstm(rng, 3, 4, blocks=2)
        rows = rng.normal(size=(sum(lengths), 3))
        weights = rng.dirichlet(np.ones(2), size=len(lengths))
        cache = core.bilstm_run(m, rows, lengths, weights)
        held = core.bilstm_run(m, cache.xs.copy(), lengths, weights)
        assert held.xs.tobytes() == cache.xs.tobytes()
        assert cache.xs[1, :lengths[0]].tobytes() == rows[:lengths[0]][::-1].tobytes()
        for (_, _, a), (_, _, b) in zip(cache.runs, held.runs):  # hs and cells
            assert a[0].tobytes() == b[0].tobytes() and a[2].tobytes() == b[2].tobytes()
        with pytest.raises(ValueError, match="nonempty"):
            core.bilstm_run(m, np.stack([rows] * 3), lengths, weights)

    def test_rows_must_match_lengths_and_width(self, rng):
        m = random_bilstm(rng, 3, 2)
        with pytest.raises(ValueError, match="rows"):
            core.bilstm_run(m, rng.normal(size=(4, 3)), (3,), ONE_BLOCK)
        with pytest.raises(ValueError, match="input dim"):
            core.bilstm_run(m, rng.normal(size=(4, 2)), (4,), ONE_BLOCK)


class TestLinear:
    def test_identity(self):
        p = core.LinearParams(np.eye(3), np.zeros(3))
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(core.linear(p, x), x)

    def test_zero_weight_gives_bias(self):
        p = core.LinearParams(np.zeros((2, 3)), np.array([5.0, -1.0]))
        assert np.array_equal(core.linear(p, np.ones(3)), [5.0, -1.0])

    def test_hand_product(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        b = np.array([0.5, -0.5, 1.0])
        x = np.array([2.0, -1.0])
        expected = [1 * 2 - 2 * 1 + 0.5, 3 * 2 - 4 * 1 - 0.5, 5 * 2 - 6 * 1 + 1.0]
        assert np.allclose(core.linear(core.LinearParams(w, b), x), expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            core.linear(core.LinearParams(np.eye(2), np.zeros(2)), np.ones(3))


class TestActivations:
    def test_elu_fixed_points(self):
        assert core.elu(np.array([0.0]))[0] == 0.0
        assert core.elu(np.array([1.0]))[0] == 1.0

    def test_elu_negative(self):
        assert core.elu(np.array([-1.0]))[0] == pytest.approx(math.exp(-1) - 1, abs=1e-6)

    def test_sigmoid_half(self):
        assert core.sigmoid(0.0) == 0.5

    def test_sigmoid_symmetry(self, rng):
        for x in rng.normal(scale=3.0, size=50):
            assert core.sigmoid(-x) == pytest.approx(1.0 - core.sigmoid(x), abs=1e-12)

    def test_sigmoid_two(self):
        assert core.sigmoid(2.0) == pytest.approx(0.880797, abs=1e-6)

    def test_log_softmax_uniform(self):
        out = core.log_softmax(np.full(8, 3.7))
        assert np.allclose(out, -math.log(8), atol=1e-12)

    def test_log_softmax_normalizes(self, rng):
        for _ in range(20):
            x = rng.normal(scale=5.0, size=6)
            assert np.exp(core.log_softmax(x)).sum() == pytest.approx(1.0, abs=1e-9)

    def test_log_softmax_stable(self):
        out = core.log_softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-9)
        assert out[1] == pytest.approx(-1000.0, abs=1e-9)


class TestDropout:
    def test_p_zero_identity(self, rng):
        x = rng.normal(size=10)
        assert np.array_equal(dropout(x, 0.0, train=True, rng=rng), x)

    def test_eval_identity(self, rng):
        x = rng.normal(size=10)
        assert np.array_equal(dropout(x, 0.5, train=False), x)

    def test_statistics(self, rng):
        x = rng.uniform(0.5, 1.5, size=10000)
        out = dropout(x, 0.5, train=True, rng=rng)
        surviving = np.count_nonzero(out) / x.size
        assert abs(surviving - 0.5) < 0.02
        assert abs(out.mean() - x.mean()) < 0.05 * x.mean()
        # survivors are scaled by 1/(1-p)
        kept = out[out != 0]
        assert np.allclose(np.sort(kept), np.sort(2.0 * x[out != 0]), atol=1e-12)

    def test_bad_probability(self, rng):
        with pytest.raises(ValueError):
            dropout(np.ones(3), 1.0, train=True, rng=rng)

    def test_seed_determinism(self):
        x = np.arange(1.0, 101.0)
        a = dropout(x, 0.5, train=True, rng=np.random.default_rng(9))
        b = dropout(x, 0.5, train=True, rng=np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestLosses:
    def test_nll_certain_prediction(self):
        log_probs = np.log(np.array([1.0 - 2e-16, 1e-16, 1e-16]))
        assert core.nll_loss(log_probs, 0) == pytest.approx(0.0, abs=1e-9)

    def test_nll_uniform_eight(self):
        assert core.nll_loss(np.full(8, -math.log(8)), 3) == pytest.approx(math.log(8))

    def test_nll_picks_index(self, rng):
        log_probs = core.log_softmax(rng.normal(size=5))
        assert core.nll_loss(log_probs, 2) == -log_probs[2]

    def test_bce_half(self):
        assert core.bce_loss(0.5, 1) == pytest.approx(math.log(2), abs=1e-12)

    def test_bce_is_neg_log_p(self, rng):
        for p in rng.uniform(0.01, 0.99, size=20):
            assert core.bce_loss(p, 1) == pytest.approx(-math.log(p), abs=1e-12)

    def test_bce_clamps_at_boundary(self):
        loss = core.bce_loss(0.0, 1)
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(core.BCE_EPS), abs=1e-9)

    def test_bce_bad_label(self):
        with pytest.raises(ValueError):
            core.bce_loss(0.5, 2)


class TestSgd:
    """sgd_step takes the velocity with this step's gradient already added
    (as the backward pass leaves it), updates theta and scales the velocity
    by the momentum for the next step."""

    def test_one_step_to_zero(self):
        cfg = core.SgdConfig(learning_rate=1.0, momentum=0.0)
        theta = np.array([3.0, -2.0])
        core.sgd_step(cfg, theta, theta.copy())
        assert np.array_equal(theta, [0.0, 0.0])

    def test_zero_gradient_no_change(self):
        cfg = core.SgdConfig()
        theta, velocity = np.array([1.0, 2.0]), np.zeros(2)
        for _ in range(2):
            core.sgd_step(cfg, theta, velocity)
        assert np.array_equal(theta, [1.0, 2.0])

    def test_two_step_hand_recursion(self):
        # v1 = g, theta1 = theta0 - lr*g; v2 = 0.9g + g; theta2 = theta0 - lr*g*(1 + 1.9)
        lr = 0.003
        cfg = core.SgdConfig(learning_rate=lr, momentum=0.9)
        theta0 = np.array([1.0, -4.0])
        g = np.array([0.5, 2.0])
        theta, velocity = theta0.copy(), np.zeros(2)
        for _ in range(2):
            velocity += g
            core.sgd_step(cfg, theta, velocity)
        assert np.allclose(theta, theta0 - lr * g * (1.0 + 1.9), atol=1e-12)

    def test_two_steps_bit_exact(self):
        # no gradient vector is held; theta must still follow the plain
        # recursion bit for bit
        lr = 0.003
        cfg = core.SgdConfig(learning_rate=lr, momentum=0.9)
        theta0 = np.array([1.0, -4.0, 0.3])
        g = np.array([0.5, 2.0, -7.1])
        theta, velocity = theta0.copy(), np.zeros(3)
        velocity += g
        core.sgd_step(cfg, theta, velocity)
        theta1 = theta0 - lr * g
        assert np.array_equal(theta, theta1)
        velocity += g
        core.sgd_step(cfg, theta, velocity)
        theta2 = theta1 - lr * (0.9 * g + g)
        assert np.array_equal(theta, theta2)

    def test_blocked_pass_is_the_plain_recursion(self, rng):
        # three whole blocks and a short last one, over three steps
        cfg = core.SgdConfig(learning_rate=0.003, momentum=0.9)
        n = 3 * kernels.BLOCK + 7
        theta0 = rng.normal(size=n)
        grads = rng.normal(size=(3, n))
        theta, velocity = theta0.copy(), np.zeros(n)
        plain_theta, plain_v = theta0.copy(), np.zeros(n)
        for g in grads:
            velocity += g
            core.sgd_step(cfg, theta, velocity)
            plain_v = 0.9 * plain_v + g
            plain_theta = plain_theta - 0.003 * plain_v
            assert theta.tobytes() == plain_theta.tobytes()
            assert velocity.tobytes() == (0.9 * plain_v).tobytes()

    def test_velocity_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="differ in shape"):
            core.sgd_step(core.SgdConfig(), np.zeros(3), np.zeros(2))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            core.SgdConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            core.SgdConfig(momentum=1.0)

    @pytest.mark.parametrize("field, value", [("learning_rate", math.nan),
                                              ("learning_rate", math.inf),
                                              ("momentum", math.nan)])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ValueError):
            core.SgdConfig(**{field: value})


class TestInitialization:
    def test_bit_reproducible(self):
        a = bilstm_mlp.draw((1, 5, 3, 4, 2), np.random.default_rng(77))
        b = bilstm_mlp.draw((1, 5, 3, 4, 2), np.random.default_rng(77))
        assert np.array_equal(a, b)

    def test_bounds(self):
        p = random_bilstm(np.random.default_rng(0), 16, 8).forward
        assert np.all(np.abs(p.w_x) <= 1.0 / 4.0)
        assert np.all(np.abs(p.w_h) <= 1.0 / math.sqrt(8))


class TestGradientChecks:
    """Quick single-seed versions; the acceptance suite sweeps 5 seeds."""

    @pytest.mark.parametrize("name,check", checks.LAYER_CHECKS,
                             ids=[n for n, _ in checks.LAYER_CHECKS])
    def test_layer(self, name, check):
        assert check(0) < 1e-4

    @pytest.mark.parametrize("name,check", checks.ARCHITECTURE_CHECKS,
                             ids=[n for n, _ in checks.ARCHITECTURE_CHECKS])
    def test_architecture(self, name, check):
        assert check(0) < 1e-4

    def test_bilstm_check_is_the_same_with_the_directions_apart(self, monkeypatch):
        # the toy hidden size pairs the directions; a zero bound runs them apart
        assert core.paired(checks.TOY_HIDDEN)
        paired = [checks.check_bilstm_last(seed) for seed in range(5)]
        monkeypatch.setattr(core, "PAIR_BYTES", 0)
        assert [checks.check_bilstm_last(seed) for seed in range(5)] == paired

    # shape edges of the batched products: T=1 (one-row projection and dZ,
    # no recurrence) and D > 4H (TOY_DIM inputs into one hidden unit)
    @pytest.mark.parametrize("steps,hidden", [(1, 3), (4, 1)], ids=["T1", "D-over-4H"])
    def test_lstm_shape_edges(self, steps, hidden):
        assert checks.check_lstm(0, hidden=hidden, steps=steps) < 1e-4

    def test_numerical_gradient_on_quadratic(self):
        # sanity for the checker itself: f = sum(x^2), grad = 2x
        x = np.array([1.0, -2.0, 0.5])
        num = numerical_gradient(lambda: float(np.sum(x * x)), x)
        assert max_relative_error(2.0 * x, num) < 1e-8
