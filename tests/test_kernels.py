import numpy as np
import pytest

from emocause import bilstm_mlp
from emocause.nn import core, kernels

from helpers import (as_interleaved, gate_major, interleaved_lstm_backward_seq,
                     interleaved_lstm_forward_seq, kron_weights, lstm_cell, random_bilstm,
                     reference_lstm_forward_seq)

SHAPES = pytest.mark.parametrize("steps,dim,hidden", [(6, 4, 3), (1, 4, 3), (5, 20, 2), (3, 7, 5)],
                                 ids=["T6-D4-H3", "T1", "D-over-4H", "T3-D7-H5"])


def packed(p, seqs):
    """The kernel's negated, gate-major (T, 4, B, 1, H) input pre-activations
    of one direction for seqs, which are sorted by decreasing length, and
    their lengths."""
    lengths = [len(s) for s in seqs]
    zx = np.zeros((lengths[0], 1, len(seqs), p.w_h.shape[0]))
    for i, s in enumerate(seqs):
        zx[:len(s), 0, i] = s @ kron_weights(p.w_x).T + p.bias
    return gate_major(zx), lengths


def cell_loop(p, xs):
    """(hs, cs) of repeated single-cell application, row 0 the zero state."""
    h = np.zeros(p.hidden_dim)
    c = np.zeros(p.hidden_dim)
    hs, cs = [h], [c]
    for x in xs:
        h, c = lstm_cell(p, x, h, c)
        hs.append(h)
        cs.append(c)
    return np.array(hs), np.array(cs)


class TestSequenceKernels:
    # T=1 gives a one-row input projection; D > 4H a w_x wider than tall
    @SHAPES
    def test_forward_matches_cell_loop(self, rng, steps, dim, hidden):
        # sequence kernel vs repeated single-cell application
        p = random_bilstm(rng, dim, hidden).forward
        xs = rng.normal(size=(steps, dim))
        zx, lengths = packed(p, [xs])
        hs, cs, _, _ = as_interleaved(kernels.lstm_forward_seq(zx, p.w_h[None], lengths))
        assert hs.shape == cs.shape == (steps + 1, 1, 1, hidden)
        h, c = cell_loop(p, xs)
        assert np.allclose(hs[:, 0, 0], h, atol=1e-12)
        assert np.allclose(cs[:, 0, 0], c, atol=1e-12)

    @SHAPES
    def test_one_sequence_bit_identical_to_reference(self, rng, steps, dim, hidden):
        # B = 1, as in training: every output equals the one-sequence kernel's
        p = random_bilstm(rng, dim, hidden).forward
        xs = rng.normal(size=(steps, dim))
        zx, lengths = packed(p, [xs])
        out = as_interleaved(kernels.lstm_forward_seq(zx, p.w_h[None], lengths))
        ref = reference_lstm_forward_seq(kron_weights(p.w_x), p.w_h, p.bias, xs)
        for a, b in zip(out, ref):
            assert a[:, 0, 0].tobytes() == b.tobytes()

    @pytest.mark.parametrize("lengths", [[7, 4, 4, 2, 1, 1], [5, 5, 5], [1], [6, 6, 3, 3]],
                             ids=["mixed", "equal", "B1", "duplicated"])
    def test_batch_matches_cell_loop(self, rng, lengths):
        p = random_bilstm(rng, 5, 4).forward
        seqs = [rng.normal(size=(n, 5)) for n in lengths]
        if lengths == [6, 6, 3, 3]:  # two pairs of identical sequences
            seqs[1], seqs[3] = seqs[0], seqs[2]
        zx, _ = packed(p, seqs)
        out = kernels.lstm_forward_seq(zx, p.w_h[None], lengths)
        assert out[1].shape == (lengths[0], 4, len(lengths), 1, 4)
        assert out[2].shape == (lengths[0] + 1, 4, len(lengths), 1, 4)
        hs, cs, gates, tanh_c = (a[:, 0] for a in as_interleaved(out))
        assert hs.shape == (lengths[0] + 1, len(lengths), 4)
        for i, xs in enumerate(seqs):
            h, c = cell_loop(p, xs)
            n = len(xs)
            assert np.allclose(hs[:n + 1, i], h, rtol=1e-12, atol=1e-15)
            assert np.allclose(cs[:n + 1, i], c, rtol=1e-12, atol=1e-15)
            assert np.allclose(tanh_c[:n, i], np.tanh(c[1:]), rtol=1e-12, atol=1e-15)
            # past its end a sequence is not computed
            assert not np.any(hs[n + 1:, i]) and not np.any(cs[n + 1:, i])

    @pytest.mark.parametrize("lengths", [[2, 3], [3, 0], [2, 2]], ids=["unsorted", "empty", "short"])
    def test_bad_lengths_rejected(self, rng, lengths):
        p = random_bilstm(rng, 2, 2).forward
        with pytest.raises(ValueError, match="lengths"):
            kernels.lstm_forward_seq(np.zeros((3, 4, 1, 2, 2)), p.w_h[None], lengths)


def direction(out, e):
    """Direction e of the forward kernel's (hs, gates, cells), as D = 1
    views: the direction axis comes right before the H axis in each."""
    return [a[..., e:e + 1, :] for a in out]



class TestDirectionAxis:
    """One D = 2 call gives both directions' outputs and gradients byte for
    byte as two D = 1 calls do."""

    @staticmethod
    def paired(m):
        return core.directions(m.forward.w_h, m.backward.w_h)

    @pytest.mark.parametrize("lengths", [[7], [7, 4, 4, 2, 1, 1]], ids=["B1", "B6-mixed"])
    def test_forward_equals_two_calls(self, rng, lengths):
        m = random_bilstm(rng, 5, 6)
        zx = rng.normal(size=(lengths[0], 4, len(lengths), 2, 6))
        for i, n in enumerate(lengths):
            zx[n:, :, i] = 0.0
        apart = [kernels.lstm_forward_seq(zx[..., e:e + 1, :].copy(), p.w_h[None], lengths)
                 for e, p in enumerate((m.forward, m.backward))]
        both = kernels.lstm_forward_seq(zx.copy(), self.paired(m), lengths)
        for e in (0, 1):
            for a, b in zip(direction(both, e), apart[e]):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("block_weights", [[0.0, 1.0, 0.0], [0.2, 0.5, 0.3]],
                             ids=["one-hot", "dense"])
    def test_backward_equals_two_calls(self, rng, block_weights):
        steps, dim, hidden = 6, 5, 4
        m = random_bilstm(rng, dim, hidden, blocks=3)
        w_eff = [core.effective_weights(p.w_x, block_weights) for p in (m.forward, m.backward)]
        xs = rng.normal(size=(2, steps, dim))
        zx = np.stack([xs[e] @ w_eff[e].T + p.bias for e, p in enumerate((m.forward, m.backward))],
                      axis=1)[:, :, None]
        run = [a[..., 0, :, :] for a in kernels.lstm_forward_seq(gate_major(zx), self.paired(m),
                                                                  [steps])]
        d_h_out = rng.normal(size=(steps, 2, hidden))
        dims = (3, dim, hidden, 1, 1)
        apart, both = (bilstm_mlp.Weights.over(np.zeros(bilstm_mlp.n_values(dims)), dims).bilstm
                       for _ in range(2))
        for e, (p, g) in enumerate(((m.forward, apart.forward), (m.backward, apart.backward))):
            kernels.lstm_backward_seq(p.w_h[None], xs[e:e + 1], *direction(run, e)[1:],
                                      d_h_out[:, e:e + 1], g.w_x[None], g.w_h[None],
                                      g.bias[None], block_weights)
        _, d_wx, d_wh, d_bias = both.calls()[0]
        kernels.lstm_backward_seq(self.paired(m), xs, *run[1:], d_h_out, d_wx, d_wh,
                                  d_bias, block_weights)
        for a, b in ((apart.forward, both.forward), (apart.backward, both.backward)):
            for name in ("w_x", "w_h", "bias"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
                assert np.any(getattr(a, name))

    def test_paired_weights_are_a_view_of_the_flat_vector(self, rng):
        m = random_bilstm(rng, 3, 4)
        w_h = self.paired(m)
        assert w_h.shape == (2, 16, 4) and np.shares_memory(w_h, m.forward.w_h)
        assert w_h[0].tobytes() == m.forward.w_h.tobytes()
        assert w_h[1].tobytes() == m.backward.w_h.tobytes()
        apart = core.directions(m.forward.w_h, m.forward.w_h.copy())  # two buffers: a copy
        assert not np.shares_memory(apart, m.forward.w_h)
        assert apart.tobytes() == np.stack([m.forward.w_h] * 2).tobytes()

    def test_kernel_call_views_are_built_once_per_model_and_pairing(self, rng, monkeypatch):
        m = random_bilstm(rng, 3, 4, blocks=2)
        calls = m.calls()
        assert m.calls() is calls and len(calls) == 1
        (dirs, w_x, w_h, bias), = calls
        assert dirs == slice(0, 2) and w_x.shape == (2, 2, 16, 3) and bias.shape == (2, 16)
        for view, name in ((w_x, "w_x"), (w_h, "w_h"), (bias, "bias")):
            assert np.shares_memory(view, getattr(m.forward, name))
            assert view[1].tobytes() == getattr(m.backward, name).tobytes()
        monkeypatch.setattr(core, "PAIR_BYTES", 0)
        assert [c[0] for c in m.calls()] == [slice(0, 1), slice(1, 2)]


class TestAgainstInterleavedKernels:
    """The negated, gate-major forward and the time-major backward with its
    batched weight gradients give the bytes the interleaved kernels they
    replaced give (tests/helpers.py keeps those verbatim): hs, cs, the
    gates, tanh(c), and gradients accumulated over several sequences into
    a vector that already holds values."""

    @pytest.mark.parametrize("hidden", [32, 64, 128, 256])
    @pytest.mark.parametrize("lengths", [[7], [8, 6, 6, 3, 1]], ids=["B1", "B5-ragged"])
    @pytest.mark.parametrize("d", [1, 2], ids=["D1", "D2"])
    @pytest.mark.parametrize("block_weights", [[0.0, 1.0, 0.0], [0.2, 0.5, 0.3]],
                             ids=["one-hot", "dense"])
    def test_same_bytes(self, rng, hidden, lengths, d, block_weights):
        dim, blocks = 16, 3
        dims = (blocks, dim, hidden, 1, 1)
        m = random_bilstm(rng, dim, hidden, blocks=blocks)
        params = (m.forward, m.backward)[:d]
        w_h = (core.directions(m.forward.w_h, m.backward.w_h) if d == 2
               else m.forward.w_h[None])
        steps, batch = lengths[0], len(lengths)
        xs = [rng.normal(size=(d, n, dim)) for n in lengths]
        zx = np.zeros((steps, d, batch, 4 * hidden))
        for i, x in enumerate(xs):
            for e, p in enumerate(params):
                zx[:lengths[i], e, i] = x[e] @ core.effective_weights(p.w_x, block_weights).T \
                    + p.bias
        ref = interleaved_lstm_forward_seq(zx.copy(), w_h, lengths)
        new = kernels.lstm_forward_seq(gate_major(zx), w_h, lengths)
        got = as_interleaved(new)
        for i, n in enumerate(lengths):  # nothing past a sequence's end is read
            for a, b in zip(got, ref):  # hs and cs have a row more than steps
                rows = n + len(a) - steps
                assert a[:rows, :, i].tobytes() == b[:rows, :, i].tobytes()
        # each sequence's gradients added, one after another, into a vector
        # that already holds values, as a training run's velocity does
        start = rng.normal(size=bilstm_mlp.n_values(dims))
        old_g, new_g = (bilstm_mlp.Weights.over(start.copy(), dims).bilstm for _ in range(2))
        old_dirs, new_dirs = (old_g.forward, old_g.backward)[:d], (new_g.forward, new_g.backward)
        # D = 2: strided views of both directions, as when paired(H)
        d_wx, d_wh, d_bias = (core.directions(*(getattr(g, name) for g in new_dirs)) if d == 2
                              else getattr(new_dirs[0], name)[None]
                              for name in ("w_x", "w_h", "bias"))
        for i, n in enumerate(lengths):
            d_h_out = rng.normal(size=(n, d, hidden))
            interleaved_lstm_backward_seq(
                w_h, xs[i], *(a[:n + len(a) - steps, :, i] for a in ref), d_h_out,
                *([getattr(g, name) for g in old_dirs] for name in ("w_x", "w_h", "bias")),
                block_weights)
            kernels.lstm_backward_seq(
                w_h, xs[i], *(a[:n + len(a) - steps, ..., i, :, :] for a in new[1:]),
                d_h_out, d_wx, d_wh, d_bias, block_weights)

        def flat(grads):
            return np.concatenate([getattr(g, name).ravel() for g in grads[:d]
                                   for name in ("w_x", "w_h", "bias")])

        before = bilstm_mlp.Weights.over(start, dims).bilstm
        assert flat(old_dirs).tobytes() == flat(new_dirs).tobytes()
        assert not np.array_equal(flat(new_dirs), flat((before.forward, before.backward)))


def test_the_kernels_identities_hold_bit_for_bit():
    """The negated layout relies on two identities of the installed numpy:
    tanh is odd bit for bit, and (-a) - b is -(a + b) bit for bit. The
    second holds wherever a + b is not zero; where it is an exact zero,
    (-a) - b is +0.0 and -(a + b) is -0.0, a sign that no sigmoid
    (exp(+-0) = 1) and no sum with a nonzero value sees."""
    rng = np.random.default_rng(0)
    scales = np.logspace(-310, 300, 64)  # subnormal to near overflow
    x = np.concatenate([rng.normal(size=1 << 18),
                        (rng.uniform(-4, 4, size=(1 << 12, 64)) * scales).ravel(),
                        [0.0, -0.0, np.inf, -np.inf, 19.0615, 710.0]])
    assert np.tanh(-x).tobytes() == np.negative(np.tanh(x)).tobytes()
    a, b = x, rng.permutation(x)
    b[:1000] = -a[:1000]  # sums that cancel exactly
    with np.errstate(invalid="ignore"):  # inf + -inf
        total = a + b
    keep = np.isfinite(total) & (total != 0)
    assert ((-a) - b)[keep].tobytes() == np.negative(total)[keep].tobytes()
    zero = total == 0
    assert zero.any() and np.array_equal(((-a) - b)[zero], np.negative(total)[zero])
