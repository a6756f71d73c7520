import numpy as np
import pytest

from emocause import bilstm_mlp
from emocause.nn import core, kernels

from helpers import kron_weights, lstm_cell, random_bilstm, reference_lstm_forward_seq

SHAPES = pytest.mark.parametrize("steps,dim,hidden", [(6, 4, 3), (1, 4, 3), (5, 20, 2), (3, 7, 5)],
                                 ids=["T6-D4-H3", "T1", "D-over-4H", "T3-D7-H5"])


def packed(p, seqs):
    """The kernel's time-major (T, 1, B, 4H) input pre-activations of one
    direction for seqs, which are sorted by decreasing length, and their
    lengths."""
    lengths = [len(s) for s in seqs]
    zx = np.zeros((lengths[0], 1, len(seqs), p.w_h.shape[0]))
    for i, s in enumerate(seqs):
        zx[:len(s), 0, i] = s @ kron_weights(p.w_x).T + p.bias
    return zx, lengths


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
        hs, cs, _, _ = kernels.lstm_forward_seq(zx, p.w_h[None], lengths)
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
        out = kernels.lstm_forward_seq(zx, p.w_h[None], lengths)
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
        hs, cs, gates, tanh_c = (a[:, 0] for a in kernels.lstm_forward_seq(zx, p.w_h[None],
                                                                              lengths))
        assert hs.shape == (lengths[0] + 1, len(lengths), 4)
        assert gates.shape == (lengths[0], len(lengths), 16)
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
            kernels.lstm_forward_seq(np.zeros((3, 1, 2, 8)), p.w_h[None], lengths)


class TestDirectionAxis:
    """One D = 2 call gives both directions' outputs and gradients byte for
    byte as two D = 1 calls do."""

    @staticmethod
    def paired(m):
        return core.directions(m.forward.w_h, m.backward.w_h)

    @pytest.mark.parametrize("lengths", [[7], [7, 4, 4, 2, 1, 1]], ids=["B1", "B6-mixed"])
    def test_forward_equals_two_calls(self, rng, lengths):
        m = random_bilstm(rng, 5, 6)
        zx = rng.normal(size=(lengths[0], 2, len(lengths), 24))
        for i, n in enumerate(lengths):
            zx[n:, :, i] = 0.0
        apart = [kernels.lstm_forward_seq(zx[:, e:e + 1].copy(), p.w_h[None], lengths)
                 for e, p in enumerate((m.forward, m.backward))]
        both = kernels.lstm_forward_seq(zx.copy(), self.paired(m), lengths)
        for e in (0, 1):
            for a, b in zip(both, apart[e]):
                assert a[:, e:e + 1].tobytes() == b.tobytes()

    @pytest.mark.parametrize("block_weights", [[0.0, 1.0, 0.0], [0.2, 0.5, 0.3]],
                             ids=["one-hot", "dense"])
    def test_backward_equals_two_calls(self, rng, block_weights):
        steps, dim, hidden = 6, 5, 4
        m = random_bilstm(rng, dim, hidden, blocks=3)
        w_eff = [core.effective_weights(p.w_x, block_weights) for p in (m.forward, m.backward)]
        xs = rng.normal(size=(2, steps, dim))
        zx = np.stack([xs[e] @ w_eff[e].T + p.bias for e, p in enumerate((m.forward, m.backward))],
                      axis=1)[:, :, None]
        run = [a[:, :, 0] for a in kernels.lstm_forward_seq(zx, self.paired(m), [steps])]
        d_h_out = rng.normal(size=(steps, 2, hidden))
        dims = (3, dim, hidden, 1, 1)
        apart, both = (bilstm_mlp.Weights.over(np.zeros(bilstm_mlp.n_values(dims)), dims).bilstm
                       for _ in range(2))
        for e, (p, g) in enumerate(((m.forward, apart.forward), (m.backward, apart.backward))):
            kernels.lstm_backward_seq(p.w_h[None], xs[e:e + 1], *(a[:, e:e + 1] for a in run),
                                      d_h_out[:, e:e + 1], [g.w_x], [g.w_h], [g.bias],
                                      block_weights)
        grads = (both.forward, both.backward)
        kernels.lstm_backward_seq(self.paired(m), xs, *run, d_h_out, [g.w_x for g in grads],
                                  [g.w_h for g in grads], [g.bias for g in grads], block_weights)
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
