import numpy as np
import pytest

from emocause.nn import kernels

from helpers import kron_weights, lstm_cell, random_bilstm, reference_lstm_forward_seq

SHAPES = pytest.mark.parametrize("steps,dim,hidden", [(6, 4, 3), (1, 4, 3), (5, 20, 2), (3, 7, 5)],
                                 ids=["T6-D4-H3", "T1", "D-over-4H", "T3-D7-H5"])


def packed(p, seqs):
    """The kernel's time-major input pre-activations for seqs, which are
    sorted by decreasing length, and their lengths."""
    lengths = [len(s) for s in seqs]
    zx = np.zeros((lengths[0], len(seqs), p.w_h.shape[0]))
    for i, s in enumerate(seqs):
        zx[:len(s), i] = s @ kron_weights(p.w_x).T + p.bias
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
        hs, cs, _, _ = kernels.lstm_forward_seq(zx, p.w_h, lengths)
        assert hs.shape == cs.shape == (steps + 1, 1, hidden)
        h, c = cell_loop(p, xs)
        assert np.allclose(hs[:, 0], h, atol=1e-12)
        assert np.allclose(cs[:, 0], c, atol=1e-12)

    @SHAPES
    def test_one_sequence_bit_identical_to_reference(self, rng, steps, dim, hidden):
        # B = 1, as in training: every output equals the one-sequence kernel's
        p = random_bilstm(rng, dim, hidden).forward
        xs = rng.normal(size=(steps, dim))
        zx, lengths = packed(p, [xs])
        out = kernels.lstm_forward_seq(zx, p.w_h, lengths)
        ref = reference_lstm_forward_seq(kron_weights(p.w_x), p.w_h, p.bias, xs)
        for a, b in zip(out, ref):
            assert a[:, 0].tobytes() == b.tobytes()

    @pytest.mark.parametrize("lengths", [[7, 4, 4, 2, 1, 1], [5, 5, 5], [1], [6, 6, 3, 3]],
                             ids=["mixed", "equal", "B1", "duplicated"])
    def test_batch_matches_cell_loop(self, rng, lengths):
        p = random_bilstm(rng, 5, 4).forward
        seqs = [rng.normal(size=(n, 5)) for n in lengths]
        if lengths == [6, 6, 3, 3]:  # two pairs of identical sequences
            seqs[1], seqs[3] = seqs[0], seqs[2]
        zx, _ = packed(p, seqs)
        hs, cs, gates, tanh_c = kernels.lstm_forward_seq(zx, p.w_h, lengths)
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
            kernels.lstm_forward_seq(np.zeros((3, 2, 8)), p.w_h, lengths)
