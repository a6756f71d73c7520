import numpy as np
import pytest

from emocause.nn import kernels

from helpers import lstm_cell, random_bilstm


class TestSequenceKernels:
    # T=1 gives a one-row input projection; D > 4H a w_x wider than tall
    @pytest.mark.parametrize("steps,dim,hidden", [(6, 4, 3), (1, 4, 3), (5, 20, 2), (3, 7, 5)],
                             ids=["T6-D4-H3", "T1", "D-over-4H", "T3-D7-H5"])
    def test_forward_matches_cell_loop(self, rng, steps, dim, hidden):
        # sequence kernel vs repeated single-cell application
        p = random_bilstm(rng, dim, hidden).forward
        xs = rng.normal(size=(steps, dim))
        hs, cs, _, _ = kernels.lstm_forward_seq(p.w_x, p.w_h, p.bias, xs)
        assert hs.shape == cs.shape == (steps + 1, hidden)
        h = np.zeros(hidden)
        c = np.zeros(hidden)
        for t in range(steps):
            h, c = lstm_cell(p, xs[t], h, c)
            assert np.allclose(hs[t + 1], h, atol=1e-12)
            assert np.allclose(cs[t + 1], c, atol=1e-12)
